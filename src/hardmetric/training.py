"""End-to-end training loop: tuple mining, hardness augmentation, feature
synthesis, the adaptively weighted metric objective, and bookkeeping.

Each step runs, on one batch: embed the originals and compute the plain
metric loss; harden the negatives at the current schedule; decode the
hardened tuple back to feature space; re-project those synthetic features
and compute the synthetic metric loss; then blend the two losses with a
weight derived from how well the generator is doing and update the
parameter partitions. Gradient routing is strict: the blended metric loss
updates the extractor (original path only) and the projector (both paths);
the generator objective updates the generator only; the classifier head
trains on real features only. The epoch-mean metric loss feeds the
hardness schedule of the following epoch.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .augmentor import AugmentorState, augment_tuples, pulling_lambda
from .checkpoint import Models, save_checkpoint
from .data import Dataset, ZeroShotSplit, check_train_fraction, split_zero_shot
from .embedder import embed, embed_backward, extract, init_embedder, project, project_backward
from .errors import InputError, NumericalError, check_nonnegative, check_positive
from .evaluation import EvalReport, check_ks, evaluate_embeddings
from .generator import classifier_step, generator_loss, init_generator
from .losses import TupleBatch, batch_metric_loss
from .nn import Adam, init_dense, stack_params

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Every knob of a training run; the config file mirrors these fields.

    alpha/beta defaults are sized for the bundled synthetic benchmark, where
    epoch-average metric losses converge to O(0.01..0.1) and generator losses
    to O(100); both knobs scale with the loss magnitudes of whatever data
    they are applied to, so expect to retune them off this benchmark.
    """

    loss_kind: str = "triplet"
    alpha: float = 0.04
    beta: float = 80.0
    lambda_balance: float = 0.5
    margin: float = 1.0
    npair_n: int = 5
    batch_size: int = 32
    epochs: int = 30
    learning_rate: float = 1e-4
    fc_lr_multiplier: float = 10.0
    seed: int = 0
    embed_dim: int = 64
    eval_every: int = 0
    hidden_dims: tuple[int, ...] = (256, 256)
    generator_hidden_dim: int | None = None
    train_fraction: float = 0.5
    split_seed: int = 0
    synthetics: bool = True
    recall_ks: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        if self.loss_kind not in ("triplet", "npair"):
            raise InputError(f"loss_kind must be 'triplet' or 'npair', got {self.loss_kind!r}")
        # counts, widths and seeds feed `range`, array shapes and generators, which take no float; a bool is no count
        names = ("npair_n", "batch_size", "epochs", "eval_every", "embed_dim", "seed", "split_seed")
        integers = [(name, getattr(self, name)) for name in names] + [("hidden_dims", w) for w in self.hidden_dims]
        if self.generator_hidden_dim is not None:
            integers.append(("generator_hidden_dim", self.generator_hidden_dim))
        for name, value in integers:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InputError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "fc_lr_multiplier", "beta", "embed_dim"):
            check_positive(name, getattr(self, name))
        for name in ("alpha", "lambda_balance", "margin", "seed", "split_seed", "epochs", "eval_every"):
            check_nonnegative(name, getattr(self, name))
        if self.generator_hidden_dim is not None:
            check_positive("generator_hidden_dim", self.generator_hidden_dim)
        for width in self.hidden_dims:
            check_positive("hidden_dims", width)
        check_train_fraction(self.train_fraction)
        if self.npair_n < 2:
            raise InputError(f"npair_n must be at least 2, got {self.npair_n}")
        if self.batch_size < 2:
            raise InputError(f"batch_size must be at least 2, got {self.batch_size}")
        check_ks("recall_ks", self.recall_ks)


def init_models(input_dim: int, num_train_classes: int, config: TrainConfig) -> Models:
    rng = np.random.default_rng(config.seed)
    embedder = init_embedder(input_dim, hidden_dims=tuple(config.hidden_dims), embed_dim=config.embed_dim, rng=rng)
    if not config.synthetics:
        return Models(embedder)
    feature_dim = embedder.projector.in_dim
    generator = init_generator(config.embed_dim, feature_dim, hidden_dim=config.generator_hidden_dim, rng=rng)
    classifier = init_dense(feature_dim, num_train_classes, "identity", rng)
    return Models(embedder, generator, classifier)


@dataclass
class LogRow:
    step: int
    epoch: int
    j_m: float
    j_syn: float
    j_gen: float
    j_recon: float
    j_soft: float
    weight_w: float
    lambda_interp: float

    def as_csv(self) -> str:
        # every value is a Python int or float, whose repr is its shortest round-trip form;
        # the instance dict holds the fields in declaration order
        return ",".join([repr(v) for v in vars(self).values()])


CURVE_HEADER = ",".join(f.name for f in fields(LogRow))


@dataclass
class TrainState:
    """Mutable loop state: counters, schedule, optimizer slots, history.

    `run_training` sets every optimizer to None once its last epoch ends, so a
    finished run's state holds no Adam moments and takes no further steps.
    """

    augmentor: AugmentorState
    rng: np.random.Generator
    adam_extractor: Adam | None
    adam_projector: Adam | None
    adam_generator: Adam | None = None
    adam_classifier: Adam | None = None
    epoch: int = 0
    step: int = 0
    skipped_batches: int = 0
    history: list[LogRow] = field(default_factory=list)


def init_state(models: Models, config: TrainConfig) -> TrainState:
    fc_rate = config.learning_rate * config.fc_lr_multiplier
    return TrainState(
        augmentor=AugmentorState(alpha=config.alpha),
        rng=np.random.default_rng(config.seed),
        adam_extractor=Adam(stack_params(models.embedder.extractor), config.learning_rate),
        adam_projector=Adam(stack_params([models.embedder.projector]), fc_rate),
        adam_generator=Adam(stack_params(models.generator), fc_rate) if models.generator else None,
        adam_classifier=Adam(stack_params([models.classifier]), fc_rate) if models.classifier else None,
    )


def _why_no_tuple(class_counts: np.ndarray, config: TrainConfig) -> str | None:
    """Why no `config.loss_kind` tuple can be drawn from samples with these
    per-class counts, or None when one can."""
    paired = int((class_counts >= 2).sum())
    if config.loss_kind == "npair":
        n = config.npair_n
        return None if paired >= n else f"npair_n = {n} needs {n} classes with two samples, got {paired}"
    if len(class_counts) < 2:
        return f"triplets need at least 2 classes, got {len(class_counts)}"
    return None if paired else "no class has two samples"


def mine_tuples(labels, config: TrainConfig, rng: np.random.Generator) -> TupleBatch | None:
    """Random `config.loss_kind` tuples from one batch; None (its reason logged at DEBUG) when infeasible.

    triplet: every sample whose class occurs twice in the batch anchors one
    triplet with a random positive and a random negative. npair: npair_n
    classes holding at least two samples are drawn, two samples each.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes, counts = np.unique(labels, return_counts=True)
    reason = _why_no_tuple(counts, config)
    if reason is not None:
        log.debug("batch skipped: %s", reason)
        return None
    if config.loss_kind == "triplet":
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        anchors = np.flatnonzero(same.any(axis=1))
        # anchor by anchor, one draw among its other same-class rows, then
        # one among its other-class rows; draw k picks the pool's k-th row
        pools = np.stack([same[anchors], labels[None, :] != labels[anchors, None]], axis=1)
        draws = rng.integers(0, pools.sum(axis=2))
        picks = (pools.cumsum(axis=2) > draws[..., None]).argmax(axis=2)
        return TupleBatch("triplet", anchors, picks[:, 0], picks[:, 1], labels)
    chosen = rng.choice(classes[counts >= 2], size=config.npair_n, replace=False)
    pairs = np.asarray([rng.choice(np.flatnonzero(labels == lab), size=2, replace=False) for lab in chosen])
    return TupleBatch.npair(pairs[:, 0], pairs[:, 1], labels)


def metric_weight(j_gen: float, beta: float) -> float:
    """Blend weight exp(-beta / j_gen) on the original-tuple loss.

    A struggling generator (large j_gen) pushes the weight toward 1 so the
    synthetic loss barely counts; j_gen = 0 maps to 0.
    """
    check_positive("beta", beta)
    if j_gen <= 0.0:
        return 0.0
    if math.isinf(j_gen):
        return 1.0
    return math.exp(-beta / j_gen)


def _check_finite(value: float, component: str) -> float:
    if not math.isfinite(value):
        raise NumericalError(f"non-finite {component}: {value}")
    return value


def train_step(models: Models, x, labels, state: TrainState, config: TrainConfig) -> LogRow | None:
    """One simultaneous update of all parameter partitions on one batch.

    Returns the logged row, or None when no tuples could be mined. Each
    partition is updated by its own optimizer in `state`, once every loss of
    the step has proved finite: a step that raises `NumericalError` updates
    nothing. The partitions are stepped in the order extractor, projector,
    generator, classifier; the classifier last, once `generator_loss` has
    read it. A finished run's state, whose optimizers are freed, is refused.
    """
    if state.adam_extractor is None:
        raise InputError("this state's run has finished and freed its optimizers; it takes no further steps")
    tuples = mine_tuples(labels, config, state.rng)
    if tuples is None:
        state.skipped_batches += 1
        return None

    features, ext_tapes = extract(models.embedder, x)
    z, proj_tape = project(models.embedder, features)
    j_m, grad_z_m = batch_metric_loss(z, tuples, config.margin)
    _check_finite(j_m, "metric loss over original tuples")
    lam = pulling_lambda(state.augmentor)

    # the plain loss is the blend at w = 1 without synthetic terms
    w, j_syn, gen_terms, syn_grad = 1.0, 0.0, (0.0, 0.0, 0.0), None
    if config.synthetics:
        aug = augment_tuples(z, tuples, state.augmentor)
        members, hardened, t = aug.members, aug.hardened_negatives, aug.size
        gen = generator_loss(
            models.generator,
            models.classifier,
            features[members],
            z[members],
            hardened.reshape(-1, hardened.shape[-1]),
            aug.synthetic.labels[2 * t :],
            config.lambda_balance,
        )
        gen_terms = (gen.j_gen, gen.j_recon, gen.j_soft)
        w = metric_weight(gen.j_gen, config.beta)
        # the synthetic rows: reconstructed anchors and positives, then the decoded hardened negatives
        syn_z, syn_tape = project(models.embedder, np.vstack([gen.member_features[: 2 * t], gen.hardened_features]))
        j_syn, grad_z_syn = batch_metric_loss(syn_z, aug.synthetic, config.margin)
        syn_grad = (1.0 - w) * grad_z_syn
        _check_finite(j_syn, "metric loss over synthetic tuples")

    # original path reaches the extractor; both paths reach the projector
    ext_grads, proj_grads = embed_backward(models.embedder, ext_tapes, proj_tape, w * grad_z_m)
    if syn_grad is not None:
        syn_proj_grads = project_backward(models.embedder, syn_tape, syn_grad)
        proj_grads = [g + s for g, s in zip(proj_grads, syn_proj_grads)]
    state.adam_extractor.step(ext_grads)
    state.adam_projector.step(proj_grads)
    if config.synthetics:
        state.adam_generator.step(gen.grads)
        classifier_step(models.classifier, features, labels, state.adam_classifier)

    row = LogRow(state.step, state.epoch, j_m, j_syn, *gen_terms, w, lam)
    state.step += 1
    state.history.append(row)
    return row


@dataclass
class EvalPoint:
    epoch: int
    report: EvalReport


@dataclass
class TrainResult:
    """A finished run: what its checkpoint holds, plus the split, scores and
    the loop state's counters, schedule and history; no optimizer state."""

    models: Models
    state: TrainState
    config: TrainConfig
    split: ZeroShotSplit
    label_map: dict[int, int]
    final_report: EvalReport
    eval_history: list[EvalPoint]
    elapsed_seconds: float


def _remap_labels(labels: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    classes, dense = np.unique(labels, return_inverse=True)
    return dense.astype(np.int64), {int(c): i for i, c in enumerate(classes)}


def _check_runnable(config: TrainConfig, class_counts: np.ndarray, num_test_points: int) -> None:
    """Refuse, before any training, a config under which `mine_tuples` can never
    return a tuple from training classes with these sample counts, or the
    final Recall@K cannot be computed."""
    reason = _why_no_tuple(class_counts, config)
    if reason is not None:
        raise InputError(f"no {config.loss_kind} tuple can be drawn from the training classes: {reason}")
    n = config.npair_n
    if config.loss_kind == "npair" and 2 * n > config.batch_size:
        raise InputError(f"npair_n = {n} needs batch_size >= {2 * n}, got {config.batch_size}")
    if config.loss_kind == "triplet" and config.batch_size < 3:
        raise InputError(f"a triplet needs batch_size >= 3, got {config.batch_size}")
    check_ks("recall_ks", config.recall_ks, num_test_points)


def run_training(dataset: Dataset, config: TrainConfig, out_dir=None) -> TrainResult:
    """Full run: split, train for the configured epochs, evaluate, persist.

    The class-disjoint guarantee of the split is asserted on every run. The
    epoch-mean original-tuple loss is published to the hardness schedule at
    each epoch boundary. Every batch, a short tail included, goes to
    `train_step`; one that yields no tuple counts in `skipped_batches`. Once
    the last epoch ends, the optimizers are freed before the final
    evaluation, which reuses their memory; the returned state takes no
    further steps. With out_dir set, writes curves.csv, manifest.json, and
    checkpoint.npz there.
    """
    if dataset.num_samples == 0:
        raise InputError("dataset is empty")
    started = time.monotonic()
    split = split_zero_shot(dataset, config.train_fraction, config.split_seed)
    assert not np.intersect1d(split.train_classes, split.test_classes).size, "zero-shot guarantee violated"

    # steps and evaluations index through these: no copy of either side is held between them
    train_rows = np.flatnonzero(np.isin(dataset.labels, split.train_classes))
    test_rows = np.flatnonzero(np.isin(dataset.labels, split.test_classes))
    test_labels = dataset.labels[test_rows]
    train_labels, label_map = _remap_labels(dataset.labels[train_rows])
    _check_runnable(config, np.bincount(train_labels), len(test_labels))

    models = init_models(dataset.input_dim, len(split.train_classes), config)
    state = init_state(models, config)
    eval_history: list[EvalPoint] = []

    n = len(train_rows)
    for epoch in range(config.epochs):
        epoch_start_rows, skipped = len(state.history), state.skipped_batches
        order = state.rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            train_step(models, dataset.samples[train_rows[rows]], train_labels[rows], state, config)
        epoch_rows = state.history[epoch_start_rows:]
        if epoch_rows:
            # the schedule sees the epoch mean only at the boundary
            state.augmentor.j_avg = float(np.mean([r.j_m for r in epoch_rows]))
        if skipped := state.skipped_batches - skipped:
            log.warning("epoch %d: skipped batches: %d (no tuple could be mined from them)", epoch, skipped)
        log.info(
            "epoch %d: j_m=%.4f lambda=%.4f steps=%d skipped=%d",
            epoch,
            state.augmentor.j_avg if epoch_rows else float("nan"),
            pulling_lambda(state.augmentor),
            len(epoch_rows),
            skipped,
        )
        state.epoch += 1
        if config.eval_every and (epoch + 1) % config.eval_every == 0 and epoch + 1 < config.epochs:
            eval_history.append(EvalPoint(epoch, _evaluate(models, dataset.samples[test_rows], test_labels, config)))

    # nothing reads the Adam moments after the last step, and the checkpoint omits them
    state.adam_extractor = state.adam_projector = state.adam_generator = state.adam_classifier = None
    final_report = _evaluate(models, dataset.samples[test_rows], test_labels, config)
    eval_history.append(EvalPoint(config.epochs - 1 if config.epochs else -1, final_report))
    result = TrainResult(
        models,
        state,
        config,
        split,
        label_map,
        final_report,
        eval_history,
        time.monotonic() - started,
    )
    if out_dir is not None:
        write_artifacts(result, out_dir, dataset)
    return result


def _evaluate(models: Models, test_x, test_labels, config: TrainConfig) -> EvalReport:
    z = embed(models.embedder, test_x)[0].embeddings
    return evaluate_embeddings(z, test_labels, ks=config.recall_ks, kmeans_seed=0)


def write_curves(history: list[LogRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CURVE_HEADER + "\n")
        for row in history:
            fh.write(row.as_csv() + "\n")


def write_artifacts(result: TrainResult, out_dir, dataset: Dataset) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_curves(result.state.history, os.path.join(out_dir, "curves.csv"))
    manifest = {
        "config": asdict(result.config),
        "seed": result.config.seed,
        "dataset": {
            "num_samples": dataset.num_samples,
            "num_classes": dataset.num_classes,
            "input_dim": dataset.input_dim,
        },
        "split": {
            "train_classes": result.split.train_classes.tolist(),
            "test_classes": result.split.test_classes.tolist(),
        },
        "label_map": {str(k): v for k, v in result.label_map.items()},
        "skipped_batches": result.state.skipped_batches,
        "final_metrics": result.final_report.to_dict(),
        "eval_history": [{"epoch": point.epoch, **point.report.to_dict()} for point in result.eval_history],
        "elapsed_seconds": result.elapsed_seconds,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    meta = {"config": asdict(result.config), "train_classes": result.split.train_classes.tolist()}
    save_checkpoint(os.path.join(out_dir, "checkpoint.npz"), result.models, meta)
