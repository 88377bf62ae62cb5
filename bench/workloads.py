"""The three workloads: inputs made from the seed, one round of timed
operations, and the output checks.

Each workload calls the program through module attributes
(`training.run_training`, `cli.main`, ...) at call time, so the traced run
sees the same calls through its wrappers. A round is the same list of
operations every time; the runner repeats whole rounds.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from hardmetric import cli, data, embedder, evaluation, training

import oracle


def derived_seed(*parts: int) -> int:
    """A 32-bit seed for one input, drawn from the workload seed and the input's index."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def gaussian_blobs(classes: int, per_class: int, dim: int, geometry_seed: int, sample_seed: int) -> data.Dataset:
    """Gaussian classes, sigma 4, around centres uniform in [0, 10]^dim.

    The workload fixes the centres; the run's seed draws the samples. Which
    classes lie close together sets much of the quality a model can reach;
    fixing them about halves the spread of Recall@1 between seeds.
    """
    centres = np.random.default_rng(geometry_seed).uniform(0.0, 10.0, size=(classes, dim))
    noise = np.random.default_rng(sample_seed).normal(0.0, 4.0, size=(classes * per_class, dim))
    return data.Dataset(np.repeat(centres, per_class, axis=0) + noise, np.repeat(np.arange(classes), per_class))


def batches_offered(num_train: int, batch_size: int, epochs: int) -> int:
    """Batches `run_training` offers to `train_step`: every slice of at least two rows."""
    per_epoch = sum(1 for start in range(0, num_train, batch_size) if num_train - start >= 2)
    return per_epoch * epochs


@dataclass
class Stats:
    """What the timed rounds measured."""

    train_s: float = 0.0
    train_samples: int = 0
    eval_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    recall_at_1: float = float("nan")
    nmi: float = float("nan")


class BatchCounter:
    """Counts the batches offered to training where `run_training` looks up
    `train_step`: a batch fails when the step returns None (skipped)."""

    def __init__(self):
        self.offered = self.skipped = self.samples = 0
        self._inner = training.train_step
        training.train_step = self._count

    def _count(self, models, x, labels, *args, **kwargs):
        row = self._inner(models, x, labels, *args, **kwargs)
        self.offered += 1
        if row is None:
            self.skipped += 1
        else:
            self.samples += len(labels)
        return row

    def snapshot(self) -> tuple[int, int, int]:
        return self.offered, self.skipped, self.samples

    def close(self) -> None:
        training.train_step = self._inner


def run_cli(argv: list[str]) -> int:
    """One CLI command in this process; its exit code, as the console script would give it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error ends the real command with exit code 1
        traceback.print_exc()
        return 1


def _curve_rows(history) -> list[tuple]:
    return [(r.j_m, r.j_syn, r.j_gen, r.j_recon, r.j_soft, r.weight_w, r.lambda_interp) for r in history]


@dataclass
class ModelRun:
    dataset: data.Dataset
    config: training.TrainConfig
    result: training.TrainResult
    batches: tuple[int, int]  # (offered, skipped) as counted here
    test_labels: np.ndarray
    evals: list  # (EvalReport, embeddings), one per k-means seed


class Workload:
    """Set-up, rounds and checks of one workload; every round must repeat the first."""

    name = ""
    setups = 5

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.seed = seed
        self._first: tuple | None = None
        self._faults: list[str] = []

    def _same_as_first(self, fingerprint: tuple) -> None:
        if self._first is None:
            self._first = fingerprint
        elif fingerprint != self._first and not self._faults:
            self._faults.append(f"{self.name}: a round's outputs differ from the first round's")


class LibraryWorkload(Workload):
    """Train models with `run_training`, then evaluate each `evals` times
    with `embed` plus `evaluate_embeddings`, k-means seeds 0..evals-1."""

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__(seed, toy, workdir)
        self.models: list[tuple[data.Dataset, training.TrainConfig]] = []

    def round(self, stats: Stats, counter: BatchCounter) -> list[ModelRun]:
        runs = []
        for dataset, config in self.models:
            before = counter.snapshot()
            start = perf_counter()
            result = training.run_training(dataset, config)
            stats.train_s += perf_counter() - start
            offered, skipped, samples = (a - b for a, b in zip(counter.snapshot(), before))
            stats.train_samples += samples
            stats.attempted += offered
            stats.failed += skipped
            test_x, test_labels = data.take_classes(dataset, result.split.test_classes)
            evals = []
            for kmeans_seed in range(self.evals):
                start = perf_counter()
                emb, _ = embedder.embed(result.models.embedder, test_x, labels=test_labels)
                report = evaluation.evaluate_embeddings(
                    emb.embeddings, test_labels, ks=config.recall_ks, kmeans_seed=kmeans_seed
                )
                stats.eval_s.append(perf_counter() - start)
                stats.attempted += 1
                evals.append((report, emb.embeddings))
            runs.append(ModelRun(dataset, config, result, (offered, skipped), test_labels, evals))
        stats.recall_at_1 = float(np.mean([r.evals[0][0].recall_at[1] for r in runs]))
        stats.nmi = float(np.mean([report.nmi for r in runs for report, _ in r.evals]))
        # curves and reports, bit for bit
        self._same_as_first(tuple(
            (tuple(_curve_rows(r.result.state.history)), tuple(json.dumps(rep.to_dict()) for rep, _ in r.evals))
            for r in runs
        ))
        return runs


    def check(self, runs: list[ModelRun]) -> list[str]:
        faults = list(self._faults)
        for i, run in enumerate(runs):
            where = f"{self.name} model {i}"
            res, cfg = run.result, run.config
            offered, skipped = run.batches
            num_train = int(np.isin(run.dataset.labels, res.split.train_classes).sum())
            faults += oracle.check_batches(
                offered, batches_offered(num_train, cfg.batch_size, cfg.epochs),
                len(res.state.history), res.state.skipped_batches, where,
            )
            if skipped != res.state.skipped_batches:
                faults.append(f"{where}: {skipped} skipped batches counted, the program reports {res.state.skipped_batches}")
            faults += oracle.check_split(res.split.train_classes, res.split.test_classes, run.test_labels, where)
            faults += oracle.check_curves(_curve_rows(res.state.history), where)
            z0 = run.evals[0][1]
            recall = oracle.recall_oracle(z0, run.test_labels, cfg.recall_ks)
            k = len(np.unique(run.test_labels))
            for kmeans_seed, (report, z) in enumerate(run.evals):
                if not np.array_equal(z, z0):
                    faults.append(f"{where}: evaluation {kmeans_seed} embedded the test points differently")
                assignment = evaluation.kmeans(z, k, seed=kmeans_seed)
                faults += oracle.check_report(report.to_dict(), recall, run.test_labels, assignment, f"{where} eval {kmeans_seed}")
            if res.final_report.to_dict() != run.evals[0][0].to_dict():
                faults.append(f"{where}: the final report of run_training differs from the standalone evaluation")
        return faults


class NpairAccept(LibraryWorkload):
    """Hardened N-pair training of acceptance criterion 6: five training seeds,
    each on its own 20-class dataset; small matrices, so per-call Python work dominates."""

    name = "npair-accept"

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__(seed, toy, workdir)
        if toy:
            self.shape, self.seeds, self.evals = (8, 6, 8), (0, 1), 1
            self.model = dict(npair_n=3, batch_size=16, epochs=2, embed_dim=4, hidden_dims=(8,))
        else:
            self.shape, self.seeds, self.evals = (20, 25, 64), (0, 1, 2, 3, 4), 4
            self.model = dict(npair_n=8, batch_size=32, epochs=25, embed_dim=32, hidden_dims=(128, 128))

    def setup(self) -> None:
        self.models = [
            (
                gaussian_blobs(*self.shape, geometry_seed=100 + i, sample_seed=derived_seed(self.seed, i)),
                training.TrainConfig(
                    loss_kind="npair", seed=i, split_seed=i, learning_rate=1e-4, alpha=0.1, beta=150.0, **self.model
                ),
            )
            for i in self.seeds
        ]


class TripletScale(LibraryWorkload):
    """Hardened triplet training on 256-wide inputs with 1,500 test points:
    the O(n^2) evaluation is most of the train call."""

    name = "triplet-scale"

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__(seed, toy, workdir)
        if toy:
            self.shape, self.evals = (8, 8, 16), 1
            self.model = dict(batch_size=16, epochs=1, embed_dim=4, hidden_dims=(8,))
        else:
            self.shape, self.evals = (60, 50, 256), 3
            self.model = dict(batch_size=128, epochs=3, embed_dim=64, hidden_dims=(256, 256))

    def setup(self) -> None:
        dataset = gaussian_blobs(*self.shape, geometry_seed=200, sample_seed=derived_seed(self.seed))
        self.models = [(dataset, training.TrainConfig(loss_kind="triplet", seed=0, split_seed=0, **self.model))]


@dataclass
class CliRound:
    train_rc: int
    eval_rcs: list[int]
    batches: tuple[int, int]


class CliRoundtrip(Workload):
    """`synth-data` (set-up), then `train` and `eval` through `cli.main` on a
    19 MB CSV: the same layers, through files."""

    name = "cli-roundtrip"
    setups = 3
    split_seed = 3

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__(seed, toy, workdir)
        self.workdir = workdir
        if toy:
            self.classes, self.per_class, self.dim, self.evals = 8, 8, 16, 1
            self.config_text = "epochs = 1\nbatch_size = 16\nembed_dim = 4\nhidden_dims = 8\n"
        else:
            self.classes, self.per_class, self.dim, self.evals = 40, 50, 512, 2
            self.config_text = "epochs = 8\nbatch_size = 40\nembed_dim = 32\nhidden_dims = 128\n"
        self.config_text = f"loss_kind = triplet\nseed = 0\nsplit_seed = {self.split_seed}\n" + self.config_text
        self.csv = workdir / "data.csv"
        self.config = workdir / "run.cfg"
        self.run_dir = workdir / "run"

    def setup(self) -> None:
        self.config.write_text(self.config_text, encoding="utf-8")
        argv = [
            "synth-data", "--classes", str(self.classes), "--per-class", str(self.per_class),
            "--dim", str(self.dim), "--sigma", "3.0", "--seed", str(derived_seed(self.seed)),
            "--out", str(self.csv),
        ]
        if run_cli(argv) != 0:
            raise RuntimeError("synth-data failed during set-up")

    def _eval_dir(self, kmeans_seed: int) -> Path:
        return self.workdir / f"eval-{kmeans_seed}"

    def round(self, stats: Stats, counter: BatchCounter) -> CliRound:
        before = counter.snapshot()
        start = perf_counter()
        train_rc = run_cli(["train", "--data", str(self.csv), "--config", str(self.config), "--out-dir", str(self.run_dir)])
        stats.train_s += perf_counter() - start
        offered, skipped, samples = (a - b for a, b in zip(counter.snapshot(), before))
        stats.train_samples += samples
        stats.attempted += 1 + offered
        stats.failed += (train_rc != 0) + skipped
        eval_rcs = []
        for kmeans_seed in range(self.evals):
            argv = [
                "eval", "--checkpoint", str(self.run_dir / "checkpoint.npz"), "--data", str(self.csv),
                "--split-seed", str(self.split_seed), "--kmeans-seed", str(kmeans_seed),
                "--out-dir", str(self._eval_dir(kmeans_seed)),
            ]
            start = perf_counter()
            rc = run_cli(argv)
            stats.eval_s.append(perf_counter() - start)
            stats.attempted += 1
            stats.failed += rc != 0
            eval_rcs.append(rc)
        if train_rc == 0 and not any(eval_rcs):
            metrics = [self._metrics(s) for s in range(self.evals)]
            stats.recall_at_1 = float(metrics[0]["recall"]["1"])
            stats.nmi = float(np.mean([m["nmi"] for m in metrics]))
            # curves and metrics files, byte for byte
            self._same_as_first(tuple(
                p.read_bytes()
                for p in [self.run_dir / "curves.csv"] + [self._eval_dir(s) / "metrics.json" for s in range(self.evals)]
            ))
        return CliRound(train_rc, eval_rcs, (offered, skipped))

    def _metrics(self, kmeans_seed: int) -> dict:
        return json.loads((self._eval_dir(kmeans_seed) / "metrics.json").read_text(encoding="utf-8"))

    def check(self, last: CliRound) -> list[str]:
        where = self.name
        if last.train_rc != 0 or any(last.eval_rcs):
            return [f"{where}: train exited {last.train_rc}, eval exited {last.eval_rcs}"]
        faults = list(self._faults)
        manifest = json.loads((self.run_dir / "manifest.json").read_text(encoding="utf-8"))
        train_classes = manifest["split"]["train_classes"]
        test_classes = manifest["split"]["test_classes"]
        with open(self.run_dir / "curves.csv", encoding="utf-8", newline="") as fh:
            curves = [tuple(float(row[k]) for k in list(row)[2:]) for row in csv.DictReader(fh)]
        cfg = manifest["config"]
        offered, skipped = last.batches
        expected = batches_offered(len(train_classes) * self.per_class, cfg["batch_size"], cfg["epochs"])
        faults += oracle.check_batches(offered, expected, len(curves), manifest["skipped_batches"], where)
        faults += oracle.check_curves(curves, where)
        for kmeans_seed in range(self.evals):
            at = f"{where} eval {kmeans_seed}"
            with open(self._eval_dir(kmeans_seed) / "embeddings.csv", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rows = [[float(v) for v in row] for row in reader]
            table = np.asarray(rows)
            labels = table[:, 1].astype(np.int64)
            z = table[:, 2:]
            if header[:2] != ["sample_id", "label"] or len(rows) != len(test_classes) * self.per_class:
                faults.append(f"{at}: embeddings.csv has {len(rows)} rows, expected one per test point")
            faults += oracle.check_split(train_classes, test_classes, labels, at)
            metrics = self._metrics(kmeans_seed)
            if kmeans_seed == 0:
                recall = oracle.recall_oracle(z, labels, [int(k) for k in metrics["recall"]])
            assignment = evaluation.kmeans(z, len(np.unique(labels)), seed=kmeans_seed)
            faults += oracle.check_report(metrics, recall, labels, assignment, at)
            final = manifest["final_metrics"]
            if kmeans_seed == 0 and {key: metrics[key] for key in final} != final:
                faults.append(f"{at}: metrics.json differs from the final metrics of the training run")
        return faults


WORKLOADS = {w.name: w for w in (NpairAccept, TripletScale, CliRoundtrip)}
