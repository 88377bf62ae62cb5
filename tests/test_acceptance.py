"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL verdict line (run with `pytest tests/test_acceptance.py -v -s`).

The directional-improvement and label-preservation criteria run on the
bundled synthetic benchmark: 20 Gaussian classes (25 samples each, input
dim 64, center side 10, noise sigma 4.0), split 10/10 zero-shot. The noise
level is higher than the data module's default because at sigma 1 the
classes are so separable that nearest-neighbor retrieval is perfect before
any training and the triplet hinge never activates; sigma 4 leaves the
structure learnable but the comparison meaningful.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from bitwise import SEEDS, bench_config, bench_dataset  # the benchmark's runs, which the bitwise gate hashes
from frozen import freeze

from hardmetric import verify
from hardmetric.augmentor import AugmentorState, _harden, augment_tuples, pulling_lambda
from hardmetric.data import load_dataset, save_dataset, synth_gaussian_dataset, take_classes
from hardmetric.embedder import embed, extract
from hardmetric.errors import DatasetParseError
from hardmetric.evaluation import kmeans, nmi, pairwise_f1, recall_at_k
from hardmetric.nn import dense_forward, gradcheck, stack_forward
from hardmetric.training import (
    TrainConfig,
    init_models,
    init_state,
    metric_weight,
    mine_tuples,
    run_training,
    train_step,
)


def verdict(number, name, passed, detail=""):
    line = f"ACCEPTANCE {number} [{name}]: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


class TestCriterion1GradientIntegrity:
    def test_gradcheck_all_objectives(self, monkeypatch):
        draws = []

        def counted_gradcheck(*args, **kwargs):
            draws.append(1)
            return gradcheck(*args, **kwargs)

        monkeypatch.setattr(verify, "gradcheck", counted_gradcheck)
        started = time.monotonic()
        results = verify.run_gradcheck_suite(seed=0, instances=20, tolerance=1e-4)
        elapsed = time.monotonic() - started
        worst = max(r.max_deviation for r in results.values())
        ok = all(r.passed for r in results.values()) and len(results) == 3
        ok = ok and len(draws) >= 3 * 20
        ok = ok and elapsed < 30.0
        verdict(1, "gradient integrity", ok, f"max rel deviation {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2AugmentorGeometry:
    def test_thousand_random_tuples(self):
        rng = np.random.default_rng(7)
        checked = 0
        ok = True
        while checked < 1000:
            dim = int(rng.integers(2, 10))
            z = rng.normal(size=dim) * 3
            z_neg = rng.normal(size=dim) * 3
            d = float(np.linalg.norm(z - z_neg))
            d_plus = float(rng.uniform(0.05, 0.95)) * d
            lam = float(rng.uniform(1e-6, 1.0))
            if d <= d_plus:
                continue
            out = _harden(z, z_neg, d_plus, lam)
            direction = (z_neg - z) / d
            residual = (out - z) - ((out - z) @ direction) * direction
            achieved = float(np.linalg.norm(out - z))
            target = lam * d + (1 - lam) * d_plus
            ok = ok and np.linalg.norm(residual) < 1e-9
            ok = ok and abs(achieved - target) < 1e-9
            ok = ok and (d_plus - 1e-9 <= achieved <= d + 1e-9)
            checked += 1
        # identity at lambda = 1 and the close-negative branch, both exact
        z = rng.normal(size=6)
        z_neg = rng.normal(size=6)
        ok = ok and np.array_equal(_harden(z, z_neg, 0.1, 1.0), z_neg)
        near = z + 1e-3 * rng.normal(size=6)
        ok = ok and np.array_equal(_harden(z, near, 1.0, 0.5), near)
        verdict(2, "augmentor geometry", ok, f"{checked} random tuples")


class TestCriterion3StopGradientLedger:
    def _bytes(self, models):
        out = {}
        for i, layer in enumerate(models.embedder.extractor):
            out[f"f{i}"] = layer.weight.tobytes() + layer.bias.tobytes()
        out["g"] = models.embedder.projector.weight.tobytes() + models.embedder.projector.bias.tobytes()
        for i, layer in enumerate(models.generator):
            out[f"i{i}"] = layer.weight.tobytes() + layer.bias.tobytes()
        out["c"] = models.classifier.weight.tobytes() + models.classifier.bias.tobytes()
        return out

    def test_partition_routing_is_bitwise(self):
        rng = np.random.default_rng(3)
        labels = np.repeat(np.arange(4), 6)
        x = rng.normal(size=(24, 10)) + labels[:, None]
        config = TrainConfig(batch_size=24, embed_dim=8, hidden_dims=(12,), seed=0)
        ok = True
        # metric-only backward must leave generator and classifier untouched
        models = init_models(10, 4, config)
        state = init_state(models, config)
        before = self._bytes(models)
        train_step(models, x, labels, freeze(state, "generator", "classifier"), config)
        after = self._bytes(models)
        ok = ok and all(after[k] == before[k] for k in after if k.startswith(("i", "c")))
        ok = ok and after["g"] != before["g"]
        # generator-only backward must leave the embedder and classifier untouched
        models = init_models(10, 4, config)
        state = init_state(models, config)
        before = self._bytes(models)
        train_step(models, x, labels, freeze(state, "extractor", "projector", "classifier"), config)
        after = self._bytes(models)
        ok = ok and all(after[k] == before[k] for k in after if not k.startswith("i"))
        ok = ok and any(after[k] != before[k] for k in after if k.startswith("i"))
        verdict(3, "stop-gradient ledger", ok)


class TestCriterion4ScheduleBehavior:
    def test_schedule_values_and_monotonicity(self):
        ok = abs(pulling_lambda(AugmentorState(alpha=7.0, j_avg=7.0)) - math.exp(-1)) < 1e-12
        ok = ok and abs(metric_weight(1e4, 1e4) - math.exp(-1)) < 1e-12
        # grids sample above the 1e-6 floor / exp underflow, where the
        # schedule is strictly monotone by design
        lam = [pulling_lambda(AugmentorState(alpha=7.0, j_avg=j)) for j in np.linspace(0.7, 80.0, 64)]
        ok = ok and all(b > a for a, b in zip(lam, lam[1:]))
        lam_a = [pulling_lambda(AugmentorState(alpha=a, j_avg=7.0)) for a in np.linspace(0.5, 90.0, 64)]
        ok = ok and all(b < a for a, b in zip(lam_a, lam_a[1:]))
        w = [metric_weight(j, 1e4) for j in np.logspace(2, 8, 64)]
        ok = ok and all(b > a for a, b in zip(w, w[1:]))
        ok = ok and all(0.0 <= v <= 1.0 for v in lam + lam_a + w)
        # below the floor the schedule clamps instead of reaching 0
        ok = ok and pulling_lambda(AugmentorState(alpha=7.0, j_avg=1e-9)) == 1e-6
        verdict(4, "schedule behavior", ok)


class TestCriterion5MetricOracles:
    def test_fixed_instances(self):
        ok = abs(nmi([0, 0, 1, 1], [1, 1, 0, 0]) - 1.0) < 1e-10
        ok = ok and nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0
        # contingency oracle value for clusters [1,1,1,2] vs labels [A,A,B,B]
        ok = ok and abs(nmi([1, 1, 1, 2], [0, 0, 1, 1]) - 0.3437110184854507) < 1e-10
        ok = ok and abs(pairwise_f1([0, 0, 1, 1], [1, 1, 0, 0]) - 1.0) < 1e-10
        ok = ok and abs(pairwise_f1([0, 0, 0, 0], [0, 0, 1, 1]) - 0.5) < 1e-10
        ok = ok and pairwise_f1([0, 1, 2, 3], [0, 0, 1, 1]) == 0.0
        rec = recall_at_k(np.array([[0.0], [0.1], [5.0], [5.1]]), [0, 0, 1, 1], [1])
        ok = ok and rec[1] == 1.0
        rec = recall_at_k(np.array([[0.0], [1.0], [2.0]]), [0, 1, 0], [1])
        ok = ok and rec[1] == 0.0
        rng = np.random.default_rng(0)
        z = rng.normal(size=(10, 3))
        labels = np.repeat(np.arange(5), 2)
        ok = ok and recall_at_k(z, labels, [9])[9] == 1.0
        pts = np.vstack([rng.normal(size=(5, 2)) + 40.0, rng.normal(size=(5, 2)) - 40.0])
        assign = kmeans(pts, 2, seed=0)
        truth = np.repeat([0, 1], 5)
        ok = ok and (np.array_equal(assign, truth) or np.array_equal(1 - assign, truth))
        singles = kmeans(rng.normal(size=(6, 2)), 6, seed=0)
        ok = ok and len(set(singles.tolist())) == 6
        verdict(5, "metric oracles", ok)


@pytest.fixture(scope="module")
def benchmark_runs():
    started = time.monotonic()
    results = {}
    for loss_kind in ("triplet", "npair"):
        for hardened in (False, True):
            per_seed = []
            for seed in SEEDS:
                res = run_training(bench_dataset(seed), bench_config(loss_kind, seed, hardened=hardened))
                per_seed.append(res)
            results[(loss_kind, hardened)] = per_seed
    results["elapsed"] = time.monotonic() - started
    return results


def reference_recalls(loss_kind):
    """Mean test R@1 over the benchmark's seeds of the untrained network (the plain config at
    `epochs = 0`) and of the raw input vectors, on the same class splits; reported, not judged."""
    untrained, raw = [], []
    for seed in SEEDS:
        dataset = bench_dataset(seed)
        res = run_training(dataset, dataclasses.replace(bench_config(loss_kind, seed, hardened=False), epochs=0))
        untrained.append(res.final_report.recall_at[1])
        test_x, test_labels = take_classes(dataset, res.split.test_classes)
        raw.append(recall_at_k(test_x, test_labels, [1])[1])
    return float(np.mean(untrained)), float(np.mean(raw))


class TestCriterion6DirectionalImprovement:
    def test_hardened_training_beats_baseline_on_both_losses(self, benchmark_runs):
        ok = True
        details = []
        for loss_kind in ("triplet", "npair"):
            base = [r.final_report.recall_at[1] for r in benchmark_runs[(loss_kind, False)]]
            hard = [r.final_report.recall_at[1] for r in benchmark_runs[(loss_kind, True)]]
            deltas = [h - b for h, b in zip(hard, base)]
            wins = sum(d > 0 for d in deltas)
            mean = float(np.mean(deltas))
            untrained, raw = reference_recalls(loss_kind)
            details.append(
                f"{loss_kind}: base {np.mean(base):.4f} hardened {np.mean(hard):.4f} "
                f"mean delta {mean:+.4f} wins {wins}/{len(SEEDS)}; untrained {untrained:.4f} raw inputs {raw:.4f}"
            )
            ok = ok and mean >= 0.0 and wins >= 3
        elapsed = benchmark_runs["elapsed"]
        ok = ok and elapsed < 600.0
        verdict(6, "directional improvement", ok, "; ".join(details) + f"; {elapsed:.0f}s total")


class TestCriterion7LabelPreservation:
    def test_classifier_accuracy_on_hardened_synthetics(self, benchmark_runs):
        res = benchmark_runs[("triplet", True)][0]
        config = bench_config("triplet", 0, hardened=True)
        dataset = bench_dataset(0)
        train_x, train_labels_orig = take_classes(dataset, res.split.train_classes)
        train_labels = np.asarray([res.label_map[int(l)] for l in train_labels_orig])
        feats, _ = extract(res.models.embedder, train_x)

        def accuracy(features, labels):
            logits, _ = dense_forward(res.models.classifier, features)
            return float((logits.argmax(axis=1) == labels).mean())

        real_acc = accuracy(feats, train_labels)
        # harden negatives over the full training set at the converged schedule
        emb, _ = embed(res.models.embedder, train_x, labels=train_labels)
        tuples = mine_tuples(train_labels, config, np.random.default_rng(99))
        aug = augment_tuples(emb.embeddings, tuples, res.state.augmentor)
        hard_feats, _ = stack_forward(res.models.generator, aug.hardened_negatives)
        synth_acc = accuracy(hard_feats, aug.synthetic.labels[2 * aug.size :])
        ok = synth_acc >= 0.8 * real_acc
        verdict(
            7,
            "label preservation",
            ok,
            f"real accuracy {real_acc:.4f}, hardened-synthetic accuracy {synth_acc:.4f}, "
            f"ratio {synth_acc / real_acc:.3f} (threshold 0.8)",
        )


class TestCriterion8DeterminismAndIO:
    def test_determinism_round_trip_and_error_codes(self, tmp_path):
        ds = synth_gaussian_dataset(8, 10, 6, noise_sigma=2.0, seed=5)
        config = TrainConfig(epochs=3, batch_size=16, embed_dim=8, hidden_dims=(16,), seed=9, split_seed=2)
        run_training(ds, config, out_dir=tmp_path / "a")
        run_training(ds, config, out_dir=tmp_path / "b")
        ok = (tmp_path / "a" / "curves.csv").read_bytes() == (tmp_path / "b" / "curves.csv").read_bytes()

        path = tmp_path / "round.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        ok = ok and np.array_equal(loaded.samples, ds.samples) and np.array_equal(loaded.labels, ds.labels)

        from hardmetric.cli import main as cli_main

        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("label,f_0\n0,1.0\n1,oops\n")
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("epochs = 1\n")
        ok = ok and cli_main(["train", "--data", str(bad_csv), "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("epoch = 1\n")
        ok = ok and cli_main(["train", "--data", str(path), "--config", str(bad_cfg), "--out-dir", str(tmp_path / "y")]) == 1
        try:
            load_dataset(tmp_path / "empty.csv")
            ok = False
        except FileNotFoundError:
            pass
        (tmp_path / "empty.csv").write_text("")
        try:
            load_dataset(tmp_path / "empty.csv")
            ok = False
        except DatasetParseError as exc:
            ok = ok and "no header" in str(exc)
        verdict(8, "determinism and I/O", ok)
