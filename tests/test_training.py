import copy
import dataclasses
import json
import logging
import math
import threading
import weakref

import numpy as np
import pytest
from bitwise import bench_config, bench_dataset
from frozen import freeze
from test_evaluation import _traced_kept

from hardmetric import data, training
from hardmetric.data import synth_gaussian_dataset
from hardmetric.embedder import embed, embed_backward, project, project_backward
from hardmetric.errors import InputError, NumericalError
from hardmetric.evaluation import evaluate_embeddings
from hardmetric.generator import generator_loss
from hardmetric.losses import batch_metric_loss
from hardmetric.nn import stack_params
from hardmetric.training import (
    LogRow,
    Models,
    TrainConfig,
    init_models,
    init_state,
    metric_weight,
    mine_tuples,
    run_training,
    score_classes,
    train_step,
    write_curves,
)


def small_config(**overrides):
    base = dict(
        loss_kind="triplet",
        alpha=1.0,
        beta=40.0,
        batch_size=12,
        epochs=2,
        learning_rate=1e-3,
        embed_dim=8,
        hidden_dims=(16,),
        seed=0,
        train_fraction=0.5,
    )
    base.update(overrides)
    return TrainConfig(**base)


def model_bytes(models: Models) -> dict[str, bytes]:
    out = {}
    for i, layer in enumerate(models.embedder.extractor):
        out[f"f.{i}.w"] = layer.weight.tobytes()
        out[f"f.{i}.b"] = layer.bias.tobytes()
    out["g.w"] = models.embedder.projector.weight.tobytes()
    out["g.b"] = models.embedder.projector.bias.tobytes()
    if models.generator:
        for i, layer in enumerate(models.generator):
            out[f"i.{i}.w"] = layer.weight.tobytes()
            out[f"i.{i}.b"] = layer.bias.tobytes()
    if models.classifier:
        out["c.w"] = models.classifier.weight.tobytes()
        out["c.b"] = models.classifier.bias.tobytes()
    return out


def toy_batch(rng, n_classes=3, per_class=4, dim=6, spread=1.0):
    # spread ~ noise keeps triplet hinges active so updates are nonzero
    labels = np.repeat(np.arange(n_classes), per_class)
    centers = rng.normal(size=(n_classes, dim)) * spread
    x = centers[labels] + rng.normal(size=(len(labels), dim))
    return x, labels


class TestMineTuples:
    def test_single_class_batch_is_skipped(self):
        config = small_config()
        rng = np.random.default_rng(0)
        assert mine_tuples(np.zeros(8, dtype=int), config, rng) is None

    def test_batch_without_a_pair_is_skipped_without_a_draw(self):
        config = small_config()
        rng = np.random.default_rng(0)
        assert mine_tuples(np.arange(8), config, rng) is None
        assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)

    def test_triplets_satisfy_label_constraints_exhaustively(self):
        config = small_config()
        rng = np.random.default_rng(1)
        labels = np.array([0, 0, 1, 1])
        tuples = mine_tuples(labels, config, rng)
        assert tuples is not None
        assert tuples.anchors.tolist() == [0, 1, 2, 3]
        assert tuples.negatives.shape == (4, 1)
        for a, p, (n,) in zip(tuples.anchors, tuples.positives, tuples.negatives):
            assert a != p
            assert labels[a] == labels[p] == tuples.labels[a] == tuples.labels[p]
            assert labels[a] != labels[n] and tuples.labels[n] == labels[n]

    def test_triplet_draws_match_the_per_sample_reference(self):
        # reference: one rng.choice among the anchor's other same-class rows,
        # then one among the other-class rows, sample by sample
        config = small_config()
        batches = np.random.default_rng(5)
        for trial in range(200):
            labels = batches.integers(0, batches.integers(2, 7), size=batches.integers(2, 60))
            ref_rng, rng = np.random.default_rng(trial), np.random.default_rng(trial)
            expected = []
            for i, lab in enumerate(labels):
                same = np.flatnonzero((labels == lab) & (np.arange(len(labels)) != i))
                if same.size and len(set(labels.tolist())) > 1:
                    expected.append([i, ref_rng.choice(same), ref_rng.choice(np.flatnonzero(labels != lab))])
            tuples = mine_tuples(labels, config, rng)
            if not expected:
                assert tuples is None
                continue
            got = np.column_stack([tuples.anchors, tuples.positives, tuples.negatives[:, 0]])
            assert got.tolist() == expected
            assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)

    def test_npair_counts(self):
        config = small_config(loss_kind="npair", npair_n=4)
        rng = np.random.default_rng(2)
        labels = np.repeat(np.arange(4), 2)
        tuples = mine_tuples(labels, config, rng)
        assert tuples.size == 4 and tuples.positives.shape == (4,)
        # 4 anchors, 3 negatives each, via the default cross-positive wiring
        assert tuples.negatives.shape == (4, 3)
        assert len(set(labels[tuples.anchors].tolist())) == 4

    def test_npair_skips_without_enough_classes(self):
        config = small_config(loss_kind="npair", npair_n=4)
        rng = np.random.default_rng(3)
        labels = np.array([0, 0, 1, 1, 2, 2, 3])  # class 3 has one sample
        assert mine_tuples(labels, config, rng) is None


class TestMetricWeight:
    def test_matched_beta_gives_inverse_e(self):
        assert abs(metric_weight(1e4, 1e4) - math.exp(-1)) < 1e-12

    def test_limits(self):
        assert metric_weight(math.inf, 10.0) == 1.0
        assert metric_weight(0.0, 10.0) == 0.0
        assert metric_weight(1e12, 10.0) > 0.9999

    def test_stays_in_unit_interval_on_grid(self):
        for j in np.logspace(-6, 8, 50):
            w = metric_weight(float(j), 1e4)
            assert 0.0 <= w <= 1.0

    def test_bad_beta(self):
        with pytest.raises(InputError):
            metric_weight(1.0, 0.0)


class TestTrainStep:
    def test_warmup_blend_is_bounded_by_synthetic_share(self):
        rng = np.random.default_rng(4)
        x, labels = toy_batch(rng)
        config = small_config()
        models = init_models(x.shape[1], 3, config)
        state = init_state(models, config)
        row = train_step(models, x, labels, state, config)
        assert row.lambda_interp == 1.0  # epoch 0: no average loss yet
        j_metric = row.weight_w * row.j_m + (1 - row.weight_w) * row.j_syn
        assert abs(j_metric - row.j_m) <= (1 - row.weight_w) * abs(row.j_syn) + 1e-12

    def test_two_runs_are_bitwise_identical(self):
        rng = np.random.default_rng(5)
        x, labels = toy_batch(rng)
        config = small_config()
        histories = []
        for _ in range(2):
            models = init_models(x.shape[1], 3, config)
            state = init_state(models, config)
            for _ in range(5):
                train_step(models, x, labels, state, config)
            histories.append([row.as_csv() for row in state.history])
        assert histories[0] == histories[1]

    def test_metric_only_update_leaves_generator_and_classifier_bitwise(self):
        rng = np.random.default_rng(6)
        x, labels = toy_batch(rng)
        config = small_config()
        models = init_models(x.shape[1], 3, config)
        state = init_state(models, config)
        before = model_bytes(models)
        train_step(models, x, labels, freeze(state, "generator", "classifier"), config)
        after = model_bytes(models)
        for key in after:
            if key.startswith(("i.", "c.")):
                assert after[key] == before[key], f"{key} changed under metric-only backward"
            else:
                assert after[key] != before[key], f"{key} did not move under the metric update"

    def test_extractor_takes_the_gradient_of_the_original_tuples_alone(self):
        # the synthetic tuples are generator outputs: their loss reaches the projector, never the extractor
        rng = np.random.default_rng(10)
        x, labels = toy_batch(rng)
        config = small_config()
        models = init_models(x.shape[1], 3, config)
        state = init_state(models, config)
        from hardmetric.embedder import extract

        feats, ext_tapes = extract(models.embedder, x)
        z, proj_tape = project(models.embedder, feats)
        _, grad_z_m = batch_metric_loss(z, mine_tuples(labels, config, copy.deepcopy(state.rng)), config.margin)
        stepped = []
        freeze(state, "projector", "generator", "classifier").adam_extractor.step = stepped.append
        row = train_step(models, x, labels, state, config)
        assert row.j_syn > 0.0 and row.weight_w < 1.0, "the synthetic loss took no part in the step"
        expected, _ = embed_backward(models.embedder, ext_tapes, proj_tape, row.weight_w * grad_z_m)
        assert all(np.array_equal(got, want) for got, want in zip(stepped[0], expected, strict=True))

    def test_generator_only_update_leaves_embedder_and_classifier_bitwise(self):
        rng = np.random.default_rng(7)
        x, labels = toy_batch(rng)
        config = small_config()
        models = init_models(x.shape[1], 3, config)
        state = init_state(models, config)
        before = model_bytes(models)
        train_step(models, x, labels, freeze(state, "extractor", "projector", "classifier"), config)
        after = model_bytes(models)
        for key in after:
            if key.startswith("i."):
                assert after[key] != before[key]
            else:
                assert after[key] == before[key], f"{key} changed under generator-only backward"

    def test_classifier_only_update_touches_classifier_alone(self):
        rng = np.random.default_rng(8)
        x, labels = toy_batch(rng)
        config = small_config()
        models = init_models(x.shape[1], 3, config)
        state = init_state(models, config)
        before = model_bytes(models)
        train_step(models, x, labels, freeze(state, "extractor", "projector", "generator"), config)
        after = model_bytes(models)
        for key in after:
            if key.startswith("c."):
                assert after[key] != before[key]
            else:
                assert after[key] == before[key]

    def test_metric_gradient_matches_fd_with_stop_gradients(self):
        # finite differences of the blended objective, holding the synthetic
        # features and the blend weight constant, as the routing prescribes
        rng = np.random.default_rng(9)
        x, labels = toy_batch(rng, n_classes=3, per_class=2)
        config = small_config(batch_size=6)
        models = init_models(x.shape[1], 3, config)
        state = init_state(models, config)
        tuples = mine_tuples(labels, config, state.rng)
        from hardmetric.augmentor import augment_tuples
        from hardmetric.embedder import extract

        feats, ext_tapes = extract(models.embedder, x)
        emb, proj_tape = project(models.embedder, feats)
        aug = augment_tuples(emb, tuples, state.augmentor)
        t, members, syn_tuples = aug.size, aug.members, aug.synthetic
        gen_result = generator_loss(
            models.generator, models.classifier,
            feats[members], emb[members],
            aug.hardened_negatives.reshape(-1, emb.shape[1]), syn_tuples.labels[2 * t :], config.lambda_balance,
        )
        w = 0.7  # frozen blend weight
        syn_rows = np.vstack([gen_result.member_features[: 2 * t], gen_result.hardened_features])

        def objective():
            e, _ = embed(models.embedder, x)
            j_m, _ = batch_metric_loss(e.embeddings, tuples, config.margin)
            se, _ = project(models.embedder, syn_rows)
            j_s, _ = batch_metric_loss(se, syn_tuples, config.margin)
            return w * j_m + (1 - w) * j_s

        j_m, gz_m = batch_metric_loss(emb, tuples, config.margin)
        ext_grads, proj_grads = embed_backward(models.embedder, ext_tapes, proj_tape, w * gz_m)
        syn_emb, syn_tape = project(models.embedder, syn_rows)
        j_s, gz_s = batch_metric_loss(syn_emb, syn_tuples, config.margin)
        syn_proj = project_backward(models.embedder, syn_tape, (1 - w) * gz_s)
        analytic = {
            "f.w": ext_grads[0],
            "g.w": proj_grads[0] + syn_proj[0],
        }
        h = 1e-5
        for name, arr in (("f.w", models.embedder.extractor[0].weight), ("g.w", models.embedder.projector.weight)):
            checked = 0
            for idx in np.ndindex(arr.shape):
                if checked >= 25:
                    break
                orig = arr[idx]
                arr[idx] = orig + h
                lp = objective()
                arr[idx] = orig - h
                lm = objective()
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                dev = abs(analytic[name][idx] - fd) / max(abs(analytic[name][idx]), abs(fd), 1e-6)
                assert dev < 1e-4, f"{name}[{idx}] deviates {dev}"
                checked += 1

    def test_skipped_batch_returns_none(self):
        rng = np.random.default_rng(10)
        config = small_config()
        models = init_models(4, 3, config)
        state = init_state(models, config)
        x = rng.normal(size=(6, 4))
        assert train_step(models, x, np.zeros(6, dtype=int), state, config) is None
        assert state.skipped_batches == 1

    def test_weight_logged_in_unit_interval(self):
        rng = np.random.default_rng(11)
        x, labels = toy_batch(rng)
        config = small_config()
        models = init_models(x.shape[1], 3, config)
        state = init_state(models, config)
        for _ in range(10):
            train_step(models, x, labels, state, config)
        assert all(0.0 <= row.weight_w <= 1.0 for row in state.history)


def thread_starts(monkeypatch) -> list[str]:
    """Names of the threads started from here on."""
    names, start = [], threading.Thread.start

    def counted(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return names


def partition_bytes(models: Models, state) -> dict:
    """Every parameter array and Adam slot of the four partitions."""
    out = model_bytes(models)
    for name in ("extractor", "projector", "generator", "classifier"):
        adam = getattr(state, f"adam_{name}")
        out[f"{name}.t"] = adam.t
        for i, (m, v) in enumerate(zip(adam.m, adam.v)):
            out[f"{name}.m.{i}"], out[f"{name}.v.{i}"] = m.tobytes(), v.tobytes()
    return out


class Boom(Exception):
    pass


class TestStepUpdates:
    def _step_setup(self):
        x, labels = toy_batch(np.random.default_rng(12))
        config = small_config()
        models = init_models(x.shape[1], 3, config)
        return x, labels, config, models, init_state(models, config)

    def test_step_with_a_non_finite_original_loss_updates_no_partition(self, monkeypatch):
        x, labels, config, models, state = self._step_setup()
        train_step(models, x, labels, state, config)  # so that every Adam slot holds values
        calls = []

        def nan_on_first_call(z, tuples, margin):
            calls.append(tuples.kind)
            j, grad = batch_metric_loss(z, tuples, margin)
            return (math.nan if len(calls) == 1 else j), grad

        monkeypatch.setattr(training, "batch_metric_loss", nan_on_first_call)
        before = partition_bytes(models, state)
        with pytest.raises(NumericalError, match="original tuples"):
            train_step(models, x, labels, state, config)
        assert len(calls) == 1
        assert partition_bytes(models, state) == before

    def test_step_with_a_non_finite_generator_loss_updates_no_partition(self):
        x, labels, config, models, state = self._step_setup()
        train_step(models, x, labels, state, config)
        models.generator[-1].weight[0, 0] = math.nan  # every reconstruction's first column is NaN
        before = partition_bytes(models, state)
        with pytest.raises(NumericalError, match="generator loss component j_recon"):
            train_step(models, x, labels, state, config)
        assert partition_bytes(models, state) == before

    def test_partitions_are_stepped_extractor_projector_generator_classifier(self, monkeypatch):
        x, labels, config, models, state = self._step_setup()
        order = []
        for name in ("extractor", "projector", "generator", "classifier"):
            adam = getattr(state, f"adam_{name}")

            def recorded(grads, name=name, step=adam.step):
                order.append(name)
                step(grads)

            monkeypatch.setattr(adam, "step", recorded)
        assert train_step(models, x, labels, state, config) is not None
        assert order == ["extractor", "projector", "generator", "classifier"]

    @pytest.mark.parametrize("where", ["generator-adam", "classifier-step"])
    def test_update_exception_comes_out_of_the_step(self, monkeypatch, where):
        x, labels, config, models, state = self._step_setup()
        threads = []

        def boom(*args):
            threads.append(threading.current_thread())
            raise Boom(where)

        if where == "generator-adam":
            monkeypatch.setattr(state.adam_generator, "step", boom)
        else:
            monkeypatch.setattr(training, "classifier_step", boom)
        starts = thread_starts(monkeypatch)
        with pytest.raises(Boom, match=where):
            train_step(models, x, labels, state, config)
        assert threads == [threading.main_thread()] and starts == []

    def test_step_with_a_non_finite_synthetic_loss_updates_no_partition(self, monkeypatch):
        x, labels, config, models, state = self._step_setup()
        train_step(models, x, labels, state, config)  # so that every Adam slot holds values
        calls = []

        def nan_on_second_call(z, tuples, margin):
            calls.append(tuples.kind)
            j, grad = batch_metric_loss(z, tuples, margin)
            return (math.nan if len(calls) == 2 else j), grad

        monkeypatch.setattr(training, "batch_metric_loss", nan_on_second_call)
        before = partition_bytes(models, state)
        with pytest.raises(NumericalError, match="synthetic tuples"):
            train_step(models, x, labels, state, config)
        assert len(calls) == 2
        assert partition_bytes(models, state) == before

    def test_generator_loss_reads_the_head_before_classifier_step_updates_it(self, monkeypatch):
        x, labels, config, models, state = self._step_setup()
        train_step(models, x, labels, state, config)
        decoder, head = copy.deepcopy(models.generator), copy.deepcopy(models.classifier)
        calls = []

        def recorded(gen, clf, *args):
            calls.append(args)
            return generator_loss(gen, clf, *args)

        monkeypatch.setattr(training, "generator_loss", recorded)
        row = train_step(models, x, labels, state, config)
        (args,) = calls
        # the logged softmax term is the one under the head the step started from, not under the stepped head
        assert row.j_soft == generator_loss(decoder, head, *args).j_soft
        assert row.j_soft != generator_loss(decoder, models.classifier, *args).j_soft

    def test_acceptance_npair_steps_start_no_thread(self, monkeypatch):
        # 8 pairs: 16 member rows x 128 features, on two usable CPUs
        monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
        starts = thread_starts(monkeypatch)
        result = run_training(bench_dataset(0), dataclasses.replace(bench_config("npair", 0), epochs=1))
        assert result.state.history and starts == []

    def test_step_of_the_triplet_scale_shape_starts_no_thread(self, monkeypatch):
        # 128 rows that each anchor a triplet: 384 member rows x 256 features, on two usable CPUs
        monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
        x, labels = toy_batch(np.random.default_rng(13), n_classes=8, per_class=16, dim=16)
        config = small_config(batch_size=128, hidden_dims=(256,), embed_dim=16)
        models = init_models(16, 8, config)
        state = init_state(models, config)
        shapes = []

        def recorded(*args):
            result = generator_loss(*args)
            shapes.append(result.member_features.shape)
            return result

        monkeypatch.setattr(training, "generator_loss", recorded)
        starts = thread_starts(monkeypatch)
        assert train_step(models, x, labels, state, config) is not None
        assert shapes == [(384, 256)] and starts == []


class TestRunTraining:
    def test_zero_epochs_emits_initial_checkpoint_and_empty_curves(self, tmp_path):
        ds = synth_gaussian_dataset(6, 6, 5, seed=0)
        config = small_config(epochs=0, batch_size=8)
        result = run_training(ds, config, out_dir=tmp_path)
        assert result.state.history == []
        assert (tmp_path / "checkpoint.npz").exists()
        curves = (tmp_path / "curves.csv").read_text().splitlines()
        assert curves == ["step,epoch,j_m,j_syn,j_gen,j_recon,j_soft,weight_w,lambda_interp"]
        assert result.final_report.num_test_classes == 3

    def test_one_row_tail_batch_is_offered_and_counted_as_skipped(self):
        # 3 train classes x 15 = 45 rows in batches of 11: four full batches and one row per epoch
        ds = synth_gaussian_dataset(6, 15, 5, seed=0)
        result = run_training(ds, small_config(batch_size=11, epochs=3))
        assert len(result.state.history) == 12
        assert result.state.skipped_batches == 3

    @pytest.mark.parametrize("batch_size, skipped", [(11, 1), (9, 0)], ids=["one-row-tails", "no-tail"])
    def test_skipped_batches_are_logged_once_per_epoch(self, caplog, batch_size, skipped):
        # 45 rows in batches of 11 leave a one-row tail per epoch, which has no triplet; batches of 9 leave none.
        # Each skipped batch's reason goes to DEBUG, its epoch's count to one WARNING and to the INFO epoch line
        ds = synth_gaussian_dataset(6, 15, 5, seed=0)
        with caplog.at_level(logging.DEBUG, logger="hardmetric.training"):
            run_training(ds, small_config(batch_size=batch_size, epochs=3))

        def logged(level):
            return [record.getMessage() for record in caplog.records if record.levelno == level]

        assert logged(logging.DEBUG) == ["batch skipped: triplets need at least 2 classes, got 1"] * 3 * skipped
        warnings = [f"epoch {epoch}: skipped batches: 1 (no tuple could be mined from them)" for epoch in range(3)]
        assert logged(logging.WARNING) == warnings * skipped
        epochs = logged(logging.INFO)
        assert len(epochs) == 3 and all(line.endswith(f" steps={5 - skipped} skipped={skipped}") for line in epochs)

    def test_alpha_zero_keeps_lambda_at_one_and_tuples_unhardened(self):
        ds = synth_gaussian_dataset(6, 8, 5, seed=1)
        config = small_config(alpha=0.0, epochs=3, batch_size=12)
        result = run_training(ds, config)
        assert all(row.lambda_interp == 1.0 for row in result.state.history)

    def test_j_avg_equals_epoch_mean_of_logged_j_m(self):
        ds = synth_gaussian_dataset(6, 8, 5, seed=2)
        config = small_config(epochs=3, batch_size=12)
        result = run_training(ds, config)
        rows = result.state.history
        by_epoch: dict[int, list[LogRow]] = {}
        for row in rows:
            by_epoch.setdefault(row.epoch, []).append(row)
        # lambda in epoch k must be the schedule applied to the mean of epoch k-1
        from hardmetric.augmentor import AugmentorState, pulling_lambda

        for epoch in sorted(by_epoch)[1:]:
            prev = by_epoch[epoch - 1]
            j_avg = float(np.mean([r.j_m for r in prev]))
            expected = pulling_lambda(AugmentorState(alpha=config.alpha, j_avg=j_avg))
            for row in by_epoch[epoch]:
                assert row.lambda_interp == expected

    def test_lambda_schedule_follows_loss_monotonicity(self):
        ds = synth_gaussian_dataset(6, 8, 5, seed=3)
        config = small_config(epochs=4, batch_size=12)
        result = run_training(ds, config)
        epochs = sorted({row.epoch for row in result.state.history})
        lam = {e: next(r.lambda_interp for r in result.state.history if r.epoch == e) for e in epochs}
        javg = {}
        for e in epochs:
            rows = [r.j_m for r in result.state.history if r.epoch == e]
            javg[e] = float(np.mean(rows))
        for a, b in zip(epochs[1:], epochs[2:]):
            if javg[b - 1] <= javg[a - 1]:
                assert lam[b] <= lam[a]

    def test_kept_result_holds_its_parameters_and_no_optimizer_state(self):
        # the acceptance triplet run for one epoch: 325 KB of parameters, and Adam moments twice that
        dataset, config = bench_dataset(0), dataclasses.replace(bench_config("triplet", 0), epochs=1)
        result, held = _traced_kept(lambda: run_training(dataset, config))
        state, models = result.state, result.models
        assert [state.adam_extractor, state.adam_projector, state.adam_generator, state.adam_classifier] == [None] * 4
        layers = models.embedder.extractor + [models.embedder.projector] + models.generator + [models.classifier]
        # the margin covers the split, label map, reports and eight logged rows
        assert held <= sum(p.nbytes for p in stack_params(layers)) + 64 * 2**10

    def test_finished_state_takes_no_further_step(self):
        ds = synth_gaussian_dataset(6, 8, 5, seed=1)
        config = small_config(epochs=1, batch_size=12)
        result = run_training(ds, config)
        before = model_bytes(result.models), result.state.rng.bit_generator.state, len(result.state.history)
        x, labels = ds.samples[:12], ds.labels[:12]
        with pytest.raises(InputError, match="run has finished"):
            train_step(result.models, x, labels, result.state, config)
        assert (model_bytes(result.models), result.state.rng.bit_generator.state, len(result.state.history)) == before

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            ds = synth_gaussian_dataset(2, 2, 3, seed=0)
            object.__setattr__  # keep pytest quiet about unused
            config = small_config()
            run_training(
                type(ds)(ds.samples[:0], ds.labels[:0]) if False else _empty_like(ds), config
            )

    def test_curve_file_round_trips_bitwise(self, tmp_path):
        ds = synth_gaussian_dataset(6, 6, 5, seed=4)
        config = small_config(epochs=2, batch_size=9)
        first = run_training(ds, config, out_dir=tmp_path / "a")
        second = run_training(ds, config, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "curves.csv").read_bytes() == (tmp_path / "b" / "curves.csv").read_bytes()
        assert first.final_report.to_dict() == second.final_report.to_dict()

    def test_test_classes_are_scored_once_after_the_last_epoch(self, tmp_path, monkeypatch):
        calls = []
        step, score = training.train_step, training.evaluate_embeddings
        monkeypatch.setattr(training, "train_step", lambda *args: calls.append("step") or step(*args))
        monkeypatch.setattr(training, "evaluate_embeddings", lambda *args, **kw: calls.append("score") or score(*args, **kw))
        ds = synth_gaussian_dataset(6, 6, 5, seed=4)
        result = run_training(ds, small_config(epochs=4, batch_size=9), out_dir=tmp_path)
        # 3 training classes of 6 rows: 2 batches of 9 in each of the 4 epochs, then one score
        assert calls == ["step"] * 8 + ["score"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert list(manifest) == [
            "config", "seed", "dataset", "split", "label_map", "skipped_batches", "final_metrics", "elapsed_seconds",
        ]
        assert manifest["final_metrics"] == result.final_report.to_dict()

    def test_baseline_mode_runs_without_generator(self):
        ds = synth_gaussian_dataset(6, 6, 5, seed=5)
        config = small_config(synthetics=False, alpha=0.0, epochs=2, batch_size=9)
        result = run_training(ds, config)
        assert result.models.generator is None
        assert all(row.j_gen == 0.0 and row.weight_w == 1.0 for row in result.state.history)

    def test_generator_loss_trends_down_over_epochs(self):
        ds = synth_gaussian_dataset(8, 12, 6, noise_sigma=2.0, seed=6)
        config = small_config(epochs=8, batch_size=16)
        result = run_training(ds, config)
        per_epoch = {}
        for row in result.state.history:
            per_epoch.setdefault(row.epoch, []).append(row.j_gen)
        epochs = sorted(per_epoch)
        means = np.array([np.mean(per_epoch[e]) for e in epochs])
        slope = np.polyfit(np.array(epochs, dtype=float), means, 1)[0]
        assert slope < 0.0
        assert means[-1] < means[0]


class TestScoreClasses:
    def test_rows_embeddings_and_report_of_the_given_classes(self):
        ds = synth_gaussian_dataset(6, 5, 4, seed=2)
        models = init_models(4, 3, small_config())
        report, rows, z = score_classes(models.embedder, ds, [4, 1], (1, 2), kmeans_seed=3)
        assert np.array_equal(rows, np.flatnonzero((ds.labels == 1) | (ds.labels == 4)))
        assert np.array_equal(z, embed(models.embedder, ds.samples[rows])[0].embeddings)
        assert report == evaluate_embeddings(z, ds.labels[rows], ks=(1, 2), kmeans_seed=3)

    def test_gathered_samples_are_freed_before_the_evaluation(self, monkeypatch):
        gathered = []
        inner_embed, inner_score = training.embed, training.evaluate_embeddings

        def recorded_embed(params, x):
            gathered.append(weakref.ref(x))
            return inner_embed(params, x)

        def checked_score(*args, **kwargs):
            assert gathered[0]() is None, "the gathered samples outlive embed"
            return inner_score(*args, **kwargs)

        monkeypatch.setattr(training, "embed", recorded_embed)
        monkeypatch.setattr(training, "evaluate_embeddings", checked_score)
        ds = synth_gaussian_dataset(6, 5, 4, seed=2)
        score_classes(init_models(4, 3, small_config()).embedder, ds, [0, 5], (1,))
        assert len(gathered) == 1


class TestGradientScopeProbe:
    def test_projector_moves_j_gen_value_but_gets_no_generator_gradient(self):
        # j_gen depends on the projector through the embeddings it is fed,
        # yet the generator update must never write back into it
        rng = np.random.default_rng(12)
        x, labels = toy_batch(rng)
        config = small_config()
        models = init_models(x.shape[1], 3, config)
        state = init_state(models, config)

        def current_j_gen():
            from hardmetric.augmentor import augment_tuples
            from hardmetric.embedder import extract

            feats, _ = extract(models.embedder, x)
            emb, _ = project(models.embedder, feats)
            tuples = mine_tuples(labels, config, np.random.default_rng(0))
            aug = augment_tuples(emb, tuples, state.augmentor)
            members = aug.members
            result = generator_loss(
                models.generator, models.classifier,
                feats[members], emb[members],
                aug.hardened_negatives.reshape(-1, emb.shape[1]), aug.synthetic.labels[2 * aug.size :],
                config.lambda_balance,
            )
            return result.j_gen

        before = current_j_gen()
        models.embedder.projector.weight[0, 0] += 0.5
        after = current_j_gen()
        assert after != before
        models.embedder.projector.weight[0, 0] -= 0.5
        proj_bytes = models.embedder.projector.weight.tobytes()
        train_step(models, x, labels, freeze(state, "extractor", "projector", "classifier"), config)
        assert models.embedder.projector.weight.tobytes() == proj_bytes


class TestAlphaZeroDegeneracy:
    def test_synthetic_loss_equals_reconstructed_original_tuple_loss(self):
        # with hardening disabled the synthetic tuple is just the generator's
        # reconstruction of the original tuple, re-embedded
        rng = np.random.default_rng(13)
        x, labels = toy_batch(rng)
        config = small_config(alpha=0.0)
        models = init_models(x.shape[1], 3, config)
        state = init_state(models, config)
        from hardmetric.augmentor import augment_tuples
        from hardmetric.embedder import extract
        from hardmetric.nn import stack_forward

        feats, _ = extract(models.embedder, x)
        emb, _ = project(models.embedder, feats)
        tuples = mine_tuples(labels, config, np.random.default_rng(1))
        aug = augment_tuples(emb, tuples, state.augmentor)
        assert np.array_equal(aug.hardened_negatives, emb[aug.negative_idx])
        member_feats, _ = stack_forward(models.generator, emb[aug.members])
        hard_feats, _ = stack_forward(models.generator, aug.hardened_negatives.reshape(-1, emb.shape[1]))
        syn_rows = np.vstack([member_feats[: 2 * aug.size], hard_feats])
        syn_emb, _ = project(models.embedder, syn_rows)
        j_syn, _ = batch_metric_loss(syn_emb, aug.synthetic, config.margin)
        # oracle: re-embed the reconstructions of the raw tuple members directly
        recon, _ = stack_forward(models.generator, emb)
        recon_emb, _ = project(models.embedder, recon)
        j_direct, _ = batch_metric_loss(recon_emb, tuples, config.margin)
        assert abs(j_syn - j_direct) < 1e-12


def _empty_like(ds):
    # bypass the Dataset validator to hand run_training an empty dataset
    import copy

    empty = copy.copy(ds)
    empty.samples = np.zeros((0, ds.input_dim))
    empty.labels = np.zeros(0, dtype=np.int64)
    return empty


class TestCurvesWriter:
    def test_header_and_rows(self, tmp_path):
        rows = [LogRow(0, 0, 1.0, 0.5, 2.0, 1.5, 1.0, 0.9, 1.0)]
        path = tmp_path / "curves.csv"
        write_curves(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,epoch,j_m,j_syn,j_gen,j_recon,j_soft,weight_w,lambda_interp"
        assert lines[1].startswith("0,0,1.0,0.5,2.0,1.5,1.0,0.9,1.0")
