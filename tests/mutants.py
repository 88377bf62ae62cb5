"""Mutation kill-list: each row breaks one check of `src/hardmetric`, and named tests must catch it.

A row names a file of the package, an exact text that occurs in it once, the text that
replaces it, and the pytest ids that must fail once it is replaced. The runner first runs
every id on the unchanged tree, where each must pass. It then applies each row to its own
temporary copy of `src/` and runs each of the row's ids there, at most two pytest
processes at a time. A row is killed when every one of its ids fails, and survived when
one passes.

    python tests/mutants.py

It prints one line per row and exits 1 when a row survived or an id could not be run.
`tests/test_mutants.py` checks, within tier-1, only that each old text still occurs
exactly once, so that a refactor carries its rows forward, and that each mutated file
still parses, so that no row is killed by a syntax error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hardmetric"
WORKERS = 2  # pytest processes at a time


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/hardmetric
    old: str
    new: str
    tests: tuple[str, ...]


_EVAL_EARLY = "tests/test_cli.py::test_bad_argument_exits_one_before_the_dataset_is_read"
_SIDECAR = "tests/test_data.py::TestParsedSidecar::test_damaged_sidecar_is_parsed_again_and_rewritten"
_CONFIG_RANGE = "tests/test_data.py::TestConfigParsing::test_out_of_range_value_names_its_key"
_CANNOT_RUN = "tests/test_cli.py::test_config_that_cannot_run_exits_one_before_training"
_SINGLES = "tests/test_cli.py::test_one_sample_per_class_exits_one_before_training"
_UNCAST_K = "tests/test_evaluation.py::TestRecallAtK::test_k_the_integer_cast_would_change_rejected"
_EXACT = "tests/test_evaluation.py::TestGramExactness"
_RECALL_EXACT = f"{_EXACT}::test_recall_equals_the_explicit_argsort"
_RECALL_TILES = f"{_EXACT}AcrossTiles::test_recall_equals_the_explicit_argsort"
_CENTRE_TILES = f"{_EXACT}AcrossCentreTiles::test_kmeans_equals_the_explicit_assignment"
_RESEED_TILES = "tests/test_evaluation.py::test_kmeans_reseed_across_centre_tiles_matches_the_reference"
_DUPLICATED = "tests/test_evaluation.py::test_recall_with_every_point_duplicated_under_another_label"
_SAME_REPORT = "tests/test_evaluation.py::test_report_on_one_usable_cpu_is_the_report_on_two"
_WORKER_RAISES = "tests/test_evaluation.py::test_non_finite_row_raises_through_the_worker_thread"
_STEP = "tests/test_training.py::TestStepUpdates"
_EXPORT_BYTES = "tests/test_evaluation.py::TestReportAndExport::test_embeddings_csv_matches_the_per_value_formatter"
_RELU_MASK = "tests/test_nn.py::TestDenseBackward::test_relu_mask_through_the_forward_pass_is_pre_greater_than_zero"
_BY_HAND = "test_gradients_equal_dense_backward_chained_by_hand"
_FRAGMENT = "tests/test_verify.py::TestFragments::test_{}_fragment_passes_gradcheck"
_SAME_TEXT = "tests/test_data.py::TestParallelWriter::test_text_is_the_same_for_every_worker_count"
_PIPED_STDOUT = "tests/test_cli.py::TestSynthData::test_workers_leave_a_piped_stdout_alone"
_WORKER_FAILS = "tests/test_data.py::TestParallelWriter::test_failed_worker_is_an_error_and_no_child_is_left"
_PINNED = "tests/test_reference_runs.py::test_hardened_run_reproduces_its_pinned_curves"
_FINISHED = "tests/test_training.py::TestRunTraining::test_finished_state_takes_no_further_step"
_FIRST_LOAD = "tests/test_data.py::TestDatasetIO::test_first_load_holds_the_samples_once"
_DECODED = "tests/test_evaluation.py::test_band_entries_are_decoded_only_when_a_band_holds_another_point"
_SPLIT = "tests/test_data.py::TestZeroShotSplit"
_SYNTHETIC = "tests/test_augmentor.py::TestAugmentTuples::test_synthetic_is_the_explicit_construction"

# `train_step` from the generator's loss to its last update, in three pieces that the step-order rows rearrange
_GENERATOR_LOSS = (
    "        gen = generator_loss(\n"
    "            models.generator,\n"
    "            models.classifier,\n"
    "            features[members],\n"
    "            z[members],\n"
    "            hardened.reshape(-1, hardened.shape[-1]),\n"
    "            aug.synthetic.labels[2 * t :],\n"
    "            config.lambda_balance,\n"
    "        )\n"
    "        gen_terms = (gen.j_gen, gen.j_recon, gen.j_soft)\n"
    "        w = metric_weight(gen.j_gen, config.beta)\n"
    "        # the synthetic rows: reconstructed anchors and positives, then the decoded hardened negatives\n"
    "        syn_z, syn_tape = project(models.embedder, np.vstack([gen.member_features[: 2 * t], gen.hardened_features]))\n"
    "        j_syn, grad_z_syn = batch_metric_loss(syn_z, aug.synthetic, config.margin)\n"
    "        syn_grad = (1.0 - w) * grad_z_syn\n"
)
_SYN_CHECK = '        _check_finite(j_syn, "metric loss over synthetic tuples")\n'
_UPDATES = (
    "    # original path reaches the extractor; both paths reach the projector\n"
    "    ext_grads, proj_grads = embed_backward(models.embedder, ext_tapes, proj_tape, w * grad_z_m)\n"
    "    if syn_grad is not None:\n"
    "        syn_proj_grads = project_backward(models.embedder, syn_tape, syn_grad)\n"
    "        proj_grads = [g + s for g, s in zip(proj_grads, syn_proj_grads)]\n"
    "    state.adam_extractor.step(ext_grads)\n"
    "    state.adam_projector.step(proj_grads)\n"
    "    if config.synthetics:\n"
    "        state.adam_generator.step(gen.grads)\n"
)
_CLASSIFIER_STEP = "        classifier_step(models.classifier, features, labels, state.adam_classifier)\n"

MUTANTS = [
    Mutant(
        "check_positive lets NaN through", "errors.py",
        "    if not value > 0:", "    if value <= 0:",
        (f"{_CONFIG_RANGE}[beta = nan-beta]",),
    ),
    Mutant(
        "check_nonnegative lets NaN through", "errors.py",
        "    if not value >= 0:", "    if value < 0:",
        (
            "tests/test_generator.py::TestGeneratorLoss::test_negative_or_nan_balance_is_an_input_error[nan]",
            "tests/test_augmentor.py::TestPullingLambda::test_negative_alpha_rejected",
            f"{_CONFIG_RANGE}[alpha = nan-alpha]",
        ),
    ),
    Mutant(
        "check_ks accepts K equal to the number of points", "evaluation.py",
        "ks[-1] >= n", "ks[-1] > n",
        ("tests/test_evaluation.py::TestRecallAtK::test_k_too_large_rejected",),
    ),
    Mutant(
        "a triplet batch without a same-class pair is mined", "training.py",
        'return None if paired else "no class has two samples"', "return None",
        (
            "tests/test_training.py::TestMineTuples::test_batch_without_a_pair_is_skipped_without_a_draw",
            f"{_SINGLES}[triplet]",
        ),
    ),
    Mutant(
        "training starts on classes that cannot yield a tuple", "training.py",
        "    reason = _why_no_tuple(class_counts, config)\n", "    reason = None\n",
        (f"{_SINGLES}[triplet]", f"{_SINGLES}[npair]", f"{_CANNOT_RUN}[npair-more-than-classes]"),
    ),
    Mutant(
        "triplet training starts with batches of two, which never hold a triplet", "training.py",
        'config.loss_kind == "triplet" and config.batch_size < 3', "False",
        (f"{_CANNOT_RUN}[triplet-batch-of-two]",),
    ),
    Mutant(
        "Dataset truncates fractional labels", "data.py",
        'self.labels = as_int64(self.labels, "labels")', "self.labels = np.asarray(self.labels).astype(np.int64)",
        ("tests/test_data.py::TestDatasetIO::test_dataset_refuses_labels_the_integer_cast_would_change[fraction]",),
    ),
    Mutant(
        "EmbeddingBatch truncates fractional labels", "embedder.py",
        'self.labels = as_int64(self.labels, "labels")', "self.labels = np.asarray(self.labels, dtype=np.int64)",
        ("tests/test_embedder.py::TestEmbed::test_batch_refuses_labels_the_integer_cast_would_change[fraction]",),
    ),
    Mutant(
        "ZeroShotSplit truncates fractional class ids", "data.py",
        'self.train_classes = as_int64(self.train_classes, "train_classes")',
        "self.train_classes = np.asarray(self.train_classes, dtype=np.int64)",
        ("tests/test_data.py::TestZeroShotSplit::test_split_refuses_classes_the_integer_cast_would_change[fractional-train]",),
    ),
    Mutant(
        "the integer cast lets a changed value through", "nn.py",
        "        fits = out is arr or np.array_equal(out, arr)", "        fits = True",
        (
            "tests/test_data.py::TestDatasetIO::test_dataset_refuses_labels_the_integer_cast_would_change[fraction]",
            f"{_UNCAST_K}[recall_at_k]",
        ),
    ),
    Mutant(
        "check_ks truncates a fractional K", "evaluation.py",
        "sorted(as_int64(list(ks), name).tolist())", "sorted(int(k) for k in ks)",
        (f"{_UNCAST_K}[recall_at_k]", f"{_UNCAST_K}[evaluate_embeddings]", f"{_CONFIG_RANGE}[recall_ks=1,1.5]"),
    ),
    Mutant(
        "TrainConfig accepts a float in an integer field", "training.py",
        "            if isinstance(value, bool) or not isinstance(value, numbers.Integral):",
        "            if isinstance(value, bool):",
        (f"{_CONFIG_RANGE}[epochs=2.5]", f"{_CONFIG_RANGE}[hidden_dims=8,2.5]"),
    ),
    Mutant(
        "TrainConfig accepts a bool as a count", "training.py",
        "if isinstance(value, bool) or not isinstance(value, numbers.Integral):",
        "if not isinstance(value, numbers.Integral):",
        (f"{_CONFIG_RANGE}[epochs=True]", f"{_CONFIG_RANGE}[split_seed=False]"),
    ),
    Mutant(
        "Dataset accepts non-finite samples", "data.py",
        "        if not finite:\n", "        if False:\n",
        (
            "tests/test_data.py::TestDatasetIO::test_dataset_requires_finite_samples[nan]",
            "tests/test_data.py::TestDatasetIO::test_non_finite_value_reports_line[inf]",
            f"{_SIDECAR}[nan-in-samples]",
        ),
    ),
    Mutant(
        "Dataset refuses finite samples whose sum overflows", "data.py",
        " or np.isfinite(self.samples).all()", "",
        ("tests/test_data.py::TestDatasetIO::test_dataset_accepts_finite_samples_whose_sum_overflows",),
    ),
    Mutant(
        "Dataset warns when finite samples sum past the float range", "data.py",
        'np.errstate(over="ignore", invalid="ignore")', "np.errstate()",
        (
            "tests/test_data.py::TestDatasetIO::test_dataset_accepts_finite_samples_whose_sum_overflows",
            "tests/test_data.py::TestCReaderAgreesWithTheLineParser::test_each_file_takes_the_reader_it_took_before",
        ),
    ),
    Mutant(
        "sidecar samples of any dtype are read", "data.py",
        "samples.dtype == np.float64", "True",
        (f"{_SIDECAR}[float32-samples]",),
    ),
    Mutant(
        "sidecar labels of any dtype are read", "data.py",
        "labels.dtype == np.int64", "True",
        (f"{_SIDECAR}[int32-labels]",),
    ),
    Mutant(
        "split_zero_shot accepts any train fraction", "data.py",
        "    check_train_fraction(train_fraction)\n", "",
        ("tests/test_data.py::TestZeroShotSplit::test_fraction_boundaries_rejected",),
    ),
    Mutant(
        "split_zero_shot accepts a negative seed", "data.py",
        '    check_nonnegative("split seed", seed)\n', "",
        ("tests/test_data.py::TestZeroShotSplit::test_negative_seed_rejected",),
    ),
    Mutant(
        "TrainConfig accepts any train fraction", "training.py",
        "        check_train_fraction(self.train_fraction)\n", "",
        (
            f"{_CONFIG_RANGE}[train_fraction = 1.5-train_fraction]",
            f"{_CONFIG_RANGE}[train_fraction = nan-train_fraction]",
            f"{_EVAL_EARLY}[train-fraction-outside-0-1]",
        ),
    ),
    Mutant(
        "eval reads its files before it checks --kmeans-seed", "cli.py",
        '    check_nonnegative("k-means seed", args.kmeans_seed)\n', "",
        (f"{_EVAL_EARLY}[eval-kmeans-seed-negative]",),
    ),
    Mutant(
        "eval reads its files before it checks --split-seed", "cli.py",
        '        check_nonnegative("split seed", args.split_seed)\n', "        pass\n",
        (f"{_EVAL_EARLY}[eval-split-seed-negative]",),
    ),
    Mutant(
        "eval reads its files before it checks --train-fraction", "cli.py",
        "        check_train_fraction(args.train_fraction)\n", "        pass\n",
        (f"{_EVAL_EARLY}[eval-train-fraction-outside-0-1]", f"{_EVAL_EARLY}[eval-train-fraction-nan]"),
    ),
    Mutant(
        "kmeans accepts a negative seed", "evaluation.py",
        '    check_nonnegative("k-means seed", seed)\n', "",
        ("tests/test_evaluation.py::TestKmeans::test_negative_seed_rejected",),
    ),
    Mutant(
        "evaluate_embeddings clusters before it checks the labels", "evaluation.py",
        "    labels = _checked_labels(labels, z.shape[0])\n", "    labels = np.asarray(labels)\n",
        ("tests/test_evaluation.py::test_labels_of_another_length_are_refused_before_clustering",),
    ),
    Mutant(
        "the k-means centre update sums a cluster's rows out of order", "evaluation.py",
        'np.argsort(assign[rows], kind="stable")', "np.argsort(assign[rows])",
        ("tests/test_evaluation.py::test_kmeans_with_k_close_to_n_matches_the_reference",),
    ),
    Mutant(
        "k-means++ seeding prunes rows without the rounding slack", "evaluation.py",
        "<= d2 + 2.0 * _slack(d, sq, sq[idx]))", "<= d2)",
        (
            f"{_EXACT}::test_kmeans_equals_the_explicit_assignment[far-blobs]",
            f"{_CENTRE_TILES}[far-blobs-tiles-of-4]",
        ),
    ),
    Mutant(
        "the first k-means++ centre is drawn by weight", "evaluation.py",
        "    centers[0] = pts[rng.integers(n)]\n", "    centers[0] = pts[rng.choice(n, p=sq / sq.sum())]\n",
        (
            f"{_EXACT}::test_kmeans_equals_the_explicit_assignment[gaussian]",
            "tests/test_evaluation.py::test_kmeans_with_k_close_to_n_matches_the_reference",
        ),
    ),
    Mutant(
        "the best-two test leaves the best centre in place", "evaluation.py",
        "                g[at, np.arange(len(best))] = np.inf\n", "",
        ("tests/test_evaluation.py::test_kmeans_takes_explicit_differences_only_for_rows_near_a_tie",),
    ),
    Mutant(
        "a cluster that stays empty keeps its old centre", "evaluation.py",
        "        stale |= counts == 0\n", "",
        (
            "tests/test_evaluation.py::test_kmeans_reseed_of_an_emptied_cluster_matches_the_reference[empty-for-many-rounds]",
            f"{_RESEED_TILES}[empty-for-many-rounds-tiles-of-13]",
        ),
    ),
    Mutant(
        "a centre tile scales by -2 twice", "evaluation.py",
        "                g += sq_c[c0 : c0 + width, None]\n",
        "                g *= -2.0\n                g += sq_c[c0 : c0 + width, None]\n",
        (f"{_EXACT}::test_kmeans_equals_the_explicit_assignment[gaussian]",),
    ),
    Mutant(
        "the k-means runner-up loses the max(first, least) term", "evaluation.py",
        "np.minimum(np.minimum(second, g.min(axis=0)), np.maximum(first, least))", "np.minimum(second, g.min(axis=0))",
        (
            f"{_CENTRE_TILES}[tied-stars-tiles-of-13]",
            f"{_CENTRE_TILES}[far-blobs-tiles-of-4]",
            f"{_RESEED_TILES}[empty-for-many-rounds-tiles-of-1]",
        ),
    ),
    Mutant(
        "the k-means sweep skips the short last centre tile", "evaluation.py",
        "for c0 in range(0, k, width):", "for c0 in range(0, k - k % width, width):",
        (f"{_CENTRE_TILES}[gaussian-tiles-of-13]", f"{_RESEED_TILES}[empty-for-many-rounds-tiles-of-13]"),
    ),
    Mutant(
        "a centre tile's best centre is not offset by the tile's first centre", "evaluation.py",
        "np.copyto(best, at + c0, where=least < first)", "np.copyto(best, at, where=least < first)",
        (f"{_CENTRE_TILES}[gaussian-tiles-of-13]", f"{_RESEED_TILES}[stolen-members-tiles-of-1]"),
    ),
    Mutant(
        "Recall@K breaks an exact tie toward the higher sample index", "evaluation.py",
        "(dist == nearest[query]) & (point < star[query])", "(dist == nearest[query]) & (point > star[query])",
        (
            f"{_RECALL_EXACT}[tied-across-labels]",
            f"{_RECALL_TILES}[tied-across-labels-tiles-of-13]",
            f"{_DUPLICATED}[tiles-of-13]",
        ),
    ),
    Mutant(
        "Recall@K counts from the Gram values alone, with no band left to explicit distances", "evaluation.py",
        "2.0 * slack[hit]", "0.0 * slack[hit]",
        (
            "tests/test_evaluation.py::TestRecallAtK::test_two_tight_pairs",
            f"{_RECALL_EXACT}[large-offset]",
            f"{_RECALL_TILES}[far-blobs-tiles-of-1]",
        ),
    ),
    Mutant(
        "Recall@K scores a query without a same-label point as a hit", "evaluation.py",
        "first_hit = np.full(n, n)", "first_hit = np.zeros(n, dtype=int)",
        (f"{_RECALL_EXACT}[singleton-classes]", f"{_RECALL_TILES}[singleton-classes-tiles-of-13]"),
    ),
    Mutant(
        "Recall@K takes the nearest same-label point from the Gram minimum alone, without the slack", "evaluation.py",
        "least + 2.0 * slack[stack[:, lo:hi]], -np.inf)", "least, -np.inf)",
        (f"{_RECALL_EXACT}[far-blobs]", f"{_RECALL_TILES}[tied-stars-tiles-of-1]"),
    ),
    Mutant(
        "a point inside a band is dropped", "evaluation.py",
        "inside.append((near[~below], i.start, j.start, g.shape[1], True))",
        "inside.append((near[:0], i.start, j.start, g.shape[1], True))",
        (f"{_DUPLICATED}[default-tiles]", f"{_DUPLICATED}[tiles-of-13]", f"{_RECALL_EXACT}[tied-across-labels]"),
    ),
    Mutant(
        "Recall@K keeps every band entry to the end of the sweep", "evaluation.py",
        "        if kept >= n:\n", "        if False:\n",
        ("tests/test_evaluation.py::test_recall_memory_stays_bounded_on_collapsed_embeddings",),
    ),
    Mutant(
        "the transposed count of a Gram tile reads the row side's thresholds", "evaluation.py",
        "near = np.flatnonzero(t <= high[j])", "near = np.flatnonzero(t <= high[i])",
        (f"{_RECALL_TILES}[gaussian-tiles-of-13]", f"{_RECALL_TILES}[scattered-labels-tiles-of-1]", _SAME_REPORT),
    ),
    Mutant(
        "a diagonal Gram tile counts the query itself", "evaluation.py",
        "            np.fill_diagonal(g, np.inf)\n", "            pass\n",
        (f"{_RECALL_EXACT}[gaussian]", f"{_RECALL_TILES}[string-labels-tiles-of-13]"),
    ),
    Mutant(
        "the tile sweep skips the short last tile", "evaluation.py",
        "for j in range(i, n, side):", "for j in range(i, n - n % side, side):",
        (f"{_RECALL_TILES}[gaussian-tiles-of-13]", f"{_RECALL_TILES}[far-blobs-tiles-of-13]", _SAME_REPORT),
    ),
    Mutant(
        "a worker thread's exception is dropped (Recall@K's)", "data.py",
        "    if failure:\n        raise failure[0]\n", "",
        (f"{_WORKER_RAISES}[nan-stubbed]", f"{_WORKER_RAISES}[overflow-stubbed]"),
    ),
    Mutant(
        "a worker thread is not joined when the calling thread's side raises", "data.py",
        "    try:\n        yield\n    finally:\n        worker.join()\n", "    yield\n    worker.join()\n",
        ("tests/test_evaluation.py::test_recall_worker_finishes_before_a_clustering_error_leaves_the_evaluation",),
    ),
    Mutant(
        "the synthetic loss is checked only after the partitions are stepped", "training.py",
        _SYN_CHECK + "\n" + _UPDATES + _CLASSIFIER_STEP,
        "\n" + _UPDATES + _CLASSIFIER_STEP + _SYN_CHECK[4:],
        (f"{_STEP}::test_step_with_a_non_finite_synthetic_loss_updates_no_partition",),
    ),
    Mutant(
        "the classifier is stepped before generator_loss reads it", "training.py",
        _GENERATOR_LOSS + _SYN_CHECK + "\n" + _UPDATES + _CLASSIFIER_STEP,
        _CLASSIFIER_STEP + _GENERATOR_LOSS + _SYN_CHECK + "\n" + _UPDATES,
        (f"{_STEP}::test_generator_loss_reads_the_head_before_classifier_step_updates_it",),
    ),
    Mutant(
        "evaluation takes NaN labels", "evaluation.py",
        "        if nan.size:\n", "        if False:\n",
        (
            "tests/test_evaluation.py::test_nan_or_unsortable_labels_are_refused[recall_at_k]",
            "tests/test_evaluation.py::test_nan_or_unsortable_labels_are_refused[nmi]",
        ),
    ),
    Mutant(
        "the row-block writer drops the last row of each block", "data.py",
        "block = slice(start, start + rows)", "block = slice(start, start + rows - 1)",
        (
            "tests/test_data.py::TestDatasetIO::test_writer_matches_the_per_value_formatter[blocks-of-3-3-1-rows]",
            f"{_EXPORT_BYTES}[blocks-of-3-3-1-rows]",
        ),
    ),
    Mutant(
        "the row-block writer takes every block's keys from the first block", "data.py",
        "map(str, k[block].tolist())", "map(str, k[:rows].tolist())",
        (
            "tests/test_data.py::TestDatasetIO::test_writer_matches_the_per_value_formatter[blocks-of-3-3-1-rows]",
            f"{_EXPORT_BYTES}[blocks-of-3-3-1-rows]",
        ),
    ),
    Mutant(
        "the parallel writer writes its blocks in worker order, not block order", "data.py",
        "        for i, start in enumerate(starts):\n",
        "        for i, start in sorted(enumerate(starts), key=lambda item: item[0] % workers):\n",
        (f"{_SAME_TEXT}[16-blocks]", f"{_SAME_TEXT}[dim-1]", _PIPED_STDOUT),
    ),
    Mutant(
        "the parallel writer never waits for its workers", "data.py",
        "        statuses = {pid: os.waitpid(pid, 0)[1] for pid, _ in children}\n",
        "        statuses = {pid: 0 for pid, _ in children}\n",
        (
            f"{_SAME_TEXT}[one-block-and-a-row]",
            "tests/test_data.py::TestParallelWriter::test_no_child_is_left_when_the_file_write_fails",
            f"{_WORKER_FAILS}[out-of-memory]",
        ),
    ),
    Mutant(
        "a writer worker ends with sys.exit, which unwinds into the caller and flushes inherited buffers", "data.py",
        "        os._exit(status)", "        raise SystemExit(status)",
        (_PIPED_STDOUT,),
    ),
    Mutant(
        "a float64 array beyond a 64-bit address space is let through to numpy", "nn.py",
        "    if math.prod(shape) * 8 > np.iinfo(np.intp).max:", "    if False:",
        (
            "tests/test_data.py::TestSynthDataset::test_samples_beyond_a_64_bit_address_space_refused",
            "tests/test_cli.py::test_sizes_memory_cannot_hold_exit_one_with_a_message[train-layer-beyond-address-space]",
        ),
    ),
    Mutant(
        "the ReLU mask passes gradient through dead units", "nn.py",
        "upstream * (tape.out > 0.0)", "upstream * (tape.out >= 0.0)",
        (
            "tests/test_nn.py::TestDenseBackward::test_relu_dead_zone_zeroes_gradient",
            _RELU_MASK,
            "tests/test_nn.py::TestDenseBackward::test_relu_mask_over_negative_zero_and_nan_is_pre_greater_than_zero",
        ),
    ),
    Mutant(
        "ReLU is applied before the bias is added", "nn.py",
        '    out += layer.bias\n    if layer.activation == "relu":\n        np.maximum(out, 0.0, out=out)\n',
        '    if layer.activation == "relu":\n        np.maximum(out, 0.0, out=out)\n    out += layer.bias\n',
        (_RELU_MASK, "tests/test_reference_runs.py::test_hardened_run_reproduces_its_pinned_curves[triplet]"),
    ),
    Mutant(
        "verify's kink check reads each tape's output as its pre-activation", "verify.py",
        "pres = [t.x @ layer.weight.T + layer.bias for layer, t in zip(embedder.extractor, ext_tapes)]",
        "pres = [t.out for t in ext_tapes]",
        (_FRAGMENT.format("triplet"), _FRAGMENT.format("npair")),
    ),
    Mutant(
        "stack_backward skips the input gradient of the last layer instead of the first", "nn.py",
        "        if i > 0:\n", "        if i < len(layers) - 1:\n",
        (
            f"tests/test_embedder.py::TestEmbedBackward::{_BY_HAND}",
            f"tests/test_generator.py::TestGeneratorLoss::{_BY_HAND}",
            _FRAGMENT.format("generator"),
        ),
    ),
    Mutant(
        "embed returns its tapes again, pinning both extractor activations", "embedder.py",
        "    z, _ = project(params, extract(params, x)[0])\n    return EmbeddingBatch(z, labels), None\n",
        "    feats, ext_tapes = extract(params, x)\n    z, proj_tape = project(params, feats)\n"
        "    return EmbeddingBatch(z, labels), (ext_tapes, proj_tape)\n",
        (
            "tests/test_embedder.py::test_kept_embed_result_holds_the_embeddings_alone",
            "tests/test_embedder.py::TestEmbed::test_returns_the_batch_and_no_tapes",
        ),
    ),
    Mutant(
        "run_training keeps its optimizers in the returned state", "training.py",
        "    state.adam_extractor = state.adam_projector = state.adam_generator = state.adam_classifier = None\n", "",
        ("tests/test_training.py::TestRunTraining::test_kept_result_holds_its_parameters_and_no_optimizer_state", _FINISHED),
    ),
    Mutant(
        "a finished run's state is not refused a further step", "training.py",
        "    if state.adam_extractor is None:\n", "    if False:\n",
        (_FINISHED,),
    ),
    Mutant(
        "the original-tuple loss is weighted by 1 - w instead of w", "training.py",
        "embed_backward(models.embedder, ext_tapes, proj_tape, w * grad_z_m)",
        "embed_backward(models.embedder, ext_tapes, proj_tape, (1.0 - w) * grad_z_m)",
        (f"{_PINNED}[triplet]", f"{_PINNED}[npair]"),
    ),
    Mutant(
        "the classifier is stepped on the synthetic features", "training.py",
        "classifier_step(models.classifier, features, labels, state.adam_classifier)",
        "classifier_step(models.classifier, gen.hardened_features, aug.synthetic.labels[2 * t :], state.adam_classifier)",
        (f"{_PINNED}[triplet]", f"{_PINNED}[npair]"),
    ),
    Mutant(
        "j_avg is published after every step instead of at the epoch boundary", "training.py",
        "    row = LogRow(state.step, state.epoch, j_m, j_syn, *gen_terms, w, lam)\n",
        "    state.augmentor.j_avg = j_m\n    row = LogRow(state.step, state.epoch, j_m, j_syn, *gen_terms, w, lam)\n",
        ("tests/test_training.py::TestRunTraining::test_j_avg_equals_epoch_mean_of_logged_j_m", f"{_PINNED}[triplet]"),
    ),
    Mutant(
        "eval scores a checkpoint whose embedder normalized its embeddings", "checkpoint.py",
        '    if doc.get("normalize_embeddings", False):', "    if False:",
        ("tests/test_cli.py::test_checkpoint_of_a_normalized_embedder_is_refused[true]",),
    ),
    Mutant(
        "synthesis draws the class centres before it allocates the sample array", "data.py",
        "    samples = np.empty((num_classes * per_class, input_dim))  # first, so a size memory cannot hold draws nothing\n"
        "    rng = np.random.default_rng(seed)\n"
        "    centers = rng.uniform(0.0, center_scale, size=(num_classes, input_dim))\n",
        "    rng = np.random.default_rng(seed)\n"
        "    centers = rng.uniform(0.0, center_scale, size=(num_classes, input_dim))\n"
        "    samples = np.empty((num_classes * per_class, input_dim))\n",
        ("tests/test_data.py::TestSynthDataset::test_sample_array_memory_cannot_hold_fails_before_any_draw",),
    ),
    Mutant(
        "synthesis adds the class centres along the wrong axis", "data.py",
        "samples.reshape(num_classes, per_class, input_dim)[...] += centers[:, None, :]",
        "samples.reshape(per_class, num_classes, input_dim)[...] += centers[None, :, :]",
        (
            "tests/test_cli.py::TestSynthData::test_output_bytes_are_pinned",
            "tests/test_data.py::TestSynthDataset::test_matches_the_per_class_reference[shape0]",
        ),
    ),
    Mutant(
        "the C reader's table is compacted in descending row order, over rows not yet moved", "data.py",
        "    for start in range(0, n, step):\n", "    for start in reversed(range(0, n, step)):\n",
        (_FIRST_LOAD, "tests/test_data.py::TestCReaderAgreesWithTheLineParser::test_large_file_takes_the_c_reader"),
    ),
    Mutant(
        "the parse sidecar is written through np.savez, which copies each array whole", "data.py",
        "                _write_npz(fh, version=", "                np.savez(fh, version=",
        (_FIRST_LOAD,),
    ),
    Mutant(
        "the writer's worker count is taken from its 2**13-value blocks, which forks for a small file", "data.py",
        "    workers = min(len(shares), _usable_cpus())", "    workers = min(len(starts), _usable_cpus())",
        (
            "tests/test_evaluation.py::test_small_embeddings_csv_is_written_in_one_process",
            f"{_SAME_TEXT}[module-blocks]",
        ),
    ),
    Mutant(
        "Recall@K skips the band decode whenever n entries are kept", "evaluation.py",
        "    if settled or kept > np.count_nonzero(hit):\n", "    if kept != n:\n",
        (f"{_DECODED}[tie-beside-a-singleton]",),
    ),
    Mutant(
        "the synthetic anchors' and positives' gradient reaches the extractor as the originals'", "training.py",
        "    ext_grads, proj_grads = embed_backward(models.embedder, ext_tapes, proj_tape, w * grad_z_m)\n",
        "    grad_z = w * grad_z_m\n"
        "    if syn_grad is not None:\n"
        "        np.add.at(grad_z, members[: 2 * t], syn_grad[: 2 * t])\n"
        "    ext_grads, proj_grads = embed_backward(models.embedder, ext_tapes, proj_tape, grad_z)\n",
        (
            "tests/test_training.py::TestTrainStep::test_extractor_takes_the_gradient_of_the_original_tuples_alone",
            f"{_PINNED}[triplet]",
            f"{_PINNED}[npair]",
        ),
    ),
    Mutant(
        "a split that shares a class is let through", "data.py",
        "        if overlap.size:\n", "        if False:\n",
        (f"{_SPLIT}::test_split_that_shares_a_class_is_refused",),
    ),
    Mutant(
        "split_zero_shot gives its last train class to test as well", "data.py",
        "np.sort(order[n_train:])", "np.sort(order[n_train - 1 :])",
        (f"{_SPLIT}::test_half_split_counts", f"{_SPLIT}::test_union_covers_all_classes"),
    ),
    Mutant(
        "the pulling coefficient grows as the epoch's average loss falls", "augmentor.py",
        "math.exp(-state.alpha / state.j_avg)", "math.exp(-state.alpha * state.j_avg)",
        (
            "tests/test_augmentor.py::TestPullingLambda::test_monotone_in_average_loss",
            "tests/test_augmentor.py::TestPullingLambda::test_matched_alpha_and_average_give_inverse_e",
        ),
    ),
    Mutant(
        "hardening pulls a negative to lambda * d, inside the reference distance", "augmentor.py",
        "    target = lambda_interp * d + (1.0 - lambda_interp) * d_plus\n", "    target = lambda_interp * d\n",
        (
            "tests/test_augmentor.py::TestAugmentNegative::test_worked_example_on_the_axis",
            "tests/test_augmentor.py::TestAugmentTuples::test_hardening_bounds_hold_per_batch[triplet]",
            "tests/test_augmentor.py::TestAugmentTuples::test_hardening_bounds_hold_per_batch[npair]",
        ),
    ),
    Mutant(
        "the tuple members leave out the triplets' original negatives", "augmentor.py",
        '        negatives = [self.negative_idx] if self.kind == "triplet" else []\n',
        "        negatives = []\n",
        (f"{_SYNTHETIC}[triplet]", f"{_PINNED}[triplet]"),
    ),
    Mutant(
        "the synthetic N-pair negatives index the hardened rows in column-major order", "augmentor.py",
        "2 * t + np.arange(negatives.size).reshape(negatives.shape),",
        "2 * t + np.arange(negatives.size).reshape(negatives.shape[::-1]).T,",
        (f"{_SYNTHETIC}[npair]", f"{_PINNED}[npair]"),
    ),
    Mutant(
        "the synthetic tuples swap their anchors and positives", "augmentor.py",
        "        np.arange(t),\n        t + np.arange(t),\n",
        "        t + np.arange(t),\n        np.arange(t),\n",
        (f"{_SYNTHETIC}[triplet]", f"{_SYNTHETIC}[npair]", f"{_PINNED}[triplet]"),
    ),
]


def occurrences(mutant: Mutant) -> int:
    return (PACKAGE / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def _pytest(src: Path, test_ids) -> int:
    """Exit status of one pytest process over `test_ids`, importing the package from `src`."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *test_ids]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _mutated_copy(mutant: Mutant, scratch: Path) -> Path:
    src = Path(tempfile.mkdtemp(dir=scratch)) / "src"
    shutil.copytree(PACKAGE, src / "hardmetric", ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "hardmetric" / mutant.file
    path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def main() -> int:
    started = time.monotonic()
    misplaced = [m.name for m in MUTANTS if occurrences(m) != 1]
    if misplaced:
        print(f"old text not found exactly once: {misplaced}")
        return 1
    everything = sorted({test for m in MUTANTS for test in m.tests})
    if _pytest(ROOT / "src", everything) != 0:
        print("some listed tests fail on the unchanged tree; a failure under a mutant would prove nothing")
        return 1
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        copies = [_mutated_copy(m, Path(tmp)) for m in MUTANTS]
        # pytest exits 1 when tests ran and some failed, 0 when all passed, otherwise could not run them
        codes = [[pool.submit(_pytest, src, [test]) for test in m.tests] for m, src in zip(MUTANTS, copies)]
        outcomes = []
        for mutant, futures in zip(MUTANTS, codes):
            statuses = [future.result() for future in futures]
            outcome = "killed" if set(statuses) == {1} else "survived" if 0 in statuses else f"error {statuses}"
            outcomes.append(outcome)
            print(f"{outcome:>9}  {mutant.file}: {mutant.name}")
    print(f"{outcomes.count('killed')} of {len(MUTANTS)} killed in {time.monotonic() - started:.1f} s")
    return 0 if outcomes.count("killed") == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
