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
exactly once, so that a refactor carries its rows forward.
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
_RECALL_BLOCKS = f"{_EXACT}AcrossBlocks::test_recall_equals_the_explicit_argsort"
_EXPORT_BYTES = "tests/test_evaluation.py::TestReportAndExport::test_embeddings_csv_matches_the_per_value_formatter"
_RELU_MASK = "tests/test_nn.py::TestDenseBackward::test_relu_mask_through_the_forward_pass_is_pre_greater_than_zero"
_BY_HAND = "test_gradients_equal_dense_backward_chained_by_hand"
_FRAGMENT = "tests/test_verify.py::TestFragments::test_{}_fragment_passes_gradcheck"
_SAME_TEXT = "tests/test_data.py::TestParallelWriter::test_text_is_the_same_for_every_worker_count"
_PIPED_STDOUT = "tests/test_cli.py::TestSynthData::test_workers_leave_a_piped_stdout_alone"
_WORKER_FAILS = "tests/test_data.py::TestParallelWriter::test_failed_worker_is_an_error_and_no_child_is_left"

MUTANTS = [
    Mutant(
        "check_positive lets NaN through", "errors.py",
        "    if not value > 0:", "    if value <= 0:",
        (
            "tests/test_augmentor.py::TestAugmentNegative::test_nonpositive_reference_rejected",
            "tests/test_augmentor.py::TestAugmentTuples::test_nonpositive_or_nan_fixed_reference_rejected[nan]",
            f"{_CONFIG_RANGE}[beta = nan-beta]",
        ),
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
            f"{_EXACT}AcrossBlocks::test_kmeans_equals_the_explicit_assignment[far-blobs-13-row-blocks]",
        ),
    ),
    Mutant(
        "the best-two test leaves the best centre in place", "evaluation.py",
        "                g[local, best] = np.inf\n", "",
        ("tests/test_evaluation.py::test_kmeans_takes_explicit_differences_only_for_rows_near_a_tie",),
    ),
    Mutant(
        "a cluster that stays empty keeps its old centre", "evaluation.py",
        "        stale |= counts == 0\n", "",
        (
            "tests/test_evaluation.py::test_kmeans_reseed_of_an_emptied_cluster_matches_the_reference[empty-for-many-rounds]",
            "tests/test_evaluation.py::test_kmeans_reseed_across_blocks_matches_the_reference[empty-for-many-rounds-5-row-blocks]",
        ),
    ),
    Mutant(
        "the Gram block scales by -2 twice", "evaluation.py",
        "        g += sq_b\n", "        g *= -2.0\n        g += sq_b\n",
        (f"{_RECALL_EXACT}[gaussian]", f"{_EXACT}::test_kmeans_equals_the_explicit_assignment[gaussian]"),
    ),
    Mutant(
        "Recall@K breaks an exact tie by class-order position, not by sample index", "evaluation.py",
        "(dist == nearest[query]) & (order[col] < star[query])", "(dist == nearest[query]) & (col < column[star[query]])",
        (f"{_RECALL_EXACT}[tied-across-labels]", f"{_RECALL_BLOCKS}[tied-across-labels-13-row-blocks]"),
    ),
    Mutant(
        "Recall@K counts from the Gram values alone, with no band left to explicit distances", "evaluation.py",
        "2.0 * slack[hit]", "0.0 * slack[hit]",
        (
            "tests/test_evaluation.py::TestRecallAtK::test_two_tight_pairs",
            f"{_RECALL_EXACT}[large-offset]",
            f"{_RECALL_BLOCKS}[far-blobs-one-row-blocks]",
        ),
    ),
    Mutant(
        "Recall@K scores a query without a same-label point as a hit", "evaluation.py",
        "first_hit = np.full(n, n)", "first_hit = np.zeros(n, dtype=int)",
        (f"{_RECALL_EXACT}[singleton-classes]", f"{_RECALL_BLOCKS}[singleton-classes-13-row-blocks]"),
    ),
    Mutant(
        "Recall@K takes the nearest same-label point from the Gram minimum alone, without the slack", "evaluation.py",
        "least + 2.0 * slack, -np.inf)", "least, -np.inf)",
        (f"{_RECALL_EXACT}[far-blobs]", f"{_RECALL_BLOCKS}[tied-stars-one-row-blocks]"),
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
            f"tests/test_embedder.py::TestEmbedBackward::{_BY_HAND}[plain]",
            f"tests/test_generator.py::TestGeneratorLoss::{_BY_HAND}",
            _FRAGMENT.format("generator"),
        ),
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
