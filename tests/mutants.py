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
        "if self.labels is not labels and not np.array_equal(self.labels, labels):", "if False:",
        ("tests/test_data.py::TestDatasetIO::test_dataset_refuses_labels_the_integer_cast_would_change[fraction]",),
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
        'np.argsort(assign, kind="stable")', "np.argsort(assign)",
        ("tests/test_evaluation.py::test_kmeans_with_k_close_to_n_matches_the_reference",),
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
