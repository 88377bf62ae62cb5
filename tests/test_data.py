import io
import os
import signal
import struct
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from test_evaluation import _traced_peak

from hardmetric import data
from hardmetric.config import parse_config_text
from hardmetric.data import (
    Dataset,
    ZeroShotSplit,
    load_dataset,
    save_dataset,
    split_zero_shot,
    synth_gaussian_dataset,
    take_classes,
)
from hardmetric.errors import ConfigError, DatasetParseError, InputError
from hardmetric.training import TrainConfig


class TestSynthDataset:
    def test_zero_noise_collapses_to_centers(self):
        ds = synth_gaussian_dataset(3, 4, 5, noise_sigma=0.0, seed=1)
        for c in range(3):
            block = ds.samples[ds.labels == c]
            assert np.array_equal(block, np.tile(block[0], (4, 1)))

    def test_same_seed_is_bitwise_identical(self):
        a = synth_gaussian_dataset(4, 10, 6, seed=42)
        b = synth_gaussian_dataset(4, 10, 6, seed=42)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_class_means_near_centers(self):
        # standard-error bound: the per-coordinate sample mean sits within
        # 4 * sigma / sqrt(per_class) of its center for ~99.99% of coordinates
        sigma, per_class = 1.0, 200
        hits = total = 0
        for seed in range(3):
            ds = synth_gaussian_dataset(5, per_class, 16, noise_sigma=sigma, seed=seed)
            centers = synth_gaussian_dataset(5, 1, 16, noise_sigma=0.0, seed=seed).samples
            for c in range(5):
                mean = ds.samples[ds.labels == c].mean(axis=0)
                within = np.abs(mean - centers[c]) <= 4 * sigma / np.sqrt(per_class)
                hits += int(within.sum())
                total += within.size
        assert hits / total >= 0.99

    @pytest.mark.parametrize("shape", [(3, 4, 5), (7, 1, 9), (20, 100, 512)])
    def test_matches_the_per_class_reference(self, shape):
        # reference: one noise draw per class, added to that class's centre
        num_classes, per_class, dim = shape
        ds = synth_gaussian_dataset(num_classes, per_class, dim, center_scale=4.0, noise_sigma=2.5, seed=9)
        rng = np.random.default_rng(9)
        centers = rng.uniform(0.0, 4.0, size=(num_classes, dim))
        expected = np.vstack([centers[c] + rng.normal(0.0, 2.5, size=(per_class, dim)) for c in range(num_classes)])
        assert np.array_equal(ds.samples, expected)
        assert ds.labels.tolist() == [c for c in range(num_classes) for _ in range(per_class)]

    def test_sample_array_memory_cannot_hold_fails_before_any_draw(self):
        # 2**54 rows of 8 dims is 1 EiB, within a 64-bit address space; drawing its centres first holds 64 MiB.
        # numpy traces the refused request and keeps it traced, so the bound is on the peak above what stays traced
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError):
                synth_gaussian_dataset(2**20, 2**34, 8)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current <= 2**20

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            synth_gaussian_dataset(0, 5, 3)
        with pytest.raises(InputError):
            synth_gaussian_dataset(3, 5, 3, noise_sigma=-1.0)

    @pytest.mark.parametrize("shape", [(1, 2**58, 8), (2, 2, 10**20)], ids=["2**64-bytes", "dim-beyond-int64"])
    def test_samples_beyond_a_64_bit_address_space_refused(self, shape):
        with pytest.raises(InputError, match="samples of shape .* does not fit in a 64-bit address space"):
            synth_gaussian_dataset(*shape)

    def test_memory_is_the_sample_array_alone(self):
        # a repeated-centre copy and a separate sum array would hold two arrays more (15.8 MiB)
        samples = synth_gaussian_dataset(40, 50, 512).samples
        assert _traced_peak(lambda: synth_gaussian_dataset(40, 50, 512)) <= samples.nbytes + 2**20


class TestZeroShotSplit:
    def test_half_split_counts(self):
        ds = synth_gaussian_dataset(20, 2, 3, seed=0)
        split = split_zero_shot(ds, 0.5, seed=5)
        assert len(split.train_classes) == 10
        assert len(split.test_classes) == 10
        assert not set(split.train_classes.tolist()) & set(split.test_classes.tolist())

    def test_fraction_boundaries_rejected(self):
        ds = synth_gaussian_dataset(4, 2, 3, seed=0)
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(InputError):
                split_zero_shot(ds, bad, seed=0)

    def test_negative_seed_rejected(self):
        ds = synth_gaussian_dataset(4, 2, 3, seed=0)
        with pytest.raises(InputError, match="split seed must be nonnegative, got -1"):
            split_zero_shot(ds, 0.5, seed=-1)

    def test_fraction_that_leaves_no_test_classes(self):
        ds = synth_gaussian_dataset(4, 2, 3, seed=0)
        with pytest.raises(InputError):
            split_zero_shot(ds, 0.99, seed=0)

    def test_no_test_sample_class_in_train(self):
        ds = synth_gaussian_dataset(11, 3, 4, seed=3)
        split = split_zero_shot(ds, 0.6, seed=9)
        train_x, train_labels = take_classes(ds, split.train_classes)
        test_x, test_labels = take_classes(ds, split.test_classes)
        assert not set(test_labels.tolist()) & set(train_labels.tolist())
        assert len(train_x) + len(test_x) == ds.num_samples

    def test_split_that_shares_a_class_is_refused(self):
        with pytest.raises(InputError, match=r"split is not class-disjoint; shared classes \[1\]"):
            ZeroShotSplit([0, 1], [1, 2])

    def test_union_covers_all_classes(self):
        ds = synth_gaussian_dataset(7, 2, 3, seed=0)
        split = split_zero_shot(ds, 0.4, seed=1)
        covered = set(split.train_classes.tolist()) | set(split.test_classes.tolist())
        assert covered == set(range(7))

    @pytest.mark.parametrize(
        "train, test, side",
        [([0.5, 1.2], [2.9], "train_classes"), ([0, 1], [2.5], "test_classes"), ([0, np.nan], [2], "train_classes")],
        ids=["fractional-train", "fractional-test", "nan-train"],
    )
    def test_split_refuses_classes_the_integer_cast_would_change(self, train, test, side):
        # cast to int64, the first would read [0, 1] / [2]
        with pytest.raises(InputError, match=f"{side} must be integers"):
            ZeroShotSplit(train, test)

    def test_split_keeps_integral_float_classes(self):
        split = ZeroShotSplit([0.0, 3.0], [1.0])
        assert split.train_classes.dtype == np.int64 and split.train_classes.tolist() == [0, 3]


class TestDatasetIO:
    def test_round_trip_is_lossless(self, tmp_path):
        ds = synth_gaussian_dataset(3, 5, 4, seed=11)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.samples, ds.samples)
        assert np.array_equal(loaded.labels, ds.labels)

    @pytest.mark.parametrize("block", [None, 15], ids=["one-block", "blocks-of-3-3-1-rows"])
    def test_writer_matches_the_per_value_formatter(self, tmp_path, monkeypatch, block):
        # reference: repr of each numpy value converted to float one at a time
        row = [-0.0, 5e-324, 1e-300, 0.1, 1e16]
        ds = Dataset(np.array([np.roll(row, i) for i in range(7)]), np.array([1, 0, 3, 2, 5, 4, 6]))
        if block:
            _blocks_of(monkeypatch, block)
        save_dataset(ds, tmp_path / "data.csv")
        expected = "label,f_0,f_1,f_2,f_3,f_4\n" + "".join(
            f"{label}," + ",".join(repr(float(v)) for v in values) + "\n" for label, values in zip(ds.labels, ds.samples)
        )
        assert (tmp_path / "data.csv").read_bytes() == expected.encode("utf-8")

    def test_writer_memory_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        # the dataset of the cli-roundtrip benchmark: formatting all rows at once holds 31.4 MiB, blocks of
        # 2**16 values 3.2 MiB. One CPU, so that this process formats every block; tracemalloc does not see
        # forked workers
        monkeypatch.setattr(data, "_usable_cpus", lambda: 1)
        ds = synth_gaussian_dataset(40, 50, 512, noise_sigma=3.0)
        assert _traced_peak(lambda: save_dataset(ds, tmp_path / "data.csv")) <= 2**20

    def test_writer_memory_of_the_parent_does_not_grow_on_the_forked_path(self, tmp_path, monkeypatch):
        # the parent formats every other block and writes the rest as its worker sends them
        monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
        ds = synth_gaussian_dataset(40, 50, 512, noise_sigma=3.0)
        assert _traced_peak(lambda: save_dataset(ds, tmp_path / "data.csv")) <= 2**20

    def test_cli_roundtrip_dataset_forks_one_child_on_two_cpus(self, monkeypatch):
        # 1,024,000 values: 16 blocks of 2**16 values, so W = min(16, 2)
        monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
        children = _counted_forks(monkeypatch)
        ds = synth_gaussian_dataset(40, 50, 512, noise_sigma=3.0)
        data.write_rows(io.BytesIO(), [ds.labels], ds.samples)
        assert len(children) == 1

    def test_first_load_holds_the_samples_once(self, tmp_path):
        # the C reader's table is compacted in its own buffer and the sidecar is written from the arrays: a
        # contiguous copy of the features and a `tobytes` copy for the sidecar peaked at 2.01x the samples
        ds = synth_gaussian_dataset(40, 50, 512, noise_sigma=3.0)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        loaded = {}
        peak = _traced_peak(lambda: loaded.update(ds=load_dataset(path)))
        assert _sidecar(path).is_file()
        assert peak <= 1.3 * ds.samples.nbytes
        assert np.array_equal(loaded["ds"].samples.view(np.int64), ds.samples.view(np.int64))
        assert np.array_equal(loaded["ds"].labels, ds.labels)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f_0,f_1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DatasetParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 3

    def test_empty_file_reports_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetParseError, match="no header"):
            load_dataset(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("class,x_0\n0,1.0\n")
        with pytest.raises(DatasetParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 1

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("label,f_0\n0,1.0\n0,abc\n")
        with pytest.raises(DatasetParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"label,f_0,f_1\n0,1.0,2.0\n\n1,3.0,{value}\n")
        with pytest.raises(DatasetParseError, match="non-finite") as exc:
            load_dataset(path)
        assert exc.value.line == 4

    def test_sparse_labels_rejected(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("label,f_0\n0,1.0\n2,2.0\n")
        with pytest.raises(DatasetParseError):
            load_dataset(path)

    def test_dataset_requires_dense_labels(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 3)), [0, 2])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "labels",
        [[0.0, 1.5, 1.9], [0.0, 1.0, np.nan], [0.0, 1.0, 1e20], [0, 1, 2**70]],
        ids=["fraction", "nan", "beyond-int64", "python-int-beyond-int64"],
    )
    def test_dataset_refuses_labels_the_integer_cast_would_change(self, labels):
        # cast to int64, the first would read [0, 1, 1]: two classes
        with pytest.raises(InputError, match="labels must be integers"):
            Dataset(np.zeros((3, 2)), labels)

    def test_dataset_accepts_whole_float_labels(self):
        ds = Dataset(np.zeros((3, 2)), [0.0, 1.0, 2.0])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_dataset_requires_finite_samples(self, value):
        samples = np.zeros((2, 3))
        samples[1, 2] = value
        with pytest.raises(InputError, match="samples must be finite"):
            Dataset(samples, [0, 1])

    @pytest.mark.filterwarnings("error")
    def test_dataset_accepts_finite_samples_whose_sum_overflows(self):
        assert Dataset(np.full((2, 1), 1e308), [0, 1]).num_samples == 2


HEADER = "label,f_0,f_1\n"
# decimals that are hard to round: the smallest normal and subnormal and their
# neighbours, halfway cases, the float64 limits and a 401-digit mantissa
HARD_DECIMALS = [
    "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
    "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1.7976931348623157e308", "1.7976931348623158e308", "9007199254740993", "9007199254740992.5",
    "0.1", "1e23", "8.98846567431158e307", "5e-324", "7.2057594037927933e16",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "9007199254740993" + "0" * 384 + "1e-400",
]


_INT64 = np.iinfo(np.int64)
_BLOCK_ROWS_512 = 2**16 // 512  # rows of 512 values in one block
_SMALL_BLOCK = 2**12  # 8 rows of 512 values, 77 kB of text: more than a pipe holds


def _blocks_of(monkeypatch, values):
    """Formats blocks of `values` values and lets each block have a worker of its own."""
    monkeypatch.setattr(data, "_WRITE_BLOCK", values)
    monkeypatch.setattr(data, "_WORKER_VALUES", values)


def _counted_forks(monkeypatch) -> list:
    """The pids of the children `os.fork` starts from this process, as it starts them."""
    children, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return children


def _writer_input(rows, dim):
    keys = [np.resize([_INT64.min, _INT64.max, 0, -1], rows), np.resize([_INT64.max, -1, _INT64.min, 7], rows)]
    values = np.resize([-0.0, 5e-324, 1e308, 0.1, -2.5], (rows, dim))
    return keys, values


def _written(monkeypatch, workers, rows, dim, block) -> tuple[bytes, int]:
    """The bytes written on `workers` usable CPUs (None: without os.fork), and the children forked;
    with blocks of `block` values, each its own worker's, or with the module's blocks for None."""
    with monkeypatch.context() as patch:
        if block:
            _blocks_of(patch, block)
        if workers is None:  # a platform without os.fork
            patch.delattr(os, "fork")
            children = []
        else:
            patch.setattr(data, "_usable_cpus", lambda: workers)
            children = _counted_forks(patch)
        fh = io.BytesIO()
        data.write_rows(fh, *_writer_input(rows, dim))
        return fh.getvalue(), len(children)


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _failing_in_the_last_worker(monkeypatch, workers, failure):
    """Forces `workers` workers and makes the block formatter fail in the last one only."""
    monkeypatch.setattr(data, "_usable_cpus", lambda: workers)
    parent, format_block = os.getpid(), data._format_block

    def format_or_fail(keys, values, start, rows):
        if os.getpid() != parent and start // rows % workers == workers - 1:
            failure()
        return format_block(keys, values, start, rows)

    monkeypatch.setattr(data, "_format_block", format_or_fail)


def _raise(exc):
    def fail():
        raise exc
    return fail


class _FailingFile(io.BytesIO):
    def __init__(self, good_writes):
        super().__init__()
        self.good_writes = good_writes

    def write(self, text):
        if self.good_writes == 0:
            raise OSError(28, "No space left on device")
        self.good_writes -= 1
        return super().write(text)


@pytest.fixture()
def deadline():
    """Fails a test that runs for a minute: a writer that deadlocks on its pipes would hang the run."""
    def expire(signum, frame):
        raise TimeoutError("the writer ran for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks only where os.fork exists")
@pytest.mark.usefixtures("deadline")
class TestParallelWriter:
    @pytest.mark.parametrize(
        "rows, dim, block",
        [
            (1, 5, 2**16),
            (_BLOCK_ROWS_512, 512, 2**16),
            (_BLOCK_ROWS_512 + 1, 512, 2**16),
            (16 * _SMALL_BLOCK // 512, 512, _SMALL_BLOCK),
            (2 * _SMALL_BLOCK + 3, 1, _SMALL_BLOCK),
            # the module's blocks: 9 blocks of 16 rows over 2 blocks of 2**16 values, so W is at most 2
            (_BLOCK_ROWS_512 + 8, 512, None),
        ],
        ids=["one-row", "one-block", "one-block-and-a-row", "16-blocks", "dim-1", "module-blocks"],
    )
    def test_text_is_the_same_for_every_worker_count(self, monkeypatch, rows, dim, block):
        expected, _ = _written(monkeypatch, 1, rows, dim, block)
        assert expected.count(b"\n") == rows
        assert expected.startswith(b"-9223372036854775808,9223372036854775807,-0.0")
        shares = -(-rows // max(1, (block or data._WORKER_VALUES) // dim))
        for workers in (None, 2, 3, 4):
            text, children = _written(monkeypatch, workers, rows, dim, block)
            same = text == expected  # outside the assert: no long diff
            assert same, f"{workers} workers"
            assert children == (min(workers, shares) - 1 if workers else 0), f"{workers} workers"
        assert _no_child_left()

    def test_no_child_is_left_when_the_file_write_fails(self, monkeypatch):
        # each block fills a pipe, so the workers are blocked on a write when the parent stops
        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        _blocks_of(monkeypatch, _SMALL_BLOCK)
        with pytest.raises(OSError, match="No space left on device"):
            data.write_rows(_FailingFile(good_writes=4), *_writer_input(16 * _SMALL_BLOCK // 512, 512))
        assert _no_child_left()

    @pytest.mark.parametrize(
        "failure, error, message",
        [
            (_raise(MemoryError()), MemoryError, r"CSV formatting worker \d+ ran out of memory"),
            (_raise(ValueError("boom")), ChildProcessError, r"worker \d+ exited with status 1 before it sent all its rows"),
            (lambda: os.kill(os.getpid(), 9), ChildProcessError, r"worker \d+ was killed by signal 9"),
        ],
        ids=["out-of-memory", "exception", "killed"],
    )
    def test_failed_worker_is_an_error_and_no_child_is_left(self, monkeypatch, failure, error, message):
        # worker 1 runs on until the parent stops reading; the error is worker 2's
        _blocks_of(monkeypatch, _SMALL_BLOCK)
        _failing_in_the_last_worker(monkeypatch, 3, failure)
        with pytest.raises(error, match=message):
            data.write_rows(io.BytesIO(), *_writer_input(16 * _SMALL_BLOCK // 512, 512))
        assert _no_child_left()


def _random_decimals():
    values = np.random.default_rng(5).standard_normal(60) * 10.0 ** np.arange(-30, 30)
    return [f"{v:.{digits}e}" for v in values for digits in (14, 16, 24)]


def _rows(values):
    return "".join(f"{i % 2},{a},{b}\n" for i, (a, b) in enumerate(zip(values[::2], values[1::2])))


def _edge(label="1", value="2.5"):
    return HEADER + "0,0.5,1.5\n" + f"{label},{value},-1.0\n"


# each file either loads identically through both readers or fails identically
EDGE_FILES = {
    "label-3.0": _edge(label="3.0"),
    "label-3e0": _edge(label="3e0"),
    "label-underscore": _edge(label="1_0"),
    "label-fullwidth-3": _edge(label="\uff13"),
    "label-fullwidth-1": _edge(label="\uff11"),
    "label-beyond-int64": _edge(label="99999999999999999999"),
    "label-int64-max": _edge(label="9223372036854775807"),
    "label-negative": _edge(label="-1"),
    "label-signed": _edge(label="+1"),
    "value-underscore": _edge(value="1_000"),
    "value-hex": _edge(value="0x10"),
    "value-nan-payload": _edge(value="nan(123)"),
    "value-arabic-indic": _edge(value="\u0661"),
    "value-overflow": _edge(value="1e400"),
    "value-nan": _edge(value="nan"),
    "value-blank": _edge(value=" "),
    "value-empty": _edge(value=""),
    "value-padded": _edge(value="\t 2.5\u00a0"),
    "value-negative-zero": _edge(value="-0.0"),
    "trailing-comma": HEADER + "0,0.5,1.5,\n",
    "short-row": HEADER + "0,0.5,1.5\n1,2.5\n",
    "whitespace-only-line": HEADER + "0,0.5,1.5\n  \t\n1,2.5,-1.0\n",
    "blank-line": HEADER + "0,0.5,1.5\n\n1,2.5,-1.0\n",
    "no-final-newline": HEADER + "0,0.5,1.5\n1,2.5,-1.0",
    "crlf": (HEADER + "0,0.5,1.5\n1,2.5,-1.0\n").replace("\n", "\r\n"),
    "cr": (HEADER + "0,0.5,1.5\n1,2.5,-1.0\n").replace("\n", "\r"),
    "header-only": HEADER,
    "header-without-newline": HEADER.rstrip("\n"),
    "empty": "",
    "unknown-header": "label,f_1,f_0\n0,0.5,1.5\n",
    "header-with-space": "label,f_0,f_1 \n0,0.5,1.5\n",
    "sparse-labels": HEADER + "0,0.5,1.5\n2,2.5,-1.0\n",
    # `str.splitlines` breaks lines at these, the C reader does not
    **{f"separator-{ord(c):x}-in-row": HEADER + f"0,0.5{c},1.5\n" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"},
    "vertical-tab-ends-row": HEADER + "0,0.5,1.5\x0b\n1,2.5,-1.0\n",
    "line-separator-splits-row": HEADER + "0,0.5,1.5\u20281,2.5,-1.0\n",
    "form-feed-in-header": "label,f_0\x0c,f_1\n0,0.5,1.5\n",
    "hard-rounding": HEADER + _rows(HARD_DECIMALS),
    "random-14-16-24-digits": HEADER + _rows(_random_decimals()),
}


# the edge files that numpy's C reader loads; each other one goes to the line parser, which loads or refuses it
C_READER_FILES = (
    "label-signed", "value-padded", "value-negative-zero", "blank-line", "no-final-newline", "crlf", "cr",
    "hard-rounding", "random-14-16-24-digits",
)


def _line_parser(path):
    """The line parser on the file's text: the reference every load must match."""
    with open(path, encoding="utf-8") as fh:
        return data._load_lines(fh)


def _outcome(load, path):
    try:
        ds = load(path)
    except DatasetParseError as exc:
        return "refused", str(exc), exc.line
    contiguous = ds.samples.flags.c_contiguous and ds.labels.flags.c_contiguous
    return "loaded", ds.samples.dtype, ds.labels.dtype, contiguous, ds.samples.view(np.int64).tolist(), ds.labels.tolist()


class TestCReaderAgreesWithTheLineParser:
    @pytest.mark.parametrize("name", list(EDGE_FILES))
    def test_same_arrays_or_same_error(self, tmp_path, name):
        path = tmp_path / "edge.csv"
        path.write_bytes(EDGE_FILES[name].encode("utf-8"))
        assert _outcome(load_dataset, path) == _outcome(_line_parser, path)

    def test_table_holds_both_outcomes(self, tmp_path):
        # the table must hold both outcomes, or it shows nothing
        path = tmp_path / "edge.csv"
        loaded = []
        for name, text in EDGE_FILES.items():
            path.write_bytes(text.encode("utf-8"))
            loaded.append(_outcome(load_dataset, path)[0] == "loaded")
        assert 10 <= sum(loaded) <= len(loaded) - 10

    def test_each_file_takes_the_reader_it_took_before(self, tmp_path, monkeypatch):
        # a change that sends these files to the line parser loads the same arrays, so only a spy shows it
        served_by_line_parser = []
        line_parser = data._load_lines

        def spy(fh):
            served_by_line_parser.append(True)
            return line_parser(fh)

        monkeypatch.setattr(data, "_load_lines", spy)
        c_reader = []
        for i, (name, text) in enumerate(EDGE_FILES.items()):
            path = tmp_path / str(i) / "edge.csv"  # a fresh directory: no sidecar
            path.parent.mkdir()
            path.write_bytes(text.encode("utf-8"))
            served_by_line_parser.clear()
            if _outcome(load_dataset, path)[0] == "loaded" and not served_by_line_parser:
                c_reader.append(name)
        assert c_reader == list(C_READER_FILES)

    def test_large_file_takes_the_c_reader(self, tmp_path, monkeypatch):
        ds = synth_gaussian_dataset(40, 50, 512, seed=4)
        path = tmp_path / "large.csv"
        save_dataset(ds, path)

        def refuse(path):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(data, "_load_lines", refuse)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.samples.view(np.int64), ds.samples.view(np.int64))
        assert np.array_equal(loaded.labels, ds.labels) and loaded.labels.dtype == np.int64
        assert loaded.samples.flags.c_contiguous and loaded.labels.flags.c_contiguous


def _sidecar(path) -> Path:
    return Path(f"{path}.parsed.npz")


def _refuse(*args, **kwargs):
    raise AssertionError("parsed the CSV")


def _parse_refused(monkeypatch):
    monkeypatch.setattr(np, "loadtxt", _refuse)
    monkeypatch.setattr(data, "_load_lines", _refuse)


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _zip_method(path, method):
    raw = bytearray(_sidecar(path).read_bytes())
    at = raw.find(b"PK\x01\x02")  # a central directory entry; its compression method is at offset 10
    while at >= 0:
        struct.pack_into("<H", raw, at + 10, method)
        at = raw.find(b"PK\x01\x02", at + 1)
    _sidecar(path).write_bytes(bytes(raw))


def _sidecar_arrays(path) -> dict:
    with np.load(_sidecar(path)) as npz:
        return {key: (npz[key].dtype.str, npz[key].shape, npz[key].tobytes()) for key in npz}


def _rewrite_sidecar(path, **arrays):
    with np.load(_sidecar(path)) as npz:
        np.savez(_sidecar(path), **{**npz, **arrays})


# each entry damages the sidecar of a two-row CSV in one way
DAMAGED_SIDECARS = {
    "truncated": lambda path: _sidecar(path).write_bytes(_sidecar(path).read_bytes()[:300]),
    "not-a-zip": lambda path: _sidecar(path).write_bytes(b"label,f_0,f_1\n"),
    "npy-not-npz": lambda path: _sidecar(path).write_bytes(_npy(np.zeros((2, 2)))),
    "empty": lambda path: _sidecar(path).write_bytes(b""),
    "unknown-zip-method": lambda path: _zip_method(path, 99),
    "missing-key": lambda path: np.savez(_sidecar(path), version=1, samples=np.zeros((2, 2))),
    "wrong-digest": lambda path: _rewrite_sidecar(path, digest="0" * 64),
    "wrong-version": lambda path: _rewrite_sidecar(path, version=2),
    "nan-in-samples": lambda path: _rewrite_sidecar(path, samples=np.array([[0.5, 1.5], [np.nan, -1.0]])),
    "narrower-than-header": lambda path: _rewrite_sidecar(path, samples=np.array([[0.5], [2.5]])),
    "float32-samples": lambda path: _rewrite_sidecar(path, samples=np.array([[0.5, 1.5], [2.5, -1.0]], np.float32)),
    "int32-labels": lambda path: _rewrite_sidecar(path, labels=np.array([0, 1], np.int32)),
    "non-dense-labels": lambda path: _rewrite_sidecar(path, labels=np.array([0, 2])),
    "labels-too-short": lambda path: _rewrite_sidecar(path, labels=np.array([0])),
    "object-labels": lambda path: _rewrite_sidecar(path, labels=np.array([0, 1], dtype=object)),
}


class TestParsedSidecar:
    """`load_dataset` keeps a regular file's parse in `<csv>.parsed.npz`, keyed by the bytes."""

    def test_second_load_reads_the_sidecar_bitwise(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        save_dataset(Dataset(np.array([[-0.0, 5e-324, 0.1], [1e308, -2.5, 3.0]]), [1, 0]), path)
        first = load_dataset(path)
        assert _sidecar(path).is_file()
        _parse_refused(monkeypatch)
        second = load_dataset(path)
        assert second.samples.dtype == np.float64 and second.labels.dtype == np.int64
        assert second.samples.flags.c_contiguous and second.labels.flags.c_contiguous
        assert np.array_equal(second.samples.view(np.int64), first.samples.view(np.int64))
        assert np.array_equal(second.labels, first.labels)

    def test_sidecar_holds_the_bytes_np_savez_writes(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(Dataset(np.array([[-0.0, 5e-324, 0.1], [1e308, -2.5, 3.0]]), [1, 0]), path)
        loaded = load_dataset(path)
        with np.load(_sidecar(path)) as npz:
            members = {key: (npz[key].dtype.str, npz[key].shape) for key in npz}
        assert members == {"version": ("<i8", ()), "digest": ("<U64", ()), "samples": ("<f8", (2, 3)), "labels": ("<i8", (2,))}
        written = io.BytesIO()
        np.savez(written, version=1, digest=data._sha256(path), samples=loaded.samples, labels=loaded.labels)
        assert _sidecar(path).read_bytes() == written.getvalue()

    def test_sidecar_written_by_np_savez_is_read_bitwise(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        ds = Dataset(np.array([[-0.0, 5e-324, 0.1], [1e308, -2.5, 3.0]]), [1, 0])
        save_dataset(ds, path)
        np.savez(_sidecar(path), version=1, digest=data._sha256(path), samples=ds.samples, labels=ds.labels)
        _parse_refused(monkeypatch)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.samples.view(np.int64), ds.samples.view(np.int64))
        assert np.array_equal(loaded.labels, ds.labels)

    def test_edit_in_place_with_the_same_size_and_mtime_is_read(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text(_edge())
        assert load_dataset(path).samples[1, 0] == 2.5
        before = os.stat(path)
        path.write_text(_edge(value="3.5"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size
        assert load_dataset(path).samples[1, 0] == 3.5
        _parse_refused(monkeypatch)
        assert load_dataset(path).samples[1, 0] == 3.5

    @pytest.mark.filterwarnings("error")  # a file left open on a damaged zip warns
    @pytest.mark.parametrize("damage", list(DAMAGED_SIDECARS))
    def test_damaged_sidecar_is_parsed_again_and_rewritten(self, tmp_path, monkeypatch, damage):
        path = tmp_path / "data.csv"
        path.write_text(_edge())
        parsed = _outcome(load_dataset, path)
        written = _sidecar_arrays(path)
        DAMAGED_SIDECARS[damage](path)
        assert _outcome(load_dataset, path) == parsed
        assert _sidecar_arrays(path) == written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.csv.parsed.npz"]
        _parse_refused(monkeypatch)
        assert _outcome(load_dataset, path) == parsed

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text(_edge())

        def fail(src, dst):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(os, "replace", fail)
        assert _outcome(load_dataset, path) == _outcome(_line_parser, path)
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    def test_sidecar_that_is_a_directory_is_left_alone(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(_edge())
        _sidecar(path).mkdir()
        for _ in range(2):
            assert _outcome(load_dataset, path) == _outcome(_line_parser, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.csv.parsed.npz"]
        assert _sidecar(path).is_dir() and not any(_sidecar(path).iterdir())

    def test_refused_file_gets_no_sidecar(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(_edge(value="nan"))
        with pytest.raises(DatasetParseError, match="non-finite"):
            load_dataset(path)
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    def test_file_that_changes_during_the_parse_gets_no_sidecar(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text(_edge())
        parse = data._parse_csv

        def parse_then_edit(p):
            dataset = parse(p)
            path.write_text(_edge(value="3.5"))
            return dataset

        monkeypatch.setattr(data, "_parse_csv", parse_then_edit)
        assert load_dataset(path).samples[1, 0] == 2.5
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_fifo_is_read_once_without_a_sidecar(self, tmp_path):
        path = tmp_path / "data.fifo"
        os.mkfifo(path)
        loaded = []
        writer = threading.Thread(target=path.write_text, args=(_edge(),), daemon=True)
        reader = threading.Thread(target=lambda: loaded.append(load_dataset(path)), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=10)
        writer.join(timeout=10)
        assert not reader.is_alive() and not writer.is_alive(), "load_dataset hung on a FIFO"
        assert loaded[0].samples.tolist() == [[0.5, 1.5], [2.5, -1.0]]
        assert [p.name for p in tmp_path.iterdir()] == ["data.fifo"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_fifo_the_c_reader_refuses_is_parsed_from_the_same_read(self, tmp_path):
        path = tmp_path / "bad.fifo"
        os.mkfifo(path)
        raised = []

        def load():
            with pytest.raises(DatasetParseError) as info:
                load_dataset(path)
            raised.append(info.value)

        writer = threading.Thread(target=path.write_text, args=("label,f_0\n0,1.0\n1,abc\n",), daemon=True)
        reader = threading.Thread(target=load, daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=10)
        writer.join(timeout=10)
        assert not reader.is_alive() and not writer.is_alive(), "load_dataset hung on a FIFO"
        assert raised[0].line == 3 and "abc" in str(raised[0])

    def test_edge_table_loads_the_same_twice_at_one_path(self, tmp_path, monkeypatch):
        path = tmp_path / "edge.csv"
        for name, text in EDGE_FILES.items():
            path.write_bytes(text.encode("utf-8"))
            first = _outcome(load_dataset, path)
            with monkeypatch.context() as patch:
                if first[0] == "loaded":  # the second load reads the sidecar
                    _parse_refused(patch)
                assert _outcome(load_dataset, path) == first, name


class TestConfigParsing:
    def test_full_config_round_trip(self):
        text = """
        # benchmark run
        loss_kind = npair
        alpha = 90
        beta = 10000
        lambda_balance = 0.5
        margin = 1.0
        npair_n = 4
        batch_size = 16
        epochs = 3
        learning_rate = 0.001
        fc_lr_multiplier = 10
        seed = 7
        embed_dim = 32
        eval_every = 2
        hidden_dims = 128,128
        generator_hidden_dim = none
        train_fraction = 0.5
        split_seed = 3
        synthetics = true
        recall_ks = 1,2,4,8
        """
        config = parse_config_text(text)
        assert config.loss_kind == "npair"
        assert config.alpha == 90.0
        assert config.hidden_dims == (128, 128)
        assert config.generator_hidden_dim is None
        assert config.recall_ks == (1, 2, 4, 8)

    def test_unknown_key_fails_fast(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("learning_rat = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_bad_value_reports_key_and_line(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config_text("epochs = soon\n")

    def test_invalid_field_value_becomes_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("learning_rate = -1\n")

    @pytest.mark.parametrize(
        "line, named",
        [
            ("generator_hidden_dim = -1", "generator_hidden_dim"),
            ("generator_hidden_dim = 0", "generator_hidden_dim"),
            ("recall_ks = 0", "recall_ks"),
            ("recall_ks = 1,0,4", "recall_ks"),
            ("eval_every = -1", "eval_every"),
            ("margin = -1", "margin"),
            ("npair_n = 1", "npair_n"),
            # a removed setting is refused by name whatever its value, as an unknown key
            ("fixed_reference_distance = 0", "fixed_reference_distance"),
            ("fixed_reference_distance = -1", "fixed_reference_distance"),
            ("fixed_reference_distance = nan", "fixed_reference_distance"),
            ("loss_kind = contrastive", "loss_kind must be 'triplet' or 'npair', got 'contrastive'"),
            ("alpha = -1", "alpha must be nonnegative"),
            ("beta = 0", "beta must be positive"),
            ("lambda_balance = -1", "lambda_balance must be nonnegative"),
            ("learning_rate = 0", "learning_rate must be positive"),
            ("fc_lr_multiplier = 0", "fc_lr_multiplier must be positive"),
            ("embed_dim = 0", "embed_dim must be positive"),
            ("batch_size = 1", "batch_size must be at least 2, got 1"),
            ("epochs = -1", "epochs must be nonnegative"),
            ("hidden_dims = 8,0", "hidden_dims must be positive, got 0"),
            ("alpha = nan", "alpha"),
            ("beta = nan", "beta"),
            ("lambda_balance = nan", "lambda_balance"),
            ("margin = nan", "margin"),
            ("learning_rate = nan", "learning_rate"),
            ("fc_lr_multiplier = nan", "fc_lr_multiplier"),
            ("train_fraction = 1.5", "train_fraction"),
            ("train_fraction = 0", "train_fraction"),
            ("train_fraction = nan", "train_fraction"),
            # the parser makes integers, so these reach only a library caller's TrainConfig
            pytest.param({"epochs": 2.5}, "epochs must be an integer, got 2.5", id="epochs=2.5"),
            pytest.param({"epochs": True}, "epochs must be an integer, got True", id="epochs=True"),
            pytest.param({"batch_size": 16.0}, "batch_size must be an integer", id="batch_size=16.0"),
            pytest.param({"npair_n": 2.5}, "npair_n must be an integer", id="npair_n=2.5"),
            pytest.param({"embed_dim": 8.0}, "embed_dim must be an integer", id="embed_dim=8.0"),
            pytest.param({"eval_every": 0.5}, "eval_every must be an integer", id="eval_every=0.5"),
            pytest.param({"seed": 1.5}, "seed must be an integer", id="seed=1.5"),
            pytest.param({"split_seed": False}, "split_seed must be an integer", id="split_seed=False"),
            pytest.param({"hidden_dims": (8, 2.5)}, "hidden_dims must be an integer, got 2.5", id="hidden_dims=8,2.5"),
            pytest.param({"generator_hidden_dim": 4.0}, "generator_hidden_dim must be an integer", id="generator_hidden_dim=4.0"),
            pytest.param({"recall_ks": (1, 1.5)}, "recall_ks must be integers", id="recall_ks=1,1.5"),
        ],
    )
    def test_out_of_range_value_names_its_key(self, line, named):
        if isinstance(line, dict):
            with pytest.raises(InputError, match=named):
                TrainConfig(**line)
        else:
            with pytest.raises(ConfigError, match=named):
                parse_config_text(line + "\n")

    def test_defaults_apply_for_missing_keys(self):
        config = parse_config_text("seed = 3\n")
        assert config.seed == 3
        assert config.loss_kind == "triplet"

    def test_inline_comments_are_ignored(self):
        config = parse_config_text("seed = 3   # the run seed\nhidden_dims = 8,8 # widths\n")
        assert config.seed == 3 and config.hidden_dims == (8, 8)

    def test_readme_config_block_lists_every_field_with_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file", 1)[1]
        block = section.split("```", 2)[1]
        keys = [line.partition("=")[0].strip() for line in block.splitlines() if "=" in line]
        assert keys == [f.name for f in fields(TrainConfig)]
        assert parse_config_text(block) == TrainConfig()
