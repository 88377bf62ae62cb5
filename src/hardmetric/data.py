"""Synthetic benchmark data, class-disjoint splitting, and CSV persistence.

The on-disk dataset contract is a UTF-8 CSV with header
`label,f_0,...,f_{d-1}` and one sample per row. Values are written as
shortest round-trip decimals, so save/load is lossless for 64-bit floats.
`write_rows`, the one CSV writer, writes UTF-8 bytes with `\n` line ends to a
binary file, formatting small blocks of rows in one process per usable CPU
(forked children besides the caller; the caller alone without `os.fork`, or for
a small file). Nothing sets that number, and the bytes are those of one process.
Each dataset-file operation holds the samples once: the C reader's parse is
compacted in its own buffer, and the parse sidecar is written from the arrays.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import threading
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import DatasetParseError, InputError, check_nonnegative, check_positive
from .nn import as_int64, as_matrix, check_addressable


@dataclass
class Dataset:
    """Finite sample matrix plus dense integer class labels in [0, num_classes)."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.samples = as_matrix(self.samples, "samples")
        # a finite sum proves every sample finite without the (n, d) mask, which cost 5 MB of peak RSS in `cli-roundtrip`
        with np.errstate(over="ignore", invalid="ignore"):  # finite samples can sum past the float range
            finite = np.isfinite(self.samples.sum()) or np.isfinite(self.samples).all()
        if not finite:
            raise InputError("samples must be finite")
        self.labels = as_int64(self.labels, "labels")
        if self.labels.shape != (self.samples.shape[0],):
            raise InputError(
                f"labels shape {self.labels.shape} does not match {self.samples.shape[0]} samples"
            )
        if self.labels.size == 0:
            raise InputError("dataset must contain at least one sample")
        present = np.unique(self.labels)
        if present[0] != 0 or present[-1] != len(present) - 1:
            raise InputError("labels must be dense integers starting at 0")

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def input_dim(self) -> int:
        return self.samples.shape[1]


def synth_gaussian_dataset(
    num_classes: int,
    per_class: int,
    input_dim: int,
    center_scale: float = 10.0,
    noise_sigma: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Isotropic Gaussian blobs around class centers drawn in a hypercube.

    Centers are uniform in [0, center_scale] per coordinate; each sample is
    its class center plus N(0, noise_sigma^2) noise. Fully determined by the
    seed.
    """
    for name, value in (("num_classes", num_classes), ("per_class", per_class), ("input_dim", input_dim)):
        check_positive(name, value)
    for name, value in (("center_scale", center_scale), ("noise_sigma", noise_sigma)):
        if not (math.isfinite(value) and value >= 0):
            raise InputError(f"{name} must be finite and nonnegative, got {value}")
    check_nonnegative("seed", seed)
    check_addressable("samples", (num_classes * per_class, input_dim))
    samples = np.empty((num_classes * per_class, input_dim))  # first, so a size memory cannot hold draws nothing
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, center_scale, size=(num_classes, input_dim))
    # one draw fills the rows class by class; sigma * z is rng.normal's 0.0 + sigma * z but for -0.0, which a centre >= 0 erases
    rng.standard_normal(out=samples)
    samples *= noise_sigma
    samples.reshape(num_classes, per_class, input_dim)[...] += centers[:, None, :]
    return Dataset(samples, np.repeat(np.arange(num_classes), per_class))


@dataclass
class ZeroShotSplit:
    """Class-disjoint partition: test classes are never seen in training."""

    train_classes: np.ndarray
    test_classes: np.ndarray

    def __post_init__(self):
        self.train_classes = as_int64(self.train_classes, "train_classes")
        self.test_classes = as_int64(self.test_classes, "test_classes")
        overlap = np.intersect1d(self.train_classes, self.test_classes)
        if overlap.size:
            raise InputError(f"split is not class-disjoint; shared classes {overlap.tolist()}")


def check_train_fraction(train_fraction: float) -> None:
    if not (0.0 < train_fraction < 1.0):  # NaN fails too
        raise InputError(f"train_fraction must lie strictly in (0, 1), got {train_fraction}")


def split_zero_shot(dataset: Dataset, train_fraction: float, seed: int) -> ZeroShotSplit:
    """Shuffle classes with the seed, then cut: ceil(C * fraction) go to train.

    The fraction must leave at least one class on each side.
    """
    check_train_fraction(train_fraction)
    check_nonnegative("split seed", seed)
    c = dataset.num_classes
    if c < 2:
        raise InputError("zero-shot split needs at least two classes")
    n_train = math.ceil(c * train_fraction)
    if n_train >= c:
        raise InputError(f"train_fraction {train_fraction} leaves no test classes for {c} classes")
    order = np.random.default_rng(seed).permutation(c)
    return ZeroShotSplit(np.sort(order[:n_train]), np.sort(order[n_train:]))


def take_classes(dataset: Dataset, class_ids) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the dataset belonging to the given classes, original labels kept."""
    class_ids = np.asarray(class_ids, dtype=np.int64)
    mask = np.isin(dataset.labels, class_ids)
    return dataset.samples[mask], dataset.labels[mask]


def _header(dim: int) -> str:
    return "label," + ",".join(f"f_{i}" for i in range(dim))


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{_header(dataset.input_dim)}\n".encode())
        write_rows(fh, [dataset.labels], dataset.samples)


_WRITE_BLOCK = 1 << 13  # values formatted per write
_WORKER_VALUES = 1 << 16  # W is at most the number of blocks of this many values
_OUT_OF_MEMORY = 3  # a worker's exit status after a MemoryError


def write_rows(fh, keys, values: np.ndarray) -> None:
    """Writes one line `k_0,...,v_0,...\n` per row of `values` to the binary file `fh`: the row's entry
    of each integer key array, then its values as shortest round-trip decimals.

    Rows go out in blocks of at most _WRITE_BLOCK values (one row at least), one `write` per block,
    in block order, so the Python objects held at a time do not grow with the file. `repr` costs
    about 1 µs a value, so W workers format the blocks, block i by worker i mod W: worker 0 is the
    caller, the others `os.fork` children that send their blocks back over a pipe each and end with
    `os._exit`, so they never flush a buffer they inherited. W = min(blocks of _WORKER_VALUES values,
    usable CPUs), so that a file too small to repay a fork is formatted here. Nothing sets W; it is 1,
    with no child, for one such block, on one usable CPU or without `os.fork`. The bytes are those of
    one process. Every child is waited for on every exit path; a failed one raises
    `MemoryError` if it ran out of memory, else `ChildProcessError`.

    From a multi-threaded host: a child holds only the calling thread, so a lock another thread held
    at the fork stays held in it. The children run only Python's float formatting; a host that cannot
    rule such a lock out can keep its process on one CPU (`os.sched_setaffinity`), which makes W = 1.
    """
    rows = max(1, _WRITE_BLOCK // max(1, values.shape[1]))
    starts = range(0, len(values), rows)
    shares = range(0, len(values), max(1, _WORKER_VALUES // max(1, values.shape[1])))
    workers = min(len(shares), _usable_cpus()) if hasattr(os, "fork") else 1
    children = []  # (pid, read end of its pipe) of workers 1 .. W-1
    ended_early = None
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                read_ends = [read_fd, *(pipe.fileno() for _, pipe in children)]
                _format_in_child(write_fd, read_ends, keys, values, starts[worker::workers], rows)  # never returns
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        for i, start in enumerate(starts):
            if i % workers == 0:
                fh.write(_format_block(keys, values, start, rows))
                continue
            pid, pipe = children[i % workers - 1]
            block = _receive(pipe)
            if block is None:
                ended_early = pid
                break
            fh.write(block)
            del block  # before the parent formats its next block, so that it holds one block at a time
    finally:
        for _, pipe in children:  # first, so that a child blocked on a full pipe ends
            pipe.close()
        statuses = {pid: os.waitpid(pid, 0)[1] for pid, _ in children}
    # the worker whose stream ended first; the others may have failed only because the parent stopped reading
    failed = ended_early or next((pid for pid, status in statuses.items() if status), None)
    if failed:
        code = os.waitstatus_to_exitcode(statuses[failed])
        if code == _OUT_OF_MEMORY:
            raise MemoryError(f"CSV formatting worker {failed} ran out of memory")
        ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"CSV formatting worker {failed} {ended} before it sent all its rows")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _beside(task, worthwhile: bool, name: str):
    """Runs `task()` on one worker thread while the with-block runs, when `worthwhile` and more than one
    CPU is usable; otherwise here, after the block. The caller keeps the two sides off each other's
    arrays. The worker is joined on every exit, and an exception `task` raised is raised here."""
    if not worthwhile or _usable_cpus() < 2:
        yield
        task()
        return
    failure = []

    def run():
        try:
            task()
        except BaseException as exc:  # raised again in the calling thread
            failure.append(exc)

    worker = threading.Thread(target=run, name=name)
    worker.start()
    try:
        yield
    finally:
        worker.join()
    if failure:
        raise failure[0]


def _format_block(keys, values: np.ndarray, start: int, rows: int) -> bytes:
    block = slice(start, start + rows)
    prefixes = map(",".join, zip(*(map(str, k[block].tolist()) for k in keys)))
    lines = (f"{p}," + ",".join(map(repr, row)) + "\n" for p, row in zip(prefixes, values[block].tolist()))
    return "".join(lines).encode()


def _receive(pipe) -> bytes | None:
    """The next block a worker sent, as it sent it, or None when its stream ended first."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    block = pipe.read(size)
    return block if len(head) == 8 and len(block) == size else None


def _format_in_child(fd: int, read_ends, keys, values: np.ndarray, starts, rows: int):
    """Sends the blocks at `starts` over `fd` as 8-byte little-endian lengths and their bytes, then exits."""
    status = 1
    try:
        gc.disable()  # a collection could finalize, and so flush, an unreachable file object of the parent
        for read_end in read_ends:  # a pipe read end left open here would keep a write blocked after the parent stops
            os.close(read_end)
        with open(fd, "wb") as pipe:
            for start in starts:
                block = _format_block(keys, values, start, rows)
                pipe.write(len(block).to_bytes(8, "little"))
                pipe.write(block)
        status = 0
    except MemoryError:
        status = _OUT_OF_MEMORY
    finally:
        os._exit(status)  # never the interpreter's exit, which flushes the stdio and file buffers of the parent


_SIDECAR_VERSION = 1


def load_dataset(path) -> Dataset:
    """Read a dataset CSV, or its sidecar `<path>.parsed.npz` when that holds the parse of the same bytes.

    The sidecar is keyed by the SHA-256 of the file, and its arrays pass the checks a parse
    makes. A FIFO or a terminal can be read only once, so only a regular file has a sidecar.
    The sidecar holds the bytes `np.savez` would write, but each array goes out from its own
    buffer (`_write_npz`), so a first load of a file the C reader takes holds the samples once.
    """
    if not os.path.isfile(path):  # the parse names a missing file or a directory
        return _parse_csv(path)
    sidecar, digest = f"{os.fspath(path)}.parsed.npz", _sha256(path)
    try:
        # np.load leaks its own handle when the zip is damaged, so the sidecar is opened here
        with open(sidecar, "rb") as raw, np.load(raw, allow_pickle=False) as npz, open(path, encoding="utf-8") as fh:
            if (npz["version"].tolist(), npz["digest"].tolist()) == (_SIDECAR_VERSION, digest):
                samples, labels = npz["samples"], npz["labels"]
                if (samples.dtype == np.float64 and samples.ndim == 2 and samples.shape[1] == fh.readline().count(",")
                        and labels.dtype == np.int64):
                    return Dataset(np.ascontiguousarray(samples), np.ascontiguousarray(labels))
    except (OSError, ValueError, KeyError, TypeError, EOFError, RuntimeError, zipfile.BadZipFile):  # missing, damaged, refused
        pass
    dataset = _parse_csv(path)
    if _sha256(path) == digest:  # else the file changed during the parse
        tmp = f"{sidecar}.{os.urandom(8).hex()}.tmp"
        try:
            with open(tmp, "xb") as fh:
                _write_npz(fh, version=_SIDECAR_VERSION, digest=digest, samples=dataset.samples, labels=dataset.labels)
            os.replace(tmp, sidecar)
        except OSError:  # a read-only directory or a full disk: the next load parses again
            pass
        finally:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    return dataset


def _write_npz(fh, **arrays) -> None:
    """The bytes `np.savez(fh, **arrays)` writes, each array's data written from its own buffer:
    `np.savez` writes a zip member through a `tobytes` copy of the whole array."""
    with zipfile.ZipFile(fh, "w") as npz:
        for name, value in arrays.items():
            array = np.asarray(value, order="C")
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(array))
                member.write(memoryview(array.reshape(-1).view(np.uint8)))


def _sha256(path) -> str:
    import hashlib  # loading OpenSSL takes about 5 ms, which programs that read no CSV need not pay
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
    return sha.hexdigest()


def _parse_csv(path) -> Dataset:
    """Read a dataset CSV with numpy's C reader, or with `_load_lines` where it refuses.

    The C reader accepts a subset of the line parser's input, with the same values; any
    refusal, warning or failed check re-reads the text with the one parser that words faults.
    The file is opened once: a FIFO or a terminal cannot be reopened, so its text is kept.
    The C reader's table is compacted in place (`_compact`), so its samples are held once; the
    line parser holds Python lists of the values and is not bounded that way.
    """
    try:
        with open(path, "r", encoding="utf-8") as raw:
            fh = raw if raw.seekable() else io.StringIO(raw.read())
            # numpy's refusals and warnings, and failed checks, fall through to the line parser
            with contextlib.suppress(ValueError, Warning), warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy warns on a file without rows
                header = fh.readline().removesuffix("\n")
                dim = header.count(",")
                if dim >= 1 and header == _header(dim):
                    table = np.loadtxt(
                        _unsplit_lines(fh), delimiter=",", comments=None, ndmin=1,
                        dtype=[("label", np.int64), ("f", np.float64, (dim,))],
                    )
                    # contiguous, as `_load_lines` returns them; `Dataset` refuses non-finite samples and negative labels
                    labels = table["label"].copy()
                    return Dataset(_compact(table), labels)
            fh.seek(0)
            return _load_lines(fh)
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path} is not UTF-8 text: {exc}") from None


def _compact(table) -> np.ndarray:
    """The (n, d) features of a (label, f) table as a C-contiguous view of its own buffer: each row's
    features move to the front, in blocks of rows in ascending order, which is safe because no row's
    destination reaches a later row's source. The labels are overwritten."""
    n, dim = len(table), table.dtype["f"].shape[0]
    samples = table.view(np.float64)[: n * dim].reshape(n, dim)
    step = max(1, _WRITE_BLOCK // dim)  # numpy copies a block that overlaps its own source through a buffer
    for start in range(0, n, step):
        samples[start : start + step] = table["f"][start : start + step]
    return samples


def _unsplit_lines(fh):
    """The file's lines; refuses one that `str.splitlines`, as in `_load_lines`, would break further."""
    for line in fh:
        if len(line.splitlines()) > 1:
            raise ValueError("line break inside a line")
        yield line


def _load_lines(fh) -> Dataset:
    """Parse the text of an open file line by line, naming the line of any fault."""
    lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise DatasetParseError("no header")
    dim = lines[0].count(",")
    if dim < 1 or lines[0] != _header(dim):
        raise DatasetParseError(f"unknown header {lines[0]!r}", line=1)
    samples = []
    labels = []
    linenos = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise DatasetParseError(f"expected {dim + 1} columns, found {len(parts)}", line=lineno)
        try:
            label = int(parts[0])
            row = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise DatasetParseError(str(exc), line=lineno) from None
        if label < 0:
            raise DatasetParseError(f"negative label {label}", line=lineno)
        if label >= 2**63:
            raise DatasetParseError(f"label {label} does not fit in 64 bits", line=lineno)
        labels.append(label)
        samples.append(row)
        linenos.append(lineno)
    if not samples:
        raise DatasetParseError("file contains a header but no samples")
    samples = np.asarray(samples)
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        row, col = bad[0]
        raise DatasetParseError(f"non-finite value {samples[row, col]} in column f_{col}", line=linenos[row])
    try:
        return Dataset(samples, np.asarray(labels))
    except InputError as exc:
        raise DatasetParseError(str(exc)) from None
