"""Benchmark of hardmetric: training cost and zero-shot quality, end to end
and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload npair-accept --seed 0 --seconds 20 --trace 0

The run sets up its inputs from the seed several times, then repeats whole
rounds of the workload until `--seconds` have passed, checks the outputs
against its own computations and prints, as the last line of standard
output, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
public functions of the program are wrapped from outside and the metrics
are per-layer self times and counts. `--toy` shrinks every workload for
the smoke test. Exits with a non-zero code, printing no result, when the
program's sources are missing from the checkout.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread (no more than nproc): small products gain nothing from a
# second thread, and idle BLAS threads that spin add noise on a shared host.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("eval_s", "s", "lower"),
    ("recall_at_1", "ratio", "higher"),
    ("nmi", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".bench_tmp"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def import_program():
    """Import hardmetric from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "hardmetric"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources at {package}")
    sys.path.insert(0, str(package.parent))
    import hardmetric
    import hardmetric.cli  # noqa: F401  (loads config and verify too)

    if Path(hardmetric.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported hardmetric from {hardmetric.__file__}, not from {package}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = perf_counter() - PROCESS_START

    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    tracer = spans.Tracer() if args.trace else None
    counter = None
    try:
        if tracer:
            tracer.install()
        counter = workloads.BatchCounter()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.toy, workdir)
        setups = 2 if args.toy else workload.setups
        setup_times = []
        for _ in range(setups):
            if tracer:
                tracer.phase = "setup"
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)

        stats = workloads.Stats()
        rounds = 0
        started = perf_counter()
        while True:
            if tracer:
                tracer.phase = "round"
            last = workload.round(stats, counter)
            rounds += 1
            if tracer:
                tracer.phase = None
            if perf_counter() - started >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        faults = workload.check(last)
        if tracer:
            faults += tracer.geometry_faults[:5]
    finally:
        if counter:
            counter.close()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    for fault in faults:
        print(f"bench: CHECK FAILED: {fault}", file=sys.stderr)
    print(
        f"bench: workload={args.workload} seed={args.seed} trace={args.trace} blas_threads={BLAS_THREADS} "
        f"nproc={len(os.sched_getaffinity(0))} setups={setups} rounds={rounds} train_s={stats.train_s:.4f} "
        f"train_samples={stats.train_samples} evals={len(stats.eval_s)} import_s={import_s:.4f}"
    )
    if tracer:
        values = tracer.layer_metrics(setups, rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "train_samples_per_s": stats.train_samples / stats.train_s,
            "eval_s": statistics.median(stats.eval_s),
            "recall_at_1": stats.recall_at_1,
            "nmi": stats.nmi,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": not faults, "attempted": stats.attempted, "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
