"""Command-line surface: dataset synthesis, training, evaluation, gradcheck.

Exit codes: 0 on success, 1 for usage/config/parse problems and sizes that
memory cannot hold, 2 for numerical failures (non-finite losses or a failed
gradient check).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .config import load_config
from .data import check_train_fraction, load_dataset, save_dataset, split_zero_shot, synth_gaussian_dataset
from .errors import ConfigError, DatasetParseError, DimensionError, InputError, NumericalError, check_nonnegative
from .evaluation import check_ks, export_embeddings_csv, save_metrics_json
from .training import run_training, score_classes
from .verify import run_gradcheck_suite

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; our contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hardmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth-data", help="generate a Gaussian-blob benchmark dataset CSV")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--center-scale", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model; writes checkpoint, curves CSV, manifest JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint; writes metrics JSON and embeddings CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split-seed", type=int, help="default: the split recorded in the checkpoint")
    p.add_argument("--train-fraction", type=float, help="default: the fraction recorded in the checkpoint, else 0.5")
    p.add_argument("--ks", default="1,2,4,8")
    p.add_argument("--kmeans-seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    return parser


def _cmd_synth_data(args) -> int:
    dataset = synth_gaussian_dataset(
        args.classes, args.per_class, args.dim,
        center_scale=args.center_scale, noise_sigma=args.sigma, seed=args.seed,
    )
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.num_samples} samples ({dataset.num_classes} classes, dim {dataset.input_dim}) to {args.out}")
    return 0


def _check_out_dir(out_dir) -> None:
    """Refuse an --out-dir that cannot be created, before anything is loaded."""
    existing = os.path.abspath(out_dir)
    while not os.path.exists(existing):  # "/" exists, so this ends
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise InputError(f"--out-dir {out_dir}: {existing} exists and is not a directory")


def _cmd_train(args) -> int:
    _check_out_dir(args.out_dir)
    config = load_config(args.config)
    dataset = load_dataset(args.data)
    result = run_training(dataset, config, out_dir=args.out_dir)
    print(f"trained {config.epochs} epochs ({result.state.step} steps) in {result.elapsed_seconds:.1f}s")
    report = result.final_report
    recalls = " ".join(f"R@{k}={v:.4f}" for k, v in sorted(report.recall_at.items()))
    print(f"test metrics: NMI={report.nmi:.4f} F1={report.f1:.4f} {recalls}")
    print(f"artifacts in {args.out_dir}: checkpoint.npz curves.csv manifest.json")
    return 0


def _cmd_eval(args) -> int:
    try:
        ks = tuple(int(part) for part in args.ks.split(",") if part.strip())
    except ValueError:
        raise InputError(f"--ks must be a comma list of integers, got {args.ks!r}") from None
    check_ks("--ks", ks)
    check_nonnegative("k-means seed", args.kmeans_seed)
    if args.split_seed is not None:
        check_nonnegative("split seed", args.split_seed)
    if args.train_fraction is not None:
        check_train_fraction(args.train_fraction)
    _check_out_dir(args.out_dir)
    models, meta = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    recorded = meta.get("config", {})
    split_seed = args.split_seed if args.split_seed is not None else recorded.get("split_seed")
    if split_seed is None:
        raise InputError(f"{args.checkpoint} records no class split; pass --split-seed")
    fraction = args.train_fraction if args.train_fraction is not None else recorded.get("train_fraction", 0.5)
    split = split_zero_shot(dataset, fraction, split_seed)
    seen = np.intersect1d(split.test_classes, meta.get("train_classes", []))
    if seen.size:
        raise InputError(f"classes {seen.tolist()} would be evaluated but were training classes of {args.checkpoint}")
    report, test_rows, z = score_classes(models.embedder, dataset, split.test_classes, ks, args.kmeans_seed)
    os.makedirs(args.out_dir, exist_ok=True)
    metrics_path = os.path.join(args.out_dir, "metrics.json")
    embeddings_path = os.path.join(args.out_dir, "embeddings.csv")
    save_metrics_json(report, metrics_path, extra={"kmeans_seed": args.kmeans_seed, "split_seed": split_seed})
    export_embeddings_csv(embeddings_path, test_rows, dataset.labels[test_rows], z)
    recalls = " ".join(f"R@{k}={v:.4f}" for k, v in sorted(report.recall_at.items()))
    print(f"NMI={report.nmi:.4f} F1={report.f1:.4f} {recalls}")
    print(f"wrote {metrics_path} and {embeddings_path}")
    return 0


def _cmd_gradcheck(args) -> int:
    reports = run_gradcheck_suite(seed=args.seed, instances=args.instances)
    for name, report in reports.items():
        verdict = "PASS" if report.passed else "FAIL"
        print(f"{name}: max rel deviation {report.max_deviation:.3e} over {args.instances} instances -> {verdict}")
    if not all(report.passed for report in reports.values()):
        print("gradient check FAILED", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth-data": _cmd_synth_data,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DatasetParseError, DimensionError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except MemoryError as exc:  # sizes the machine cannot hold are an input problem
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
