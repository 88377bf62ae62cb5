"""The bitwise gate: one sha256 per acceptance run over everything a refactor must keep byte for byte.

The 20 runs are those of the acceptance benchmark, which `tests/test_acceptance.py` imports from here:
both losses, seeds 0-4, hardened and plain. A run's hash covers its `curves.csv` rows, its skipped-batch
count and its final `EvalReport`; the last line hashes the 20 run hashes in order. Two trees that print
the same last line trained and scored every run identically.

    PYTHONPATH=src python tests/bitwise.py

The package is imported from PYTHONPATH, so pointing it at another checkout's `src` measures that tree
with this script; the first line names the package that was measured. Pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import sys

import hardmetric
from hardmetric.data import synth_gaussian_dataset
from hardmetric.training import TrainConfig, run_training

BENCH = dict(num_classes=20, per_class=25, input_dim=64, center_scale=10.0, noise_sigma=4.0)
MODEL = dict(batch_size=32, epochs=25, learning_rate=1e-4, embed_dim=32, hidden_dims=(128, 128))
SEEDS = (0, 1, 2, 3, 4)


def bench_dataset(seed):
    return synth_gaussian_dataset(seed=100 + seed, **BENCH)


def bench_config(loss_kind, seed, hardened=True):
    knobs = {
        ("triplet", True): dict(alpha=0.04, beta=80.0),
        ("npair", True): dict(alpha=0.1, beta=150.0),
        ("triplet", False): dict(alpha=0.0, synthetics=False),
        ("npair", False): dict(alpha=0.0, synthetics=False),
    }[(loss_kind, hardened)]
    return TrainConfig(loss_kind=loss_kind, npair_n=8, seed=seed, split_seed=seed, **MODEL, **knobs)


def run_hash(loss_kind: str, seed: int, hardened: bool) -> str:
    result = run_training(bench_dataset(seed), bench_config(loss_kind, seed, hardened=hardened))
    sha = hashlib.sha256()
    for row in result.state.history:  # the rows `write_curves` puts under the header of curves.csv
        sha.update(f"{row.as_csv()}\n".encode())
    sha.update(f"skipped_batches={result.state.skipped_batches}\n".encode())
    sha.update(json.dumps(result.final_report.to_dict(), sort_keys=True).encode())
    return sha.hexdigest()


def main() -> int:
    print(f"hardmetric from {hardmetric.__file__}")
    overall = hashlib.sha256()
    for loss_kind in ("triplet", "npair"):
        for hardened in (False, True):
            for seed in SEEDS:
                digest = run_hash(loss_kind, seed, hardened)
                overall.update(digest.encode())
                print(f"{digest}  {loss_kind} {'hardened' if hardened else 'plain'} seed {seed}")
    print(f"{overall.hexdigest()}  all 20 runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
