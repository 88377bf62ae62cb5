"""The bitwise gate: one sha256 per acceptance run over everything a refactor must keep byte for byte.

The 20 runs are those of the acceptance benchmark, which `tests/test_acceptance.py` imports from here:
both losses, seeds 0-4, hardened and plain. A run's hash covers its `curves.csv` rows, its skipped-batch
count and its final `EvalReport`; the last line hashes the 20 run hashes in order. Two trees that print
the same last line trained and scored every run identically.

The acceptance runs score 250 test points in 10 clusters, which never leave one Gram tile, so one more
line hashes the `kmeans` assignments and the `evaluate_embeddings` reports of a fixed 1,500 x 64 blob
embedding of 30 classes, k-means seeds 0-2, at the default tiles and again with `evaluation._BLOCK`
forced to 13 x 13, where k-means sweeps several centre tiles per row block and Recall@K many tiles.
The two hashes must agree; the script exits 1 when they do not.

    PYTHONPATH=src python tests/bitwise.py

The package is imported from PYTHONPATH, so pointing it at another checkout's `src` measures that tree
with this script; the first line names the package that was measured. Pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

import hardmetric
from hardmetric import evaluation
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


def evaluation_hash(block: int) -> str:
    rng = np.random.default_rng(1500)
    labels = np.arange(1500) % 30
    z = rng.normal(size=(30, 64))[labels] + rng.normal(size=(1500, 64))
    default, evaluation._BLOCK = evaluation._BLOCK, block
    try:
        sha = hashlib.sha256()
        for seed in range(3):
            sha.update(evaluation.kmeans(z, 30, seed).tobytes())
            report = evaluation.evaluate_embeddings(z, labels, kmeans_seed=seed)
            sha.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        return sha.hexdigest()
    finally:
        evaluation._BLOCK = default


def main() -> int:
    print(f"hardmetric from {hardmetric.__file__}")
    tiled = {evaluation_hash(block) for block in (evaluation._BLOCK, 13 * 13)}
    if len(tiled) != 1:
        print(f"evaluation differs between the default and 13 x 13 tiles: {sorted(tiled)}")
        return 1
    print(f"{tiled.pop()}  evaluation of 1,500 x 64 blobs, k-means seeds 0-2, default and 13 x 13 tiles")
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
