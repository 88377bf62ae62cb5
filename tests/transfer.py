"""The transfer protocol: synthetic classes whose structure carries from training to test classes.

The Gaussian classes of the acceptance benchmark share nothing between training and test classes, so
nothing learned on one set carries to the other, and a trained network scores what an untrained one
does. Here every class centre lies in the same 8 of the 64 input coordinates, uniform in [0, 10]; the
other 56 coordinates hold noise alone, four times stronger (sigma 4 against sigma 1 on the signal).
One random rotation, the Q of a Gaussian matrix's QR factorisation, then mixes all coordinates, so no
input coordinate is signal alone. A metric that keeps the signal directions and drops the noise
transfers to classes it never saw. Seed s draws its dataset from seed 500 + s and splits its 40
classes 20/20 with split seed s, the class-disjoint protocol of Song et al. (CVPR 2016).

Acceptance criterion 9 ("learning transfers") runs on this data; pytest does not collect this file.
"""

from __future__ import annotations

import numpy as np

from hardmetric.data import Dataset
from hardmetric.training import TrainConfig

CLASSES, PER_CLASS, DIM, SIGNAL = 40, 25, 64, 8
DATA_SEED = 500
MODEL = dict(batch_size=32, epochs=20, learning_rate=1e-3, embed_dim=32, hidden_dims=(128, 128), train_fraction=0.5)


def transfer_dataset(seed: int) -> Dataset:
    rng = np.random.default_rng(DATA_SEED + seed)
    centres = np.zeros((CLASSES, DIM))
    centres[:, :SIGNAL] = rng.uniform(0.0, 10.0, size=(CLASSES, SIGNAL))
    sigma = np.where(np.arange(DIM) < SIGNAL, 1.0, 4.0)
    labels = np.repeat(np.arange(CLASSES), PER_CLASS)
    samples = centres[labels] + rng.standard_normal((CLASSES * PER_CLASS, DIM)) * sigma
    rotation, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)))
    return Dataset(samples @ rotation, labels)


def transfer_config(loss_kind: str, seed: int, hardened: bool, **overrides) -> TrainConfig:
    """The acceptance benchmark's hardening knobs (`bitwise.bench_config`) at `MODEL`'s sizes and rate."""
    knobs = dict(alpha=0.04, beta=80.0) if loss_kind == "triplet" else dict(alpha=0.1, beta=150.0)
    if not hardened:
        knobs = dict(alpha=0.0, synthetics=False)
    return TrainConfig(loss_kind=loss_kind, npair_n=8, seed=seed, split_seed=seed, **{**MODEL, **knobs, **overrides})
