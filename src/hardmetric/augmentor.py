"""Hardness-aware negative construction by linear interpolation in embedding space.

A negative embedding is pulled along the segment toward its anchor, but
never inside the reference distance set by the anchor's positive pair, so
the manipulated pair stays a plausible negative. How far it is pulled is
driven by a schedule on the previous epoch's average metric loss: as the
model improves (loss falls), the interpolation coefficient shrinks and the
synthesized tuples get harder. Anchors and positives pass through untouched,
and nothing here participates in backpropagation; outputs are constants to
every downstream objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError
from .losses import TupleBatch

# Lower bound for the interpolation coefficient: keeps the hardened negative
# strictly off the reference sphere even when the average loss collapses.
LAMBDA_FLOOR = 1e-6


@dataclass
class AugmentorState:
    """Pulling strength plus the previous epoch's average metric loss.

    j_avg is None until a full epoch has been observed; alpha = 0 disables
    hardening entirely (the schedule stays at 1).
    """

    alpha: float
    j_avg: float | None = None

    def __post_init__(self):
        if not self.alpha >= 0:
            raise InputError(f"alpha must be nonnegative, got {self.alpha}")
        if self.j_avg is not None and not (self.j_avg >= 0):
            raise InputError(f"j_avg must be nonnegative when set, got {self.j_avg}")


def pulling_lambda(state: AugmentorState) -> float:
    """Interpolation coefficient exp(-alpha / j_avg), clamped to (0, 1].

    Returns 1 while no epoch average exists (warm-up: synthetics start as
    plain reconstructions) and 1 for an infinite average. A vanishing
    average would drive the coefficient to 0; it is floored at LAMBDA_FLOOR
    instead. Strictly increasing in j_avg, strictly decreasing in alpha.
    """
    if state.alpha == 0.0 or state.j_avg is None or math.isinf(state.j_avg):
        return 1.0
    if state.j_avg <= 0.0:
        return LAMBDA_FLOOR
    return max(math.exp(-state.alpha / state.j_avg), LAMBDA_FLOOR)


def _harden(z, z_neg, d_plus, lambda_interp: float) -> np.ndarray:
    """Pull negatives toward their anchors along the connecting segments.

    Broadcasts over (..., D) rows: anchors z, negatives z_neg and reference
    distances d_plus of shape (...). A negative at distance d > d_plus from
    its anchor moves to distance lambda_interp * d + (1 - lambda_interp) *
    d_plus on the segment [z, z_neg]; any other negative, and every one at
    lambda_interp = 1, comes back as an exact copy.
    """
    if lambda_interp == 1.0:
        return np.array(z_neg, dtype=np.float64)
    d = np.sqrt(((z - z_neg) ** 2).sum(axis=-1))
    moved = d > d_plus
    target = lambda_interp * d + (1.0 - lambda_interp) * d_plus
    scale = np.where(moved, target, 0.0) / np.where(moved, d, 1.0)
    return np.where(moved[..., None], z + scale[..., None] * (z_neg - z), z_neg)


def augment_negative(z, z_neg, d_plus: float, lambda_interp: float) -> np.ndarray:
    """`_harden` for one anchor and one negative, with its arguments checked."""
    z = np.asarray(z, dtype=np.float64)
    z_neg = np.asarray(z_neg, dtype=np.float64)
    if z.shape != z_neg.shape or z.ndim != 1:
        raise DimensionError(f"expected two 1-D vectors of equal length, got {z.shape} and {z_neg.shape}")
    if d_plus <= 0:
        raise InputError(f"reference distance must be positive, got {d_plus}")
    if not (0.0 < lambda_interp <= 1.0):
        raise InputError(f"lambda_interp must lie in (0, 1], got {lambda_interp}")
    return _harden(z, z_neg, d_plus, lambda_interp)


@dataclass
class AugmentedTuple:
    """A tuple batch after negative hardening.

    Anchors and positives are rows of the embedding batch, unaltered. For
    triplets the per-negative arrays are (T,) and (T, D); for N-pair tuples
    they are (N, N-1) and (N, N-1, D) because every anchor gets its own
    hardened copy of each other pair's positive. `degenerate` lists tuple
    rows (triplet) or anchor rows (npair) whose reference distance was
    zero: triplet rows are dropped, npair anchors keep their negatives
    unhardened so the tuple structure survives.
    """

    kind: str
    lambda_interp: float
    anchor_idx: np.ndarray
    positive_idx: np.ndarray
    negative_idx: np.ndarray
    hardened_negatives: np.ndarray
    reference_distances: np.ndarray
    anchor_labels: np.ndarray
    negative_labels: np.ndarray
    degenerate: np.ndarray

    @property
    def size(self) -> int:
        return self.anchor_idx.shape[0]


def augment_tuples(
    embeddings,
    tuples: TupleBatch,
    state: AugmentorState,
    fixed_reference: float | None = None,
) -> AugmentedTuple:
    """Harden every negative in a tuple batch per the current schedule.

    The reference distance defaults to each anchor's positive-pair distance;
    `fixed_reference` substitutes a constant instead. Works on embeddings
    only; gradients never flow through the returned arrays.
    """
    z = np.asarray(embeddings, dtype=np.float64)
    if fixed_reference is not None and fixed_reference <= 0:
        raise InputError(f"fixed reference distance must be positive, got {fixed_reference}")
    lam = pulling_lambda(state)
    anchors, positives, negatives = tuples.anchors, tuples.positives, tuples.negatives
    if fixed_reference is None:
        d_plus = np.sqrt(((z[anchors] - z[positives]) ** 2).sum(axis=-1))
    else:
        d_plus = np.full(tuples.size, float(fixed_reference))
    degenerate = np.flatnonzero(d_plus <= 0.0)
    if tuples.kind == "triplet":
        # a triplet without a reference distance is dropped
        kept = np.flatnonzero(d_plus > 0.0)
        anchors, positives, negatives, d_plus = anchors[kept], positives[kept], negatives[kept], d_plus[kept]
    # an N-pair anchor without one keeps its negatives: nothing lies beyond an infinite reference
    reach = np.where(d_plus > 0.0, d_plus, np.inf)[:, None]
    hardened = _harden(z[anchors][:, None, :], z[negatives], reach, lam)
    refs = np.broadcast_to(d_plus[:, None], negatives.shape).copy()
    negative_labels = tuples.labels[negatives]
    if tuples.kind == "triplet":
        negatives, hardened, refs, negative_labels = negatives[:, 0], hardened[:, 0], refs[:, 0], negative_labels[:, 0]
    return AugmentedTuple(
        kind=tuples.kind,
        lambda_interp=lam,
        anchor_idx=anchors,
        positive_idx=positives,
        negative_idx=negatives,
        hardened_negatives=hardened,
        reference_distances=refs,
        anchor_labels=tuples.labels[anchors],
        negative_labels=negative_labels,
        degenerate=degenerate,
    )
