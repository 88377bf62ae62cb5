"""Hardness-aware negative construction by linear interpolation in embedding space.

A negative embedding is pulled along the segment toward its anchor, but
never inside the reference distance set by the anchor's positive pair, so
the manipulated pair stays a plausible negative. How far it is pulled is
driven by a schedule on the previous epoch's average metric loss: as the
model improves (loss falls), the interpolation coefficient shrinks and the
synthesized tuples get harder. Anchors and positives pass through untouched,
and nothing here participates in backpropagation; outputs are constants to
every downstream objective. `augment_tuples` returns the hardened negatives
with the batch rows of the tuple `members` the generator reconstructs, and
the `synthetic` tuple batch over [anchors; positives; hardened negatives].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_nonnegative
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
        check_nonnegative("alpha", self.alpha)
        if self.j_avg is not None:
            check_nonnegative("j_avg", self.j_avg)


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


@dataclass
class AugmentedTuple:
    """A tuple batch after negative hardening, and the synthetic tuples it yields.

    Anchors and positives are rows of the embedding batch, unaltered. For
    triplets the negative arrays are (T,) and (T, D); for N-pair tuples they
    are (N, N-1) and (N, N-1, D) because every anchor gets its own hardened
    copy of each other pair's positive. A triplet whose reference distance
    is zero is dropped; such an N-pair anchor keeps its negatives
    unhardened, so the tuple structure survives. `synthetic` indexes rows
    [anchors; positives; hardened negatives in row-major order], labels kept.
    """

    kind: str
    anchor_idx: np.ndarray
    positive_idx: np.ndarray
    negative_idx: np.ndarray
    hardened_negatives: np.ndarray
    synthetic: TupleBatch

    @property
    def size(self) -> int:
        return self.anchor_idx.shape[0]

    @property
    def members(self) -> np.ndarray:
        """Batch rows of the unaltered tuple members: the anchors, then the
        positives, then, for triplets, the original negatives; N-pair
        negatives are other pairs' positives already."""
        negatives = [self.negative_idx] if self.kind == "triplet" else []
        return np.concatenate([self.anchor_idx, self.positive_idx, *negatives])


def augment_tuples(embeddings, tuples: TupleBatch, state: AugmentorState) -> AugmentedTuple:
    """Harden every negative in a tuple batch per the current schedule.

    The reference distance is each anchor's positive-pair distance. Works on
    embeddings only; gradients never flow through the returned arrays.
    """
    z = np.asarray(embeddings, dtype=np.float64)
    anchors, positives, negatives = tuples.anchors, tuples.positives, tuples.negatives
    d_plus = np.sqrt(((z[anchors] - z[positives]) ** 2).sum(axis=-1))
    if tuples.kind == "triplet":
        # a triplet without a reference distance is dropped
        kept = np.flatnonzero(d_plus > 0.0)
        anchors, positives, negatives, d_plus = anchors[kept], positives[kept], negatives[kept], d_plus[kept]
    # an N-pair anchor without one keeps its negatives: nothing lies beyond an infinite reference
    reach = np.where(d_plus > 0.0, d_plus, np.inf)[:, None]
    hardened = _harden(z[anchors][:, None, :], z[negatives], reach, pulling_lambda(state))
    t = anchors.size
    synthetic = TupleBatch(
        tuples.kind,
        np.arange(t),
        t + np.arange(t),
        2 * t + np.arange(negatives.size).reshape(negatives.shape),
        tuples.labels[np.concatenate([anchors, positives, negatives.ravel()])],
    )
    if tuples.kind == "triplet":
        negatives, hardened = negatives[:, 0], hardened[:, 0]
    return AugmentedTuple(tuples.kind, anchors, positives, negatives, hardened, synthetic)
