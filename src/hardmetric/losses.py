"""Triplet and N-pair losses over tuple batches, with gradients into embeddings.

Both losses see only pairwise Euclidean distances, so they are invariant
under rigid motions of the embedding batch. `batch_metric_loss` chains the
scalar loss gradients through the distance computations and scatter-adds
them back onto the embedding rows, which may appear in several tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError
from .nn import as_matrix

TUPLE_KINDS = ("triplet", "npair")


@dataclass
class TupleBatch:
    """Training tuples as row indices into a batch of R labelled rows.

    Tuple t is (anchors[t], positives[t], negatives[t, :]): M = 1 negative
    per triplet, M = N - 1 per anchor of an N-pair tuple (one pair per
    class). A 1-D `negatives` means M = 1. `labels` (R,) holds the class of
    every batch row. `kind` selects the loss formula (hinge per triplet, or
    one log-sum-exp tuple over all N anchors) and what hardening does with a
    tuple whose positive pair coincides.
    """

    kind: str
    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.kind not in TUPLE_KINDS:
            raise InputError(f"unknown tuple kind {self.kind!r}")
        self.anchors = np.asarray(self.anchors, dtype=np.int64)
        self.positives = np.asarray(self.positives, dtype=np.int64)
        self.negatives = np.asarray(self.negatives, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.negatives.ndim == 1:
            self.negatives = self.negatives[:, None]
        t = self.size
        if self.kind == "npair" and t < 2:
            raise InputError(f"an N-pair tuple needs at least 2 classes, got {t}")
        m = 1 if self.kind == "triplet" else t - 1
        if self.anchors.ndim != 1 or self.positives.shape != (t,) or self.negatives.shape != (t, m):
            raise DimensionError(
                f"{self.kind} tuples need anchors ({t},), positives ({t},) and negatives ({t}, {m}); got "
                f"{self.anchors.shape}, {self.positives.shape} and {self.negatives.shape}"
            )
        rows = self.rows
        if rows.size and (rows.min() < 0 or rows.max() >= self.labels.shape[0]):
            raise InputError(f"tuple rows must lie in [0, {self.labels.shape[0]}), got [{rows.min()}, {rows.max()}]")
        anchor_labels = self.labels[self.anchors]
        if not (anchor_labels == self.labels[self.positives]).all():
            raise InputError("anchor and positive must share a label")
        if (anchor_labels[:, None] == self.labels[self.negatives]).any():
            raise InputError("a negative must have a different label than its anchor")
        if self.kind == "npair" and np.unique(anchor_labels).size != t:
            raise InputError("N-pair classes must be distinct")

    @classmethod
    def npair(cls, anchors, positives, labels) -> "TupleBatch":
        """One N-pair tuple: each anchor's negatives are the other pairs' positives."""
        positives = np.asarray(positives, dtype=np.int64)
        n = positives.shape[0]
        others = np.broadcast_to(positives, (n, n))[~np.eye(n, dtype=bool)]
        return cls("npair", anchors, positives, others.reshape(n, max(n - 1, 0)), labels)

    @property
    def size(self) -> int:
        """T: the number of triplets, or of pairs in the N-pair tuple."""
        return self.anchors.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """Every batch row the tuples reference: anchors, positives, negatives."""
        return np.concatenate([self.anchors, self.positives, self.negatives.ravel()])


def triplet_loss(d_pos, d_neg, margin: float):
    """Hinge loss max(d_pos - d_neg + margin, 0) with distance gradients.

    Vectorizes over arrays of distances; the subgradient at the hinge
    boundary is zero, matching the ReLU convention elsewhere.
    """
    d_pos = np.asarray(d_pos, dtype=np.float64)
    d_neg = np.asarray(d_neg, dtype=np.float64)
    raw = d_pos - d_neg + margin
    loss = np.maximum(raw, 0.0)
    grad_pos = (raw > 0.0).astype(np.float64)
    grad_neg = -grad_pos
    if loss.ndim == 0:
        return float(loss), float(grad_pos), float(grad_neg)
    return loss, grad_pos, grad_neg


def npair_loss(d_pos, d_neg):
    """Distance-based N-pair loss with log-sum-exp stabilization.

    loss = (1/N) * sum_i log(1 + sum_{j != i} exp(d_pos[i] - d_neg[i, j]))
    where row i of d_neg holds the distances from anchor i to the other
    pairs' positives. Returns (loss, grad_d_pos, grad_d_neg).
    """
    d_pos = np.asarray(d_pos, dtype=np.float64)
    d_neg = np.asarray(d_neg, dtype=np.float64)
    if d_pos.ndim != 1:
        raise DimensionError(f"d_pos must be 1-D, got shape {d_pos.shape}")
    n = d_pos.shape[0]
    if n < 2:
        raise InputError(f"N-pair loss needs N >= 2, got N = {n}")
    if d_neg.shape != (n, n - 1):
        raise DimensionError(f"d_neg must be ({n}, {n - 1}), got {d_neg.shape}")
    a = d_pos[:, None] - d_neg
    # the implicit +1 term is exp(0), so the stabilizing max includes 0
    m = np.maximum(a.max(axis=1), 0.0)
    expa = np.exp(a - m[:, None])
    denom = np.exp(-m) + expa.sum(axis=1)
    loss = float((m + np.log(denom)).mean())
    p = expa / denom[:, None]
    grad_pos = p.sum(axis=1) / n
    grad_neg = -p / n
    return loss, grad_pos, grad_neg


def _unit_diffs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances |a-b| row-wise plus d|a-b|/da, with zero at coincident points."""
    diff = a - b
    d = np.sqrt((diff * diff).sum(axis=-1))
    unit = diff / np.where(d > 0.0, d, 1.0)[..., None]
    return d, unit


def batch_metric_loss(embeddings, tuples: TupleBatch, margin: float) -> tuple[float, np.ndarray]:
    """Mean tuple loss plus its gradient with respect to every embedding row."""
    z = as_matrix(embeddings, "embeddings")
    if tuples.size == 0:
        return 0.0, np.zeros_like(z)
    rows = tuples.rows
    if rows.max() >= z.shape[0]:
        raise InputError(f"tuple indices must lie in [0, {z.shape[0]}), got up to {rows.max()}")

    za = z[tuples.anchors]
    d_pos, unit_ap = _unit_diffs(za, z[tuples.positives])
    d_neg, unit_an = _unit_diffs(za[:, None, :], z[tuples.negatives])
    if tuples.kind == "triplet":
        t = tuples.size
        losses, g_pos, g_neg = triplet_loss(d_pos, d_neg[:, 0], margin)
        loss = float(losses.mean())
        g_pos, g_neg = g_pos / t, (g_neg / t)[:, None]
    else:
        loss, g_pos, g_neg = npair_loss(d_pos, d_neg)
    wp = g_pos[:, None] * unit_ap
    wn = g_neg[..., None] * unit_an
    # one scatter in `rows` order adds in the order of three separate ones; bincount adds from 0.0 in index order
    d = z.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    updates = np.concatenate([wp + wn.sum(axis=1), -wp, -wn.reshape(-1, d)])
    return loss, np.bincount(flat, weights=updates.ravel(), minlength=z.size).reshape(z.shape)
