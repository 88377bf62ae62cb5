"""Zero-shot evaluation: k-means clustering quality (NMI, pairwise F1) and
Recall@K retrieval over a frozen embedding snapshot.

All metrics depend only on pairwise distances and label/cluster identities,
so they are invariant to point order, cluster renaming, and rigid motions of
the embedding (up to nearest-neighbor ties, which break by ascending sample
index).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .embedder import pairwise_distances
from .errors import InputError
from .nn import as_matrix


def kmeans(points, k: int, seed: int, max_iter: int = 300) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted seeding, deterministic per seed.

    Iterates to an assignment fixpoint or max_iter. Ties in assignment break
    toward the lowest center index; a cluster that empties is reseeded at
    the point currently farthest from its own center.
    """
    pts = as_matrix(points, "points")
    n = pts.shape[0]
    if k <= 0:
        raise InputError(f"k must be positive, got {k}")
    if k > n:
        raise InputError(f"k = {k} exceeds number of points {n}")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[c] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[c]) ** 2).sum(axis=1))

    assign = None
    for _ in range(max_iter):
        dist2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        new_assign = dist2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = pts[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:
                # reseed at the globally worst-fit point
                worst = int(dist2[np.arange(n), assign].argmax())
                centers[c] = pts[worst]
    return assign


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def nmi(assignment, labels) -> float:
    """Mutual information over the arithmetic mean of the two entropies.

    Natural logs (the ratio is log-base invariant). Zero mutual information
    maps to 0; the degenerate case of two constant partitions maps to 1.
    """
    assignment = np.asarray(assignment)
    labels = np.asarray(labels)
    if assignment.shape != labels.shape or assignment.ndim != 1:
        raise InputError(f"length mismatch: {assignment.shape} vs {labels.shape}")
    n = assignment.shape[0]
    if n == 0:
        raise InputError("nmi needs at least one point")
    table = _contingency(assignment, labels)
    pij = table / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    nz = pij > 0
    mi = float((pij[nz] * np.log(pij[nz] / np.outer(pi, pj)[nz])).sum())
    h_c = float(-(pi[pi > 0] * np.log(pi[pi > 0])).sum())
    h_l = float(-(pj[pj > 0] * np.log(pj[pj > 0])).sum())
    if h_c == 0.0 and h_l == 0.0:
        return 1.0
    if mi <= 0.0:
        return 0.0
    return mi / ((h_c + h_l) / 2.0)


def pairwise_f1(assignment, labels) -> float:
    """F1 over unordered point pairs: same-cluster as prediction of same-label.

    precision = |same cluster and same label| / |same cluster|,
    recall     = |same cluster and same label| / |same label|,
    with the 0/0 cases defined as 0.
    """
    assignment = np.asarray(assignment)
    labels = np.asarray(labels)
    if assignment.shape != labels.shape or assignment.ndim != 1:
        raise InputError(f"length mismatch: {assignment.shape} vs {labels.shape}")
    if assignment.shape[0] < 2:
        raise InputError("pairwise_f1 needs at least two points")
    table = _contingency(assignment, labels)

    def pairs(counts: np.ndarray) -> int:
        return int((counts * (counts - 1) // 2).sum())

    both = pairs(table.reshape(-1))
    same_cluster = pairs(table.sum(axis=1))
    same_label = pairs(table.sum(axis=0))
    precision = both / same_cluster if same_cluster else 0.0
    recall = both / same_label if same_label else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def recall_at_k(embeddings, labels, ks) -> dict[int, float]:
    """Fraction of queries with a same-label point among their K nearest.

    The query itself is excluded; remaining distance ties break by ascending
    sample index (stable sort), which makes duplicate points deterministic.
    """
    z = as_matrix(embeddings, "embeddings")
    labels = np.asarray(labels)
    n = z.shape[0]
    if labels.shape != (n,):
        raise InputError(f"labels shape {labels.shape} does not match {n} points")
    ks = sorted(int(k) for k in ks)
    if not ks or ks[0] < 1:
        raise InputError(f"K values must be positive, got {ks}")
    if ks[-1] >= n:
        raise InputError(f"K = {ks[-1]} must be smaller than the number of points {n}")
    dist = pairwise_distances(z)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")
    neighbor_labels = labels[order[:, : ks[-1]]]
    hits_prefix = neighbor_labels == labels[:, None]
    return {k: float(hits_prefix[:, :k].any(axis=1).mean()) for k in ks}


@dataclass
class EvalReport:
    """Clustering and retrieval scores for one embedding snapshot."""

    nmi: float
    f1: float
    recall_at: dict[int, float]
    num_test_points: int
    num_test_classes: int

    def to_dict(self) -> dict:
        return {
            "nmi": self.nmi,
            "f1": self.f1,
            "recall": {str(k): v for k, v in sorted(self.recall_at.items())},
            "num_test_points": self.num_test_points,
            "num_test_classes": self.num_test_classes,
        }


def evaluate_embeddings(embeddings, labels, ks=(1, 2, 4, 8), kmeans_seed: int = 0) -> EvalReport:
    """Cluster into as many groups as there are true classes, then score."""
    z = as_matrix(embeddings, "embeddings")
    labels = np.asarray(labels)
    classes = np.unique(labels)
    assignment = kmeans(z, len(classes), seed=kmeans_seed)
    return EvalReport(
        nmi=nmi(assignment, labels),
        f1=pairwise_f1(assignment, labels),
        recall_at=recall_at_k(z, labels, ks),
        num_test_points=z.shape[0],
        num_test_classes=len(classes),
    )


def save_metrics_json(report: EvalReport, path, extra: dict | None = None) -> None:
    payload = report.to_dict()
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def export_embeddings_csv(path, sample_ids, labels, embeddings) -> None:
    """Rows of `sample_id,label,z_0,...` with full-precision decimals."""
    z = as_matrix(embeddings, "embeddings")
    sample_ids = np.asarray(sample_ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    header = "sample_id,label," + ",".join(f"z_{i}" for i in range(z.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for sid, lab, row in zip(sample_ids, labels, z):
            fh.write(f"{sid},{lab}," + ",".join(repr(float(v)) for v in row) + "\n")
