"""Zero-shot evaluation: k-means clustering quality (NMI, pairwise F1) and
Recall@K retrieval over a frozen embedding snapshot.

All metrics depend only on pairwise distances and label/cluster identities,
so they are invariant to point order, cluster renaming, and rigid motions of
the embedding (up to nearest-neighbor ties, which break by ascending sample
index).

Ranking and clustering are defined on explicit-difference distances,
sqrt(sum((a - b)**2)), the arithmetic of `embedder.pairwise_distances`.
They are computed as |a|^2 - 2a.b + |b|^2 from matrix products over row
blocks of bounded size, which is off by at most a known rounding bound;
only the pairs that bound cannot order are recomputed from explicit
differences, so every result is bitwise the one the explicit definition
gives. No (n, n) or (n, k) matrix is ever held.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, check_nonnegative, check_positive
from .nn import as_matrix

_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
# a Gram entry or explicit squared distance is at most 2(|a|^2 + |b|^2): finite below this
_MAX_SQUARED_NORM = np.finfo(np.float64).max / 16
_BLOCK = 1 << 16  # float64 elements per temporary: a block of Gram rows or of explicit differences
KMEANS_MAX_ITER = 300


def _squared_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms; a row whose distances would be NaN or overflow raises."""
    sq = np.einsum("ij,ij->i", points, points)
    bad = np.flatnonzero(~(sq <= _MAX_SQUARED_NORM))
    if bad.size:
        raise NumericalError(f"embedding row {bad[0]} has squared norm {sq[bad[0]]}; its distances are not finite")
    return sq


def _gram_blocks(a, sq_a, b, sq_b):
    """Yields (start, stop, g, slack) over row blocks of at most _BLOCK entries:
    g = |a|^2 - 2a.b + |b|^2 for rows start:stop of a against all of b, from
    one matrix product, and a per-row slack s such that, for every pair,
    |Gram - explicit| <= s / 2 and two explicit squared distances with equal
    square roots differ by <= s / 2. The slack takes max|b|^2 over all of b.

    Why 4(d+2) eps S, with S = |a_i|^2 + max|b|^2 and u = eps/2: a d-term dot
    product or squared norm is off by at most d u times the sum of its term
    magnitudes, in any summation order, and sum|a_k b_k| <= S/2; the two
    additions add u of at most 2S each. So the Gram value is off by at most
    (2d + 4) u S = (d+2) eps S from the true squared distance D <= 2S. The
    explicit sum of d rounded squares of rounded differences is off by at most
    (d+2) u D <= (d+2) eps S. Together: 2(d+2) eps S <= s / 2. Square roots
    that round to one value come from squared values at most 2 eps of their
    size apart, <= 4 eps S < s / 2. The subnormal term covers products that
    underflow, which lose up to half the smallest subnormal each. Callers
    allow 2s: a Recall@K candidate needs s for two Gram-to-explicit gaps plus
    s / 2 for a collapsed square root, a k-means row s for two gaps, and the
    rest covers second-order rounding terms.
    """
    step, top = max(1, _BLOCK // len(b)), sq_b.max()
    for start in range(0, len(a), step):
        stop = min(start + step, len(a))
        g = a[start:stop] @ b.T
        g *= -2.0
        g += sq_a[start:stop, None]
        g += sq_b
        yield start, stop, g, 4 * (a.shape[1] + 2) * (_EPS * (sq_a[start:stop] + top) + _SUBNORMAL)


def _pair_sqdist(a, rows_a, b, rows_b) -> np.ndarray:
    """Explicit-difference squared distances |a[rows_a[i]] - b[rows_b[i]]|^2,
    summed exactly as `embedder.pairwise_distances` sums them, in blocks."""
    out = np.empty(len(rows_a))
    step = max(1, _BLOCK // a.shape[1])
    for start in range(0, len(rows_a), step):
        diff = a[rows_a[start : start + step]] - b[rows_b[start : start + step]]
        out[start : start + step] = (diff * diff).sum(axis=-1)
    return out


def kmeans(points, k: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted seeding, deterministic per seed.

    Iterates to an assignment fixpoint or KMEANS_MAX_ITER. Ties in assignment break
    toward the lowest center index; a cluster that empties is reseeded at
    the point currently farthest from its own center. Assignments are those
    of explicit-difference squared distances: the Gram argmin stands where
    its best center wins by more than the rounding bound, and the other rows
    are assigned from explicit differences.
    """
    pts = as_matrix(points, "points")
    n = pts.shape[0]
    check_positive("k", k)
    if k > n:
        raise InputError(f"k = {k} exceeds number of points {n}")
    check_nonnegative("k-means seed", seed)
    sq = _squared_norms(pts)
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
    for _ in range(KMEANS_MAX_ITER):
        new_assign = np.empty(n, dtype=np.intp)
        for start, stop, g, slack in _gram_blocks(pts, sq, centers, np.einsum("ij,ij->i", centers, centers)):
            new_assign[start:stop] = g.argmin(axis=1)
            if k > 1:
                best_two = np.partition(g, 1, axis=1)
                close = start + np.flatnonzero(best_two[:, 1] - best_two[:, 0] <= 2.0 * slack)
                if close.size:
                    exact = _pair_sqdist(pts, np.repeat(close, k), centers, np.tile(np.arange(k), close.size))
                    new_assign[close] = exact.reshape(-1, k).argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        if not counts.all():
            # the globally worst-fit point, measured against the centers before this update
            worst = int(_pair_sqdist(pts, np.arange(n), centers, assign).argmax())
        # each cluster's rows, ascending, as one contiguous slice of a stable sort
        members = pts[np.argsort(assign, kind="stable")]
        ends = np.cumsum(counts)
        for c in range(k):
            if counts[c]:
                centers[c] = members[ends[c] - counts[c] : ends[c]].mean(axis=0)
            else:
                centers[c] = pts[worst]
    return assign


def _contingency(assignment, labels, fewest: int) -> np.ndarray:
    """Cluster-by-label counts of at least `fewest` points; the assignment and the labels must pair up."""
    a, b = np.asarray(assignment), np.asarray(labels)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] < fewest:
        raise InputError(f"{a.shape[0]} points to score, at least {fewest} needed")
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
    table = _contingency(assignment, labels, 1)
    pij = table / table.sum()
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
    table = _contingency(assignment, labels, 2)

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


def _checked_labels(labels, n: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InputError(f"labels shape {labels.shape} does not match {n} points")
    return labels


def check_ks(name: str, ks, n: int | None = None) -> list[int]:
    """The K values of `name` in ascending order: at least one, each positive and, given n points, below n."""
    ks = sorted(int(k) for k in ks)
    if not ks:
        raise InputError(f"{name} must name at least one K")
    check_positive(name, ks[0])
    if n is not None and ks[-1] >= n:
        raise InputError(f"{name}: K = {ks[-1]} must be smaller than the number of points {n}")
    return ks


def recall_at_k(embeddings, labels, ks) -> dict[int, float]:
    """Fraction of queries with a same-label point among their K nearest.

    The query itself is excluded; remaining distance ties break by ascending
    sample index (stable sort), which makes duplicate points deterministic.
    Distances are explicit differences; the Gram matrix only picks, per
    query, the points that can rank among the K nearest or tie with them.
    """
    z = as_matrix(embeddings, "embeddings")
    n = z.shape[0]
    labels = _checked_labels(labels, n)
    ks = check_ks("ks", ks, n)
    sq = _squared_norms(z)
    first_hit = np.full(n, n)
    for start, stop, g, slack in _gram_blocks(z, sq, z, sq):
        own = np.arange(stop - start)
        g[own, start + own] = np.inf
        kth = np.partition(g, ks[-1] - 1, axis=1)[:, ks[-1] - 1]
        # holds every point that ranks among the K nearest by explicit distance, and its ties
        query, cand = np.nonzero(g <= (kth + 2.0 * slack)[:, None])
        query += start
        dist = np.sqrt(_pair_sqdist(z, query, z, cand))
        order = np.lexsort((cand, dist, query))
        query, cand = query[order], cand[order]
        rank = np.arange(query.size) - np.searchsorted(query, query)
        hit = labels[cand] == labels[query]
        rows, at = np.unique(query[hit], return_index=True)
        first_hit[rows] = rank[hit][at]
    return {k: float((first_hit < k).mean()) for k in ks}


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
    # both checks come before the clustering, which bad labels or a bad K would waste
    labels = _checked_labels(labels, z.shape[0])
    ks = check_ks("ks", ks, z.shape[0])
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
        for sid, lab, row in zip(sample_ids.tolist(), labels.tolist(), z.tolist()):
            fh.write(f"{sid},{lab}," + ",".join(map(repr, row)) + "\n")
