"""Zero-shot evaluation: k-means clustering quality (NMI, pairwise F1) and
Recall@K retrieval over a frozen embedding snapshot.

All metrics depend only on pairwise distances and label/cluster identities,
so they are invariant to point order, cluster renaming, and rigid motions of
the embedding (up to nearest-neighbor ties, which break by ascending sample
index).

Ranking and clustering are defined on explicit-difference distances,
sqrt(sum((a - b)**2)), the arithmetic of `embedder.pairwise_distances`.
Within each query row they are compared as |b|^2 - 2a.b, from matrix
products over centre-major tiles (k-means) or square tiles (Recall@K) of
bounded size, which is off by at most a known rounding bound; only the
pairs that bound cannot order are recomputed from explicit differences, so
every result is bitwise the one the explicit definition gives. No (n, n)
or (n, k) matrix is ever held.

Recall@K rests on one integer per query, the rank of its nearest
same-label point, so its work and memory do not depend on K. It computes
each Gram entry of a pair once, in one sweep over the upper triangle of
tiles, and `evaluate_embeddings` runs it on a worker thread beside k-means
where it spans more than one tile and more than one CPU is usable. Labels
may be integers, floats or strings that sort into classes; NaN is refused,
because it matches no label, not even itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import data
from .errors import InputError, NumericalError, check_nonnegative, check_positive
from .nn import as_int64, as_matrix

_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
# a Gram entry or explicit squared distance is at most 2(|a|^2 + |b|^2): finite below this
_MAX_SQUARED_NORM = np.finfo(np.float64).max / 16
_BLOCK = 1 << 16  # float64 elements per temporary: a Gram tile of k-means or Recall@K, or explicit differences
KMEANS_MAX_ITER = 300


def _squared_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms; a row whose distances would be NaN or overflow raises."""
    sq = np.einsum("ij,ij->i", points, points)
    bad = np.flatnonzero(~(sq <= _MAX_SQUARED_NORM))
    if bad.size:
        raise NumericalError(f"embedding row {bad[0]} has squared norm {sq[bad[0]]}; its distances are not finite")
    return sq


def _tile_side() -> int:
    """Rows and columns of a square Gram tile of at most _BLOCK entries."""
    return max(1, math.isqrt(_BLOCK))


def _slack(d: int, sq_a, top):
    """The rounding slack s of a Gram value g = |b|^2 - 2a.b in d dimensions, for rows a of squared norm
    sq_a against columns b of squared norm at most top: for every pair, |g + |a|^2 - explicit| <= s / 2,
    and two explicit squared distances with equal square roots differ by <= s / 2.

    The bound holds in any split and summation order, so it covers every Gram value here: the centre-major
    tiles of `kmeans`, k-means++ seeding, the class stacks of `_nearest_same_label` and the tiles of
    `_gram_tiles`. Entry (i, j) of z_I.(-2 z_J)^T plus |z_i|^2, which `recall_at_k` also reads, is row z_j
    against column z_i summed in another order, so row z_j's slack, over max|b|^2 of all points, covers it.

    Why 4(d+2) eps S, with S = |a_i|^2 + max|b|^2 and u = eps/2: a d-term dot product or squared norm is
    off by at most d u times the sum of its term magnitudes, in any summation order. b is scaled by -2
    once, which is exact, and sum|2 a_k b_k| <= S, so a.(-2b) is off by at most d u S and |b|^2 by d u S;
    the one addition adds u of at most 2S. So g + |a|^2 is off by at most (2d + 2) u S = (d+1) eps S from
    the true squared distance D <= 2S. The explicit sum of d rounded squares of rounded differences is off
    by at most (d+2) u D <= (d+2) eps S. Together: (2d+3) eps S <= s / 2. Square roots that round to one
    value come from squared values at most 2 eps of their size apart, <= 4 eps S < s / 2. The subnormal
    term covers products that underflow, which lose up to half the smallest subnormal each. Callers allow
    2s: a candidate for a query's nearest same-label point in Recall@K needs s for two Gram-to-explicit
    gaps plus s / 2 for a collapsed square root, a point counted as strictly closer or farther than that
    point s / 2 for one gap plus s / 2, a k-means row s for two gaps, and the rest covers second-order
    rounding terms and, where a caller adds a computed |a|^2 back, its d u |a|^2.
    """
    return 4 * (d + 2) * (_EPS * (sq_a + top) + _SUBNORMAL)


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

    Iterates to an assignment fixpoint or KMEANS_MAX_ITER. Ties in assignment break toward the lowest center
    index; a cluster that empties is reseeded at the point currently farthest from its own center. Assignments
    are those of explicit-difference squared distances. Each round sweeps tiles of the centre-major Gram
    product |c|^2 - 2c.p, width = min(k, _tile_side()) centers by _BLOCK // width rows, for each row's best two
    values: the Gram argmin stands where its best center wins by more than the rounding bound, and the other
    rows are assigned from explicit differences. Seeding keeps each row's explicit squared distance to its
    nearest center so far, and recomputes it only for the rows whose Gram value cannot rule out the new
    center. A center is recomputed only when its cluster gained or lost a row, or is empty.
    """
    pts = as_matrix(points, "points")
    n, d = pts.shape
    check_positive("k", k)
    if k > n:
        raise InputError(f"k = {k} exceeds number of points {n}")
    check_nonnegative("k-means seed", seed)
    sq = _squared_norms(pts)
    rng = np.random.default_rng(seed)

    centers = np.empty((k, d))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
        centers[c] = pts[idx]
        # |c|^2 - 2p.c + |p|^2 is within s of the explicit |p - c|^2 (see _slack; adding the
        # computed |p|^2 back costs far less than the margin), so where it exceeds d2 + 2s the explicit
        # value exceeds d2 and np.minimum keeps d2 bitwise; only the other rows take explicit differences
        near = np.flatnonzero(pts @ (-2.0 * centers[c]) + sq[idx] + sq <= d2 + 2.0 * _slack(d, sq, sq[idx]))
        d2[near] = np.minimum(d2[near], ((pts[near] - centers[c]) ** 2).sum(axis=1))

    # every row moves in round 1, so every cluster is stale: it gained rows or is empty (-1 marks the last)
    assign = np.full(n, -1, dtype=np.intp)
    width = min(k, _tile_side())
    step = _BLOCK // width
    for _ in range(KMEANS_MAX_ITER):
        new_assign = np.empty(n, dtype=np.intp)
        sq_c, scaled = np.einsum("ij,ij->i", centers, centers), -2.0 * centers
        for r0 in range(0, n, step):
            rows, best = pts[r0 : r0 + step].T, new_assign[r0 : r0 + step]
            # each row's best two Gram values over the tiles so far, from +inf: one centre leaves no row close
            first, second = np.full((2, len(best)), np.inf)
            for c0 in range(0, k, width):
                g = np.matmul(scaled[c0 : c0 + width], rows)
                g += sq_c[c0 : c0 + width, None]
                least = g.min(axis=0)
                at = (g == least).argmax(axis=0)  # the first centre at the minimum: argmin along axis 0 is slower
                # the tile's runner-up is its minimum once its best is masked; a tie keeps the earlier tile's centre
                g[at, np.arange(len(best))] = np.inf
                second = np.minimum(np.minimum(second, g.min(axis=0)), np.maximum(first, least))
                np.copyto(best, at + c0, where=least < first)
                first = np.minimum(first, least)
            close = r0 + np.flatnonzero(second - first <= 2.0 * _slack(d, sq[r0 : r0 + step], sq_c.max()))
            if close.size:
                exact = _pair_sqdist(pts, np.repeat(close, k), centers, np.tile(np.arange(k), close.size))
                new_assign[close] = exact.reshape(-1, k).argmin(axis=1)
        moved = new_assign != assign
        if not moved.any():
            break
        # a cluster whose rows stayed the same keeps its mean bitwise
        stale = np.zeros(k, dtype=bool)
        stale[assign[moved]] = stale[new_assign[moved]] = True
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        # an empty cluster moves to each round's worst-fit point, even where no row moved around it
        stale |= counts == 0
        if not counts.all():
            # the globally worst-fit point, measured against the centers before this update
            worst = int(_pair_sqdist(pts, np.arange(n), centers, assign).argmax())
        # each stale cluster's rows, ascending, as one contiguous slice of a stable sort
        rows = np.flatnonzero(stale[assign])
        members = pts[rows[np.argsort(assign[rows], kind="stable")]]
        ends = np.cumsum(counts * stale)
        for c in np.flatnonzero(stale):
            if counts[c]:
                centers[c] = members[ends[c] - counts[c] : ends[c]].mean(axis=0)
            else:
                centers[c] = pts[worst]
    return assign


def _checked_labels(labels, n: int) -> np.ndarray:
    """One label per point, of values that sort into classes. NaN is refused: it equals no label,
    itself included, yet sorts and counts as one class, so retrieval and clustering would read it two ways."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InputError(f"labels shape {labels.shape} does not match {n} points")
    if labels.dtype.kind in "fc":
        nan = np.flatnonzero(np.isnan(labels))
        if nan.size:
            raise InputError(f"labels must not be NaN, got NaN at point {nan[0]}")
    elif labels.dtype == object:
        try:
            np.unique(labels)
        except TypeError as err:
            raise InputError(f"labels must sort into classes: {err}") from None
    return labels


def _contingency(assignment, labels, fewest: int) -> np.ndarray:
    """Cluster-by-label counts of at least `fewest` points; the assignment and the labels must pair up."""
    a = np.asarray(assignment)
    if a.ndim != 1:
        raise InputError(f"assignment must be one-dimensional, got shape {a.shape}")
    b = _checked_labels(labels, a.shape[0])
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


def check_ks(name: str, ks, n: int | None = None) -> list[int]:
    """The K values of `name` in ascending order: at least one, each a positive integer and, given n points, below n."""
    ks = sorted(as_int64(list(ks), name).tolist())
    if not ks:
        raise InputError(f"{name} must name at least one K")
    check_positive(name, ks[0])
    if n is not None and ks[-1] >= n:
        raise InputError(f"{name}: K = {ks[-1]} must be smaller than the number of points {n}")
    return ks


def _nearest_same_label(z, sq, cls, slack):
    """Pass 1 of `recall_at_k`: each query's nearest same-label point, first by (distance, index).

    Returns (nearest, star, low, high): its explicit distance and index, and the band of 2s (`_slack`)
    around its explicit squared distance less |a|^2. A query without a same-label point keeps index -1 and
    the empty band low = high = -inf. Whole classes are taken together, grouped by size, so that a
    chunk of classes of one size is one stack of square Gram blocks of at most _BLOCK entries, class
    against class; a class larger than that is taken in blocks of its rows.
    """
    n = len(z)
    nearest, star = np.full(n, np.inf), np.full(n, -1)
    low, high = np.full(n, -np.inf), np.full(n, -np.inf)
    counts = np.bincount(cls)
    order = np.lexsort((cls, counts[cls]))  # by class size, then class, then index
    size = counts[cls[order]]
    start = 0
    while start < n:
        s = int(size[start])
        stop = min(start + s * max(1, _BLOCK // (s * s)), np.searchsorted(size, s, "right"))
        stack = order[start:stop].reshape(-1, s)
        a, sq_stack = z[stack], sq[stack][:, None, :]
        b = np.multiply(a.transpose(0, 2, 1), -2.0, order="C")  # contiguous: a transposed view halves matmul speed
        step = max(1, _BLOCK // (len(stack) * s))
        for lo in range(0, s, step):
            hi = min(lo + step, s)
            g = a[:, lo:hi] @ b
            g += sq_stack
            g[:, np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            # the nearest same-label point, first by (distance, index), lies within 2s of the row's same-label
            # Gram minimum; a query alone in its class finds only itself there, at inf, and stays a miss
            least = g.min(axis=2)
            cap = np.where(least < np.inf, least + 2.0 * slack[stack[:, lo:hi]], -np.inf)
            c, row, col = np.unravel_index(np.flatnonzero(g <= cap[..., None]), g.shape)
            query, col = stack[c, lo + row], stack[c, col]
            sq_dist = _pair_sqdist(z, query, z, col)
            dist = np.sqrt(sq_dist)
            first = np.lexsort((col, dist, query))
            first = first[np.unique(query[first], return_index=True)[1]]
            hit = query[first]
            nearest[hit], star[hit] = dist[first], col[first]
            centre, band = sq_dist[first] - sq[hit], 2.0 * slack[hit]
            low[hit], high[hit] = centre - band, centre + band
        start = stop
    return nearest, star, low, high


def _gram_tiles(z):
    """Yields (i, j, g) over the upper triangle of square tiles of at most _BLOCK entries:
    g = z[i] @ (-2 z[j]).T for row slices i and j, i at or before j, every pair of slices once.
    The rows i against the columns j read g + |z_j|^2; the rows j against the columns i read
    g.T + |z_i|^2, a product of the same two rows in another order, which `_slack` covers.
    Each g is one buffer, written over by the next tile."""
    n, side = len(z), _tile_side()
    b = -2.0 * z
    buffer = np.empty(min(n, side) ** 2)
    for i in range(0, n, side):
        for j in range(i, n, side):
            rows, cols = z[i : i + side], b[j : j + side]
            g = buffer[: len(rows) * len(cols)].reshape(len(rows), len(cols))
            yield slice(i, i + side), slice(j, j + side), np.matmul(rows, cols.T, out=g)


def _ahead(z, inside, nearest, star):
    """Counts, per query, the band entries of `inside` (emptied) whose point comes before the query's
    nearest same-label point (`nearest`, `star`) by explicit (distance, index). An entry is a tile side's
    flat positions, query and point starts, tile width and whether its queries are rows. No same-label
    point comes before the nearest one, so no label is read, and the nearest one takes no difference."""
    pos, *scalars = zip(*inside)
    inside.clear()
    q0, p0, width, by_row = np.repeat(np.array(scalars), [len(p) for p in pos], axis=1)
    major, minor = np.divmod(np.concatenate(pos), width)
    query, point = q0 + np.where(by_row, major, minor), p0 + np.where(by_row, minor, major)
    other = point != star[query]
    if not other.any():  # as usual, each band held its nearest point alone
        return 0
    query, point = query[other], point[other]
    dist = np.sqrt(_pair_sqdist(z, query, z, point))
    ahead = (dist < nearest[query]) | ((dist == nearest[query]) & (point < star[query]))
    return np.bincount(query[ahead], minlength=len(z))


def recall_at_k(embeddings, labels, ks) -> dict[int, float]:
    """Fraction of queries with a same-label point among their K nearest.

    The query itself is excluded; distance ties break by ascending sample index. Each query is reduced
    to first_hit, the number of points ranked before its nearest same-label point, so Recall@K is the
    share of queries with first_hit < K, for every K at once; a query without a same-label point is
    never a hit.

    Pass 1 (`_nearest_same_label`) finds each query's nearest same-label point from explicit
    differences, and the band of 2s around its squared distance. Pass 2 sweeps the upper triangle of
    Gram tiles (`_gram_tiles`) once, each side's rows against the other's columns: it counts the Gram
    values below each query's band (strictly closer points) and keeps those inside it for `_ahead`.
    """
    z = as_matrix(embeddings, "embeddings")
    n = z.shape[0]
    labels = _checked_labels(labels, n)
    ks = check_ks("ks", ks, n)
    sq = _squared_norms(z)
    slack = _slack(z.shape[1], sq, sq.max())
    _, cls = np.unique(labels, return_inverse=True)
    nearest, star, low, high = _nearest_same_label(z, sq, cls, slack)
    # a Gram value more than 2s below (above) the nearest one's explicit d^2, less |a|^2, is a point strictly
    # closer (farther); a row without one counts nothing. Band entries are settled once n are kept
    closer, inside, kept, settled = np.zeros(n, dtype=np.intp), [], 0, False
    for i, j, g in _gram_tiles(z):
        if kept >= n:
            closer += _ahead(z, inside, nearest, star)
            kept, settled = 0, True
        if j != i:  # the rows j against the columns i, from the same products
            t = g + sq[i, None]
            near = np.flatnonzero(t <= high[j])
            query = near % t.shape[1]
            below = t.ravel()[near] < low[j][query]
            closer[j] += np.bincount(query[below], minlength=t.shape[1])
            inside.append((near[~below], j.start, i.start, t.shape[1], False))
            kept += len(inside[-1][0])
        g += sq[j]
        if j == i:
            np.fill_diagonal(g, np.inf)
        near = np.flatnonzero(g <= high[i, None])
        query = near // g.shape[1]
        below = g.ravel()[near] < low[i][query]
        closer[i] += np.bincount(query[below], minlength=g.shape[0])
        inside.append((near[~below], i.start, j.start, g.shape[1], True))
        kept += len(inside[-1][0])
    hit = star >= 0
    # each band holds its query's nearest same-label point, so with nothing settled and no other entry kept
    # there is nothing to order
    if settled or kept > np.count_nonzero(hit):
        closer += _ahead(z, inside, nearest, star)
    first_hit = np.full(n, n)
    first_hit[hit] = closer[hit]
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
    """Cluster into as many groups as there are true classes, then score.

    Where the Recall@K sweep has more than one tile and more than one CPU is
    usable (the rule of `data.write_rows`), `recall_at_k` runs on one worker
    thread while this thread clusters and scores the clusters; otherwise it
    runs here, after them. The worker is joined on every exit, and an
    exception it raised is raised here. The report is the same either way.
    """
    z = as_matrix(embeddings, "embeddings")
    # both checks come before the clustering, which bad labels or a bad K would waste
    labels = _checked_labels(labels, z.shape[0])
    ks = check_ks("ks", ks, z.shape[0])
    classes = np.unique(labels)
    retrieval = {}

    def score_retrieval():
        retrieval["recall"] = recall_at_k(z, labels, ks)

    with data._beside(score_retrieval, z.shape[0] > _tile_side(), "hardmetric-recall"):
        assignment = kmeans(z, len(classes), seed=kmeans_seed)
        scores = nmi(assignment, labels), pairwise_f1(assignment, labels)
    return EvalReport(
        nmi=scores[0],
        f1=scores[1],
        recall_at=retrieval["recall"],
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
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        data.write_rows(fh, [sample_ids, labels], z)
