import itertools
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hardmetric import data, evaluation
from hardmetric.embedder import pairwise_distances
from hardmetric.errors import InputError, NumericalError
from hardmetric.evaluation import (
    EvalReport,
    evaluate_embeddings,
    export_embeddings_csv,
    kmeans,
    nmi,
    pairwise_f1,
    recall_at_k,
    save_metrics_json,
)


def nmi_oracle(assignment, labels):
    """Contingency-table MI and entropies computed with explicit loops."""
    n = len(assignment)
    clusters = sorted(set(assignment))
    classes = sorted(set(labels))
    mi = 0.0
    for c in clusters:
        for l in classes:
            nij = sum(1 for a, b in zip(assignment, labels) if a == c and b == l)
            if nij == 0:
                continue
            ni = sum(1 for a in assignment if a == c)
            nj = sum(1 for b in labels if b == l)
            mi += (nij / n) * math.log((nij / n) / ((ni / n) * (nj / n)))
    def entropy(values):
        out = 0.0
        for v in set(values):
            p = sum(1 for x in values if x == v) / n
            out -= p * math.log(p)
        return out
    h_c, h_l = entropy(assignment), entropy(labels)
    if h_c == 0 and h_l == 0:
        return 1.0
    if mi <= 0:
        return 0.0
    return mi / ((h_c + h_l) / 2)


def f1_oracle(assignment, labels):
    """All unordered pairs, counted one by one."""
    tp = pred = actual = 0
    for i, j in itertools.combinations(range(len(labels)), 2):
        same_c = assignment[i] == assignment[j]
        same_l = labels[i] == labels[j]
        pred += same_c
        actual += same_l
        tp += same_c and same_l
    precision = tp / pred if pred else 0.0
    recall = tp / actual if actual else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


class TestKmeans:
    def test_k_equals_n_gives_singletons(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        assign = kmeans(pts, 6, seed=1)
        assert len(set(assign.tolist())) == 6
        # inertia zero: every point is its own center
        for c in range(6):
            members = pts[assign == c]
            assert np.allclose(members, members.mean(axis=0))

    def test_two_separated_blobs_recovered_exactly(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.normal(size=(5, 2)) + [50.0, 0.0], rng.normal(size=(5, 2)) - [50.0, 0.0]])
        truth = np.repeat([0, 1], 5)
        assign = kmeans(pts, 2, seed=0)
        # equality up to relabeling, checked exhaustively on this 10-point instance
        direct = np.array_equal(assign, truth)
        flipped = np.array_equal(1 - assign, truth)
        assert direct or flipped

    def test_duplicates_land_together(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
        assign = kmeans(pts, 2, seed=3)
        assert assign[0] == assign[1]
        assert assign[2] == assign[3]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 4))
        assert np.array_equal(kmeans(pts, 5, seed=7), kmeans(pts, 5, seed=7))

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="k-means seed must be nonnegative, got -1"):
            kmeans(np.zeros((3, 2)), 2, seed=-1)

    def test_bad_k_rejected(self):
        with pytest.raises(InputError):
            kmeans(np.zeros((3, 2)), 0, seed=0)
        with pytest.raises(InputError):
            kmeans(np.zeros((3, 2)), 4, seed=0)


class TestNmi:
    def test_perfect_clustering(self):
        assert abs(nmi([0, 0, 1, 1, 2], [5, 5, 9, 9, 7]) - 1.0) < 1e-12

    def test_single_cluster_over_two_classes(self):
        assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_fixed_instance_matches_contingency_oracle(self):
        assignment = [1, 1, 1, 2]
        labels = [0, 0, 1, 1]
        expected = nmi_oracle(assignment, labels)
        assert abs(nmi(assignment, labels) - expected) < 1e-12
        # frozen from the oracle above
        assert abs(expected - 0.3437110184854507) < 1e-12

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            assignment = rng.integers(0, 4, size=n).tolist()
            labels = rng.integers(0, 3, size=n).tolist()
            assert abs(nmi(assignment, labels) - nmi_oracle(assignment, labels)) < 1e-10

    def test_degenerate_both_constant(self):
        assert nmi([0, 0, 0], [4, 4, 4]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            nmi([0, 1], [0, 1, 2])

    def test_invariant_to_renaming(self):
        assignment = [0, 0, 1, 2, 2, 1]
        labels = [1, 1, 0, 0, 1, 0]
        renamed = [9, 9, 4, 7, 7, 4]
        assert abs(nmi(assignment, labels) - nmi(renamed, labels)) < 1e-12


class TestPairwiseF1:
    def test_perfect_clustering(self):
        assert pairwise_f1([0, 0, 1, 1], [7, 7, 3, 3]) == 1.0

    def test_everything_in_one_cluster(self):
        # precision 2/6, recall 1 -> F1 = 0.5, enumerated by the pair-loop oracle
        assignment = [0, 0, 0, 0]
        labels = [0, 0, 1, 1]
        assert abs(pairwise_f1(assignment, labels) - 0.5) < 1e-12
        assert abs(pairwise_f1(assignment, labels) - f1_oracle(assignment, labels)) < 1e-12

    def test_all_singletons_give_zero(self):
        assert pairwise_f1([0, 1, 2, 3], [0, 0, 1, 1]) == 0.0

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            assignment = rng.integers(0, 4, size=n).tolist()
            labels = rng.integers(0, 3, size=n).tolist()
            assert abs(pairwise_f1(assignment, labels) - f1_oracle(assignment, labels)) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        assignment = rng.integers(0, 3, size=15)
        labels = rng.integers(0, 3, size=15)
        perm = rng.permutation(15)
        assert pairwise_f1(assignment, labels) == pairwise_f1(assignment[perm], labels[perm])


class TestRecallAtK:
    def test_two_tight_pairs(self):
        z = np.array([[0.0], [0.1], [5.0], [5.1]])
        labels = [0, 0, 1, 1]
        assert recall_at_k(z, labels, [1])[1] == 1.0

    def test_interleaved_line(self):
        z = np.array([[0.0], [1.0], [2.0]])
        labels = [0, 1, 0]
        # hand audit: 0's NN is 1 (wrong class), 1's NN ties at distance 1 and
        # breaks to index 0 (wrong class), 2's NN is 1 (wrong class)
        assert recall_at_k(z, labels, [1])[1] == 0.0

    def test_k_covering_everything(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(10, 3))
        labels = np.repeat(np.arange(5), 2)
        assert recall_at_k(z, labels, [9])[9] == 1.0

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(20, 4))
        labels = rng.integers(0, 4, size=20)
        rec = recall_at_k(z, labels, [1, 2, 4, 8])
        values = [rec[k] for k in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_duplicate_points_tie_break_by_index(self):
        z = np.array([[0.0], [0.0], [0.0]])
        labels = [0, 1, 0]
        rec = recall_at_k(z, labels, [1])
        # query 0 picks index 1 (distance ties, lowest index first): miss;
        # query 1 picks index 0: miss; query 2 picks index 0: hit
        assert abs(rec[1] - 1.0 / 3.0) < 1e-12

    def test_k_too_large_rejected(self):
        with pytest.raises(InputError):
            recall_at_k(np.zeros((3, 2)), [0, 1, 0], [3])

    @pytest.mark.parametrize(
        "call",
        [recall_at_k, lambda z, labels, ks: evaluate_embeddings(z, labels, ks=ks)],
        ids=["recall_at_k", "evaluate_embeddings"],
    )
    def test_k_the_integer_cast_would_change_rejected(self, call):
        z = np.random.default_rng(17).normal(size=(10, 3))
        labels = np.arange(10) % 3
        for ks in ([1.5, 2.9], [1, 2**70]):
            with pytest.raises(InputError, match="ks must be integers"):
                call(z, labels, ks)
        # a K that the cast leaves unchanged is that K
        assert call(z, labels, [2.0]) == call(z, labels, [2])

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(15, 4))
        labels = rng.integers(0, 3, size=15)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        moved = z @ q.T + rng.normal(size=4)
        assert recall_at_k(z, labels, [1, 3]) == recall_at_k(moved, labels, [1, 3])


# six points in three tight pairs: k-means and NMI would count a NaN pair as one class, Recall@K would never match it
_PAIRS = np.array([[0.0], [0.1], [5.0], [5.1], [9.0], [9.1]])


@pytest.mark.parametrize(
    "call",
    [
        lambda labels: recall_at_k(_PAIRS, labels, [1]),
        lambda labels: evaluate_embeddings(_PAIRS, labels, ks=(1,)),
        lambda labels: nmi([0, 0, 1, 1, 2, 2], labels),
        lambda labels: pairwise_f1([0, 0, 1, 1, 2, 2], labels),
    ],
    ids=["recall_at_k", "evaluate_embeddings", "nmi", "pairwise_f1"],
)
def test_nan_or_unsortable_labels_are_refused(call):
    with pytest.raises(InputError, match="labels must not be NaN, got NaN at point 4"):
        call(np.array([0.0, 0.0, 1.0, 1.0, np.nan, np.nan]))
    with pytest.raises(InputError, match="labels must sort into classes: '<' not supported"):
        call(np.array([1, "a", 1, "a", 2, 2], dtype=object))


@pytest.mark.parametrize(
    "labels",
    [[3, 3, -1, -1, 7, 7], [0.5, 0.5, -2.0, -2.0, 1e9, 1e9], ["pear", "pear", "fig", "fig", "apple", "apple"]],
    ids=["int", "float", "str"],
)
def test_integer_float_and_string_labels_score_alike(labels):
    report = evaluate_embeddings(_PAIRS, labels, ks=(1, 2))
    assert (report.nmi, report.f1, report.recall_at, report.num_test_classes) == (1.0, 1.0, {1: 1.0, 2: 1.0}, 3)


class TestReportAndExport:
    def test_report_serialization_shape(self, tmp_path):
        rng = np.random.default_rng(9)
        z = np.vstack([rng.normal(size=(8, 3)) + 20.0, rng.normal(size=(8, 3)) - 20.0])
        labels = np.repeat([0, 1], 8)
        report = evaluate_embeddings(z, labels, ks=(1, 2), kmeans_seed=0)
        assert isinstance(report, EvalReport)
        assert 0.0 <= report.nmi <= 1.0 and 0.0 <= report.f1 <= 1.0
        path = tmp_path / "metrics.json"
        save_metrics_json(report, path, extra={"kmeans_seed": 0})
        import json

        payload = json.loads(path.read_text())
        assert set(payload) >= {"nmi", "f1", "recall"}
        assert list(payload["recall"]) == ["1", "2"]

    def test_embeddings_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(5, 4))
        path = tmp_path / "emb.csv"
        export_embeddings_csv(path, np.arange(5), [0, 1, 0, 1, 1], z)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,label,z_0,z_1,z_2,z_3"
        parsed = np.array([[float(v) for v in line.split(",")[2:]] for line in lines[1:]])
        assert np.array_equal(parsed, z)

    @pytest.mark.parametrize("block", [None, 15], ids=["one-block", "blocks-of-3-3-1-rows"])
    def test_embeddings_csv_matches_the_per_value_formatter(self, tmp_path, monkeypatch, block):
        # reference: repr of each numpy value converted to float one at a time
        row = [-0.0, 5e-324, 1e-300, 0.1, 1e16]
        z = np.array([np.roll(row, i) for i in range(7)])
        ids, labels = np.array([7, 3, 12, 0, 9, 4, 5]), np.array([1, 0, 3, 2, 5, 4, 6])
        if block:
            monkeypatch.setattr(data, "_WRITE_BLOCK", block)
            monkeypatch.setattr(data, "_WORKER_VALUES", block)
        export_embeddings_csv(tmp_path / "emb.csv", ids, labels, z)
        expected = "sample_id,label,z_0,z_1,z_2,z_3,z_4\n" + "".join(
            f"{sid},{lab}," + ",".join(repr(float(v)) for v in values) + "\n" for sid, lab, values in zip(ids, labels, z)
        )
        assert (tmp_path / "emb.csv").read_bytes() == expected.encode("utf-8")


def recall_reference(z, labels, ks):
    """Recall@K from the full stable argsort of explicit-difference distances."""
    labels = np.asarray(labels)
    dist = pairwise_distances(z)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")
    hits = labels[order[:, : max(ks)]] == labels[:, None]
    return {k: float(hits[:, :k].any(axis=1).mean()) for k in sorted(ks)}


def kmeans_reference(pts, k, seed, max_iter=300):
    """Lloyd's algorithm with the (n, k, d) explicit-difference assignment."""
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
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
                centers[c] = pts[int(dist2[np.arange(n), assign].argmax())]
    return assign


def _grid(side, dim):
    axes = np.meshgrid(*[np.arange(float(side))] * dim, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dim)


def _tied_stars(stars=12, dim=4, offset=1e6, seed=13):
    """Star centres with 2*dim neighbours at exactly tied distance 1. Only the
    lowest-index neighbour shares the centre's label, so a Recall@K that drops
    a tied neighbour, or breaks the tie out of index order, misses."""
    rng = np.random.default_rng(seed)
    centres = offset + 100.0 * rng.permutation(stars)[:, None] + rng.uniform(0.0, 1.0, size=(stars, dim))
    steps = np.vstack([np.eye(dim), -np.eye(dim)])
    pts = np.concatenate([np.vstack([c, c + steps]) for c in centres])
    labels = np.concatenate([[s, s] + [(s + 1) % stars] * (2 * dim - 1) for s in range(stars)])
    return pts, labels


def _far_blobs(blobs=6, per_blob=20, dim=4, offset=1e8, seed=22):
    rng = np.random.default_rng(seed)
    labels = np.arange(blobs * per_blob) % blobs
    return offset + 100.0 * rng.normal(size=(blobs, dim))[labels] + rng.normal(size=(len(labels), dim)), labels


def _tied_across_labels(dim=3, offset=1e6):
    """Seven motifs 100 apart of a query q, its only same-label point s and an other-label point o, both at
    exactly distance 1 from q. In even motifs o has the lower index and so ranks first; in odd ones the
    higher, and ranks after s. o's label (50 or -50) sorts after q's in even motifs and before it in odd ones,
    so that class order runs against index order in both; the odd count keeps a tie broken by class order
    from leaving the mean unchanged."""
    pts, labels = [], []
    unit = np.eye(dim)[1]
    for m, own in enumerate([-2, 7, 3, -5, 11, 0, -9]):
        q = offset + 100.0 * m * np.eye(dim)[0]
        if m % 2 == 0:
            pts += [q + unit, q, q - unit]
            labels += [50, own, own]
        else:
            pts += [q - unit, q, q + unit]
            labels += [own, own, -50]
    return np.array(pts), np.array(labels)


def _exactness_cases():
    rng = np.random.default_rng(11)
    grid = _grid(4, 3)
    singles = rng.integers(0, 6, size=50)
    singles[::6] = 100 + np.arange(9)
    return {
        "tied-stars": _tied_stars(),
        # integer lattice: many exactly tied distances to points and centres
        "tie-heavy-grid": (np.vstack([grid, grid[::5]]), np.arange(len(grid) + 13) % 7),
        "duplicated-points": (np.repeat(rng.normal(size=(15, 5)), 4, axis=0), np.repeat(np.arange(5), 12)),
        # |z|^2 ~ 1e12 * dim against squared distances ~ 1: the worst Gram cancellation
        "large-offset": (rng.normal(size=(120, 6)) + 1e6, rng.integers(0, 6, size=120)),
        "offset-grid": (np.vstack([grid, grid]) * 0.25 + 1e5, np.arange(2 * len(grid)) % 5),
        "gaussian": (rng.normal(size=(200, 16)), rng.integers(0, 8, size=200)),
        # |z|^2 ~ 4e16: the Gram rounding (~20) swamps squared distances within a blob (~8), so seeding and
        # Lloyd must take those rows from explicit differences, while the rows of other blobs are pruned
        "far-blobs": _far_blobs(),
        # every sixth query is alone in its class, so it has no same-label point and is never a hit
        "singleton-classes": (rng.normal(size=(50, 6)), singles),
        # unsorted label values, negative ones among them, and string labels
        "scattered-labels": (rng.normal(size=(90, 5)), rng.choice([-7, 12, -1, 3, 40, -30], size=90)),
        "string-labels": (rng.normal(size=(40, 3)), rng.choice(["pear", "fig", "apple", "date"], size=40)),
        "tied-across-labels": _tied_across_labels(),
    }


class _PairSpy:
    """Records the row arguments of every explicit-difference call."""

    def __init__(self, monkeypatch):
        self.calls = []
        self._inner = evaluation._pair_sqdist
        monkeypatch.setattr(evaluation, "_pair_sqdist", self)

    def __call__(self, a, rows_a, b, rows_b):
        self.calls.append((np.asarray(rows_a).copy(), np.asarray(rows_b).copy()))
        return self._inner(a, rows_a, b, rows_b)

    def pairs(self):
        return {(int(i), int(j)) for rows_a, rows_b in self.calls for i, j in zip(rows_a, rows_b)}


def _exact_ties(z, labels):
    """Every (query, point) pair at exactly the distance of the query's nearest same-label point."""
    labels = np.asarray(labels)
    dist = pairwise_distances(z)
    np.fill_diagonal(dist, np.inf)
    nearest = np.where(labels[:, None] == labels[None, :], dist, np.inf).min(axis=1)
    query, point = np.nonzero((dist == nearest[:, None]) & (nearest < np.inf)[:, None])
    return set(zip(query.tolist(), point.tolist()))


def _assert_ties_explicit_and_every_k_exact(z, labels, spy, case):
    # the first same-label hit and every point exactly tied with it came from explicit differences
    ties = _exact_ties(z, labels)
    assert ties <= spy.pairs()
    if case in ("tie-heavy-grid", "duplicated-points", "tied-across-labels"):
        assert len(ties) > len({query for query, _ in ties}), "no query had an exact tie to resolve"
    every = range(1, len(z))
    assert recall_at_k(z, labels, every) == recall_reference(z, labels, every)


@pytest.mark.parametrize("case", list(_exactness_cases()))
class TestGramExactness:
    def test_recall_equals_the_explicit_argsort(self, case, monkeypatch):
        z, labels = _exactness_cases()[case]
        spy = _PairSpy(monkeypatch)
        ks = [1, 2, 4, 8]
        assert recall_at_k(z, labels, ks) == recall_reference(z, labels, ks)
        _assert_ties_explicit_and_every_k_exact(z, labels, spy, case)

    def test_kmeans_equals_the_explicit_assignment(self, case, monkeypatch):
        z, labels = _exactness_cases()[case]
        spy = _PairSpy(monkeypatch)
        k = len(np.unique(labels))
        for seed in range(3):
            for clusters in (k, 2 * k):
                assert np.array_equal(kmeans(z, clusters, seed), kmeans_reference(z, clusters, seed))
        n = len(z)
        fallback = [rows for rows, _ in spy.calls if not np.array_equal(rows, np.arange(n))]
        if case == "tie-heavy-grid":
            assert fallback, "no row took the explicit-difference assignment"


_RESEED_CASES = pytest.mark.parametrize(
    "pts, k, seed",
    [
        # three distinct locations, four clusters: seeding runs out of distance
        # mass, the fourth centre duplicates one of the first three and loses every tie
        (np.repeat(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]), 4, axis=0), 4, 0),
        # a centre of two points loses both to its moving neighbours in the second round
        (np.array([[8.7], [7.2], [4.5], [4.6], [4.0], [4.0], [1.4], [7.3]]), 3, 0),
        # 22 clusters of 24 points on a 0.1 grid: seeding repeats centres, seven clusters stay empty round after
        # round while the worst-fit point alternates between rows 0 and 1, and the assignment cycles to the last round
        (np.array([-0.8, 0.7, -0.1, 0.7, 0.2, 0.3, -0.8, -0.3, -0.7, -0.8, 1.2, -0.9,
                   -0.2, -1.0, -0.6, -0.7, -0.7, -0.2, 0.7, 1.2, 0.3, -1.1, -0.4, 0.6])[:, None], 22, 3),
    ],
    ids=["duplicate-centre", "stolen-members", "empty-for-many-rounds"],
)


@_RESEED_CASES
def test_kmeans_reseed_of_an_emptied_cluster_matches_the_reference(monkeypatch, pts, k, seed):
    spy = _PairSpy(monkeypatch)
    assert np.array_equal(kmeans(pts, k, seed), kmeans_reference(pts, k, seed))
    reseeds = [rows for rows, _ in spy.calls if np.array_equal(rows, np.arange(len(pts)))]
    assert reseeds, "no cluster emptied"


def _address(array):
    return array.__array_interface__["data"][0]


class _NumpyWith:
    """The numpy module with some of its functions replaced, for a module under test to import as `np`."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(np, name)


class _CentreTileSpy:
    """Forces k-means tiles of at most `side` centres by side * side // width rows, and records every tile that
    `kmeans` serves as (first centre, centres, first row, rows), read from where its two operands lie: the
    centres are a slice of the round's scaled centres, the rows a transposed slice of `points`."""

    def __init__(self, monkeypatch, side, points):
        self.side, self.points, self.tiles = side, points, []
        monkeypatch.setattr(evaluation, "_BLOCK", side * side)
        monkeypatch.setattr(evaluation, "np", _NumpyWith(matmul=self.matmul))

    def matmul(self, centres, rows):
        assert np.shares_memory(rows, self.points), "a k-means tile took rows that are not the points"
        c0 = (_address(centres) - _address(centres.base)) // centres.strides[0]
        r0 = (_address(rows) - _address(self.points)) // self.points.strides[0]
        self.tiles.append((c0, len(centres), r0, rows.shape[1]))
        return np.matmul(centres, rows)

    def assert_swept(self, k):
        """Each round served every (row, centre) pair once, in tiles of at most min(k, side) centres by
        side * side // width rows; returns the number of centre tiles per round."""
        n, width = len(self.points), min(k, self.side)
        starts = [i for i, (c0, _, r0, _) in enumerate(self.tiles) if c0 == r0 == 0]
        assert starts and starts[0] == 0
        for start, stop in zip(starts, starts[1:] + [len(self.tiles)]):
            served = np.zeros((k, n), dtype=int)
            for c0, centres, r0, rows in self.tiles[start:stop]:
                assert centres <= width and rows <= self.side * self.side // width
                served[c0 : c0 + centres, r0 : r0 + rows] += 1
            assert (served == 1).all(), "a round left a (row, centre) pair out or served it twice"
        swept, self.tiles = len({c0 for c0, *_ in self.tiles}), []
        return swept


class _TileSpy:
    """Forces square Gram tiles of `side` rows and columns and records every tile served."""

    def __init__(self, monkeypatch, side):
        self.side, self.tiles = side, []
        self._inner = evaluation._gram_tiles
        monkeypatch.setattr(evaluation, "_BLOCK", side * side)
        monkeypatch.setattr(evaluation, "_gram_tiles", self)

    def __call__(self, z):
        for i, j, g in self._inner(z):
            self.tiles.append((i.start, j.start, g.shape))
            yield i, j, g

    def assert_swept(self, n):
        # every unordered pair of row slices once, in order: diagonal tiles, transposed ones and short last ones
        starts = range(0, n, self.side)
        shape = {i: min(self.side, n - i) for i in starts}
        assert self.tiles == [(i, j, (shape[i], shape[j])) for i in starts for j in starts if i <= j]


@pytest.mark.parametrize("side", [1, 13], ids=["tiles-of-1", "tiles-of-13"])
@pytest.mark.parametrize("case", list(_exactness_cases()))
class TestGramExactnessAcrossTiles:
    def test_recall_equals_the_explicit_argsort(self, case, side, monkeypatch):
        z, labels = _exactness_cases()[case]
        assert len(z) % 13, "tiles of 13 must leave a short last tile"
        tiles, spy = _TileSpy(monkeypatch, side), _PairSpy(monkeypatch)
        ks = [1, 2, 4, 8]
        assert recall_at_k(z, labels, ks) == recall_reference(z, labels, ks)
        tiles.assert_swept(len(z))
        _assert_ties_explicit_and_every_k_exact(z, labels, spy, case)


def _duplicated_under_another_label(n=600, seed=23):
    """n / 2 points of overlapping blobs and a copy of each under the next label: every same-label point of a
    query has an other-label copy at exactly its distance, which ranks before it when its index is lower."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n // 2) % 12
    half = 0.5 * rng.normal(size=(12, 8))[labels] + rng.normal(size=(n // 2, 8))
    return np.vstack([half, half]), np.concatenate([labels, (labels + 1) % 12])


@pytest.mark.parametrize("side", [None, 1, 13], ids=["default-tiles", "tiles-of-1", "tiles-of-13"])
def test_recall_with_every_point_duplicated_under_another_label(side, monkeypatch):
    z, labels = _duplicated_under_another_label()
    tiles = _TileSpy(monkeypatch, side) if side else None
    spy = _PairSpy(monkeypatch)
    every = range(1, len(z))
    assert recall_at_k(z, labels, every) == recall_reference(z, labels, every)
    ties = _exact_ties(z, labels)
    assert len(ties) > len({query for query, _ in ties}), "no query had an exact tie to resolve"
    assert ties <= spy.pairs()
    if tiles:
        tiles.assert_swept(len(z))


def _pairs_far_apart(pairs=20, dim=4):
    """Pairs 100 apart, each of one label, its two points about 1 apart: each band holds its nearest point."""
    rng = np.random.default_rng(24)
    centres = 100.0 * np.arange(pairs)[:, None] * np.eye(dim)[0] + rng.normal(size=(pairs, dim))
    return np.repeat(centres, 2, axis=0) + 0.5 * rng.normal(size=(2 * pairs, dim)), np.repeat(np.arange(pairs), 2)


# query 1's nearest same-label point, 2, ties with 0 of another label at distance 1, and 0 is alone in its
# class: three band entries for three queries, one of them ahead of its query's nearest point
_TIE_BESIDE_A_SINGLETON = (np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), np.array([5, 3, 3]))


@pytest.mark.parametrize(
    "case, decodes",
    [
        (_pairs_far_apart(), False),
        (_TIE_BESIDE_A_SINGLETON, True),
        (_duplicated_under_another_label(), True),
    ],
    ids=["nearest-points-alone", "tie-beside-a-singleton", "duplicated-under-another-label"],
)
def test_band_entries_are_decoded_only_when_a_band_holds_another_point(case, decodes, monkeypatch):
    z, labels = case
    decoded, ahead = [], evaluation._ahead
    monkeypatch.setattr(evaluation, "_ahead", lambda *args: decoded.append(True) or ahead(*args))
    every = range(1, len(z))
    assert recall_at_k(z, labels, every) == recall_reference(z, labels, every)
    assert bool(decoded) == decodes


# side 13 sweeps several centre tiles where 2k > 13; side 4 does so in every case, the rounding-heavy ones included
@pytest.mark.parametrize("side", [4, 13], ids=["tiles-of-4", "tiles-of-13"])
@pytest.mark.parametrize("case", list(_exactness_cases()))
class TestGramExactnessAcrossCentreTiles:
    def test_kmeans_equals_the_explicit_assignment(self, case, side, monkeypatch):
        z, labels = _exactness_cases()[case]
        tiles, spy = _CentreTileSpy(monkeypatch, side, z), _PairSpy(monkeypatch)
        k = len(np.unique(labels))
        for seed in range(3):
            for clusters in (k, 2 * k):
                assert np.array_equal(kmeans(z, clusters, seed), kmeans_reference(z, clusters, seed))
                assert tiles.assert_swept(clusters) == -(-clusters // side)
        fallback = [query for query, _ in spy.calls if not np.array_equal(query, np.arange(len(z)))]
        if case == "tie-heavy-grid":
            assert fallback, "no row took the explicit-difference assignment"


def test_kmeans_with_k_close_to_n_matches_the_reference():
    # 60 points on a 0.1 grid in 50 clusters; with kmeans seed 0, a centre summed in another row order moves an assignment
    pts = np.round(np.random.default_rng(107).normal(size=(60, 2)), 1)
    for seed in range(3):
        assert np.array_equal(kmeans(pts, 50, seed), kmeans_reference(pts, 50, seed))


def test_recall_takes_the_same_explicit_differences_for_any_k(monkeypatch):
    z, labels = _exactness_cases()["gaussian"]
    spy = _PairSpy(monkeypatch)
    recall_at_k(z, labels, [1])
    smallest, spy.calls = spy.calls, []
    recall_at_k(z, labels, [1, len(z) - 1])
    assert len(spy.calls) == len(smallest)
    for (rows_a, rows_b), (few_a, few_b) in zip(spy.calls, smallest):
        assert np.array_equal(rows_a, few_a) and np.array_equal(rows_b, few_b)


@pytest.mark.parametrize("case", ["gaussian", "tie-heavy-grid", "far-blobs"])
def test_kmeans_with_one_centre_matches_the_reference(case, monkeypatch):
    z, _ = _exactness_cases()[case]
    spy = _PairSpy(monkeypatch)
    for seed in range(2):
        assert np.array_equal(kmeans(z, 1, seed), kmeans_reference(z, 1, seed))
    assert spy.calls == []  # with one centre the runner-up is +inf, so no row is close to a tie


def test_kmeans_takes_explicit_differences_only_for_rows_near_a_tie(monkeypatch):
    # four blobs 100 apart: every row's best centre wins by far more than the rounding bound, and none empties
    spy = _PairSpy(monkeypatch)
    rng = np.random.default_rng(18)
    pts = 100.0 * rng.normal(size=(4, 8))[np.arange(100) % 4] + rng.normal(size=(100, 8))
    assert np.array_equal(kmeans(pts, 4, seed=0), kmeans_reference(pts, 4, 0))
    assert spy.calls == []


def test_labels_of_another_length_are_refused_before_clustering(monkeypatch):
    clustered = []
    monkeypatch.setattr(evaluation, "kmeans", lambda *args, **kwargs: clustered.append(args))
    z = np.random.default_rng(16).normal(size=(20, 3))
    with pytest.raises(InputError, match=r"labels shape \(19,\) does not match 20 points"):
        evaluate_embeddings(z, np.arange(19) % 4, ks=(1, 2))
    assert clustered == []


@pytest.mark.parametrize("side", [1, 13], ids=["tiles-of-1", "tiles-of-13"])
@_RESEED_CASES
def test_kmeans_reseed_across_centre_tiles_matches_the_reference(monkeypatch, pts, k, seed, side):
    tiles, spy = _CentreTileSpy(monkeypatch, side, pts), _PairSpy(monkeypatch)
    assert np.array_equal(kmeans(pts, k, seed), kmeans_reference(pts, k, seed))
    assert tiles.assert_swept(k) == -(-k // side)
    assert any(np.array_equal(query, np.arange(len(pts))) for query, _ in spy.calls), "no cluster emptied"


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_kept(call):
    """What `call` returns, and the traced bytes still allocated while it is kept."""
    tracemalloc.start()
    try:
        kept = call()
        return kept, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


# a full (n, n) or (n, k) float64 matrix alone would break these bounds
def test_recall_memory_stays_bounded_at_dataset_size():
    z = np.random.default_rng(14).normal(size=(5924, 64))  # the size of the CUB-200-2011 test set: 281 MB for (n, n)
    assert _traced_peak(lambda: recall_at_k(z, np.arange(5924) % 100, [1, 2, 4, 8])) < 16 * 2**20


def test_recall_memory_does_not_grow_with_k():
    # the Recall@K of the Stanford Online Products protocol, at the size of the CUB-200-2011 test set
    z = np.random.default_rng(14).normal(size=(5924, 64))
    assert _traced_peak(lambda: recall_at_k(z, np.arange(5924) % 100, [1, 10, 100, 1000])) < 16 * 2**20


def test_recall_memory_stays_bounded_on_collapsed_embeddings():
    # one point 1,500 times over, as a collapsed network embeds: every pair lies in every band, 2,250,000 of them
    z, labels = np.ones((1500, 4)), np.arange(1500) % 10
    assert _traced_peak(lambda: recall_at_k(z, labels, [1, 2, 4, 8])) < 16 * 2**20
    assert recall_at_k(z, labels, [1, 2, 4, 8]) == recall_reference(z, labels, [1, 2, 4, 8])


def test_embeddings_csv_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # 2,000 x 512, the size of the cli-roundtrip dataset: formatting all rows at once holds 31.5 MiB.
    # One CPU, so that this process formats every block; tracemalloc does not see forked workers
    monkeypatch.setattr(data, "_usable_cpus", lambda: 1)
    z = np.random.default_rng(16).normal(size=(2000, 512))
    ids, labels = np.arange(2000), np.arange(2000) % 40
    assert _traced_peak(lambda: export_embeddings_csv(tmp_path / "emb.csv", ids, labels, z)) <= 8 * 2**20


def test_small_embeddings_csv_is_written_in_one_process(tmp_path, monkeypatch):
    # the 1,000 x 32 export of cli-roundtrip: 32,000 values, one block of 2**16 values, so W = 1 on any CPU
    # count; 2**13-value blocks are four, and two workers would fork. Blocks of 2**16 values held 1.75 MiB
    monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
    children, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: children.append(True) or fork())
    z = np.random.default_rng(17).normal(size=(1000, 32))
    ids, labels = np.arange(1000), np.arange(1000) % 10
    assert _traced_peak(lambda: export_embeddings_csv(tmp_path / "emb.csv", ids, labels, z)) <= 2**20
    assert not children


def test_kmeans_memory_stays_bounded_with_many_clusters():
    # 1,000 tight, far-apart groups of 3 (24 MB for (n, k)): seeding takes one point of each, Lloyd stops at once
    rng = np.random.default_rng(15)
    pts = np.repeat(rng.uniform(0.0, 1e3, size=(1000, 8)), 3, axis=0) + rng.normal(scale=1e-3, size=(3000, 8))
    assert _traced_peak(lambda: kmeans(pts, 1000, seed=0)) < 16 * 2**20


def _recall_threads(monkeypatch):
    """Records the thread that runs each `recall_at_k` call of `evaluate_embeddings`."""
    threads, inner = [], evaluation.recall_at_k

    def spy(*args):
        threads.append(threading.current_thread())
        return inner(*args)

    monkeypatch.setattr(evaluation, "recall_at_k", spy)
    return threads


def _blobs_of_600(seed):
    # 600 points: three tile sides of 256, so with two usable CPUs Recall@K runs on a worker thread. The
    # classes overlap, so that most queries rank points of other classes first, in every tile
    rng = np.random.default_rng(seed)
    labels = np.arange(600) % 12
    return 0.5 * rng.normal(size=(12, 8))[labels] + rng.normal(size=(600, 8)), labels


def test_report_on_one_usable_cpu_is_the_report_on_two(monkeypatch):
    z, labels = _blobs_of_600(19)
    threads = _recall_threads(monkeypatch)
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(data, "_usable_cpus", lambda cpus=cpus: cpus)
        reports.append(evaluate_embeddings(z, labels, ks=(1, 2, 4, 8)))
    assert threads[0] is threading.main_thread() and threads[1] is not threading.main_thread()
    assert reports[0] == reports[1]
    assert reports[1].recall_at == recall_reference(z, labels, (1, 2, 4, 8))
    assert reports[1].nmi == nmi(kmeans(z, 12, seed=0), labels)


def test_one_tile_takes_no_worker_thread(monkeypatch):
    z, labels = _blobs_of_600(20)
    monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
    threads = _recall_threads(monkeypatch)
    evaluate_embeddings(z[:256], labels[:256])
    assert threads == [threading.main_thread()]


@pytest.mark.parametrize("clustering", ["stubbed", "raises-too"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
def test_non_finite_row_raises_through_the_worker_thread(monkeypatch, value, clustering):
    z, labels = _blobs_of_600(21)
    z[17, 2] = value
    z[300, 0] = value
    monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
    if clustering == "stubbed":  # only the worker meets the row; otherwise k-means raises too, and the worker is joined
        monkeypatch.setattr(evaluation, "kmeans", lambda points, k, seed: np.arange(len(points)) % k)
    threads = _recall_threads(monkeypatch)
    with pytest.raises(NumericalError, match="row 17 "):
        evaluate_embeddings(z, labels)
    assert threads and threads[0] is not threading.main_thread()


def test_recall_worker_finishes_before_a_clustering_error_leaves_the_evaluation(monkeypatch):
    z, labels = _blobs_of_600(22)
    monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
    finished, inner = [], evaluation.recall_at_k

    def slow_recall(*args):
        time.sleep(0.2)
        result = inner(*args)
        finished.append(threading.current_thread())
        return result

    def failing_kmeans(points, k, seed):
        raise RuntimeError("clustering failed")

    monkeypatch.setattr(evaluation, "recall_at_k", slow_recall)
    monkeypatch.setattr(evaluation, "kmeans", failing_kmeans)
    with pytest.raises(RuntimeError, match="clustering failed"):
        evaluate_embeddings(z, labels)
    assert finished and finished[0] is not threading.main_thread()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200], ids=["nan", "inf", "-inf", "overflow"])
@pytest.mark.parametrize(
    "call",
    [
        lambda z, labels: evaluate_embeddings(z, labels, ks=(1, 8)),
        lambda z, labels: recall_at_k(z, labels, [1, 8]),
        lambda z, labels: kmeans(z, 4, seed=0),
    ],
    ids=["evaluate_embeddings", "recall_at_k", "kmeans"],
)
def test_non_finite_embedding_raises_naming_the_row(value, call):
    rng = np.random.default_rng(12)
    z = rng.normal(size=(40, 4))
    z[17, 2] = value
    z[30, 0] = value
    with pytest.raises(NumericalError, match="row 17 "):
        call(z, np.arange(40) % 4)
