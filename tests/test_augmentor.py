import math

import numpy as np
import pytest

from hardmetric.augmentor import (
    LAMBDA_FLOOR,
    AugmentorState,
    _harden,
    augment_tuples,
    pulling_lambda,
)
from hardmetric.errors import InputError
from hardmetric.losses import TupleBatch


class TestPullingLambda:
    def test_matched_alpha_and_average_give_inverse_e(self):
        assert abs(pulling_lambda(AugmentorState(alpha=7.0, j_avg=7.0)) - math.exp(-1)) < 1e-12

    def test_unset_average_means_no_hardening(self):
        assert pulling_lambda(AugmentorState(alpha=7.0)) == 1.0

    def test_infinite_average_means_no_hardening(self):
        assert pulling_lambda(AugmentorState(alpha=7.0, j_avg=math.inf)) == 1.0

    def test_vanishing_average_hits_the_floor(self):
        assert pulling_lambda(AugmentorState(alpha=7.0, j_avg=0.0)) == LAMBDA_FLOOR
        assert pulling_lambda(AugmentorState(alpha=7.0, j_avg=1e-300)) == LAMBDA_FLOOR

    def test_zero_alpha_disables_hardening(self):
        assert pulling_lambda(AugmentorState(alpha=0.0, j_avg=0.5)) == 1.0
        assert pulling_lambda(AugmentorState(alpha=0.0, j_avg=0.0)) == 1.0

    def test_monotone_in_average_loss(self):
        values = [pulling_lambda(AugmentorState(alpha=7.0, j_avg=j)) for j in np.linspace(0.5, 50, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_alpha(self):
        values = [pulling_lambda(AugmentorState(alpha=a, j_avg=5.0)) for a in np.linspace(0.5, 50, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_negative_alpha_rejected(self):
        for alpha in (-1.0, math.nan):
            with pytest.raises(InputError, match=f"alpha must be nonnegative, got {alpha}"):
                AugmentorState(alpha=alpha)


class TestAugmentNegative:
    def test_worked_example_on_the_axis(self):
        # direct evaluation: lambda_0 = 0.5 + 0.5 * (1/4) = 0.625, so 0.625 * 4 = 2.5
        out = _harden(np.zeros(2), np.array([4.0, 0.0]), d_plus=1.0, lambda_interp=0.5)
        assert np.allclose(out, [2.5, 0.0], atol=1e-12)

    def test_lambda_one_is_bitwise_identity(self):
        rng = np.random.default_rng(0)
        z, z_neg = rng.normal(size=(2, 5))
        out = _harden(z, z_neg, d_plus=0.1, lambda_interp=1.0)
        assert np.array_equal(out, z_neg)
        assert out is not z_neg

    def test_close_negative_passes_through(self):
        z = np.zeros(2)
        z_neg = np.array([0.5, 0.0])
        out = _harden(z, z_neg, d_plus=1.0, lambda_interp=0.3)
        assert np.array_equal(out, z_neg)

    def test_coincident_negative_passes_through(self):
        z = np.array([1.0, 2.0])
        out = _harden(z, z.copy(), d_plus=0.5, lambda_interp=0.5)
        assert np.array_equal(out, z)

    def test_geometry_on_random_tuples(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            z = rng.normal(size=dim) * 3
            z_neg = rng.normal(size=dim) * 3
            d = np.linalg.norm(z - z_neg)
            d_plus = float(rng.uniform(0.05, 0.9)) * d
            lam = float(rng.uniform(0.05, 0.999))
            out = _harden(z, z_neg, d_plus, lam)
            # collinear with the original segment
            direction = (z_neg - z) / d
            residual = (out - z) - ((out - z) @ direction) * direction
            assert np.linalg.norm(residual) < 1e-9
            # achieved distance is the prescribed interpolation
            achieved = np.linalg.norm(out - z)
            assert abs(achieved - (lam * d + (1 - lam) * d_plus)) < 1e-9
            assert d_plus - 1e-9 <= achieved <= d + 1e-9

    def test_distance_is_strictly_increasing_in_lambda(self):
        z = np.zeros(3)
        z_neg = np.array([6.0, 0.0, 0.0])
        dists = [
            np.linalg.norm(_harden(z, z_neg, 1.0, lam) - z)
            for lam in np.linspace(0.01, 0.999, 30)
        ]
        assert all(b > a for a, b in zip(dists, dists[1:]))


def embedded_triplet_batch(z, labels, idx):
    idx = np.asarray(idx)
    return TupleBatch("triplet", idx[:, 0], idx[:, 1], idx[:, 2], labels)


def positive_distances(z, aug):
    """d+ of every kept tuple, from the embeddings of its anchor and positive."""
    return np.sqrt(((z[aug.anchor_idx] - z[aug.positive_idx]) ** 2).sum(axis=-1))


class TestAugmentTuples:
    def test_triplet_worked_example(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]])
        labels = np.array([0, 0, 1])
        tuples = embedded_triplet_batch(z, labels, [[0, 1, 2]])
        state = AugmentorState(alpha=1.0, j_avg=1.0 / math.log(2.0))
        aug = augment_tuples(z, tuples, state)
        # alpha/j_avg chosen so lambda = 0.5; d_plus = 1, so the hardened
        # negative sits at 0.5*4 + 0.5*1 = 2.5 on the axis
        assert abs(pulling_lambda(state) - 0.5) < 1e-12
        assert np.allclose(aug.hardened_negatives[0], [2.5, 0.0], atol=1e-12)
        assert aug.anchor_idx.tolist() == [0] and aug.positive_idx.tolist() == [1]
        assert positive_distances(z, aug)[0] == 1.0

    def test_lambda_one_reproduces_the_tuple(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(6, 4))
        labels = np.array([0, 0, 1, 1, 2, 2])
        tuples = embedded_triplet_batch(z, labels, [[0, 1, 2], [2, 3, 4], [4, 5, 0]])
        state = AugmentorState(alpha=5.0)
        aug = augment_tuples(z, tuples, state)
        assert pulling_lambda(state) == 1.0
        assert np.array_equal(aug.hardened_negatives, z[aug.negative_idx])

    def test_degenerate_triplet_is_dropped(self):
        z = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 0.0], [0.0, 0.0], [0.5, 0.0], [4.0, 0.0]])
        labels = np.array([0, 0, 1, 2, 2, 1])
        tuples = embedded_triplet_batch(z, labels, [[0, 1, 2], [3, 4, 5]])
        aug = augment_tuples(z, tuples, AugmentorState(alpha=1.0, j_avg=1.0))
        # the first triplet's positive pair coincides: its anchor is gone, the second's stays
        assert 0 not in aug.anchor_idx
        assert aug.size == 1
        assert np.array_equal(aug.anchor_idx, [3])
        assert aug.synthetic.size == 1

    def test_npair_matches_per_pair_loop(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 3)) * 2
        labels = np.array([0, 0, 1, 1])
        tuples = TupleBatch.npair([0, 2], [1, 3], labels)
        state = AugmentorState(alpha=2.0, j_avg=3.0)
        aug = augment_tuples(z, tuples, state)
        lam = pulling_lambda(state)
        # anchor 0 hardens pair 1's positive, anchor 1 hardens pair 0's positive
        d0 = np.linalg.norm(z[0] - z[1])
        d1 = np.linalg.norm(z[2] - z[3])
        assert np.array_equal(aug.hardened_negatives[0, 0], _harden(z[0], z[3], d0, lam))
        assert np.array_equal(aug.hardened_negatives[1, 0], _harden(z[2], z[1], d1, lam))
        assert aug.synthetic.labels[aug.synthetic.negatives].tolist() == [[1], [0]]

    @pytest.mark.parametrize("kind", ["triplet", "npair"])
    def test_matches_the_per_negative_reference_loop(self, kind):
        # reference: the hardening formula written out for one negative at a time
        def reference(a, neg, d_plus, lam):
            d = float(np.sqrt(((a - neg) ** 2).sum()))
            if d <= d_plus or lam == 1.0:
                return neg.copy()
            return a + ((lam * d + (1.0 - lam) * d_plus) / d) * (neg - a)

        rng = np.random.default_rng(6)
        z = rng.normal(size=(12, 5)) * 2
        z[1] = z[0]  # anchor 0 has no reference distance
        labels = np.repeat(np.arange(6), 2)
        if kind == "triplet":
            tuples = TupleBatch("triplet", [0, 2, 4, 6, 8], [1, 3, 5, 7, 9], [2, 5, 0, 11, 1], labels)
        else:
            tuples = TupleBatch.npair([0, 2, 4, 6, 8, 10], [1, 3, 5, 7, 9, 11], labels)
        state = AugmentorState(alpha=1.0, j_avg=0.8)
        aug = augment_tuples(z, tuples, state)
        lam = pulling_lambda(state)
        negatives = tuples.negatives
        # only the triplet without a reference distance is dropped
        assert aug.size == tuples.size - (kind == "triplet")
        for t in range(tuples.size):
            a = z[tuples.anchors[t]]
            d_plus = float(np.sqrt(((a - z[tuples.positives[t]]) ** 2).sum()))
            if d_plus == 0.0 and kind == "triplet":
                assert tuples.anchors[t] not in aug.anchor_idx
                continue
            out = aug.hardened_negatives[list(aug.anchor_idx).index(tuples.anchors[t])]
            for m, row in enumerate(negatives[t]):
                expected = z[row].copy() if d_plus == 0.0 else reference(a, z[row], d_plus, lam)
                assert np.array_equal(out if kind == "triplet" else out[m], expected)

    def test_npair_counts(self):
        rng = np.random.default_rng(4)
        n = 4
        z = rng.normal(size=(2 * n, 5))
        labels = np.repeat(np.arange(n), 2)
        tuples = TupleBatch.npair(2 * np.arange(n), 2 * np.arange(n) + 1, labels)
        aug = augment_tuples(z, tuples, AugmentorState(alpha=1.0, j_avg=1.0))
        assert aug.hardened_negatives.shape == (n, n - 1, 5)
        assert aug.negative_idx.shape == (n, n - 1)
        assert positive_distances(z, aug).shape == (n,)
        assert aug.synthetic.negatives.shape == (n, n - 1)

    @pytest.mark.parametrize("kind", ["triplet", "npair"])
    def test_hardening_bounds_hold_per_batch(self, kind):
        # the tracer's contract: d+ <= d(a, hardened) <= d(a, z-) for every negative
        # beyond d+, and an unchanged copy for every other one
        rng = np.random.default_rng(5)
        z = rng.normal(size=(12, 6)) * 4
        if kind == "triplet":
            labels = np.repeat(np.arange(4), 3)
            idx = []
            for a in range(12):
                same = [j for j in range(12) if labels[j] == labels[a] and j != a]
                diff = [j for j in range(12) if labels[j] != labels[a]]
                idx.append([a, same[0], diff[0]])
            tuples = embedded_triplet_batch(z, labels, idx)
        else:
            labels = np.repeat(np.arange(6), 2)
            z[3] = z[2]  # the second anchor has d+ = 0: its negatives come back unchanged
            tuples = TupleBatch.npair(2 * np.arange(6), 2 * np.arange(6) + 1, labels)
        aug = augment_tuples(z, tuples, AugmentorState(alpha=1.0, j_avg=0.7))
        assert aug.size == tuples.size
        if kind == "npair":
            assert positive_distances(z, aug)[1] == 0.0
            assert np.array_equal(aug.hardened_negatives[1], z[aug.negative_idx[1]])
        # each (anchor, negative) pair: for N-pair, every other pair's positive
        per_anchor = aug.negative_idx.size // aug.size
        anchors = np.repeat(aug.anchor_idx, per_anchor)
        d_plus = np.repeat(positive_distances(z, aug), per_anchor)
        negatives = aug.negative_idx.ravel()
        hardened = aug.hardened_negatives.reshape(-1, z.shape[1])
        moved = 0
        for a, n, h, dp in zip(anchors, negatives, hardened, d_plus):
            d_orig = np.linalg.norm(z[a] - z[n])
            d_hard = np.linalg.norm(z[a] - h)
            if dp > 0.0 and d_orig > dp:
                assert dp - 1e-9 <= d_hard <= d_orig + 1e-9
                moved += d_hard < d_orig
            else:
                assert np.array_equal(h, z[n])
        assert moved > 0

    @pytest.mark.parametrize("kind", ["triplet", "npair"])
    def test_synthetic_is_the_explicit_construction(self, kind):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(10, 3))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
        z[1] = z[0]  # the first tuple's positive pair coincides
        if kind == "triplet":
            # the first triplet is dropped; four remain
            tuples = TupleBatch("triplet", [0, 2, 4, 6, 8], [1, 3, 5, 7, 9], [2, 5, 0, 1, 3], labels)
        else:
            tuples = TupleBatch.npair([0, 2, 4, 6], [1, 3, 5, 7], labels)
        aug = augment_tuples(z, tuples, AugmentorState(alpha=1.0, j_avg=0.5))
        syn = aug.synthetic
        assert syn.kind == kind
        assert syn.anchors.tolist() == [0, 1, 2, 3] and syn.positives.tolist() == [4, 5, 6, 7]
        if kind == "triplet":
            assert aug.anchor_idx.tolist() == [2, 4, 6, 8] and aug.negative_idx.tolist() == [5, 0, 1, 3]
            assert syn.negatives.tolist() == [[8], [9], [10], [11]]
            assert syn.labels.tolist() == [1, 2, 3, 4, 1, 2, 3, 4, 2, 0, 0, 1]
            assert aug.members.tolist() == [2, 4, 6, 8, 3, 5, 7, 9, 5, 0, 1, 3]
        else:
            assert syn.negatives.tolist() == [[8, 9, 10], [11, 12, 13], [14, 15, 16], [17, 18, 19]]
            assert syn.labels.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]
            assert aug.members.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]
        # over [anchors; positives; hardened negatives], the synthetic tuples are the hardened tuples
        rows = np.vstack([z[aug.anchor_idx], z[aug.positive_idx], aug.hardened_negatives.reshape(-1, 3)])
        assert np.array_equal(rows[syn.anchors], z[aug.anchor_idx])
        assert np.array_equal(rows[syn.positives], z[aug.positive_idx])
        assert np.array_equal(rows[syn.negatives], aug.hardened_negatives.reshape(aug.size, -1, 3))
