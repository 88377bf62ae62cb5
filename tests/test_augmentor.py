import math

import numpy as np
import pytest

from hardmetric.augmentor import (
    LAMBDA_FLOOR,
    AugmentorState,
    augment_negative,
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
        out = augment_negative(np.zeros(2), np.array([4.0, 0.0]), d_plus=1.0, lambda_interp=0.5)
        assert np.allclose(out, [2.5, 0.0], atol=1e-12)

    def test_lambda_one_is_bitwise_identity(self):
        rng = np.random.default_rng(0)
        z, z_neg = rng.normal(size=(2, 5))
        out = augment_negative(z, z_neg, d_plus=0.1, lambda_interp=1.0)
        assert np.array_equal(out, z_neg)
        assert out is not z_neg

    def test_close_negative_passes_through(self):
        z = np.zeros(2)
        z_neg = np.array([0.5, 0.0])
        out = augment_negative(z, z_neg, d_plus=1.0, lambda_interp=0.3)
        assert np.array_equal(out, z_neg)

    def test_coincident_negative_passes_through(self):
        z = np.array([1.0, 2.0])
        out = augment_negative(z, z.copy(), d_plus=0.5, lambda_interp=0.5)
        assert np.array_equal(out, z)

    def test_nonpositive_reference_rejected(self):
        # a NaN reference compares false with every distance, so unchecked it would leave the negative unmoved
        for d_plus in (0.0, math.nan):
            with pytest.raises(InputError, match=f"reference distance must be positive, got {d_plus}"):
                augment_negative(np.zeros(2), np.array([4.0, 0.0]), d_plus=d_plus, lambda_interp=0.5)

    def test_lambda_outside_range_rejected(self):
        with pytest.raises(InputError):
            augment_negative(np.zeros(2), np.ones(2), d_plus=0.5, lambda_interp=0.0)
        with pytest.raises(InputError):
            augment_negative(np.zeros(2), np.ones(2), d_plus=0.5, lambda_interp=1.5)

    def test_geometry_on_random_tuples(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            z = rng.normal(size=dim) * 3
            z_neg = rng.normal(size=dim) * 3
            d = np.linalg.norm(z - z_neg)
            d_plus = float(rng.uniform(0.05, 0.9)) * d
            lam = float(rng.uniform(0.05, 0.999))
            out = augment_negative(z, z_neg, d_plus, lam)
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
            np.linalg.norm(augment_negative(z, z_neg, 1.0, lam) - z)
            for lam in np.linspace(0.01, 0.999, 30)
        ]
        assert all(b > a for a, b in zip(dists, dists[1:]))


def embedded_triplet_batch(z, labels, idx):
    idx = np.asarray(idx)
    return TupleBatch("triplet", idx[:, 0], idx[:, 1], idx[:, 2], labels)


class TestAugmentTuples:
    def test_triplet_worked_example(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]])
        labels = np.array([0, 0, 1])
        tuples = embedded_triplet_batch(z, labels, [[0, 1, 2]])
        aug = augment_tuples(z, tuples, AugmentorState(alpha=1.0, j_avg=1.0 / math.log(2.0)))
        # alpha/j_avg chosen so lambda = 0.5; d_plus = 1, so the hardened
        # negative sits at 0.5*4 + 0.5*1 = 2.5 on the axis
        assert abs(aug.lambda_interp - 0.5) < 1e-12
        assert np.allclose(aug.hardened_negatives[0], [2.5, 0.0], atol=1e-12)
        assert aug.anchor_idx.tolist() == [0] and aug.positive_idx.tolist() == [1]
        assert aug.reference_distances[0] == 1.0

    def test_lambda_one_reproduces_the_tuple(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(6, 4))
        labels = np.array([0, 0, 1, 1, 2, 2])
        tuples = embedded_triplet_batch(z, labels, [[0, 1, 2], [2, 3, 4], [4, 5, 0]])
        aug = augment_tuples(z, tuples, AugmentorState(alpha=5.0))
        assert aug.lambda_interp == 1.0
        assert np.array_equal(aug.hardened_negatives, z[aug.negative_idx])

    def test_degenerate_triplet_skipped_and_flagged(self):
        z = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 0.0], [0.0, 0.0], [0.5, 0.0], [4.0, 0.0]])
        labels = np.array([0, 0, 1, 2, 2, 1])
        tuples = embedded_triplet_batch(z, labels, [[0, 1, 2], [3, 4, 5]])
        aug = augment_tuples(z, tuples, AugmentorState(alpha=1.0, j_avg=1.0))
        assert aug.degenerate.tolist() == [0]
        assert aug.size == 1
        assert np.array_equal(aug.anchor_idx, [3])

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
        assert np.array_equal(aug.hardened_negatives[0, 0], augment_negative(z[0], z[3], d0, lam))
        assert np.array_equal(aug.hardened_negatives[1, 0], augment_negative(z[2], z[1], d1, lam))
        assert aug.negative_labels.tolist() == [[1], [0]]

    @pytest.mark.parametrize("kind", ["triplet", "npair"])
    @pytest.mark.parametrize("fixed", [None, 1.5])
    def test_matches_the_per_negative_reference_loop(self, kind, fixed):
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
        aug = augment_tuples(z, tuples, state, fixed_reference=fixed)
        lam = pulling_lambda(state)
        negatives = tuples.negatives
        for t in range(tuples.size):
            a = z[tuples.anchors[t]]
            d_plus = fixed if fixed is not None else float(np.sqrt(((a - z[tuples.positives[t]]) ** 2).sum()))
            if d_plus == 0.0 and kind == "triplet":
                assert t in aug.degenerate and tuples.anchors[t] not in aug.anchor_idx
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
        assert aug.reference_distances.shape == (n, n - 1)

    def test_fixed_reference_distance(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]])
        labels = np.array([0, 0, 1])
        tuples = embedded_triplet_batch(z, labels, [[0, 1, 2]])
        state = AugmentorState(alpha=1.0, j_avg=1.0 / math.log(2.0))
        aug = augment_tuples(z, tuples, state, fixed_reference=2.0)
        # lambda = 0.5 with d_plus = 2: target distance 0.5*4 + 0.5*2 = 3
        assert np.allclose(aug.hardened_negatives[0], [3.0, 0.0], atol=1e-12)
        assert aug.reference_distances[0] == 2.0

    @pytest.mark.parametrize("fixed", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_fixed_reference_rejected(self, fixed):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]])
        tuples = embedded_triplet_batch(z, np.array([0, 0, 1]), [[0, 1, 2]])
        with pytest.raises(InputError, match=f"fixed reference distance must be positive, got {fixed}"):
            augment_tuples(z, tuples, AugmentorState(alpha=1.0, j_avg=1.0), fixed_reference=fixed)

    def test_hardening_bounds_hold_per_batch(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(12, 6)) * 4
        labels = np.repeat(np.arange(4), 3)
        idx = []
        for a in range(12):
            same = [j for j in range(12) if labels[j] == labels[a] and j != a]
            diff = [j for j in range(12) if labels[j] != labels[a]]
            idx.append([a, same[0], diff[0]])
        tuples = embedded_triplet_batch(z, labels, idx)
        aug = augment_tuples(z, tuples, AugmentorState(alpha=1.0, j_avg=0.7))
        for t in range(aug.size):
            anchor, negative = z[aug.anchor_idx[t]], z[aug.negative_idx[t]]
            d_orig = np.linalg.norm(anchor - negative)
            d_hard = np.linalg.norm(anchor - aug.hardened_negatives[t])
            if d_orig > aug.reference_distances[t]:
                assert aug.reference_distances[t] - 1e-9 <= d_hard <= d_orig + 1e-9
            else:
                assert np.array_equal(aug.hardened_negatives[t], negative)
