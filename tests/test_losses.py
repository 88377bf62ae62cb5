import math

import numpy as np
import pytest

from hardmetric.augmentor import AugmentorState, augment_tuples
from hardmetric.errors import DimensionError, InputError
from hardmetric.losses import LossConfig, TupleBatch, batch_metric_loss, npair_loss, triplet_loss


class TestTripletLoss:
    def test_inactive_hinge(self):
        loss, gp, gn = triplet_loss(0.2, 1.0, 0.5)
        assert loss == 0.0 and gp == 0.0 and gn == 0.0

    def test_equal_distances_give_margin(self):
        loss, _, _ = triplet_loss(0.7, 0.7, 0.25)
        assert loss == 0.25

    def test_active_hinge_value(self):
        loss, gp, gn = triplet_loss(0.8, 0.3, 0.2)
        assert abs(loss - 0.7) < 1e-15
        assert gp == 1.0 and gn == -1.0

    def test_monotone_in_both_distances(self):
        base = triplet_loss(0.8, 0.3, 0.2)[0]
        assert triplet_loss(0.9, 0.3, 0.2)[0] >= base
        assert triplet_loss(0.8, 0.4, 0.2)[0] <= base


class TestNpairLoss:
    def test_two_pairs_balanced_distances(self):
        loss, _, _ = npair_loss(np.array([1.0, 1.0]), np.array([[1.0], [1.0]]))
        assert abs(loss - math.log(2)) < 1e-12

    def test_far_negatives_drive_loss_to_zero(self):
        loss, _, _ = npair_loss(np.array([1.0, 1.0]), np.array([[500.0], [500.0]]))
        assert loss < 1e-12

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        d_pos = rng.uniform(0.5, 2.0, size=4)
        d_neg = rng.uniform(0.5, 3.0, size=(4, 3))
        loss, gp, gn = npair_loss(d_pos, d_neg)
        # unstabilized oracle, fine at these magnitudes
        acc = 0.0
        for i in range(4):
            acc += math.log(1 + sum(math.exp(d_pos[i] - d_neg[i][j]) for j in range(3)))
        assert abs(loss - acc / 4) < 1e-10
        # oracle gradients via the same direct formula
        for i in range(4):
            s = sum(math.exp(d_pos[i] - d_neg[i][j]) for j in range(3))
            for j in range(3):
                expected = -math.exp(d_pos[i] - d_neg[i][j]) / (1 + s) / 4
                assert abs(gn[i, j] - expected) < 1e-10
            assert abs(gp[i] - sum(-gn[i])) < 1e-10

    def test_stable_under_large_gaps(self):
        loss, gp, gn = npair_loss(np.array([900.0, 0.0]), np.array([[1.0], [800.0]]))
        assert math.isfinite(loss) and np.isfinite(gp).all() and np.isfinite(gn).all()

    def test_pair_count_too_small(self):
        with pytest.raises(InputError):
            npair_loss(np.array([1.0]), np.zeros((1, 0)))


def random_embedding_instance(rng, n_classes=3, per_class=2, dim=4, scale=2.0):
    z = rng.normal(size=(n_classes * per_class, dim)) * scale
    labels = np.repeat(np.arange(n_classes), per_class)
    return z, labels


def triplet_batch(labels, idx):
    idx = np.asarray(idx)
    return TupleBatch("triplet", idx[:, 0], idx[:, 1], idx[:, 2], labels)


def npair_batch(labels, n_classes):
    return TupleBatch.npair(2 * np.arange(n_classes), 2 * np.arange(n_classes) + 1, labels)


class TestBatchMetricLoss:
    def test_inactive_hinges_zero_everything(self):
        z = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0]])
        labels = [0, 0, 1]
        tuples = triplet_batch(labels, [[0, 1, 2]])
        loss, grad = batch_metric_loss(z, tuples, LossConfig(margin=1.0))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(z))

    def test_single_triplet_reduces_to_triplet_loss(self):
        rng = np.random.default_rng(1)
        z, labels = random_embedding_instance(rng)
        tuples = triplet_batch(labels, [[0, 1, 2]])
        loss, _ = batch_metric_loss(z, tuples, LossConfig(margin=0.5))
        d_pos = np.linalg.norm(z[0] - z[1])
        d_neg = np.linalg.norm(z[0] - z[2])
        assert abs(loss - triplet_loss(d_pos, d_neg, 0.5)[0]) < 1e-12

    def test_triplet_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z, labels = random_embedding_instance(rng)
        tuples = triplet_batch(labels, [[0, 1, 2], [2, 3, 4], [4, 5, 1]])
        cfg = LossConfig(margin=1.0)
        _, grad = batch_metric_loss(z, tuples, cfg)
        h = 1e-6
        for idx in np.ndindex(z.shape):
            orig = z[idx]
            z[idx] = orig + h
            lp = batch_metric_loss(z, tuples, cfg)[0]
            z[idx] = orig - h
            lm = batch_metric_loss(z, tuples, cfg)[0]
            z[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-4 * max(1.0, abs(fd))

    def test_npair_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        z, labels = random_embedding_instance(rng, n_classes=4)
        tuples = npair_batch(labels, 4)
        cfg = LossConfig()
        _, grad = batch_metric_loss(z, tuples, cfg)
        h = 1e-6
        for idx2 in np.ndindex(z.shape):
            orig = z[idx2]
            z[idx2] = orig + h
            lp = batch_metric_loss(z, tuples, cfg)[0]
            z[idx2] = orig - h
            lm = batch_metric_loss(z, tuples, cfg)[0]
            z[idx2] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(grad[idx2] - fd) < 1e-4 * max(1.0, abs(fd))

    def test_invalid_index_rejected(self):
        z = np.zeros((3, 2))
        tuples = triplet_batch([0, 0, 1], [[0, 1, 2]])
        with pytest.raises(InputError):
            batch_metric_loss(z[:2], tuples, LossConfig())

    @pytest.mark.parametrize("kind", ["triplet", "npair"])
    def test_invariant_under_rigid_motion(self, kind):
        rng = np.random.default_rng(4)
        z, labels = random_embedding_instance(rng, n_classes=4, dim=5)
        if kind == "triplet":
            tuples = triplet_batch(labels, [[0, 1, 2], [2, 3, 6], [4, 5, 0]])
        else:
            tuples = npair_batch(labels, 4)
        cfg = LossConfig(margin=0.7)
        base, _ = batch_metric_loss(z, tuples, cfg)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        moved = z @ q.T + rng.normal(size=5)
        rotated, _ = batch_metric_loss(moved, tuples, cfg)
        assert abs(base - rotated) < 1e-9

    @pytest.mark.parametrize("kind", ["triplet", "npair"])
    def test_hardened_tuples_never_decrease_loss(self, kind):
        rng = np.random.default_rng(5)
        z, labels = random_embedding_instance(rng, n_classes=4, dim=4, scale=3.0)
        if kind == "triplet":
            rows = []
            for a in range(len(labels)):
                same = [j for j in range(len(labels)) if labels[j] == labels[a] and j != a]
                diff = [j for j in range(len(labels)) if labels[j] != labels[a]]
                rows.append([a, same[0], diff[0]])
            tuples = triplet_batch(labels, rows)
        else:
            tuples = npair_batch(labels, 4)
        cfg = LossConfig(margin=1.0)
        base, _ = batch_metric_loss(z, tuples, cfg)
        aug = augment_tuples(z, tuples, AugmentorState(alpha=1.0, j_avg=0.8))
        assert aug.lambda_interp < 1.0
        # rebuild the tuple geometry with hardened negatives substituted
        t = aug.size
        dim = aug.hardened_negatives.shape[-1]
        stacked = np.vstack([z[aug.anchor_idx], z[aug.positive_idx], aug.hardened_negatives.reshape(-1, dim)])
        negatives = 2 * t + np.arange(aug.negative_idx.size).reshape(aug.negative_idx.shape)
        labels2 = np.concatenate([aug.anchor_labels, aug.anchor_labels, aug.negative_labels.ravel()])
        hard_tuples = TupleBatch(kind, np.arange(t), t + np.arange(t), negatives, labels2)
        hardened, _ = batch_metric_loss(stacked, hard_tuples, cfg)
        assert hardened >= base - 1e-12


class TestTupleBatchValidation:
    def test_triplet_label_constraints(self):
        with pytest.raises(InputError):
            TupleBatch("triplet", [0], [1], [2], [0, 1, 1])
        with pytest.raises(InputError):
            TupleBatch("triplet", [0], [1], [2], [0, 0, 0])

    def test_npair_needs_distinct_classes(self):
        with pytest.raises(InputError):
            TupleBatch.npair([0, 2], [1, 3], [0, 0, 0, 0])

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            TupleBatch("pairs", [0], [1], [2], [0, 0, 1])

    def test_npair_default_negatives_are_the_other_positives(self):
        tuples = TupleBatch.npair([0, 2, 4], [1, 3, 5], [0, 0, 1, 1, 2, 2])
        assert tuples.negatives.tolist() == [[3, 5], [1, 5], [1, 3]]
        assert tuples.size == 3

    def test_shapes_and_rows_checked(self):
        with pytest.raises(DimensionError):
            TupleBatch("npair", [0, 2], [1, 3], [[3, 1]], [0, 0, 1, 1])
        with pytest.raises(DimensionError):
            TupleBatch("triplet", [0], [1], [[2, 2]], [0, 0, 1])
        with pytest.raises(InputError):
            TupleBatch("triplet", [0], [1], [7], [0, 0, 1])
