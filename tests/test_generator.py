import numpy as np
import pytest

from hardmetric.errors import InputError
from hardmetric.generator import (
    GeneratorParams,
    classifier_accuracy,
    classifier_step,
    generate,
    generator_loss,
    init_classifier,
    init_generator,
)
from hardmetric.nn import Adam, DenseLayer, stack_params


def identity_generator(dim):
    return GeneratorParams(
        [
            DenseLayer(np.eye(dim), np.zeros(dim), "identity"),
            DenseLayer(np.eye(dim), np.zeros(dim), "identity"),
        ]
    )


class TestGenerate:
    def test_identity_generator_reproduces_embeddings(self):
        gen = identity_generator(3)
        z = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]])
        out, tapes = generate(gen, z)
        assert np.array_equal(out, z)
        assert len(tapes) == len(gen.layers)

    def test_zero_weights_give_zero_features(self):
        gen = GeneratorParams(
            [
                DenseLayer(np.zeros((4, 3)), np.zeros(4), "relu"),
                DenseLayer(np.zeros((5, 4)), np.zeros(5), "identity"),
            ]
        )
        out, _ = generate(gen, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.array_equal(out, np.zeros((6, 5)))

    def test_random_generator_matches_composition_oracle(self):
        rng = np.random.default_rng(1)
        gen = init_generator(4, 6, hidden_dim=5, rng=rng)
        z = rng.normal(size=(3, 4))
        out, _ = generate(gen, z)
        h = np.maximum(z @ gen.layers[0].weight.T + gen.layers[0].bias, 0.0)
        expected = h @ gen.layers[1].weight.T + gen.layers[1].bias
        assert np.abs(out - expected).max() < 1e-12


class TestGeneratorLoss:
    def _instance(self, seed=0, lambda_balance=0.5):
        rng = np.random.default_rng(seed)
        gen = init_generator(3, 5, hidden_dim=4, rng=rng)
        clf = init_classifier(5, 3, rng=rng)
        clf.weight[:] = rng.normal(0.0, 0.5, size=clf.weight.shape)
        y = rng.normal(size=(6, 5))
        z = rng.normal(size=(6, 3))
        z_hard = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        return gen, clf, y, z, z_hard, labels, lambda_balance

    def test_perfect_reconstruction_and_margin_limit(self):
        gen = identity_generator(3)
        clf = DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity")
        clf.weight[0] = [100.0, 0.0, 0.0]
        y = np.array([[3.0, 0.0, 0.0]])
        result = generator_loss(gen, clf, y, y.copy(), y.copy(), [0], 0.5)
        assert result.j_recon == 0.0
        assert result.j_soft < 1e-12
        assert result.j_gen < 1e-12

    def test_zero_balance_reduces_to_reconstruction(self):
        gen, clf, y, z, z_hard, labels, _ = self._instance(seed=2, lambda_balance=0.0)
        result = generator_loss(gen, clf, y, z, z_hard, labels, 0.0)
        assert result.j_gen == result.j_recon
        assert result.j_soft > 0.0

    def test_breakdown_sum_is_exact(self):
        gen, clf, y, z, z_hard, labels, lam = self._instance(seed=3)
        b = generator_loss(gen, clf, y, z, z_hard, labels, lam)
        assert b.j_gen == b.j_recon + lam * b.j_soft

    def test_gradients_match_finite_differences(self):
        gen, clf, y, z, z_hard, labels, lam = self._instance(seed=4)
        result = generator_loss(gen, clf, y, z, z_hard, labels, lam)
        h = 1e-5
        for arr, grad in zip(stack_params(gen.layers), result.grads, strict=True):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                lp = generator_loss(gen, clf, y, z, z_hard, labels, lam).j_gen
                arr[idx] = orig - h
                lm = generator_loss(gen, clf, y, z, z_hard, labels, lam).j_gen
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-6) < 1e-4

    def test_classifier_affects_value_but_gets_no_gradient(self):
        gen, clf, y, z, z_hard, labels, lam = self._instance(seed=5)
        before = generator_loss(gen, clf, y, z, z_hard, labels, lam)
        clf_bytes = clf.weight.tobytes()
        clf.weight[0, 0] += 0.25
        after = generator_loss(gen, clf, y, z, z_hard, labels, lam)
        assert after.j_gen != before.j_gen
        # only generator-layer gradients are returned at all
        assert len(before.grads) == len(stack_params(gen.layers))
        clf.weight[0, 0] -= 0.25
        assert clf.weight.tobytes() == clf_bytes

    def test_synthetic_features_are_returned(self):
        gen, clf, y, z, z_hard, labels, lam = self._instance(seed=6)
        result = generator_loss(gen, clf, y, z, z_hard, labels, lam)
        assert result.member_features.shape == (6, 5)
        assert result.hardened_features.shape == (4, 5)

    def test_label_outside_classifier_range(self):
        gen, clf, y, z, z_hard, _, lam = self._instance(seed=7)
        with pytest.raises(InputError):
            generator_loss(gen, clf, y, z, z_hard, [0, 1, 2, 99], lam)


class TestClassifierStep:
    def test_separable_classes_reach_full_accuracy(self):
        rng = np.random.default_rng(8)
        clf = init_classifier(2, 2, rng=rng)
        adam = Adam(stack_params([clf]), learning_rate=0.05)
        y = np.vstack([rng.normal(size=(20, 2)) + [4.0, 0.0], rng.normal(size=(20, 2)) + [-4.0, 0.0]])
        labels = np.repeat([0, 1], 20)
        for _ in range(200):
            classifier_step(clf, y, labels, adam)
        assert classifier_accuracy(clf, y, labels) == 1.0

    def test_zero_learning_rate_is_a_null_step(self):
        rng = np.random.default_rng(9)
        clf = init_classifier(3, 2, rng=rng)
        before = clf.weight.copy()
        classifier_step(clf, rng.normal(size=(5, 3)), [0, 1, 0, 1, 0], Adam(stack_params([clf]), learning_rate=0.0))
        assert np.array_equal(clf.weight, before)

    def test_single_class_batch_pushes_its_logit_up(self):
        rng = np.random.default_rng(10)
        clf = init_classifier(2, 3, rng=rng)
        adam = Adam(stack_params([clf]), learning_rate=0.1)
        y = rng.normal(size=(4, 2))
        before = classifier_step(clf, y, [1, 1, 1, 1], adam)
        after = classifier_step(clf, y, [1, 1, 1, 1], adam)
        assert after < before

    def test_optimizer_takes_over_the_update(self):
        rng = np.random.default_rng(11)
        clf = init_classifier(2, 2, rng=rng)
        adam = Adam(stack_params([clf]), learning_rate=0.05)
        y = np.vstack([rng.normal(size=(10, 2)) + [3.0, 0.0], rng.normal(size=(10, 2)) - [3.0, 0.0]])
        labels = np.repeat([0, 1], 10)
        losses = [classifier_step(clf, y, labels, adam) for _ in range(100)]
        assert losses[-1] < losses[0]
