import numpy as np
import pytest
from test_nn import chain_by_hand, same_bits

from hardmetric.errors import InputError
from hardmetric.generator import classifier_step, generator_loss, init_generator
from hardmetric.nn import (
    Adam, DenseLayer, dense_backward, dense_forward, init_dense, softmax_xent, squared_error, stack_forward, stack_params,
)


def identity_generator(dim):
    return [
        DenseLayer(np.eye(dim), np.zeros(dim), "identity"),
        DenseLayer(np.eye(dim), np.zeros(dim), "identity"),
    ]


class TestGenerate:
    def test_identity_generator_reproduces_embeddings(self):
        gen = identity_generator(3)
        z = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]])
        out, tapes = stack_forward(gen, z)
        assert np.array_equal(out, z)
        assert len(tapes) == len(gen)

    def test_zero_weights_give_zero_features(self):
        gen = [
            DenseLayer(np.zeros((4, 3)), np.zeros(4), "relu"),
            DenseLayer(np.zeros((5, 4)), np.zeros(5), "identity"),
        ]
        out, _ = stack_forward(gen, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.array_equal(out, np.zeros((6, 5)))

    def test_random_generator_matches_composition_oracle(self):
        rng = np.random.default_rng(1)
        gen = init_generator(4, 6, hidden_dim=5, rng=rng)
        z = rng.normal(size=(3, 4))
        out, _ = stack_forward(gen, z)
        h = np.maximum(z @ gen[0].weight.T + gen[0].bias, 0.0)
        expected = h @ gen[1].weight.T + gen[1].bias
        assert np.abs(out - expected).max() < 1e-12


class TestGeneratorLoss:
    def _instance(self, seed=0, lambda_balance=0.5):
        rng = np.random.default_rng(seed)
        gen = init_generator(3, 5, hidden_dim=4, rng=rng)
        clf = init_dense(5, 3, "identity", rng)
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
        for arr, grad in zip(stack_params(gen), result.grads, strict=True):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                lp = generator_loss(gen, clf, y, z, z_hard, labels, lam).j_gen
                arr[idx] = orig - h
                lm = generator_loss(gen, clf, y, z, z_hard, labels, lam).j_gen
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-6) < 1e-4

    def test_gradients_equal_dense_backward_chained_by_hand(self):
        gen, clf, y, z, z_hard, labels, lam = self._instance(seed=5)
        result = generator_loss(gen, clf, y, z, z_hard, labels, lam)
        member_features, tapes = stack_forward(gen, z)
        _, (_, grad_features) = squared_error(y, member_features)
        recon = chain_by_hand(gen, tapes, grad_features)
        hardened_features, tapes = stack_forward(gen, z_hard)
        logits, clf_tape = dense_forward(clf, hardened_features)
        grad_hardened, _, _ = dense_backward(clf, clf_tape, softmax_xent(logits, labels)[1])
        soft = chain_by_hand(gen, tapes, lam * grad_hardened)
        assert len(result.grads) == len(recon)
        assert all(same_bits(got, a + b) for got, a, b in zip(result.grads, recon, soft))

    def test_classifier_affects_value_but_gets_no_gradient(self):
        gen, clf, y, z, z_hard, labels, lam = self._instance(seed=5)
        before = generator_loss(gen, clf, y, z, z_hard, labels, lam)
        clf_bytes = clf.weight.tobytes()
        clf.weight[0, 0] += 0.25
        after = generator_loss(gen, clf, y, z, z_hard, labels, lam)
        assert after.j_gen != before.j_gen
        # only generator-layer gradients are returned at all
        assert len(before.grads) == len(stack_params(gen))
        clf.weight[0, 0] -= 0.25
        assert clf.weight.tobytes() == clf_bytes

    def test_synthetic_features_are_returned(self):
        gen, clf, y, z, z_hard, labels, lam = self._instance(seed=6)
        result = generator_loss(gen, clf, y, z, z_hard, labels, lam)
        assert result.member_features.shape == (6, 5)
        assert result.hardened_features.shape == (4, 5)

    def test_non_linear_classifier_head_is_refused(self):
        gen, clf, y, z, z_hard, labels, lam = self._instance(seed=7)
        relu_head = DenseLayer(clf.weight, clf.bias, "relu")
        with pytest.raises(InputError, match="'relu'"):
            generator_loss(gen, relu_head, y, z, z_hard, labels, lam)

    @pytest.mark.parametrize("balance", [-0.5, np.nan])
    def test_negative_or_nan_balance_is_an_input_error(self, balance):
        # NaN is bad input: unchecked, it would surface as a non-finite loss, a numerical failure
        gen, clf, y, z, z_hard, labels, _ = self._instance(seed=7)
        with pytest.raises(InputError, match=f"lambda_balance must be nonnegative, got {balance}"):
            generator_loss(gen, clf, y, z, z_hard, labels, balance)

    def test_label_outside_classifier_range(self):
        gen, clf, y, z, z_hard, _, lam = self._instance(seed=7)
        with pytest.raises(InputError):
            generator_loss(gen, clf, y, z, z_hard, [0, 1, 2, 99], lam)


class TestClassifierStep:
    def test_separable_classes_reach_full_accuracy(self):
        rng = np.random.default_rng(8)
        clf = init_dense(2, 2, "identity", rng)
        adam = Adam(stack_params([clf]), learning_rate=0.05)
        y = np.vstack([rng.normal(size=(20, 2)) + [4.0, 0.0], rng.normal(size=(20, 2)) + [-4.0, 0.0]])
        labels = np.repeat([0, 1], 20)
        for _ in range(200):
            classifier_step(clf, y, labels, adam)
        logits, _ = dense_forward(clf, y)
        assert np.array_equal(logits.argmax(axis=1), labels)

    def test_zero_learning_rate_is_a_null_step(self):
        rng = np.random.default_rng(9)
        clf = init_dense(3, 2, "identity", rng)
        before = clf.weight.copy()
        classifier_step(clf, rng.normal(size=(5, 3)), [0, 1, 0, 1, 0], Adam(stack_params([clf]), learning_rate=0.0))
        assert np.array_equal(clf.weight, before)

    def test_single_class_batch_pushes_its_logit_up(self):
        rng = np.random.default_rng(10)
        clf = init_dense(2, 3, "identity", rng)
        adam = Adam(stack_params([clf]), learning_rate=0.1)
        y = rng.normal(size=(4, 2))
        before = classifier_step(clf, y, [1, 1, 1, 1], adam)
        after = classifier_step(clf, y, [1, 1, 1, 1], adam)
        assert after < before

    def test_update_takes_the_dense_backward_gradients(self):
        rng = np.random.default_rng(12)
        clf = init_dense(3, 2, "identity", rng)
        y, labels = rng.normal(size=(5, 3)), np.array([0, 1, 0, 1, 1])
        logits, tape = dense_forward(clf, y)
        _, w_grad, b_grad = dense_backward(clf, tape, softmax_xent(logits, labels)[1])

        class Recorder:
            def step(self, grads):
                self.grads = grads

        recorder = Recorder()
        classifier_step(clf, y, labels, recorder)
        assert len(recorder.grads) == 2
        assert same_bits(recorder.grads[0], w_grad) and same_bits(recorder.grads[1], b_grad)

    def test_optimizer_takes_over_the_update(self):
        rng = np.random.default_rng(11)
        clf = init_dense(2, 2, "identity", rng)
        adam = Adam(stack_params([clf]), learning_rate=0.05)
        y = np.vstack([rng.normal(size=(10, 2)) + [3.0, 0.0], rng.normal(size=(10, 2)) - [3.0, 0.0]])
        labels = np.repeat([0, 1], 10)
        losses = [classifier_step(clf, y, labels, adam) for _ in range(100)]
        assert losses[-1] < losses[0]
