import math

import numpy as np
import pytest

from hardmetric.errors import DimensionError, InputError, TapeReuseError
from hardmetric.nn import (
    Adam,
    DenseLayer,
    GradTape,
    dense_backward,
    dense_forward,
    gradcheck,
    init_dense,
    softmax_xent,
    squared_error,
)


def numeric_grad(loss_fn, array, h=1e-5):
    """Central finite differences of a scalar function of one array."""
    grad = np.zeros_like(array)
    for idx in np.ndindex(array.shape):
        orig = array[idx]
        array[idx] = orig + h
        lp = loss_fn()
        array[idx] = orig - h
        lm = loss_fn()
        array[idx] = orig
        grad[idx] = (lp - lm) / (2 * h)
    return grad


def rel_err(a, b, floor=1e-6):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, floor)])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def chain_by_hand(layers, tapes, upstream):
    """Parameter gradients in `stack_params` order, one `dense_backward` call per layer."""
    grads, g = [], upstream
    for layer, tape in zip(reversed(layers), reversed(tapes)):
        g, w_grad, b_grad = dense_backward(layer, tape, g)
        grads = [w_grad, b_grad] + grads
    return grads


def relu_reference(layer, x, pre, upstream):
    """(input_grad, weight_grad, bias_grad) of a ReLU layer, masked with an explicit pre > 0."""
    g = upstream * (pre > 0.0)
    return g @ layer.weight, g.T @ x, g.sum(axis=0)


class TestDenseForward:
    def test_identity_layer_passes_through(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "identity")
        out, _ = dense_forward(layer, [[3.0, -1.0]])
        assert np.array_equal(out, [[3.0, -1.0]])

    def test_relu_clips_negatives(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
        out, _ = dense_forward(layer, [[3.0, -1.0]])
        assert np.array_equal(out, [[3.0, 0.0]])

    def test_matches_hand_rolled_matmul(self):
        # oracle: explicit loops over activation(x @ W.T + b)
        rng = np.random.default_rng(7)
        layer = init_dense(3, 4, "relu", rng)
        x = rng.normal(size=(2, 3))
        out, _ = dense_forward(layer, x)
        expected = np.zeros((2, 4))
        for i in range(2):
            for o in range(4):
                acc = layer.bias[o]
                for k in range(3):
                    acc += x[i, k] * layer.weight[o, k]
                expected[i, o] = max(acc, 0.0)
        assert np.abs(out - expected).max() < 1e-12

    def test_shape_mismatch_reports_both_shapes(self):
        layer = init_dense(3, 4, "identity", np.random.default_rng(0))
        with pytest.raises(DimensionError) as exc:
            dense_forward(layer, np.zeros((2, 5)))
        assert "(2, 5)" in str(exc.value) and "(4, 3)" in str(exc.value)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        layer = init_dense(6, 5, "relu", rng)
        x = rng.normal(size=(4, 6))
        a, _ = dense_forward(layer, x)
        b, _ = dense_forward(layer, x)
        assert np.array_equal(a, b)


class TestDenseBackward:
    def test_identity_jacobian(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
        out, tape = dense_forward(layer, np.array([[1.0, 2.0, 3.0]]))
        gx, _, _ = dense_backward(layer, tape, np.ones_like(out))
        assert np.array_equal(gx, np.ones((1, 3)))

    def test_relu_dead_zone_zeroes_gradient(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
        out, tape = dense_forward(layer, np.array([[2.0, -3.0]]))
        gx, _, _ = dense_backward(layer, tape, np.ones_like(out))
        assert gx[0, 0] == 1.0 and gx[0, 1] == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            layer = init_dense(4, 3, "relu", rng)
            x = rng.normal(size=(3, 4))
            target = rng.normal(size=(3, 3))

            def loss():
                out, _ = dense_forward(layer, x)
                return squared_error(out, target)[0]

            out, tape = dense_forward(layer, x)
            g_out = squared_error(out, target)[1][0]
            gx, gw, gb = dense_backward(layer, tape, g_out)
            assert rel_err(gw, numeric_grad(loss, layer.weight)).max() < 1e-4
            assert rel_err(gb, numeric_grad(loss, layer.bias)).max() < 1e-4
            assert rel_err(gx, numeric_grad(loss, x)).max() < 1e-4

    def test_relu_mask_through_the_forward_pass_is_pre_greater_than_zero(self):
        # pre-activations +0.0 (1 - 1 and 0 + -0.0), negatives, NaN and positives, with a nonzero bias
        layer = DenseLayer([[1.0, 1.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, -0.0, -0.5], "relu")
        x = np.array([[1.0, -1.0], [-0.0, -0.0], [np.nan, 1.0], [2.0, 1.0]])
        pre = x @ layer.weight.T + layer.bias
        assert (pre == 0.0).any() and (pre < 0.0).any() and np.isnan(pre).any() and (pre > 0.0).any()
        out, tape = dense_forward(layer, x)
        assert same_bits(out, np.maximum(pre, 0.0)) and tape.out is out
        upstream = np.random.default_rng(12).normal(size=out.shape)
        for got, want in zip(dense_backward(layer, tape, upstream), relu_reference(layer, x, pre, upstream)):
            assert same_bits(got, want)

    def test_relu_mask_over_negative_zero_and_nan_is_pre_greater_than_zero(self):
        # products never round to -0.0 in the forward pass, so the tape is built as dense_forward builds it
        layer = DenseLayer([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.0]], [0.0, 0.0, 0.0], "relu")
        x = np.array([[1.0, 2.0], [-3.0, 0.5]])
        pre = np.array([[-0.0, 0.0, np.nan], [-2.0, 1.5, -0.0]])
        tape = GradTape(x, np.maximum(pre, 0.0))
        upstream = np.array([[1.0, -2.0, 3.0], [0.5, 4.0, -1.0]])
        for got, want in zip(dense_backward(layer, tape, upstream), relu_reference(layer, x, pre, upstream)):
            assert same_bits(got, want)

    def test_tape_reuse_raises(self):
        layer = init_dense(2, 2, "identity", np.random.default_rng(0))
        out, tape = dense_forward(layer, np.zeros((1, 2)))
        dense_backward(layer, tape, np.ones_like(out))
        with pytest.raises(TapeReuseError):
            dense_backward(layer, tape, np.ones_like(out))

    def test_gradient_shapes_match_parameters(self):
        layer = init_dense(5, 3, "relu", np.random.default_rng(1))
        out, tape = dense_forward(layer, np.ones((4, 5)))
        _, gw, gb = dense_backward(layer, tape, np.ones_like(out))
        assert gw.shape == layer.weight.shape
        assert gb.shape == layer.bias.shape


class TestSoftmaxXent:
    def test_uniform_logits_give_log_c(self):
        loss, _ = softmax_xent(np.zeros((3, 4)), [0, 1, 2])
        assert abs(loss - math.log(4)) < 1e-12

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 200.0
        loss, _ = softmax_xent(logits, [1])
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)

        def loss():
            return softmax_xent(logits, labels)[0]

        _, grad = softmax_xent(logits, labels)
        assert rel_err(grad, numeric_grad(loss, logits)).max() < 1e-4

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(3, 6)) * 5
        labels = [1, 0, 5]
        base, _ = softmax_xent(logits, labels)
        shifted, _ = softmax_xent(logits + 123.456, labels)
        assert abs(base - shifted) < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            softmax_xent(np.zeros((2, 3)), [0, 3])


class TestSquaredError:
    def test_zero_for_equal_inputs(self):
        a = np.arange(6.0).reshape(2, 3)
        assert squared_error(a, a.copy())[0] == 0.0

    def test_unit_offset(self):
        loss, _ = squared_error(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert loss == 1.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))

        def loss():
            return squared_error(a, b)[0]

        _, (ga, gb) = squared_error(a, b)
        assert rel_err(ga, numeric_grad(loss, a)).max() < 1e-4
        assert rel_err(gb, numeric_grad(loss, b)).max() < 1e-4
        assert np.array_equal(ga, -gb)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            squared_error(np.zeros((2, 3)), np.zeros((3, 2)))


class _TwoLayerFragment:
    """Small relu net + softmax loss for gradcheck exercises."""

    def __init__(self, seed=0, corrupt=False):
        rng = np.random.default_rng(seed)
        self.l1 = init_dense(4, 5, "relu", rng)
        self.l2 = init_dense(5, 3, "identity", rng)
        self.x = rng.normal(size=(6, 4))
        self.labels = rng.integers(0, 3, size=6)
        self.corrupt = corrupt

    def params(self):
        return {
            "l1.weight": self.l1.weight,
            "l1.bias": self.l1.bias,
            "l2.weight": self.l2.weight,
            "l2.bias": self.l2.bias,
        }

    def loss(self):
        h, _ = dense_forward(self.l1, self.x)
        out, _ = dense_forward(self.l2, h)
        return softmax_xent(out, self.labels)[0]

    def grads(self):
        h, t1 = dense_forward(self.l1, self.x)
        out, t2 = dense_forward(self.l2, h)
        _, g = softmax_xent(out, self.labels)
        gh, gw2, gb2 = dense_backward(self.l2, t2, g)
        _, gw1, gb1 = dense_backward(self.l1, t1, gh)
        scale = 1.01 if self.corrupt else 1.0
        return {"l1.weight": gw1 * scale, "l1.bias": gb1, "l2.weight": gw2, "l2.bias": gb2}


class _LinearSquaredFragment:
    """Identity-activation layer + squared error: gradients exact to rounding."""

    def __init__(self):
        rng = np.random.default_rng(9)
        self.layer = init_dense(3, 3, "identity", rng)
        self.x = rng.normal(size=(2, 3))
        self.target = rng.normal(size=(2, 3))

    def params(self):
        return {"weight": self.layer.weight, "bias": self.layer.bias}

    def loss(self):
        out, _ = dense_forward(self.layer, self.x)
        return squared_error(out, self.target)[0]

    def grads(self):
        out, tape = dense_forward(self.layer, self.x)
        _, (g, _) = squared_error(out, self.target)
        _, gw, gb = dense_backward(self.layer, tape, g)
        return {"weight": gw, "bias": gb}


def _gradcheck(fragment, **kwargs):
    return gradcheck(fragment.params(), fragment.loss, fragment.grads, **kwargs)


class TestGradcheck:
    def test_linear_model_is_near_exact(self):
        # quadratic loss: central differences are exact for any step, so a
        # larger step leaves only rounding noise
        report = _gradcheck(_LinearSquaredFragment(), step=1e-2)
        assert report.max_deviation < 1e-10

    def test_two_layer_relu_softmax_passes(self):
        report = _gradcheck(_TwoLayerFragment(seed=1), tolerance=1e-4)
        assert report.passed, report.deviations

    def test_corrupted_gradient_is_reported_not_raised(self):
        report = _gradcheck(_TwoLayerFragment(seed=1, corrupt=True), tolerance=1e-4)
        assert not report.passed
        assert report.deviations["l1.weight"] > 1e-3

    def test_many_random_instances(self):
        for seed in range(20):
            report = _gradcheck(_TwoLayerFragment(seed=seed), tolerance=1e-4)
            assert report.passed, f"seed {seed}: {report.deviations}"


class TestAdam:
    def test_descends_a_quadratic(self):
        p = np.array([5.0, -3.0])
        adam = Adam([p], learning_rate=0.1)
        for _ in range(500):
            adam.step([2 * p])
        assert np.abs(p).max() < 1e-3

    def test_rejects_mismatched_grads(self):
        adam = Adam([np.zeros(3)], learning_rate=0.1)
        with pytest.raises(InputError):
            adam.step([np.zeros(3), np.zeros(2)])
