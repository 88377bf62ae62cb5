"""Dense layers, losses, and gradient checking on plain float64 arrays.

Every forward call returns a tape holding exactly the activations its
backward pass needs; a tape can be consumed once. Losses reduce with batch
means, so learning rates do not depend on batch size. `gradcheck` compares
any forward/backward pair against central finite differences and reports
per-parameter deviations instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, TapeReuseError, check_positive

ACTIVATIONS = ("identity", "relu")

# |analytic - numeric| is compared relative to max(|analytic|, |numeric|,
# REL_FLOOR); the floor keeps near-zero gradients from amplifying the
# ~1e-11 cancellation noise of central differences into spurious failures.
REL_FLOOR = 1e-6


def as_matrix(x, name: str = "input") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


@dataclass
class DenseLayer:
    """Fully connected layer computing activation(x @ weight.T + bias).

    weight has shape (out_dim, in_dim), bias has shape (out_dim,). The ReLU
    subgradient at exactly zero is defined as zero, so finite-difference
    checks must stay clear of points within ~1e-7 of a kink.
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")
        if self.weight.ndim != 2:
            raise DimensionError(f"weight must be 2-D (out, in), got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match weight shape {self.weight.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def init_dense(in_dim: int, out_dim: int, activation: str, rng: np.random.Generator) -> DenseLayer:
    """New layer with weights uniform in +-sqrt(6/(in+out)) and zero bias."""
    limit = math.sqrt(6.0 / (in_dim + out_dim))
    weight = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(weight, np.zeros(out_dim), activation)


class GradTape:
    """Activations recorded by one forward call; consumable exactly once."""

    __slots__ = ("x", "pre", "_consumed")

    def __init__(self, x: np.ndarray, pre: np.ndarray):
        self.x = x
        self.pre = pre
        self._consumed = False

    def consume(self):
        if self._consumed:
            raise TapeReuseError("backward already called for this forward pass")
        self._consumed = True


def dense_forward(layer: DenseLayer, x) -> tuple[np.ndarray, GradTape]:
    """activation(x @ weight.T + bias) row-wise, plus the backward tape."""
    x = as_matrix(x)
    if x.shape[1] != layer.in_dim:
        raise DimensionError(
            f"input shape {x.shape} incompatible with layer weight shape {layer.weight.shape}"
        )
    pre = x @ layer.weight.T + layer.bias
    out = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return out, GradTape(x, pre)


def dense_backward(
    layer: DenseLayer, tape: GradTape, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain-rule gradients (input_grad, weight_grad, bias_grad).

    upstream is dLoss/dOutput for the matching forward call. No batch
    normalization happens here; losses own the 1/batch factor.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != tape.pre.shape:
        raise DimensionError(
            f"upstream gradient shape {upstream.shape} does not match forward output shape {tape.pre.shape}"
        )
    tape.consume()
    if layer.activation == "relu":
        upstream = upstream * (tape.pre > 0.0)
    weight_grad = upstream.T @ tape.x
    bias_grad = upstream.sum(axis=0)
    input_grad = upstream @ layer.weight
    return input_grad, weight_grad, bias_grad


def check_chain(layers: list[DenseLayer], what: str) -> None:
    """Raise DimensionError unless each layer's outputs feed the next one's inputs."""
    for prev, nxt in zip(layers, layers[1:]):
        if nxt.in_dim != prev.out_dim:
            raise DimensionError(f"{what} layers disagree: {prev.out_dim} outputs feed {nxt.in_dim} inputs")


def stack_params(layers: list[DenseLayer]) -> list[np.ndarray]:
    """Live parameter arrays of a layer stack: [w0, b0, w1, b1, ...]."""
    return [arr for layer in layers for arr in (layer.weight, layer.bias)]


def stack_forward(layers: list[DenseLayer], x) -> tuple[np.ndarray, list[GradTape]]:
    """Run x through the stack in order; one tape per layer."""
    h = as_matrix(x)
    tapes = []
    for layer in layers:
        h, tape = dense_forward(layer, h)
        tapes.append(tape)
    return h, tapes


def stack_backward(
    layers: list[DenseLayer], tapes: list[GradTape], upstream: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Backward through a stack: (input_grad, grads in `stack_params` order)."""
    g = upstream
    grads: list[np.ndarray] = []
    for layer, tape in zip(reversed(layers), reversed(tapes)):
        g, w_grad, b_grad = dense_backward(layer, tape, g)
        grads += [b_grad, w_grad]
    return g, grads[::-1]


def softmax_xent(logits, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer labels under row softmax.

    Uses max-subtraction for a stable log-sum-exp. Gradient is
    (softmax - onehot) / batch.
    """
    logits = as_matrix(logits, "logits")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise DimensionError(f"labels shape {labels.shape} does not match batch size {logits.shape[0]}")
    labels = labels.astype(np.int64)
    n, c = logits.shape
    if n == 0:
        raise InputError("softmax_xent needs a nonempty batch")
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = float(-logp[np.arange(n), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def squared_error(a, b) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Squared difference summed over features, averaged over batch rows.

    Returns (loss, (grad_a, grad_b)) with grad_a = 2(a-b)/batch and
    grad_b = -grad_a.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    n = a.shape[0]
    diff = a - b
    loss = float((diff * diff).sum() / n)
    grad_a = 2.0 * diff / n
    return loss, (grad_a, -grad_a)


class Adam:
    """Adaptive moment optimizer bound to a fixed list of parameter arrays.

    step() applies one update in place.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, learning_rate: float):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads) -> None:
        grads = list(grads)
        if len(grads) != len(self.params):
            raise InputError(f"got {len(grads)} gradients for {len(self.params)} parameters")
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if g.shape != p.shape:
                raise DimensionError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)


@dataclass
class GradcheckReport:
    """Per-parameter max relative deviation between analytic and numeric gradients."""

    deviations: dict[str, float]
    tolerance: float
    step: float

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance

    def summary(self) -> str:
        lines = [
            f"  {name}: max rel deviation {dev:.3e}" for name, dev in sorted(self.deviations.items())
        ]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  -> {verdict} (tolerance {self.tolerance:g})")
        return "\n".join(lines)


def gradcheck(params, loss_fn, grads_fn, tolerance: float = 1e-4, step: float = 1e-5) -> GradcheckReport:
    """Verify a forward/backward pair against central finite differences.

    `params` maps names to live parameter arrays (perturbed in place and
    restored), loss_fn() returns the scalar loss at the current parameters,
    and grads_fn() returns analytic gradients keyed like `params`. Deviations
    are reported, never raised, so deliberately broken gradients show up as
    a failed verdict.
    """
    check_positive("tolerance", tolerance)
    analytic = {name: np.asarray(g, dtype=np.float64) for name, g in grads_fn().items()}
    deviations: dict[str, float] = {}
    for name, param in params.items():
        ana = analytic.get(name)
        if ana is None:
            raise InputError(f"grads_fn returned no gradient for parameter {name!r}")
        if ana.shape != param.shape:
            raise DimensionError(f"gradient shape {ana.shape} does not match parameter shape {param.shape}")
        worst = 0.0
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + step
            lp = loss_fn()
            param[idx] = orig - step
            lm = loss_fn()
            param[idx] = orig
            numeric = (lp - lm) / (2.0 * step)
            dev = abs(ana[idx] - numeric) / max(abs(ana[idx]), abs(numeric), REL_FLOOR)
            if dev > worst:
                worst = dev
        deviations[name] = worst
    return GradcheckReport(deviations, tolerance, step)
