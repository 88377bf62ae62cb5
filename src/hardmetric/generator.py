"""Feature-space generator and the frozen-path softmax head that scores it.

The generator is a small dense decoder mapping embeddings back to feature
space. Its objective combines a reconstruction term over the unaltered
tuple members with a softmax term that keeps hardened synthetics on their
original class. The softmax head is trained on real features only; inside
the generator objective it acts as a fixed scorer, so its parameters (and
the encoder's) receive no gradient from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedder import EmbeddingBatch, FeatureBatch
from .errors import DimensionError, InputError, NumericalError
from .nn import DenseLayer, GradTape, as_matrix, dense_backward, dense_forward, init_dense, softmax_xent, squared_error


@dataclass
class GeneratorParams:
    """Two dense layers with increasing output dims: relu hidden, identity out."""

    layers: list[DenseLayer]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise DimensionError(
                    f"generator layers disagree: {prev.out_dim} outputs feed {nxt.in_dim} inputs"
                )

    @property
    def embed_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].out_dim

    def param_arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend((layer.weight, layer.bias))
        return out

    def copy(self) -> "GeneratorParams":
        return GeneratorParams([l.copy() for l in self.layers])


@dataclass
class ClassifierParams:
    """Single linear layer from feature space to training-class logits."""

    layer: DenseLayer

    @property
    def feature_dim(self) -> int:
        return self.layer.in_dim

    @property
    def num_classes(self) -> int:
        return self.layer.out_dim

    def param_arrays(self) -> list[np.ndarray]:
        return [self.layer.weight, self.layer.bias]

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.layer.copy())


def init_generator(
    embed_dim: int,
    feature_dim: int,
    hidden_dim: int | None = None,
    rng: np.random.Generator | None = None,
) -> GeneratorParams:
    """Default hidden width is 2 * embed_dim, keeping the dims increasing."""
    rng = rng if rng is not None else np.random.default_rng(0)
    hidden = hidden_dim if hidden_dim is not None else 2 * embed_dim
    return GeneratorParams(
        [init_dense(embed_dim, hidden, "relu", rng), init_dense(hidden, feature_dim, "identity", rng)]
    )


def init_classifier(feature_dim: int, num_classes: int, rng: np.random.Generator | None = None) -> ClassifierParams:
    rng = rng if rng is not None else np.random.default_rng(0)
    return ClassifierParams(init_dense(feature_dim, num_classes, "identity", rng))


def generate_forward(gen: GeneratorParams, z) -> tuple[np.ndarray, list[GradTape]]:
    h = as_matrix(z, "embeddings")
    if h.shape[1] != gen.embed_dim:
        raise DimensionError(f"embeddings shape {h.shape} incompatible with generator input dim {gen.embed_dim}")
    tapes = []
    for layer in gen.layers:
        h, tape = dense_forward(layer, h)
        tapes.append(tape)
    return h, tapes


def generate_backward(
    gen: GeneratorParams, tapes: list[GradTape], grad_out: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients per generator layer; the input gradient is dropped on purpose."""
    g = grad_out
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for layer, tape in zip(reversed(gen.layers), reversed(tapes)):
        g, w_grad, b_grad = dense_backward(layer, tape, g)
        grads.append((w_grad, b_grad))
    grads.reverse()
    return grads


def generate(gen: GeneratorParams, embeddings: EmbeddingBatch) -> FeatureBatch:
    """Map a batch of (possibly hardened) embeddings back to feature space.

    Labels and sample ids carry over from the originals: synthesis is
    label-preserving by construction of the training objective.
    """
    y, _ = generate_forward(gen, embeddings.embeddings)
    return FeatureBatch(y, embeddings.sample_ids, embeddings.labels)


@dataclass
class GeneratorLossBreakdown:
    """Reconstruction + balanced softmax terms; j_gen is their exact sum."""

    j_recon: float
    j_soft: float
    lambda_balance: float
    j_gen: float = 0.0

    def __post_init__(self):
        self.j_gen = self.j_recon + self.lambda_balance * self.j_soft
        for name in ("j_recon", "j_soft", "j_gen"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NumericalError(f"non-finite generator loss component {name} = {value}")


@dataclass
class GeneratorLossResult:
    breakdown: GeneratorLossBreakdown
    grads: list[tuple[np.ndarray, np.ndarray]]
    member_features: np.ndarray
    hardened_features: np.ndarray


def generator_loss(
    gen: GeneratorParams,
    clf: ClassifierParams,
    real_features,
    member_embeddings,
    hardened_embeddings,
    hardened_labels,
    lambda_balance: float,
) -> GeneratorLossResult:
    """Generator objective and its gradients, which touch generator layers only.

    j_recon is the batch-mean squared reconstruction error of the unaltered
    members; j_soft is the softmax loss of the hardened synthetics against
    their original labels under the (frozen) classifier. The embeddings are
    treated as constants and the classifier's own gradients are discarded:
    the decoder adapts to the encoder, never the other way around.

    Returns the synthetic features as well so callers do not need a second
    forward pass to build the synthetic tuple.
    """
    real_features = as_matrix(real_features, "real_features")
    member_embeddings = as_matrix(member_embeddings, "member_embeddings")
    if real_features.shape[0] != member_embeddings.shape[0]:
        raise DimensionError(
            f"{real_features.shape[0]} feature rows vs {member_embeddings.shape[0]} embedding rows"
        )
    if lambda_balance < 0:
        raise InputError(f"lambda_balance must be nonnegative, got {lambda_balance}")

    member_features, member_tapes = generate_forward(gen, member_embeddings)
    j_recon, (_, grad_member_features) = squared_error(real_features, member_features)
    grads = generate_backward(gen, member_tapes, grad_member_features)

    hardened_embeddings = np.asarray(hardened_embeddings, dtype=np.float64)
    if hardened_embeddings.size:
        hardened_features, hardened_tapes = generate_forward(gen, hardened_embeddings)
        logits, clf_tape = dense_forward(clf.layer, hardened_features)
        j_soft, grad_logits = softmax_xent(logits, hardened_labels)
        # classifier weight/bias grads are dropped: frozen path
        grad_hardened, _, _ = dense_backward(clf.layer, clf_tape, grad_logits)
        soft_grads = generate_backward(gen, hardened_tapes, lambda_balance * grad_hardened)
        grads = [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(grads, soft_grads)]
    else:
        hardened_features = np.empty((0, gen.feature_dim))
        j_soft = 0.0

    breakdown = GeneratorLossBreakdown(j_recon, j_soft, lambda_balance)
    return GeneratorLossResult(breakdown, grads, member_features, hardened_features)


def classifier_logits(clf: ClassifierParams, features) -> np.ndarray:
    logits, _ = dense_forward(clf.layer, features)
    return logits


def classifier_accuracy(clf: ClassifierParams, features, labels) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    return float((classifier_logits(clf, features).argmax(axis=1) == labels).mean())


def classifier_step(clf: ClassifierParams, features, labels, optimizer) -> float:
    """One softmax-loss update of the classifier head on real features.

    Features are constants here: no gradient is propagated toward whatever
    produced them. `optimizer` is any object exposing step(grads) bound to
    this head's arrays. Returns the pre-update loss.
    """
    features = as_matrix(features, "features")
    logits, tape = dense_forward(clf.layer, features)
    loss, grad_logits = softmax_xent(logits, labels)
    _, w_grad, b_grad = dense_backward(clf.layer, tape, grad_logits)
    optimizer.step([w_grad, b_grad])
    return loss
