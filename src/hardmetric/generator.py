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

from .errors import DimensionError, InputError, NumericalError, check_nonnegative
from .nn import (
    DenseLayer, as_matrix, dense_forward, init_dense, softmax_xent, squared_error, stack_backward, stack_forward,
)


def init_generator(
    embed_dim: int, feature_dim: int, hidden_dim: int | None = None, *, rng: np.random.Generator
) -> list[DenseLayer]:
    """Two dense layers with increasing output dims: relu hidden, identity out.
    Default hidden width is 2 * embed_dim, keeping the dims increasing."""
    hidden = hidden_dim if hidden_dim is not None else 2 * embed_dim
    return [init_dense(embed_dim, hidden, "relu", rng), init_dense(hidden, feature_dim, "identity", rng)]


@dataclass
class GeneratorLossResult:
    """Reconstruction and softmax terms, j_gen = j_recon + lambda_balance * j_soft,
    with the generator gradients and the synthetic features."""

    j_recon: float
    j_soft: float
    j_gen: float
    grads: list[np.ndarray]  # of j_gen, in `stack_params(gen)` order
    member_features: np.ndarray
    hardened_features: np.ndarray

    def __post_init__(self):
        for name in ("j_recon", "j_soft", "j_gen"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NumericalError(f"non-finite generator loss component {name} = {value}")


def generator_loss(
    gen: list[DenseLayer],
    clf: DenseLayer,
    real_features,
    member_embeddings,
    hardened_embeddings,
    hardened_labels,
    lambda_balance: float,
) -> GeneratorLossResult:
    """Generator objective and its gradients, which touch generator layers only.

    j_recon is the batch-mean squared reconstruction error of the unaltered
    members; j_soft is the softmax loss of the hardened synthetics against
    their original labels under the (frozen) classifier, which must be an
    identity-activation head. The embeddings and the classifier are constants
    here: the decoder adapts to the encoder, never the other way around.
    `train_step` steps the head only after this call has read it.

    Returns the synthetic features as well so callers do not need a second
    forward pass to build the synthetic tuple.
    """
    real_features = as_matrix(real_features, "real_features")
    member_embeddings = as_matrix(member_embeddings, "member_embeddings")
    if real_features.shape[0] != member_embeddings.shape[0]:
        raise DimensionError(
            f"{real_features.shape[0]} feature rows vs {member_embeddings.shape[0]} embedding rows"
        )
    check_nonnegative("lambda_balance", lambda_balance)
    if clf.activation != "identity":
        raise InputError(f"the frozen classifier head must be linear ('identity'), got {clf.activation!r}")

    member_features, member_tapes = stack_forward(gen, member_embeddings)
    j_recon, (_, grad_member_features) = squared_error(real_features, member_features)
    # embeddings are constants here, so no gradient reaches them
    grads = stack_backward(gen, member_tapes, grad_member_features)

    hardened_embeddings = np.asarray(hardened_embeddings, dtype=np.float64)
    if hardened_embeddings.size:
        hardened_features, hardened_tapes = stack_forward(gen, hardened_embeddings)
        logits, _ = dense_forward(clf, hardened_features)
        j_soft, grad_logits = softmax_xent(logits, hardened_labels)
        # the input gradient of a linear head alone: the classifier is frozen here
        soft_grads = stack_backward(gen, hardened_tapes, lambda_balance * (grad_logits @ clf.weight))
        grads = [a + b for a, b in zip(grads, soft_grads)]
    else:
        hardened_features = np.empty((0, gen[-1].out_dim))
        j_soft = 0.0

    j_gen = j_recon + lambda_balance * j_soft
    return GeneratorLossResult(j_recon, j_soft, j_gen, grads, member_features, hardened_features)


def classifier_step(clf: DenseLayer, features, labels, optimizer) -> float:
    """One softmax-loss update of the classifier head on real features.

    Features are constants here: no gradient is propagated toward whatever
    produced them. `optimizer` is any object exposing step(grads) bound to
    this head's arrays. Returns the pre-update loss.
    """
    features = as_matrix(features, "features")
    logits, tape = dense_forward(clf, features)
    loss, grad_logits = softmax_xent(logits, labels)
    optimizer.step(stack_backward([clf], [tape], grad_logits))
    return loss
