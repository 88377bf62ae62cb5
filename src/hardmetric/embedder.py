"""Embedding model: a dense feature extractor followed by a linear projector.

The model factors into two stages so training can reuse the intermediate
features: `extract` maps raw input vectors to feature space, `project` maps
features to the embedding space where plain Euclidean distance carries the
semantics. Embeddings are not normalized: the interpolation geometry used
for hardness augmentation assumes the unconstrained space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nn import DenseLayer, GradTape, as_int64, as_matrix, check_chain, dense_forward, init_dense, stack_backward, stack_forward


@dataclass
class EmbeddingBatch:
    """Embedding-space vectors with their labels."""

    embeddings: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.embeddings = as_matrix(self.embeddings, "embeddings")
        if self.labels is not None:
            self.labels = as_int64(self.labels, "labels")


@dataclass
class EmbedderParams:
    """Extractor layer stack plus the single linear embedding projector.

    The extractor and projector are separate parameter partitions: the
    training loop routes some gradients to one but not the other.
    """

    extractor: list[DenseLayer]
    projector: DenseLayer

    def __post_init__(self):
        check_chain(self.extractor + [self.projector], "embedder")


def init_embedder(input_dim: int, hidden_dims: tuple[int, ...], embed_dim: int, rng: np.random.Generator) -> EmbedderParams:
    """ReLU extractor stack (input -> hidden dims) plus a linear projector."""
    layers = []
    prev = input_dim
    for dim in hidden_dims:
        layers.append(init_dense(prev, dim, "relu", rng))
        prev = dim
    projector = init_dense(prev, embed_dim, "identity", rng)
    return EmbedderParams(layers, projector)


def extract(params: EmbedderParams, x) -> tuple[np.ndarray, list[GradTape]]:
    """Run the feature extractor stack; tapes are kept for the backward pass."""
    return stack_forward(params.extractor, x)


def project(params: EmbedderParams, features) -> tuple[np.ndarray, GradTape]:
    """Map features to embeddings through the single linear projector."""
    return dense_forward(params.projector, features)


def project_backward(params: EmbedderParams, tape: GradTape, grad_embeddings: np.ndarray) -> list[np.ndarray]:
    """Backward through the projector: [weight_grad, bias_grad]; no feature gradient is formed."""
    return stack_backward([params.projector], [tape], grad_embeddings)


def embed(params: EmbedderParams, x, labels=None) -> tuple[EmbeddingBatch, None]:
    """The scoring forward pass: extract followed by project, keeping neither tape.

    Returns the batch and None, a second value kept only for callers that
    unpack two. A caller that needs tapes for `embed_backward` takes them
    from `extract` and `project`, as `train_step` does.
    """
    z, _ = project(params, extract(params, x)[0])
    return EmbeddingBatch(z, labels), None


def embed_backward(
    params: EmbedderParams, extractor_tapes: list[GradTape], projector_tape: GradTape, grad_embeddings: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backward through projector and extractor stack: (extractor_grads, projector_grads),
    each in `stack_params` order; no input gradient is formed."""
    grads = stack_backward(params.extractor + [params.projector], extractor_tapes + [projector_tape], grad_embeddings)
    return grads[:-2], grads[-2:]


def pairwise_distances(points) -> np.ndarray:
    """Full symmetric distance matrix with an exactly-zero diagonal.

    Computed from explicit coordinate differences rather than the Gram
    expansion, so duplicates come out exactly zero and the matrix is bitwise
    symmetric. Work is blocked to bound temporary memory.
    """
    z = as_matrix(points, "points")
    n, dim = z.shape
    if n == 0:
        raise InputError("pairwise_distances needs a nonempty batch")
    out = np.empty((n, n))
    block = max(1, (1 << 22) // max(1, n * dim))
    for start in range(0, n, block):
        d = z[start : start + block, None, :] - z[None, :, :]
        out[start : start + block] = np.sqrt((d * d).sum(axis=-1))
    return out
