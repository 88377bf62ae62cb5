"""Embedding model: a dense feature extractor followed by a linear projector.

The model factors into two stages so training can reuse the intermediate
features: `extract` maps raw input vectors to feature space, `project` maps
features to the embedding space where plain Euclidean distance carries the
semantics. An optional L2 normalization of embeddings exists for ablation
and is off by default; the interpolation geometry used for hardness
augmentation assumes the unconstrained space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nn import DenseLayer, GradTape, as_matrix, check_chain, dense_forward, init_dense, stack_backward, stack_forward


@dataclass
class EmbeddingBatch:
    """Embedding-space vectors with their labels."""

    embeddings: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.embeddings = as_matrix(self.embeddings, "embeddings")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)


@dataclass
class EmbedderParams:
    """Extractor layer stack plus the single linear embedding projector.

    The extractor and projector are separate parameter partitions: the
    training loop routes some gradients to one but not the other.
    """

    extractor: list[DenseLayer]
    projector: DenseLayer
    normalize: bool = False

    def __post_init__(self):
        check_chain(self.extractor + [self.projector], "embedder")


def init_embedder(
    input_dim: int, hidden_dims: tuple[int, ...], embed_dim: int, rng: np.random.Generator, normalize: bool = False
) -> EmbedderParams:
    """ReLU extractor stack (input -> hidden dims) plus a linear projector."""
    layers = []
    prev = input_dim
    for dim in hidden_dims:
        layers.append(init_dense(prev, dim, "relu", rng))
        prev = dim
    projector = init_dense(prev, embed_dim, "identity", rng)
    return EmbedderParams(layers, projector, normalize)


@dataclass
class ProjectTape:
    dense: GradTape
    norms: np.ndarray | None = None
    unit: np.ndarray | None = None


def extract(params: EmbedderParams, x) -> tuple[np.ndarray, list[GradTape]]:
    """Run the feature extractor stack; tapes are kept for the backward pass."""
    return stack_forward(params.extractor, x)


def project(params: EmbedderParams, features) -> tuple[np.ndarray, ProjectTape]:
    """Map features to embeddings through the single linear projector."""
    z, tape = dense_forward(params.projector, features)
    if not params.normalize:
        return z, ProjectTape(tape)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = z / safe
    return unit, ProjectTape(tape, norms=safe, unit=unit)


def project_backward(
    params: EmbedderParams, tape: ProjectTape, grad_embeddings: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Backward through the projector: (feature_grad, [weight_grad, bias_grad])."""
    g = np.asarray(grad_embeddings, dtype=np.float64)
    if params.normalize:
        # d(z/|z|) pushes the gradient onto the tangent of the unit sphere
        radial = (tape.unit * g).sum(axis=1, keepdims=True)
        g = (g - tape.unit * radial) / tape.norms
    return stack_backward([params.projector], [tape.dense], g)


def embed(params: EmbedderParams, x, labels=None) -> tuple[EmbeddingBatch, tuple[list[GradTape], ProjectTape]]:
    """extract followed by project; returns the batch and (extractor_tapes, projector_tape)."""
    feats, ext_tapes = extract(params, x)
    z, proj_tape = project(params, feats)
    return EmbeddingBatch(z, labels), (ext_tapes, proj_tape)


def embed_backward(
    params: EmbedderParams, extractor_tapes: list[GradTape], projector_tape: ProjectTape, grad_embeddings: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backward through projector and extractor stack: (extractor_grads, projector_grads),
    each in `stack_params` order."""
    g, proj_grads = project_backward(params, projector_tape, grad_embeddings)
    _, ext_grads = stack_backward(params.extractor, extractor_tapes, g)
    return ext_grads, proj_grads


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
