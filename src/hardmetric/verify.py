"""Gradient verification of the full pipelines against finite differences.

Builds small random instances of the three differentiable objectives
(embedder + triplet loss, embedder + N-pair loss, generator objective) and
runs each through `gradcheck`. Instances sitting too close to a kink (a
ReLU pre-activation near zero, a triplet hinge on its boundary, or two
members nearly coincident) are redrawn, since the analytic subgradient
convention there is 0 while finite differences straddle the corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedder import embed, embed_backward, init_embedder, pairwise_distances
from .errors import InputError, check_nonnegative, check_positive
from .generator import generator_loss, init_generator
from .losses import TupleBatch, batch_metric_loss
from .nn import GradcheckReport, gradcheck, init_dense, stack_params

KINK_MARGIN = 1e-6
MAX_DRAWS = 50  # random instances tried before a fragment gives up


def _stack_names(prefix: str, layers) -> list[str]:
    """Parameter names in `stack_params` order: prefix.0.weight, prefix.0.bias, ..."""
    return [f"{prefix}.{i}.{part}" for i in range(len(layers)) for part in ("weight", "bias")]


def embedder_metric_fragment(loss_kind: str, rng: np.random.Generator):
    """Random embedder + tuple-loss instance safe for finite differences: `gradcheck` arguments."""
    input_dim, hidden, embed_dim = 5, (7, 6), 4
    if loss_kind == "triplet":
        n_points, n_classes = 9, 3
    elif loss_kind == "npair":
        n_points, n_classes = 8, 4
    else:
        raise InputError(f"unknown loss kind {loss_kind!r}")
    margin = 0.3

    for _ in range(MAX_DRAWS):
        embedder = init_embedder(input_dim, hidden, embed_dim, rng)
        x = rng.normal(0.0, 1.0, size=(n_points, input_dim))
        labels = np.arange(n_points) % n_classes
        if loss_kind == "triplet":
            # anchor i, positive i + 3 and negative i + 1 (mod 9): every row is label-consistent, as 3 divides 9
            idx = (np.arange(n_points)[:, None] + [0, n_classes, 1]) % n_points
            tuples = TupleBatch("triplet", idx[:, 0], idx[:, 1], idx[:, 2], labels)
        else:
            labels = np.repeat(np.arange(n_classes), 2)
            tuples = TupleBatch.npair(2 * np.arange(n_classes), 2 * np.arange(n_classes) + 1, labels)

        emb, (ext_tapes, _) = embed(embedder, x)
        if any(np.abs(t.pre).min() < KINK_MARGIN for t in ext_tapes if t.pre.size):
            continue
        z = emb.embeddings
        dist = pairwise_distances(z[np.unique(tuples.rows)])
        if dist[~np.eye(len(dist), dtype=bool)].min() < 1e-3:
            continue
        if loss_kind == "triplet":
            dp = np.linalg.norm(z[idx[:, 0]] - z[idx[:, 1]], axis=1)
            dn = np.linalg.norm(z[idx[:, 0]] - z[idx[:, 2]], axis=1)
            if np.abs(dp - dn + margin).min() < KINK_MARGIN:
                continue

        def loss_fn(embedder=embedder, x=x, tuples=tuples) -> float:
            e, _ = embed(embedder, x)
            j, _ = batch_metric_loss(e.embeddings, tuples, margin)
            return j

        names = _stack_names("extractor", embedder.extractor) + ["projector.weight", "projector.bias"]

        def grads_fn(embedder=embedder, x=x, tuples=tuples, names=names) -> dict[str, np.ndarray]:
            e, (ext_tapes, proj_tape) = embed(embedder, x)
            _, gz = batch_metric_loss(e.embeddings, tuples, margin)
            ext_grads, proj_grads = embed_backward(embedder, ext_tapes, proj_tape, gz)
            return dict(zip(names, ext_grads + proj_grads))

        params = dict(zip(names, stack_params(embedder.extractor + [embedder.projector])))
        return params, loss_fn, grads_fn
    raise InputError(f"could not draw a kink-free {loss_kind} instance in {MAX_DRAWS} tries")


def generator_objective_fragment(rng: np.random.Generator):
    """Random generator-objective instance in the generator's parameters: `gradcheck` arguments."""
    embed_dim, feature_dim, n_classes = 4, 6, 3
    n_members, n_hardened = 6, 4
    for _ in range(MAX_DRAWS):
        gen = init_generator(embed_dim, feature_dim, hidden_dim=5, rng=rng)
        clf = init_dense(feature_dim, n_classes, "identity", rng)
        clf.weight[:] = rng.normal(0.0, 0.5, size=clf.weight.shape)
        y = rng.normal(0.0, 1.0, size=(n_members, feature_dim))
        z = rng.normal(0.0, 1.0, size=(n_members, embed_dim))
        z_hard = rng.normal(0.0, 1.0, size=(n_hardened, embed_dim))
        labels = rng.integers(0, n_classes, size=n_hardened)

        pre1 = z @ gen[0].weight.T + gen[0].bias
        pre2 = z_hard @ gen[0].weight.T + gen[0].bias
        if min(np.abs(pre1).min(), np.abs(pre2).min()) < KINK_MARGIN:
            continue

        names = _stack_names("generator", gen)

        def loss_fn(gen=gen, clf=clf, y=y, z=z, z_hard=z_hard, labels=labels) -> float:
            return generator_loss(gen, clf, y, z, z_hard, labels, 0.5).j_gen

        def grads_fn(gen=gen, clf=clf, y=y, z=z, z_hard=z_hard, labels=labels, names=names) -> dict[str, np.ndarray]:
            return dict(zip(names, generator_loss(gen, clf, y, z, z_hard, labels, 0.5).grads))

        return dict(zip(names, stack_params(gen))), loss_fn, grads_fn
    raise InputError(f"could not draw a kink-free generator instance in {MAX_DRAWS} tries")


@dataclass
class SuiteResult:
    name: str
    reports: list[GradcheckReport]

    @property
    def max_deviation(self) -> float:
        return max(r.max_deviation for r in self.reports)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def run_gradcheck_suite(seed: int = 0, instances: int = 20, tolerance: float = 1e-4) -> list[SuiteResult]:
    """Gradcheck the three pipeline objectives on `instances` random draws each."""
    check_nonnegative("seed", seed)
    check_positive("instances", instances)
    rng = np.random.default_rng(seed)
    suites = [
        ("embedder + triplet loss", lambda: embedder_metric_fragment("triplet", rng)),
        ("embedder + npair loss", lambda: embedder_metric_fragment("npair", rng)),
        ("generator objective", lambda: generator_objective_fragment(rng)),
    ]
    results = []
    for name, build in suites:
        reports = [gradcheck(*build(), tolerance=tolerance) for _ in range(instances)]
        results.append(SuiteResult(name, reports))
    return results
