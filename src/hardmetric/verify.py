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

from .embedder import EmbedTape, embed, embed_backward, init_embedder
from .errors import InputError
from .generator import generator_loss, init_classifier, init_generator
from .losses import LossConfig, TupleBatch, batch_metric_loss
from .nn import GradcheckReport, gradcheck

KINK_MARGIN = 1e-6


class _Fragment:
    """Adapter giving gradcheck its params()/loss()/grads() surface."""

    def __init__(self, params: dict[str, np.ndarray], loss_fn, grads_fn):
        self._params = params
        self._loss_fn = loss_fn
        self._grads_fn = grads_fn

    def params(self) -> dict[str, np.ndarray]:
        return self._params

    def loss(self) -> float:
        return self._loss_fn()

    def grads(self) -> dict[str, np.ndarray]:
        return self._grads_fn()


def _embedder_param_dict(embedder) -> dict[str, np.ndarray]:
    out = {}
    for i, layer in enumerate(embedder.extractor):
        out[f"extractor.{i}.weight"] = layer.weight
        out[f"extractor.{i}.bias"] = layer.bias
    out["projector.weight"] = embedder.projector.weight
    out["projector.bias"] = embedder.projector.bias
    return out


def _near_kink(tapes: EmbedTape) -> bool:
    return any(np.abs(t.pre).min() < KINK_MARGIN for t in tapes.extractor if t.pre.size)


def embedder_metric_fragment(loss_kind: str, rng: np.random.Generator, max_draws: int = 50) -> _Fragment:
    """Random embedder + tuple-loss instance safe for finite differences."""
    input_dim, hidden, embed_dim = 5, (7, 6), 4
    if loss_kind == "triplet":
        n_points, n_classes = 9, 3
    elif loss_kind == "npair":
        n_points, n_classes = 8, 4
    else:
        raise InputError(f"unknown loss kind {loss_kind!r}")
    cfg = LossConfig(margin=0.3, npair_n=n_classes)

    for _ in range(max_draws):
        embedder = init_embedder(input_dim, hidden, embed_dim, rng)
        x = rng.normal(0.0, 1.0, size=(n_points, input_dim))
        labels = np.arange(n_points) % n_classes
        if loss_kind == "triplet":
            idx = np.asarray(
                [(i, (i + n_classes) % n_points, (i + 1) % n_points) for i in range(n_points)]
            )
            # keep only label-consistent triplets
            idx = np.asarray(
                [row for row in idx if labels[row[0]] == labels[row[1]] and labels[row[0]] != labels[row[2]]]
            )
            tuples = TupleBatch("triplet", idx[:, 0], idx[:, 1], idx[:, 2], labels)
        else:
            labels = np.repeat(np.arange(n_classes), 2)
            tuples = TupleBatch.npair(2 * np.arange(n_classes), 2 * np.arange(n_classes) + 1, labels)

        emb, tapes = embed(embedder, x)
        if _near_kink(tapes):
            continue
        z = emb.embeddings
        member_rows = np.unique(tuples.rows)
        d = z[member_rows][:, None, :] - z[member_rows][None, :, :]
        dist = np.sqrt((d * d).sum(-1))
        if dist[~np.eye(len(member_rows), dtype=bool)].min() < 1e-3:
            continue
        if loss_kind == "triplet":
            dp = np.linalg.norm(z[idx[:, 0]] - z[idx[:, 1]], axis=1)
            dn = np.linalg.norm(z[idx[:, 0]] - z[idx[:, 2]], axis=1)
            if np.abs(dp - dn + cfg.margin).min() < KINK_MARGIN:
                continue

        def loss_fn(embedder=embedder, x=x, tuples=tuples, cfg=cfg) -> float:
            e, _ = embed(embedder, x)
            j, _ = batch_metric_loss(e.embeddings, tuples, cfg)
            return j

        def grads_fn(embedder=embedder, x=x, tuples=tuples, cfg=cfg) -> dict[str, np.ndarray]:
            e, tape = embed(embedder, x)
            _, gz = batch_metric_loss(e.embeddings, tuples, cfg)
            grads = embed_backward(embedder, tape, gz)
            out = {}
            for i, (gw, gb) in enumerate(grads.extractor):
                out[f"extractor.{i}.weight"] = gw
                out[f"extractor.{i}.bias"] = gb
            out["projector.weight"] = grads.projector[0]
            out["projector.bias"] = grads.projector[1]
            return out

        return _Fragment(_embedder_param_dict(embedder), loss_fn, grads_fn)
    raise InputError(f"could not draw a kink-free {loss_kind} instance in {max_draws} tries")


def generator_objective_fragment(rng: np.random.Generator, max_draws: int = 50) -> _Fragment:
    """Random generator-objective instance differentiated w.r.t. the generator."""
    embed_dim, feature_dim, n_classes = 4, 6, 3
    n_members, n_hardened = 6, 4
    for _ in range(max_draws):
        gen = init_generator(embed_dim, feature_dim, hidden_dim=5, rng=rng)
        clf = init_classifier(feature_dim, n_classes, rng=rng)
        clf.layer.weight[:] = rng.normal(0.0, 0.5, size=clf.layer.weight.shape)
        y = rng.normal(0.0, 1.0, size=(n_members, feature_dim))
        z = rng.normal(0.0, 1.0, size=(n_members, embed_dim))
        z_hard = rng.normal(0.0, 1.0, size=(n_hardened, embed_dim))
        labels = rng.integers(0, n_classes, size=n_hardened)

        pre1 = z @ gen.layers[0].weight.T + gen.layers[0].bias
        pre2 = z_hard @ gen.layers[0].weight.T + gen.layers[0].bias
        if min(np.abs(pre1).min(), np.abs(pre2).min()) < KINK_MARGIN:
            continue

        params = {}
        for i, layer in enumerate(gen.layers):
            params[f"generator.{i}.weight"] = layer.weight
            params[f"generator.{i}.bias"] = layer.bias

        def loss_fn(gen=gen, clf=clf, y=y, z=z, z_hard=z_hard, labels=labels) -> float:
            return generator_loss(gen, clf, y, z, z_hard, labels, 0.5).breakdown.j_gen

        def grads_fn(gen=gen, clf=clf, y=y, z=z, z_hard=z_hard, labels=labels) -> dict[str, np.ndarray]:
            result = generator_loss(gen, clf, y, z, z_hard, labels, 0.5)
            out = {}
            for i, (gw, gb) in enumerate(result.grads):
                out[f"generator.{i}.weight"] = gw
                out[f"generator.{i}.bias"] = gb
            return out

        return _Fragment(params, loss_fn, grads_fn)
    raise InputError(f"could not draw a kink-free generator instance in {max_draws} tries")


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
    rng = np.random.default_rng(seed)
    suites = [
        ("embedder + triplet loss", lambda: embedder_metric_fragment("triplet", rng)),
        ("embedder + npair loss", lambda: embedder_metric_fragment("npair", rng)),
        ("generator objective", lambda: generator_objective_fragment(rng)),
    ]
    results = []
    for name, build in suites:
        reports = [gradcheck(build(), tolerance=tolerance) for _ in range(instances)]
        results.append(SuiteResult(name, reports))
    return results
