"""Span tracing from outside the program.

Each traced layer is a public function (or `Adam.step`) of a `hardmetric`
module. The tracer replaces the function at every place a caller looks it
up: every attribute of every loaded `hardmetric` module that holds the
original object. A wrapper records one span (layer, parent span, phase,
start, end) and, for some layers, observes arguments and result to count
work and check the hardening geometry. Observation runs after the span ends
and is excluded from the parent's self time.

Spans are kept in memory; `layer_metrics` turns them into per-layer self
times and counts for one set-up plus one round of the workload.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (layer name, module that defines the object, attribute path)
LAYERS = [
    ("training.run_training", "hardmetric.training", "run_training"),
    ("training.train_step", "hardmetric.training", "train_step"),
    ("training.mine_tuples", "hardmetric.training", "mine_tuples"),
    ("training.write_artifacts", "hardmetric.training", "write_artifacts"),
    ("nn.Adam.step", "hardmetric.nn", "Adam.step"),
    ("augmentor.augment_tuples", "hardmetric.augmentor", "augment_tuples"),
    ("losses.batch_metric_loss", "hardmetric.losses", "batch_metric_loss"),
    ("generator.generator_loss", "hardmetric.generator", "generator_loss"),
    ("generator.classifier_step", "hardmetric.generator", "classifier_step"),
    ("embedder.extract", "hardmetric.embedder", "extract"),
    ("embedder.project", "hardmetric.embedder", "project"),
    ("embedder.embed_backward", "hardmetric.embedder", "embed_backward"),
    ("embedder.project_backward", "hardmetric.embedder", "project_backward"),
    ("embedder.embed", "hardmetric.embedder", "embed"),
    ("evaluation.evaluate_embeddings", "hardmetric.evaluation", "evaluate_embeddings"),
    # defined in embedder, but only evaluation calls it
    ("evaluation.pairwise_distances", "hardmetric.embedder", "pairwise_distances"),
    ("evaluation.recall_at_k", "hardmetric.evaluation", "recall_at_k"),
    ("evaluation.kmeans", "hardmetric.evaluation", "kmeans"),
    ("evaluation.nmi", "hardmetric.evaluation", "nmi"),
    ("evaluation.pairwise_f1", "hardmetric.evaluation", "pairwise_f1"),
    ("evaluation.export_embeddings_csv", "hardmetric.evaluation", "export_embeddings_csv"),
    ("data.synth_gaussian_dataset", "hardmetric.data", "synth_gaussian_dataset"),
    ("data.save_dataset", "hardmetric.data", "save_dataset"),
    ("data.load_dataset", "hardmetric.data", "load_dataset"),
    ("checkpoint.save_checkpoint", "hardmetric.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "hardmetric.checkpoint", "load_checkpoint"),
    ("config.load_config", "hardmetric.config", "load_config"),
    ("cli.main", "hardmetric.cli", "main"),
]

# per-layer metrics as (name, unit, better): the self time of every layer, then counts
PER_LAYER = [(f"{layer}.s", "s", "lower") for layer, _, _ in LAYERS] + [
    ("training.train_step.calls", "count", "lower"),
    ("training.mine_tuples.skipped", "count", "lower"),
    ("nn.Adam.step.calls", "count", "lower"),
    ("augmentor.negatives", "count", "higher"),
    ("augmentor.moved_ratio", "ratio", "higher"),
    ("losses.batch_metric_loss.tuples", "count", "higher"),
    ("embedder.project.calls", "count", "lower"),
    ("data.load_dataset.bytes", "bytes", "lower"),
]

# relative slack for the hardening inequalities, far above float64 rounding
GEOMETRY_RTOL = 1e-9


def _norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(((a - b) ** 2).sum(axis=-1))


class Tracer:
    """Records spans while `phase` is "setup" or "round"; passes calls through otherwise."""

    def __init__(self):
        self.phase: str | None = None
        self.spans: list[tuple] = []  # (layer, parent index, phase, start, end, observe seconds)
        self.counts: dict[str, Counter] = defaultdict(Counter)  # phase -> counter
        self.geometry_faults: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        observers = {
            "training.mine_tuples": self._observe_mining,
            "augmentor.augment_tuples": self._observe_hardening,
            "losses.batch_metric_loss": self._observe_metric_loss,
            "data.load_dataset": self._observe_load,
        }
        modules = [m for name, m in sys.modules.items() if name.startswith("hardmetric") and m is not None]
        for layer, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(layer, original, observers.get(layer))
            if path:  # a method: patch the class once
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: str, fn, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (layer, parent, phase, start, clock(), 0.0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            observed = 0.0
            if observe is not None:
                observe(phase, args, kwargs, result)
                observed = clock() - end
            spans[index] = (layer, parent, phase, start, end, observed)
            return result

        return traced

    # -- observers: counts and the hardening check ---------------------------

    def _observe_mining(self, phase, args, kwargs, result) -> None:
        if result is None:
            self.counts[phase]["training.mine_tuples.skipped"] += 1

    def _observe_metric_loss(self, phase, args, kwargs, result) -> None:
        tuples = args[1] if len(args) > 1 else kwargs["tuples"]
        self.counts[phase]["losses.batch_metric_loss.tuples"] += tuples.size

    def _observe_load(self, phase, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts[phase]["data.load_dataset.bytes"] += os.path.getsize(path)

    def _observe_hardening(self, phase, args, kwargs, result) -> None:
        """Every hardened negative lies in [d+, d(a, z-)] from its anchor, or
        is returned unchanged when d(a, z-) <= d+ already."""
        emb = args[0] if args else kwargs["embeddings"]
        z = emb.embeddings if hasattr(emb, "embeddings") else np.asarray(emb, dtype=np.float64)
        fixed = kwargs.get("fixed_reference", args[3] if len(args) > 3 else None)
        anchors = z[result.anchor_idx]
        d_plus = _norms(anchors, z[result.positive_idx]) if fixed is None else np.full(result.size, float(fixed))
        negatives = z[result.negative_idx]
        hardened = result.hardened_negatives
        if result.kind == "npair":  # (N, N-1, D): anchor i against every other pair's positive
            anchors = anchors[:, None, :]
            d_plus = np.broadcast_to(d_plus[:, None], result.negative_idx.shape)
        d_orig = _norms(anchors, negatives)
        d_hard = _norms(anchors, hardened)
        unchanged = (hardened == negatives).all(axis=-1)
        inside = d_orig <= d_plus
        in_band = (d_hard >= d_plus * (1 - GEOMETRY_RTOL)) & (d_hard <= d_orig * (1 + GEOMETRY_RTOL))
        bad = np.where(inside, ~unchanged, ~in_band)
        if bad.any():
            self.geometry_faults.append(
                f"{int(bad.sum())} of {bad.size} hardened {result.kind} negatives outside [d+, d(a, z-)]"
            )
        counts = self.counts[phase]
        counts["augmentor.negatives"] += int(unchanged.size)
        counts["augmentor.moved"] += int((~unchanged).sum())

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self, setups: int, rounds: int) -> dict[str, float]:
        """Self time and counts of one set-up plus one round.

        Set-up spans are divided by the number of set-ups and round spans by
        the number of rounds, so runs with different round counts compare.
        """
        per = {"setup": max(setups, 1), "round": max(rounds, 1)}
        child_s = [0.0] * len(self.spans)
        for layer, parent, phase, start, end, observed in self.spans:
            if parent >= 0:
                child_s[parent] += end - start + observed
        self_s: dict[str, Counter] = defaultdict(Counter)
        calls: dict[str, Counter] = defaultdict(Counter)
        for i, (layer, parent, phase, start, end, observed) in enumerate(self.spans):
            self_s[phase][layer] += end - start - child_s[i]
            calls[phase][layer] += 1

        def per_unit(table: dict[str, Counter], key: str) -> float:
            return sum(table[phase][key] / per[phase] for phase in per)

        counts = {key: per_unit(self.counts, key) for key in ("augmentor.moved", "augmentor.negatives")}
        out = {}
        for name, _, _ in PER_LAYER:
            if name.endswith(".s"):
                out[name] = per_unit(self_s, name[: -len(".s")])
            elif name.endswith(".calls"):
                out[name] = per_unit(calls, name[: -len(".calls")])
            elif name == "augmentor.moved_ratio":
                moved, negatives = counts["augmentor.moved"], counts["augmentor.negatives"]
                out[name] = moved / negatives if negatives else 0.0
            else:
                out[name] = per_unit(self.counts, name)
        return out
