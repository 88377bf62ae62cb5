"""The parameter partitions of a model (`Models`: embedder, and optionally
generator and classifier) and their checkpoint, one versioned .npz container.

Layout (format version 1): a `format_version` scalar, a `meta_json` string
with layer shapes/activations and arbitrary run metadata, and one float64
array per parameter under keys like `embedder/extractor/0/weight`. Arrays
round-trip bitwise.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .embedder import EmbedderParams
from .errors import InputError
from .nn import DenseLayer, check_chain

FORMAT_VERSION = 1


@dataclass
class Models:
    """The four parameter partitions; generator/classifier absent for baselines."""

    embedder: EmbedderParams
    generator: list[DenseLayer] | None = None
    classifier: DenseLayer | None = None


def _layer_entries(prefix: str, layer: DenseLayer, arrays: dict, meta_layers: list) -> None:
    arrays[f"{prefix}/weight"] = layer.weight
    arrays[f"{prefix}/bias"] = layer.bias
    meta_layers.append({"prefix": prefix, "activation": layer.activation})


def save_checkpoint(path, models: Models, meta: dict | None = None) -> None:
    embedder, generator, classifier = models.embedder, models.generator, models.classifier
    arrays: dict[str, np.ndarray] = {}
    layers: list[dict] = []
    for i, layer in enumerate(embedder.extractor):
        _layer_entries(f"embedder/extractor/{i}", layer, arrays, layers)
    _layer_entries("embedder/projector", embedder.projector, arrays, layers)
    if generator is not None:
        for i, layer in enumerate(generator):
            _layer_entries(f"generator/{i}", layer, arrays, layers)
    if classifier is not None:
        _layer_entries("classifier", classifier, arrays, layers)
    doc = {
        "layers": layers,
        "num_extractor_layers": len(embedder.extractor),
        "num_generator_layers": len(generator) if generator is not None else 0,
        "has_classifier": classifier is not None,
        "normalize_embeddings": embedder.normalize,
        "meta": meta or {},
    }
    arrays["format_version"] = np.asarray(FORMAT_VERSION)
    arrays["meta_json"] = np.asarray(json.dumps(doc))
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[Models, dict]:
    """Read a checkpoint as (models, meta); a file that is not a readable one raises InputError."""
    with open(path, "rb") as fh:  # np.load leaks its own handle when the zip is damaged
        try:
            archive = np.load(fh, allow_pickle=False)
        except (EOFError, ValueError, zipfile.BadZipFile):
            archive = None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise InputError(f"{path} is not a checkpoint archive (.npz)")
        try:
            with archive as npz:
                return _read_models(npz)
        except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
            raise InputError(f"{path} is a damaged checkpoint: {exc}") from None


def _read_models(npz) -> tuple[Models, dict]:
    if "format_version" not in npz:
        raise InputError("missing format_version")
    version = int(npz["format_version"])
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported format version {version}")
    doc = json.loads(str(npz["meta_json"]))
    activations = {entry["prefix"]: entry["activation"] for entry in doc["layers"]}

    def layer(prefix: str) -> DenseLayer:
        return DenseLayer(npz[f"{prefix}/weight"], npz[f"{prefix}/bias"], activations[prefix])

    extractor = [layer(f"embedder/extractor/{i}") for i in range(doc["num_extractor_layers"])]
    embedder = EmbedderParams(extractor, layer("embedder/projector"), doc["normalize_embeddings"])
    generator = [layer(f"generator/{i}") for i in range(doc["num_generator_layers"])]
    check_chain(generator, "generator")  # the one place generator layers come from outside the program
    classifier = layer("classifier") if doc["has_classifier"] else None
    return Models(embedder, generator or None, classifier), doc["meta"]
