import json

import numpy as np
import pytest
from test_evaluation import _traced_kept, _traced_peak
from test_nn import chain_by_hand, same_bits

from hardmetric.checkpoint import Models, load_checkpoint, save_checkpoint
from hardmetric.embedder import (
    EmbedderParams,
    EmbeddingBatch,
    embed,
    embed_backward,
    extract,
    init_embedder,
    pairwise_distances,
    project,
    project_backward,
)
from hardmetric.errors import DimensionError, InputError
from hardmetric.generator import init_generator
from hardmetric.nn import DenseLayer, dense_backward, init_dense


def identity_embedder(dim):
    return EmbedderParams(
        [DenseLayer(np.eye(dim), np.zeros(dim), "identity")],
        DenseLayer(np.eye(dim), np.zeros(dim), "identity"),
    )


class TestExtract:
    def test_identity_extractor(self):
        params = identity_embedder(3)
        x = np.array([[1.0, -2.0, 0.5]])
        feats, _ = extract(params, x)
        assert np.array_equal(feats, x)

    def test_zero_weights_relu_gives_zero_features(self):
        params = EmbedderParams(
            [DenseLayer(np.zeros((4, 3)), np.zeros(4), "relu")],
            DenseLayer(np.eye(4), np.zeros(4), "identity"),
        )
        feats, _ = extract(params, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(feats, np.zeros((5, 4)))

    def test_two_layer_stack_matches_composition_oracle(self):
        rng = np.random.default_rng(1)
        params = init_embedder(4, hidden_dims=(6, 5), embed_dim=3, rng=rng)
        x = rng.normal(size=(3, 4))
        feats, _ = extract(params, x)
        h = x
        for layer in params.extractor:
            h = np.maximum(h @ layer.weight.T + layer.bias, 0.0)
        assert np.abs(feats - h).max() < 1e-12

    def test_dimension_mismatch(self):
        params = init_embedder(4, hidden_dims=(6,), embed_dim=3, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            extract(params, np.zeros((2, 5)))


class TestProject:
    def test_identity_projector(self):
        params = identity_embedder(3)
        feats = np.array([[1.0, 2.0, 3.0]])
        emb, _ = project(params, feats)
        assert np.array_equal(emb, feats)

    def test_scaling_projector_doubles(self):
        params = EmbedderParams([], DenseLayer(2 * np.eye(3), np.zeros(3), "identity"))
        feats = np.array([[1.0, -1.0, 0.5]])
        emb, _ = project(params, feats)
        assert np.array_equal(emb, 2 * feats)

    def test_random_projector_matches_matmul_oracle(self):
        rng = np.random.default_rng(2)
        projector = init_dense(5, 3, "identity", rng)
        params = EmbedderParams([], projector)
        y = rng.normal(size=(4, 5))
        emb, _ = project(params, y)
        assert np.abs(emb - (y @ projector.weight.T + projector.bias)).max() < 1e-12


class TestPairwiseDistances:
    def test_single_point(self):
        assert np.array_equal(pairwise_distances(np.zeros((1, 3))), np.zeros((1, 1)))

    def test_collinear_points(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        d = pairwise_distances(pts)
        assert d[0, 1] == 1.0 and d[0, 2] == 3.0 and d[1, 2] == 2.0

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(12, 5))
        d = pairwise_distances(pts)
        for i in range(12):
            for j in range(12):
                assert abs(d[i, j] - np.linalg.norm(pts[i] - pts[j])) < 1e-10

    def test_exactly_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 8))
        d = pairwise_distances(pts)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(40))

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            pairwise_distances(np.zeros((0, 3)))


def taped_forward(params, x):
    """extract then project, keeping both stages' tapes: the embeddings plus what `embed_backward` takes."""
    feats, ext_tapes = extract(params, x)
    z, proj_tape = project(params, feats)
    return z, ext_tapes, proj_tape


class TestEmbedBackward:
    def test_gradient_reaches_all_partitions(self):
        rng = np.random.default_rng(8)
        params = init_embedder(4, hidden_dims=(5,), embed_dim=3, rng=rng)
        z, ext_tapes, proj_tape = taped_forward(params, rng.normal(size=(6, 4)))
        ext_grads, proj_grads = embed_backward(params, ext_tapes, proj_tape, np.ones_like(z))
        assert len(ext_grads) == 2 * len(params.extractor)
        assert ext_grads[0].shape == params.extractor[0].weight.shape
        assert proj_grads[0].shape == params.projector.weight.shape
        # the input gradient, which embed_backward never forms, from the same chain by hand
        _, ext_tapes, proj_tape = taped_forward(params, rng.normal(size=(6, 4)))
        input_grad, _, _ = dense_backward(params.projector, proj_tape, np.ones_like(z))
        for layer, tape in zip(reversed(params.extractor), reversed(ext_tapes)):
            input_grad, _, _ = dense_backward(layer, tape, input_grad)
        assert input_grad.shape == (6, 4)

    def test_gradients_equal_dense_backward_chained_by_hand(self):
        rng = np.random.default_rng(11)
        params = init_embedder(6, hidden_dims=(8, 7), embed_dim=5, rng=rng)
        x, gz = rng.normal(size=(9, 6)), rng.normal(size=(9, 5))
        _, ext_tapes, proj_tape = taped_forward(params, x)
        ext_grads, proj_grads = embed_backward(params, ext_tapes, proj_tape, gz)
        _, ext_tapes, proj_tape = taped_forward(params, x)
        want = chain_by_hand(params.extractor + [params.projector], ext_tapes + [proj_tape], gz)
        assert len(ext_grads + proj_grads) == len(want)
        assert all(same_bits(a, b) for a, b in zip(ext_grads + proj_grads, want))
        _, _, proj_tape = taped_forward(params, x)
        assert all(same_bits(a, b) for a, b in zip(project_backward(params, proj_tape, gz), want[-2:]))


class TestEmbed:
    def test_returns_the_batch_and_no_tapes(self):
        rng = np.random.default_rng(9)
        params = init_embedder(6, hidden_dims=(8, 7), embed_dim=5, rng=rng)
        x = rng.normal(size=(9, 6))
        batch, tapes = embed(params, x, labels=np.arange(9) % 3)
        assert isinstance(batch, EmbeddingBatch) and tapes is None
        assert same_bits(batch.embeddings, taped_forward(params, x)[0])
        assert batch.labels.tolist() == [0, 1, 2] * 3

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [1.0, np.nan]], ids=["fraction", "nan"])
    def test_batch_refuses_labels_the_integer_cast_would_change(self, labels):
        with pytest.raises(InputError, match="labels must be integers"):
            EmbeddingBatch(np.zeros((2, 3)), labels)

    def test_batch_keeps_integral_float_labels(self):
        assert EmbeddingBatch(np.zeros((2, 3)), [2.0, 7.0]).labels.tolist() == [2, 7]


def test_embed_holds_at_most_two_activations():
    # the test shape of the triplet-scale benchmark; a tape holding pre-activation and output would need four
    rng = np.random.default_rng(12)
    params = init_embedder(256, hidden_dims=(256, 256), embed_dim=64, rng=rng)
    x = rng.normal(size=(1500, 256))
    activation = 1500 * 256 * 8
    assert _traced_peak(lambda: embed(params, x)) <= 2 * activation + 2**20


def test_kept_embed_result_holds_the_embeddings_alone():
    # the same shape; kept tapes would pin both (1500, 256) activations, 6.1 MB, for as long as the result lives
    rng = np.random.default_rng(12)
    params = init_embedder(256, hidden_dims=(256, 256), embed_dim=64, rng=rng)
    x = rng.normal(size=(1500, 256))
    (batch, tapes), held = _traced_kept(lambda: embed(params, x))
    assert tapes is None
    assert held <= batch.embeddings.nbytes + 64 * 2**10


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(10)
        embedder = init_embedder(6, hidden_dims=(8, 7), embed_dim=4, rng=rng)
        generator = init_generator(4, 7, rng=rng)
        classifier = init_dense(7, 5, "identity", rng)
        path = tmp_path / "model.npz"
        save_checkpoint(path, Models(embedder, generator, classifier), meta={"note": "test"})
        models, meta = load_checkpoint(path)
        for orig, loaded in zip(embedder.extractor, models.embedder.extractor):
            assert np.array_equal(orig.weight, loaded.weight)
            assert np.array_equal(orig.bias, loaded.bias)
            assert orig.activation == loaded.activation
        assert np.array_equal(embedder.projector.weight, models.embedder.projector.weight)
        assert np.array_equal(generator[1].bias, models.generator[1].bias)
        assert np.array_equal(classifier.weight, models.classifier.weight)
        assert meta["note"] == "test"

    def test_embedder_only_checkpoint(self, tmp_path):
        embedder = init_embedder(3, hidden_dims=(4,), embed_dim=2, rng=np.random.default_rng(0))
        path = tmp_path / "embedder.npz"
        save_checkpoint(path, Models(embedder))
        models, _ = load_checkpoint(path)
        assert models.generator is None and models.classifier is None

    @pytest.mark.parametrize("entry", [None, False, True], ids=["missing", "false", "true"])
    def test_normalize_embeddings_entry_of_older_checkpoints(self, tmp_path, entry):
        embedder = init_embedder(3, hidden_dims=(4,), embed_dim=2, rng=np.random.default_rng(0))
        written = tmp_path / "written.npz"
        save_checkpoint(written, Models(embedder))
        with np.load(written) as npz:
            arrays = dict(npz)
        doc = json.loads(str(arrays["meta_json"]))
        assert "normalize_embeddings" not in doc
        if entry is not None:
            doc["normalize_embeddings"] = entry
        arrays["meta_json"] = np.asarray(json.dumps(doc))
        path = tmp_path / "older.npz"
        np.savez(path, **arrays)
        if entry:
            with pytest.raises(InputError, match="normalize_embeddings = true, and normalized embedders are not supported"):
                load_checkpoint(path)
            return
        models, _ = load_checkpoint(path)
        for orig, loaded in zip(embedder.extractor + [embedder.projector], models.embedder.extractor + [models.embedder.projector]):
            assert same_bits(orig.weight, loaded.weight) and same_bits(orig.bias, loaded.bias)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, blah=np.zeros(3))
        with pytest.raises(InputError):
            load_checkpoint(path)
