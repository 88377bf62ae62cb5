import numpy as np
import pytest

from hardmetric.checkpoint import Models, load_checkpoint, save_checkpoint
from hardmetric.embedder import (
    EmbedderParams,
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
from hardmetric.nn import DenseLayer, init_dense, stack_backward


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

    def test_normalize_flag_puts_rows_on_unit_sphere(self):
        rng = np.random.default_rng(3)
        params = init_embedder(4, hidden_dims=(), embed_dim=4, rng=rng, normalize=True)
        emb, _ = embed(params, rng.normal(size=(6, 4)))
        assert np.abs(np.linalg.norm(emb.embeddings, axis=1) - 1.0).max() < 1e-12


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


class TestEmbedBackward:
    def test_gradient_reaches_all_partitions(self):
        rng = np.random.default_rng(8)
        params = init_embedder(4, hidden_dims=(5,), embed_dim=3, rng=rng)
        emb, (ext_tapes, proj_tape) = embed(params, rng.normal(size=(6, 4)))
        ext_grads, proj_grads = embed_backward(params, ext_tapes, proj_tape, np.ones_like(emb.embeddings))
        assert len(ext_grads) == 2 * len(params.extractor)
        assert ext_grads[0].shape == params.extractor[0].weight.shape
        assert proj_grads[0].shape == params.projector.weight.shape
        # the input gradient, which embed_backward drops, from the same chain by hand
        _, (ext_tapes, proj_tape) = embed(params, rng.normal(size=(6, 4)))
        g, _ = project_backward(params, proj_tape, np.ones_like(emb.embeddings))
        input_grad, _ = stack_backward(params.extractor, ext_tapes, g)
        assert input_grad.shape == (6, 4)

    def test_normalized_projection_gradient_matches_fd(self):
        rng = np.random.default_rng(9)
        params = init_embedder(3, hidden_dims=(4,), embed_dim=3, rng=rng, normalize=True)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))

        def loss():
            e, _ = embed(params, x)
            return ((e.embeddings - target) ** 2).sum()

        emb, (ext_tapes, proj_tape) = embed(params, x)
        _, proj_grads = embed_backward(params, ext_tapes, proj_tape, 2 * (emb.embeddings - target))
        w = params.projector.weight
        h = 1e-6
        for idx in [(0, 0), (1, 2), (2, 1)]:
            orig = w[idx]
            w[idx] = orig + h
            lp = loss()
            w[idx] = orig - h
            lm = loss()
            w[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(proj_grads[0][idx] - fd) < 1e-4 * max(1.0, abs(fd))


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

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, blah=np.zeros(3))
        with pytest.raises(InputError):
            load_checkpoint(path)
