from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hardmetric.config import parse_config_text
from hardmetric.data import (
    Dataset,
    load_dataset,
    save_dataset,
    split_zero_shot,
    synth_gaussian_dataset,
    take_classes,
)
from hardmetric.errors import ConfigError, DatasetParseError, InputError
from hardmetric.training import TrainConfig


class TestSynthDataset:
    def test_zero_noise_collapses_to_centers(self):
        ds = synth_gaussian_dataset(3, 4, 5, noise_sigma=0.0, seed=1)
        for c in range(3):
            block = ds.samples[ds.labels == c]
            assert np.array_equal(block, np.tile(block[0], (4, 1)))

    def test_same_seed_is_bitwise_identical(self):
        a = synth_gaussian_dataset(4, 10, 6, seed=42)
        b = synth_gaussian_dataset(4, 10, 6, seed=42)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_class_means_near_centers(self):
        # standard-error bound: the per-coordinate sample mean sits within
        # 4 * sigma / sqrt(per_class) of its center for ~99.99% of coordinates
        sigma, per_class = 1.0, 200
        hits = total = 0
        for seed in range(3):
            ds = synth_gaussian_dataset(5, per_class, 16, noise_sigma=sigma, seed=seed)
            centers = synth_gaussian_dataset(5, 1, 16, noise_sigma=0.0, seed=seed).samples
            for c in range(5):
                mean = ds.samples[ds.labels == c].mean(axis=0)
                within = np.abs(mean - centers[c]) <= 4 * sigma / np.sqrt(per_class)
                hits += int(within.sum())
                total += within.size
        assert hits / total >= 0.99

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            synth_gaussian_dataset(0, 5, 3)
        with pytest.raises(InputError):
            synth_gaussian_dataset(3, 5, 3, noise_sigma=-1.0)


class TestZeroShotSplit:
    def test_half_split_counts(self):
        ds = synth_gaussian_dataset(20, 2, 3, seed=0)
        split = split_zero_shot(ds, 0.5, seed=5)
        assert len(split.train_classes) == 10
        assert len(split.test_classes) == 10
        assert not set(split.train_classes.tolist()) & set(split.test_classes.tolist())

    def test_fraction_boundaries_rejected(self):
        ds = synth_gaussian_dataset(4, 2, 3, seed=0)
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(InputError):
                split_zero_shot(ds, bad, seed=0)

    def test_fraction_that_leaves_no_test_classes(self):
        ds = synth_gaussian_dataset(4, 2, 3, seed=0)
        with pytest.raises(InputError):
            split_zero_shot(ds, 0.99, seed=0)

    def test_no_test_sample_class_in_train(self):
        ds = synth_gaussian_dataset(11, 3, 4, seed=3)
        split = split_zero_shot(ds, 0.6, seed=9)
        train_x, train_labels = take_classes(ds, split.train_classes)
        test_x, test_labels = take_classes(ds, split.test_classes)
        assert not set(test_labels.tolist()) & set(train_labels.tolist())
        assert len(train_x) + len(test_x) == ds.num_samples

    def test_union_covers_all_classes(self):
        ds = synth_gaussian_dataset(7, 2, 3, seed=0)
        split = split_zero_shot(ds, 0.4, seed=1)
        covered = set(split.train_classes.tolist()) | set(split.test_classes.tolist())
        assert covered == set(range(7))


class TestDatasetIO:
    def test_round_trip_is_lossless(self, tmp_path):
        ds = synth_gaussian_dataset(3, 5, 4, seed=11)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.samples, ds.samples)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f_0,f_1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DatasetParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 3

    def test_empty_file_reports_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetParseError, match="no header"):
            load_dataset(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("class,x_0\n0,1.0\n")
        with pytest.raises(DatasetParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 1

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("label,f_0\n0,1.0\n0,abc\n")
        with pytest.raises(DatasetParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"label,f_0,f_1\n0,1.0,2.0\n\n1,3.0,{value}\n")
        with pytest.raises(DatasetParseError, match="non-finite") as exc:
            load_dataset(path)
        assert exc.value.line == 4

    def test_sparse_labels_rejected(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("label,f_0\n0,1.0\n2,2.0\n")
        with pytest.raises(DatasetParseError):
            load_dataset(path)

    def test_dataset_requires_dense_labels(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 3)), [0, 2])


class TestConfigParsing:
    def test_full_config_round_trip(self):
        text = """
        # benchmark run
        loss_kind = npair
        alpha = 90
        beta = 10000
        lambda_balance = 0.5
        margin = 1.0
        npair_n = 4
        batch_size = 16
        epochs = 3
        learning_rate = 0.001
        fc_lr_multiplier = 10
        seed = 7
        embed_dim = 32
        eval_every = 2
        hidden_dims = 128,128
        generator_hidden_dim = none
        train_fraction = 0.5
        split_seed = 3
        normalize_embeddings = false
        synthetics = true
        fixed_reference_distance = none
        recall_ks = 1,2,4,8
        """
        config = parse_config_text(text)
        assert config.loss_kind == "npair"
        assert config.alpha == 90.0
        assert config.hidden_dims == (128, 128)
        assert config.generator_hidden_dim is None
        assert config.recall_ks == (1, 2, 4, 8)

    def test_unknown_key_fails_fast(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("learning_rat = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_bad_value_reports_key_and_line(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config_text("epochs = soon\n")

    def test_invalid_field_value_becomes_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("learning_rate = -1\n")

    def test_defaults_apply_for_missing_keys(self):
        config = parse_config_text("seed = 3\n")
        assert config.seed == 3
        assert config.loss_kind == "triplet"

    def test_inline_comments_are_ignored(self):
        config = parse_config_text("seed = 3   # the run seed\nhidden_dims = 8,8 # widths\n")
        assert config.seed == 3 and config.hidden_dims == (8, 8)

    def test_readme_config_block_lists_every_field_with_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file", 1)[1]
        block = section.split("```", 2)[1]
        keys = [line.partition("=")[0].strip() for line in block.splitlines() if "=" in line]
        assert keys == [f.name for f in fields(TrainConfig)]
        assert parse_config_text(block) == TrainConfig()
