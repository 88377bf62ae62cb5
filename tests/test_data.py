from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hardmetric import data
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

    @pytest.mark.parametrize("shape", [(3, 4, 5), (7, 1, 9), (20, 100, 512)])
    def test_matches_the_per_class_reference(self, shape):
        # reference: one noise draw per class, added to that class's centre
        num_classes, per_class, dim = shape
        ds = synth_gaussian_dataset(num_classes, per_class, dim, center_scale=4.0, noise_sigma=2.5, seed=9)
        rng = np.random.default_rng(9)
        centers = rng.uniform(0.0, 4.0, size=(num_classes, dim))
        expected = np.vstack([centers[c] + rng.normal(0.0, 2.5, size=(per_class, dim)) for c in range(num_classes)])
        assert np.array_equal(ds.samples, expected)
        assert ds.labels.tolist() == [c for c in range(num_classes) for _ in range(per_class)]

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

    def test_writer_matches_the_per_value_formatter(self, tmp_path):
        # reference: repr of each numpy value converted to float one at a time
        row = [-0.0, 5e-324, 1e-300, 0.1, 1e16]
        ds = Dataset(np.array([row, row[::-1]]), np.array([1, 0]))
        save_dataset(ds, tmp_path / "data.csv")
        expected = "label,f_0,f_1,f_2,f_3,f_4\n" + "".join(
            f"{label}," + ",".join(repr(float(v)) for v in values) + "\n" for label, values in zip(ds.labels, ds.samples)
        )
        assert (tmp_path / "data.csv").read_bytes() == expected.encode("utf-8")

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


HEADER = "label,f_0,f_1\n"
# decimals that are hard to round: the smallest normal and subnormal and their
# neighbours, halfway cases, the float64 limits and a 401-digit mantissa
HARD_DECIMALS = [
    "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
    "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1.7976931348623157e308", "1.7976931348623158e308", "9007199254740993", "9007199254740992.5",
    "0.1", "1e23", "8.98846567431158e307", "5e-324", "7.2057594037927933e16",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "9007199254740993" + "0" * 384 + "1e-400",
]


def _random_decimals():
    values = np.random.default_rng(5).standard_normal(60) * 10.0 ** np.arange(-30, 30)
    return [f"{v:.{digits}e}" for v in values for digits in (14, 16, 24)]


def _rows(values):
    return "".join(f"{i % 2},{a},{b}\n" for i, (a, b) in enumerate(zip(values[::2], values[1::2])))


def _edge(label="1", value="2.5"):
    return HEADER + "0,0.5,1.5\n" + f"{label},{value},-1.0\n"


# each file either loads identically through both readers or fails identically
EDGE_FILES = {
    "label-3.0": _edge(label="3.0"),
    "label-3e0": _edge(label="3e0"),
    "label-underscore": _edge(label="1_0"),
    "label-fullwidth-3": _edge(label="\uff13"),
    "label-fullwidth-1": _edge(label="\uff11"),
    "label-beyond-int64": _edge(label="99999999999999999999"),
    "label-int64-max": _edge(label="9223372036854775807"),
    "label-negative": _edge(label="-1"),
    "label-signed": _edge(label="+1"),
    "value-underscore": _edge(value="1_000"),
    "value-hex": _edge(value="0x10"),
    "value-nan-payload": _edge(value="nan(123)"),
    "value-arabic-indic": _edge(value="\u0661"),
    "value-overflow": _edge(value="1e400"),
    "value-nan": _edge(value="nan"),
    "value-blank": _edge(value=" "),
    "value-empty": _edge(value=""),
    "value-padded": _edge(value="\t 2.5\u00a0"),
    "value-negative-zero": _edge(value="-0.0"),
    "trailing-comma": HEADER + "0,0.5,1.5,\n",
    "short-row": HEADER + "0,0.5,1.5\n1,2.5\n",
    "whitespace-only-line": HEADER + "0,0.5,1.5\n  \t\n1,2.5,-1.0\n",
    "blank-line": HEADER + "0,0.5,1.5\n\n1,2.5,-1.0\n",
    "no-final-newline": HEADER + "0,0.5,1.5\n1,2.5,-1.0",
    "crlf": (HEADER + "0,0.5,1.5\n1,2.5,-1.0\n").replace("\n", "\r\n"),
    "cr": (HEADER + "0,0.5,1.5\n1,2.5,-1.0\n").replace("\n", "\r"),
    "header-only": HEADER,
    "header-without-newline": HEADER.rstrip("\n"),
    "empty": "",
    "unknown-header": "label,f_1,f_0\n0,0.5,1.5\n",
    "header-with-space": "label,f_0,f_1 \n0,0.5,1.5\n",
    "sparse-labels": HEADER + "0,0.5,1.5\n2,2.5,-1.0\n",
    # `str.splitlines` breaks lines at these, the C reader does not
    **{f"separator-{ord(c):x}-in-row": HEADER + f"0,0.5{c},1.5\n" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"},
    "vertical-tab-ends-row": HEADER + "0,0.5,1.5\x0b\n1,2.5,-1.0\n",
    "line-separator-splits-row": HEADER + "0,0.5,1.5\u20281,2.5,-1.0\n",
    "form-feed-in-header": "label,f_0\x0c,f_1\n0,0.5,1.5\n",
    "hard-rounding": HEADER + _rows(HARD_DECIMALS),
    "random-14-16-24-digits": HEADER + _rows(_random_decimals()),
}


def _outcome(load, path):
    try:
        ds = load(path)
    except DatasetParseError as exc:
        return "refused", str(exc), exc.line
    return "loaded", ds.samples.dtype, ds.labels.dtype, ds.samples.view(np.int64).tolist(), ds.labels.tolist()


class TestCReaderAgreesWithTheLineParser:
    @pytest.mark.parametrize("name", list(EDGE_FILES))
    def test_same_arrays_or_same_error(self, tmp_path, name):
        path = tmp_path / "edge.csv"
        path.write_bytes(EDGE_FILES[name].encode("utf-8"))
        assert _outcome(load_dataset, path) == _outcome(data._load_lines, path)

    def test_table_holds_both_outcomes(self, tmp_path):
        # the table must hold both outcomes, or it shows nothing
        path = tmp_path / "edge.csv"
        loaded = []
        for name, text in EDGE_FILES.items():
            path.write_bytes(text.encode("utf-8"))
            loaded.append(_outcome(load_dataset, path)[0] == "loaded")
        assert 10 <= sum(loaded) <= len(loaded) - 10

    def test_large_file_takes_the_c_reader(self, tmp_path, monkeypatch):
        ds = synth_gaussian_dataset(40, 50, 512, seed=4)
        path = tmp_path / "large.csv"
        save_dataset(ds, path)

        def refuse(path):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(data, "_load_lines", refuse)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.samples.view(np.int64), ds.samples.view(np.int64))
        assert np.array_equal(loaded.labels, ds.labels) and loaded.labels.dtype == np.int64
        assert loaded.samples.flags.c_contiguous and loaded.labels.flags.c_contiguous


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

    @pytest.mark.parametrize(
        "line, named",
        [
            ("generator_hidden_dim = -1", "generator_hidden_dim"),
            ("generator_hidden_dim = 0", "generator_hidden_dim"),
            ("recall_ks = 0", "recall_ks"),
            ("recall_ks = 1,0,4", "recall_ks"),
            ("eval_every = -1", "eval_every"),
            ("margin = -1", "margin"),
            ("npair_n = 1", "npair_n"),
            ("fixed_reference_distance = 0", "fixed_reference_distance"),
            ("fixed_reference_distance = -1", "fixed_reference_distance"),
            ("fixed_reference_distance = nan", "fixed_reference_distance"),
            ("alpha = nan", "alpha"),
            ("beta = nan", "beta"),
            ("lambda_balance = nan", "lambda_balance"),
            ("margin = nan", "margin"),
            ("learning_rate = nan", "learning_rate"),
            ("fc_lr_multiplier = nan", "fc_lr_multiplier"),
        ],
    )
    def test_out_of_range_value_names_its_key(self, line, named):
        with pytest.raises(ConfigError, match=named):
            parse_config_text(line + "\n")

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
