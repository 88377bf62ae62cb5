import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from test_data import _failing_in_the_last_worker, _raise

import hardmetric
from hardmetric import data
from hardmetric.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def small_dataset(tmp_path):
    path = tmp_path / "data.csv"
    code = run_cli(
        "synth-data", "--classes", "6", "--per-class", "8", "--dim", "5",
        "--sigma", "1.0", "--seed", "3", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture()
def train_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "loss_kind = triplet\n"
        "alpha = 1.0\n"
        "beta = 40\n"
        "epochs = 2\n"
        "batch_size = 12\n"
        "embed_dim = 8\n"
        "hidden_dims = 16\n"
        "learning_rate = 0.001\n"
        "seed = 1\n"
    )
    return path


class TestSynthData:
    def test_writes_loadable_csv(self, small_dataset):
        from hardmetric.data import load_dataset

        ds = load_dataset(small_dataset)
        assert ds.num_samples == 48
        assert ds.num_classes == 6

    def test_output_bytes_are_pinned(self, small_dataset):
        # written by the repeated-centre sum, centres + noise; the in-place addition must give the same bytes
        digest = hashlib.sha256(small_dataset.read_bytes()).hexdigest()
        assert digest == "272471effc6d32aff17db84d3d8b2a34f61998fd1819c6e5cb307d3e94a8892f"

    def test_worker_out_of_memory_exits_one_with_a_message(self, tmp_path, monkeypatch, capsys):
        _failing_in_the_last_worker(monkeypatch, 2, _raise(MemoryError()))
        # 200 rows of 512 values: two blocks, so one worker is forked
        assert run_cli("synth-data", "--classes", "2", "--per-class", "100", "--dim", "512", "--out", str(tmp_path / "d.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: CSV formatting worker") and "Traceback" not in err

    def test_workers_leave_a_piped_stdout_alone(self, tmp_path, monkeypatch):
        # stdout on a pipe is block-buffered: the line printed first still sits in the buffer each worker inherits
        out, expected = tmp_path / "d.csv", tmp_path / "one-process.csv"
        script = (
            "import sys\n"
            "from hardmetric import cli, data\n"
            "data._usable_cpus = lambda: 3\n"
            "print('before the writer')\n"
            f"sys.exit(cli.main(['synth-data', '--classes', '4', '--per-class', '100', '--dim', '512', '--out', {str(out)!r}]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hardmetric.__file__))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"before the writer\nwrote 400 samples (4 classes, dim 512) to {out}\n"
        monkeypatch.setattr(data, "_usable_cpus", lambda: 1)
        assert run_cli("synth-data", "--classes", "4", "--per-class", "100", "--dim", "512", "--out", str(expected)) == 0
        assert out.read_bytes() == expected.read_bytes()


class TestTrainAndEval:
    def test_full_round_trip(self, tmp_path, small_dataset, train_config, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(small_dataset), "--config", str(train_config), "--out-dir", str(out_dir)) == 0
        assert (out_dir / "checkpoint.npz").exists()
        assert (out_dir / "curves.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2
        assert manifest["split"]["train_classes"]

        eval_dir = tmp_path / "eval"
        code = run_cli(
            "eval", "--checkpoint", str(out_dir / "checkpoint.npz"), "--data", str(small_dataset),
            "--split-seed", "0", "--ks", "1,2", "--out-dir", str(eval_dir),
        )
        assert code == 0
        metrics = json.loads((eval_dir / "metrics.json").read_text())
        assert set(metrics) >= {"nmi", "f1", "recall", "kmeans_seed"}
        assert list(metrics["recall"]) == ["1", "2"]
        emb_lines = (eval_dir / "embeddings.csv").read_text().splitlines()
        assert emb_lines[0].startswith("sample_id,label,z_0")
        assert len(emb_lines) == 1 + 24  # 3 test classes x 8 samples

    def test_identical_config_gives_identical_curves(self, tmp_path, small_dataset, train_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli("train", "--data", str(small_dataset), "--config", str(train_config), "--out-dir", str(a))
        run_cli("train", "--data", str(small_dataset), "--config", str(train_config), "--out-dir", str(b))
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()


class TestExitCodes:
    def test_unknown_config_key_exits_one(self, tmp_path, small_dataset, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning_rat = 0.1\n")
        assert run_cli("train", "--data", str(small_dataset), "--config", str(bad), "--out-dir", str(tmp_path / "x")) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_dataset_exits_one(self, tmp_path, train_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,f_0\n0,1.0\n1,\n")
        assert run_cli("train", "--data", str(bad), "--config", str(train_config), "--out-dir", str(tmp_path / "x")) == 1

    def test_missing_file_exits_one(self, tmp_path, train_config):
        assert run_cli("train", "--data", str(tmp_path / "nope.csv"), "--config", str(train_config), "--out-dir", str(tmp_path / "x")) == 1

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--data")
        assert exc.value.code == 1

    def test_gradcheck_passes_with_exit_zero(self, capsys):
        assert run_cli("gradcheck", "--seed", "0", "--instances", "2") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_non_finite_loss_exits_two(self, tmp_path, small_dataset, train_config, monkeypatch, capsys):
        from hardmetric import cli
        from hardmetric.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("non-finite metric loss over original tuples: nan")

        monkeypatch.setattr(cli, "run_training", boom)
        code = run_cli("train", "--data", str(small_dataset), "--config", str(train_config), "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err


def _bare_checkpoint(tmp_path):
    """An untrained checkpoint for the 5-dimensional `small_dataset`, recording split seed 0."""
    from hardmetric.checkpoint import Models, save_checkpoint
    from hardmetric.embedder import init_embedder

    checkpoint = tmp_path / "bare.npz"
    save_checkpoint(checkpoint, Models(init_embedder(5, (4,), 2, np.random.default_rng(0))), meta={"config": {"split_seed": 0}})
    return checkpoint


@pytest.mark.parametrize(
    "case, message",
    [
        ("data-is-a-directory", "Is a directory"),
        ("synth-out-is-a-directory", "Is a directory"),
        ("out-dir-is-a-file", "exists and is not a directory"),
        ("out-dir-below-a-file", "afile exists and is not a directory"),
        ("eval-out-dir-below-a-file", "afile exists and is not a directory"),
        ("data-not-utf8", "latin1.csv is not UTF-8 text"),
        ("config-not-utf8", "run.cfg is not UTF-8 text"),
        ("label-beyond-int64", "line 3: label 99999999999999999999 does not fit in 64 bits"),
    ],
)
def test_unusable_path_or_bytes_exits_one_with_a_message(tmp_path, small_dataset, train_config, capsys, case, message):
    data, config, out_dir = small_dataset, train_config, tmp_path / "run"
    if case == "data-is-a-directory":
        data = tmp_path
    elif case == "out-dir-is-a-file":
        out_dir.write_text("not a directory\n")
    elif case.endswith("out-dir-below-a-file"):
        (tmp_path / "afile").write_text("not a directory\n")
        out_dir = tmp_path / "afile" / "run"
    elif case == "data-not-utf8":
        data = tmp_path / "latin1.csv"
        data.write_bytes(small_dataset.read_bytes().replace(b"\n1,", b"\n1,\xe9", 1))
    elif case == "config-not-utf8":
        config.write_bytes(b"# r\xe9glage\n" + train_config.read_bytes())
    elif case == "label-beyond-int64":
        data = tmp_path / "huge.csv"
        data.write_text("label,f_0\n0,1.0\n99999999999999999999,2.0\n")
    argv = ["train", "--data", str(data), "--config", str(config), "--out-dir", str(out_dir)]
    if case == "synth-out-is-a-directory":
        argv = ["synth-data", "--classes", "2", "--per-class", "2", "--dim", "2", "--out", str(tmp_path)]
    elif case.startswith("eval"):
        argv = ["eval", "--checkpoint", str(_bare_checkpoint(tmp_path)), "--data", str(data), "--out-dir", str(out_dir)]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


# each case asks for at least 2**60 bytes, more than any machine can map, so no test really allocates
@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth-data", "--per-class", str(2**54), "--dim", "8"], "error: out of memory: Unable to allocate 1.00 EiB"),
        (["synth-data", "--per-class", "2", "--dim", str(10**20)], "samples of shape (2, 100000000000000000000) does not fit"),
        (["train", "--config", "hidden_dims = 36028797018963968\n"], "error: out of memory: Unable to allocate 1.25 EiB"),
        (["train", "--config", "hidden_dims = 4611686018427387904\n"], "layer weight of shape (4611686018427387904, 5) does not fit"),
    ],
    ids=["synth-beyond-memory", "synth-beyond-address-space", "train-layer-beyond-memory", "train-layer-beyond-address-space"],
)
def test_sizes_memory_cannot_hold_exit_one_with_a_message(tmp_path, small_dataset, capsys, argv, message):
    command, *options = argv
    out = tmp_path / "out"
    if command == "synth-data":
        options += ["--classes", "1", "--out", str(out)]
    else:
        (tmp_path / "huge.cfg").write_text("epochs = 1\nbatch_size = 12\nembed_dim = 4\n" + options[1])
        options = ["--data", str(small_dataset), "--config", str(tmp_path / "huge.cfg"), "--out-dir", str(out)]
    capsys.readouterr()
    assert run_cli(command, *options) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config_text, message",
    [
        ("generator_hidden_dim = -1\n", "generator_hidden_dim"),
        ("recall_ks = 1,60\n", "K = 60 must be smaller than the number of points 50"),
        ("loss_kind = npair\nnpair_n = 6\n", "npair_n = 6 needs 6 classes with two samples, got 5"),
        ("loss_kind = npair\nnpair_n = 3\nbatch_size = 4\n", "batch_size >= 6"),
        ("batch_size = 2\n", "a triplet needs batch_size >= 3, got 2"),
        ("train_fraction = 0.1\n", "triplets need at least 2 classes, got 1"),
        ("loss_kind = triplet\nnpair_n = 1\nepochs = 0\n", "npair_n must be at least 2"),
        ("margin = -1\n", "margin must be nonnegative"),
        ("fixed_reference_distance = 0\nepochs = 0\n", "fixed_reference_distance must be positive"),
        ("fixed_reference_distance = -1\nsynthetics = false\n", "fixed_reference_distance must be positive"),
        ("seed = -1\n", "seed must be nonnegative, got -1"),
        ("split_seed = -1\n", "split_seed must be nonnegative, got -1"),
    ],
    ids=[
        "gen-hidden-negative", "recall-k-too-large", "npair-more-than-classes", "npair-batch-too-small",
        "triplet-batch-of-two", "triplet-one-class", "npair-n-one-unused", "margin-negative", "fixed-reference-zero-unused",
        "fixed-reference-negative-no-synthetics", "seed-negative", "split-seed-negative",
    ],
)
def test_config_that_cannot_run_exits_one_before_training(tmp_path, capsys, config_text, message):
    data = tmp_path / "ten.csv"
    assert run_cli("synth-data", "--classes", "10", "--per-class", "10", "--dim", "8", "--seed", "1", "--out", str(data)) == 0
    config = tmp_path / "run.cfg"
    settings = {"epochs": "3", "embed_dim": "4", "hidden_dims": "8"}
    settings.update(line.split(" = ") for line in config_text.splitlines())
    config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    run_dir = tmp_path / "run"
    assert run_cli("train", "--data", str(data), "--config", str(config), "--out-dir", str(run_dir)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "config_text, message",
    [
        ("loss_kind = triplet\n", "no triplet tuple can be drawn from the training classes: no class has two samples"),
        (
            "loss_kind = npair\nnpair_n = 2\nbatch_size = 4\n",
            "no npair tuple can be drawn from the training classes: npair_n = 2 needs 2 classes with two samples, got 0",
        ),
    ],
    ids=["triplet", "npair"],
)
def test_one_sample_per_class_exits_one_before_training(tmp_path, capsys, config_text, message):
    # every batch would be skipped: unchecked, the run would train 0 steps and exit 0
    data = tmp_path / "singles.csv"
    assert run_cli("synth-data", "--classes", "10", "--per-class", "1", "--dim", "8", "--seed", "1", "--out", str(data)) == 0
    config = tmp_path / "run.cfg"
    config.write_text("epochs = 3\nembed_dim = 4\nhidden_dims = 8\nrecall_ks = 1,2\n" + config_text)
    run_dir = tmp_path / "run"
    capsys.readouterr()
    assert run_cli("train", "--data", str(data), "--config", str(config), "--out-dir", str(run_dir)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth-data", "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["synth-data", "--center-scale", "nan"], "center_scale must be finite and nonnegative, got nan"),
        (["synth-data", "--center-scale", "inf"], "center_scale must be finite and nonnegative, got inf"),
        (["synth-data", "--center-scale", "-1"], "center_scale must be finite and nonnegative, got -1.0"),
        (["synth-data", "--sigma", "nan"], "noise_sigma must be finite and nonnegative, got nan"),
        (["synth-data", "--sigma", "inf"], "noise_sigma must be finite and nonnegative, got inf"),
        (["eval", "--kmeans-seed", "-1"], "k-means seed must be nonnegative, got -1"),
        (["eval", "--split-seed", "-1"], "split seed must be nonnegative, got -1"),
        (["gradcheck", "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["gradcheck", "--instances", "0"], "instances must be positive, got 0"),
    ],
    ids=[
        "synth-seed-negative", "center-scale-nan", "center-scale-inf", "center-scale-negative", "sigma-nan",
        "sigma-inf", "eval-kmeans-seed-negative", "eval-split-seed-negative", "gradcheck-seed-negative",
        "gradcheck-no-instances",
    ],
)
def test_bad_seed_or_scale_exits_one_with_a_message(tmp_path, small_dataset, capsys, argv, message):
    command, *options = argv
    out = tmp_path / "out"
    if command == "synth-data":
        options += ["--classes", "2", "--per-class", "2", "--dim", "2", "--out", str(out)]
    elif command == "eval":
        options += ["--checkpoint", str(_bare_checkpoint(tmp_path)), "--data", str(small_dataset), "--out-dir", str(out)]
    capsys.readouterr()
    assert run_cli(command, *options) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--config", "{tmp}/bad.cfg", "--out-dir", "{tmp}/run"], "unknown config key"),
        (["train", "--config", "{tmp}/run.cfg", "--out-dir", "{tmp}/afile/run"], "afile exists and is not a directory"),
        (["eval", "--ks", "1,two", "--out-dir", "{tmp}/eval"], "--ks must be a comma list of integers, got '1,two'"),
        (["eval", "--out-dir", "{tmp}/afile/eval"], "afile exists and is not a directory"),
        (["eval", "--ks", "0", "--out-dir", "{tmp}/eval"], "--ks must be positive, got 0"),
        (["eval", "--ks", "", "--out-dir", "{tmp}/eval"], "--ks must name at least one K"),
        (["train", "--config", "{tmp}/fraction.cfg", "--out-dir", "{tmp}/run"], "train_fraction must lie strictly in (0, 1), got 1.5"),
        (["eval", "--kmeans-seed", "-1", "--out-dir", "{tmp}/eval"], "k-means seed must be nonnegative, got -1"),
        (["eval", "--split-seed", "-1", "--out-dir", "{tmp}/eval"], "split seed must be nonnegative, got -1"),
        (["eval", "--train-fraction", "1.5", "--out-dir", "{tmp}/eval"], "train_fraction must lie strictly in (0, 1), got 1.5"),
        (["eval", "--train-fraction", "nan", "--out-dir", "{tmp}/eval"], "train_fraction must lie strictly in (0, 1), got nan"),
    ],
    ids=[
        "train-unknown-config-key", "train-out-dir-below-a-file", "eval-ks-not-integers", "eval-out-dir-below-a-file",
        "eval-ks-zero", "eval-ks-empty", "train-fraction-outside-0-1", "eval-kmeans-seed-negative",
        "eval-split-seed-negative", "eval-train-fraction-outside-0-1", "eval-train-fraction-nan",
    ],
)
def test_bad_argument_exits_one_before_the_dataset_is_read(tmp_path, small_dataset, train_config, monkeypatch, capsys, argv, message):
    from hardmetric import cli

    def refuse(path):
        raise AssertionError(f"read {path}")

    (tmp_path / "bad.cfg").write_text("learning_rat = 0.1\n")
    (tmp_path / "fraction.cfg").write_text("train_fraction = 1.5\n")
    (tmp_path / "afile").write_text("not a directory\n")
    command, *options = [arg.format(tmp=tmp_path) for arg in argv]
    if command == "eval":
        options += ["--checkpoint", str(_bare_checkpoint(tmp_path))]
    monkeypatch.setattr(cli, "load_dataset", refuse)
    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    capsys.readouterr()
    assert run_cli(command, "--data", str(small_dataset), *options) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()


def test_k_beyond_the_test_points_exits_one_before_clustering(tmp_path, small_dataset, monkeypatch, capsys):
    from hardmetric import evaluation

    clustered = []
    monkeypatch.setattr(evaluation, "kmeans", lambda *args, **kwargs: clustered.append(args))
    capsys.readouterr()
    # split seed 0 leaves 3 test classes of 8 points
    argv = ["--checkpoint", str(_bare_checkpoint(tmp_path)), "--data", str(small_dataset), "--out-dir", str(tmp_path / "eval")]
    assert run_cli("eval", "--ks", "1,60", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "K = 60 must be smaller than the number of points 24" in err
    assert clustered == [] and not (tmp_path / "eval").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_train_on_a_fifo_the_c_reader_refuses_exits_one(tmp_path, train_config, capsys):
    path = tmp_path / "bad.fifo"
    os.mkfifo(path)
    codes = []
    writer = threading.Thread(target=path.write_text, args=("label,f_0\n0,1.0\n1,abc\n",), daemon=True)
    argv = ["--data", str(path), "--config", str(train_config), "--out-dir", str(tmp_path / "run")]
    reader = threading.Thread(target=lambda: codes.append(run_cli("train", *argv)), daemon=True)
    capsys.readouterr()
    writer.start()
    reader.start()
    reader.join(timeout=10)
    writer.join(timeout=10)
    assert not reader.is_alive() and not writer.is_alive(), "train hung on a FIFO"
    assert codes == [1] and "line 3" in capsys.readouterr().err


@pytest.fixture()
def split7_run(tmp_path):
    data = tmp_path / "ten.csv"
    assert run_cli("synth-data", "--classes", "10", "--per-class", "10", "--dim", "8", "--seed", "1", "--out", str(data)) == 0
    config = tmp_path / "split7.cfg"
    config.write_text("split_seed = 7\nepochs = 1\nbatch_size = 20\nembed_dim = 4\nhidden_dims = 8\n")
    run_dir = tmp_path / "run"
    assert run_cli("train", "--data", str(data), "--config", str(config), "--out-dir", str(run_dir)) == 0
    return data, run_dir


class TestEvalSplit:
    def test_defaults_to_the_recorded_split(self, tmp_path, split7_run):
        data, run_dir = split7_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        eval_dir = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", str(run_dir / "checkpoint.npz"), "--data", str(data), "--out-dir", str(eval_dir)) == 0
        rows = (eval_dir / "embeddings.csv").read_text().splitlines()[1:]
        assert sorted({int(row.split(",")[1]) for row in rows}) == manifest["split"]["test_classes"]
        assert json.loads((eval_dir / "metrics.json").read_text())["split_seed"] == 7

    def test_training_classes_are_refused(self, tmp_path, split7_run, capsys):
        data, run_dir = split7_run
        code = run_cli(
            "eval", "--checkpoint", str(run_dir / "checkpoint.npz"), "--data", str(data),
            "--split-seed", "0", "--out-dir", str(tmp_path / "eval"),
        )
        assert code == 1
        assert "were training classes" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_checkpoint_without_a_split_needs_a_seed(self, tmp_path, small_dataset, capsys):
        from hardmetric.checkpoint import Models, save_checkpoint
        from hardmetric.embedder import init_embedder

        path = tmp_path / "bare.npz"
        save_checkpoint(path, Models(init_embedder(5, (4,), 2, np.random.default_rng(0))))
        argv = ["eval", "--checkpoint", str(path), "--data", str(small_dataset), "--out-dir", str(tmp_path / "eval")]
        assert run_cli(*argv) == 1
        assert "--split-seed" in capsys.readouterr().err
        assert run_cli(*argv, "--split-seed", "0") == 0


def _damage(path, name):
    """Write a broken variant of the checkpoint at `path`; returns its path."""
    import numpy as np

    out = path.with_name(f"{name}.npz")
    with np.load(path) as npz:
        arrays = dict(npz)
    if name == "text":
        out.write_text("label,f_0\n0,1.0\n")
    elif name == "empty":
        out.write_bytes(b"")
    elif name == "truncated":
        out.write_bytes(path.read_bytes()[:200])
    elif name == "single_array":
        with open(out, "wb") as fh:
            np.save(fh, arrays["embedder/projector/weight"])
    else:
        if name == "missing_array":
            del arrays["embedder/projector/bias"]
        elif name == "missing_meta":
            del arrays["meta_json"]
        elif name == "garbled_meta":
            arrays["meta_json"] = np.asarray('{"layers": [')
        elif name == "meta_not_a_document":
            arrays["meta_json"] = np.asarray("[1, 2]")
        elif name == "generator_does_not_chain":
            # one input column fewer than the hidden layer's outputs
            arrays["generator/1/weight"] = arrays["generator/1/weight"][:, 1:]
        np.savez(out, **arrays)
    return out


@pytest.mark.parametrize(
    "name",
    [
        "text", "empty", "truncated", "single_array", "missing_array", "missing_meta", "garbled_meta",
        "meta_not_a_document", "generator_does_not_chain",
    ],
)
def test_unreadable_checkpoint_exits_one_with_a_message(tmp_path, small_dataset, capsys, name):
    from hardmetric.checkpoint import Models, save_checkpoint
    from hardmetric.embedder import init_embedder
    from hardmetric.generator import init_generator

    good = tmp_path / "good.npz"
    rng = np.random.default_rng(0)
    embedder = init_embedder(5, (4,), 2, rng)
    save_checkpoint(good, Models(embedder, init_generator(2, 4, rng=rng)), meta={"config": {"split_seed": 0}})
    bad = _damage(good, name)
    code = run_cli("eval", "--checkpoint", str(bad), "--data", str(small_dataset), "--out-dir", str(tmp_path / "eval"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


def test_eval_of_a_checkpoint_with_a_nan_weight_exits_two(tmp_path, small_dataset, capsys):
    from hardmetric.checkpoint import Models, save_checkpoint
    from hardmetric.embedder import init_embedder

    params = init_embedder(5, (4,), 2, np.random.default_rng(0))
    params.projector.weight[1, 2] = float("nan")
    path = tmp_path / "nan.npz"
    save_checkpoint(path, Models(params), meta={"config": {"split_seed": 0}})
    eval_dir = tmp_path / "eval"
    code = run_cli("eval", "--checkpoint", str(path), "--data", str(small_dataset), "--out-dir", str(eval_dir))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "embedding row 0 " in err
    assert not eval_dir.exists()
