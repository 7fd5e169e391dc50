"""End-to-end CLI tests on a tiny configuration."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcecount.cli import ALL_DETECTORS, main
from sourcecount.detectors import (Detector, DetectorSpec, build_detector, load_detector,
                                   normalize_features, save_detector)
from sourcecount.classical import OpCounts
from sourcecount.experiments import (SWEEPS, ComplexityRow, ExperimentConfig, config_to_text,
                                     evaluate_detectors, generate_trials, load_config,
                                     read_dataset, train_detector)
from sourcecount.network import TrainConfig

# Each subcommand's --help at COLUMNS=80, as the flags stood before they
# became config overrides (Python 3.11 argparse).
HELP_DIR = Path(__file__).parent / "data" / "help"

# Desk-scale settings for fast CLI runs.
TINY_CONFIG = dict(num_train=150, num_test=50, epochs=4, seed=3, snapshot_axis=(5, 10),
                   snr_axis_db=(0.0, 10.0), detectors=("ernet", "aic"))

# SHA-256 over every file and the stdout of the commands in
# TestArtefactBits on TINY_CONFIG, less timing and version fields, per
# OpenBLAS core family.
CLI_DIGEST = {
    "SkylakeX": "5c5daa979417f16d065e61463964cae9b1fea282c373c2aef9ae6002bbafea15",
    "Haswell": "2c8b5833dd66b0157f42069c4d8b36735c06d3d01e692aeaa0220228d70054a4",
    "Sandybridge": "63a41c531abb20e86b2bc17581410827e47265602b66b637544ec4538485b57a",
    "Nehalem": "d9a7a31ec6cf9dea5108dcaeacfc939b7e1086d4a8d37b95e6a90f303dca6928",
    "Katmai": "7d8c77421bf68ba66f10ab4961f4b4fc9afdf89d344aa20c156b4b0c61b6d7e9",
}


class UncheckedConfig(ExperimentConfig):
    def __post_init__(self):  # no checks, so a test can write a value the reader rejects
        pass


def config_text(**overrides):
    """The text of TINY_CONFIG with ``overrides``, as config_to_text writes it: one line
    per field, each written once, and none for a field set to None."""
    return config_to_text(UncheckedConfig(**{**TINY_CONFIG, **overrides}))


def write_config(path, **overrides):
    path.write_text(config_text(**overrides), encoding="utf-8")
    return path


@pytest.fixture()
def config_file(tmp_path):
    return write_config(tmp_path / "tiny.toml")


@pytest.fixture()
def no_draw(monkeypatch):
    """Fails the test if a trial is drawn."""
    import sourcecount.experiments as experiments

    def draw(*args, **kwargs):
        raise AssertionError("a trial was drawn before the settings were checked")

    monkeypatch.setattr(experiments, "_set_stream", draw)


def run(*argv):
    return main([str(a) for a in argv])


def sweep_columns(path):
    """The axis values and detector names of a sweep CSV, in file order."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (tuple(dict.fromkeys(float(r["axis"]) for r in rows)),
            tuple(dict.fromkeys(r["detector"] for r in rows)))


class TestGenTrainEval:
    def test_full_detector_cycle(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert run("gen-data", "--config", config_file, "--out", out,
                   "--detector", "ernet") == 0
        dataset = out / "dataset-ernet-train.csv"
        feats, labels, info = read_dataset(dataset)
        assert feats.shape == (150, 10)
        assert info["seed"] == "3"

        assert run("train", "--config", config_file, "--out", out,
                   "--detector", "ernet") == 0
        assert (out / "model-ernet.json").exists()
        loss_lines = (out / "loss-ernet.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) == 1 + 4  # four epochs

        assert run("eval", "--config", config_file, "--out", out,
                   "--detector", "ernet") == 0
        report = json.loads((out / "eval-ernet.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["num_trials"] == 50
        assert "accuracy" in capsys.readouterr().out

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3

    def test_normalized_cycle_trains_and_scores_as_the_library(self, tmp_path, config_file):
        # gen-data writes raw rows, and the detector divides them by the
        # trace in train and in eval, as it does on the library path.
        path = write_config(tmp_path / "normalized.toml", normalize_features=True)
        out = tmp_path / "run"
        for command in ("gen-data", "train", "eval"):
            assert run(command, "--config", path, "--out", out, "--detector", "ecnet") == 0
        config = load_config(path)
        train_set = generate_trials(config, phase="train", num=config.num_train,
                                    snr_db=tuple(config.train_snr_db))
        assert np.array_equal(read_dataset(out / "dataset-ecnet-train.csv")[0], train_set.eigen)
        library, _ = train_detector(config, "ecnet", train_set.eigen, train_set.labels)
        # the same net trained on rows normalized beforehand
        by_hand, _ = train_detector(dataclasses.replace(config, normalize_features=False),
                                    "ecnet", normalize_features(train_set.eigen, "eigen"),
                                    train_set.labels)
        model = load_detector(out / "model-ecnet.json")
        assert model.spec == library.spec and model.spec.normalize
        for ours, theirs, reference in zip(model.net.layers, library.net.layers,
                                           by_hand.net.layers):
            assert np.array_equal(ours.weights, theirs.weights)
            assert np.array_equal(ours.weights, reference.weights)
            assert np.array_equal(ours.bias, theirs.bias)
        test_set = generate_trials(config, phase="test", num=config.num_test,
                                   snr_db=config.test_snr_db)
        report = json.loads((out / "eval-ecnet.json").read_text())
        assert report["accuracy"] == evaluate_detectors([library], test_set)["ecnet"]

    def test_classical_eval_needs_no_model(self, tmp_path, config_file):
        out = tmp_path / "run"
        assert run("eval", "--config", config_file, "--out", out,
                   "--detector", "mdl", "--snr-db", "20") == 0
        report = json.loads((out / "eval-mdl.json").read_text())
        assert report["snr_db"] == 20.0

    def test_fbss_cycle(self, tmp_path, config_file):
        out = tmp_path / "run"
        assert run("gen-data", "--config", config_file, "--out", out,
                   "--detector", "ecnet", "--fbss", "5") == 0
        feats, _, info = read_dataset(out / "dataset-fbss-ecnet-train.csv")
        assert feats.shape == (150, 5)
        assert info["feature_dim"] == "5"
        assert run("train", "--config", config_file, "--out", out,
                   "--detector", "ecnet", "--fbss", "5") == 0
        assert run("eval", "--config", config_file, "--out", out,
                   "--detector", "ecnet", "--fbss", "5") == 0
        assert (out / "eval-fbss-ecnet.json").exists()

    def test_train_without_dataset_fails(self, tmp_path, config_file, capsys):
        assert run("train", "--config", config_file, "--out", tmp_path / "empty",
                   "--detector", "ernet") == 2
        assert "gen-data" in capsys.readouterr().err

    def test_eval_without_model_fails(self, tmp_path, config_file, capsys):
        out = tmp_path / "empty"
        assert run("eval", "--config", config_file, "--out", out, "--detector", "ecnet") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out / "model-ecnet.json") in err

    def test_train_classical_rejected(self, tmp_path, config_file):
        assert run("train", "--config", config_file, "--out", tmp_path,
                   "--detector", "aic") == 2

    @pytest.mark.parametrize("field, extra, flags", [
        ("M", {"num_antennas": 8}, ()),
        ("N", {"num_snapshots": 100}, ()),
        ("coherence", {"coherent": True}, ()),
        ("seed", {}, ("--seed", "4")),
        ("feature_dim", {}, ("--fbss", "4")),
    ], ids=["M", "N", "coherence", "seed", "feature_dim"])
    def test_train_rejects_dataset_from_another_run(self, tmp_path, config_file, capsys,
                                                    field, extra, flags):
        out = tmp_path / "run"
        fbss = ("--fbss", "5") if field == "feature_dim" else ()
        assert run("gen-data", "--config", config_file, "--out", out, "--num", 20,
                   "--detector", "ernet", *fbss) == 0
        _, _, info = read_dataset(next(out.glob("dataset-*.csv")))
        other = write_config(tmp_path / "other.toml", **extra)
        capsys.readouterr()
        assert run("train", "--config", other, "--out", out, "--detector", "ernet",
                   *fbss, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset ") and err.count("\n") == 1
        assert f"has {field}={info[field]}, but this run has {field}=" in err
        assert not list(out.glob("model-*.json"))

    def test_train_rejects_malformed_dataset_row(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert run("gen-data", "--config", config_file, "--out", out, "--num", 5,
                   "--detector", "ernet") == 0
        dataset = out / "dataset-ernet-train.csv"
        lines = dataset.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].split(",", 1)[1]
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("train", "--config", config_file, "--out", out,
                   "--detector", "ernet") == 2
        assert capsys.readouterr().err == (f"error: dataset {dataset}, line 4: expected 10 "
                                           f"features and a label, got 10 fields\n")
        assert not list(out.glob("model-*.json"))

    def test_train_rejects_infinite_learning_rate(self, tmp_path, capsys):
        path = write_config(tmp_path / "inf.toml", learning_rate=math.inf)
        out = tmp_path / "run"
        for argv in (("gen-data", "--num", 5), ("train",)):
            assert run(*argv, "--config", path, "--out", out, "--detector", "ernet") == 2
            err = capsys.readouterr().err
            assert err == ("error: learning_rate must be a real number in "
                           "[0.0, 1.7976931348623157e+308], got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("batch_size", 0), ("epochs", -1), ("num_snapshots", 0),
        ("snapshot_axis", (20, 0)), ("seed", -1)],
        ids=["learning_rate = nan", "batch_size = 0", "epochs = -1", "num_snapshots = 0",
             "snapshot_axis = 20,0", "seed = -1"])
    @pytest.mark.parametrize("command", ["gen-data", "eval", "sweep-snr", "sweep-snapshots"])
    def test_bad_training_settings_rejected_before_any_draw(self, tmp_path, capsys,
                                                            command, field, value):
        path = write_config(tmp_path / "bad.toml", **{field: value})
        out = tmp_path / "run"
        argv = (command,) if command in SWEEPS else (command, "--detector", "mdl")
        assert run(*argv, "--config", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", *SWEEPS,
                                         "bench-complexity"])
    def test_one_antenna_rejected_before_any_draw(self, tmp_path, capsys, no_draw, command):
        # No detector decides at M = 1; the commands used to fail only after the draw.
        path = write_config(tmp_path / "m1.toml", num_antennas=1, max_sources=0,
                            subarray_size=1)
        out = tmp_path / "run"
        argv = (command, "--detector", "mdl") if command in ("gen-data", "eval") else (command,)
        assert run(*argv, "--config", path, "--out", out) == 2
        assert capsys.readouterr().err == ("error: num_antennas must be an integer in "
                                           f"[2, {np.iinfo(np.intp).max}], got 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("header", ["not a header", "M=10,N=20,coherence=non-coherent,seed=3",
                                        "M=10,feature_dim=ten"],
                             ids=["no-pairs", "no-feature_dim", "bad-feature_dim"])
    def test_train_rejects_malformed_dataset_header(self, tmp_path, config_file, capsys,
                                                    header):
        out = tmp_path / "run"
        assert run("gen-data", "--config", config_file, "--out", out, "--num", 5,
                   "--detector", "ernet") == 0
        dataset = out / "dataset-ernet-train.csv"
        lines = dataset.read_text(encoding="utf-8").splitlines()
        dataset.write_text("\n".join([header] + lines[1:]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("train", "--config", config_file, "--out", out,
                   "--detector", "ernet") == 2
        err = capsys.readouterr().err
        assert err == f"error: dataset {dataset} has no key=value header with a feature_dim\n"
        assert not list(out.glob("model-*.json"))


class TestFlagsAreConfigOverrides:
    def test_eval_manifest_records_the_flags(self, tmp_path, config_file):
        out = tmp_path / "run"
        assert run("eval", "--config", config_file, "--out", out, "--detector", "mdl",
                   "--snapshots", 50, "--trials", 30, "--snr-db", 10) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["num_snapshots"], config["num_test"], config["test_snr_db"]) == (50, 30, 10)
        report = json.loads((out / "eval-mdl.json").read_text())
        assert (report["num_snapshots"], report["num_trials"], report["snr_db"]) == (50, 30, 10)

    @pytest.mark.parametrize("command", [("gen-data", "--detector", "mdl", "--phase", "test"),
                                         ("eval", "--detector", "ecnet")])
    def test_noise_free_snr_is_written_as_json(self, tmp_path, config_file, command):
        # JSON has no Infinity, so the outputs spell it as TOML and float() do.
        def strict(path):
            return json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name))

        spec, out = DetectorSpec("ecnet", 10), tmp_path / "run"
        out.mkdir()
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(0)),
                               TrainConfig()), out / "model-ecnet.json")
        assert run(*command, "--config", config_file, "--out", out, "--snr-db", "inf") == 0
        assert strict(out / "manifest.json")["config"]["test_snr_db"] == "inf"
        if command[0] == "eval":
            assert strict(out / "eval-ecnet.json")["snr_db"] == "inf"

    @pytest.mark.parametrize("normalize", [False, True])
    def test_eval_manifest_records_the_models_normalization(self, tmp_path, normalize):
        # The model runs as it was trained, whatever the config says, and so does the record.
        path = write_config(tmp_path / "tiny.toml", normalize_features=not normalize)
        spec, out = DetectorSpec("ecnet", 10, normalize=normalize), tmp_path / "run"
        out.mkdir()
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(0))),
                      out / "model-ecnet.json")
        assert run("eval", "--config", path, "--out", out, "--detector", "ecnet") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["normalize_features"] is normalize

    @pytest.mark.parametrize("saved, configured", [(7, 5), (5, 8)])
    def test_eval_warns_at_the_models_subarray_size(self, tmp_path, capsys, saved,
                                                    configured):
        # The manifest and the warning read the M0 that ran, not the config file's: a
        # coherent config draws K up to 5, which M0 = 7 resolves and M0 = 5 does not.
        path = write_config(tmp_path / "coherent.toml", coherent=True, max_sources=5,
                            subarray_size=configured)
        spec, model, out = DetectorSpec("ecnet", 10, saved), tmp_path / "m.json", tmp_path / "run"
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(0))), model)
        assert run("eval", "--config", path, "--out", out, "--detector", "ecnet",
                   "--model", model) == 0
        warning = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("warning:")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["subarray_size"] == saved
        assert manifest["identifiable"] is (saved > 5)
        if saved > 5:
            assert warning == []
        else:
            assert len(warning) == 1 and "subarray_size=5:" in warning[0]

    @pytest.mark.parametrize("phase, field", [("test", "num_test"), ("train", "num_train")])
    def test_gen_data_manifest_records_num(self, tmp_path, config_file, phase, field):
        out = tmp_path / "run"
        assert run("gen-data", "--config", config_file, "--out", out, "--detector", "mdl",
                   "--phase", phase, "--num", 7) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"][field] == 7 and manifest["num_samples"] == 7
        assert read_dataset(out / f"dataset-mdl-{phase}.csv")[1].shape == (7,)

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", *SWEEPS,
                                         "bench-complexity"])
    def test_help_is_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", ["sourcecount", command, "--help"])
        with pytest.raises(SystemExit) as exc:
            main()  # as the console script calls it, reading sys.argv
        assert exc.value.code == 0
        assert capsys.readouterr().out == (HELP_DIR / f"{command}.txt").read_text(
            encoding="utf-8")

    def test_command_list_names_each_sweeps_axis_and_mode(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        assert [words for words in listed if words and words[0] in SWEEPS] == [
            ["sweep-snapshots", "accuracy versus snapshot count (non-coherent)"],
            ["sweep-snr", "accuracy versus SNR (non-coherent)"],
            ["sweep-snr-coherent", "accuracy versus SNR (coherent, smoothed)"]]


class TestModelFiles:
    @pytest.fixture()
    def model(self, tmp_path):
        spec = DetectorSpec("ecnet", 10)
        det = Detector(spec, build_detector(spec, np.random.default_rng(0)), TrainConfig())
        path = tmp_path / "model-ecnet.json"
        save_detector(det, path)
        return path

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["train_config"].update(momentum=0.5),
        lambda doc: doc["meta"].update(detector="ernet"),
        lambda doc: doc["meta"].update(hidden=[4, 4]),
    ], ids=["unknown-train-key", "other-kind", "other-hidden"])
    def test_eval_rejects_a_foreign_model(self, tmp_path, config_file, capsys, model, edit):
        doc = json.loads(model.read_text(encoding="utf-8"))
        edit(doc)
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        assert run("eval", "--config", config_file, "--out", out, "--detector", "ecnet",
                   "--model", model) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model file ") and err.count("\n") == 1
        assert not list(out.glob("eval-*.json"))

    @pytest.mark.parametrize("key, value", [
        ("loss", '"cce"'), ("adam_beta1", "9.0000000000000002e-01"),
        ("adam_beta2", "9.9900000000000000e-01"), ("adam_epsilon", "1.0000000000000000e-08"),
    ])
    def test_eval_rejects_a_legacy_train_config_key(self, tmp_path, config_file, capsys, model,
                                                    key, value):
        # Files from before the loss followed the output layer, or before
        # ADAM's constants were fixed, carry these keys; they are retrained.
        text = model.read_text(encoding="utf-8")
        model.write_text(text.replace('"seed": 0\n', f'"seed": 0,\n    "{key}": {value}\n'),
                         encoding="utf-8")
        status, err = run_quietly("eval", "--config", config_file, "--out", tmp_path / "run",
                                  "--detector", "ecnet", "--model", model)
        assert_one_error_line(status, err)
        assert f"unknown train_config keys ['{key}']" in err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["meta"].update(subarray_size="5"),
        lambda doc: doc["meta"].update(num_antennas=10.7),
        lambda doc: doc["meta"].update(normalize="no"),
        lambda doc: doc.update(meta=["ecnet", 10]),
        lambda doc: doc["train_config"].update(learning_rate="fast"),
        lambda doc: doc["train_config"].update(epochs=1.5),
        lambda doc: doc.update(train_config=[0.001, 128]),
        lambda doc: doc.pop("layers"),
    ], ids=["subarray-text", "antennas-float", "normalize-text", "meta-list", "rate-text",
            "epochs-float", "train-config-list", "no-layers"])
    def test_eval_rejects_a_mistyped_model(self, tmp_path, config_file, capsys, model, edit):
        doc = json.loads(model.read_text(encoding="utf-8"))
        edit(doc)
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        assert run("eval", "--config", config_file, "--out", out, "--detector", "ecnet",
                   "--model", model) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model file ") and err.count("\n") == 1
        assert not list(out.glob("eval-*.json"))


class TestFlagValidation:
    @pytest.mark.parametrize("command, flag", [
        ("gen-data", "--num"), ("eval", "--trials"), ("eval", "--snapshots"),
        ("gen-data", "--fbss"), ("eval", "--fbss"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_rejected(self, tmp_path, config_file, capsys,
                                       command, flag, value):
        # the config checks each count flag and names the field it sets
        field = {"--num": "num_train", "--trials": "num_test",
                 "--snapshots": "num_snapshots", "--fbss": "subarray_size"}[flag]
        out = tmp_path / "run"
        assert run(command, "--config", config_file, "--out", out, "--detector", "mdl",
                   flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and err.count("\n") == 1
        assert value in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
    def test_smoothed_covnet_rejected(self, tmp_path, config_file, capsys, command):
        out = tmp_path / "run"
        assert run(command, "--config", config_file, "--out", out,
                   "--detector", "covnet", "--fbss", "5") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: covnet has no smoothed form")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
    def test_fbss_above_array_size_rejected(self, tmp_path, config_file, capsys,
                                            command):
        out = tmp_path / "run"
        assert run(command, "--config", config_file, "--out", out,
                   "--detector", "ernet", "--fbss", "11") == 2
        err = capsys.readouterr().err
        assert err == "error: subarray_size must be an integer in [1, 10], got 11\n"
        assert not out.exists()

    def test_fbss_model_from_larger_array_rejected(self, tmp_path, capsys):
        # M is checked before the model's M0 enters the config, so the error names
        # the array size, not a subarray_size the user never set.
        path = write_config(tmp_path / "m6.toml", num_antennas=6)
        spec = DetectorSpec("ernet", 10, subarray_size=8)
        model = tmp_path / "model-fbss-ernet.json"
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(0))), model)
        out = tmp_path / "run"
        assert run("eval", "--config", path, "--out", out, "--detector", "ernet",
                   "--model", model) == 2
        err = capsys.readouterr().err
        assert err == f"error: model {model} is for M=10, but num_antennas is 6\n"
        assert not list(out.glob("eval-*.json"))

    def test_eval_model_from_another_array_size_rejected_before_any_draw(
            self, tmp_path, capsys, no_draw):
        path = write_config(tmp_path / "m8.toml", num_antennas=8)
        spec = DetectorSpec("ecnet", 10)
        model = tmp_path / "model-ecnet.json"
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(0))), model)
        out = tmp_path / "run"
        status = run("eval", "--config", path, "--out", out, "--detector", "ecnet",
                     "--model", model)
        err = capsys.readouterr().err
        assert_one_error_line(status, err)
        assert err == f"error: model {model} is for M=10, but num_antennas is 8\n"
        assert not out.exists()

    @pytest.mark.parametrize("m0, flags, message", [
        (5, ("--detector", "ecnet"), "holds ernet, but --detector is ecnet"),
        (5, ("--detector", "ernet", "--fbss", "3"), "is smoothed at M0=5, but --fbss is 3"),
        (None, ("--detector", "ernet", "--fbss", "5"), "is unsmoothed, but --fbss is 5"),
    ], ids=["other-kind", "other-subarray", "unsmoothed"])
    def test_eval_flags_must_match_the_model(self, tmp_path, config_file, capsys, m0, flags,
                                             message):
        # The model's kind and smoothing once overrode --detector and --fbss.
        spec = DetectorSpec("ernet", 10, subarray_size=m0)
        model = tmp_path / "model.json"
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(0))), model)
        out = tmp_path / "run"
        status = run("eval", "--config", config_file, "--out", out, "--trials", 10, *flags,
                     "--model", model)
        err = capsys.readouterr().err
        assert_one_error_line(status, err)
        assert err == f"error: model {model} {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["aic", "mdl"])
    def test_eval_of_a_criterion_rejects_a_model(self, tmp_path, config_file, capsys, kind):
        # AIC and MDL have no model, so --model once went unread.
        missing, out = tmp_path / "nonexistent.json", tmp_path / "run"
        status = run("eval", "--config", config_file, "--out", out, "--detector", kind,
                     "--model", missing)
        err = capsys.readouterr().err
        assert_one_error_line(status, err)
        assert err == f"error: --detector {kind} has no model, but --model is {missing}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("gen-data", "--phase", "test", "--snr-db", "nan"),
        ("eval", "--snr-db", "nan"),
        ("gen-data", "--snr-db", "-inf"),  # "-inf" after a space is a value, not a flag
        ("eval", "--snr-db", "-inf"),
    ])
    def test_nan_snr_flag_rejected(self, tmp_path, config_file, capsys, argv):
        out = tmp_path / "run"
        assert run(*argv, "--config", config_file, "--out", out,
                   "--detector", "mdl") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: test_snr_db must be a real number in [")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "eval"])
    def test_negative_snr_after_a_space_is_a_value(self, tmp_path, config_file, capsys,
                                                   command):
        # argparse takes "-1e3" after a space for a flag, as it would not "-1000".
        results = []
        for flags in (["--snr-db=-1e3"], ["--snr-db", "-1e3"], ["--snr", "-1e3"]):
            status = run(command, *flags, "--config", config_file, "--out", tmp_path,
                         "--detector", "mdl")
            results.append((status, capsys.readouterr().out))
        assert results[0] == results[1] == results[2] and results[0][0] == 0

    @pytest.mark.parametrize("argv, message", [
        (("--snr-db", "--detector", "mdl"), "argument --snr-db: expected one argument"),
        (("--", "5"), "unrecognized arguments: -- 5")])
    def test_snr_value_join_leaves_other_tokens_to_argparse(self, capsys, argv, message):
        # Only --snr-db, or a prefix of it, is joined, and never to a flag after it.
        with pytest.raises(SystemExit) as exc:
            main(["eval", *argv])
        assert exc.value.code == 2 and message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--snr-db", "-4000"), "test_snr_db must be a real number in [-3082.547155599167, inf]"),
        (("--fbss", "1"), "subarray_size must be at least 2 for mdl")])
    def test_eval_flag_that_cannot_run_rejected_before_any_draw(
            self, tmp_path, config_file, capsys, no_draw, flags, message):
        out = tmp_path / "run"
        assert run("eval", *flags, "--config", config_file, "--out", out,
                   "--detector", "mdl") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_eval_snr_whose_features_overflow_rejected(self, tmp_path, config_file, capsys):
        # -2000 dB passes the config check; the trials' eigenvalues overflow.
        out = tmp_path / "run"
        assert run("eval", "--snr-db", "-2000", "--config", config_file, "--out", out,
                   "--detector", "mdl") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snr_db -2000.0 is too low") and err.count("\n") == 1
        assert not list(out.glob("*"))

    def test_run_failing_after_the_draw_leaves_no_out_directory(self, tmp_path, config_file,
                                                                capsys):
        out = tmp_path / "run"
        status = run("eval", "--snr-db", "-2000", "--config", config_file, "--out", out,
                     "--detector", "mdl")
        assert_one_error_line(status, capsys.readouterr().err)
        assert not out.exists()

    def test_nan_snr_in_config_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path / "nan.toml", test_snr_db=math.nan)
        out = tmp_path / "run"
        assert run("eval", "--config", path, "--out", out, "--detector", "mdl") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: test_snr_db must be a real number in [")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "sweep-snr"])
    def test_infinite_train_snr_end_in_config_rejected(self, tmp_path, capsys, command):
        # inf is noise-free, but no training SNR can be drawn up to it.
        path = write_config(tmp_path / "inf.toml", train_snr_db=(0, math.inf))
        out = tmp_path / "run"
        assert run(command, "--config", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train_snr_db must be a real number in [0.0, ")
        assert err.count("\n") == 1
        assert not out.exists()


def assert_one_error_line(status, err):
    assert status == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def run_quietly(*argv):
    """``main``'s status and stderr, with every warning it raises recorded."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        status = run(*argv)
    assert not caught, [str(w.message) for w in caught]
    return status, stderr.getvalue()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """A valid 20-sample ERNet dataset and the config it was drawn with."""
    root = tmp_path_factory.mktemp("small")
    config = write_config(root / "tiny.toml")
    assert run("gen-data", "--config", config, "--out", root, "--num", 20,
               "--detector", "ernet") == 0
    return config, (root / "dataset-ernet-train.csv").read_text(encoding="utf-8")


@st.composite
def broken_datasets(draw, text):
    """``text`` with one fault: an odd feature or label, a truncated row, an
    extra column, a header key deleted, or bytes that are not UTF-8."""
    lines = text.splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    fault = draw(st.sampled_from(["feature", "label", "truncate", "extend", "header", "bytes"]))
    if fault == "feature":
        cells[draw(st.integers(0, len(cells) - 2))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "1e200"]))
    elif fault == "label":
        cells[-1] = draw(st.sampled_from(["3.5", "-1"]))
    elif fault == "extend":
        cells.append(cells[0])
    lines[row] = ",".join(cells)
    if fault == "truncate":
        lines[row] = lines[row][:draw(st.integers(0, len(lines[row]) - 1))]
    elif fault == "header":
        keys = lines[0].split(",")
        del keys[draw(st.integers(0, len(keys) - 1))]
        lines[0] = ",".join(keys)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if fault == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    return data


# Config fields, and the values that the config fuzzer writes in place of
# one: a TOML value of each kind, the special numbers, and text that is no value.
CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
ODD_CONFIG_VALUES = ['"abc"', "0.5", "true", "[5, 10]", "{ a = 1 }", "1979-05-27", "nan", "inf",
                     "-inf", "-7", str(10 ** 400), "abc", "5,10", ""]
# What ExperimentConfig says of a value that parses but that it rejects.
CONFIG_REJECTION = re.compile(r"error: (%s) " % "|".join(CONFIG_FIELDS))


@st.composite
def mutated_configs(draw):
    """The text of TINY_CONFIG with one fault, which kind it is, and the
    number of the line it lands on: a line deleted or duplicated (the
    second of the two), its value moved to another key (whose own line
    goes) or replaced, the text truncated, or a byte that is not UTF-8
    inserted."""
    lines = config_text().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    key, value = lines[i].split(" = ", 1)
    fault = draw(st.sampled_from(["delete", "duplicate", "key", "value", "truncate", "bytes"]))
    if fault == "delete":
        del lines[i]
    elif fault == "duplicate":
        lines.insert(i, lines[i])
        i += 1
    elif fault == "key":
        key = draw(st.sampled_from(CONFIG_FIELDS))
        lines[i] = f"{key} = {value}"
        lines = [line for j, line in enumerate(lines)
                 if j == i or not line.startswith(f"{key} = ")]
        i = lines.index(f"{key} = {value}")
    elif fault == "value":
        lines[i] = f"{key} = {draw(st.sampled_from(ODD_CONFIG_VALUES))}"
    data, lineno = ("\n".join(lines) + "\n").encode("utf-8"), i + 1
    if fault == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
        lineno = data.count(b"\n") + 1
    elif fault == "bytes":
        at = draw(st.integers(0, len(data)))
        data, lineno = data[:at] + b"\xff" + data[at:], data.count(b"\n", 0, at) + 1
    return data, fault, lineno


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """The text of a saved, untrained ECNet model file, and a config it fits."""
    root = tmp_path_factory.mktemp("model")
    config = write_config(root / "tiny.toml")
    spec = DetectorSpec("ecnet", 10)
    det = Detector(spec, build_detector(spec, np.random.default_rng(0)), TrainConfig())
    save_detector(det, root / "model.json")
    return config, (root / "model.json").read_text(encoding="utf-8")


@st.composite
def mutated_models(draw, text):
    """``text``, a saved model, with one fault: an entry of the document, its
    metadata, its train_config or a layer deleted, retyped or set to a
    special number (in place of one array entry for an array), a line
    duplicated, the text truncated, or a byte that is not UTF-8 inserted."""
    fault = draw(st.sampled_from(["delete", "retype", "number", "duplicate", "truncate",
                                  "bytes"]))
    data = text.encode("utf-8")
    if fault in ("delete", "retype", "number"):
        doc = json.loads(text)
        entries = draw(st.sampled_from([doc, doc["meta"], doc["train_config"],
                                        *doc["layers"]]))
        key = draw(st.sampled_from(sorted(entries)))
        if fault == "delete":
            del entries[key]
        elif fault == "retype":
            entries[key] = draw(st.sampled_from(["x", 1.5, -3, True, None, [], {}, [1.0]]))
        else:
            number = draw(st.sampled_from([math.nan, math.inf, -math.inf, -3, 10 ** 400]))
            if isinstance(entries[key], list) and entries[key]:
                entries[key][draw(st.integers(0, len(entries[key]) - 1))] = number
            else:
                entries[key] = number
        data = json.dumps(doc).encode("utf-8")
    elif fault == "duplicate":
        lines = data.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        data = b"".join(lines[:i + 1] + lines[i:])
    elif fault == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    else:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


# Counts up to 64 run in milliseconds, and those from 10**13 up fail at the
# first allocation; nothing in between is drawn.
COUNTS = st.one_of(st.sampled_from([0, -3]), st.integers(1, 64),
                   st.integers(10 ** 13, 10 ** 19))
COUNT_FLAGS = {"gen-data": ("--num", "--fbss"), "eval": ("--trials", "--snapshots", "--fbss")}


# Values of the flags that are not counts.  For --model, "model" stands for a
# saved model file, "missing" for a path with no file and "directory" for a directory.
SNR_VALUES = ["nan", "inf", "-inf", "-2000", "1e400", "5", "-30"]
MIXED_FLAGS = {
    "gen-data": {"--snr-db": SNR_VALUES, "--fbss": ["1", "4", "5", "10"],
                 "--detector": list(ALL_DETECTORS), "--phase": ["train", "test"]},
    "eval": {"--snr-db": SNR_VALUES, "--fbss": ["1", "4", "5", "10"],
             "--detector": list(ALL_DETECTORS), "--model": ["model", "missing", "directory"]},
}


class TestEveryFailureIsOneErrorLine:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_dataset_feature(self, tmp_path, small_dataset, value):
        config, text = small_dataset
        lines = text.splitlines()
        lines[2] = f"{value}," + lines[2].split(",", 1)[1]
        (tmp_path / "dataset-ernet-train.csv").write_text("\n".join(lines) + "\n")
        status, err = run_quietly("train", "--config", config, "--out", tmp_path,
                                  "--detector", "ernet")
        assert_one_error_line(status, err)
        assert "non-finite value in the features" in err

    @pytest.mark.parametrize("edit", [
        lambda row: row.rsplit(b",", 1)[0] + b",3.5",
        lambda row: row.rsplit(b",", 1)[0] + b",99999999999999999999999",
        lambda row: b"\xff" + row,
    ], ids=["fractional-label", "label-beyond-int64", "not-utf8"])
    def test_unparsable_dataset_line_is_named(self, tmp_path, small_dataset, edit):
        config, text = small_dataset
        lines = text.encode("utf-8").splitlines()
        lines[2] = edit(lines[2])
        path = tmp_path / "dataset-ernet-train.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        status, err = run_quietly("train", "--config", config, "--out", tmp_path,
                                  "--detector", "ernet")
        assert_one_error_line(status, err)
        assert f"{path}, line 3: " in err, err

    @pytest.mark.parametrize("line, message", [
        (b"num_train = abc", "Invalid value (at line {n}, column 13)"),
        (b"test_snr_db = five", "Invalid value (at line {n}, column 15)"),
        (b"coherent = maybe", "Invalid value (at line {n}, column 12)"),
        (b"snapshot_axis = [5 10]", "Unclosed array (at line {n}, column 20)"),
        (b"num_test = 5\xff", "{path}, line {n}: 'utf-8' codec can't decode byte 0xff"),
        # lines of the key=value format that TOML replaced
        (b"snapshot_axis = 5,10",
         "Expected newline or end of document after a statement (at line {n}, column 18)"),
        (b"detectors = ernet,aic", "Invalid value (at line {n}, column 13)"),
        (b"coherent = yes", "Invalid value (at line {n}, column 12)"),
        (b"detectors =", "Invalid value (at line {n}, column 12)"),
    ], ids=["int", "float", "bool", "list", "not-utf8", "old-list", "old-names", "old-bool",
            "old-unset"])
    def test_unparsable_config_value_names_its_line(self, tmp_path, line, message):
        text = config_text(**{line.split()[0].decode(): None})  # the key, written once
        path = tmp_path / "bad.toml"
        path.write_bytes(text.encode("utf-8") + line + b"\n")
        status, err = run_quietly("eval", "--config", path, "--out", tmp_path / "run",
                                  "--detector", "mdl")
        assert_one_error_line(status, err)
        expected = message.format(n=text.count("\n") + 1, path=path)
        assert err.startswith(f"error: {expected}"), err

    def test_count_beyond_numpys_array_limit_names_its_field(self, tmp_path, config_file,
                                                             capsys):
        status = run("gen-data", "--config", config_file, "--out", tmp_path / "run",
                     "--num", 10 ** 19)
        err = capsys.readouterr().err
        assert_one_error_line(status, err)
        limit = np.iinfo(np.intp).max
        assert err == f"error: num_train must be an integer in [1, {limit}], got {10 ** 19}\n"

    def test_header_only_dataset(self, tmp_path, small_dataset, capsys):
        config, text = small_dataset
        (tmp_path / "dataset-ernet-train.csv").write_text(text.splitlines()[0] + "\n")
        assert run("train", "--config", config, "--out", tmp_path, "--detector", "ernet") == 2
        assert capsys.readouterr().err == "error: dataset is empty\n"

    def test_sample_count_too_large_to_allocate(self, tmp_path, capsys):
        path = write_config(tmp_path / "huge.toml", num_test=10000000000000)
        assert_one_error_line(run("eval", "--config", path, "--out", tmp_path / "run",
                                  "--detector", "mdl"), capsys.readouterr().err)

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        status = run("eval", "--config", missing, "--out", tmp_path / "run", "--detector", "mdl")
        err = capsys.readouterr().err
        assert_one_error_line(status, err)
        assert str(missing) in err and not (tmp_path / "run").exists()

    def test_out_names_a_file(self, tmp_path, config_file, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        status = run("eval", "--config", config_file, "--out", out, "--detector", "mdl")
        err = capsys.readouterr().err
        assert_one_error_line(status, err)
        assert str(out) in err

    def test_model_names_a_directory(self, tmp_path, config_file, capsys):
        status = run("eval", "--config", config_file, "--out", tmp_path / "run",
                     "--detector", "ecnet", "--model", tmp_path)
        err = capsys.readouterr().err
        assert_one_error_line(status, err)
        assert str(tmp_path) in err

    @settings(max_examples=60)
    @given(data=st.data())
    def test_mutated_dataset(self, small_dataset, data):
        config, text = small_dataset
        broken = data.draw(broken_datasets(text))
        with tempfile.TemporaryDirectory() as out:
            (Path(out) / "dataset-ernet-train.csv").write_bytes(broken)
            status, err = run_quietly("train", "--config", config, "--out", out,
                                      "--detector", "ernet")
        if status != 0:
            assert_one_error_line(status, err)

    @settings(max_examples=80)
    @given(case=mutated_configs())
    def test_mutated_config(self, case):
        # A deleted line leaves its default, which eval runs.  A repeated key and a line
        # that does not decode or parse are named by their line, or by the end of the
        # document for truncated text, and any other error names the setting the config
        # rejects.
        data, fault, lineno = case
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "fuzz.toml"
            path.write_bytes(data)
            status, err = run_quietly("eval", "--config", path, "--out", Path(root) / "run",
                                      "--detector", "mdl")
        if fault == "delete":
            assert status == 0, err
        if fault == "duplicate":
            assert err.startswith(f"error: Cannot overwrite a value (at line {lineno}, "), err
        if status != 0:
            assert_one_error_line(status, err)
            named = (f"(at line {lineno}, column ", f"error: {path}, line {lineno}: ",
                     *["(at end of document)"] * (fault == "truncate"))
            assert any(name in err for name in named) or CONFIG_REJECTION.match(err), err

    @settings(max_examples=80)
    @given(data=st.data())
    def test_mutated_model(self, saved_model, data):
        config, text = saved_model
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.json"
            path.write_bytes(data.draw(mutated_models(text)))
            status, err = run_quietly("eval", "--config", config, "--out", Path(root) / "run",
                                      "--detector", "ecnet", "--model", path)
        if status != 0:
            assert_one_error_line(status, err)
            assert f"model file {path}: " in err, err

    @settings(max_examples=60)
    @given(command=st.sampled_from(sorted(COUNT_FLAGS)), data=st.data())
    def test_count_flags(self, small_dataset, command, data):
        config, _ = small_dataset
        flags = data.draw(st.lists(st.sampled_from(COUNT_FLAGS[command]), min_size=1,
                                   unique=True))
        argv = [arg for flag in flags for arg in (flag, data.draw(COUNTS))]
        with tempfile.TemporaryDirectory() as root:
            status, err = run_quietly(command, "--config", config, "--out", Path(root) / "run",
                                      "--detector", "mdl", *argv)
        if status != 0:
            assert_one_error_line(status, err)

    @settings(max_examples=80)
    @given(command=st.sampled_from(sorted(MIXED_FLAGS)), data=st.data())
    def test_mixed_flags(self, saved_model, command, data):
        config, text = saved_model
        choices = MIXED_FLAGS[command]
        flags = data.draw(st.lists(st.sampled_from(sorted(choices)), min_size=1, unique=True))
        values = [data.draw(st.sampled_from(choices[flag])) for flag in flags]
        spaced = [data.draw(st.booleans()) for _ in flags]  # --flag value, or --flag=value
        with tempfile.TemporaryDirectory() as root:
            paths = {"model": Path(root) / "model.json", "missing": Path(root) / "missing.json",
                     "directory": Path(root)}
            paths["model"].write_text(text, encoding="utf-8")
            argv = [arg for flag, value, space in zip(flags, values, spaced)
                    for arg in ([flag, str(paths.get(value, value))] if space
                                else [f"{flag}={paths.get(value, value)}"])]
            status, err = run_quietly(command, "--config", config, "--out", Path(root) / "run",
                                      *argv)
        if status != 0:
            assert_one_error_line(status, err)


class TestSweepCommands:
    def test_sweep_snr(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert run("sweep-snr", "--config", config_file, "--out", out) == 0
        assert sweep_columns(out / "sweep-snr.csv") == ((0.0, 10.0), ("ernet", "aic"))

    def test_sweep_snapshots(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert run("sweep-snapshots", "--config", config_file, "--out", out) == 0
        assert sweep_columns(out / "sweep-snapshots.csv")[0] == (5.0, 10.0)

    def test_sweep_snr_coherent(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert run("sweep-snr-coherent", "--config", config_file, "--out", out) == 0
        assert sweep_columns(out / "sweep-snr-coherent.csv")[1] == ("fbss-ernet", "fbss-aic")

    def test_unidentifiable_coherent_config_warns(self, tmp_path, config_file, capsys):
        # The defaults draw K up to 5, but the 5 x 5 smoothed covariance
        # resolves at most 4 sources; the run still goes ahead.
        out = tmp_path / "sweep"
        assert run("sweep-snr-coherent", "--config", config_file, "--out", out) == 0
        warning = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("warning:")]
        assert len(warning) == 1 and "resolves at most 4 sources" in warning[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["identifiable"] is False and manifest["config"]["coherent"] is True

    @pytest.mark.parametrize("command", ["sweep-snr", "sweep-snapshots"])
    def test_non_coherent_sweeps_override_the_config(self, tmp_path, command, capsys):
        # Coherent at max_sources = subarray_size = 5 would warn; these sweeps run non-coherent.
        path = write_config(tmp_path / "coherent.toml", coherent=True)
        out = tmp_path / "sweep"
        assert run(command, "--config", path, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["coherent"] is False and manifest["identifiable"] is True
        assert "warning:" not in capsys.readouterr().err

    def test_identifiable_configs_do_not_warn(self, tmp_path, config_file, capsys):
        assert run("sweep-snr", "--config", config_file, "--out", tmp_path / "a") == 0
        small = write_config(tmp_path / "small.toml", max_sources=4)
        assert run("sweep-snr-coherent", "--config", small, "--out", tmp_path / "b") == 0
        assert "warning:" not in capsys.readouterr().err
        for name in ("a", "b"):
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["identifiable"] is True

    def test_seed_override_changes_results(self, tmp_path, config_file):
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        run("sweep-snr", "--config", config_file, "--out", out_a)
        run("sweep-snr", "--config", config_file, "--out", out_b, "--seed", "99")
        run("sweep-snr", "--config", config_file, "--out", out_c)
        base = (out_a / "sweep-snr.csv").read_bytes()
        reseeded = (out_b / "sweep-snr.csv").read_bytes()
        repeat = (out_c / "sweep-snr.csv").read_bytes()
        assert base == repeat  # same config, bit-identical
        assert base != reseeded


class TestNoiseFreeRuns:
    # A noise-free K = 0 trial has an all-zero covariance, whose spectrum
    # AIC and MDL read as flat: they select 0 sources there.
    @pytest.mark.parametrize("flags, name", [(("--detector", "mdl"), "mdl"),
                                             (("--detector", "aic", "--fbss", 5), "fbss-aic")])
    def test_classical_eval(self, tmp_path, config_file, flags, name):
        out = tmp_path / "run"
        assert run("eval", *flags, "--config", config_file, "--out", out, "--snr-db", "inf") == 0
        report = json.loads((out / f"eval-{name}.json").read_text())
        assert report["snr_db"] == "inf" and 0.0 <= report["accuracy"] <= 1.0
        assert json.loads((out / "manifest.json").read_text())["config"]["test_snr_db"] == "inf"

    def test_sweep_snr_to_inf(self, tmp_path):
        path = write_config(tmp_path / "inf.toml", snr_axis_db=(0.0, math.inf))
        out = tmp_path / "sweep"
        assert run("sweep-snr", "--config", path, "--out", out) == 0
        assert sweep_columns(out / "sweep-snr.csv") == ((0.0, math.inf), ("ernet", "aic"))
        assert (out / "sweep-snr.csv").read_text().splitlines()[-1].startswith("inf,aic,")


class TestBenchCommand:
    def test_bench_complexity(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run("bench-complexity", "--out", out) == 0
        doc = json.loads((out / "bench-complexity.json").read_text())
        methods = {row["method"]: row for row in doc}
        assert methods["ernet"]["table"]["mul_div"] == 88
        assert methods["ecnet"]["table"]["mul_div"] == 160
        assert methods["aic"]["table"]["log"] == 20
        assert "us/decision" in capsys.readouterr().out

    def test_timing_column_is_in_microseconds(self, tmp_path, capsys, monkeypatch):
        import sourcecount.cli as cli

        row = ComplexityRow("mdl", OpCounts(1, 2, 3, 4), OpCounts(5, 6, 7, 8), 2.5e-6)
        monkeypatch.setattr(cli, "bench_complexity", lambda config: [row])
        assert run("bench-complexity", "--out", tmp_path) == 0
        assert capsys.readouterr().out.splitlines()[1].split() == [
            "mdl", "1/5", "2/6", "3/7", "4/8", "2.50"]


def test_importing_the_cli_leaves_tomllib_unloaded():
    # Only config_from_text imports tomllib, so a command without --config never pays for it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", "import sys, sourcecount.cli; "
                           "assert 'tomllib' not in sys.modules"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def artefact_bytes(path):
    """A CLI output file's bytes, less the fields that vary from run to run:
    a manifest's ``versions`` and each bench row's ``seconds_per_decision``."""
    if path.name == "manifest.json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["versions"]
        return json.dumps(doc, sort_keys=True).encode()
    if path.name == "bench-complexity.json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        for row in doc:
            del row["seconds_per_decision"]
        return json.dumps(doc).encode()
    return path.read_bytes()


def test_every_json_file_has_one_format(tmp_path, config_file):
    # Model files, manifests, eval reports and the complexity table: sorted keys, a
    # two-space indent, one trailing LF, no CR, and strict JSON (a noise-free SNR as "inf").
    commands = [(command, "--detector", "ecnet") for command in ("gen-data", "train", "eval")]
    commands += [("eval", "--detector", "mdl", "--snr-db", "inf"), ("sweep-snr",),
                 ("bench-complexity",)]
    out, seen = tmp_path / "run", set()
    for argv in commands:
        assert run(*argv, "--config", config_file, "--out", out) == 0
        for path in out.glob("*.json"):
            text = path.read_bytes().decode("utf-8")
            assert text.endswith("}\n") or text.endswith("]\n"), path.name
            assert "\r" not in text, path.name
            doc = json.loads(text, parse_constant=lambda name: pytest.fail(f"{path.name}: {name}"))
            expected = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
            assert text == expected, path.name
            seen.add(path.name)
    assert seen == {"manifest.json", "model-ecnet.json", "eval-ecnet.json", "eval-mdl.json",
                    "bench-complexity.json"}


class TestArtefactBits:
    def test_cli_bits_pinned(self, tmp_path, config_file, capsys, assert_pinned):
        # gen-data, train and eval for every net (fbss twins too), eval of
        # both classical criteria, the sweeps and bench-complexity, run into
        # one directory; after each command, every file there and stdout.
        nets = [("--detector", kind) for kind in ("ernet", "ecnet", "covnet")]
        nets += [("--detector", kind, "--fbss", 5) for kind in ("ernet", "ecnet")]
        commands = [(command, *net) for net in nets for command in ("gen-data", "train", "eval")]
        commands += [("eval", "--detector", kind) for kind in ("aic", "mdl")]
        commands += [(name,) for name in SWEEPS] + [("bench-complexity",)]
        out = tmp_path / "run"
        digest = hashlib.sha256()
        for argv in commands:
            assert run(*argv, "--config", config_file, "--out", out) == 0
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            if argv[0] == "bench-complexity":  # drop the us/decision column
                lines = stdout.splitlines()
                stdout = "\n".join([re.sub(r"\s+\S+$", "", line) for line in lines[:-1]]
                                   + lines[-1:])
            digest.update(stdout.encode())
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode() + b"\0" + artefact_bytes(path))
        assert_pinned("CLI_DIGEST", CLI_DIGEST, digest.hexdigest())
