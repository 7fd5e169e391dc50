"""End-to-end CLI tests on a tiny configuration."""

import json

import numpy as np
import pytest

from sourcecount.cli import main
from sourcecount.detectors import Detector, DetectorSpec, build_detector, save_detector
from sourcecount.experiments import read_csv, read_dataset

TINY_CONFIG = """
# desk-scale settings for fast CLI runs
num_train = 150
num_test = 50
epochs = 4
seed = 3
snapshot_axis = 5,10
snr_axis_db = 0,10
detectors = ernet,aic
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_eval_without_model_fails(self, tmp_path, config_file):
        assert run("eval", "--config", config_file, "--out", tmp_path / "empty",
                   "--detector", "ecnet") == 2

    def test_train_classical_rejected(self, tmp_path, config_file):
        assert run("train", "--config", config_file, "--out", tmp_path,
                   "--detector", "aic") == 2

    @pytest.mark.parametrize("field, extra, flags", [
        ("M", "num_antennas = 8\n", ()),
        ("N", "num_snapshots = 100\n", ()),
        ("coherence", "coherent = true\n", ()),
        ("seed", "", ("--seed", "4")),
        ("feature_dim", "", ("--fbss", "4")),
    ], ids=["M", "N", "coherence", "seed", "feature_dim"])
    def test_train_rejects_dataset_from_another_run(self, tmp_path, config_file, capsys,
                                                    field, extra, flags):
        out = tmp_path / "run"
        fbss = ("--fbss", "5") if field == "feature_dim" else ()
        assert run("gen-data", "--config", config_file, "--out", out, "--num", 20,
                   "--detector", "ernet", *fbss) == 0
        _, _, info = read_dataset(next(out.glob("dataset-*.csv")))
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG + extra, encoding="utf-8")
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
        assert capsys.readouterr().err == f"error: malformed dataset row in {dataset}\n"
        assert not list(out.glob("model-*.json"))

    def test_train_rejects_infinite_learning_rate(self, tmp_path, capsys):
        path = tmp_path / "inf.cfg"
        path.write_text(TINY_CONFIG + "learning_rate = inf\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("gen-data", "--config", path, "--out", out, "--num", 5,
                   "--detector", "ernet") == 0
        capsys.readouterr()
        assert run("train", "--config", path, "--out", out, "--detector", "ernet") == 2
        err = capsys.readouterr().err
        assert err == "error: learning_rate must be finite and non-negative, got inf\n"
        assert not list(out.glob("model-*.json"))

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


class TestFlagValidation:
    @pytest.mark.parametrize("command, flag", [
        ("gen-data", "--num"), ("eval", "--trials"), ("eval", "--snapshots"),
        ("gen-data", "--fbss"), ("eval", "--fbss"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_rejected(self, tmp_path, config_file, capsys,
                                       command, flag, value):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run(command, "--config", config_file, "--out", out, "--detector", "mdl",
                flag, value)
        assert exc.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err
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
        assert err == "error: subarray_size must lie in [1, 10], got 11\n"
        assert not out.exists()

    def test_fbss_model_from_larger_array_rejected(self, tmp_path, capsys):
        path = tmp_path / "m6.cfg"
        path.write_text(TINY_CONFIG + "num_antennas = 6\n", encoding="utf-8")
        spec = DetectorSpec("ernet", 10, subarray_size=8)
        model = tmp_path / "model-fbss-ernet.json"
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(0))), model)
        out = tmp_path / "run"
        assert run("eval", "--config", path, "--out", out, "--detector", "ernet",
                   "--model", model) == 2
        err = capsys.readouterr().err
        assert err == (f"error: model {model}: "
                       "subarray_size must lie in [1, 6], got 8\n")
        assert not list(out.glob("eval-*.json"))

    @pytest.mark.parametrize("argv", [
        ("gen-data", "--phase", "test", "--snr-db", "nan"),
        ("eval", "--snr-db", "nan"),
    ])
    def test_nan_snr_flag_rejected(self, tmp_path, config_file, capsys, argv):
        out = tmp_path / "run"
        assert run(*argv, "--config", config_file, "--out", out,
                   "--detector", "mdl") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SNRs must be numbers or inf")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_nan_snr_in_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text(TINY_CONFIG + "test_snr_db = nan\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("eval", "--config", path, "--out", out, "--detector", "mdl") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SNRs must be numbers or inf")
        assert err.count("\n") == 1
        assert not out.exists()


class TestSweepCommands:
    def test_sweep_snr(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert run("sweep-snr", "--config", config_file, "--out", out) == 0
        result = read_csv(out / "sweep-snr.csv")
        assert result.axis == (0.0, 10.0)
        assert result.detectors == ("ernet", "aic")

    def test_sweep_snapshots(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert run("sweep-snapshots", "--config", config_file, "--out", out) == 0
        result = read_csv(out / "sweep-snapshots.csv")
        assert result.axis == (5.0, 10.0)

    def test_sweep_snr_coherent(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert run("sweep-snr-coherent", "--config", config_file, "--out", out) == 0
        result = read_csv(out / "sweep-snr-coherent.csv")
        assert result.detectors == ("fbss-ernet", "fbss-aic")

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
    def test_non_coherent_sweeps_override_the_config(self, tmp_path, command):
        path = tmp_path / "coherent.cfg"
        path.write_text(TINY_CONFIG + "coherent = true\n", encoding="utf-8")
        out = tmp_path / "sweep"
        assert run(command, "--config", path, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["coherent"] is False

    def test_identifiable_configs_do_not_warn(self, tmp_path, config_file, capsys):
        assert run("sweep-snr", "--config", config_file, "--out", tmp_path / "a") == 0
        small = tmp_path / "small.cfg"
        small.write_text(config_file.read_text() + "max_sources = 4\n", encoding="utf-8")
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
