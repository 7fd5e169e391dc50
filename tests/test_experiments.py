"""Tests for the experiment harness: configs, datasets, sweeps, bench."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sourcecount.experiments import (
    ClassicalDetector,
    ExperimentConfig,
    SweepResult,
    bench_complexity,
    config_from_text,
    config_to_text,
    draw_scenario,
    emit_csv,
    evaluate_detectors,
    generate_trials,
    read_csv,
    read_dataset,
    select_features,
    sweep_snapshots,
    sweep_snr_coherent,
    sweep_snr_noncoherent,
    train_detector,
    write_dataset,
    write_manifest,
)
from sourcecount.detectors import DetectorSpec, build_detector, make_features
from sourcecount.experiments import _FEATURE_BLOCK, NET_KINDS, ROLE_INIT, ROLE_TEST, _rng
from sourcecount.signal_model import generate_snapshots, sample_covariance


# SHA-256 of TestTrials.test_simulation_bits_pinned's trial sets.
SIMULATION_DIGEST = "b97c4e00fa97504846b43b7070ff4c3e1a73b725183c5a6b7bc0e6b4e20ec8e2"
# SHA-256 of TestTrainDetector.test_training_bits_pinned's trained nets.
TRAINING_DIGEST = "764d2523f0de75be3774c5346e9870a4e576afe507b7fc6caefe084e76894b47"
# SHA-256 of TestSweeps.test_sweep_bits_pinned's sweep results.
SWEEP_DIGEST = "1e61c42b8c725836464948b6d95b3a1c2577a38ad4d41a3757acf87d49f2634b"


def tiny_config(**overrides):
    base = dict(num_train=200, num_test=60, epochs=5, seed=11,
                snapshot_axis=(5, 10), snr_axis_db=(0.0, 10.0),
                detectors=("ernet", "aic"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_mirror_protocol(self):
        c = ExperimentConfig()
        assert c.num_antennas == 10
        assert c.num_snapshots == 20
        assert c.max_sources == 5
        assert c.train_snr_db == (0.0, 40.0)
        assert c.num_train == 8000
        assert c.num_test == 2000
        assert c.subarray_size == 5
        assert c.epochs == 400
        assert c.batch_size == 128
        assert c.learning_rate == 0.001

    def test_text_round_trip(self):
        c = tiny_config(coherent=True, detectors=("ecnet", "mdl"))
        assert config_from_text(config_to_text(c)) == c

    def test_comments_and_blanks_ignored(self):
        c = config_from_text("# comment\n\nnum_antennas = 8\nmax_sources=3\n")
        assert c.num_antennas == 8
        assert c.max_sources == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_text("wavelength = 2\n")

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(max_sources=10)
        with pytest.raises(ValueError):
            ExperimentConfig(subarray_size=11)

    @pytest.mark.parametrize("field, value", [
        ("train_snr_db", (math.nan, 40.0)), ("train_snr_db", (0.0, math.nan)),
        ("test_snr_db", math.nan), ("snr_axis_db", (0.0, math.nan)),
        ("test_snr_db", -math.inf)])
    def test_nan_snr_rejected(self, field, value):
        with pytest.raises(ValueError, match="SNRs must be numbers or inf"):
            ExperimentConfig(**{field: value})
        assert ExperimentConfig(test_snr_db=math.inf).test_snr_db == math.inf


class TestScenarioDraw:
    def test_source_count_uniform(self):
        # 60000 draws: each K in {0..5} lands within 1/6 +- 0.01
        config = ExperimentConfig()
        counts = np.zeros(6)
        for i in range(60000):
            sc = draw_scenario(config, _rng(0, 7, 0, i), snr_db=5.0)
            counts[sc.num_sources] += 1
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 1.0 / 6.0) <= 0.01)

    def test_coherent_draw_structure(self):
        config = ExperimentConfig(coherent=True)
        saw_fully_coherent = False
        for i in range(2000):
            sc = draw_scenario(config, _rng(1, 7, 0, i), snr_db=0.0)
            num_coherent = len(sc.coherent_map or {})
            if sc.num_sources == 0:
                assert num_coherent == 0
                continue
            assert 0 <= num_coherent <= sc.num_sources - 1
            if sc.coherent_map:
                independent = sc.num_sources - num_coherent
                for copy_idx, src_idx in sc.coherent_map.items():
                    assert copy_idx >= independent
                    assert 0 <= src_idx < independent
            # boundary case: K-1 coherent copies leaves one independent row
            if sc.num_sources >= 2 and num_coherent == sc.num_sources - 1:
                saw_fully_coherent = True
        assert saw_fully_coherent

    def test_train_snr_sampled_from_range(self):
        config = ExperimentConfig()
        snrs = [draw_scenario(config, _rng(2, 7, 0, i), snr_db=(0.0, 40.0)).snr_db
                for i in range(500)]
        assert min(snrs) >= 0.0 and max(snrs) <= 40.0
        assert max(snrs) - min(snrs) > 20.0

    def test_degenerate_doa_stream_aborts(self):
        # a generator that can only produce duplicates exhausts the retry cap
        class ConstantRng:
            def uniform(self, low, high, size=None):
                return np.zeros(size)

            def integers(self, low, high, size=None):
                return 2  # forces K = 2, so duplicate DOAs are fatal

        config = ExperimentConfig()
        with pytest.raises(RuntimeError, match="distinct DOAs"):
            draw_scenario(config, ConstantRng(), snr_db=5.0)


class TestTrials:
    def test_shapes_and_determinism(self):
        config = tiny_config()
        t1 = generate_trials(config, phase="test", num=40, snr_db=5.0,
                             want=("eigen", "fbss", "cov"))
        t2 = generate_trials(config, phase="test", num=40, snr_db=5.0,
                             want=("eigen", "fbss", "cov"))
        assert t1.eigen.shape == (40, 10)
        assert t1.fbss.shape == (40, 5)
        assert t1.cov.shape == (40, 200)
        assert np.array_equal(t1.eigen, t2.eigen)
        assert np.array_equal(t1.labels, t2.labels)

    def test_train_and_test_streams_disjoint(self):
        config = tiny_config()
        tr = generate_trials(config, phase="train", num=20, snr_db=5.0, want=("eigen",))
        te = generate_trials(config, phase="test", num=20, snr_db=5.0, want=("eigen",))
        assert not np.array_equal(tr.eigen, te.eigen)

    def test_feature_selection_normalization(self):
        config = tiny_config()
        t = generate_trials(config, phase="test", num=10, snr_db=5.0,
                            want=("eigen", "cov"))
        eig_norm = select_features(t, "ecnet", None, normalize=True)
        assert np.allclose(eig_norm.sum(axis=1), 1.0)
        cov_norm = select_features(t, "covnet", None, normalize=True)
        m = 10
        diag = np.arange(m) * m + np.arange(m)
        assert np.allclose(cov_norm[:, diag].sum(axis=1), 1.0)

    def test_smoothed_covnet_features_rejected(self):
        config = tiny_config()
        t = generate_trials(config, phase="test", num=5, snr_db=5.0, want=("fbss", "cov"))
        with pytest.raises(ValueError, match="covnet has no smoothed form"):
            select_features(t, "covnet", 5)

    def test_missing_feature_kind_rejected(self):
        config = tiny_config()
        t = generate_trials(config, phase="test", num=5, snr_db=5.0, want=("eigen",))
        with pytest.raises(ValueError):
            select_features(t, "covnet", None)

    def test_simulation_bits_pinned(self):
        # One SHA-256 over labels and eigen/fbss/cov bytes of small trial
        # sets: non-coherent and coherent draws, noise-free and finite SNR,
        # K=0 included.  A refactor of the seed -> covariance path must
        # leave every bit in place.
        config = ExperimentConfig(num_antennas=6, num_snapshots=8, max_sources=3,
                                  subarray_size=4, seed=7)
        digest = hashlib.sha256()
        labels = []
        for ai, (coherent, snr_db) in enumerate(
                [(False, math.inf), (False, 3.0), (True, math.inf), (True, 3.0),
                 (True, (0.0, 20.0))]):
            t = generate_trials(config, phase="test", num=24, snr_db=snr_db,
                                coherent=coherent, axis_index=ai,
                                want=("eigen", "fbss", "cov"))
            labels.append(t.labels)
            for array in (t.labels, t.eigen, t.fbss, t.cov):
                digest.update(np.ascontiguousarray(array).tobytes())
        assert all(0 in lab for lab in labels)
        assert digest.hexdigest() == SIMULATION_DIGEST

    def test_blocks_equal_one_row_features(self):
        # Three feature blocks, the last one short: every row is what
        # make_features gives for the covariance of that trial's own
        # stream, drawn one trial at a time.  The noise-free sets are
        # rank-deficient, so the PSD clamp fires there.
        config = ExperimentConfig(num_antennas=4, num_snapshots=6, max_sources=3,
                                  subarray_size=2, seed=3)
        num = 2 * _FEATURE_BLOCK + 37
        for ai, (coherent, snr_db) in enumerate(
                [(False, math.inf), (False, 3.0), (True, math.inf), (True, (0.0, 20.0))]):
            t = generate_trials(config, phase="test", num=num, snr_db=snr_db,
                                coherent=coherent, axis_index=ai,
                                want=("eigen", "fbss", "cov"))
            one = replace(config, coherent=coherent)
            for i in range(num):
                rng = _rng(config.seed, ROLE_TEST, ai, i)
                scenario = draw_scenario(one, rng, snr_db=snr_db)
                r = sample_covariance(generate_snapshots(scenario, rng))
                assert t.labels[i] == scenario.num_sources
                for feature in ("eigen", "fbss", "cov"):
                    expected = make_features(r[np.newaxis], feature, 2)[0]
                    assert np.array_equal(getattr(t, feature)[i], expected)
            if snr_db == math.inf:
                assert ((t.eigen[:, 0] > 0.0) & (t.eigen[:, -1] == 0.0)).any()

    def test_empty_trial_set(self):
        t = generate_trials(tiny_config(), phase="test", num=0, snr_db=5.0,
                            want=("eigen", "fbss", "cov"))
        assert t.labels.shape == (0,) and t.eigen.shape == (0, 10)
        assert t.fbss.shape == (0, 5) and t.cov.shape == (0, 200)


def write_trials(config, path, num, feature="eigen"):
    """Draws ``num`` training trials and writes their features as gen-data does."""
    trials = generate_trials(config, phase="train", num=num,
                             snr_db=tuple(config.train_snr_db), want=(feature,))
    write_dataset(path, getattr(trials, feature), trials.labels, config=config)
    return trials


class TestDataset:
    def test_generate_dataset_counts_and_labels(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "data.csv"
        trials = write_trials(config, path, 50)
        feats, labels, _ = read_dataset(path)
        assert feats.shape == (50, 10) and labels.shape == (50,)
        assert np.all((0 <= labels) & (labels <= config.max_sources))
        assert np.any(labels == 0)  # noise-only draws are labelled 0
        assert np.array_equal(labels, trials.labels)

    def test_file_round_trip(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "data.csv"
        write_trials(config, path, 25)
        feats, labels, info = read_dataset(path)
        assert feats.shape == (25, 10)
        assert labels.shape == (25,)
        assert info["M"] == "10"
        assert info["N"] == "20"
        assert info["feature_dim"] == "10"
        assert info["coherence"] == "non-coherent"
        assert info["seed"] == "11"

    def test_file_values_lossless(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "data.csv"
        trials = write_trials(config, path, 10)
        feats, labels, _ = read_dataset(path)
        assert np.array_equal(feats, trials.eigen)
        assert np.array_equal(labels, trials.labels)


class TestTrainDetector:
    def test_zero_epochs_equals_initialization(self):
        config = tiny_config(epochs=0)
        trials = generate_trials(config, phase="train", num=30,
                                 snr_db=tuple(config.train_snr_db), want=("eigen",))
        det, history = train_detector(config, "ecnet", trials.eigen, trials.labels)
        assert history == []
        spec = DetectorSpec("ecnet", config.num_antennas)
        reference = build_detector(spec, _rng(config.seed, ROLE_INIT, 0,
                                              NET_KINDS.index("ecnet")))
        for trained, fresh in zip(det.net.layers, reference.layers):
            assert np.array_equal(trained.weights, fresh.weights)
            assert np.array_equal(trained.bias, fresh.bias)

    def test_training_bits_pinned(self):
        # One SHA-256 over the trained weight/bias bytes and loss histories
        # of ERNet, ECNet, CovNet and fbss-ERNet.  300 trials at batch 128
        # end each epoch in a short 44-row batch.  A refactor of the
        # training core must leave every bit in place.
        config = tiny_config(num_train=300, epochs=3, seed=5)
        trials = generate_trials(config, phase="train", num=300,
                                 snr_db=tuple(config.train_snr_db),
                                 want=("eigen", "fbss", "cov"))
        digest = hashlib.sha256()
        for kind, m0 in (("ernet", None), ("ecnet", None), ("covnet", None),
                         ("ernet", config.subarray_size)):
            feats = select_features(trials, kind, m0)
            det, history = train_detector(config, kind, feats, trials.labels,
                                          subarray_size=m0)
            for lay in det.net.layers:
                digest.update(lay.weights.tobytes())
                digest.update(lay.bias.tobytes())
            digest.update(np.array(history).tobytes())
        assert digest.hexdigest() == TRAINING_DIGEST

    def test_smoothed_covnet_rejected_before_training(self):
        config = tiny_config()
        with pytest.raises(ValueError, match="covnet has no smoothed form"):
            train_detector(config, "covnet", np.zeros((4, 50)), np.zeros(4, dtype=int),
                           subarray_size=5)

    def test_classical_kind_rejected(self):
        config = tiny_config()
        with pytest.raises(ValueError):
            train_detector(config, "aic", np.zeros((4, 10)), np.zeros(4, dtype=int))

    def test_full_protocol_loss_drops_tenfold(self, default_point):
        history = default_point.histories["ernet"]
        assert history[-1] <= history[0] / 10.0

    def test_full_protocol_cce_beats_uniform(self, default_point):
        history = default_point.histories["ecnet"]
        assert history[-1] < math.log(10.0)


class TestSweeps:
    def test_snapshot_sweep_structure(self):
        config = tiny_config(detectors=("ernet", "aic", "mdl"))
        result = sweep_snapshots(config)
        assert result.axis == (5.0, 10.0)
        assert result.detectors == ("ernet", "aic", "mdl")
        for name in result.detectors:
            vals = result.accuracy[name]
            assert len(vals) == 2
            assert all(0.0 <= v <= 1.0 for v in vals)
        assert result.num_trials == config.num_test

    def test_snr_sweep_deterministic(self):
        config = tiny_config()
        r1 = sweep_snr_noncoherent(config)
        r2 = sweep_snr_noncoherent(config)
        assert r1 == r2

    def test_coherent_sweep_uses_smoothed_names(self):
        config = tiny_config(coherent=True, detectors=("ecnet", "mdl"))
        result = sweep_snr_coherent(config)
        assert result.detectors == ("fbss-ecnet", "fbss-mdl")

    def test_coherent_sweep_rejects_covnet_before_drawing(self, monkeypatch):
        import sourcecount.experiments as experiments

        def no_trials(*args, **kwargs):
            raise AssertionError("trials drawn before the detector set was checked")

        monkeypatch.setattr(experiments, "generate_trials", no_trials)
        config = tiny_config(coherent=True, detectors=("ernet", "covnet", "mdl"))
        with pytest.raises(ValueError, match="covnet has no smoothed form"):
            sweep_snr_coherent(config)

    def test_sweep_bits_pinned(self):
        # One SHA-256 over four tiny sweeps: snapshots (retrained per N)
        # and the coherent SNR sweep with their default detectors, the
        # non-coherent SNR sweep, and a coherent two-detector subset.
        digest = hashlib.sha256()
        for sweep, config in (
                (sweep_snapshots, tiny_config(detectors=None)),
                (sweep_snr_noncoherent, tiny_config()),
                (sweep_snr_coherent, tiny_config(max_sources=4, detectors=None)),
                (sweep_snr_coherent, tiny_config(max_sources=4, detectors=("ecnet", "mdl")))):
            digest.update(repr(sweep(config)).encode())
        assert digest.hexdigest() == SWEEP_DIGEST

    def test_paired_evaluation(self):
        # classical detectors see exactly the trials the networks see
        config = tiny_config()
        trials = generate_trials(config, phase="test", num=30, snr_db=20.0,
                                 want=("eigen",))
        accs = evaluate_detectors([ClassicalDetector("aic"), ClassicalDetector("mdl")],
                                  trials)
        assert set(accs) == {"aic", "mdl"}

    def test_snr_sweep_high_end_beats_low_end(self):
        # full training protocol, reduced trial count: accuracy at 40 dB
        # must not fall below the 0 dB point by more than the Monte-Carlo
        # margin for any detector
        config = ExperimentConfig(seed=4, num_test=1000, snr_axis_db=(0.0, 40.0))
        result = sweep_snr_noncoherent(config)
        for name in result.detectors:
            low, high = result.accuracy[name]
            assert high >= low - 0.02, f"{name}: {high:.3f} at 40dB vs {low:.3f} at 0dB"


class TestCsv:
    def synthetic_result(self):
        axis = tuple(float(v) for v in range(0, 45, 5))
        detectors = ("ernet", "ecnet", "aic", "mdl")
        rng = np.random.default_rng(0)
        accuracy = {d: tuple(float(a) for a in rng.uniform(0.3, 1.0, len(axis)))
                    for d in detectors}
        return SweepResult(axis=axis, detectors=detectors, accuracy=accuracy,
                           num_trials=2000, seed=42)

    def test_round_trip(self, tmp_path):
        result = self.synthetic_result()
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        assert read_csv(path) == result

    def test_row_count_and_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_csv(self.synthetic_result(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "axis,detector,accuracy,n_trials,seed"
        assert len(lines) == 1 + 9 * 4  # 4 detectors x 9 SNRs -> 36 data rows

    def test_empty_sweep_header_only(self, tmp_path):
        empty = SweepResult(axis=(), detectors=(), accuracy={}, num_trials=0, seed=0)
        path = tmp_path / "empty.csv"
        emit_csv(empty, path)
        assert path.read_text(encoding="utf-8") == "axis,detector,accuracy,n_trials,seed\n"

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_csv(self.synthetic_result(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestBench:
    def test_table_closed_forms(self):
        rows = {r.method: r for r in bench_complexity(ExperimentConfig(), timing_trials=50)}
        assert rows["ernet"].table.mul_div == 88
        assert rows["ernet"].table.add_sub == 17
        assert rows["ecnet"].table.mul_div == 160
        assert rows["ecnet"].table.add_sub == 26
        assert rows["aic"].table.mul_div == 170
        assert rows["mdl"].table.mul_div == 170
        assert rows["aic"].table.add_sub == 55
        assert rows["aic"].table.log == 20
        assert rows["mdl"].table.log == 10

    def test_instrumented_and_timed(self):
        rows = bench_complexity(ExperimentConfig(), timing_trials=50)
        for row in rows:
            assert row.measured.mul_div > 0
            assert row.seconds_per_decision > 0.0
        measured = {r.method: r.measured for r in rows}
        # the actual ERNet forward pass costs every layer's products
        assert measured["ernet"].mul_div == 10 * 8 + 8 * 8 + 8 * 1

    def test_network_counts_exclude_softmax(self):
        rows = {r.method: r for r in bench_complexity(ExperimentConfig(), timing_trials=10)}
        # ECNet decision: three matmuls plus argmax comparisons, no exp calls
        assert rows["ecnet"].measured.log == 0
        assert rows["ecnet"].measured.compare == 8 + 8 + 9  # relus + argmax


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        config = tiny_config()
        path = write_manifest(tmp_path, config, "unit-test", extra={"note": "x"})
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["command"] == "unit-test"
        assert doc["seed"] == config.seed
        assert len(doc["config_sha256"]) == 64
        assert "numpy" in doc["versions"]
        assert "sourcecount" in doc["versions"]
        assert doc["note"] == "x"
        assert doc["config"]["num_train"] == 200
