"""Tests for feature extraction, label encoding and detector assembly."""

import math
import warnings

import numpy as np
import pytest

from sourcecount.detectors import (
    Detector,
    DetectorSpec,
    build_detector,
    load_detector,
    make_feature_cov,
    make_feature_eigen,
    make_feature_fbss,
    normalize_features,
    save_detector,
)
from sourcecount.experiments import _targets
from sourcecount.linalg import exchange_conjugate
from sourcecount.network import Layer, Network, TrainConfig
from sourcecount.signal_model import Scenario, generate_snapshots, sample_covariance


def constant_output_net(values, activation="linear", in_dim=4):
    """Single layer with zero weights: output is the bias vector."""
    out = len(values)
    return Network([Layer(np.zeros((out, in_dim)), np.array(values, dtype=float),
                          activation)])


def decide_one(net, kind="ecnet", num_antennas=10):
    """Decision of ``net`` on one all-zero feature row."""
    det = Detector(DetectorSpec(kind, num_antennas), net)
    return int(det.decide_batch(np.zeros((1, net.input_dim)))[0])


def one_hot(k, num_classes):
    """ECNet training target for true count ``k``."""
    return _targets(DetectorSpec("ecnet", num_classes), np.array([k]))[0]


def random_hermitian_psd(rng, m):
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (x @ x.conj().T) / m


class TestFeatureEigen:
    def test_identity(self):
        assert np.allclose(make_feature_eigen(np.eye(6, dtype=complex)), np.ones(6))

    def test_diagonal(self):
        feat = make_feature_eigen(np.diag([5.0, 1.0, 1.0]).astype(complex))
        assert np.allclose(feat, [5.0, 1.0, 1.0])

    def test_noise_free_rank(self):
        sc = Scenario(10, 5000, 2, (-0.5, 0.8), math.inf)
        r = sample_covariance(generate_snapshots(sc, np.random.default_rng(0)))
        feat = make_feature_eigen(r)
        assert int(np.sum(feat > 1e-6 * feat[0])) == 2
        assert np.all(feat[2:] <= 1e-9 * feat[0])

    def test_descending_and_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            feat = make_feature_eigen(random_hermitian_psd(rng, 7))
            assert np.all(feat >= 0.0)
            assert np.all(np.diff(feat) <= 0.0)


class TestFeatureFbss:
    def test_full_subarray_reduces_to_eigen_path(self):
        rng = np.random.default_rng(2)
        r = random_hermitian_psd(rng, 6).real.astype(complex)  # real symmetric
        feat = make_feature_fbss(r, 6)
        expected = make_feature_eigen(0.5 * (r + exchange_conjugate(r)))
        assert np.allclose(feat, expected)

    def test_identity(self):
        assert np.allclose(make_feature_fbss(np.eye(8, dtype=complex), 5), np.ones(5))

    def test_coherent_rank_restoration(self):
        sc = Scenario(10, 500, 2, (0.3, 1.1), math.inf, {1: 0})
        r = sample_covariance(generate_snapshots(sc, np.random.default_rng(3)))
        feat = make_feature_fbss(r, 5)
        assert int(np.sum(feat > 1e-6 * feat[0])) >= 2


class TestFeatureCov:
    def test_zero_matrix(self):
        assert np.array_equal(make_feature_cov(np.zeros((4, 4))), np.zeros(32))

    def test_identity_layout(self):
        feat = make_feature_cov(np.eye(3, dtype=complex))
        real, imag = feat[:9], feat[9:]
        assert real.sum() == 3.0
        assert np.array_equal(real.reshape(3, 3), np.eye(3))
        assert np.array_equal(imag, np.zeros(9))

    def test_round_trips_to_matrix(self):
        rng = np.random.default_rng(4)
        r = random_hermitian_psd(rng, 5)
        feat = make_feature_cov(r)
        rebuilt = feat[:25].reshape(5, 5) + 1j * feat[25:].reshape(5, 5)
        assert np.allclose(rebuilt, r)


class TestOneHot:
    """One-hot training targets of the classification heads."""

    def test_zero_class(self):
        v = one_hot(0, 10)
        assert v[0] == 1.0 and v.sum() == 1.0

    def test_class_five(self):
        v = one_hot(5, 10)
        assert v[5] == 1.0 and v.sum() == 1.0

    def test_random_valid_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(0, 10))
            assert one_hot(k, 10).sum() == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(10, 10)
        with pytest.raises(ValueError):
            one_hot(-1, 10)


class TestDecisions:
    def test_ernet_rounds_half_up_and_clamps(self):
        for raw, expected in ((2.4, 2), (-0.3, 0), (2.5, 3), (14.2, 9), (8.5, 9)):
            net = constant_output_net([raw])
            assert decide_one(net, "ernet") == expected

    def test_ernet_always_in_range(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            net = constant_output_net([float(rng.uniform(-100, 100))])
            assert 0 <= decide_one(net, "ernet") <= 9

    def test_ecnet_argmax(self):
        logits = np.zeros(10)
        logits[3] = 5.0
        assert decide_one(constant_output_net(logits, "softmax")) == 3

    def test_ecnet_uniform_tie_breaks_low(self):
        assert decide_one(constant_output_net(np.zeros(6), "softmax")) == 0

    def test_ecnet_picks_peak(self):
        logits = np.log(np.array([0.1, 0.7, 0.2, 0.0001]))
        assert decide_one(constant_output_net(logits, "softmax")) == 1

    def test_ecnet_invariant_to_monotone_logit_maps(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            logits = rng.standard_normal(8)
            base = decide_one(constant_output_net(logits, "softmax"))
            for transform in (lambda z: 3.0 * z + 1.0, np.tanh, lambda z: z ** 3):
                mapped = decide_one(constant_output_net(transform(logits), "softmax"))
                assert mapped == base


class TestBuildDetector:
    def test_ernet_architecture(self):
        spec = DetectorSpec("ernet", 10)
        net = build_detector(spec, np.random.default_rng(0))
        assert net.layer_sizes == [10, 8, 8, 1]
        assert [l.activation for l in net.layers] == ["relu", "relu", "linear"]

    def test_ecnet_architecture(self):
        net = build_detector(DetectorSpec("ecnet", 10), np.random.default_rng(0))
        assert net.layer_sizes == [10, 8, 8, 10]
        assert net.layers[-1].activation == "softmax"

    def test_covnet_architecture(self):
        net = build_detector(DetectorSpec("covnet", 10), np.random.default_rng(0))
        assert net.layer_sizes == [200, 8, 8, 10]

    def test_fbss_input_dimension(self):
        net = build_detector(DetectorSpec("ernet", 10, subarray_size=5),
                             np.random.default_rng(0))
        assert net.layer_sizes == [5, 8, 8, 1]

    def test_initialization_contract(self):
        net = build_detector(DetectorSpec("ecnet", 10), np.random.default_rng(1))
        for lay in net.layers:
            assert np.array_equal(lay.bias, np.zeros_like(lay.bias))
            bound = 2.0 / math.sqrt(lay.in_dim)
            assert np.all(np.abs(lay.weights) <= bound)

    def test_seeded_build_is_deterministic(self):
        spec = DetectorSpec("ecnet", 10)
        n1 = build_detector(spec, np.random.default_rng(3))
        n2 = build_detector(spec, np.random.default_rng(3))
        for l1, l2 in zip(n1.layers, n2.layers):
            assert np.array_equal(l1.weights, l2.weights)


class TestDetectorWrapper:
    def test_estimate_pipeline_runs(self):
        spec = DetectorSpec("ecnet", 10)
        det = Detector(spec, build_detector(spec, np.random.default_rng(2)))
        sc = Scenario(10, 20, 3, (0.1, 0.8, -1.2), 10.0)
        r = sample_covariance(generate_snapshots(sc, np.random.default_rng(0)))
        assert 0 <= det.estimate(r) <= 9

    def test_fbss_detector_uses_smoothed_features(self):
        spec = DetectorSpec("ernet", 10, subarray_size=5)
        det = Detector(spec, build_detector(spec, np.random.default_rng(2)))
        sc = Scenario(10, 20, 2, (0.1, 0.8), 10.0)
        r = sample_covariance(generate_snapshots(sc, np.random.default_rng(0)))
        assert det.net.input_dim == 5
        assert det.estimate(r) == det.decide_batch(make_feature_fbss(r, 5)[np.newaxis])[0]
        assert spec.name == "fbss-ernet"

    def test_normalized_features_sum_to_one(self):
        rng = np.random.default_rng(8)
        rows = np.stack([make_feature_eigen(random_hermitian_psd(rng, 10)) for _ in range(3)])
        assert np.allclose(normalize_features(rows, "eigen").sum(axis=1), 1.0)
        r = random_hermitian_psd(rng, 10)
        cov = normalize_features(make_feature_cov(r)[np.newaxis], "cov")[0]
        assert np.trace(cov[:100].reshape(10, 10)) == pytest.approx(1.0)

    def test_decide_batch_matches_scalar_decide(self):
        rng = np.random.default_rng(9)
        for kind in ("ernet", "ecnet"):
            spec = DetectorSpec(kind, 10)
            det = Detector(spec, build_detector(spec, rng))
            feats = rng.uniform(0.0, 5.0, size=(16, 10))
            batch = det.decide_batch(feats)
            one_row = [det.decide_batch(f[np.newaxis])[0] for f in feats]
            assert np.array_equal(batch, one_row)

    @pytest.mark.parametrize("kind, subarray_size", [
        ("ernet", None), ("ecnet", None), ("covnet", None), ("ernet", 5), ("ecnet", 5)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_covariance_rejected(self, kind, subarray_size, bad):
        spec = DetectorSpec(kind, 10, subarray_size=subarray_size)
        det = Detector(spec, build_detector(spec, np.random.default_rng(2)))
        r = np.eye(10, dtype=complex)
        r[2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite entries"):
                det.estimate(r)

    @pytest.mark.parametrize("kind", ["ernet", "ecnet", "covnet"])
    def test_non_finite_output_rejected(self, kind):
        spec = DetectorSpec(kind, 10)
        det = Detector(spec, build_detector(spec, np.random.default_rng(3)))
        for bad in (math.nan, math.inf, -math.inf):
            feats = np.ones((3, spec.feature_size))
            feats[1, 0] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match="network output is not finite"):
                    det.decide_batch(feats)

    def test_covnet_has_no_smoothed_form(self, tmp_path):
        with pytest.raises(ValueError, match="covnet has no smoothed form"):
            DetectorSpec("covnet", 10, subarray_size=5)
        spec = DetectorSpec("ecnet", 10, subarray_size=5)
        path = tmp_path / "det.json"
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(4))), path)
        path.write_text(path.read_text().replace('"ecnet"', '"covnet"'))
        with pytest.raises(ValueError, match="covnet has no smoothed form"):
            load_detector(path)

    def test_save_load_round_trip(self, tmp_path):
        spec = DetectorSpec("ecnet", 10, subarray_size=5)
        det = Detector(spec, build_detector(spec, np.random.default_rng(4)))
        path = tmp_path / "det.json"
        save_detector(det, path)
        loaded = load_detector(path)
        assert loaded.spec == spec
        for l1, l2 in zip(det.net.layers, loaded.net.layers):
            assert np.array_equal(l1.weights, l2.weights)

    @pytest.mark.parametrize("kind", ["ernet", "ecnet", "covnet"])
    def test_model_file_with_loss_entry_still_loads(self, tmp_path, kind):
        # Files written before the loss followed the output layer carry a
        # "loss" entry in train_config; it is read past and changes nothing.
        spec = DetectorSpec(kind, 6)
        config = TrainConfig(learning_rate=0.003, epochs=7, seed=11)
        det = Detector(spec, build_detector(spec, np.random.default_rng(5)), config)
        path = tmp_path / "new.json"
        save_detector(det, path)
        text = path.read_text(encoding="utf-8")
        assert '"loss"' not in text
        old = tmp_path / "old.json"
        old.write_text(text.replace('  "train_config": {\n',
                                    '  "train_config": {\n    "loss": "cce",\n'),
                       encoding="utf-8")
        feats = np.random.default_rng(6).uniform(0.0, 3.0, (20, spec.feature_size))
        for loaded in (load_detector(path), load_detector(old)):
            assert loaded.spec == spec
            assert loaded.train_config == config
            assert np.array_equal(loaded.net.params, det.net.params)
            assert np.array_equal(loaded.decide_batch(feats), det.decide_batch(feats))
