"""Tests for feature extraction, label encoding and detector assembly."""

import dataclasses
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sourcecount.detectors import (
    ClassicalDetector,
    Detector,
    DetectorSpec,
    _layer_plan,
    build_detector,
    feature_kind,
    load_detector,
    make_features,
    normalize_features,
    save_detector,
    write_json,
)
from sourcecount.experiments import ExperimentConfig, train_detector
from sourcecount.network import Layer, Network, TrainConfig, train
from sourcecount.network import _backward_from_cache, _layer_views
from sourcecount.signal_model import generate_snapshots, sample_covariance


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
    """ECNet training target for true count ``k``: a training step's output
    delta for a one-row batch of zero predictions is this row, negated."""
    net = constant_output_net(np.zeros(num_classes), "softmax")
    deltas = [np.empty((1, num_classes))]
    _backward_from_cache(net, [np.zeros((1, net.input_dim)), np.zeros((1, num_classes))],
                         np.array([k]), _layer_views(net, np.empty_like(net.params)), deltas)
    return -deltas[0][0]


def one_row(r_hat, feature, subarray_size=None):
    """The feature row of one covariance: the one-matrix case of make_features."""
    return make_features(np.asarray(r_hat)[np.newaxis], feature, subarray_size)[0]


def random_hermitian_psd(rng, m):
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (x @ x.conj().T) / m


class TestFeatureEigen:
    def test_identity(self):
        assert np.allclose(one_row(np.eye(6, dtype=complex), "eigen"), np.ones(6))

    def test_diagonal(self):
        feat = one_row(np.diag([5.0, 1.0, 1.0]).astype(complex), "eigen")
        assert np.allclose(feat, [5.0, 1.0, 1.0])

    def test_noise_free_rank(self):
        r = sample_covariance(generate_snapshots(10, 5000, (-0.5, 0.8), (), math.inf,
                                                 np.random.default_rng(0)))
        feat = one_row(r, "eigen")
        assert int(np.sum(feat > 1e-6 * feat[0])) == 2
        assert np.all(feat[2:] <= 1e-9 * feat[0])

    def test_descending_and_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            feat = one_row(random_hermitian_psd(rng, 7), "eigen")
            assert np.all(feat >= 0.0)
            assert np.all(np.diff(feat) <= 0.0)


class TestFeatureFbss:
    def test_full_subarray_reduces_to_eigen_path(self):
        rng = np.random.default_rng(2)
        r = random_hermitian_psd(rng, 6).real.astype(complex)  # real symmetric
        feat = one_row(r, "fbss", 6)
        expected = one_row(0.5 * (r + np.flip(r, (-2, -1)).conj()), "eigen")
        assert np.allclose(feat, expected)

    def test_identity(self):
        assert np.allclose(one_row(np.eye(8, dtype=complex), "fbss", 5), np.ones(5))

    def test_coherent_rank_restoration(self):
        r = sample_covariance(generate_snapshots(10, 500, (0.3, 1.1), (0,), math.inf,
                                                 np.random.default_rng(3)))
        feat = one_row(r, "fbss", 5)
        assert int(np.sum(feat > 1e-6 * feat[0])) >= 2


class TestFeatureStack:
    def test_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(10)
        covs = np.stack([random_hermitian_psd(rng, 6) for _ in range(5)])
        for feature, m0, width in (("eigen", None, 6), ("fbss", 3, 3), ("cov", None, 72)):
            rows = make_features(covs, feature, m0)
            assert rows.shape == (5, width) and rows.dtype == float
            for i, r in enumerate(covs):
                assert np.array_equal(rows[i], one_row(r, feature, m0))

    def test_rejects_a_single_matrix(self):
        for feature in ("eigen", "fbss", "cov"):
            with pytest.raises(ValueError, match="stack"):
                make_features(np.eye(4, dtype=complex), feature, 2)
            with pytest.raises(ValueError, match="stack"):
                make_features(np.ones((2, 4, 3), dtype=complex), feature, 2)

    def test_empty_stack_gives_empty_rows(self):
        for feature, m0, width in (("eigen", None, 10), ("fbss", 5, 5), ("cov", None, 200)):
            rows = make_features(np.zeros((0, 10, 10), dtype=complex), feature, m0)
            assert rows.shape == (0, width) and rows.dtype == float


    @pytest.mark.parametrize("feature", ["eigne", "smoothed", ""])
    def test_unknown_feature_rejected(self, feature):
        with pytest.raises(ValueError, match="known kinds are eigen, fbss, cov"):
            make_features(np.eye(4, dtype=complex)[np.newaxis], feature, 2)

    def test_fbss_needs_a_subarray_size(self):
        with pytest.raises(ValueError, match="fbss feature needs a sub-array size"):
            make_features(np.eye(4, dtype=complex)[np.newaxis], "fbss")


class TestFeatureCov:
    def test_zero_matrix(self):
        assert np.array_equal(one_row(np.zeros((4, 4)), "cov"), np.zeros(32))

    def test_identity_layout(self):
        feat = one_row(np.eye(3, dtype=complex), "cov")
        real, imag = feat[:9], feat[9:]
        assert real.sum() == 3.0
        assert np.array_equal(real.reshape(3, 3), np.eye(3))
        assert np.array_equal(imag, np.zeros(9))

    def test_round_trips_to_matrix(self):
        rng = np.random.default_rng(4)
        r = random_hermitian_psd(rng, 5)
        feat = one_row(r, "cov")
        rebuilt = feat[:25].reshape(5, 5) + 1j * feat[25:].reshape(5, 5)
        assert np.allclose(rebuilt, r)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_entry_rejected(self, bad):
        covs = np.stack([np.eye(4, dtype=complex)] * 3)
        covs[1, 2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite entries"):
                make_features(covs, "cov")


    @pytest.mark.parametrize("asym", [1e-3, 1e300])
    def test_non_hermitian_entry_rejected(self, asym):
        covs = np.stack([np.eye(4, dtype=complex)] * 3)
        covs[1, 0, 2] = asym
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"matrix is not Hermitian (max asymmetry {asym:.3e})") + "$"):
                make_features(covs, "cov")


class TestCountsAreIntegers:
    @pytest.mark.parametrize("subarray_size", [-3, 0, 2.5, True])
    def test_classical_subarray_size_rejected(self, subarray_size):
        with pytest.raises(ValueError, match="subarray_size"):
            ClassicalDetector("mdl", subarray_size)

    def test_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown detector kind 'foo'$"):
            DetectorSpec("foo", 10)

    @pytest.mark.parametrize("field, kwargs", [
        ("subarray_size", dict(num_antennas=10, subarray_size=2.5)),
        ("subarray_size", dict(num_antennas=10, subarray_size=True)),
        ("num_antennas", dict(num_antennas=10.5)),
        ("num_antennas", dict(num_antennas=10.0)),
        ("normalize", dict(num_antennas=10, normalize="no")),
        ("normalize", dict(num_antennas=10, normalize=1))])
    def test_spec_rejects_mistyped_fields(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            DetectorSpec("ernet", **kwargs)

    @pytest.mark.parametrize("kind", ["aic", "mdl"])
    def test_classical_needs_two_smoothed_eigenvalues(self, kind):
        # A 1 x 1 smoothed covariance leaves AIC/MDL one eigenvalue; the
        # nets read it as a one-entry feature.
        for check in (lambda: feature_kind(kind, 1), lambda: ClassicalDetector(kind, 1)):
            with pytest.raises(ValueError, match=f"^subarray_size must be at least 2 for {kind}"):
                check()
        assert feature_kind(kind, 2) == "fbss" and feature_kind(kind, None) == "eigen"
        assert feature_kind("ernet", 1) == feature_kind("ecnet", 1) == "fbss"

    def test_numpy_integers_accepted(self):
        assert ClassicalDetector("mdl", np.int64(5)).name == "fbss-mdl"
        assert DetectorSpec("ernet", np.int64(10), np.int32(5)).feature_size == 5


class TestOneHot:
    """One-hot training targets of the classification heads, which train on
    the counts as class labels."""

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
        for k in (10, -1):
            with pytest.raises(ValueError, match=r"^labels must be integer counts in \[0, 9\]$"):
                train_detector(ExperimentConfig(epochs=1), "ecnet", np.ones((1, 10)),
                               np.array([k]))
            net = build_detector(DetectorSpec("ecnet", 10), np.random.default_rng(0))
            with pytest.raises(ValueError, match=r"^softmax labels must be integer classes in "
                                                 r"\[0, 9\]$"):
                train(net, np.ones((1, 10)), np.array([k]), TrainConfig(epochs=1))


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


def layer_sizes(net):
    return [net.input_dim] + [lay.out_dim for lay in net.layers]


class TestBuildDetector:
    def test_ernet_architecture(self):
        spec = DetectorSpec("ernet", 10)
        net = build_detector(spec, np.random.default_rng(0))
        assert layer_sizes(net) == [10, 8, 8, 1]
        assert [l.activation for l in net.layers] == ["relu", "relu", "linear"]

    def test_ecnet_architecture(self):
        net = build_detector(DetectorSpec("ecnet", 10), np.random.default_rng(0))
        assert layer_sizes(net) == [10, 8, 8, 10]
        assert net.layers[-1].activation == "softmax"

    def test_covnet_architecture(self):
        net = build_detector(DetectorSpec("covnet", 10), np.random.default_rng(0))
        assert layer_sizes(net) == [200, 8, 8, 10]

    def test_fbss_input_dimension(self):
        net = build_detector(DetectorSpec("ernet", 10, subarray_size=5),
                             np.random.default_rng(0))
        assert layer_sizes(net) == [5, 8, 8, 1]

    def test_initialization_contract(self):
        net = build_detector(DetectorSpec("ecnet", 10), np.random.default_rng(1))
        for lay in net.layers:
            assert np.array_equal(lay.bias, np.zeros_like(lay.bias))
            bound = 2.0 / math.sqrt(lay.in_dim)
            assert np.all(np.abs(lay.weights) <= bound)

    @pytest.mark.parametrize("kind, subarray_size", [
        ("ernet", None), ("ecnet", None), ("covnet", None), ("ernet", 5), ("ecnet", 3)])
    def test_build_follows_the_layer_plan(self, kind, subarray_size):
        spec = DetectorSpec(kind, 10, subarray_size)
        net = build_detector(spec, np.random.default_rng(0))
        assert [(l.in_dim, l.out_dim, l.activation) for l in net.layers] == _layer_plan(spec)

    def test_hidden_sizes_are_fixed(self):
        assert DetectorSpec.hidden == (8, 8)
        assert [f.name for f in dataclasses.fields(DetectorSpec)] == [
            "kind", "num_antennas", "subarray_size", "normalize"]
        with pytest.raises(TypeError):
            DetectorSpec("ernet", 10, hidden=(4, 4))

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
        r = sample_covariance(generate_snapshots(10, 20, (0.1, 0.8, -1.2), (), 10.0,
                                                 np.random.default_rng(0)))
        assert 0 <= det.estimate(r) <= 9

    @pytest.mark.parametrize("kind, subarray_size", [
        ("ernet", None), ("ecnet", None), ("covnet", None), ("ernet", 2), ("ecnet", 2)])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_estimate_rejects_a_non_hermitian_covariance(self, kind, subarray_size, normalize):
        # Every kind screens the covariance as hermitian_eig does, CovNet too,
        # though its features are the entries themselves.
        r = np.eye(4, dtype=complex)
        r[0, 1] = 5.0
        spec = DetectorSpec(kind, 4, subarray_size, normalize)
        det = Detector(spec, build_detector(spec, np.random.default_rng(0)))
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(max asymmetry "):
            det.estimate(r)

    def test_fbss_detector_uses_smoothed_features(self):
        spec = DetectorSpec("ernet", 10, subarray_size=5)
        det = Detector(spec, build_detector(spec, np.random.default_rng(2)))
        r = sample_covariance(generate_snapshots(10, 20, (0.1, 0.8), (), 10.0,
                                                 np.random.default_rng(0)))
        assert det.net.input_dim == 5
        assert det.estimate(r) == det.decide_batch(one_row(r, "fbss", 5)[np.newaxis])[0]
        assert spec.name == "fbss-ernet"

    def test_normalized_features_sum_to_one(self):
        rng = np.random.default_rng(8)
        rows = np.stack([one_row(random_hermitian_psd(rng, 10), "eigen") for _ in range(3)])
        assert np.allclose(normalize_features(rows, "eigen").sum(axis=1), 1.0)
        r = random_hermitian_psd(rng, 10)
        cov = normalize_features(one_row(r, "cov")[np.newaxis], "cov")[0]
        assert np.trace(cov[:100].reshape(10, 10)) == pytest.approx(1.0)

    @pytest.mark.parametrize("feature, kind, row", [
        ("cov", "covnet", [1e308] * 4 + [0.0] * 4),  # finite diagonal, overflowing trace
        ("eigen", "ernet", [1e300, -1e300, 1e-10]),  # tiny trace, overflowing quotient
    ], ids=["trace", "quotient"])
    def test_normalize_overflow_rejected(self, feature, kind, row):
        # a normalizing detector divides raw rows in decide_batch as well
        spec = DetectorSpec(kind, 2 if kind == "covnet" else 3, normalize=True)
        det = Detector(spec, build_detector(spec, np.random.default_rng(0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large to normalize"):
                normalize_features(np.array([row]), feature)
            with pytest.raises(ValueError, match="too large to normalize"):
                det.decide_batch(np.array([row]))

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

    @pytest.mark.parametrize("kind", ["ernet", "ecnet"])
    def test_near_overflow_covariance_rejected_by_fbss_detector(self, kind):
        spec = DetectorSpec(kind, 10, subarray_size=5)
        det = Detector(spec, build_detector(spec, np.random.default_rng(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                det.estimate(1e308 * np.eye(10, dtype=complex))

    @pytest.mark.parametrize("kind, subarray_size", [
        ("ernet", None), ("ecnet", None), ("covnet", None), ("ernet", 2), ("ecnet", 2)])
    @pytest.mark.parametrize("size", [3, 5])
    def test_wrong_size_covariance_rejected(self, kind, subarray_size, size):
        # A smoothed detector would otherwise answer for any matrix of size >= M0.
        spec = DetectorSpec(kind, 4, subarray_size=subarray_size)
        det = Detector(spec, build_detector(spec, np.random.default_rng(2)))
        assert 0 <= det.estimate(np.eye(4, dtype=complex)) <= 3
        with pytest.raises(ValueError, match="M x M for M=4"):
            det.estimate(np.eye(size, dtype=complex))

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

    @pytest.mark.parametrize("kind", ["ernet", "ecnet", "covnet"])
    def test_batch_must_be_2d(self, kind):
        spec = DetectorSpec(kind, 10)
        det = Detector(spec, build_detector(spec, np.random.default_rng(3)))
        for feats in (np.ones(spec.feature_size), np.ones((2, 1, spec.feature_size))):
            with pytest.raises(ValueError, match="batch, got shape"):
                det.decide_batch(feats)
        assert det.decide_batch(np.ones((0, spec.feature_size))).shape == (0,)

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
        assert json.loads(path.read_text())["meta"]["hidden"] == [8, 8]
        loaded = load_detector(path)
        assert loaded.spec == spec
        for l1, l2 in zip(det.net.layers, loaded.net.layers):
            assert np.array_equal(l1.weights, l2.weights)

    def test_save_of_numpy_integer_counts(self, tmp_path):
        spec = DetectorSpec("ernet", np.int64(10), np.int32(5))
        assert type(spec.num_antennas) is int and type(spec.subarray_size) is int
        path = tmp_path / "det.json"
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(4))), path)
        assert load_detector(path).spec == spec

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["meta"].update(detector="ernet"),
        lambda doc: doc["meta"].update(hidden=[4, 4]),
        lambda doc: doc["layers"][-1].update(activation="linear"),
        # Layouts that no plan lays out.
        lambda doc: doc["layers"][-1].update(activation="relu"),
        lambda doc: doc["layers"][0].update(activation="softmax"),
        lambda doc: doc["layers"][1].update(cols=9, weights=[0.0] * 72),
        lambda doc: doc["layers"][0].update(activation="tanh"),
    ], ids=["other-kind", "other-hidden", "other-head", "relu-output", "softmax-hidden",
            "chain-mismatch", "unknown-activation"])
    def test_network_other_than_the_spec_rejected(self, tmp_path, edit):
        spec = DetectorSpec("ecnet", 10)
        path = tmp_path / "det.json"
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(4))), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="not the .*layers"):
            load_detector(path)

    @pytest.mark.parametrize("kind", ["ernet", "ecnet", "covnet"])
    def test_model_file_with_loss_entry_rejected(self, tmp_path, kind):
        # Files written before the loss followed the output layer carry a
        # "loss" entry in train_config; it is not a field, so the file must
        # be retrained.  The same file without it loads bit for bit.
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
        with pytest.raises(ValueError, match=r"unknown train_config keys \['loss'\]"):
            load_detector(old)
        feats = np.random.default_rng(6).uniform(0.0, 3.0, (20, spec.feature_size))
        loaded = load_detector(path)
        assert loaded.spec == spec
        assert loaded.train_config == config
        assert np.array_equal(loaded.net.params, det.net.params)
        assert np.array_equal(loaded.decide_batch(feats), det.decide_batch(feats))


# SHA-256 of the file that save_detector writes for each untrained detector, built with
# the seed of its position here.  Initialization reads no BLAS result, so each digest
# holds on every OpenBLAS core.
MODEL_FILE_DIGESTS = {
    "ernet": (DetectorSpec("ernet", 6), None,
              "a09488761213b75add6e65628469b02e55b3110ec8a9f94444bf044a6210fde1"),
    "ecnet": (DetectorSpec("ecnet", 6), TrainConfig(learning_rate=0.003, epochs=7, seed=11),
              "78d3b4a272551612bacd664a1c41d1f58d267b85fcd90f12f059f1459615e0c9"),
    "covnet": (DetectorSpec("covnet", 4), TrainConfig(),
               "c88af235099df4f53399d681f7d1dabe35651e118b361ac2c8cb8e3510a7e3b5"),
    "fbss-ernet": (DetectorSpec("ernet", 8, subarray_size=5), TrainConfig(batch_size=64),
                   "e59b7bab0c4e603ccf564889e5406cc35457c9b92652975da4e2bcbaa2ce7e6f"),
    "fbss-ecnet-normalized": (DetectorSpec("ecnet", 8, subarray_size=3, normalize=True), None,
                              "950fc854e6c5405815d46286f84a22d7937cba9a32b95b048a9bd509363c3b60"),
    "covnet-normalized": (DetectorSpec("covnet", 3, normalize=True), TrainConfig(seed=7),
                          "f650469f876851c4834ef68cbd97a29d0cc5084bcc6ed116138ec343d764808d"),
    "ernet-normalized": (DetectorSpec("ernet", 10, normalize=True),
                         TrainConfig(learning_rate=1e-4),
                         "ec693dd27873e2519d57745a6444df1bb0b1a9f7859f0a9f192343c6779c9ecb"),
    "ecnet-m2": (DetectorSpec("ecnet", 2), None,
                 "09416fbe912fefc785692db54b5a02acef97845c0ce47a3bf0658392423f38c8"),
}


def saved(path, spec, config=None, seed=4):
    """The untrained detector of ``spec`` built with ``seed``, after saving it to ``path``."""
    det = Detector(spec, build_detector(spec, np.random.default_rng(seed)), config)
    save_detector(det, path)
    return det


def edit_model(path, edit):
    """Rewrites the model file at ``path`` with ``edit`` applied to its document."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


class TestModelFile:
    @pytest.mark.parametrize("seed, name", enumerate(MODEL_FILE_DIGESTS),
                             ids=list(MODEL_FILE_DIGESTS))
    def test_bytes_pinned(self, tmp_path, seed, name):
        spec, config, digest = MODEL_FILE_DIGESTS[name]
        saved(tmp_path / "model.json", spec, config, seed)
        assert hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest() == digest

    def test_round_trip_bit_exact(self, tmp_path):
        spec, config = DetectorSpec("ecnet", 5), TrainConfig(learning_rate=1e-3, epochs=7, seed=99)
        det = Detector(spec, build_detector(spec, np.random.default_rng(14)), config)
        det.net.params[:] = np.random.default_rng(14).standard_normal(det.net.params.size)
        save_detector(det, tmp_path / "model.json")
        loaded = load_detector(tmp_path / "model.json")
        assert loaded.spec == spec and loaded.train_config == config
        assert [l.activation for l in loaded.net.layers] == [l.activation for l in det.net.layers]
        for l1, l2 in zip(det.net.layers, loaded.net.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.bias, l2.bias)

    def test_floats_written_as_shortest_repr(self, tmp_path):
        det = Detector(DetectorSpec("ernet", 4),
                       build_detector(DetectorSpec("ernet", 4), np.random.default_rng(0)))
        det.net.layers[0].weights[0, 0], det.net.layers[0].bias[0] = 1.0 / 3.0, 0.1
        save_detector(det, tmp_path / "model.json")
        text = (tmp_path / "model.json").read_text(encoding="utf-8")
        assert f"\n        {1.0 / 3.0!r},\n" in text and "\n        0.1,\n" in text
        assert json.loads(text)["layers"][0]["weights"][0] == 1.0 / 3.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_not_written(self, tmp_path, value):
        det = Detector(DetectorSpec("ernet", 4),
                       build_detector(DetectorSpec("ernet", 4), np.random.default_rng(0)))
        det.net.layers[-1].bias[0] = value
        with pytest.raises(ValueError):
            save_detector(det, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_failed_save_keeps_the_old_file(self, tmp_path, value):
        path = tmp_path / "model.json"
        det = saved(path, DetectorSpec("ernet", 4))
        before = path.read_bytes()
        det.net.layers[-1].bias[0] = value
        with pytest.raises(ValueError):
            save_detector(det, path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-2e308"])
    def test_rejects_non_finite_parameters(self, tmp_path, constant):
        path = tmp_path / "model.json"
        saved(path, DetectorSpec("ernet", 4))
        edit_model(path, lambda doc: doc["layers"][0]["bias"].__setitem__(0, "placeholder"))
        path.write_text(path.read_text(encoding="utf-8").replace('"placeholder"', constant),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite number"):
            load_detector(path)

    def test_old_layout_loads_bit_for_bit(self, tmp_path):
        # The layout written before floats were their shortest repr: 17
        # significant digits and a "layer_sizes" key, which no reader reads.
        spec = DetectorSpec("ernet", 2)
        net = build_detector(spec, np.random.default_rng(0))
        net.params[:5] = [1.0 / 3.0, -2.5e-310, 0.1, -7.0, 1e300]
        layers = ",\n".join(
            f'    {{"activation": "{l.activation}", "rows": {l.out_dim}, "cols": {l.in_dim},\n'
            f'     "weights": [{", ".join(f"{v:.16e}" for v in l.weights.ravel())}],\n'
            f'     "bias": [{", ".join(f"{v:.16e}" for v in l.bias)}]}}' for l in net.layers)
        path = tmp_path / "old.json"
        path.write_text('{"format": "sourcecount-network", "version": 1,\n'
                        ' "layer_sizes": [2, 8, 8, 1],\n'
                        f' "layers": [\n{layers}\n ],\n'
                        ' "train_config": {"learning_rate": 3.0000000000000001e-03,\n'
                        '                  "batch_size": 128, "epochs": 7, "seed": 11},\n'
                        ' "meta": {"detector": "ernet", "num_antennas": 2, "subarray_size": null,\n'
                        '          "hidden": [8, 8]}}\n', encoding="utf-8")
        assert "3.3333333333333331e-01, -2.5000000000000" in path.read_text(encoding="utf-8")
        loaded = load_detector(path)
        assert loaded.net.params.tobytes() == net.params.tobytes()
        assert loaded.spec == spec
        assert loaded.train_config == TrainConfig(learning_rate=0.003, batch_size=128, epochs=7,
                                                  seed=11)
        save_detector(loaded, tmp_path / "new.json")
        assert load_detector(tmp_path / "new.json").net.params.tobytes() == net.params.tobytes()

    @pytest.mark.parametrize("key, value", [("adam_beta1", 0.5), ("adam_epsilon", 1e-7),
                                            ("momentum", 0.5)])
    def test_unknown_train_config_key_rejected(self, tmp_path, key, value):
        # Files written before the ADAM constants were fixed carry them in
        # train_config; like any key that is not a field, each is rejected.
        path = tmp_path / "model.json"
        saved(path, DetectorSpec("ernet", 4), TrainConfig(seed=99))
        edit_model(path, lambda doc: doc["train_config"].update({key: value}))
        with pytest.raises(ValueError, match=rf"unknown train_config keys \['{key}'\]"):
            load_detector(path)

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else", "version": 1}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a serialized network document"):
            load_detector(path)

    def test_untrained_config_is_none(self, tmp_path):
        path = tmp_path / "model.json"
        saved(path, DetectorSpec("ernet", 4))
        assert json.loads(path.read_text(encoding="utf-8"))["train_config"] is None
        assert load_detector(path).train_config is None

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["layers"][0].update(rows="8"), "not the ernet layers"),
        (lambda doc: doc["layers"][0].update(rows=8.7), "not the ernet layers"),
        (lambda doc: doc["layers"][0].update(rows=-1), "not the ernet layers"),
        (lambda doc: doc["layers"][2].update(rows=True), "not the ernet layers"),
        (lambda doc: doc["layers"][0]["weights"].__setitem__(0, "0.5"),
         r"layer 0 weights must be a flat list of 80 numbers"),
        (lambda doc: doc["layers"][1]["bias"].__setitem__(0, False),
         r"layer 1 bias must be a flat list of 8 numbers"),
        (lambda doc: doc["layers"][0].update(
            weights=np.reshape(doc["layers"][0]["weights"], (8, 10)).tolist()),
         r"layer 0 weights must be a flat list of 80 numbers"),
        (lambda doc: doc["layers"][2]["weights"].append(0.0),
         r"layer 2 weights must be a flat list of 8 numbers"),
    ], ids=["rows-text", "rows-float", "rows-negative", "rows-bool", "weight-text",
            "bias-bool", "weights-nested", "weights-long"])
    def test_wrong_json_type_rejected(self, tmp_path, edit, match):
        path = tmp_path / "model.json"
        saved(path, DetectorSpec("ernet", 10))
        edit_model(path, edit)
        with pytest.raises(ValueError, match=f"^model file {re.escape(str(path))}: .*{match}"):
            load_detector(path)


class TestWriteJson:
    def test_infs_of_dicts_and_tuples_are_spelled_at_any_depth(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"z": {"snr": -math.inf, "axis": (0.0, (math.inf,))}, "a": [(1, 2)]})
        assert path.read_bytes() == (b'{\n  "a": [\n    [\n      1,\n      2\n    ]\n  ],\n'
                                     b'  "z": {\n    "axis": [\n      0.0,\n      [\n'
                                     b'        "inf"\n      ]\n    ],\n    "snr": "-inf"\n'
                                     b'  }\n}\n')

    @pytest.mark.parametrize("doc", [{"x": math.nan}, {"x": (1.0, math.nan)}, [math.inf],
                                     {"x": {"y": [1.0, -math.inf]}}, [{"x": math.inf}]])
    def test_nan_or_an_inf_in_a_list_keeps_the_old_file(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_bytes(b"old")
        with pytest.raises(ValueError):
            write_json(path, doc)
        assert path.read_bytes() == b"old"


@settings(max_examples=60)
@given(kind=st.sampled_from([("ernet", None), ("ecnet", None), ("covnet", None),
                             ("ernet", 5), ("ecnet", 5)]),
       normalize=st.booleans(), exponent=st.floats(-320.0, 308.0),
       seed=st.integers(0, 2 ** 16))
@example(kind=("ecnet", 5), normalize=True, exponent=-320.0, seed=0)
@example(kind=("covnet", None), normalize=True, exponent=308.0, seed=0)
@example(kind=("covnet", None), normalize=True, exponent=307.3, seed=0)  # finite, trace is not
def test_estimate_under_covariance_scaling(kind, normalize, exponent, seed):
    """estimate(s R) for s from 1e-320 to 1e308 is a count in [0, M-1]
    or a ValueError/ArithmeticError, and never a warning."""
    kind, subarray_size = kind
    spec = DetectorSpec(kind, 10, subarray_size, normalize=normalize)
    det = Detector(spec, build_detector(spec, np.random.default_rng(seed)))
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 6))
    r = sample_covariance(generate_snapshots(10, 20, tuple(rng.uniform(-1.5, 1.5, k)), (),
                                             10.0, rng))
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = 10.0 ** exponent * r
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            count = det.estimate(scaled)
        except (ValueError, ArithmeticError):
            return
    assert isinstance(count, int) and 0 <= count <= 9
