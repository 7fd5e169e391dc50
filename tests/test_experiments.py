"""Tests for the experiment harness: configs, datasets, sweeps, bench."""

import collections
import csv
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sourcecount.experiments import (
    ClassicalDetector,
    ExperimentConfig,
    SweepResult,
    bench_complexity,
    config_from_text,
    config_to_text,
    dataset_header,
    draw_scenario,
    emit_csv,
    evaluate_detectors,
    generate_trials,
    read_dataset,
    run_sweep,
    select_features,
    train_detector,
    write_dataset,
    write_manifest,
)
from sourcecount.detectors import DetectorSpec, build_detector, make_features, normalize_features
from sourcecount.experiments import (_FEATURE_BLOCK, _SYNTHESIS_ENTRIES, MAX_COUNT, NET_KINDS,
                                     ROLE_INIT, ROLE_TEST, _blas_core, _convert_config_value,
                                     _rng, _set_stream, _stream_states)
from sourcecount.signal_model import generate_snapshots, sample_covariance


# SHA-256 of simulation_digest's trial sets, per OpenBLAS core family.
SIMULATION_DIGEST = {
    "SkylakeX": "b97c4e00fa97504846b43b7070ff4c3e1a73b725183c5a6b7bc0e6b4e20ec8e2",
    "Haswell": "874a47bff59e3390d9598fc6ca7f67ea866c0c0279b8296fa4fcbbf68ef98d8a",
    "Sandybridge": "03199f1571101031c8514240a7cd2385a6ee02c7cc979db0b8c1941a1535cfd0",
    "Nehalem": "0e409ab366c1e054c77cd389e636908b6b129a5dcec4e299102cda7bb74167b6",
    "Katmai": "0e409ab366c1e054c77cd389e636908b6b129a5dcec4e299102cda7bb74167b6",
}
# SHA-256 of training_digest's trained nets, per OpenBLAS core family.
TRAINING_DIGEST = {
    "SkylakeX": "764d2523f0de75be3774c5346e9870a4e576afe507b7fc6caefe084e76894b47",
    "Haswell": "71d869d16c87640bf418141d05f94a6d82610d2c93d5024a6464f211df29cf05",
    "Sandybridge": "ca3e95cc40aefee84f2c59dc1b0d350dda1c370c98e071e20e613279a1a422e1",
    "Nehalem": "4939ae38222bca288b59e454b5757cade5b06c73277ccd06ab935a5464aa6737",
    "Katmai": "77eaf54e4312af1dc50fe7cdee2e9084f59918c2ded9adf0b5e49725808c587f",
}
# SHA-256 of sweep_digest's sweep results: one value on every core family tried.
SWEEP_DIGEST = "1e61c42b8c725836464948b6d95b3a1c2577a38ad4d41a3757acf87d49f2634b"
# SHA-256 of normalized_sweep_digest's sweep results, likewise one value.
NORMALIZED_SWEEP_DIGEST = "1a47fda4bdd03d694b4d1ba8fe6f2d5e19b9eb11567fcb08d56beeda4c4c19d1"


def tiny_config(**overrides):
    base = dict(num_train=200, num_test=60, epochs=5, seed=11,
                snapshot_axis=(5, 10), snr_axis_db=(0.0, 10.0),
                detectors=("ernet", "aic"))
    base.update(overrides)
    return ExperimentConfig(**base)


def simulation_digest():
    """One SHA-256 over labels and eigen/fbss/cov bytes of small trial sets:
    non-coherent and coherent draws, noise-free and finite SNR, K=0 included."""
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
    return digest.hexdigest()


def training_digest():
    """One SHA-256 over the trained weight/bias bytes and loss histories of
    ERNet, ECNet, CovNet and fbss-ERNet.  300 trials at batch 128 end each
    epoch in a short 44-row batch."""
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
    return digest.hexdigest()


def sweep_digest():
    """One SHA-256 over four tiny sweeps: snapshots (retrained per N) and the
    coherent SNR sweep with their default detectors, the non-coherent SNR
    sweep, and a coherent two-detector subset."""
    digest = hashlib.sha256()
    for name, config in (
            ("sweep-snapshots", tiny_config(detectors=None)),
            ("sweep-snr", tiny_config()),
            ("sweep-snr-coherent", tiny_config(max_sources=4, detectors=None)),
            ("sweep-snr-coherent", tiny_config(max_sources=4, detectors=("ecnet", "mdl")))):
        digest.update(repr(run_sweep(name, config)).encode())
    return digest.hexdigest()


def normalized_sweep_digest():
    """The three sweeps on trace-normalized features, with ERNet, ECNet and
    CovNet among their detectors: each detector normalizes the raw rows it
    trains and decides on, bit for bit as the callers once normalized them."""
    digest = hashlib.sha256()
    for name, config in (
            ("sweep-snapshots", tiny_config(detectors=None)),
            ("sweep-snr", tiny_config(detectors=("ecnet", "covnet", "mdl"))),
            ("sweep-snr-coherent", tiny_config(max_sources=4, detectors=None))):
        digest.update(repr(run_sweep(name, replace(config, normalize_features=True))).encode())
    return digest.hexdigest()


def one_trial_reference(config, trials, snr_db, axis_index):
    """Asserts that every row of ``trials`` is what its own stream gives one
    trial at a time: draw_scenario, generate_snapshots, sample_covariance
    and make_features."""
    for i, label in enumerate(trials.labels):
        rng = _rng(config.seed, ROLE_TEST, axis_index, i)
        draw = draw_scenario(config, rng, snr_db=snr_db)
        r = sample_covariance(generate_snapshots(config.num_antennas, config.num_snapshots,
                                                 *draw, rng))
        assert label == len(draw[0])
        for feature in ("eigen", "fbss", "cov"):
            expected = make_features(r[np.newaxis], feature, config.subarray_size)[0]
            assert np.array_equal(getattr(trials, feature)[i], expected)


class ConstantRng:
    """A generator stub whose every uniform draw is 0 and integer draw 2:
    K = 2 with two equal DOAs."""

    def uniform(self, low, high, size=None):
        return np.zeros(size)

    def integers(self, low, high, size=None):
        return 2


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

    def test_text_round_trip_of_every_field(self):
        c = ExperimentConfig(
            num_antennas=8, num_snapshots=30, max_sources=3, train_snr_db=(-5.0, 35.5),
            test_snr_db=7.5, num_train=300, num_test=40, coherent=True, subarray_size=4,
            detectors=("ecnet", "mdl"), snapshot_axis=(7, 70), snr_axis_db=(1.5, 2.5),
            epochs=3, batch_size=16, learning_rate=0.0025, normalize_features=True, seed=9)
        defaults = ExperimentConfig()
        assert all(getattr(c, f.name) != getattr(defaults, f.name) for f in fields(c))
        parsed = config_from_text(config_to_text(c))
        assert parsed == c
        for f in fields(c):
            value = getattr(parsed, f.name)
            default = ("ernet",) if f.default is None else f.default
            assert type(value) is type(default), f.name
            if isinstance(value, tuple):
                assert {type(v) for v in value} == {type(default[0])}, f.name

    @pytest.mark.parametrize("default, raw, parsed", [
        (0.5, "2", 2.0), (3, "2", 2), (False, "on", True), ((1.5,), "2,3", (2.0, 3.0)),
        ((1,), "2,3", (2, 3)), (None, "a, b,", ("a", "b")), (None, "", None)])
    def test_values_parse_as_their_defaults_type(self, default, raw, parsed):
        # a field the converter has never seen parses by its default's type
        value = _convert_config_value(SimpleNamespace(name="new_field", default=default), raw)
        assert value == parsed and type(value) is type(parsed)
        if isinstance(value, tuple):
            assert [type(v) for v in value] == [type(v) for v in parsed]

    @pytest.mark.parametrize("text, message", [
        ("coherent = maybe\n", "cannot parse boolean 'maybe' for coherent"),
        ("num_test = 1.5\n", "invalid literal for int"),
        ("snapshot_axis = 5,x\n", "invalid literal for int"),
        ("test_snr_db = loud\n", "could not convert string to float")])
    def test_unparsable_values_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            config_from_text(text)

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
        with pytest.raises(ValueError, match=fr"^{field} must be a real number in \["):
            ExperimentConfig(**{field: value})
        assert ExperimentConfig(test_snr_db=math.inf).test_snr_db == math.inf

    @pytest.mark.parametrize("value", [(0.0, math.inf), (40.0, 0.0), (0.0,), (0.0, 10.0, 20.0),
                                       (math.inf, math.inf)])
    def test_train_snr_range_must_be_finite_and_ordered(self, value):
        # An infinite end cannot be drawn from; numpy's error named no field.  The high end
        # lies in [low, FLOAT_MAX], and the low end in [MIN_SNR_DB, FLOAT_MAX].
        rule = r"\(low, high\) pair" if len(value) != 2 else r"real number in \["
        with pytest.raises(ValueError, match=r"^train_snr_db must be a " + rule):
            ExperimentConfig(train_snr_db=value)
        assert ExperimentConfig(train_snr_db=(5.0, 5.0)).train_snr_db == (5.0, 5.0)

    @pytest.mark.parametrize("field, value", [
        ("train_snr_db", (-4000.0, 40.0)), ("test_snr_db", -4000.0),
        ("snr_axis_db", (0.0, -3082.6))])
    def test_snr_whose_noise_variance_overflows_rejected(self, field, value):
        # 10^(-SNR/10) is finite down to about -3082.55 dB
        with pytest.raises(ValueError, match=fr"^{field} must be a real number in \[-3082.547"):
            ExperimentConfig(**{field: value})
        assert ExperimentConfig(test_snr_db=-3082.5).test_snr_db == -3082.5

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -0.1),
        ("batch_size", 0), ("epochs", -1), ("num_snapshots", 0), ("num_snapshots", -3),
        ("snapshot_axis", (20, 0)), ("seed", -1), ("num_train", 0), ("num_test", -3),
        ("snr_axis_db", (0.0, math.nan)), ("detectors", ("5",))])
    def test_bad_training_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must "):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field", ["num_antennas", "num_snapshots", "num_train",
                                       "num_test", "snapshot_axis"])
    def test_counts_beyond_numpys_array_limit_rejected(self, field):
        # Every count that sizes an array stops at numpy's largest dimension,
        # which is accepted; the seed sizes nothing and has no upper bound.
        limit = (5, MAX_COUNT) if field == "snapshot_axis" else MAX_COUNT
        beyond = (5, MAX_COUNT + 1) if field == "snapshot_axis" else MAX_COUNT + 1
        assert MAX_COUNT == np.iinfo(np.intp).max
        assert getattr(ExperimentConfig(**{field: limit}), field) == limit
        with pytest.raises(ValueError,
                           match=fr"^{field} must be an integer in \[1, {MAX_COUNT}\], got "):
            ExperimentConfig(**{field: beyond})
        assert ExperimentConfig(seed=10 ** 30).seed == 10 ** 30

    @pytest.mark.parametrize("field, value", [
        ("num_snapshots", 20.5), ("num_antennas", 10.0), ("max_sources", 2.5),
        ("subarray_size", 2.5), ("num_snapshots", True), ("seed", "3"),
        ("coherent", "yes"), ("normalize_features", 1), ("snapshot_axis", (5, 10.5)),
        ("snapshot_axis", (True, 10))])
    def test_mistyped_counts_and_switches_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("train_snr_db", 5.0), ("snapshot_axis", 5), ("snr_axis_db", 5.0),
        ("detectors", "ernet"), ("learning_rate", "0.1"), ("learning_rate", True)])
    def test_field_of_the_wrong_shape_or_type_is_named(self, field, value):
        # Each used to be accepted, fail later or elsewhere, or name one character.
        named = fr"^{field} must be a .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=named):
            ExperimentConfig(**{field: value})

    def test_tuple_fields_are_stored_as_tuples(self):
        config = ExperimentConfig(train_snr_db=[0.0, 40.0], snapshot_axis=[5, 10],
                                  snr_axis_db=[0.0, 5.0], detectors=["ernet", "mdl"])
        assert config.train_snr_db == (0.0, 40.0) and config.snapshot_axis == (5, 10)
        assert config.snr_axis_db == (0.0, 5.0) and config.detectors == ("ernet", "mdl")
        assert ExperimentConfig(detectors=None).detectors is None

    def test_numpy_integer_counts_accepted(self):
        # and stored as Python ints, which JSON can write
        config = ExperimentConfig(num_snapshots=np.int64(30), seed=np.uint32(7),
                                  snapshot_axis=(np.int16(5), 10))
        assert config.num_snapshots == 30 and type(config.num_snapshots) is int
        assert type(config.seed) is int
        assert [type(n) for n in config.snapshot_axis] == [int, int]


class TestScenarioDraw:
    def test_source_count_uniform(self):
        # 60000 draws: each K in {0..5} lands within 1/6 +- 0.01
        config = ExperimentConfig()
        counts = np.zeros(6)
        for i in range(60000):
            doas, _, _ = draw_scenario(config, _rng(0, 7, 0, i), snr_db=5.0)
            counts[len(doas)] += 1
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 1.0 / 6.0) <= 0.01)

    def test_coherent_draw_structure(self):
        config = ExperimentConfig(coherent=True)
        saw_fully_coherent = False
        for i in range(2000):
            doas, targets, _ = draw_scenario(config, _rng(1, 7, 0, i), snr_db=0.0)
            k, num_coherent = len(doas), len(targets)
            if k == 0:
                assert num_coherent == 0
                continue
            assert 0 <= num_coherent <= k - 1
            # The copies are the last sources, and each reads an independent one.
            assert all(0 <= target < k - num_coherent for target in targets)
            # boundary case: K-1 coherent copies leaves one independent row
            if k >= 2 and num_coherent == k - 1:
                saw_fully_coherent = True
        assert saw_fully_coherent

    def test_train_snr_sampled_from_range(self):
        config = ExperimentConfig()
        snrs = [draw_scenario(config, _rng(2, 7, 0, i), snr_db=(0.0, 40.0))[2]
                for i in range(500)]
        assert min(snrs) >= 0.0 and max(snrs) <= 40.0
        assert max(snrs) - min(snrs) > 20.0

    def test_degenerate_doa_stream_aborts(self):
        # duplicate DOAs (about 1e-15 per trial for real draws) are not redrawn
        config = ExperimentConfig()
        with pytest.raises(ValueError, match="pairwise distinct"):
            draw_scenario(config, ConstantRng(), snr_db=5.0)

    def test_degenerate_doa_stream_aborts_the_block_path(self, monkeypatch):
        import sourcecount.experiments as experiments

        monkeypatch.setattr(experiments.np.random, "default_rng", lambda *args: ConstantRng())
        monkeypatch.setattr(experiments, "_set_stream", lambda rng, *words: None)
        with pytest.raises(ValueError, match="pairwise distinct"):
            generate_trials(tiny_config(), phase="test", num=4, snr_db=5.0)

    @pytest.mark.parametrize("high", [1, 2, 3, 4, 5])
    def test_scalar_integer_draw_equals_size_one_draw(self, high):
        # draw_scenario draws a single copy target as a scalar, which must
        # give the size=1 draw's value and leave the same generator state,
        # with or without a buffered 32-bit half-word.
        for seed in range(400):
            scalar, sized = np.random.default_rng(seed), np.random.default_rng(seed)
            if seed % 2:
                for rng in (scalar, sized):
                    rng.integers(0, 10, dtype=np.uint32)
            assert scalar.integers(0, high) == sized.integers(0, high, size=1)[0]
            assert scalar.bit_generator.state == sized.bit_generator.state


# SNRs as a caller might pass them: numbers, inf, NaN, below the variance
# overflow floor, too large for a float, and values that are no SNR.
SNRS = st.one_of(st.floats(), st.integers(-10**400, 10**400), st.sampled_from([None, "5", 1j]))
# The same for generate_trials, less the finite SNRs from the overflow floor
# (about -3082.5 dB) up to -1500 dB: they pass the check, but their trials'
# eigenvalue features (below about -1540 dB) or covariances (below about
# -3080 dB) overflow after the draw (see TestOverflowingNoise).
TRIAL_SNRS = st.one_of(st.floats(min_value=-1500.0), st.floats(max_value=-3082.6),
                       st.just(math.nan), st.integers(-1500, 10**400),
                       st.integers(max_value=-3083), st.sampled_from([None, "5", 1j]))
COUNTS = st.one_of(st.integers(-1, 5), st.floats(0.0, 5.0), st.booleans())


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
        eig_norm = normalize_features(select_features(t, "ecnet", None), "eigen")
        assert np.allclose(eig_norm.sum(axis=1), 1.0)
        cov_norm = normalize_features(select_features(t, "covnet", None), "cov")
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

    def test_simulation_bits_pinned(self, assert_pinned):
        # A refactor of the seed -> covariance path must leave every bit in place.
        assert_pinned("SIMULATION_DIGEST", SIMULATION_DIGEST, simulation_digest())

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
            one_trial_reference(replace(config, coherent=coherent), t, snr_db, ai)
            if snr_db == math.inf:
                assert ((t.eigen[:, 0] > 0.0) & (t.eigen[:, -1] == 0.0)).any()

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 6), n=st.integers(1, 5), data=st.data(), coherent=st.booleans(),
           snr_db=st.one_of(st.just(math.inf), st.floats(-20.0, 60.0),
                            st.tuples(st.floats(-20.0, 20.0), st.floats(20.0, 60.0))),
           num=st.one_of(st.integers(0, 40), st.integers(_FEATURE_BLOCK, _FEATURE_BLOCK + 40)),
           entries=st.one_of(st.just(_SYNTHESIS_ENTRIES), st.integers(1, 400)),
           seed=st.integers(0, 2**32))
    def test_blocks_equal_one_row_features_over_configs(self, m, n, data, coherent, snr_db,
                                                        num, entries, seed):
        # Small synthesis blocks split each feature block into several,
        # with a short last one; the production size gives one per block.
        config = ExperimentConfig(num_antennas=m, num_snapshots=n, coherent=coherent,
                                  max_sources=data.draw(st.integers(0, m - 1)),
                                  subarray_size=data.draw(st.integers(1, m)), seed=seed)
        with mock.patch("sourcecount.experiments._SYNTHESIS_ENTRIES", entries):
            t = generate_trials(config, phase="test", num=num, snr_db=snr_db, axis_index=2,
                                want=("eigen", "fbss", "cov"))
        one_trial_reference(config, t, snr_db, 2)

    @pytest.mark.parametrize("argument, overrides", [
        ("num", {"num": 2.5}), ("num", {"num": -1}), ("num", {"num": True}),
        ("phase", {"phase": "Train"}), ("feature", {"want": ("eigen", "smoothed")}),
        ("num", {"num": MAX_COUNT + 1}), ("axis_index", {"axis_index": -1}),
        ("axis_index", {"axis_index": 1.5}), ("snr_db", {"snr_db": math.nan}),
        ("snr_db", {"snr_db": -math.inf}), ("snr_db", {"snr_db": (0.0, math.inf)}),
        ("snr_db", {"snr_db": (40.0, 0.0)}), ("snr_db", {"snr_db": (0.0, math.nan)}),
        ("snr_db", {"snr_db": (0.0,)}), ("snr_db", {"snr_db": "5"})])
    def test_malformed_arguments_rejected_before_any_draw(self, monkeypatch, argument,
                                                          overrides):
        import sourcecount.experiments as experiments

        def no_draw(*args, **kwargs):
            raise AssertionError("a trial was drawn before the arguments were checked")

        # Every trial's draws start by setting its stream.
        monkeypatch.setattr(experiments, "_set_stream", no_draw)
        kwargs = dict(phase="test", num=4, snr_db=5.0, want=("eigen",))
        with pytest.raises(AssertionError, match="a trial was drawn"):
            generate_trials(tiny_config(), **kwargs)
        with pytest.raises(ValueError, match=argument):
            generate_trials(tiny_config(), **kwargs | overrides)

    def test_empty_trial_set(self):
        t = generate_trials(tiny_config(), phase="test", num=0, snr_db=5.0,
                            want=("eigen", "fbss", "cov"))
        assert t.labels.shape == (0,) and t.eigen.shape == (0, 10)
        assert t.fbss.shape == (0, 5) and t.cov.shape == (0, 200)

    def test_no_accuracy_on_an_empty_trial_set(self):
        t = generate_trials(tiny_config(), phase="test", num=0, snr_db=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^trials must hold at least one trial"):
                evaluate_detectors([ClassicalDetector("mdl")], t)

    @settings(max_examples=80, deadline=None)
    @given(snr_db=st.one_of(TRIAL_SNRS, st.lists(TRIAL_SNRS, max_size=3),
                            st.lists(TRIAL_SNRS, max_size=3).map(tuple)),
           axis_index=st.one_of(st.integers(-3, 2**70), st.floats(), st.booleans(),
                                st.just(np.uint8(3))),
           num=st.one_of(st.integers(-1, 3), st.floats(-1.0, 3.0), st.booleans(),
                         st.just(np.int64(2))),
           coherent=st.booleans(), m=COUNTS, n=COUNTS,
           doas=st.lists(st.sampled_from([0.1, 0.5, 2.0, 4.0]), max_size=4),
           targets=st.lists(st.one_of(st.integers(-1, 3), st.floats(0.0, 3.0)), max_size=3),
           snapshot_snr=SNRS)
    def test_library_arguments_return_or_are_named_before_any_draw(
            self, snr_db, axis_index, num, coherent, m, n, doas, targets, snapshot_snr):
        # Each call returns, or raises ValueError naming the argument before
        # its first draw; no TypeError, OverflowError or RuntimeWarning.
        import sourcecount.experiments as experiments

        config = ExperimentConfig(num_antennas=4, num_snapshots=3, max_sources=3,
                                  subarray_size=2)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(experiments, "_set_stream",
                                   wraps=experiments._set_stream) as stream:
                try:
                    t = generate_trials(config, phase="test", num=num, snr_db=snr_db,
                                        coherent=coherent, axis_index=axis_index)
                    assert len(t.labels) == num
                except ValueError as exc:
                    assert str(exc).split()[0] in ("num", "axis_index", "snr_db"), exc
                    assert stream.call_count == 0
            try:
                data = generate_snapshots(m, n, doas, targets, snapshot_snr, rng)
                assert data.shape == (m, n)
            except ValueError as exc:
                assert str(exc).split()[0] in ("num_antennas", "num_snapshots", "doas",
                                               "targets", "snr_db"), exc
                assert rng.bit_generator.state == state


# Draws compared between a stream set by _set_stream and the same stream
# from _rng; the 32-bit ones would read a half-word left over from before.
FIRST_DRAWS = (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
               lambda g: g.integers(0, 6, size=4), lambda g: g.uniform(0.0, 6.3, size=3),
               lambda g: g.standard_normal(size=3))


class TestOverflowingNoise:
    # Past about -1540 dB the eigenvalue features overflow, past about
    # -3080 dB the covariances themselves; no bound is guessed up front.
    @pytest.mark.parametrize("feature", ["eigen", "fbss", "cov"])
    @pytest.mark.parametrize("snr_db", [-1540.0, -2000.0, -3080.0])
    def test_overflow_after_the_draw_names_the_snr(self, feature, snr_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                trials = generate_trials(ExperimentConfig(), phase="test", num=20,
                                         snr_db=snr_db, want=(feature,))
            except ValueError as exc:
                assert str(exc).startswith(f"snr_db {snr_db} is too low: the noise "
                                           f"overflows the {feature} features"), exc
                assert (feature, snr_db) not in (("cov", -1540.0), ("cov", -2000.0))
            else:  # the covariance entries themselves stay finite
                assert (feature, snr_db) in (("cov", -1540.0), ("cov", -2000.0))
                assert np.isfinite(trials.cov).all()

    @pytest.mark.parametrize("num", [20, 600])
    def test_errstate_entered_once_per_call(self, monkeypatch, num):
        # coherent-sweep's hot path: one errstate per call, none per trial or block.
        errstate, entries = np.errstate, []

        def counting_errstate(**kwargs):
            entries.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counting_errstate)
        generate_trials(tiny_config(coherent=True), phase="test", num=num, snr_db=5.0,
                        want=("eigen", "fbss", "cov"))
        assert len(entries) == 1

    def test_overflow_in_a_drawn_range_names_the_snr(self):
        with pytest.raises(ValueError, match=r"^snr_db \(-3080.0, 40.0\) is too low"):
            generate_trials(tiny_config(), phase="train", num=50, snr_db=(-3080.0, 40.0))


class TestStreams:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**200), prefix=st.lists(st.integers(0, 2**64), max_size=3),
           start=st.one_of(st.integers(0, 2**33), st.integers(2**32 - 40, 2**32),
                           st.integers(0, 2**64 - 41)),
           count=st.integers(0, 40))
    @example(seed=0, prefix=[1, 0], start=2**32 - 3, count=6)
    @example(seed=2**128, prefix=[], start=0, count=3)
    def test_states_equal_seed_sequence(self, seed, prefix, start, count):
        # Seeds of any size, key entries of one to three words, and index
        # runs that cross 2**32, where numpy's key grows a second word.
        indices = range(start, start + count)
        states = _stream_states(seed, tuple(prefix), indices)
        expected = [np.random.SeedSequence(seed, spawn_key=(*prefix, i)).generate_state(
            4, np.uint64) for i in indices]
        assert states.dtype == np.uint64 and states.shape == (count, 4)
        assert np.array_equal(states, np.reshape(expected, (count, 4)))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**70), prefix=st.lists(st.integers(0, 2**40), max_size=2),
           index=st.integers(0, 2**63), draw=st.sampled_from(range(len(FIRST_DRAWS))))
    def test_set_stream_draws_as_its_own_generator(self, seed, prefix, index, draw):
        rng = np.random.default_rng(5)
        rng.integers(0, 10, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1  # a half-word is buffered
        _set_stream(rng, *_stream_states(seed, tuple(prefix), [index])[0].tolist())
        reference = _rng(seed, *prefix, index)
        for first in FIRST_DRAWS[draw:] + FIRST_DRAWS[:draw]:
            assert np.array_equal(first(rng), first(reference))

    def test_generators_built_do_not_grow_with_trials(self, monkeypatch):
        # The block path builds its generator once per call; a clock-free
        # guard that each trial no longer builds a SeedSequence or Generator.
        import sourcecount.experiments as experiments

        built = collections.Counter()

        def counting(name, real):
            def build(*args, **kwargs):
                built[name] += 1
                return real(*args, **kwargs)
            return build

        for name in ("SeedSequence", "default_rng", "Generator"):
            monkeypatch.setattr(experiments.np.random, name,
                                counting(name, getattr(experiments.np.random, name)))
        config = ExperimentConfig(num_antennas=4, num_snapshots=6, max_sources=3,
                                  subarray_size=2, seed=3)
        counts = []
        for num in (37, 2 * _FEATURE_BLOCK + 37):
            built.clear()
            generate_trials(config, phase="test", num=num, snr_db=3.0, coherent=True,
                            want=("eigen", "fbss"))
            counts.append(dict(built))
        assert counts[0] == counts[1] and 1 <= sum(counts[0].values()) <= 2, counts


def write_trials(config, path, num, feature="eigen"):
    """Draws ``num`` training trials and writes their features as gen-data does."""
    trials = generate_trials(config, phase="train", num=num,
                             snr_db=tuple(config.train_snr_db), want=(feature,))
    write_dataset(path, getattr(trials, feature), trials.labels, config=config)
    return trials


class TestDataset:
    @pytest.mark.parametrize("coherent", [False, True])
    def test_header_parses_back_to_dataset_header(self, tmp_path, coherent):
        config = tiny_config(coherent=coherent)
        path = tmp_path / "data.csv"
        write_trials(config, path, 5)
        assert read_dataset(path)[2] == dataset_header(config, config.num_antennas)

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

    def test_trailing_blank_line_named(self, tmp_path):
        path = tmp_path / "data.csv"
        write_trials(tiny_config(), path, 3)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        with pytest.raises(ValueError, match=rf"^dataset {re.escape(str(path))}, line 5: "
                                             r"expected 10 features and a label, got 1 fields$"):
            read_dataset(path)


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

    def test_training_bits_pinned(self, assert_pinned):
        # A refactor of the training core must leave every bit in place.
        assert_pinned("TRAINING_DIGEST", TRAINING_DIGEST, training_digest())

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 cores")
    def test_bits_pinned_on_a_second_blas_core(self, assert_pinned):
        # The digests in a process whose OpenBLAS runs Haswell's kernels, so
        # that an entry beyond the host's own core is checked too, and the
        # sweep accuracies, the portable part of the contract, keep their one value.
        script = ("import test_experiments as t\n"
                  "print(t._blas_core(), t.simulation_digest(), t.training_digest(),\n"
                  "      t.sweep_digest(), t.normalized_sweep_digest())\n")
        here = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=here,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        core, simulation, training, sweep, normalized = done.stdout.split()
        assert_pinned("SIMULATION_DIGEST", SIMULATION_DIGEST, simulation, core)
        assert_pinned("TRAINING_DIGEST", TRAINING_DIGEST, training, core)
        assert (sweep, normalized) == (SWEEP_DIGEST, NORMALIZED_SWEEP_DIGEST), core

    @pytest.mark.parametrize("core, named", [("Zen9", "Zen9"), (None, "unknown")])
    def test_a_core_with_no_entry_fails_naming_it(self, assert_pinned, core, named):
        with pytest.raises(pytest.fail.Exception,
                           match=f"TRAINING_DIGEST has no entry for OpenBLAS core {named}"):
            assert_pinned("TRAINING_DIGEST", TRAINING_DIGEST, "0" * 64, core)

    def test_numpy_integer_axis_index_trains_as_its_int(self):
        config = tiny_config(epochs=2)
        trials = generate_trials(config, phase="train", num=40, snr_db=5.0)
        nets = [train_detector(config, "ecnet", trials.eigen, trials.labels,
                               axis_index=axis_index)[0].net.params
                for axis_index in (2, np.int64(2), np.uint8(2))]
        assert all(np.array_equal(nets[0], net) for net in nets[1:])

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
        result = run_sweep("sweep-snapshots", config)
        assert result.axis == (5.0, 10.0)
        assert result.detectors == ("ernet", "aic", "mdl")
        for name in result.detectors:
            vals = result.accuracy[name]
            assert len(vals) == 2
            assert all(0.0 <= v <= 1.0 for v in vals)
        assert result.num_trials == config.num_test

    def test_snr_sweep_deterministic(self):
        config = tiny_config()
        r1 = run_sweep("sweep-snr", config)
        r2 = run_sweep("sweep-snr", config)
        assert r1 == r2

    def test_coherent_sweep_uses_smoothed_names(self):
        config = tiny_config(coherent=True, detectors=("ecnet", "mdl"))
        result = run_sweep("sweep-snr-coherent", config)
        assert result.detectors == ("fbss-ecnet", "fbss-mdl")

    def test_coherent_sweep_rejects_covnet_before_drawing(self, monkeypatch):
        import sourcecount.experiments as experiments

        def no_trials(*args, **kwargs):
            raise AssertionError("trials drawn before the detector set was checked")

        monkeypatch.setattr(experiments, "generate_trials", no_trials)
        config = tiny_config(coherent=True, detectors=("ernet", "covnet", "mdl"))
        with pytest.raises(ValueError, match="covnet has no smoothed form"):
            run_sweep("sweep-snr-coherent", config)

    def test_coherent_sweep_rejects_classical_at_subarray_size_one_before_drawing(
            self, monkeypatch):
        import sourcecount.experiments as experiments

        def no_trials(*args, **kwargs):
            raise AssertionError("trials drawn before the detector set was checked")

        monkeypatch.setattr(experiments, "generate_trials", no_trials)
        with pytest.raises(ValueError, match="^subarray_size must be at least 2 for aic"):
            run_sweep("sweep-snr-coherent", ExperimentConfig(subarray_size=1))

    def test_sweep_bits_pinned(self):
        assert sweep_digest() == SWEEP_DIGEST

    def test_normalized_sweep_bits_pinned(self):
        assert normalized_sweep_digest() == NORMALIZED_SWEEP_DIGEST

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
        result = run_sweep("sweep-snr", config)
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
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = [(a, d, result.accuracy[d][i]) for i, a in enumerate(result.axis)
                 for d in result.detectors]
        # every float parses back to the exact value written
        assert [(float(r["axis"]), r["detector"], float(r["accuracy"])) for r in rows] == cells
        assert {(r["n_trials"], r["seed"]) for r in rows} == {("2000", "42")}

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

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 cores")
    def test_manifest_records_the_blas_core_that_runs(self, tmp_path):
        if _blas_core() is None:
            pytest.skip("numpy's bundled OpenBLAS is not found")
        script = ("import sys\n"
                  "from sourcecount.experiments import ExperimentConfig, write_manifest\n"
                  "write_manifest(sys.argv[1], ExperimentConfig(), 'core')\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert doc["versions"]["blas_core"] == "Haswell"

    def test_manifest_of_numpy_integer_counts(self, tmp_path):
        config = tiny_config(num_snapshots=np.int64(20), snapshot_axis=(np.int64(5), 10))
        doc = json.loads(write_manifest(tmp_path, config, "unit-test").read_text())
        assert doc["config"]["num_snapshots"] == 20
        assert doc["config"]["snapshot_axis"] == [5, 10]

    def test_manifest_of_numpy_float_settings(self, tmp_path):
        # stored back as Python floats, which JSON can write
        config = tiny_config(test_snr_db=np.float32(5), learning_rate=np.float32(0.5),
                             snr_axis_db=(np.float32(10), 20.0), train_snr_db=(np.int64(0), 40))
        doc = json.loads(write_manifest(tmp_path, config, "unit-test").read_text())
        assert doc["config"]["test_snr_db"] == 5.0 and doc["config"]["learning_rate"] == 0.5
        assert doc["config"]["snr_axis_db"] == [10.0, 20.0]
        assert doc["config"]["train_snr_db"] == [0.0, 40.0]
