"""Tests for the AIC/MDL criteria and the operation-count report."""

import math
import warnings

import numpy as np
import pytest

from sourcecount.classical import (
    EigenSpectrum,
    aic,
    mdl,
    measured_op_counts,
    table_op_counts,
)
from sourcecount.detectors import make_feature_eigen
from sourcecount.experiments import ClassicalDetector
from sourcecount.signal_model import Scenario, generate_snapshots, sample_covariance


def scripted_criterion(values, n, kind):
    """Independent oracle: direct per-order evaluation with math.log."""
    m = len(values)
    lam = [max(float(v), 1e-300) for v in values]
    out = []
    for k in range(m):
        tail = lam[k:]
        count = m - k
        geo_log = sum(math.log(v) for v in tail) / count
        arith = sum(tail) / count
        ratio = geo_log - math.log(arith)
        if kind == "aic":
            out.append(-2.0 * n * count * ratio + 2.0 * k * (2 * m - k))
        else:
            out.append(-n * count * ratio + 0.5 * k * (2 * m - k) * math.log(n))
    best = min(range(m), key=lambda i: (out[i], i))
    return out, best


class TestSpectrumValidation:
    def test_rejects_short(self):
        with pytest.raises(ValueError):
            EigenSpectrum(np.array([1.0]), 10)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EigenSpectrum(np.array([1.0, 2.0]), 10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EigenSpectrum(np.array([1.0, -0.1]), 10)

    @pytest.mark.parametrize("kind", ["aic", "mdl"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 2])
    def test_rejects_non_finite(self, kind, bad, position):
        values = [3.0, 1.0, 0.5]
        values[position] = bad
        criterion = aic if kind == "aic" else mdl
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="finite"):
                criterion(EigenSpectrum(values, 20))
            with pytest.raises(ValueError, match="finite"):
                ClassicalDetector(kind).decide_batch([[2.0, 1.0, 0.5], values], 20)


class TestCriteria:
    def test_flat_spectrum_selects_zero_and_matches_penalty(self):
        spec = EigenSpectrum(np.ones(10), 500)
        trace = aic(spec)
        assert trace.order == 0
        m = 10
        k = np.arange(m)
        assert np.allclose(trace.values, 2.0 * k * (2 * m - k), atol=1e-8)
        assert mdl(spec).order == 0

    def test_one_dominant_eigenvalue(self):
        values = np.array([101.0] + [1.0] * 9)
        for crit, kind in ((aic, "aic"), (mdl, "mdl")):
            trace = crit(EigenSpectrum(values, 1000))
            oracle_values, oracle_best = scripted_criterion(values, 1000, kind)
            assert trace.order == oracle_best == 1
            assert np.allclose(trace.values, oracle_values, rtol=1e-12)

    def test_random_spectra_match_scripted_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            values = np.sort(rng.uniform(0.01, 50.0, m))[::-1]
            n = int(rng.integers(2, 5000))
            spec = EigenSpectrum(values, n)
            for crit, kind in ((aic, "aic"), (mdl, "mdl")):
                oracle_values, oracle_best = scripted_criterion(values, n, kind)
                trace = crit(spec)
                assert np.allclose(trace.values, oracle_values, rtol=1e-10)
                assert trace.order == oracle_best

    def test_high_snr_simulated_draw(self):
        # AIC overestimates on a few percent of draws even at high SNR
        # (its known inconsistency); this frozen draw shows the typical
        # outcome where both criteria recover K.
        doas = (-0.9, 0.1, 1.0)
        sc = Scenario(10, 1000, 3, doas, 20.0)
        r = sample_covariance(generate_snapshots(sc, np.random.default_rng(0)))
        spec = EigenSpectrum(make_feature_eigen(r), 1000)
        assert aic(spec).order == 3
        assert mdl(spec).order == 3

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            values = np.sort(rng.uniform(1e-3, 100.0, 8))[::-1]
            spec = EigenSpectrum(values, 64)
            for scale in (1e-6, 3.7, 1e6):
                scaled = EigenSpectrum(values * scale, 64)
                assert aic(scaled).order == aic(spec).order
                assert mdl(scaled).order == mdl(spec).order

    def test_constructed_gap_spectra(self):
        # lambda_k >> rest equal: both criteria recover k at large N
        for k in (1, 2, 4):
            values = np.array([50.0] * k + [1.0] * (10 - k))
            spec = EigenSpectrum(values, 10000)
            assert aic(spec).order == k
            assert mdl(spec).order == k

    def test_partial_zero_tail_is_fine(self):
        spec = EigenSpectrum(np.array([5.0, 0.0]), 100)
        assert aic(spec).order == 1

    def test_all_zero_spectrum_rejected(self):
        spec = EigenSpectrum(np.zeros(4), 100)
        with pytest.raises(ValueError):
            aic(spec)
        with pytest.raises(ValueError):
            mdl(spec)

    def test_deterministic(self):
        values = np.sort(np.random.default_rng(0).uniform(0.1, 5.0, 6))[::-1]
        spec = EigenSpectrum(values, 33)
        assert aic(spec).order == aic(spec).order
        assert np.array_equal(aic(spec).values, aic(spec).values)


class TestOpCounts:
    def test_closed_forms_at_m10(self):
        t_aic = table_op_counts(10, "aic")
        t_mdl = table_op_counts(10, "mdl")
        assert t_aic.mul_div == t_mdl.mul_div == 170
        assert t_aic.add_sub == t_mdl.add_sub == 55
        assert t_aic.log == 20
        assert t_mdl.log == 10
        assert t_aic.compare == t_mdl.compare == 10

    def test_instrumented_counts_reported(self):
        # Recorded side by side with the closed forms; agreement is not
        # asserted, only that a real pass was tallied.
        for kind in ("aic", "mdl"):
            measured = measured_op_counts(10, kind)
            assert measured.mul_div > 0
            assert measured.add_sub > 0
            assert measured.log >= 10
            assert measured.compare == 9  # argmin over 10 candidates

    def test_instrumented_counts_deterministic(self):
        assert measured_op_counts(8, "aic") == measured_op_counts(8, "aic")
