"""Tests for the AIC/MDL criteria."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sourcecount.classical import (
    EigenSpectrum,
    aic,
    criterion_values,
    mdl,
)
from sourcecount.detectors import make_features
from sourcecount.experiments import ClassicalDetector
from sourcecount.signal_model import generate_snapshots, sample_covariance


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


class TestExtremeScales:
    """Tiny (subnormal) and huge spectra: an order, or a clear error, never
    a RuntimeWarning."""

    @pytest.mark.parametrize("level", [5e-324, 1e-310, 1e-300, 1e300, 5e307])
    @pytest.mark.parametrize("kind", ["aic", "mdl"])
    def test_equal_eigenvalues_give_zero(self, level, kind):
        criterion = aic if kind == "aic" else mdl
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert criterion(EigenSpectrum([level] * 3, 10)).order == 0
            assert ClassicalDetector(kind).decide_batch([[level] * 3], 10).tolist() == [0]

    @pytest.mark.parametrize("values", [[1e308] * 3, [1.5e308, 1e308, 0.0], [9e307] * 2])
    @pytest.mark.parametrize("kind", ["aic", "mdl"])
    def test_overflowing_sum_rejected(self, values, kind):
        criterion = aic if kind == "aic" else mdl
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="finite"):
                criterion(EigenSpectrum(values, 10))
            with pytest.raises(ValueError, match="finite"):
                ClassicalDetector(kind).decide_batch([[3.0, 2.0, 1.0][:len(values)], values], 10)

    def test_scaled_spectrum_keeps_its_order(self):
        # Scaling by a power of two is exact, so the criteria see the same
        # ratios from subnormal scale to the edge of overflow.
        values = np.array([8.0, 4.0, 1.0, 0.5, 0.5, 0.25])
        for kind, criterion in (("aic", aic), ("mdl", mdl)):
            base = criterion(EigenSpectrum(values, 50)).order
            assert base == 3
            for exponent in (-1060, -1040, -1000, -990, -500, 500, 1000, 1018):
                scaled = np.ldexp(values, exponent)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    assert criterion(EigenSpectrum(scaled, 50)).order == base

    @settings(max_examples=80)
    @given(values=st.lists(st.builds(math.ldexp, st.floats(1.0, 2.0), st.integers(-20, 19)),
                           min_size=2, max_size=10),
           num_snapshots=st.integers(2, 1000),
           # The bottom of the range, where a floor would bite, gets its own draw.
           exponent=st.integers(-1000, 990) | st.integers(-1000, -960),
           kind=st.sampled_from(["aic", "mdl"]))
    def test_order_is_invariant_under_power_of_two_scaling(self, values, num_snapshots,
                                                           exponent, kind):
        # Every scaled value stays normal, so the scaling is exact and the
        # spectrum keeps its shape; only the criterion's rounding moves.
        # Near-ties, where that rounding (~1e-9 here) can pick either
        # order, are skipped.
        values = np.sort(values)[::-1]
        base = criterion_values(values[np.newaxis], num_snapshots, kind)[0]
        best, second = np.sort(base)[:2]
        assume(second - best > 1e-6)
        scaled = ClassicalDetector(kind).decide_batch([np.ldexp(values, exponent)],
                                                      num_snapshots)
        assert scaled.tolist() == [int(base.argmin())]


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
        r = sample_covariance(generate_snapshots(10, 1000, doas, (), 20.0,
                                                 np.random.default_rng(0)))
        spec = EigenSpectrum(make_features(r[np.newaxis], "eigen")[0], 1000)
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

    @pytest.mark.parametrize("num_snapshots", [1, 2, 100])
    @pytest.mark.parametrize("m", range(2, 17))
    def test_all_zero_spectrum_selects_zero(self, m, num_snapshots):
        # A noise-free K = 0 covariance. It reads as flat: fit 0 at every order,
        # so each value is the penalty alone (all 0 for MDL at N = 1; ties go to 0).
        spec = EigenSpectrum(np.zeros(m), num_snapshots)
        flat = EigenSpectrum(np.ones(m), num_snapshots)
        for criterion in (aic, mdl):
            trace = criterion(spec)
            assert trace.order == 0
            assert trace.values.tobytes() == criterion(flat).values.tobytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown criterion kind 'bic'$"):
            criterion_values(np.array([[3.0, 2.0, 1.0]]), 20, "bic")

    def test_deterministic(self):
        values = np.sort(np.random.default_rng(0).uniform(0.1, 5.0, 6))[::-1]
        spec = EigenSpectrum(values, 33)
        assert aic(spec).order == aic(spec).order
        assert np.array_equal(aic(spec).values, aic(spec).values)
