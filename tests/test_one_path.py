"""Property tests: one feature path and one decision path per detector.

A single covariance through ``Detector.estimate`` must be decided exactly
as its row in a batch through ``select_features`` + ``decide_batch``, and
the batched AIC/MDL must select exactly the order the per-spectrum
criteria select, and the order the operation-counting pass selects.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sourcecount.classical import (
    EigenSpectrum,
    OpCounter,
    _criterion_counted,
    aic,
    criterion_values,
    mdl,
)
from sourcecount.detectors import NET_KINDS, Detector, DetectorSpec, build_detector
from sourcecount.experiments import (
    ClassicalDetector,
    ExperimentConfig,
    generate_trials,
    select_features,
)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


@st.composite
def accepted_specs(draw):
    """Every (kind, M, M0, normalize) that DetectorSpec accepts."""
    m = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(NET_KINDS))
    subarray_size = draw(st.one_of(st.none(), st.integers(1, m)))
    normalize = draw(st.booleans())
    try:
        return DetectorSpec(kind, m, subarray_size=subarray_size, normalize=normalize)
    except ValueError:
        assume(False)


@SETTINGS
@given(spec=accepted_specs(), seed=st.integers(0, 2 ** 16), coherent=st.booleans(),
       snr_db=st.sampled_from([0.0, 5.0, 40.0]))
def test_estimate_equals_batch_decision(spec, seed, coherent, snr_db):
    m = spec.num_antennas
    config = ExperimentConfig(num_antennas=m, max_sources=min(5, m - 1), seed=seed,
                              coherent=coherent, subarray_size=spec.subarray_size or m)
    trials = generate_trials(config, phase="test", num=12, snr_db=snr_db,
                             want=("eigen", "fbss", "cov"))
    det = Detector(spec, build_detector(spec, np.random.default_rng(seed)))
    batch = det.decide_batch(select_features(trials, spec.kind, spec.subarray_size,
                                             spec.normalize))
    covs = [(row[:m * m] + 1j * row[m * m:]).reshape(m, m) for row in trials.cov]
    assert [det.estimate(r) for r in covs] == batch.tolist()


@st.composite
def spectra(draw, min_rows=1):
    """A (num, m) batch of valid spectra: descending, non-negative, with
    exact zeros and tiny values, no row all zero."""
    num = draw(st.integers(min_rows, 8))
    m = draw(st.integers(2, 12))
    value = st.one_of(st.just(0.0), st.floats(1e-300, 1e-6), st.floats(1e-6, 1e6))
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=num, max_size=num))
    values = -np.sort(-np.array(rows, dtype=float), axis=1)
    values[:, 0] = np.maximum(values[:, 0], 1e-3)
    return values


@SETTINGS
@given(values=spectra(), num_snapshots=st.integers(1, 100000),
       kind=st.sampled_from(["aic", "mdl"]))
def test_classical_batch_equals_per_spectrum(values, num_snapshots, kind):
    criterion = aic if kind == "aic" else mdl
    per_row = [criterion(EigenSpectrum(row, num_snapshots)).order for row in values]
    batch = ClassicalDetector(kind).decide_batch(values, num_snapshots)
    assert batch.tolist() == per_row


@SETTINGS
@given(values=spectra(), num_snapshots=st.integers(1, 1000),
       kind=st.sampled_from(["aic", "mdl"]))
def test_counted_criterion_equals_batch(values, num_snapshots, kind):
    # The scalar pass behind measured_op_counts must pick what the batch
    # core picks, or the counts describe a different decision.
    batch = np.argmin(criterion_values(values, num_snapshots, kind), axis=1)
    counted = [_criterion_counted(row.tolist(), num_snapshots, kind, OpCounter())
               for row in values]
    assert counted == batch.tolist()


@SETTINGS
@given(values=spectra(min_rows=2), data=st.data(),
       fault=st.sampled_from(["negative", "unsorted", "all-zero"]))
def test_one_bad_row_rejects_the_batch(values, data, fault):
    i = data.draw(st.integers(0, values.shape[0] - 1))
    bad = values.copy()
    if fault == "negative":
        bad[i, -1] = -1e-3
    elif fault == "unsorted":
        bad[i, -1] = bad[i, 0] * 2.0
    else:
        bad[i] = 0.0
    for kind in ("aic", "mdl"):
        with pytest.raises(ValueError):
            ClassicalDetector(kind).decide_batch(bad, 20)


def test_batch_shape_and_snapshot_count_are_validated():
    good = np.array([[3.0, 2.0, 1.0]])
    with pytest.raises(ValueError, match="m >= 2"):
        ClassicalDetector("mdl").decide_batch(np.array([[1.0], [1.0]]), 20)
    with pytest.raises(ValueError, match="m >= 2"):
        ClassicalDetector("mdl").decide_batch(good[0], 20)
    with pytest.raises(ValueError, match="num_snapshots"):
        ClassicalDetector("aic").decide_batch(good, 0)
    with pytest.raises(ValueError, match="unknown criterion"):
        ClassicalDetector("bic").decide_batch(good, 20)
