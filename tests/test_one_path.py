"""Property tests: one feature path and one decision path per detector.

A single covariance through ``Detector.estimate`` must be decided exactly
as its raw row in a batch through ``select_features`` + ``decide_batch``
(a normalizing detector divides both by the trace itself), and
the batched AIC/MDL must select exactly the order the per-spectrum
criteria select, and the order the operation-counting pass selects.
Every count argument follows one rule, with one message, and so does
every real-valued argument.
"""

import json
import math
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sourcecount.classical import (
    EigenSpectrum,
    OpCounts,
    _criterion_counted,
    _criterion_terms,
    aic,
    criterion_values,
    mdl,
)
from sourcecount.detectors import (NET_KINDS, Detector, DetectorSpec, build_detector, feature_kind,
                                   load_detector, make_features, save_detector)
from sourcecount.linalg import FLOAT_MAX, hermitian_eig
from sourcecount.network import TrainConfig, init_truncated_normal
from sourcecount.signal_model import (
    MIN_SNR_DB,
    fbss_covariance,
    generate_snapshots,
    noise_variance_at,
    sample_covariance,
)
from sourcecount.experiments import (
    MAX_COUNT,
    ClassicalDetector,
    ExperimentConfig,
    bench_complexity,
    generate_trials,
    select_features,
    train_detector,
)

SETTINGS = settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
# An asymmetric matrix at the float edge: |1.5e308 (1 + 1j)| overflows to inf.
FLOAT_EDGE = np.array([[1.0, 1.5e308 * (1 + 1j)], [1e308 * (1 - 1j), 1.0]])


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
    batch = det.decide_batch(select_features(trials, spec.kind, spec.subarray_size))
    covs = [(row[:m * m] + 1j * row[m * m:]).reshape(m, m) for row in trials.cov]
    assert [det.estimate(r) for r in covs] == batch.tolist()


@SETTINGS
@given(spec=accepted_specs(), seed=st.integers(0, 2 ** 16), exponent=st.integers(-320, 300),
       train_config=st.none() | st.builds(TrainConfig, st.floats(0.0, FLOAT_MAX),
                                          st.integers(1, 2 ** 31), st.integers(0, 10 ** 6),
                                          st.integers(0, 2 ** 64)))
def test_model_file_round_trip(tmp_path_factory, spec, seed, exponent, train_config):
    # Weights from subnormal to 1e300 in scale: each float is written as
    # its shortest repr and must read back to the same bits.
    det = Detector(spec, build_detector(spec, np.random.default_rng(seed)), train_config)
    det.net.params *= 10.0 ** exponent
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_detector(det, path)
    loaded = load_detector(path)
    assert loaded.spec == spec and loaded.train_config == train_config
    assert loaded.net.params.tobytes() == det.net.params.tobytes()


@st.composite
def spectra(draw, min_rows=1, zero_rows=False):
    """A (num, m) batch of valid spectra: descending, non-negative, with
    exact zeros and tiny values in the tails. With ``zero_rows``, some rows
    may be all zero; else every row's largest eigenvalue is at least 1e-3."""
    num = draw(st.integers(min_rows, 8))
    m = draw(st.integers(2, 12))
    value = st.one_of(st.just(0.0), st.floats(1e-300, 1e-6), st.floats(1e-6, 1e6))
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=num, max_size=num))
    values = -np.sort(-np.array(rows, dtype=float), axis=1)
    values[:, 0] = np.maximum(values[:, 0], 1e-3)
    if zero_rows:
        values[draw(st.lists(st.booleans(), min_size=num, max_size=num))] = 0.0
    return values


# Snapshot counts with N = 1 (MDL's penalty is 0) and N = 2 among the draws.
SNAPSHOT_COUNTS = st.one_of(st.sampled_from([1, 2]), st.integers(1, 100000))


@st.composite
def penalty_spectra(draw):
    """A (spectra, N) pair where the penalty decides the order. Each row has K signal
    eigenvalues 1 + t sqrt(m L / N), t in [0, 2], over a noise floor of 1 with a jitter
    of order 1 / sqrt(N). L is 8 (the AIC scale) or 2 ln N (the MDL scale), so a weak
    signal's fit gain, about t^2 m L / 2, is of the size of a penalty step, and a penalty
    off by a term or a factor moves the order."""
    num_snapshots = draw(SNAPSHOT_COUNTS)
    num, m = draw(st.integers(1, 8)), draw(st.integers(2, 12))
    scale = 1.0 / math.sqrt(num_snapshots)
    jitter = min(draw(st.floats(0.0, 2.0)) * scale, 0.5)
    rows = []
    for _ in range(num):
        k = draw(st.integers(0, m - 1))
        level = draw(st.sampled_from([8.0, 2.0 * max(math.log(num_snapshots), 1.0)]))
        signal = draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k))
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=m - k, max_size=m - k))
        rows.append([1.0 + scale * math.sqrt(m * level) * t for t in signal]
                    + [1.0 + jitter * e for e in noise])
    return -np.sort(-np.array(rows), axis=1), num_snapshots


# Spectra with zero tails and all-zero rows, or spectra whose order the penalty decides.
# A wrong penalty moves the order in roughly one penalty example in seven, hence the
# larger example count.
SPECTRA_AND_COUNTS = st.one_of(st.tuples(spectra(zero_rows=True), SNAPSHOT_COUNTS),
                               penalty_spectra())
CRITERION_SETTINGS = settings(SETTINGS, max_examples=200)


@CRITERION_SETTINGS
@given(case=SPECTRA_AND_COUNTS, kind=st.sampled_from(["aic", "mdl"]))
def test_classical_batch_equals_per_spectrum(case, kind):
    values, num_snapshots = case
    criterion = aic if kind == "aic" else mdl
    per_row = [criterion(EigenSpectrum(row, num_snapshots)).order for row in values]
    batch = ClassicalDetector(kind).decide_batch(values, num_snapshots)
    assert batch.tolist() == per_row


@SETTINGS
@given(values=spectra(), num_snapshots=st.integers(1, 100000),
       kind=st.sampled_from(["aic", "mdl"]))
def test_cached_criterion_terms_keep_the_bits(values, num_snapshots, kind):
    # The formula as written before its constants were cached.
    m = values.shape[1]
    k = np.arange(m, dtype=float)
    counts = np.arange(m, 0, -1, dtype=float)
    if kind == "aic":
        scale, penalty = 2.0, 2.0 * k * (2 * m - k)
    else:
        scale, penalty = 1.0, 0.5 * k * (2 * m - k) * math.log(num_snapshots)
    lam = np.maximum(values, 1e-300)
    tail_sum = lam[:, ::-1].cumsum(axis=1)[:, ::-1]
    tail_log_sum = np.log(lam)[:, ::-1].cumsum(axis=1)[:, ::-1]
    log_mean_ratio = tail_log_sum / counts - np.log(tail_sum / counts)
    expected = -scale * num_snapshots * counts * log_mean_ratio + penalty
    for snapshots in (num_snapshots, np.int64(num_snapshots)):
        got = criterion_values(values, snapshots, kind)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["aic", "mdl"])
def test_cached_criterion_terms_are_read_only(kind):
    for term in _criterion_terms(6, 20, kind):
        assert not term.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            term[0] = 0.0


@pytest.mark.parametrize("kind, subarray_size", [
    ("ernet", None), ("ecnet", None), ("covnet", None), ("ernet", 5), ("ecnet", 5)])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("num_snapshots", [20, 3])  # 3 < M: the PSD clamp fires
def test_estimate_enters_errstate_at_most_once(monkeypatch, kind, subarray_size,
                                                normalize, num_snapshots):
    spec = DetectorSpec(kind, 10, subarray_size, normalize=normalize)
    det = Detector(spec, build_detector(spec, np.random.default_rng(4)))
    rng = np.random.default_rng(5)
    r = sample_covariance(generate_snapshots(10, num_snapshots, (0.3, 1.1), (), 5.0, rng))
    errstate, entries = np.errstate, []

    def counting_errstate(**kwargs):
        entries.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counting_errstate)
    det.estimate(r)
    assert len(entries) <= 1


def _detectors(m: int, subarray_size: int, normalize: bool = False) -> list[Detector]:
    """An untrained detector of every net kind, and the smoothed ERNet and ECNet."""
    specs = [DetectorSpec(kind, m, normalize=normalize) for kind in NET_KINDS]
    specs += [DetectorSpec(kind, m, subarray_size, normalize) for kind in ("ernet", "ecnet")]
    return [Detector(spec, build_detector(spec, np.random.default_rng(6))) for spec in specs]


def test_every_kind_reads_a_covariance_as_complex128():
    # An object or string matrix goes through the same complex128 conversion for every
    # feature, so each kind answers as it does for the complex matrix or raises one ValueError.
    obj = np.eye(3).astype(object)
    with_none, with_str = obj.copy(), obj.copy()
    with_none[0, 1], with_str[0, 1] = None, "a"
    for det in _detectors(3, 2):
        assert det.estimate(obj) == det.estimate(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="^matrix has non-finite entries"):
            det.estimate(with_none)
        for bad in (with_str, np.full((3, 3), "a")):
            with pytest.raises(ValueError, match="malformed string"):
                det.estimate(bad)


def test_a_matrix_too_large_and_not_hermitian_is_reported_as_not_hermitian(recwarn):
    # check_hermitian runs before the overflow test everywhere, so every path names the
    # same fault, and none warns on the way.  At the float edge, where |A| overflows,
    # it compares the stack after an exact scale by 1/4.
    huge = 1e200 * np.eye(4, dtype=complex)
    huge[0, 1] = 1e199
    for r in (huge, FLOAT_EDGE):
        calls = [lambda: hermitian_eig(r), lambda: make_features(r[np.newaxis], "eigen"),
                 lambda: make_features(r[np.newaxis], "fbss", 1),
                 lambda: make_features(r[np.newaxis], "fbss", 2),
                 lambda: make_features(r[np.newaxis], "cov")]
        calls += [lambda det=det: det.estimate(r) for det in _detectors(len(r), 2)]
        for call in calls:
            with pytest.raises(ValueError, match="^matrix is not Hermitian"):
                call()
    assert not recwarn.list


def _valid_covariances(m: int, num: int) -> list[np.ndarray]:
    x = np.random.default_rng(m).standard_normal((num, m, 4 * m)).view(np.complex128)
    return list(sample_covariance(x))


@st.composite
def covariances(draw):
    """A sample covariance scaled by 10**e for e in [-320, 308], perhaps given a NaN
    or inf entry, or an entry offset by 1e-12 to 1 of its size (or of 1), which on
    the diagonal keeps it Hermitian and elsewhere makes it asymmetric."""
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(1, 2 * m))  # n < m: rank deficient, so the PSD clamp fires
    r = sample_covariance(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    fault = draw(st.sampled_from(["none", "nan", "inf", "asymmetric"]))
    with np.errstate(over="ignore"):  # an entry past FLOAT_MAX becomes inf, a fault of its own
        r *= 10.0 ** draw(st.integers(-320, 308))
        if fault == "asymmetric":
            size = min(max(abs(r[i, j]), 1.0), FLOAT_MAX)
            r[i, j] += draw(st.sampled_from([1e-12, 1e-9, 1e-3, 1.0])) * size
    if fault in ("nan", "inf"):
        r[i, j] = math.nan if fault == "nan" else complex(0.0, -math.inf)
    return r


@settings(max_examples=100)
@given(r=covariances(), row=st.integers(0, 3), subarray_size=st.integers(1, 6))
@example(r=FLOAT_EDGE, row=1, subarray_size=1)
@example(r=FLOAT_EDGE, row=0, subarray_size=2)
def test_estimate_agrees_with_its_row_of_a_batch_or_raises_alike(r, row, subarray_size):
    # A differential oracle for every decision path: estimate(r) is the decision of r's
    # row in a stack among valid covariances, or both raise the same ValueError.
    m = r.shape[0]
    others = _valid_covariances(m, 3)
    stack = np.stack(others[:row] + [r] + others[row:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for normalize in (False, True):
            for det in _detectors(m, min(subarray_size, m), normalize):
                spec = det.spec
                feature = feature_kind(spec.kind, spec.subarray_size)
                try:
                    expected = det.decide_batch(make_features(stack, feature, spec.subarray_size))
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        det.estimate(r)
                    assert str(got.value) == str(exc), spec
                else:
                    assert det.estimate(r) == expected[row], spec


# A row below TINY_SPECTRUM by an exact power of two: both passes rescale it.
TINY_ROWS = np.array([[2.0 ** -600, 2.0 ** -700, 2.0 ** -1000], [3.0, 2.0, 1.0]])


@CRITERION_SETTINGS
@given(case=SPECTRA_AND_COUNTS, kind=st.sampled_from(["aic", "mdl"]))
@example(case=(TINY_ROWS, 20), kind="aic")
@example(case=(TINY_ROWS, 20), kind="mdl")
def test_counted_criterion_equals_batch(case, kind):
    # The scalar pass behind bench_complexity's counts must pick what the batch
    # core picks, or the counts describe a different decision.
    values, num_snapshots = case
    batch = np.argmin(criterion_values(values, num_snapshots, kind), axis=1)
    counted = [_criterion_counted(row.tolist(), num_snapshots, kind, OpCounts())
               for row in values]
    assert counted == batch.tolist()


@SETTINGS
@given(values=spectra(min_rows=2), data=st.data(),
       fault=st.sampled_from(["negative", "unsorted"]))
def test_one_bad_row_rejects_the_batch(values, data, fault):
    i = data.draw(st.integers(0, values.shape[0] - 1))
    bad = values.copy()
    if fault == "negative":
        bad[i, -1] = -1e-3
    else:
        bad[i, -1] = bad[i, 0] * 2.0
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


def test_classical_kind_is_checked_when_built():
    for kind in ("aicc", "MDL", ""):
        with pytest.raises(ValueError, match="unknown criterion kind"):
            ClassicalDetector(kind)


@pytest.mark.parametrize("num_snapshots", [True, np.bool_(True), 2.5, 20.0, np.float64(20.0), "20"])
def test_snapshot_count_must_be_an_integer_of_at_least_1(num_snapshots):
    good = np.array([[3.0, 2.0, 1.0]])
    with pytest.raises(ValueError, match="num_snapshots must be an integer"):
        ClassicalDetector("mdl").decide_batch(good, num_snapshots)
    with pytest.raises(ValueError, match="num_snapshots must be an integer"):
        EigenSpectrum(good[0], num_snapshots)


def test_numpy_integer_snapshot_count_is_accepted():
    good = np.array([[3.0, 2.0, 1.0]])
    for kind in ("aic", "mdl"):
        assert (ClassicalDetector(kind).decide_batch(good, np.int64(20)).tolist()
                == ClassicalDetector(kind).decide_batch(good, 20).tolist())
    assert EigenSpectrum(good[0], np.int32(20)).num_snapshots == 20


def _snapshots(**kwargs):
    """generate_snapshots with K=2 sources, the second a copy of the first."""
    args = dict(num_antennas=4, num_snapshots=3, doas=(0.1, 0.7), targets=(0,), snr_db=5.0,
                rng=np.random.default_rng(0))
    return generate_snapshots(**args | kwargs)


# Every count argument of the package: the call that passes it, its name, and
# its bounds [low, high] (high None: unbounded).  Each goes through check_count.
COUNT_SITES = {
    "DetectorSpec.num_antennas": (lambda v: DetectorSpec("ernet", v), "num_antennas", 2, None),
    "DetectorSpec.subarray_size": (lambda v: DetectorSpec("ernet", 6, v), "subarray_size", 1, 6),
    "ClassicalDetector.subarray_size": (lambda v: ClassicalDetector("mdl", v),
                                        "subarray_size", 1, None),
    "ExperimentConfig.num_antennas": (
        lambda v: ExperimentConfig(num_antennas=v, max_sources=0, subarray_size=1),
        "num_antennas", 2, MAX_COUNT),
    **{f"ExperimentConfig.{name}": (lambda v, name=name: ExperimentConfig(**{name: v}),
                                    name, low, high)
       for name, low, high in [("num_snapshots", 1, MAX_COUNT), ("num_train", 1, MAX_COUNT),
                               ("num_test", 1, MAX_COUNT), ("max_sources", 0, 9),
                               ("subarray_size", 1, 10), ("seed", 0, None),
                               ("epochs", 0, None), ("batch_size", 1, None)]},
    "ExperimentConfig.snapshot_axis": (lambda v: ExperimentConfig(snapshot_axis=(5, v)),
                                       "snapshot_axis", 1, MAX_COUNT),
    "generate_trials.num": (lambda v: generate_trials(ExperimentConfig(), phase="test", num=v,
                                                      snr_db=5.0), "num", 0, MAX_COUNT),
    "generate_trials.axis_index": (
        lambda v: generate_trials(ExperimentConfig(), phase="test", num=2, snr_db=5.0,
                                  axis_index=v), "axis_index", 0, None),
    "train_detector.axis_index": (
        lambda v: train_detector(ExperimentConfig(epochs=1), "ernet", np.ones((2, 10)),
                                 np.zeros(2, dtype=int), axis_index=v), "axis_index", 0, None),
    "generate_snapshots.num_antennas": (lambda v: _snapshots(num_antennas=v),
                                        "num_antennas", 3, None),
    "generate_snapshots.num_snapshots": (lambda v: _snapshots(num_snapshots=v),
                                         "num_snapshots", 1, None),
    "generate_snapshots.targets": (lambda v: _snapshots(targets=(v,)), "targets", 0, 0),
    "fbss_covariance.subarray_size": (lambda v: fbss_covariance(np.eye(4), v),
                                      "subarray_size", 1, 4),
    "make_features.subarray_size": (lambda v: make_features(np.eye(4)[np.newaxis], "fbss", v),
                                    "subarray_size", 1, 4),
    "EigenSpectrum.num_snapshots": (lambda v: EigenSpectrum([3.0, 1.0], v),
                                    "num_snapshots", 1, None),
    "ClassicalDetector.decide_batch.num_snapshots": (
        lambda v: ClassicalDetector("aic").decide_batch(np.array([[3.0, 1.0]]), v),
        "num_snapshots", 1, None),
    "bench_complexity.timing_trials": (
        lambda v: bench_complexity(ExperimentConfig(), timing_trials=v), "timing_trials", 1, None),
    **{f"TrainConfig.{name}": (lambda v, name=name: TrainConfig(**{name: v}), name, low, None)
       for name, low in [("batch_size", 1), ("epochs", 0), ("seed", 0)]},
    "init_truncated_normal.fan_in": (
        lambda v: init_truncated_normal((2, v), np.random.default_rng(0)), "fan_in", 1, None),
}
# AIC and MDL compare at least two smoothed eigenvalues, a rule of their own
# (feature_kind), so a sub-array size of 1 passes the count check and fails that.
LOWEST_ACCEPTED = {"ClassicalDetector.subarray_size": 2}


@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_rejects_non_integers_and_values_out_of_range(site):
    call, name, low, high = COUNT_SITES[site]
    for value in [2.5, True, np.bool_(True), "3", low - 1] + ([] if high is None else [high + 1]):
        with pytest.raises(ValueError, match=fr"^{name} must be an integer in \["):
            call(value)


@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_accepts_a_numpy_integer_at_its_bounds(site):
    call, _, low, high = COUNT_SITES[site]
    for bound in [LOWEST_ACCEPTED.get(site, low)] + ([] if high is None else [high]):
        if bound <= 64 or site.startswith("ExperimentConfig"):  # no larger array is allocated
            call(np.int64(bound))


def _load_model(learning_rate):
    """The detector in a model file whose train_config carries ``learning_rate``, or the
    ValueError of its reader without the ``model file <path>: `` prefix.  JSON has no form
    for a numpy bool or a complex, written as the string of its repr, nor for inf, written
    as 1e400, which the reader parses as inf."""
    spec = DetectorSpec("ernet", 3)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "model.json"
        save_detector(Detector(spec, build_detector(spec, np.random.default_rng(0)),
                               TrainConfig()), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["train_config"]["learning_rate"] = learning_rate
        text = json.dumps(doc, default=lambda v: float(v) if isinstance(v, np.floating)
                          else repr(v))
        path.write_text(text.replace("Infinity", "1e400"), encoding="utf-8")
        try:
            return load_detector(path)
        except ValueError as exc:
            prefix = f"model file {path}: "
            assert str(exc).startswith(prefix), str(exc)
            raise ValueError(str(exc)[len(prefix):]) from exc


# Every real-valued argument of the package: the call that passes it, its name, its
# bounds [low, high], and where the call stores the value (None: it keeps nothing).
# Each goes through check_real.
REAL_SITES = {
    "noise_variance_at.snr_db": (noise_variance_at, "snr_db", MIN_SNR_DB, math.inf, None),
    "generate_snapshots.snr_db": (lambda v: _snapshots(snr_db=v), "snr_db", MIN_SNR_DB,
                                  math.inf, None),
    "generate_snapshots.doas": (lambda v: _snapshots(doas=(0.1, v)), "doas", -FLOAT_MAX,
                                FLOAT_MAX, None),
    "generate_trials.snr_db": (lambda v: generate_trials(ExperimentConfig(), phase="test", num=2,
                                                         snr_db=v), "snr_db", MIN_SNR_DB,
                               math.inf, None),
    "generate_trials.snr_db low": (
        lambda v: generate_trials(ExperimentConfig(), phase="train", num=2,
                                  snr_db=(v, FLOAT_MAX)), "snr_db", MIN_SNR_DB, FLOAT_MAX, None),
    "generate_trials.snr_db high": (
        lambda v: generate_trials(ExperimentConfig(), phase="train", num=2, snr_db=(0.0, v)),
        "snr_db", 0.0, FLOAT_MAX, None),
    "ExperimentConfig.test_snr_db": (lambda v: ExperimentConfig(test_snr_db=v), "test_snr_db",
                                     MIN_SNR_DB, math.inf, lambda c: c.test_snr_db),
    "ExperimentConfig.train_snr_db low": (
        lambda v: ExperimentConfig(train_snr_db=(v, FLOAT_MAX)), "train_snr_db", MIN_SNR_DB,
        FLOAT_MAX, lambda c: c.train_snr_db[0]),
    "ExperimentConfig.train_snr_db high": (
        lambda v: ExperimentConfig(train_snr_db=(0.0, v)), "train_snr_db", 0.0, FLOAT_MAX,
        lambda c: c.train_snr_db[1]),
    "ExperimentConfig.snr_axis_db": (lambda v: ExperimentConfig(snr_axis_db=(5.0, v)),
                                     "snr_axis_db", MIN_SNR_DB, math.inf,
                                     lambda c: c.snr_axis_db[1]),
    "ExperimentConfig.learning_rate": (lambda v: ExperimentConfig(learning_rate=v),
                                       "learning_rate", 0.0, FLOAT_MAX,
                                       lambda c: c.learning_rate),
    "TrainConfig.learning_rate": (lambda v: TrainConfig(learning_rate=v), "learning_rate", 0.0,
                                  FLOAT_MAX, lambda c: c.learning_rate),
    "load_detector.learning_rate": (_load_model, "learning_rate", 0.0, FLOAT_MAX,
                                    lambda loaded: loaded.train_config.learning_rate),
}
# At the lowest SNR the noise variance is finite, but a covariance of that noise is not:
# the value passes the rule, and the draw then fails naming snr_db.
OVERFLOWS_AFTER_THE_DRAW = {"generate_trials.snr_db"}
# JSON has no NaN: a model file that writes one is refused by its reader, before any field.
NO_NAN = {"load_detector.learning_rate"}


def _float32_within(bound, low, high):
    """The float32 nearest ``bound`` inside [low, high]."""
    with np.errstate(over="ignore"):  # a bound past the float32 range
        value = np.float32(bound)
    return value if low <= float(value) <= high else np.nextafter(value, np.float32(0.0))


@pytest.mark.parametrize("site", REAL_SITES)
def test_real_rejects_non_reals_and_values_out_of_range(site):
    call, name, low, high, _ = REAL_SITES[site]
    past = [math.nextafter(low, -math.inf)] + ([] if high == math.inf else [math.inf])
    for value in [True, np.bool_(True), "5", None, 1j, 10**400, math.nan, *past]:
        if value is math.nan and site in NO_NAN:
            with pytest.raises(ValueError, match="^non-finite number NaN"):
                call(value)
            continue
        with pytest.raises(ValueError, match=fr"^{name} must be a real number in \["):
            call(value)


@pytest.mark.parametrize("site", REAL_SITES)
def test_real_accepts_a_float32_at_its_bounds(site):
    call, name, low, high, stored = REAL_SITES[site]
    for bound in (low, high):
        value = _float32_within(bound, low, high)
        if bound == low and site in OVERFLOWS_AFTER_THE_DRAW:
            with pytest.raises(ValueError, match=fr"^{name} -3082.5\d* is too low"):
                call(value)
            continue
        result = call(value)
        if stored is not None:
            assert type(stored(result)) is float and stored(result) == float(value)


def test_min_snr_db_is_the_lowest_snr_whose_noise_variance_is_finite():
    assert math.isfinite(noise_variance_at(MIN_SNR_DB))
    with pytest.raises(ValueError, match=r"^snr_db must be a real number in \["):
        noise_variance_at(math.nextafter(MIN_SNR_DB, -math.inf))
    with pytest.raises(OverflowError):  # the formula itself, one float lower
        10.0 ** (-math.nextafter(MIN_SNR_DB, -math.inf) / 10.0)


def test_every_config_field_follows_a_checked_rule():
    # A new field must join a rule: a count, a real, or one of the fields checked by type.
    by_type = {"coherent", "normalize_features", "detectors"}
    sites = [site.split()[0] for site in [*COUNT_SITES, *REAL_SITES]]
    ruled = {site.split(".", 1)[1] for site in sites if site.startswith("ExperimentConfig.")}
    assert {f.name for f in fields(ExperimentConfig)} == ruled | by_type
    assert not ruled & by_type
