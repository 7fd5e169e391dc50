"""Shared full-protocol fixtures.

The acceptance criteria and a few operation-level claims need networks
trained at the real protocol scale (8000 samples, 400 epochs).  Each
configuration is trained once per session and shared.  The bit-pinning
digests hold one entry per OpenBLAS core family, and the report names the
core that runs and the package's source line count.  Every property test
draws under one ``hypothesis`` profile: derandomized, with no deadline and
no example database, so each run tests the same examples.
"""

import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

from sourcecount.experiments import (
    ClassicalDetector,
    ExperimentConfig,
    _blas_core,
    evaluate_detectors,
    generate_trials,
    select_features,
    train_detector,
)


settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

SRC = Path(__file__).resolve().parents[1] / "src" / "sourcecount"


def pytest_report_header(config):
    # src LOC counts lines as `wc -l src/sourcecount/*.py` does.
    loc = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    return f"openblas core: {_blas_core() or 'unknown'}, src LOC: {loc}"


def pytest_terminal_summary(terminalreporter, config):
    if terminalreporter.verbosity < 0:  # -q prints no header, so both go last
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(scope="session")
def assert_pinned():
    """Asserts a digest against its entry in ``digests``, which is keyed by
    OpenBLAS core family: the entry of ``core``, by default the core that
    runs.  A core with no entry fails with a message that names it."""
    def check(name, digests, actual, core=_blas_core()):
        if digests.get(core) is None:
            pytest.fail(f"{name} has no entry for OpenBLAS core {core or 'unknown'}. To record "
                        f"one, run this test under that core (OPENBLAS_CORETYPE selects it on "
                        f"x86-64) at a commit whose bits are trusted, and add the digest it "
                        f"computes there under {core!r}; here it computed {actual}.")
        assert actual == digests[core], f"{name} on OpenBLAS core {core}"
    return check


def _train_point(config, kinds, *, subarray_size, coherent, test_snr_db, want):
    start = time.perf_counter()
    trials_train = generate_trials(
        config, phase="train", num=config.num_train, snr_db=tuple(config.train_snr_db),
        coherent=coherent, want=want)
    detectors = {}
    histories = {}
    for kind in kinds:
        feats = select_features(trials_train, kind, subarray_size)
        det, hist = train_detector(config, kind, feats, trials_train.labels,
                                   subarray_size=subarray_size)
        detectors[det.spec.name] = det
        histories[det.spec.name] = hist
    classical = [ClassicalDetector("aic", subarray_size),
                 ClassicalDetector("mdl", subarray_size)]
    trials_test = generate_trials(
        config, phase="test", num=config.num_test, snr_db=test_snr_db,
        coherent=coherent, want=want)
    accuracy = evaluate_detectors(list(detectors.values()) + classical, trials_test)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(config=config, detectors=detectors, histories=histories,
                           accuracy=accuracy, elapsed_seconds=elapsed)


@pytest.fixture(scope="session")
def default_point():
    """N=20 protocol: ERNet/ECNet/CovNet trained mixed-SNR, tested at 5 dB."""
    config = ExperimentConfig(seed=0)
    return _train_point(config, ("ernet", "ecnet", "covnet"), subarray_size=None,
                        coherent=False, test_snr_db=config.test_snr_db,
                        want=("eigen", "cov"))


@pytest.fixture(scope="session")
def snapshot_rich_point():
    """N=100 protocol point: ERNet/ECNet tested at 5 dB."""
    config = ExperimentConfig(seed=0, num_snapshots=100)
    return _train_point(config, ("ernet", "ecnet"), subarray_size=None,
                        coherent=False, test_snr_db=5.0, want=("eigen",))


@pytest.fixture(scope="session")
def coherent_point():
    """Coherent protocol, smoothed features (M0=5), tested at 0 dB."""
    config = ExperimentConfig(seed=0, coherent=True)
    return _train_point(config, ("ernet", "ecnet"), subarray_size=config.subarray_size,
                        coherent=True, test_snr_db=0.0, want=("fbss",))
