"""Monte-Carlo experiment harness.

Reproduces the accuracy experiments at desk scale: labelled dataset
generation (mixed-SNR training draws, fixed-SNR test draws), network
training, accuracy sweeps over snapshot count and SNR for both
non-coherent and coherent sources, and the per-decision complexity
bench.  Everything is reproducible bit-for-bit from (config, seed):
every sample draws from its own RNG stream derived from the master seed
by (role, axis point, sample index), and training/test roles never
share a stream.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .classical import (
    OpCounter,
    OpCounts,
    check_spectra,
    criterion_values,
    measured_op_counts,
    table_op_counts,
)
from .detectors import (
    NET_KINDS,
    Detector,
    DetectorSpec,
    build_detector,
    detector_name,
    feature_kind,
    make_features,
    normalize_features,
)
from .network import TrainConfig, train
from .signal_model import Scenario, normal_count, sample_covariance, snapshot_stack

# Seed-stream roles: disjoint substreams of the master seed.
ROLE_TRAIN, ROLE_TEST, ROLE_INIT, ROLE_SHUFFLE = 0, 1, 2, 3

CLASSICAL_KINDS = ("aic", "mdl")

DEFAULT_SNAPSHOT_AXIS = (5, 10, 20, 50, 100, 200)
DEFAULT_SNR_AXIS_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)

# Attempts at drawing pairwise-distinct DOAs before a draw is abandoned.
_DOA_REDRAW_LIMIT = 100

# Trials per make_features call; a block's temporaries stay near 1 MiB.
_FEATURE_BLOCK = 256

# Snapshot entries (trials x M x N) per stacked synthesis pass: 64 trials
# at M=10, N=20, which keeps its temporaries under 1 MiB.
_SYNTHESIS_ENTRIES = 12800


@dataclass(frozen=True)
class ExperimentConfig:
    """Simulation and training protocol knobs (defaults mirror the
    reference experiments: M=10 antennas, N=20 snapshots, K in [0,5],
    8000 training samples drawn at SNRs uniform in [0, 40] dB, (8,8)
    hidden units, ADAM at 0.001, batch 128, 400 epochs, sub-arrays of
    size 5 for the coherent case)."""

    num_antennas: int = 10
    num_snapshots: int = 20
    max_sources: int = 5
    train_snr_db: tuple[float, float] = (0.0, 40.0)
    test_snr_db: float = 5.0
    num_train: int = 8000
    num_test: int = 2000
    coherent: bool = False
    subarray_size: int = 5
    detectors: tuple[str, ...] | None = None
    snapshot_axis: tuple[int, ...] = DEFAULT_SNAPSHOT_AXIS
    snr_axis_db: tuple[float, ...] = DEFAULT_SNR_AXIS_DB
    epochs: int = 400
    batch_size: int = 128
    learning_rate: float = 0.001
    normalize_features: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.max_sources < self.num_antennas:
            raise ValueError("need 0 <= max_sources < num_antennas")
        if self.num_train < 1 or self.num_test < 1:
            raise ValueError("num_train and num_test must be positive")
        if not 1 <= self.subarray_size <= self.num_antennas:
            raise ValueError(f"subarray_size must lie in [1, {self.num_antennas}], "
                             f"got {self.subarray_size}")
        if len(self.train_snr_db) != 2 or self.train_snr_db[0] > self.train_snr_db[1]:
            raise ValueError("train_snr_db must be a (low, high) pair")
        for snr in (*self.train_snr_db, self.test_snr_db, *self.snr_axis_db):
            if not snr > -math.inf:
                raise ValueError(f"SNRs must be numbers or inf (noise-free), got {snr}")
        for kind in self.detectors or ():
            if kind not in NET_KINDS + CLASSICAL_KINDS:
                raise ValueError(f"unknown detector {kind!r}")

    @property
    def identifiable(self) -> bool:
        """False for coherent draws whose source count can reach the
        sub-array size: the M0 x M0 smoothed covariance they are counted
        on resolves at most M0 - 1 sources."""
        return not self.coherent or self.max_sources < self.subarray_size


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _seed_int(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _draw_doas(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    for _ in range(_DOA_REDRAW_LIMIT):
        doas = rng.uniform(0.0, 2.0 * math.pi, size=k)
        if len(set(doas.tolist())) == k:
            return tuple(doas.tolist())
    raise RuntimeError(
        f"failed to draw pairwise-distinct DOAs after {_DOA_REDRAW_LIMIT} attempts")


def draw_scenario(config: ExperimentConfig, rng: np.random.Generator, *,
                  snr_db) -> Scenario:
    """One random scenario: K uniform over {0..K_max}, DOAs uniform over
    [0, 2pi), SNR fixed or uniform over a (low, high) range.

    In coherent mode the coherent-source count is uniform over
    {0..K-1}; the last sources of the draw are the coherent copies and
    each copies a uniformly chosen independent source.
    """
    k = int(rng.integers(0, config.max_sources + 1))
    doas = _draw_doas(rng, k)
    if isinstance(snr_db, (tuple, list)):
        snr = float(rng.uniform(snr_db[0], snr_db[1]))
    else:
        snr = float(snr_db)
    coherent_map = None
    if config.coherent and k >= 1:
        num_coherent = int(rng.integers(0, k))
        if num_coherent:
            independent = k - num_coherent
            targets = rng.integers(0, independent, size=num_coherent)
            coherent_map = {independent + j: int(t) for j, t in enumerate(targets)}
    return Scenario(
        num_antennas=config.num_antennas,
        num_snapshots=config.num_snapshots,
        num_sources=k,
        doas=doas,
        snr_db=snr,
        coherent_map=coherent_map,
    )


@dataclass
class TrialSet:
    """Features of a batch of scenario draws, one row per trial.

    Each trial's covariance is computed once and shared by every
    feature kind, so detectors evaluated on the same TrialSet see
    paired draws.
    """

    labels: np.ndarray
    num_snapshots: int
    eigen: np.ndarray | None = None
    fbss: np.ndarray | None = None
    cov: np.ndarray | None = None
    subarray_size: int | None = None


def generate_trials(config: ExperimentConfig, *, phase: str, num: int,
                    snr_db, num_snapshots: int | None = None,
                    coherent: bool | None = None, axis_index: int = 0,
                    want=("eigen",)) -> TrialSet:
    """Draws ``num`` scenarios and extracts the requested feature kinds
    (see :func:`~sourcecount.detectors.feature_kind`).

    ``phase`` selects the seed-stream role ("train" or "test"), so the
    two phases can never share draws.  Snapshots and covariances are
    computed a block of trials at a time, bit for bit as one by one.
    """
    role = {"train": ROLE_TRAIN, "test": ROLE_TEST}[phase]
    overrides = {"num_snapshots": num_snapshots, "coherent": coherent}
    config = replace(config, **{key: v for key, v in overrides.items() if v is not None})
    m, m0 = config.num_antennas, config.subarray_size
    widths = {"eigen": m, "fbss": m0, "cov": 2 * m * m}
    unknown = set(want) - set(widths)
    if unknown:
        raise ValueError(f"unknown feature kinds {sorted(unknown)}")
    labels = np.zeros(num, dtype=int)
    feats = {feature: np.zeros((num, widths[feature])) for feature in set(want)}
    covs = np.zeros((min(num, _FEATURE_BLOCK), m, m), dtype=np.complex128)
    n = config.num_snapshots
    step = max(1, _SYNTHESIS_ENTRIES // (m * n))
    # Each trial's draws end at the last column, as snapshot_stack reads them.
    width = 2 * (config.max_sources + m) * n
    normals = np.empty((min(num, step), width))
    for start in range(0, num, _FEATURE_BLOCK):
        stop = min(start + _FEATURE_BLOCK, num)
        for low in range(start, stop, step):
            high = min(low + step, stop)
            scenarios = []
            for i in range(low, high):
                rng = _rng(config.seed, role, axis_index, i)
                scenario = draw_scenario(config, rng, snr_db=snr_db)
                rng.standard_normal(out=normals[i - low, width - normal_count(scenario):])
                scenarios.append(scenario)
                labels[i] = scenario.num_sources
            covs[low - start:high - start] = sample_covariance(
                snapshot_stack(scenarios, normals[:high - low]))
        for feature, rows in feats.items():
            rows[start:stop] = make_features(covs[:stop - start], feature, m0)
    return TrialSet(labels=labels, num_snapshots=config.num_snapshots,
                    subarray_size=m0 if "fbss" in feats else None, **feats)


def select_features(trials: TrialSet, kind: str, subarray_size: int | None,
                     normalize: bool = False) -> np.ndarray:
    """The (num, dim) feature batch that detector ``kind`` reads from
    ``trials``, divided row by row by the covariance trace if
    ``normalize``."""
    feature = feature_kind(kind, subarray_size)
    feats = getattr(trials, feature)
    if feature == "fbss" and feats is not None and trials.subarray_size != subarray_size:
        raise ValueError("trial set was smoothed with a different sub-array size")
    if feats is None:
        raise ValueError(f"trial set lacks the features required by {kind!r}")
    return normalize_features(feats, feature) if normalize else feats


def _targets(spec: DetectorSpec, labels: np.ndarray) -> np.ndarray:
    """Training targets: the count itself for ERNet, one-hot rows otherwise."""
    if labels.size and not 0 <= labels.min() <= labels.max() < spec.num_antennas:
        raise ValueError(f"labels must lie in [0, {spec.num_antennas - 1}]")
    if spec.kind == "ernet":
        return labels[:, np.newaxis].astype(float)
    return np.eye(spec.num_antennas)[labels]


def write_dataset(path, features: np.ndarray, labels: np.ndarray, *,
                  config: ExperimentConfig):
    """One header line (M, N, feature_dim, coherence mode, seed), then
    one comma-separated line per sample: features then integer label."""
    mode = "coherent" if config.coherent else "non-coherent"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"M={config.num_antennas},N={config.num_snapshots},"
            f"feature_dim={features.shape[1]},coherence={mode},seed={config.seed}\n"
        )
        for row, label in zip(features, labels):
            fh.write(",".join(format(v, ".16e") for v in row) + f",{int(label)}\n")


def read_dataset(path) -> tuple[np.ndarray, np.ndarray, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        info = dict(part.split("=", 1) for part in header.split(",") if "=" in part)
        if not info.get("feature_dim", "").isdigit():
            raise ValueError(f"dataset {path} has no key=value header with a feature_dim")
        feature_dim = int(info["feature_dim"])
        feats, labels = [], []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != feature_dim + 1:
                raise ValueError(f"malformed dataset row in {path}")
            feats.append([float(v) for v in parts[:-1]])
            labels.append(int(parts[-1]))
    return np.array(feats), np.array(labels, dtype=int), info


def train_detector(config: ExperimentConfig, kind: str, features: np.ndarray,
                   labels: np.ndarray, *, subarray_size: int | None = None,
                   axis_index: int = 0) -> tuple[Detector, list[float]]:
    """Builds and trains one network detector on prepared features.

    Initialization and shuffling seeds derive from the master seed, the
    axis point, and the detector kind, so retraining is reproducible.
    """
    if kind not in NET_KINDS:
        raise ValueError(f"{kind!r} is not a trainable detector")
    spec = DetectorSpec(
        kind=kind,
        num_antennas=config.num_antennas,
        subarray_size=subarray_size,
        normalize=config.normalize_features,
    )
    ordinal = NET_KINDS.index(kind)
    net = build_detector(spec, _rng(config.seed, ROLE_INIT, axis_index, ordinal))
    train_config = TrainConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        epochs=config.epochs,
        seed=_seed_int(config.seed, ROLE_SHUFFLE, axis_index, ordinal),
    )
    history = train(net, features, _targets(spec, labels), train_config)
    return Detector(spec=spec, net=net, train_config=train_config), history


@dataclass(frozen=True)
class ClassicalDetector:
    """AIC/MDL wrapper evaluated on the same trial features as the nets."""

    kind: str
    subarray_size: int | None = None

    @property
    def name(self) -> str:
        return detector_name(self.kind, self.subarray_size)

    def decide_batch(self, values: np.ndarray, num_snapshots: int) -> np.ndarray:
        """Selected order for each row of a (num, m) batch of spectra,
        validated once for the whole batch as ``EigenSpectrum`` validates
        one spectrum."""
        values = check_spectra(values, num_snapshots)
        return np.argmin(criterion_values(values, num_snapshots, self.kind), axis=1)


def evaluate_detectors(detectors, trials: TrialSet) -> dict[str, float]:
    """Accuracy of each detector over the (paired) trials."""
    results: dict[str, float] = {}
    for det in detectors:
        if isinstance(det, Detector):
            feats = select_features(trials, det.spec.kind, det.spec.subarray_size,
                                     det.spec.normalize)
            predicted = det.decide_batch(feats)
            name = det.spec.name
        else:
            feats = select_features(trials, det.kind, det.subarray_size)
            predicted = det.decide_batch(feats, trials.num_snapshots)
            name = det.name
        results[name] = float(np.mean(predicted == trials.labels))
    return results


@dataclass(frozen=True)
class SweepResult:
    """Per-detector accuracy along one sweep axis."""

    axis: tuple[float, ...]
    detectors: tuple[str, ...]
    accuracy: dict[str, tuple[float, ...]]
    num_trials: int
    seed: int


def _feature_wants(kinds, subarray_size: int | None) -> tuple[str, ...]:
    return tuple(sorted({feature_kind(kind, subarray_size) for kind in kinds}))


def _build_detector_set(config: ExperimentConfig, kinds, trials_train: TrialSet,
                        *, subarray_size: int | None, axis_index: int):
    """Trains the trainable kinds and wraps the classical ones, in order."""
    detectors = []
    for kind in kinds:
        if kind in NET_KINDS:
            feats = select_features(trials_train, kind, subarray_size,
                                     config.normalize_features)
            det, _ = train_detector(config, kind, feats, trials_train.labels,
                                    subarray_size=subarray_size, axis_index=axis_index)
            detectors.append(det)
        else:
            detectors.append(ClassicalDetector(kind, subarray_size))
    return detectors


@dataclass(frozen=True)
class Sweep:
    """A sweep's axis field, source coherence and default detectors."""

    field: str
    coherent: bool
    detectors: tuple[str, ...]


SWEEPS = {
    "sweep-snapshots": Sweep("num_snapshots", False, ("ernet", "ecnet", "aic", "mdl", "covnet")),
    "sweep-snr": Sweep("test_snr_db", False, ("ernet", "ecnet", "aic", "mdl")),
    "sweep-snr-coherent": Sweep("test_snr_db", True, ("ernet", "ecnet", "aic", "mdl")),
}

# The config axis that lists each swept field's values.
_AXES = {"num_snapshots": "snapshot_axis", "test_snr_db": "snr_axis_db"}


def run_sweep(name: str, config: ExperimentConfig) -> SweepResult:
    """Accuracy of each detector along sweep ``name``'s axis.  The nets
    train at the first point, and at every point of an axis the training
    draws read (N); coherent sweeps read smoothed spectra of size M0."""
    sweep = SWEEPS[name]
    config = replace(config, coherent=sweep.coherent)
    kinds = config.detectors or sweep.detectors
    subarray_size = config.subarray_size if sweep.coherent else None
    want = _feature_wants(kinds, subarray_size)
    axis = getattr(config, _AXES[sweep.field])
    detectors, points = None, []
    for ai, value in enumerate(axis):
        config = replace(config, **{sweep.field: value})
        if detectors is None or sweep.field != "test_snr_db":
            trials = generate_trials(config, phase="train", num=config.num_train, want=want,
                                     snr_db=tuple(config.train_snr_db), axis_index=ai)
            detectors = _build_detector_set(config, kinds, trials,
                                            subarray_size=subarray_size, axis_index=ai)
        trials = generate_trials(config, phase="test", num=config.num_test,
                                 snr_db=config.test_snr_db, axis_index=ai, want=want)
        points.append(evaluate_detectors(detectors, trials))
    names = tuple(points[0]) if points else ()
    accuracy = {det: tuple(point[det] for point in points) for det in names}
    return SweepResult(tuple(float(a) for a in axis), names, accuracy,
                       num_trials=config.num_test, seed=config.seed)


def sweep_snapshots(config: ExperimentConfig) -> SweepResult:
    """Accuracy versus snapshot count, non-coherent sources."""
    return run_sweep("sweep-snapshots", config)


def sweep_snr_noncoherent(config: ExperimentConfig) -> SweepResult:
    """Accuracy versus test SNR, non-coherent sources, N fixed."""
    return run_sweep("sweep-snr", config)


def sweep_snr_coherent(config: ExperimentConfig) -> SweepResult:
    """Accuracy versus test SNR, coherent sources, smoothed spectra."""
    return run_sweep("sweep-snr-coherent", config)


# --- Complexity bench ---------------------------------------------------


@dataclass(frozen=True)
class ComplexityRow:
    method: str
    table: OpCounts
    measured: OpCounts
    seconds_per_decision: float


def table_op_counts_network(kind: str, m: int, n1: int, n2: int) -> OpCounts:
    """Published closed-form per-decision counts for the networks."""
    if kind == "ernet":
        return OpCounts(mul_div=m * n1 + n2, add_sub=n1 + n2 + 1, log=0, compare=0)
    if kind == "ecnet":
        return OpCounts(mul_div=m * (n1 + n2), add_sub=n1 + n2 + m, log=0, compare=m)
    raise ValueError(f"no closed-form counts for {kind!r}")


def _measured_op_counts_network(detector: Detector, features) -> OpCounts:
    """Forward pass re-run through the counting wrapper, scalar by
    scalar.  Softmax is skipped (argmax decides), matching the stated
    testing-stage convention; the final rounding/argmax is counted."""
    ops = OpCounter()
    x = [float(v) for v in features]
    for layer in detector.net.layers:
        out = []
        for row, b in zip(layer.weights, layer.bias):
            acc = ops.mul(row[0], x[0])
            for w, v in zip(row[1:], x[1:]):
                acc = ops.add(acc, ops.mul(w, v))
            acc = ops.add(acc, b)
            if layer.activation == "relu":
                acc = acc if ops.less(0.0, acc) else 0.0
            out.append(acc)
        x = out
    if detector.spec.kind == "ernet":
        shifted = ops.add(x[0], 0.5)
        ops.less(shifted, 0.0)
        ops.less(float(detector.spec.num_antennas - 1), shifted)
    else:
        best = x[0]
        for v in x[1:]:
            if ops.less(best, v):
                best = v
    return ops.counts()


def _seconds_per_call(call, trials: int) -> float:
    start = time.perf_counter()
    for _ in range(trials):
        call()
    return (time.perf_counter() - start) / trials


def bench_complexity(config: ExperimentConfig, *,
                     timing_trials: int = 2000) -> list[ComplexityRow]:
    """Closed-form counts, instrumented counts, and wall-clock time per
    decision for ERNet, ECNet, AIC and MDL at the configured array size.

    The shared eigendecomposition is excluded everywhere: timings start
    from a precomputed eigenvalue feature vector, decided by
    ``decide_batch`` as a one-row batch.
    """
    m = config.num_antennas
    rng = _rng(config.seed, ROLE_TEST, 0, 0)
    # Any descending PSD spectrum works; counts and timings do not
    # depend on the values.
    features = np.sort(rng.uniform(0.1, 10.0, size=m))[::-1].copy()
    row = features[np.newaxis]

    rows: list[ComplexityRow] = []
    for kind in ("ernet", "ecnet"):
        spec = DetectorSpec(kind, m)
        det = Detector(spec, build_detector(spec, _rng(config.seed, ROLE_INIT, 0,
                                                       NET_KINDS.index(kind))))
        rows.append(ComplexityRow(
            method=kind,
            table=table_op_counts_network(kind, m, *spec.hidden),
            measured=_measured_op_counts_network(det, features),
            seconds_per_decision=_seconds_per_call(lambda: det.decide_batch(row),
                                                   timing_trials),
        ))
    for kind in CLASSICAL_KINDS:
        det = ClassicalDetector(kind)
        rows.append(ComplexityRow(
            method=kind,
            table=table_op_counts(m, kind),
            measured=measured_op_counts(m, kind),
            seconds_per_decision=_seconds_per_call(
                lambda: det.decide_batch(row, config.num_snapshots), timing_trials),
        ))
    return rows


# --- Files: CSV, config, manifest ---------------------------------------

CSV_HEADER = "axis,detector,accuracy,n_trials,seed"


def emit_csv(result: SweepResult, path):
    """Writes `axis,detector,accuracy,n_trials,seed` rows, one per
    (axis value, detector), UTF-8 with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for i, axis_value in enumerate(result.axis):
            for name in result.detectors:
                fh.write(
                    f"{axis_value:.17g},{name},{result.accuracy[name][i]:.17g},"
                    f"{result.num_trials},{result.seed}\n"
                )


def read_csv(path) -> SweepResult:
    """Parses :func:`emit_csv` output back into an equal SweepResult."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        axis: list[float] = []
        names: list[str] = []
        acc: dict[str, list[float]] = {}
        num_trials = 0
        seed = 0
        for line in fh:
            a, name, value, n_trials, row_seed = line.strip().split(",")
            a = float(a)
            if not axis or a != axis[-1]:
                axis.append(a)
            if name not in acc:
                names.append(name)
                acc[name] = []
            acc[name].append(float(value))
            num_trials = int(n_trials)
            seed = int(row_seed)
    return SweepResult(
        axis=tuple(axis),
        detectors=tuple(names),
        accuracy={name: tuple(vals) for name, vals in acc.items()},
        num_trials=num_trials,
        seed=seed,
    )


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical flat key=value rendering (also the config file format)."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        elif value is None:
            rendered = ""
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ExperimentConfig:
    """Parses the flat key=value config format; unknown keys are errors."""
    known = {f.name: f for f in fields(ExperimentConfig)}
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _convert_config_value(key, raw)
    return ExperimentConfig(**values)


def _convert_config_value(key: str, raw: str):
    if key in ("train_snr_db", "snr_axis_db"):
        return tuple(float(v) for v in raw.split(","))
    if key == "snapshot_axis":
        return tuple(int(v) for v in raw.split(","))
    if key == "detectors":
        return tuple(v.strip() for v in raw.split(",") if v.strip()) or None
    if key in ("coherent", "normalize_features"):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean {raw!r} for {key}")
    if key in ("test_snr_db", "learning_rate"):
        return float(raw)
    return int(raw)


def load_config(path) -> ExperimentConfig:
    return config_from_text(Path(path).read_text(encoding="utf-8"))


def write_manifest(out_dir, config: ExperimentConfig, command: str,
                   extra: dict | None = None) -> Path:
    """Records config hash, seed, versions and whether every drawn source
    count is resolvable (``ExperimentConfig.identifiable``) next to a
    run's outputs."""
    from . import __version__

    text = config_to_text(config)
    doc = {
        "command": command,
        "config": {f.name: getattr(config, f.name) for f in fields(config)},
        "config_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "identifiable": config.identifiable,
        "seed": config.seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sourcecount": __version__,
        },
    }
    if extra:
        doc.update(extra)
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=list) + "\n",
                    encoding="utf-8")
    return path
