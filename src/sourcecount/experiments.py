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

import ctypes
import hashlib
import itertools
import json
import math
import platform
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .classical import OpCounter, OpCounts, measured_op_counts, table_op_counts
from .detectors import (
    CLASSICAL_KINDS,
    NET_KINDS,
    ClassicalDetector,
    Detector,
    DetectorSpec,
    build_detector,
    feature_kind,
    make_features,
    normalize_features,
)
from .linalg import FLOAT_MAX, check_count, check_real
from .network import TrainConfig, train
from .signal_model import MIN_SNR_DB, noise_variance_at, sample_covariance, snapshot_stack

# Seed-stream roles: disjoint substreams of the master seed.
ROLE_TRAIN, ROLE_TEST, ROLE_INIT, ROLE_SHUFFLE = 0, 1, 2, 3

DEFAULT_SNAPSHOT_AXIS = (5, 10, 20, 50, 100, 200)
DEFAULT_SNR_AXIS_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)

# numpy's largest array dimension: the bound on every count that sizes an array.
MAX_COUNT = int(np.iinfo(np.intp).max)

# Trials per make_features call; a block's temporaries stay near 1 MiB.
_FEATURE_BLOCK = 256

# Snapshot entries (trials x M x N) per stacked synthesis pass: 64 trials
# at M=10, N=20, which keeps its temporaries under 1 MiB.
_SYNTHESIS_ENTRIES = 12800


@dataclass(frozen=True)
class ExperimentConfig:
    """Simulation and training protocol knobs (defaults mirror the
    reference experiments: M=10 antennas, N=20 snapshots, K in [0,5],
    8000 training samples drawn at SNRs uniform in [0, 40] dB, ADAM at
    0.001, batch 128, 400 epochs, sub-arrays of size 5 for the coherent
    case)."""

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
        for f in fields(self):  # the types _convert_config_value parses into; numbers below
            value, default = getattr(self, f.name), f.default
            if isinstance(default, tuple) or default is None and value is not None:
                if not isinstance(value, (tuple, list)):
                    raise ValueError(f"{f.name} must be a tuple or list, got {value!r}")
                object.__setattr__(self, f.name, tuple(value))
            elif isinstance(default, bool) and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be a bool, got {value!r}")

        def store(name, value):  # a Python int or float: JSON has no numpy scalars
            object.__setattr__(self, name, value)
            return value

        m = store("num_antennas", check_count("num_antennas", self.num_antennas, 1, MAX_COUNT))
        # Every count that sizes an array stops at numpy's largest dimension.
        for name, low, high in (("num_snapshots", 1, MAX_COUNT), ("num_train", 1, MAX_COUNT),
                                ("num_test", 1, MAX_COUNT), ("max_sources", 0, m - 1),
                                ("subarray_size", 1, m), ("seed", 0, math.inf)):
            store(name, check_count(name, getattr(self, name), low, high))
        store("snapshot_axis", tuple(check_count("snapshot_axis", n, 1, MAX_COUNT)
                                     for n in self.snapshot_axis))
        store("train_snr_db", _check_snr(self.train_snr_db, "train_snr_db"))
        store("test_snr_db", check_real("test_snr_db", self.test_snr_db, MIN_SNR_DB, math.inf))
        store("snr_axis_db", tuple(check_real("snr_axis_db", snr, MIN_SNR_DB, math.inf)
                                   for snr in self.snr_axis_db))
        for kind in self.detectors or ():
            if kind not in NET_KINDS + CLASSICAL_KINDS:
                raise ValueError(f"detectors must name known detectors, got {kind!r}")
        training = TrainConfig(self.learning_rate, self.batch_size, self.epochs)  # checks all three
        for name in ("learning_rate", "batch_size", "epochs"):
            store(name, getattr(training, name))

    @property
    def identifiable(self) -> bool:
        """False for coherent draws whose source count can reach the
        sub-array size: the M0 x M0 smoothed covariance they are counted
        on resolves at most M0 - 1 sources."""
        return not self.coherent or self.max_sources < self.subarray_size


def _check_snr(snr_db, name: str):
    """``snr_db`` as a float SNR or (low, high) range of floats; else ValueError naming ``name``."""
    if not isinstance(snr_db, (tuple, list)):
        return check_real(name, snr_db, MIN_SNR_DB, math.inf)
    if len(snr_db) != 2:
        raise ValueError(f"{name} must be a (low, high) pair, got {snr_db}")
    low = check_real(name, snr_db[0], MIN_SNR_DB, FLOAT_MAX)
    return low, check_real(name, snr_db[1], low, FLOAT_MAX)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _stream_states(seed: int, prefix: tuple[int, ...], indices) -> np.ndarray:
    """Row j is ``SeedSequence(seed, spawn_key=(*prefix, indices[j])).generate_state(4,
    np.uint64)``, for indices below 2**64: numpy's hash, run on uint32 arrays."""
    def hashmix(value, mult=0x931E8875):  # `const` is SeedSequence's hash_const
        value = value ^ const[0]
        const[0] = const[0] * mult & 0xFFFFFFFF
        value = value * const[0] & 0xFFFFFFFF
        return value ^ value >> 16

    def mix(x, y):
        x = (x * 0xCA01F9DD & 0xFFFFFFFF) - (y * 0x4973F715 & 0xFFFFFFFF) & 0xFFFFFFFF
        return x ^ x >> 16

    head, *keys = ([key >> s & 0xFFFFFFFF for s in range(0, key.bit_length() or 1, 32)]
                   for key in (seed, *prefix))
    head += [0] * (4 - len(head)) + sum(keys, [])
    indices = np.asarray(indices, dtype=np.uint64)
    width = 1 + (indices > 0xFFFFFFFF)  # the 32-bit words of each index in the key
    out = np.empty((len(indices), 4), dtype=np.uint64)
    for count in set(width.tolist()):
        rows = width == count
        entropy = head + [(indices[rows] >> 32 * k).astype(np.uint32) for k in range(count)]
        const = [0x43B0D7E5]
        pool = [hashmix(word) for word in entropy[:4]]
        for src, dst in itertools.permutations(range(4), 2):
            pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            pool = [mix(p, hashmix(word)) for p in pool]
        const = [0x8B51F9DD]
        words = np.stack([hashmix(pool[i % 4], 0x58F38DED) for i in range(8)], axis=1)
        out[rows] = words.astype("<u4").view("<u8")
    return out


def _set_stream(rng: np.random.Generator, w0: int, w1: int, w2: int, w3: int):
    """Puts PCG64 ``rng`` at the start of the stream whose generate_state is w0..w3."""
    inc = (w2 << 65 | w3 << 1 | 1) % 2**128
    state = ((inc + (w0 << 64 | w1)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % 2**128
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


def draw_scenario(config: ExperimentConfig, rng: np.random.Generator, *,
                  snr_db) -> tuple[list[float], list[int], float]:
    """One random scenario as its raw draw ``(doas, targets, snr)``: K
    uniform over {0..K_max}, K DOAs uniform over [0, 2pi), and the SNR fixed
    or uniform over a (low, high) range.

    In coherent mode the coherent-source count is uniform over {0..K-1};
    the last sources of the draw are the coherent copies, and the copy
    ``c`` of ``targets`` copies independent source ``targets[c]``, drawn
    uniformly.  Two equal DOAs raise ValueError.
    """
    k = int(rng.integers(0, config.max_sources + 1))
    doas = rng.uniform(0.0, 2.0 * math.pi, size=k).tolist()
    if len(set(doas)) < k:
        raise ValueError("doas must be pairwise distinct")
    snr = rng.uniform(snr_db[0], snr_db[1]) if isinstance(snr_db, (tuple, list)) else float(snr_db)
    copies = int(rng.integers(0, k)) if config.coherent and k else 0
    if copies <= 1:  # one target: the scalar draw is the size=1 draw, value and state alike
        return doas, [int(rng.integers(0, k - 1))] if copies else [], snr
    return doas, rng.integers(0, k - copies, size=copies).tolist(), snr


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
                    snr_db, coherent: bool | None = None, axis_index: int = 0,
                    want=("eigen",)) -> TrialSet:
    """Draws ``num`` scenarios and extracts the requested feature kinds
    (see :func:`~sourcecount.detectors.feature_kind`).

    ``phase`` selects the seed-stream role ("train" or "test"), so the
    two phases can never share draws.  Snapshots and covariances are
    computed a block of trials at a time, bit for bit as one by one.
    Raises ValueError, before any draw, for an unknown phase or feature kind, a ``num`` not in
    [0, ``MAX_COUNT``], a negative or non-integer ``axis_index`` or a bad ``snr_db``, and
    after it, naming ``snr_db``, when the noise overflows a covariance or its features.
    """
    role = {"train": ROLE_TRAIN, "test": ROLE_TEST}.get(phase)
    if role is None:
        raise ValueError(f"phase must be 'train' or 'test', got {phase!r}")
    num = check_count("num", num, 0, MAX_COUNT)
    axis_index = check_count("axis_index", axis_index, 0)
    snr_db = _check_snr(snr_db, "snr_db")
    if coherent is not None:
        config = replace(config, coherent=coherent)
    m, m0 = config.num_antennas, config.subarray_size
    labels = np.zeros(num, dtype=int)
    # The kept feature rows are allocated before the per-block scratch, so
    # freeing the scratch leaves no hole below them in the heap.
    empty = np.zeros((0, m, m), dtype=np.complex128)
    feats = {feature: np.zeros((num, make_features(empty, feature, m0).shape[1]))
             for feature in set(want)}
    covs = np.zeros((min(num, _FEATURE_BLOCK), m, m), dtype=np.complex128)
    n, k_max = config.num_snapshots, config.max_sources
    step = max(1, _SYNTHESIS_ENTRIES // (m * n))
    # Each trial's standard normals end at the last column, as snapshot_stack reads them.
    width = 2 * (k_max + m) * n
    normals = np.empty((min(num, step), width))
    rows, doas = np.empty((len(normals), k_max), dtype=np.intp), np.empty((len(normals), k_max))
    variances = np.empty(len(normals))
    rng = np.random.default_rng()  # set to each trial's own stream below
    # A covariance or feature that the noise overflows fails make_features, named below.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, num, _FEATURE_BLOCK):
            stop = min(start + _FEATURE_BLOCK, num)
            streams = _stream_states(config.seed, (role, axis_index), range(start, stop)).tolist()
            for low in range(start, stop, step):
                high = min(low + step, stop)
                rows[:] = range(k_max)  # every source reads its own row unless it copies
                for j in range(high - low):
                    _set_stream(rng, *streams[low + j - start])
                    trial_doas, targets, snr = draw_scenario(config, rng, snr_db=snr_db)
                    k = labels[low + j] = len(trial_doas)
                    independent = k - len(targets)
                    if targets:
                        rows[j, independent:k] = targets
                    doas[j, :k] = trial_doas
                    variances[j] = variance = noise_variance_at(snr)
                    rng.standard_normal(
                        out=normals[j, width - 2 * (independent + m * (variance > 0.0)) * n:])
                g = high - low
                covs[low - start:high - start] = sample_covariance(snapshot_stack(
                    m, n, labels[low:high], rows[:g], doas[:g], variances[:g], normals[:g]))
            for feature, kept in feats.items():
                try:
                    kept[start:stop] = make_features(covs[:stop - start], feature, m0)
                except ValueError as exc:
                    raise ValueError(f"snr_db {snr_db} is too low: the noise overflows the "
                                     f"{feature} features ({exc})") from None
    return TrialSet(labels=labels, num_snapshots=config.num_snapshots,
                    subarray_size=m0 if "fbss" in feats else None, **feats)


def select_features(trials: TrialSet, kind: str, subarray_size: int | None) -> np.ndarray:
    """The raw (num, dim) feature batch that detector ``kind`` reads from
    ``trials``; a detector that normalizes divides it by the trace itself."""
    feature = feature_kind(kind, subarray_size)
    feats = getattr(trials, feature)
    if feature == "fbss" and feats is not None and trials.subarray_size != subarray_size:
        raise ValueError("trial set was smoothed with a different sub-array size")
    if feats is None:
        raise ValueError(f"trial set lacks the features required by {kind!r}")
    return feats


def _targets(spec: DetectorSpec, labels: np.ndarray) -> np.ndarray:
    """Training targets: the count itself for ERNet, one-hot rows otherwise."""
    if labels.size and not 0 <= labels.min() <= labels.max() < spec.num_antennas:
        raise ValueError(f"labels must lie in [0, {spec.num_antennas - 1}]")
    if spec.kind == "ernet":
        return labels[:, np.newaxis].astype(float)
    return np.eye(spec.num_antennas)[labels]


def dataset_header(config: ExperimentConfig, feature_dim: int) -> dict[str, str]:
    """The key=value header (M, N, feature_dim, coherence, seed) of a dataset."""
    return {"M": str(config.num_antennas), "N": str(config.num_snapshots),
            "feature_dim": str(feature_dim),
            "coherence": "coherent" if config.coherent else "non-coherent",
            "seed": str(config.seed)}


def write_dataset(path, features: np.ndarray, labels: np.ndarray, *,
                  config: ExperimentConfig):
    """One :func:`dataset_header` line, then one comma-separated line per
    sample: features then integer label."""
    header = dataset_header(config, features.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"{key}={value}" for key, value in header.items()) + "\n")
        for row, label in zip(features, labels):
            fh.write(",".join(format(v, ".16e") for v in row) + f",{int(label)}\n")


def read_dataset(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """The features, labels and header of a :func:`write_dataset` file.  A line that is
    not UTF-8 or not ``feature_dim`` + 1 fields, or a value that does not parse as a float
    feature or an int64 label, raises ValueError naming the file and line."""
    header, *rows = _read_text(path).splitlines() or [""]
    info = dict(part.split("=", 1) for part in header.strip().split(",") if "=" in part)
    if not info.get("feature_dim", "").isdigit():
        raise ValueError(f"dataset {path} has no key=value header with a feature_dim")
    feature_dim = int(info["feature_dim"])
    feats, labels = [], []
    for lineno, row in enumerate(rows, start=2):
        parts = row.strip().split(",")
        if len(parts) != feature_dim + 1:
            raise ValueError(f"dataset {path}, line {lineno}: expected {feature_dim} features "
                             f"and a label, got {len(parts)} fields")
        try:
            feats.append([float(v) for v in parts[:-1]])
            labels.append(np.int64(parts[-1]))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"dataset {path}, line {lineno}: {exc}") from exc
    return (np.array(feats, dtype=float).reshape(len(labels), feature_dim),
            np.array(labels, dtype=int), info)


def _read_text(path) -> str:
    """A UTF-8 file's text; a byte that is not UTF-8 raises ValueError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {lineno}: {exc}") from exc


def train_detector(config: ExperimentConfig, kind: str, features: np.ndarray,
                   labels: np.ndarray, *, subarray_size: int | None = None,
                   axis_index: int = 0) -> tuple[Detector, list[float]]:
    """Builds and trains one network detector on raw features, which it
    divides by the covariance trace if ``config.normalize_features``.

    Initialization and shuffling seeds derive from the master seed, the
    axis point, and the detector kind, so retraining is reproducible.
    """
    if kind not in NET_KINDS:
        raise ValueError(f"{kind!r} is not a trainable detector")
    axis_index = check_count("axis_index", axis_index, 0)
    spec = DetectorSpec(kind, config.num_antennas, subarray_size,
                        normalize=config.normalize_features)
    if spec.normalize:
        features = normalize_features(features, feature_kind(kind, subarray_size))
    ordinal = NET_KINDS.index(kind)
    net = build_detector(spec, _rng(config.seed, ROLE_INIT, axis_index, ordinal))
    train_config = TrainConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        epochs=config.epochs,
        seed=int(_stream_states(config.seed, (ROLE_SHUFFLE, axis_index), [ordinal])[0, 0]),
    )
    history = train(net, features, _targets(spec, labels), train_config)
    return Detector(spec=spec, net=net, train_config=train_config), history


def evaluate_detectors(detectors, trials: TrialSet) -> dict[str, float]:
    """Accuracy of each detector over the (paired) trials, of which there must be some."""
    if not trials.labels.size:
        raise ValueError("trials must hold at least one trial to measure accuracy")
    results: dict[str, float] = {}
    for det in detectors:
        if isinstance(det, Detector):
            predicted = det.decide_batch(
                select_features(trials, det.spec.kind, det.spec.subarray_size))
        else:
            predicted = det.decide_batch(select_features(trials, det.kind, det.subarray_size),
                                         trials.num_snapshots)
        results[det.name] = float(np.mean(predicted == trials.labels))
    return results


@dataclass(frozen=True)
class SweepResult:
    """Per-detector accuracy along one sweep axis."""

    axis: tuple[float, ...]
    detectors: tuple[str, ...]
    accuracy: dict[str, tuple[float, ...]]
    num_trials: int
    seed: int


@dataclass(frozen=True)
class Sweep:
    """A sweep's axis field, the config field listing its values, coherence and detectors."""

    field: str
    axis: str
    coherent: bool
    detectors: tuple[str, ...]


SWEEPS = {
    "sweep-snapshots": Sweep("num_snapshots", "snapshot_axis", False,
                             ("ernet", "ecnet", "aic", "mdl", "covnet")),
    "sweep-snr": Sweep("test_snr_db", "snr_axis_db", False, ("ernet", "ecnet", "aic", "mdl")),
    "sweep-snr-coherent": Sweep("test_snr_db", "snr_axis_db", True,
                                ("ernet", "ecnet", "aic", "mdl")),
}


def run_sweep(name: str, config: ExperimentConfig) -> SweepResult:
    """Accuracy of each detector along sweep ``name``'s axis.  The nets
    train at the first point, and at every point of an axis the training
    draws read (N); coherent sweeps read smoothed spectra of size M0."""
    sweep = SWEEPS[name]
    config = replace(config, coherent=sweep.coherent)
    kinds = config.detectors or sweep.detectors
    subarray_size = config.subarray_size if sweep.coherent else None
    want = {feature_kind(kind, subarray_size) for kind in kinds}
    axis = getattr(config, sweep.axis)
    detectors, points = None, []
    for ai, value in enumerate(axis):
        config = replace(config, **{sweep.field: value})
        if detectors is None or sweep.field != "test_snr_db":
            trials = generate_trials(config, phase="train", num=config.num_train, want=want,
                                     snr_db=tuple(config.train_snr_db), axis_index=ai)
            detectors = [train_detector(config, kind, select_features(trials, kind, subarray_size),
                                        trials.labels, subarray_size=subarray_size,
                                        axis_index=ai)[0]
                         if kind in NET_KINDS else ClassicalDetector(kind, subarray_size)
                         for kind in kinds]
        trials = generate_trials(config, phase="test", num=config.num_test,
                                 snr_db=config.test_snr_db, axis_index=ai, want=want)
        points.append(evaluate_detectors(detectors, trials))
    names = tuple(points[0]) if points else ()
    accuracy = {det: tuple(point[det] for point in points) for det in names}
    return SweepResult(tuple(float(a) for a in axis), names, accuracy,
                       num_trials=config.num_test, seed=config.seed)


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
    """Parses the flat key=value config format; a line without a known key
    and a value of its field's type raises ValueError naming the line."""
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
        try:
            values[key] = _convert_config_value(known[key], raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from exc
    return ExperimentConfig(**values)


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _convert_config_value(field, raw: str):
    """``raw`` as the type of the field's default: an int, float or bool,
    or a comma-separated tuple of its first element's type.  The field
    whose default is None lists names, and may be empty."""
    default = field.default
    if default is None:
        return tuple(v.strip() for v in raw.split(",") if v.strip()) or None
    if isinstance(default, tuple):
        return tuple(type(default[0])(v) for v in raw.split(","))
    if isinstance(default, bool):
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"cannot parse boolean {raw!r} for {field.name}")
        return _BOOLEANS[raw.lower()]
    return type(default)(raw)


def load_config(path) -> ExperimentConfig:
    return config_from_text(_read_text(path))


def _blas_core() -> str | None:
    """The core that numpy's bundled OpenBLAS runs (``OPENBLAS_CORETYPE`` can set it),
    or None where that library is not found."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"))
    try:
        get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def write_manifest(out_dir, config: ExperimentConfig, command: str,
                   extra: dict | None = None) -> Path:
    """Records config hash, seed, versions (the BLAS core too) and whether every drawn source
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
            "blas_core": _blas_core(),
        },
    }
    if extra:
        doc.update(extra)
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
