"""The benchmark's workloads, driven through the package's public functions.

Each workload is a closed loop with one caller.  ``setup`` prepares what
the timed section needs (and may be repeated), and ``unit`` is one repeat
of the timed section.  Single-covariance decisions for the per-call
latency metrics come from an :class:`EstimateRing`; protocol-point and
coherent-sweep call it in short chunks between the stages of a unit, so
the latency sample spreads over the whole run, and leave that time out
of the unit's time.  Every call into the package goes through a module
attribute (``experiments.generate_trials``, ``linalg.hermitian_eig`` ...)
so that a traced run sees it.

Every result is reduced to a SHA-256 digest over the float64 bytes of
the trained parameters and the accuracies or decision sequences, so two
commits can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from pace import PACE
from sourcecount import classical, experiments, linalg, signal_model


@dataclass(frozen=True)
class Scale:
    """Input sizes of the workloads.

    ``num_train``/``epochs``/``num_test`` are the paper's protocol point.
    The nets that ``coherent-sweep`` and ``estimate-stream`` need are
    trained in set-up on ``setup_train`` trials for ``setup_epochs``, so
    that set-up stays short enough to repeat ``setups`` times per run;
    their decisions cost the same whatever the weights.
    """

    name: str = "full"
    num_train: int = 8000
    epochs: int = 400
    num_test: int = 2000
    warmup: int = 256
    setup_train: int = 2000
    setup_epochs: int = 100
    sweep_trials: int = 2000
    ring: int = 1000
    # Covariances per latency chunk: one after each of the 6 stages of a
    # protocol point, one after each of the 9 SNR points of a sweep.
    point_chunk: int = 2500
    sweep_chunk: int = 1000
    setups: int = 3
    # Sanity floor on the AIC/MDL accuracies (about 0.7-0.8 at 5 dB and
    # N=20); chance over K in {0..5} is 1/6.  The nets get no floor: their
    # accuracy depends on how training went, which is not a fault here.
    accuracy_floor: float = 0.3


FULL = Scale()
SMOKE = Scale(name="smoke", num_train=256, epochs=2, num_test=64, warmup=32,
              setup_train=256, setup_epochs=2, sweep_trials=32, ring=16,
              point_chunk=4, sweep_chunk=4, setups=2)


@dataclass
class Outcome:
    """What one set-up or unit did: operations attempted (trials, training
    runs, decisions), timed decisions made, seconds spent on latency
    chunks that the unit's time leaves out, digest inputs, named
    correctness checks and the accuracies."""

    ops: int = 0
    decisions: int = 0
    excluded_s: float = 0.0
    parts: list[bytes] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    accuracy: dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        return digest_parts(self.parts)


def digest_parts(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def net_bytes(detector) -> bytes:
    """Canonical little-endian float64 bytes of every weight and bias."""
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for layer in detector.net.layers for a in (layer.weights, layer.bias))


def accuracy_bytes(accuracy: dict[str, float]) -> bytes:
    names = sorted(accuracy)
    return (",".join(names).encode()
            + np.array([accuracy[n] for n in names], dtype="<f8").tobytes())


def decision_bytes(decisions: np.ndarray) -> bytes:
    return np.ascontiguousarray(decisions, dtype="<i8").tobytes()


def covariances(trials, m: int) -> list[np.ndarray]:
    """Rebuilds each trial's covariance from its (real, imag) features;
    exact, since the features hold the float64 parts unchanged."""
    mm = m * m
    return [(row[:mm] + 1j * row[mm:]).reshape(m, m) for row in trials.cov]


def batch_decisions(nets, trials, subarray_size: int | None) -> np.ndarray:
    """The batch-path decisions on the same trials, one column per net
    and a last one for MDL: what each per-sample decision must equal."""
    cols = [d.decide_batch(experiments.select_features(trials, d.spec.kind,
                                                       d.spec.subarray_size))
            for d in nets]
    cols.append(experiments.ClassicalDetector("mdl", subarray_size).decide_batch(
        experiments.select_features(trials, "mdl", subarray_size), trials.num_snapshots))
    return np.column_stack(cols)


class LatencyBlocks:
    """Per-call latencies, reduced block by block: every 1000 calls of
    each decision path, the block's p50 and p99 per path are kept (ten
    calls lie beyond each p99) and the calls dropped, so memory does not
    grow with how many calls a run fits in.  Each call is scaled by the
    pace factor of the moment it ran (see ``pace.py``)."""

    BLOCK = 1000

    def __init__(self):
        self._rows: list[list[int]] = []
        self._factors: list[float] = []
        self._p50: list[np.ndarray] = []
        self._p99: list[np.ndarray] = []
        self.calls = 0

    def add(self, row_ns: list[int]):
        """Records one call per decision path, in path order."""
        self._rows.append(row_ns)
        self._factors.append(PACE.factor)
        self.calls += len(row_ns)
        if len(self._rows) == self.BLOCK:
            self._close()

    def _close(self):
        us = np.asarray(self._rows, dtype=np.float64) * np.asarray(self._factors)[:, None] / 1e3
        p50, p99 = np.percentile(us, [50, 99], axis=0)
        self._p50.append(p50)
        self._p99.append(p99)
        self._rows, self._factors = [], []

    def blocks(self) -> dict[str, list[list[float]]]:
        """Every block's p50 and p99 per path, for the detail file."""
        return {"p50": [b.tolist() for b in self._p50], "p99": [b.tolist() for b in self._p99]}

    def summary_us(self) -> tuple[float, float]:
        """p50 and p99: per path the lower quartile over blocks, then the
        mean over paths.  Path costs differ by up to 3x, so a percentile
        of the pooled calls would sit between two paths and jump with
        small shifts.  Interference from the shared host only adds time
        and comes and goes within a run, so the calmer blocks are the
        steadier reading of the program's own cost.  On a shared 2-vCPU
        host, two sets of ten runs of one commit gave, per workload, an
        interquartile spread of 3-11 % (p50) and 7-17 % (p99) this way,
        and 4-9 % and 8-16 % as the median over blocks.  A run too short
        for one whole block uses the calls it has."""
        if not self._p50:
            self._close()
        return (float(np.mean(np.percentile(self._p50, 25, axis=0))),
                float(np.mean(np.percentile(self._p99, 25, axis=0))))


class EstimateRing:
    """Single-covariance decisions over fixed trials: every covariance
    goes through ``Detector.estimate`` for each net, then through the
    per-sample MDL path a library user writes by hand, one timed call at
    a time, cycling through the trials chunk by chunk.  A row of calls
    that the pace kernel interrupted is decided and checked but its
    latencies are left out.

    ``reference`` (the batch decisions) may be handed over from an
    earlier set-up, which the run checks gave the same nets.
    """

    def __init__(self, nets, trials, num_antennas: int, subarray_size: int | None,
                 reference: np.ndarray | None = None):
        self.nets = nets
        self.paths = len(nets) + 1
        self.num_snapshots = trials.num_snapshots
        self.subarray_size = subarray_size
        self.covs = covariances(trials, num_antennas)
        self.labels = trials.labels
        self.reference = (batch_decisions(nets, trials, subarray_size)
                          if reference is None else reference)
        self._rows: list[np.ndarray] = []
        self._decisions: list[np.ndarray] = []
        self._next = 0

    def _mdl(self, r) -> int:
        if self.subarray_size is not None:
            r = signal_model.fbss_covariance(r, self.subarray_size)
        spectrum = classical.EigenSpectrum(linalg.hermitian_eig(r).eigenvalues,
                                           self.num_snapshots)
        return classical.mdl(spectrum).order

    def chunk(self, n: int, latencies: LatencyBlocks) -> float:
        """Decides the next ``n`` covariances; returns the seconds it took."""
        start = PACE.clock()
        clock, pace = time.perf_counter_ns, PACE
        rows = (self._next + np.arange(n)) % len(self.covs)
        self._next = int(rows[-1] + 1) % len(self.covs)
        out = np.empty((n, self.paths), dtype=np.int64)
        for i, row in enumerate(rows):
            r = self.covs[row]
            row_ns = []
            kernel_ns = pace.spent_ns
            for j, det in enumerate(self.nets):
                t0 = clock()
                out[i, j] = det.estimate(r)
                row_ns.append(clock() - t0)
            t0 = clock()
            out[i, -1] = self._mdl(r)
            row_ns.append(clock() - t0)
            if pace.spent_ns == kernel_ns:  # no pace kernel ran inside the calls
                latencies.add(row_ns)
        self._rows.append(rows)
        self._decisions.append(out)
        return PACE.clock() - start

    def outcome(self) -> Outcome:
        """Digest and check of the chunks since the last call, which
        restarts the cycle so every unit decides the same sequence."""
        rows, decisions = np.concatenate(self._rows), np.concatenate(self._decisions)
        self._rows, self._decisions, self._next = [], [], 0
        agree = bool(np.array_equal(decisions, self.reference[rows]))
        return Outcome(ops=decisions.size, parts=[decision_bytes(decisions)],
                       checks={"per-sample decisions equal batch decisions": agree})


def _merge(out: Outcome, probe: Outcome, excluded_s: float) -> Outcome:
    out.ops += probe.ops
    out.parts += probe.parts
    out.checks.update(probe.checks)
    out.excluded_s = excluded_s
    return out


def _train(config, kinds, trials, subarray_size=None):
    nets = []
    for kind in kinds:
        feats = experiments.select_features(trials, kind, subarray_size)
        det, _ = experiments.train_detector(config, kind, feats, trials.labels,
                                            subarray_size=subarray_size)
        nets.append(det)
    return nets


def _classical(accuracy: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in accuracy.items() if k.endswith(("aic", "mdl"))}


def _floor_checks(prefix: str, accuracy: dict[str, float], floor: float) -> dict[str, bool]:
    return {f"{prefix}{name} accuracy >= {floor}": acc >= floor
            for name, acc in accuracy.items()}


class ProtocolPoint:
    """The paper's N=20 non-coherent protocol point: mixed-SNR training
    trials with eigen+cov features, ERNet/ECNet/CovNet trained from
    scratch, then a 5 dB test of the three nets plus AIC and MDL.

    The latency chunks between its stages use the warm-up nets and test
    trials of the set-up; the nets' shapes are the protocol's.
    """

    name = "protocol-point"

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.config = experiments.ExperimentConfig(
            seed=seed, num_train=scale.num_train, num_test=scale.num_test,
            epochs=scale.epochs)
        self.ring: EstimateRing | None = None

    def _point(self, config, between_stages):
        want = ("eigen", "cov")
        train_set = experiments.generate_trials(
            config, phase="train", num=config.num_train,
            snr_db=tuple(config.train_snr_db), want=want)
        between_stages()
        nets = []
        for kind in experiments.NET_KINDS:
            nets += _train(config, (kind,), train_set)
            between_stages()
        test_set = experiments.generate_trials(
            config, phase="test", num=config.num_test, snr_db=config.test_snr_db,
            want=want)
        between_stages()
        dets = nets + [experiments.ClassicalDetector(k) for k in experiments.CLASSICAL_KINDS]
        accuracy = experiments.evaluate_detectors(dets, test_set)
        between_stages()
        decisions = len(dets) * config.num_test
        out = Outcome(
            ops=config.num_train + config.num_test + len(nets) + decisions,
            decisions=decisions,
            parts=[net_bytes(d) for d in nets] + [accuracy_bytes(accuracy)],
            checks=_floor_checks("", _classical(accuracy), self.scale.accuracy_floor),
            accuracy=accuracy,
        )
        return out, nets, test_set

    def setup(self) -> Outcome:
        """Warm-up: the same pipeline at a tiny size and one epoch, so
        lazy initialisation is done before timing."""
        n = self.scale.warmup
        small = experiments.ExperimentConfig(seed=self.config.seed, num_train=n,
                                             num_test=n, epochs=1)
        out, nets, test_set = self._point(small, lambda: None)
        self.ring = EstimateRing(nets, test_set, small.num_antennas, None,
                                 self.ring.reference if self.ring else None)
        out.checks, out.accuracy = {}, {}
        return out

    def unit(self, latencies: LatencyBlocks) -> Outcome:
        spent = []
        out, _, _ = self._point(self.config, lambda: spent.append(
            self.ring.chunk(self.scale.point_chunk, latencies)))
        start = PACE.clock()
        probe = self.ring.outcome()
        return _merge(out, probe, sum(spent) + PACE.clock() - start)


class CoherentSweep:
    """Test half of the coherent SNR sweep: coherent sources, FBSS
    features at M0=5, every SNR point of the axis, decided by
    fbss-ERNet, fbss-ECNet, fbss-AIC and fbss-MDL.  A latency chunk
    through the two nets and FBSS+MDL follows each SNR point."""

    name = "coherent-sweep"

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.config = experiments.ExperimentConfig(
            seed=seed, coherent=True, num_train=scale.setup_train,
            epochs=scale.setup_epochs, num_test=scale.sweep_trials)
        self.dets = None
        self.ring: EstimateRing | None = None

    def setup(self) -> Outcome:
        config, m0 = self.config, self.config.subarray_size
        train_set = experiments.generate_trials(
            config, phase="train", num=config.num_train,
            snr_db=tuple(config.train_snr_db), coherent=True, want=("fbss",))
        nets = _train(config, ("ernet", "ecnet"), train_set, m0)
        self.dets = nets + [experiments.ClassicalDetector(k, m0)
                            for k in experiments.CLASSICAL_KINDS]
        ring_set = experiments.generate_trials(
            config, phase="test", num=self.scale.ring, snr_db=0.0, coherent=True,
            axis_index=len(config.snr_axis_db), want=("fbss", "cov"))
        self.ring = EstimateRing(nets, ring_set, config.num_antennas, m0,
                                 self.ring.reference if self.ring else None)
        return Outcome(ops=config.num_train + len(nets) + self.scale.ring,
                       parts=[net_bytes(d) for d in nets])

    def unit(self, latencies: LatencyBlocks) -> Outcome:
        config = self.config
        out = Outcome()
        spent = 0.0
        for ai, snr in enumerate(config.snr_axis_db):
            test_set = experiments.generate_trials(
                config, phase="test", num=config.num_test, snr_db=float(snr),
                coherent=True, axis_index=ai, want=("fbss",))
            accuracy = experiments.evaluate_detectors(self.dets, test_set)
            decisions = len(self.dets) * config.num_test
            out.ops += config.num_test + decisions
            out.decisions += decisions
            out.parts.append(accuracy_bytes(accuracy))
            spent += self.ring.chunk(self.scale.sweep_chunk, latencies)
        top = f"{config.snr_axis_db[-1]:g} dB"
        out.checks = _floor_checks(f"{top}: ", _classical(accuracy), self.scale.accuracy_floor)
        out.accuracy = {f"{name} at {top}": v for name, v in accuracy.items()}
        start = PACE.clock()
        probe = self.ring.outcome()
        return _merge(out, probe, spent + PACE.clock() - start)


class EstimateStream:
    """One caller making single-covariance decisions: pre-drawn 5 dB
    covariances go round-robin through ``Detector.estimate`` for ERNet,
    ECNet, CovNet and fbss-ERNet, and through the per-sample MDL path.
    One unit is one pass over the ring."""

    name = "estimate-stream"

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.config = experiments.ExperimentConfig(
            seed=seed, num_train=scale.setup_train, epochs=scale.setup_epochs)
        self.ring: EstimateRing | None = None

    def setup(self) -> Outcome:
        config = self.config
        train_set = experiments.generate_trials(
            config, phase="train", num=config.num_train,
            snr_db=tuple(config.train_snr_db), want=("eigen", "cov"))
        nets = _train(config, experiments.NET_KINDS, train_set)
        coherent_set = experiments.generate_trials(
            config, phase="train", num=config.num_train,
            snr_db=tuple(config.train_snr_db), coherent=True, want=("fbss",))
        nets += _train(config, ("ernet",), coherent_set, config.subarray_size)
        ring_set = experiments.generate_trials(
            config, phase="test", num=self.scale.ring, snr_db=config.test_snr_db,
            want=("eigen", "fbss", "cov"))
        self.ring = EstimateRing(nets, ring_set, config.num_antennas, None,
                                 self.ring.reference if self.ring else None)
        return Outcome(ops=2 * config.num_train + len(nets) + self.scale.ring,
                       parts=[net_bytes(d) for d in nets])

    def unit(self, latencies: LatencyBlocks) -> Outcome:
        ring = self.ring
        ring.chunk(len(ring.covs), latencies)
        out = ring.outcome()
        out.decisions = out.ops
        out.accuracy = {"mdl": float(np.mean(ring.reference[:, -1] == ring.labels))}
        out.checks.update(_floor_checks("", out.accuracy, self.scale.accuracy_floor))
        return out


WORKLOADS = {cls.name: cls for cls in (ProtocolPoint, CoherentSweep, EstimateStream)}
