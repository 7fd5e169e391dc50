"""Eigenvalue-fed source-number detectors.

Assembles the two proposed networks plus the covariance-input ablation:

* ERNet — regression net on the sorted eigenvalues, scalar output
  rounded half-up to the nearest integer and clamped to [0, M-1].
* ECNet — classification net on the same features, softmax over M
  classes, argmax index is the estimate.
* CovNet — ablation fed the raw covariance entries (real parts then
  imaginary parts, 2*M^2 inputs) with the same trunk and softmax head.

With a sub-array size set, ERNet and ECNet read the eigenvalues of the
forward-backward smoothed covariance instead (coherent-source mode).
A single covariance is a one-matrix stack to :func:`make_features` and
a one-row batch to ``decide_batch``: one feature and one decision path,
on raw rows that a normalizing detector divides by the trace itself.
The classical AIC/MDL criteria decide on the same features through
:class:`ClassicalDetector`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .classical import check_spectra, criterion_values
from .linalg import check_count, check_hermitian, hermitian_eig, is_moderate
from .network import (
    Layer,
    Network,
    TrainConfig,
    dumps_network,
    forward,
    init_truncated_normal,
    loads_network,
)
from .signal_model import fbss_covariance

NET_KINDS = ("ernet", "ecnet", "covnet")
CLASSICAL_KINDS = ("aic", "mdl")
FEATURES = ("eigen", "fbss", "cov")


def feature_kind(kind: str, subarray_size: int | None) -> str:
    """Trial feature a detector of ``kind`` reads: "cov" for CovNet,
    "fbss" (smoothed eigenvalues) with a sub-array size, else "eigen".

    Smoothing extends only the eigenvalue detectors (the networks and
    AIC/MDL) to coherent sources; CovNet has no smoothed form, and AIC/MDL
    need a sub-array size of at least 2 (two eigenvalues).
    """
    if kind in CLASSICAL_KINDS and subarray_size is not None and subarray_size < 2:
        raise ValueError(f"subarray_size must be at least 2 for {kind}, which compares "
                         f"smoothed eigenvalues, got {subarray_size}")
    if kind != "covnet":
        return "eigen" if subarray_size is None else "fbss"
    if subarray_size is not None:
        raise ValueError("covnet has no smoothed form: FBSS (sub-array size "
                         f"{subarray_size}) applies to ernet, ecnet, aic and mdl only")
    return "cov"


def detector_name(kind: str, subarray_size: int | None) -> str:
    """Report name of a detector: the kind, prefixed "fbss-" when smoothed."""
    return kind if subarray_size is None else f"fbss-{kind}"


@dataclass(frozen=True)
class DetectorSpec:
    """Architecture and feature choices of one detector.

    Attributes:
        kind: "ernet", "ecnet" or "covnet".
        num_antennas: Full-array antenna count M; also the class count
            of the classification heads.
        subarray_size: Optional smoothing sub-array size M0; ``None``
            disables smoothing.  Not allowed for CovNet.
        normalize: Divide the raw features by the covariance trace, in
            training and in every decision (optional experiment, off by
            default).
        hidden: Hidden layer widths, (8, 8) for every detector.
    """

    kind: str
    num_antennas: int
    subarray_size: int | None = None
    normalize: bool = False
    hidden: ClassVar[tuple[int, int]] = (8, 8)

    def __post_init__(self):
        if self.kind not in NET_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        feature_kind(self.kind, self.subarray_size)
        object.__setattr__(self, "num_antennas", check_count("num_antennas", self.num_antennas, 2))
        if self.subarray_size is not None:  # both stored as Python ints: JSON has no numpy ints
            m0 = check_count("subarray_size", self.subarray_size, 1, self.num_antennas)
            object.__setattr__(self, "subarray_size", m0)
        if not isinstance(self.normalize, bool):
            raise ValueError(f"normalize must be a bool, got {self.normalize!r}")

    @property
    def feature_size(self) -> int:
        if self.kind == "covnet":
            return 2 * self.num_antennas ** 2
        return self.subarray_size if self.subarray_size is not None else self.num_antennas

    @property
    def output_size(self) -> int:
        return 1 if self.kind == "ernet" else self.num_antennas

    @property
    def name(self) -> str:
        return detector_name(self.kind, self.subarray_size)


def make_features(covs, feature: str, subarray_size: int | None = None) -> np.ndarray:
    """The (num, dim) feature rows of one :func:`feature_kind` for a
    (num, M, M) stack of covariances: descending eigenvalues ("eigen"),
    those of the smoothed covariances ("fbss"), or the row-major real
    parts then imaginary parts ("cov").  A NaN or inf entry, or a matrix
    that is not Hermitian, raises ValueError."""
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}; known kinds are {', '.join(FEATURES)}")
    covs = np.asarray(covs)
    if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
        raise ValueError(f"covariances must form a (num, M, M) stack, got shape {covs.shape}")
    if feature != "eigen":  # hermitian_eig screens the eigen features' covariances itself
        if not is_moderate(covs) and not np.isfinite(covs).all():
            raise ValueError("matrix has non-finite entries (NaN or inf)")
        check_hermitian(covs)
    if feature == "cov":
        flat = covs.reshape(len(covs), covs.shape[1] ** 2)
        return np.concatenate([flat.real, flat.imag], axis=1, dtype=float)
    if feature == "fbss":
        if subarray_size is None:
            raise ValueError("the fbss feature needs a sub-array size")
        covs = fbss_covariance(covs, subarray_size)
    return hermitian_eig(covs).eigenvalues


def normalize_features(feats: np.ndarray, feature: str) -> np.ndarray:
    """Divides each row of a (num, dim) feature batch by the trace of
    the covariance it came from; rows with a non-positive trace are
    left as they are.  Raises ValueError if a trace or quotient overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported in _normalize
        return _normalize(feats, feature)


def _normalize(feats: np.ndarray, feature: str) -> np.ndarray:
    feats = np.asarray(feats)
    m = int(round(math.sqrt(feats.shape[1] / 2)))  # M of a "cov" row
    columns = np.arange(m) * (m + 1) if feature == "cov" else slice(None)
    trace = feats[:, columns].sum(axis=1)
    rows = feats / np.where(trace > 0.0, trace, 1.0)[:, np.newaxis]
    if np.isinf(trace).any() or np.isinf(rows).any():
        raise ValueError("features are too large to normalize: a trace or quotient overflows")
    return rows


def _layer_plan(spec: DetectorSpec) -> list[tuple[int, int, str]]:
    """(fan_in, fan_out, activation) per layer: input -> hidden (ReLU) ->
    output (linear for ERNet, softmax otherwise)."""
    sizes = [spec.feature_size, *spec.hidden, spec.output_size]
    head = "linear" if spec.kind == "ernet" else "softmax"
    return [(fan_in, fan_out, "relu" if i < len(spec.hidden) else head)
            for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:]))]


def build_detector(spec: DetectorSpec, rng: np.random.Generator) -> Network:
    """Untrained network laid out by :func:`_layer_plan`.  Weights are
    truncated-normal with variance 1/fan_in, drawn layer by layer;
    biases start at zero."""
    return Network([Layer(weights=init_truncated_normal((fan_out, fan_in), fan_in, rng),
                          bias=np.zeros(fan_out), activation=activation)
                    for fan_in, fan_out, activation in _layer_plan(spec)])


@dataclass
class Detector:
    """A spec bundled with its (possibly trained) network."""

    spec: DetectorSpec
    net: Network
    train_config: TrainConfig | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    def decide_batch(self, features: np.ndarray) -> np.ndarray:
        """Decisions for a (num, feature_size) batch of raw features, which a
        normalizing spec divides by the trace: ERNet rounds its output
        half-up and clamps it to [0, M-1]; the softmax heads take the argmax
        (ties to the smaller index).  A batch that is not 2-D, an overflowing
        trace, or a NaN or inf network output raises ValueError."""
        with np.errstate(over="ignore", invalid="ignore"):  # each raised as ValueError
            return self._decide(features)

    def _decide(self, features: np.ndarray) -> np.ndarray:
        if np.ndim(features) != 2:
            raise ValueError(f"features must form a 2-D batch, got shape {np.shape(features)}")
        if self.spec.normalize:
            features = _normalize(features, feature_kind(self.spec.kind, self.spec.subarray_size))
        out = forward(self.net, features)
        if not is_moderate(out) and not np.isfinite(out).all():
            raise ValueError("network output is not finite (NaN or inf)")
        if self.spec.kind == "ernet":
            return np.floor(out[:, 0] + 0.5).clip(0, self.spec.num_antennas - 1).astype(int)
        return np.argmax(out, axis=1)

    def estimate(self, r_hat) -> int:
        """Source-count estimate for one M x M covariance: the one-matrix
        case of :func:`make_features`, decided as a one-row batch.

        Raises:
            ValueError: If the covariance is not M x M or has a NaN or
                infinite entry.
        """
        spec = self.spec
        r_hat = np.asarray(r_hat)
        if r_hat.shape != (spec.num_antennas,) * 2:
            raise ValueError(f"covariance must be M x M for M={spec.num_antennas}, "
                             f"got shape {r_hat.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # each raised as ValueError
            row = make_features(r_hat[np.newaxis], feature_kind(spec.kind, spec.subarray_size),
                                spec.subarray_size)
            return int(self._decide(row)[0])


@dataclass(frozen=True)
class ClassicalDetector:
    """AIC/MDL wrapper evaluated on the same trial features as the nets."""

    kind: str
    subarray_size: int | None = None

    def __post_init__(self):
        if self.kind not in CLASSICAL_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.subarray_size is not None:
            check_count("subarray_size", self.subarray_size, 1)
        feature_kind(self.kind, self.subarray_size)

    @property
    def name(self) -> str:
        return detector_name(self.kind, self.subarray_size)

    def decide_batch(self, values: np.ndarray, num_snapshots: int) -> np.ndarray:
        """Selected order for each row of a (num, m) batch of spectra,
        validated once for the whole batch as ``EigenSpectrum`` validates
        one spectrum."""
        values = check_spectra(values, num_snapshots)
        return np.argmin(criterion_values(values, num_snapshots, self.kind), axis=1)


def _meta(spec: DetectorSpec) -> dict:
    """A model file's metadata block: the spec the detector is rebuilt from."""
    return {"detector": spec.kind, "num_antennas": spec.num_antennas,
            "subarray_size": spec.subarray_size, "hidden": list(spec.hidden),
            "normalize": spec.normalize}


def save_detector(detector: Detector, path):
    """Writes the network in the portable model format, with :func:`_meta`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_network(detector.net, detector.train_config, _meta(detector.spec)))


def load_detector(path) -> Detector:
    """The detector in a :func:`save_detector` file.  Raises ValueError if the
    metadata is missing, differs from :func:`_meta` of the spec it names
    (JSON types included), or the network is not the one :func:`_layer_plan`
    lays out.  Each such error, and a file that is not UTF-8 JSON or whose
    layers do not build, reads ``model file <path>: ...``."""
    try:
        with open(path, encoding="utf-8") as fh:
            net, train_config, meta = loads_network(fh.read())
        try:
            spec = DetectorSpec(meta["detector"], meta["num_antennas"],
                                meta.get("subarray_size"), meta.get("normalize", False))
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise ValueError(f"no usable detector metadata: {exc}") from exc
        expected = _meta(spec)
        found = {key: meta.get(key, value) for key, value in expected.items()}
        layers = [(layer.in_dim, layer.out_dim, layer.activation) for layer in net.layers]
        if json.dumps(found) != json.dumps(expected) or layers != _layer_plan(spec):
            raise ValueError(f"holds layers {layers} and metadata {found}, not the {spec.name} "
                             f"layers {_layer_plan(spec)} and metadata {expected}")
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"model file {path}: {exc}") from exc
    return Detector(spec=spec, net=net, train_config=train_config)
