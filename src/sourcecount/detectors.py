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
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .classical import check_spectra, criterion_values
from .linalg import check_count, check_hermitian, hermitian_eig, is_moderate
from .network import Layer, Network, TrainConfig, forward, init_truncated_normal
from .signal_model import fbss_covariance

NET_KINDS = ("ernet", "ecnet", "covnet")
CLASSICAL_KINDS = ("aic", "mdl")
FEATURES = ("eigen", "fbss", "cov")
MODEL_FORMAT, MODEL_VERSION = "sourcecount-network", 1


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
    parts then imaginary parts ("cov").  ``covs`` is read as complex128,
    and :func:`check_hermitian` raises ValueError for every kind."""
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}; known kinds are {', '.join(FEATURES)}")
    covs = np.asarray(covs, dtype=np.complex128)
    if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
        raise ValueError(f"covariances must form a (num, M, M) stack, got shape {covs.shape}")
    if feature != "eigen":  # hermitian_eig screens the eigen features' covariances itself
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
    return Network([Layer(weights=init_truncated_normal((fan_out, fan_in), rng),
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
        if np.ndim(features) != 2:
            raise ValueError(f"features must form a 2-D batch, got shape {np.shape(features)}")
        with np.errstate(over="ignore", invalid="ignore"):  # each raised as ValueError
            if self.spec.normalize:
                features = _normalize(features,
                                      feature_kind(self.spec.kind, self.spec.subarray_size))
            out = forward(self.net, features)
        if not is_moderate(out) and not np.isfinite(out).all():
            raise ValueError("network output is not finite (NaN or inf)")
        if self.spec.kind == "ernet":
            return np.floor(out[:, 0] + 0.5).clip(0, self.spec.num_antennas - 1).astype(int)
        return np.argmax(out, axis=1)

    def estimate(self, r_hat) -> int:
        """Source-count estimate for one M x M covariance: ``decide_batch``
        of the one-matrix stack's :func:`make_features` row.

        Raises:
            ValueError: If the covariance is not M x M, or as
                :func:`make_features` and ``decide_batch`` raise.
        """
        spec = self.spec
        r_hat = np.asarray(r_hat)
        if r_hat.shape != (spec.num_antennas,) * 2:
            raise ValueError(f"covariance must be M x M for M={spec.num_antennas}, "
                             f"got shape {r_hat.shape}")
        feature = feature_kind(spec.kind, spec.subarray_size)
        return int(self.decide_batch(make_features(r_hat[np.newaxis], feature,
                                                   spec.subarray_size))[0])


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
        one spectrum.  A smoothed detector takes only M0-wide rows; else ValueError."""
        values = check_spectra(values, num_snapshots)
        if self.subarray_size not in (None, values.shape[1]):
            raise ValueError(f"{self.name} decides on spectra of width M0={self.subarray_size}, "
                             f"got rows of width {values.shape[1]}")
        return np.argmin(criterion_values(values, num_snapshots, self.kind), axis=1)


def _meta(spec: DetectorSpec) -> dict:
    """A model file's metadata block: the spec the detector is rebuilt from."""
    return {"detector": spec.kind, "num_antennas": spec.num_antennas,
            "subarray_size": spec.subarray_size, "hidden": list(spec.hidden),
            "normalize": spec.normalize}


def write_json(path, doc):
    """Writes ``doc`` as the package's one JSON format: sorted keys, a two-space indent,
    UTF-8 and one trailing LF.  JSON has no inf, so a ±inf value or tuple item of a dict,
    at any depth, goes as "inf" or "-inf", as TOML and float() spell it.  A list goes as it
    is: a NaN, or an inf in a list, raises ValueError before the file opens."""
    def safe(v):
        if type(v) is dict:
            return {key: safe(item) for key, item in v.items()}
        return [*map(safe, v)] if type(v) is tuple else str(v) if v in (math.inf, -math.inf) else v

    text = json.dumps(safe(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def save_detector(detector: Detector, path):
    """Writes the detector as a JSON model file (:func:`write_json`): each layer's
    activation, shape and row-major weights and bias, the training config and
    :func:`_meta`, each float reading back to the same float64.  Parameters go as
    lists, so a NaN or infinite one raises ValueError before the file is opened."""
    config = detector.train_config
    write_json(path, {"format": MODEL_FORMAT, "version": MODEL_VERSION,
                      "layers": [{"activation": layer.activation, "rows": layer.out_dim,
                                  "cols": layer.in_dim, "weights": layer.weights.ravel().tolist(),
                                  "bias": layer.bias.tolist()} for layer in detector.net.layers],
                      "train_config": None if config is None else asdict(config),
                      "meta": _meta(detector.spec)})


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def load_detector(path) -> Detector:
    """The detector in a :func:`save_detector` file, bit-exact.  Raises ValueError for
    another format or version; metadata that names no spec; metadata and layer
    shapes and activations that differ, JSON types included, from :func:`_meta` and the
    :func:`_layer_plan` of that spec; weights or a bias that is not a flat list of the
    planned number of JSON numbers; NaN, Infinity or a number past the float range (such
    as ``1e400``); a missing entry or one of the wrong JSON type; and a ``train_config``
    key that is not a :class:`TrainConfig` field or a value its field rejects.  Each
    error, and a file that is not UTF-8 JSON, reads ``model file <path>: ...``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
        try:
            if doc.get("format") != MODEL_FORMAT:
                raise ValueError("not a serialized network document")
            if doc.get("version") != MODEL_VERSION:
                raise ValueError(f"unsupported format version {doc.get('version')}")
            meta = doc.get("meta", {})
            try:
                spec = DetectorSpec(meta["detector"], meta["num_antennas"],
                                    meta.get("subarray_size"), meta.get("normalize", False))
            except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
                raise ValueError(f"no usable detector metadata: {exc}") from exc
            plan = _layer_plan(spec)
            expected = {"meta": _meta(spec), "layers": [
                {"activation": activation, "cols": fan_in, "rows": fan_out}
                for fan_in, fan_out, activation in plan]}
            found = {"meta": {key: meta.get(key, value) for key, value in expected["meta"].items()},
                     "layers": [{key: layer.get(key) for key in ("activation", "cols", "rows")}
                                for layer in doc["layers"]]}
            if json.dumps(found) != json.dumps(expected):
                raise ValueError(f"holds {found}, not the {spec.name} layers and "
                                 f"metadata {expected}")
            params = []
            for i, (layer, (fan_in, fan_out, _)) in enumerate(zip(doc["layers"], plan)):
                for key, size in (("weights", fan_in * fan_out), ("bias", fan_out)):
                    values = layer[key]
                    if not (isinstance(values, list) and len(values) == size
                            and all(type(v) in (int, float) for v in values)):
                        raise ValueError(f"layer {i} {key} must be a flat list of {size} numbers")
                    params += values
            net = Network([Layer(np.zeros((fan_out, fan_in)), np.zeros(fan_out), activation)
                           for fan_in, fan_out, activation in plan])
            net.params[:] = params
            if not np.isfinite(net.params).all():
                raise ValueError("non-finite number (a literal beyond the float range)")
            config = doc.get("train_config")
            if config is not None:
                unknown = sorted(config.keys() - {f.name for f in fields(TrainConfig)})
                if unknown:
                    raise ValueError(f"unknown train_config keys {unknown}")
                config = TrainConfig(**config)  # which checks each value
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed document: {type(exc).__name__}: {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"model file {path}: {exc}") from exc
    return Detector(spec=spec, net=net, train_config=config)
