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
A single covariance is decided as a one-row batch, so ``estimate`` and
``decide_batch`` share one feature and one decision path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eig
from .network import (
    Layer,
    Network,
    TrainConfig,
    forward,
    init_truncated_normal,
    load_network,
    save_network,
)
from .signal_model import fbss_covariance

NET_KINDS = ("ernet", "ecnet", "covnet")
DEFAULT_HIDDEN = (8, 8)


def feature_kind(kind: str, subarray_size: int | None) -> str:
    """Trial feature a detector of ``kind`` reads: "cov" for CovNet,
    "fbss" (smoothed eigenvalues) with a sub-array size, else "eigen".

    Smoothing extends only the eigenvalue detectors (the networks and
    AIC/MDL) to coherent sources; CovNet has no smoothed form.
    """
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
        hidden: Hidden layer widths, (8, 8) unless overridden.
        normalize: Divide features by the covariance trace before the
            network (optional experiment, off by default).
    """

    kind: str
    num_antennas: int
    subarray_size: int | None = None
    hidden: tuple[int, int] = DEFAULT_HIDDEN
    normalize: bool = False

    def __post_init__(self):
        if self.kind not in NET_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        feature_kind(self.kind, self.subarray_size)
        if self.num_antennas < 2:
            raise ValueError("need at least two antennas")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden sizes must be positive")
        if self.subarray_size is not None and not 1 <= self.subarray_size <= self.num_antennas:
            raise ValueError("subarray_size must lie in [1, num_antennas]")

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


def make_feature_eigen(r_hat) -> np.ndarray:
    """Sorted (descending) eigenvalues of the covariance, raw scale."""
    return hermitian_eig(r_hat).eigenvalues


def make_feature_fbss(r_hat, subarray_size: int) -> np.ndarray:
    """Sorted eigenvalues of the forward-backward smoothed covariance."""
    return hermitian_eig(fbss_covariance(r_hat, subarray_size)).eigenvalues


def make_feature_cov(r_hat) -> np.ndarray:
    """Row-major real parts then imaginary parts of all entries."""
    r_hat = np.asarray(r_hat)
    if r_hat.ndim != 2 or r_hat.shape[0] != r_hat.shape[1]:
        raise ValueError("covariance must be a square matrix")
    return np.concatenate([r_hat.real.ravel(), r_hat.imag.ravel()]).astype(float)


def make_feature(r_hat, feature: str, subarray_size: int | None = None) -> np.ndarray:
    """One covariance's feature row of the given :func:`feature_kind`."""
    if feature == "eigen":
        return make_feature_eigen(r_hat)
    if feature == "fbss":
        return make_feature_fbss(r_hat, subarray_size)
    return make_feature_cov(r_hat)


def normalize_features(feats: np.ndarray, feature: str) -> np.ndarray:
    """Divides each row of a (num, dim) feature batch by the trace of
    the covariance it came from; rows with a non-positive trace are
    left as they are."""
    if feature == "cov":
        m = int(round(math.sqrt(feats.shape[1] / 2)))
        trace = feats[:, np.arange(m) * (m + 1)].sum(axis=1)
    else:
        trace = feats.sum(axis=1)
    trace = np.where(trace > 0.0, trace, 1.0)
    return feats / trace[:, np.newaxis]


def build_detector(spec: DetectorSpec, rng: np.random.Generator) -> Network:
    """Untrained 4-layer network for ``spec``: input -> hidden -> output.

    Hidden layers use ReLU; the output layer is linear for ERNet and
    softmax otherwise.  Weights are truncated-normal with variance
    1/fan_in; biases start at zero.
    """
    sizes = [spec.feature_size, *spec.hidden, spec.output_size]
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        last = i == len(sizes) - 2
        activation = ("linear" if spec.kind == "ernet" else "softmax") if last else "relu"
        layers.append(
            Layer(
                weights=init_truncated_normal((fan_out, fan_in), fan_in, rng),
                bias=np.zeros(fan_out),
                activation=activation,
            )
        )
    return Network(layers)


@dataclass
class Detector:
    """A spec bundled with its (possibly trained) network."""

    spec: DetectorSpec
    net: Network
    train_config: TrainConfig | None = None

    def decide_batch(self, features: np.ndarray) -> np.ndarray:
        """Decisions for a (num, feature_size) batch: ERNet rounds its
        output half-up and clamps it to [0, M-1]; the softmax heads take
        the argmax (ties to the smaller index).  A NaN or inf in the
        network output (say from a NaN or inf feature) raises ValueError."""
        with np.errstate(invalid="ignore"):  # inf * 0 in the matmul; raised below
            out = forward(self.net, features)
        if not np.isfinite(out).all():
            raise ValueError("network output is not finite (NaN or inf)")
        if self.spec.kind == "ernet":
            raw = np.floor(out[:, 0] + 0.5)
            return np.minimum(np.maximum(raw, 0), self.spec.num_antennas - 1).astype(int)
        return np.argmax(out, axis=1)

    def estimate(self, r_hat) -> int:
        """Source-count estimate for one covariance: its feature row,
        decided as a one-row batch.

        Raises:
            ValueError: If the covariance has a NaN or infinite entry
                (the eigenvalue features find it in ``hermitian_eig``).
        """
        spec = self.spec
        feature = feature_kind(spec.kind, spec.subarray_size)
        row = make_feature(r_hat, feature, spec.subarray_size)[np.newaxis]
        if feature == "cov" and not np.isfinite(row).all():
            raise ValueError("matrix has non-finite entries (NaN or inf)")
        if spec.normalize:
            row = normalize_features(row, feature)
        return int(self.decide_batch(row)[0])


def save_detector(detector: Detector, path):
    """Writes the network in the portable model format, tagging the spec
    in the metadata block so the detector can be rebuilt on load."""
    spec = detector.spec
    meta = {
        "detector": spec.kind,
        "num_antennas": spec.num_antennas,
        "subarray_size": spec.subarray_size,
        "hidden": list(spec.hidden),
        "normalize": spec.normalize,
    }
    save_network(detector.net, path, detector.train_config, meta)


def load_detector(path) -> Detector:
    net, train_config, meta = load_network(path)
    try:
        spec = DetectorSpec(
            kind=meta["detector"],
            num_antennas=int(meta["num_antennas"]),
            subarray_size=meta.get("subarray_size"),
            hidden=tuple(meta.get("hidden", DEFAULT_HIDDEN)),
            normalize=bool(meta.get("normalize", False)),
        )
    except KeyError as exc:
        raise ValueError(f"model file {path} lacks detector metadata: {exc}") from exc
    return Detector(spec=spec, net=net, train_config=train_config)
