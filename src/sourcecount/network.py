"""From-scratch fully-connected network engine.

Implements exactly what the detectors need and nothing more: dense
layers with ReLU / linear / softmax activations, L2 and categorical
cross-entropy losses, analytic backpropagation, the ADAM optimizer, a
truncated-normal initializer, and a deterministic mini-batch training
loop.  A network's parameters are views of one float64 vector.

A layer applies ``g(W x + b)`` with ``W`` of shape (out, in).  Batches
are row-major: :func:`forward` and :func:`compute_loss` take only
(batch, dim) arrays, one sample being a one-row batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .linalg import FLOAT_MAX, check_count, check_real

ACTIVATIONS = ("relu", "linear", "softmax")

# Probability floor inside the cross-entropy logarithm.
CCE_FLOOR = 1e-12

# ADAM's fixed decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class Network:
    """Ordered dense layers; softmax only last, ReLU only hidden.  Holds
    copies of the given layers, whose arrays are views of ``params``."""

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {layer.activation!r}")
            if layer.weights.ndim != 2 or layer.bias.ndim != 1:
                raise ValueError("layer weights must be 2-D and bias 1-D")
            if layer.bias.shape[0] != layer.out_dim:
                raise ValueError("bias length must match output size")
            last = i == len(self.layers) - 1
            if layer.activation == "softmax" and not last:
                raise ValueError("softmax is only allowed on the output layer")
            if layer.activation == "relu" and last:
                raise ValueError("relu is only allowed on hidden layers")
            if i > 0 and layer.in_dim != self.layers[i - 1].out_dim:
                raise ValueError(
                    f"layer {i} input size {layer.in_dim} does not chain with "
                    f"previous output size {self.layers[i - 1].out_dim}"
                )
        self.params = np.concatenate([np.ravel(a) for layer in self.layers
                                      for a in (layer.weights, layer.bias)], dtype=float)
        self.layers = [Layer(w, b, layer.activation) for layer, (w, b)
                       in zip(self.layers, _layer_views(self, self.params))]

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


def _layer_views(net: Network, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of ``flat`` per layer, laid out as (row-major weights, bias)."""
    parts = np.split(flat, np.cumsum([n for layer in net.layers
                                      for n in (layer.weights.size, layer.out_dim)])[:-1])
    return [(w.reshape(layer.weights.shape), b)
            for layer, w, b in zip(net.layers, parts[::2], parts[1::2])]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 400
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "learning_rate",
                           check_real("learning_rate", self.learning_rate, 0.0, FLOAT_MAX))
        for name, low in (("batch_size", 1), ("epochs", 0), ("seed", 0)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))


def _softmax_rows(z: np.ndarray):
    """Shifted softmax of each row of the 2-D array ``z``, in place.  A max
    is exact in any order, so the row max is taken over a (faster)
    transposed copy; the row sums' pairwise order fixes the bits."""
    z -= np.maximum.reduce(z.T.copy())[:, np.newaxis]
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)


def _forward_cached(net: Network, x: np.ndarray, outs=None) -> list[np.ndarray]:
    """Batch forward pass keeping every layer's activations for backprop:
    ``x`` and then each layer's output, written into ``outs`` if given."""
    acts = [x]
    for layer, z in zip(net.layers, outs or [None] * len(net.layers)):
        z = np.dot(acts[-1], layer.weights.T, out=z)
        z += layer.bias
        if layer.activation == "relu":
            np.maximum(0.0, z, out=z)
        elif layer.activation == "softmax":
            _softmax_rows(z)
        acts.append(z)
    return acts


def forward(net: Network, x) -> np.ndarray:
    """Network output for a (batch, input_dim) batch, taken in C order so that
    any layout of ``x`` gives the same bits."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"input must be a (batch, {net.input_dim}) array, got shape {x.shape}")
    return _forward_cached(net, x)[-1]


def compute_loss(pred, target, loss: str) -> float:
    """Batch mean ``"l2"`` or ``"cce"`` loss of (batch, dim) rows."""
    pred, target = np.asarray(pred, dtype=float), np.asarray(target, dtype=float)
    if pred.ndim != 2 or pred.shape != target.shape:
        raise ValueError(f"prediction and target must be (batch, dim) arrays of one "
                         f"shape, got {pred.shape} and {target.shape}")
    if loss == "l2":
        terms = pred - target
        terms *= terms
    elif loss == "cce":
        terms = np.maximum(pred, CCE_FLOOR)
        np.log(terms, out=terms)
        terms *= target
    else:
        raise ValueError(f"unknown loss {loss!r}")
    rows = np.add.reduce(terms, axis=-1)
    mean = np.add.reduce(rows) / len(rows)  # np.mean's division, without its overhead
    return float(-mean if loss == "cce" else mean)


def _backward_from_cache(net: Network, acts, target: np.ndarray, grads, deltas=None):
    """Analytic gradients given a cached forward pass, written into ``grads``;
    each layer's delta goes into ``deltas`` (shaped like ``acts[1:]``) if given.

    Softmax plus cross-entropy is fused, so the output delta is simply
    (prediction - target) scaled by the batch size under either loss.
    """
    deltas = deltas or [None] * len(net.layers)
    delta = np.subtract(acts[-1], target, out=deltas[-1])
    if net.layers[-1].activation != "softmax":
        delta *= 2.0
    delta /= acts[0].shape[0]
    for i in range(len(net.layers) - 1, -1, -1):
        np.dot(delta.T, acts[i], out=grads[i][0])
        np.add.reduce(delta, axis=0, out=grads[i][1])
        if i > 0:
            delta = np.dot(delta, net.layers[i].weights, out=deltas[i - 1])
            if net.layers[i - 1].activation == "relu":
                # Subgradient 0 at the kink: relu(z) > 0 exactly when z > 0,
                # so units with z <= 0 (or NaN) pass nothing.
                delta *= acts[i] > 0.0
    return grads


@dataclass
class AdamState:
    """ADAM's moment and scratch vectors, in the layout of ``Network.params``."""

    moment1: np.ndarray
    moment2: np.ndarray
    step: int = 0
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.moment1), np.empty_like(self.moment1))

    @classmethod
    def for_network(cls, net: Network) -> "AdamState":
        return cls(np.zeros_like(net.params), np.zeros_like(net.params))


def adam_step(net: Network, grad: np.ndarray, state: AdamState, config: TrainConfig):
    """One ADAM update with bias correction, in place on ``net.params``."""
    if np.shape(grad) != net.params.shape:
        raise ValueError("gradient does not match the network's parameter vector")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    m1, m2 = state.moment1, state.moment2
    s1, s2 = state.scratch
    # One op at a time, into scratch.  Folding a constant such as lr/bc1
    # would change the trained bits.
    m1 *= b1
    m1 += np.multiply(grad, 1.0 - b1, out=s1)
    m2 *= b2
    m2 += np.multiply(np.multiply(grad, 1.0 - b2, out=s2), grad, out=s2)
    np.multiply(np.divide(m1, bc1, out=s1), config.learning_rate, out=s1)
    np.sqrt(np.divide(m2, bc2, out=s2), out=s2)
    s2 += ADAM_EPSILON
    net.params -= np.divide(s1, s2, out=s1)


def init_truncated_normal(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Normal draws with variance 1/fan_in, redrawn beyond two sigma."""
    sigma = 1.0 / math.sqrt(check_count("fan_in", fan_in, 1))
    w = sigma * rng.standard_normal(shape)
    out_of_bounds = np.abs(w) > 2.0 * sigma
    while np.any(out_of_bounds):
        w[out_of_bounds] = sigma * rng.standard_normal(int(np.count_nonzero(out_of_bounds)))
        out_of_bounds = np.abs(w) > 2.0 * sigma
    return w


def train(net: Network, features, targets, config: TrainConfig) -> list[float]:
    """Mini-batch ADAM training, in place; returns per-epoch mean loss
    (cross-entropy after a softmax output layer, L2 after a linear one).

    Each epoch reshuffles the full dataset with the config-seeded RNG
    and sweeps batches of ``config.batch_size`` (final short batch
    kept).  Deterministic given (net, data, config).

    Raises:
        ArithmeticError: If a feature or target is not finite, or a step
            overflows or makes a NaN (the error names the epoch and batch).
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("features and targets must be 2-D arrays")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and targets must have equal sample counts")
    if x.shape[0] == 0:
        raise ValueError("dataset is empty")
    if x.shape[1] != net.input_dim or y.shape[1] != net.output_dim:
        raise ValueError("dataset dimensions do not match the network")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ArithmeticError("non-finite value in the features or targets")

    n = x.shape[0]
    loss = "cce" if net.layers[-1].activation == "softmax" else "l2"
    rng = np.random.default_rng(config.seed)
    state = AdamState.for_network(net)
    grad = np.empty_like(net.params)
    grad_views = _layer_views(net, grad)
    # Activation and delta buffers for the full batch and the short tail.
    buffers = {rows: [[np.empty((rows, layer.out_dim)) for layer in net.layers]
                      for _ in range(2)]
               for rows in {min(config.batch_size, n), n % config.batch_size} - {0}}
    history: list[float] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(config.epochs):
                order = rng.permutation(n)
                total = 0.0
                for start in range(0, n, config.batch_size):
                    idx = order[start:start + config.batch_size]
                    xb, yb = x.take(idx, axis=0), y.take(idx, axis=0)
                    outs, deltas = buffers[len(idx)]
                    acts = _forward_cached(net, xb, outs)
                    batch_loss = compute_loss(acts[-1], yb, loss)
                    if not math.isfinite(batch_loss):
                        raise ArithmeticError(
                            f"non-finite loss {batch_loss} at epoch {epoch}, "
                            f"batch starting at {start}"
                        )
                    _backward_from_cache(net, acts, yb, grad_views, deltas)
                    adam_step(net, grad, state, config)
                    total += batch_loss * len(idx)
                history.append(total / n)
    except FloatingPointError as exc:
        raise ArithmeticError(f"{exc} at epoch {epoch}, batch starting at {start}") from exc
    return history


# --- Serialization: a JSON document whose floats are written as their
# shortest repr, which reads back to the same float64.

FORMAT_NAME = "sourcecount-network"
FORMAT_VERSION = 1


def dumps_network(net: Network, train_config: TrainConfig | None = None,
                  meta: dict | None = None) -> str:
    """Serializes a network (plus optional training config and metadata).
    A non-finite parameter raises ValueError."""
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
           "layers": [{"activation": layer.activation, "rows": layer.out_dim,
                       "cols": layer.in_dim, "weights": layer.weights.ravel().tolist(),
                       "bias": layer.bias.tolist()} for layer in net.layers],
           "train_config": None if train_config is None else asdict(train_config),
           "meta": meta or {}}
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def loads_network(text: str) -> tuple[Network, TrainConfig | None, dict]:
    """Parses :func:`dumps_network` output back, bit-exact.  Raises ValueError for NaN,
    Infinity or a layer number past the float range (such as ``1e400``), a missing entry,
    a value of the wrong JSON type, and a ``train_config`` key that is not a
    :class:`TrainConfig` field or holds a value of another type than its field's."""
    doc = json.loads(text, parse_constant=_reject_constant)
    try:
        if doc.get("format") != FORMAT_NAME:
            raise ValueError("not a serialized network document")
        if doc.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {doc.get('version')}")
        layers = []
        for entry in doc["layers"]:
            rows, cols = int(entry["rows"]), int(entry["cols"])
            weights = np.array(entry["weights"], dtype=float).reshape(rows, cols)
            bias = np.array(entry["bias"], dtype=float)
            if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
                raise ValueError("non-finite number (a literal beyond the float range)")
            layers.append(Layer(weights=weights, bias=bias, activation=entry["activation"]))
        net = Network(layers)
        config = None
        if doc.get("train_config") is not None:
            entries = doc["train_config"]
            unknown = sorted(entries.keys() - {f.name for f in fields(TrainConfig)})
            if unknown:
                raise ValueError(f"unknown train_config keys {unknown}")
            config = TrainConfig(**entries)  # which checks each value
        return net, config, doc.get("meta", {})
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed document: {type(exc).__name__}: {exc}") from exc
