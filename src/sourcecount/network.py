"""From-scratch fully-connected network engine.

Implements exactly what the detectors need and nothing more: dense
layers with ReLU / linear / softmax activations, L2 and categorical
cross-entropy losses, analytic backpropagation, the ADAM optimizer, a
truncated-normal initializer, and a deterministic mini-batch training
loop.  A network's parameters are views of one float64 vector.

A layer applies ``g(W x + b)`` with ``W`` of shape (out, in).  Batches
are row-major: :func:`forward` and :func:`compute_loss` take only
(batch, dim) predictions, one sample being a one-row batch; training
takes one label per sample.  The engine takes a network's layout as
given: ``detectors._layer_plan`` is its one description, and
``detectors`` owns the model file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import FLOAT_MAX, check_count, check_real

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
    """Ordered dense layers, laid out by ``detectors._layer_plan``.  Holds
    copies of the given layers, whose arrays are views of ``params``."""

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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


def compute_loss(pred, labels, loss: str) -> float:
    """Batch mean ``"l2"`` loss of (batch, 1) predictions against targets, or
    ``"cce"`` loss of (batch, dim) rows against classes, which index their rows."""
    pred, labels = np.asarray(pred, dtype=float), np.asarray(labels)
    if pred.ndim != 2 or labels.shape != pred.shape[:1] or loss == "l2" and pred.shape[1] != 1:
        raise ValueError(f"prediction and labels must be (batch, dim) and (batch,) arrays, "
                         f"dim 1 under l2, got {pred.shape} and {labels.shape}")
    if loss == "l2":
        terms = pred[:, 0] - labels
        terms *= terms
    elif loss == "cce":
        terms = np.maximum(pred[np.arange(len(labels)), labels], CCE_FLOOR)
        np.log(terms, out=terms)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    mean = np.add.reduce(terms) / len(terms)  # np.mean's division, without its overhead
    return float(-mean if loss == "cce" else mean)


def _backward_from_cache(net: Network, acts, labels: np.ndarray, grads, deltas):
    """Analytic gradients given a cached forward pass and the batch's labels,
    written into ``grads``; each layer's delta goes into ``deltas`` (shaped
    like ``acts[1:]``).  Softmax plus cross-entropy is fused, so the output
    delta is (prediction - one-hot class) / batch; 2 (prediction - target) / batch under L2."""
    delta = deltas[-1]
    np.copyto(delta, acts[-1])
    if net.layers[-1].activation == "softmax":
        delta[np.arange(len(labels)), labels] -= 1.0
    else:
        delta[:, 0] -= labels
        delta *= 2.0
    delta /= len(labels)
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


class AdamState:
    """ADAM's step count and zeroed moment and scratch vectors, in the layout of ``net.params``."""

    def __init__(self, net: Network):
        self.step = 0
        self.moment1, self.moment2 = np.zeros_like(net.params), np.zeros_like(net.params)
        self.scratch = (np.zeros_like(net.params), np.zeros_like(net.params))


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


def init_truncated_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """An (out, in) weight of normal draws with variance 1/in, redrawn beyond two sigma."""
    sigma = 1.0 / math.sqrt(check_count("fan_in", shape[1], 1))
    w = sigma * rng.standard_normal(shape)
    out_of_bounds = np.abs(w) > 2.0 * sigma
    while np.any(out_of_bounds):
        w[out_of_bounds] = sigma * rng.standard_normal(int(np.count_nonzero(out_of_bounds)))
        out_of_bounds = np.abs(w) > 2.0 * sigma
    return w


def train(net: Network, features, labels, config: TrainConfig) -> list[float]:
    """Mini-batch ADAM training on (n, input_dim) features and (n,) labels,
    in place; returns per-epoch mean loss (cross-entropy against integer
    classes after a softmax output layer, L2 after a one-output linear one).

    Each epoch reshuffles the full dataset with the config-seeded RNG
    and sweeps batches of ``config.batch_size`` (final short batch
    kept).  Deterministic given (net, data, config).

    Raises:
        ValueError: If the data are misshapen, or a label is not a class.
        ArithmeticError: If a feature or label is not finite, or a step
            overflows or makes a NaN (the error names the epoch and batch).
    """
    softmax = net.layers[-1].activation == "softmax"
    x, y = np.asarray(features, dtype=float), np.asarray(labels, dtype=None if softmax else float)
    if x.ndim != 2 or x.shape[1] != net.input_dim or y.shape != x.shape[:1]:
        raise ValueError(f"features and labels must be (n, {net.input_dim}) and (n,) arrays, "
                         f"got shapes {x.shape} and {y.shape}")
    if len(x) == 0:
        raise ValueError("dataset is empty")
    if not softmax and net.output_dim != 1:
        raise ValueError(f"a linear head must have one output, got {net.output_dim}")
    if not (np.isfinite(x).all() and (y.dtype.kind not in "fc" or np.isfinite(y).all())):
        raise ArithmeticError("non-finite value in the features or labels")
    if softmax and (y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= net.output_dim):
        raise ValueError(f"softmax labels must be integer classes in [0, {net.output_dim - 1}]")

    n, loss = len(x), "cce" if softmax else "l2"
    rng = np.random.default_rng(config.seed)
    state = AdamState(net)
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
                shuffled = y.take(order)
                total = 0.0
                for start in range(0, n, config.batch_size):
                    idx = order[start:start + config.batch_size]
                    xb, yb = x.take(idx, axis=0), shuffled[start:start + config.batch_size]
                    outs, deltas = buffers[len(idx)]
                    acts = _forward_cached(net, xb, outs)
                    batch_loss = compute_loss(acts[-1], yb, loss)
                    if not math.isfinite(batch_loss):  # a GEMM thread's overflow sets no flag
                        raise ArithmeticError(f"non-finite loss {batch_loss} at epoch {epoch}, "
                                              f"batch starting at {start}")
                    _backward_from_cache(net, acts, yb, grad_views, deltas)
                    adam_step(net, grad, state, config)
                    total += batch_loss * len(idx)
                history.append(total / n)
    except FloatingPointError as exc:
        raise ArithmeticError(f"{exc} at epoch {epoch}, batch starting at {start}") from exc
    return history

