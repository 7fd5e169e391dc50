"""Tests for the from-scratch network engine."""

import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sourcecount import network
from sourcecount.detectors import DetectorSpec, build_detector
from sourcecount.experiments import _blas_core
from sourcecount.network import (
    AdamState,
    Layer,
    Network,
    TrainConfig,
    adam_step,
    compute_loss,
    dumps_network,
    forward,
    init_truncated_normal,
    loads_network,
    train,
)
from sourcecount.network import _backward_from_cache, _forward_cached, _layer_views, _softmax_rows


def layer(w, b, activation):
    return Layer(np.array(w, dtype=float), np.array(b, dtype=float), activation)


def gradients(net, x, target):
    """The gradients that a training step takes, one (d_weights, d_bias) pair per layer."""
    return _backward_from_cache(net, _forward_cached(net, x), target,
                                _layer_views(net, np.empty_like(net.params)))


def softmax_rows(z):
    """The forward pass's softmax kernel, run on a 2-D copy of ``z``."""
    out = np.array(z, dtype=float, ndmin=2)
    _softmax_rows(out)
    return out


def random_net(sizes, final, rng):
    layers = []
    for i in range(len(sizes) - 1):
        act = final if i == len(sizes) - 2 else "relu"
        layers.append(Layer(rng.standard_normal((sizes[i + 1], sizes[i])) * 0.5,
                            rng.standard_normal(sizes[i + 1]) * 0.1, act))
    return Network(layers)


def random_data(sizes, final, rng, n=150):
    """``n`` normal feature rows and matching targets: one-hot rows for a
    softmax output, normal rows for a linear one."""
    x = rng.standard_normal((n, sizes[0]))
    if final == "softmax":
        return x, np.eye(sizes[-1])[rng.integers(0, sizes[-1], n)]
    return x, rng.standard_normal((n, sizes[-1]))


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = Network([layer(np.zeros((3, 2)), np.zeros(3), "linear")])
        assert np.array_equal(forward(net, [[1.0, -2.0]]), np.zeros((1, 3)))

    def test_identity_layer(self):
        net = Network([layer(np.eye(4), np.zeros(4), "linear")])
        x = np.array([[0.5, -1.0, 2.0, 0.0]])
        assert np.array_equal(forward(net, x), x)

    def test_hand_computed_relu_cascade(self):
        # 2-2-1 fixture worked out by hand:
        # z1 = [1*1 - 1*2, 0.5*1 + 2*2 - 1] = [-1, 3.5] -> relu [0, 3.5]
        # out = 0 + 3.5 + 0.5 = 4.0
        net = Network([
            layer([[1.0, -1.0], [0.5, 2.0]], [0.0, -1.0], "relu"),
            layer([[1.0, 1.0]], [0.5], "linear"),
        ])
        assert forward(net, [[1.0, 2.0]])[0, 0] == pytest.approx(4.0, abs=1e-15)

    def test_dimension_check(self):
        net = Network([layer(np.eye(4), np.zeros(4), "linear")])
        with pytest.raises(ValueError):
            forward(net, [[1.0, 2.0]])

    @pytest.mark.parametrize("call", [
        lambda net, x: forward(net, x),
        lambda net, x: compute_loss(x, x, "l2"),
    ], ids=["forward", "compute_loss"])
    @pytest.mark.parametrize("shape", [(2,), (), (1, 1, 2)], ids=["vector", "scalar", "3-D"])
    def test_only_batches_accepted(self, call, shape):
        net = Network([layer(np.eye(2), np.zeros(2), "linear")])
        with pytest.raises(ValueError, match=r"\(batch, "):
            call(net, np.ones(shape))

    @pytest.mark.parametrize("layout", ["strided columns", "fortran", "reversed rows"])
    @pytest.mark.parametrize("kind", ["ernet", "covnet"])
    def test_any_input_layout_gives_the_contiguous_bits(self, kind, layout):
        # BLAS sums a Fortran-ordered batch in another order (CovNet's 200-wide
        # layer shows it), so forward takes the rows in C order first.
        spec = DetectorSpec(kind, 10)
        net = build_detector(spec, np.random.default_rng(0))
        wide = np.random.default_rng(1).standard_normal((64, 2 * spec.feature_size))
        x = {"strided columns": wide[:, ::2],
             "fortran": np.asfortranarray(wide[:, :spec.feature_size]),
             "reversed rows": wide[::-1, :spec.feature_size]}[layout]
        assert np.array_equal(forward(net, x), forward(net, np.ascontiguousarray(x)))


class TestNetworkValidation:
    def test_softmax_only_final(self):
        with pytest.raises(ValueError):
            Network([layer(np.eye(2), np.zeros(2), "softmax"),
                     layer(np.eye(2), np.zeros(2), "linear")])

    def test_relu_not_final(self):
        with pytest.raises(ValueError):
            Network([layer(np.eye(2), np.zeros(2), "relu")])

    def test_dimension_chain(self):
        with pytest.raises(ValueError):
            Network([layer(np.zeros((3, 2)), np.zeros(3), "relu"),
                     layer(np.zeros((1, 4)), np.zeros(1), "linear")])


class TestActivations:
    def test_relu(self):
        # A ReLU identity layer under a linear identity layer gives max(0, z).
        net = Network([layer(np.eye(3), np.zeros(3), "relu"),
                       layer(np.eye(3), np.zeros(3), "linear")])
        z = np.array([[-1.0, 0.0, 2.0], [-3.0, -0.5, 0.0], [1.0, 0.1, 5.0]])
        assert np.array_equal(forward(net, z), [[0.0, 0.0, 2.0], [0.0, 0.0, 0.0],
                                                [1.0, 0.1, 5.0]])

    def test_softmax_symmetry(self):
        assert np.allclose(softmax_rows(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_softmax_shift_invariance(self):
        for c in (-50.0, 0.0, 123.0):
            assert np.allclose(softmax_rows(np.full(4, c)), 0.25)
        z = np.array([0.3, -1.2, 4.0])
        assert np.allclose(softmax_rows(z), softmax_rows(z + 77.7))

    def test_softmax_matches_direct_evaluation(self):
        z = np.array([1.0, 2.0, 3.0])
        denom = sum(math.exp(v) for v in z)
        assert np.allclose(softmax_rows(z), [math.exp(v) / denom for v in z], rtol=1e-14)

    def test_softmax_normalized_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            out = softmax_rows(rng.standard_normal(9) * 100)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out > 0.0)

    def test_softmax_overflow_guard(self):
        out = softmax_rows(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)


class TestLosses:
    def test_l2_zero_at_fit(self):
        assert compute_loss(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]), "l2") == 0.0

    def test_l2_scalar(self):
        assert compute_loss(np.array([[3.0]]), np.array([[1.0]]), "l2") == pytest.approx(4.0)

    def test_l2_batch_mean_of_two(self):
        pred = np.array([[1.0, 0.0], [0.0, 2.0]])
        target = np.array([[0.0, 0.0], [0.0, 0.0]])
        # hand sum: (1 + 4) / 2
        assert compute_loss(pred, target, "l2") == pytest.approx(2.5)

    def test_cce_zero_at_one_hot_fit(self):
        y = np.zeros((1, 5))
        y[0, 2] = 1.0
        assert compute_loss(y, y, "cce") == pytest.approx(0.0, abs=1e-12)

    def test_cce_uniform_prediction(self):
        pred = np.full((1, 10), 0.1)
        label = np.zeros((1, 10))
        label[0, 4] = 1.0
        assert compute_loss(pred, label, "cce") == pytest.approx(math.log(10.0), rel=1e-12)

    def test_cce_scalar_evaluation(self):
        pred = np.array([[0.7, 0.2, 0.1]])
        label = np.array([[1.0, 0.0, 0.0]])
        assert compute_loss(pred, label, "cce") == pytest.approx(-math.log(0.7), rel=1e-12)

    def test_losses_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
            assert compute_loss(a, b, "l2") >= 0.0
            p = softmax_rows(rng.standard_normal((1, 6)))
            y = np.zeros((1, 6))
            y[0, int(rng.integers(0, 6))] = 1.0
            assert compute_loss(p, y, "cce") >= 0.0


def finite_difference_grads(net, x, target, loss, h=1e-6):
    """Central-difference oracle over every parameter."""
    grads = []
    for lay in net.layers:
        gw = np.zeros_like(lay.weights)
        gb = np.zeros_like(lay.bias)
        for arr, out in ((lay.weights, gw), (lay.bias, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = compute_loss(forward(net, x), target, loss)
                arr[idx] = orig - h
                down = compute_loss(forward(net, x), target, loss)
                arr[idx] = orig
                out[idx] = (up - down) / (2.0 * h)
        grads.append((gw, gb))
    return grads


def max_relative_error(analytic, numeric):
    # 1e-4 floor: central differences at h=1e-6 carry ~1e-9 absolute
    # cancellation noise, so smaller entries are noise-limited.
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestBackward:
    def test_zero_gradient_at_perfect_fit(self):
        net = Network([layer(np.eye(2), np.zeros(2), "linear")])
        x = np.array([[0.3, -0.7]])
        grads = gradients(net, x, x)
        for gw, gb in grads:
            assert np.allclose(gw, 0.0)
            assert np.allclose(gb, 0.0)

    def test_matches_finite_differences_regression(self):
        rng = np.random.default_rng(12)
        net = random_net([10, 8, 8, 1], "linear", rng)
        x = rng.standard_normal((1, 10))
        y = np.array([[2.0]])
        analytic = gradients(net, x, y)
        numeric = finite_difference_grads(net, x, y, "l2")
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_matches_finite_differences_classification(self):
        rng = np.random.default_rng(15)
        net = random_net([6, 8, 8, 6], "softmax", rng)
        x = rng.standard_normal((1, 6))
        y = np.zeros((1, 6))
        y[0, 2] = 1.0
        analytic = gradients(net, x, y)
        numeric = finite_difference_grads(net, x, y, "cce")
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_dead_relu_unit_blocks_gradient(self):
        # first hidden unit has strongly negative pre-activation
        net = Network([
            layer([[-5.0, -5.0], [1.0, 1.0]], [0.0, 0.0], "relu"),
            layer([[1.0, 1.0]], [0.0], "linear"),
        ])
        grads = gradients(net, np.array([[1.0, 1.0]]), np.array([[0.0]]))
        gw1, gb1 = grads[0]
        assert np.allclose(gw1[0], 0.0)  # dead unit row
        assert gb1[0] == 0.0
        assert np.any(gw1[1] != 0.0)  # live unit still learns


class TestAdam:
    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(4)
        net = random_net([3, 4, 1], "linear", rng)
        before = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
        adam_step(net, np.zeros_like(net.params), AdamState.for_network(net), TrainConfig())
        for (w0, b0), lay in zip(before, net.layers):
            assert np.array_equal(w0, lay.weights)
            assert np.array_equal(b0, lay.bias)

    def test_first_step_magnitude_is_learning_rate(self):
        net = Network([layer([[1.0]], [0.0], "linear")])
        config = TrainConfig(learning_rate=0.01)
        adam_step(net, np.array([0.37, 0.0]), AdamState.for_network(net), config)
        # |dw| = lr * |g| / (|g| + eps) ~ lr
        assert abs(net.layers[0].weights[0, 0] - 1.0) == pytest.approx(0.01, rel=1e-6)

    def test_three_steps_match_hand_recurrence(self):
        # scripted ADAM recurrence on a single parameter of f(w) = w^2
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w, m, v = 1.0, 0.0, 0.0
        trajectory = []
        for t in range(1, 4):
            g = 2.0 * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
            trajectory.append(w)

        net = Network([layer([[1.0]], [0.0], "linear")])
        state = AdamState.for_network(net)
        config = TrainConfig(learning_rate=lr)
        got = []
        for _ in range(3):
            g = 2.0 * net.layers[0].weights[0, 0]
            adam_step(net, np.array([g, 0.0]), state, config)
            got.append(net.layers[0].weights[0, 0])
        assert np.allclose(got, trajectory, rtol=1e-12)

    def test_misshapen_gradient_rejected(self):
        net = Network([layer([[1.0]], [0.0], "linear")])
        with pytest.raises(ValueError, match="parameter vector"):
            adam_step(net, np.zeros(3), AdamState.for_network(net), TrainConfig())


class TestFlatParameters:
    @pytest.mark.parametrize("kind, m0", [("ernet", None), ("ecnet", None),
                                          ("covnet", None), ("ernet", 4)])
    def test_layers_are_views_of_params(self, kind, m0):
        built = build_detector(DetectorSpec(kind, 6, subarray_size=m0),
                               np.random.default_rng(0))
        loaded, _, _ = loads_network(dumps_network(built))
        for net in (built, loaded):
            flat = [a.ravel() for lay in net.layers for a in (lay.weights, lay.bias)]
            assert np.array_equal(net.params, np.concatenate(flat))
            for lay in net.layers:
                assert np.shares_memory(lay.weights, net.params)
                assert np.shares_memory(lay.bias, net.params)


    def test_construction_copies_the_given_layers(self):
        given = [layer(np.eye(2), np.zeros(2), "linear")]
        first, second = Network(given), Network(given)
        first.params += 1.0
        assert np.array_equal(first.layers[0].weights, np.eye(2) + 1.0)
        assert np.array_equal(second.layers[0].weights, np.eye(2))
        assert np.array_equal(given[0].weights, np.eye(2))


class TestInit:
    def test_bounded_by_two_sigma(self):
        rng = np.random.default_rng(5)
        w = init_truncated_normal((100, 100), 8, rng)
        assert np.all(np.abs(w) <= 2.0 / math.sqrt(8))

    def test_variance_matches_truncated_normal(self):
        rng = np.random.default_rng(6)
        w = init_truncated_normal((100000,), 8, rng)
        # exact variance of a normal truncated at +-2 sigma
        phi = math.exp(-2.0) / math.sqrt(2.0 * math.pi)
        cdf_width = math.erf(2.0 / math.sqrt(2.0))
        exact = (1.0 / 8.0) * (1.0 - 4.0 * phi / cdf_width)
        assert np.var(w) == pytest.approx(exact, rel=0.15)
        assert np.var(w) < 1.0 / 8.0  # truncation shrinks variance

    def test_seed_determinism(self):
        w1 = init_truncated_normal((16, 4), 4, np.random.default_rng(7))
        w2 = init_truncated_normal((16, 4), 4, np.random.default_rng(7))
        assert np.array_equal(w1, w2)


class TestTrain:
    def toy_data(self, rng, n=64):
        x = rng.standard_normal((n, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        targets = np.stack([1.0 - y, y], axis=1)
        return x, targets

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(8)
        net = random_net([2, 4, 2], "softmax", rng)
        before = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
        x, y = self.toy_data(rng)
        train(net, x, y, TrainConfig(learning_rate=0.0, epochs=5, batch_size=16))
        for (w0, b0), lay in zip(before, net.layers):
            assert np.array_equal(w0, lay.weights)
            assert np.array_equal(b0, lay.bias)

    def test_separable_classes_learned(self):
        rng = np.random.default_rng(9)
        net = random_net([2, 8, 2], "softmax", rng)
        x, y = self.toy_data(rng, n=256)
        history = train(net, x, y, TrainConfig(epochs=50, batch_size=32, seed=1))
        assert history[-1] < history[0]

    def test_memorizes_single_sample(self):
        rng = np.random.default_rng(10)
        net = random_net([3, 8, 8, 1], "linear", rng)
        x = rng.standard_normal((1, 3))
        y = np.array([[1.5]])
        history = train(net, x, y, TrainConfig(epochs=2000, batch_size=1, seed=2))
        assert history[-1] < 1e-4

    def test_reproducible_parameters(self):
        rng = np.random.default_rng(11)
        x, y = self.toy_data(rng, n=128)
        nets = []
        for _ in range(2):
            net = random_net([2, 6, 2], "softmax", np.random.default_rng(123))
            train(net, x, y, TrainConfig(epochs=10, batch_size=16, seed=5))
            nets.append(net)
        for l1, l2 in zip(nets[0].layers, nets[1].layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.bias, l2.bias)

    def test_nan_input_aborts_with_diagnostic(self):
        rng = np.random.default_rng(12)
        net = random_net([2, 4, 1], "linear", rng)
        x = np.array([[1.0, float("nan")]])
        with pytest.raises(ArithmeticError, match="non-finite"):
            train(net, x, np.array([[0.0]]), TrainConfig(epochs=1, batch_size=1))

    @pytest.mark.parametrize("final", ["linear", "softmax"])
    @pytest.mark.parametrize("where, bad", [("features", math.inf), ("features", -math.inf),
                                            ("targets", math.nan)])
    def test_non_finite_data_aborts_without_warning(self, final, where, bad):
        net = random_net([2, 4, 2], final, np.random.default_rng(12))
        data = {"features": np.ones((2, 2)), "targets": np.array([[0.0, 1.0], [1.0, 0.0]])}
        data[where][1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArithmeticError, match="non-finite"):
                train(net, data["features"], data["targets"],
                      TrainConfig(epochs=1, batch_size=1))

    def test_one_loss_and_one_adam_call_per_step(self, monkeypatch):
        # A traced run splits training into forward, loss, backward and ADAM
        # by wrapping these module names, so train must call them per step.
        calls = {"_forward_cached": 0, "compute_loss": 0, "_backward_from_cache": 0,
                 "adam_step": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(network, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(network, name, counted)
        rng = np.random.default_rng(13)
        x, y = self.toy_data(rng, n=50)
        train(random_net([2, 4, 2], "softmax", rng), x, y,
              TrainConfig(epochs=3, batch_size=16))
        assert calls == dict.fromkeys(calls, 3 * 4)

    def test_fortran_ordered_data_trains_as_c_ordered(self):
        # The batch gather copies rows into C order, so the GEMMs see the
        # same layout (and sum in the same order) whatever the data's.
        rng = np.random.default_rng(17)
        for sizes, final in (([10, 8, 8, 1], "linear"), ([200, 8, 8, 10], "softmax")):
            x, y = random_data(sizes, final, rng)
            nets = [random_net(sizes, final, np.random.default_rng(3)) for _ in range(2)]
            config = TrainConfig(batch_size=64, epochs=2, seed=4)
            history = train(nets[0], x, y, config)
            assert train(nets[1], np.asfortranarray(x), np.asfortranarray(y), config) == history
            assert np.array_equal(nets[0].params, nets[1].params)

    @pytest.mark.parametrize("kind", ["ernet", "ecnet", "covnet"])
    def test_overflowing_step_aborts_without_warning(self, kind):
        # Finite features of 1e200 overflow the first step; the error
        # names where, and ADAM never goes on with infinite moments.
        spec = DetectorSpec(kind, 10)
        net = build_detector(spec, np.random.default_rng(0))
        x = np.full((4, spec.feature_size), 1e200)
        y = np.zeros((4, spec.output_size))
        y[:, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArithmeticError, match="overflow .* at epoch 0, batch "
                                                      "starting at 0"):
                train(net, x, y, TrainConfig(epochs=2, batch_size=2))

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf, -math.inf, -1e-3])
    def test_bad_learning_rate_rejected(self, learning_rate):
        with pytest.raises(ValueError, match=r"^learning_rate must be a real number in \[0.0, "):
            TrainConfig(learning_rate=learning_rate)

    def test_empty_dataset_rejected(self):
        rng = np.random.default_rng(13)
        net = random_net([2, 4, 1], "linear", rng)
        with pytest.raises(ValueError):
            train(net, np.zeros((0, 2)), np.zeros((0, 1)), TrainConfig(epochs=1))


def reference_train(net, x, y, config):
    """The training loop with the original formulas and one fresh array
    per operation, on copies of ``net``'s per-layer arrays: the bit-level
    reference that the buffered step in :func:`train` must match."""
    params = [[lay.weights.copy(), lay.bias.copy()] for lay in net.layers]
    acts_of = [lay.activation for lay in net.layers]
    moments = [[np.zeros_like(a) for a in pair] for pair in params]
    squares = [[np.zeros_like(a) for a in pair] for pair in params]
    b1, b2 = network.ADAM_BETA1, network.ADAM_BETA2
    rng = np.random.default_rng(config.seed)
    n, step, history = len(x), 0, []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], y[idx]
            acts = [xb]
            for (w, b), act in zip(params, acts_of):
                z = acts[-1] @ w.T + b
                if act == "relu":
                    z = np.maximum(0.0, z)
                elif act == "softmax":
                    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
                    z = e / np.sum(e, axis=-1, keepdims=True)
                acts.append(z)
            if acts_of[-1] == "softmax":
                loss = float(-np.mean(np.sum(yb * np.log(np.maximum(acts[-1], 1e-12)),
                                             axis=1)))
                delta = (acts[-1] - yb) / len(idx)
            else:
                loss = float(np.mean(np.sum((acts[-1] - yb) ** 2, axis=1)))
                delta = 2.0 * (acts[-1] - yb) / len(idx)
            grads = [None] * len(params)
            for i in range(len(params) - 1, -1, -1):
                grads[i] = [delta.T @ acts[i], delta.sum(axis=0)]
                if i > 0:
                    delta = delta @ params[i][0]
                    if acts_of[i - 1] == "relu":
                        delta = delta * (acts[i] > 0.0)
            step += 1
            bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for i, pair in enumerate(params):
                for j, g in enumerate(grads[i]):
                    moments[i][j] = b1 * moments[i][j] + (1.0 - b1) * g
                    squares[i][j] = b2 * squares[i][j] + (1.0 - b2) * g * g
                    pair[j] = pair[j] - config.learning_rate * (moments[i][j] / bc1) / (
                        np.sqrt(squares[i][j] / bc2) + network.ADAM_EPSILON)
            total += loss * len(idx)
        history.append(total / n)
    return params, history


class TestStepMatchesReference:
    @settings(max_examples=60, deadline=None)
    @example(sizes=[200, 8, 8, 10], final="softmax", n=150, batch_size=64, epochs=2,
             learning_rate=1e-3, seed=7)  # CovNet's width, with a short tail batch
    @given(sizes=st.lists(st.integers(1, 12), min_size=2, max_size=4),
           final=st.sampled_from(["linear", "softmax"]), n=st.integers(1, 40),
           batch_size=st.integers(1, 48), epochs=st.integers(1, 3),
           learning_rate=st.sampled_from([1e-3, 0.05]), seed=st.integers(0, 2 ** 16))
    def test_train_is_bit_identical_to_reference(self, sizes, final, n, batch_size,
                                                 epochs, learning_rate, seed):
        rng = np.random.default_rng(seed)
        net = random_net(sizes, final, rng)
        x = rng.standard_normal((n, sizes[0]))
        if final == "softmax":
            y = np.eye(sizes[-1])[rng.integers(0, sizes[-1], n)]
        else:
            y = rng.standard_normal((n, sizes[-1]))
        config = TrainConfig(learning_rate=learning_rate, batch_size=batch_size,
                             epochs=epochs, seed=seed)
        x0, y0 = x.copy(), y.copy()
        expected, expected_history = reference_train(net, x, y, config)
        history = train(net, x, y, config)
        assert history == expected_history
        for lay, (w, b) in zip(net.layers, expected):
            assert np.array_equal(lay.weights, w) and np.array_equal(lay.bias, b)
        assert np.array_equal(x, x0) and np.array_equal(y, y0)

        out = forward(net, x)
        assert np.array_equal(x, x0)
        first, second = gradients(net, x, y), gradients(net, x, y)
        for (gw1, gb1), (gw2, gb2) in zip(first, second):
            assert np.array_equal(gw1, gw2) and np.array_equal(gb1, gb2)
        assert np.array_equal(forward(net, x), out)


# Every (fan_in, fan_out) layer shape of the detectors: the 10 -> 8 -> 8 trunk
# and its ERNet and ECNet heads, CovNet's 200-wide and FBSS's 5-wide inputs.
LAYER_SHAPES = [(10, 8), (8, 8), (8, 1), (8, 10), (200, 8), (5, 8)]
# The shortest batches, the 64-row tail of 8000 rows in batches of 128, and a full batch.
BATCHES = [1, 2, 64, 128]


def check_dot_matches_matmul(fan_in, fan_out, rows):
    """Asserts that each GEMM of a training step gives ``np.matmul``'s bits
    through ``np.dot(..., out=)``, on C-ordered and row-strided activations."""
    rng = np.random.default_rng(fan_in * 1000 + fan_out * 10 + rows)
    w = rng.standard_normal((fan_out, fan_in))
    delta = rng.standard_normal((rows, fan_out))
    every_other = rng.standard_normal((2 * rows, fan_in))[::2]
    for acts in (np.ascontiguousarray(every_other), every_other):
        assert np.array_equal(np.dot(acts, w.T, out=np.empty((rows, fan_out))),
                              np.matmul(acts, w.T))
        assert np.array_equal(np.dot(delta.T, acts, out=np.empty((fan_out, fan_in))),
                              np.matmul(delta.T, acts))
    assert np.array_equal(np.dot(delta, w, out=np.empty((rows, fan_in))), np.matmul(delta, w))


def check_train_matches_reference():
    """Asserts that :func:`train` gives :func:`reference_train`'s params and
    history for an ERNet-shaped and a CovNet-shaped net, tail batch included."""
    rng = np.random.default_rng(11)
    for sizes, final in (([10, 8, 8, 1], "linear"), ([200, 8, 8, 10], "softmax")):
        net = random_net(sizes, final, rng)
        x, y = random_data(sizes, final, rng)
        config = TrainConfig(batch_size=64, epochs=2, seed=5)
        expected, expected_history = reference_train(net, x, y, config)
        assert train(net, x, y, config) == expected_history
        for lay, (w, b) in zip(net.layers, expected):
            assert np.array_equal(lay.weights, w) and np.array_equal(lay.bias, b)


class TestKernels:
    @pytest.mark.parametrize("rows", BATCHES)
    @pytest.mark.parametrize("fan_in, fan_out", LAYER_SHAPES)
    def test_dot_gives_the_matmul_bits(self, fan_in, fan_out, rows):
        # The step's GEMMs run through np.dot, which makes the same BLAS
        # call as np.matmul without the gufunc dispatch.
        check_dot_matches_matmul(fan_in, fan_out, rows)

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 cores")
    @pytest.mark.parametrize("core", ["Prescott"])
    def test_kernels_hold_on_a_second_blas_core(self, core):
        # The same checks in a process whose OpenBLAS runs another core's
        # kernels, so that the np.dot swap is pinned beyond the host's core.
        script = ("import test_network as t\n"
                  "for shape in t.LAYER_SHAPES:\n"
                  "    for rows in t.BATCHES:\n"
                  "        t.check_dot_matches_matmul(*shape, rows)\n"
                  "t.check_train_matches_reference()\n"
                  "print(t._blas_core())\n")
        here = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=here,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, f"under OPENBLAS_CORETYPE={core}:\n{done.stderr}"
        if done.stdout.strip() == _blas_core():  # e.g. the suite itself runs under Prescott
            pytest.skip(f"{core} runs the host's own core, which the other tests cover")


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(14)
        net = random_net([5, 8, 3], "softmax", rng)
        config = TrainConfig(learning_rate=1e-3, epochs=7, seed=99)
        text = dumps_network(net, config, meta={"detector": "ecnet"})
        loaded, loaded_config, meta = loads_network(text)
        assert loaded_config == config
        assert meta == {"detector": "ecnet"}
        assert [l.activation for l in loaded.layers] == [l.activation for l in net.layers]
        for l1, l2 in zip(net.layers, loaded.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.bias, l2.bias)

    def test_floats_written_as_shortest_repr(self):
        net = Network([layer([[1.0 / 3.0]], [0.1], "linear")])
        text = dumps_network(net)
        assert f"\n        {1.0 / 3.0!r}\n" in text and "\n        0.1\n" in text
        assert json.loads(text)["layers"][0]["weights"] == [1.0 / 3.0]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_not_written(self, value):
        net = Network([layer([[1.0]], [value], "linear")])
        with pytest.raises(ValueError):
            dumps_network(net)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-2e308"])
    def test_rejects_non_finite_parameters(self, constant):
        net = Network([layer(np.eye(2), np.zeros(2), "linear")])
        doc = json.loads(dumps_network(net))
        doc["layers"][0]["bias"][0] = "placeholder"
        text = json.dumps(doc).replace('"placeholder"', constant)
        with pytest.raises(ValueError, match="non-finite number"):
            loads_network(text)

    def test_old_layout_loads_bit_for_bit(self):
        # The layout written before floats were their shortest repr: 17
        # significant digits and a "layer_sizes" key, which no reader reads.
        text = """{
  "format": "sourcecount-network",
  "version": 1,
  "layer_sizes": [2, 1, 1],
  "layers": [
    {
      "activation": "relu",
      "rows": 1, "cols": 2,
      "weights": [3.3333333333333331e-01, -2.5000000000000171e-310],
      "bias": [1.0000000000000001e-01]
    },
    {
      "activation": "linear",
      "rows": 1, "cols": 1,
      "weights": [-7.0000000000000000e+00],
      "bias": [1.0000000000000001e+300]
    }
  ],
  "train_config": {
    "learning_rate": 3.0000000000000001e-03,
    "batch_size": 128,
    "epochs": 7,
    "seed": 11
  },
  "meta": {"detector": "ernet"}
}
"""
        net, config, meta = loads_network(text)
        assert np.array_equal(net.params, [1.0 / 3.0, -2.5e-310, 0.1, -7.0, 1e300])
        assert [l.activation for l in net.layers] == ["relu", "linear"]
        assert config == TrainConfig(learning_rate=0.003, batch_size=128, epochs=7, seed=11)
        assert meta == {"detector": "ernet"}
        assert loads_network(dumps_network(net, config, meta))[0].params.tobytes() == \
            net.params.tobytes()

    @pytest.mark.parametrize("key, value", [("adam_beta1", 0.5), ("adam_epsilon", 1e-7)])
    def test_old_files_other_adam_values_rejected(self, key, value):
        # Files written before the ADAM constants were fixed carry them in
        # train_config; like any key that is not a field, each is rejected.
        net = Network([layer(np.eye(2), np.zeros(2), "linear")])
        text = dumps_network(net, TrainConfig(seed=99))
        old = text.replace('"seed": 99', f'"seed": 99,\n    "{key}": {value}')
        with pytest.raises(ValueError, match=rf"unknown train_config keys \['{key}'\]"):
            loads_network(old)

    def test_unknown_train_config_key_rejected(self):
        net = Network([layer(np.eye(2), np.zeros(2), "linear")])
        text = dumps_network(net, TrainConfig(seed=99))
        with pytest.raises(ValueError, match=r"unknown train_config keys \['momentum'\]"):
            loads_network(text.replace('"seed": 99', '"seed": 99,\n    "momentum": 0.5'))

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            loads_network('{"format": "something-else", "version": 1}')

    def test_untrained_config_is_none(self):
        net = Network([layer(np.eye(2), np.zeros(2), "linear")])
        _, config, meta = loads_network(dumps_network(net))
        assert config is None
        assert meta == {}
