"""Acceptance suite: the seven protocol criteria.

Each test prints one `[criterion N] PASS/FAIL ...` line (run pytest with
`-s` to see the lines for passing criteria).  Criteria 1-4 exercise the
full training protocol (8000 samples, 400 epochs) through the session
fixtures in conftest; criterion 6 is the no-training property battery.
"""

import math
import time

import numpy as np

from sourcecount.classical import EigenSpectrum, aic, mdl
from sourcecount.detectors import make_feature_eigen
from sourcecount.experiments import (
    ExperimentConfig,
    bench_complexity,
    emit_csv,
    generate_trials,
    sweep_snr_noncoherent,
)
from sourcecount.linalg import hermitian_eig
from sourcecount.network import (
    AdamState,
    Layer,
    Network,
    TrainConfig,
    adam_step,
    backward,
    compute_loss,
    forward,
    softmax,
)
from sourcecount.signal_model import (
    Scenario,
    fbss_covariance,
    generate_snapshots,
    sample_covariance,
)


def _criterion(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_snapshot_rich_accuracy(snapshot_rich_point):
    accs = snapshot_rich_point.accuracy
    elapsed = snapshot_rich_point.elapsed_seconds
    ok = accs["ernet"] >= 0.93 and accs["ecnet"] >= 0.93 and elapsed < 300.0
    _criterion(1, ok,
               f"N=100, SNR=5dB: ernet={accs['ernet']:.4f}, ecnet={accs['ecnet']:.4f} "
               f"(threshold 0.93), elapsed {elapsed:.1f}s (< 300s)")


def test_criterion_2_default_point_ordering(default_point):
    accs = default_point.accuracy
    ok = (accs["ecnet"] >= accs["ernet"] - 0.02
          and accs["ernet"] >= accs["aic"] + 0.03
          and accs["ernet"] >= accs["mdl"] + 0.03
          and accs["ecnet"] >= accs["aic"] + 0.03
          and accs["ecnet"] >= accs["mdl"] + 0.03)
    _criterion(2, ok,
               f"N=20, SNR=5dB: ernet={accs['ernet']:.4f}, ecnet={accs['ecnet']:.4f}, "
               f"aic={accs['aic']:.4f}, mdl={accs['mdl']:.4f} "
               f"(nets must beat both criteria by 0.03; ecnet >= ernet - 0.02)")


def test_criterion_3_covnet_ablation(default_point):
    # The ablation swaps the eigenvalue input for the raw covariance
    # entries on the same trunk, protocol and paired trials, so it is
    # measured against ERNet/ECNet.  AIC/MDL are no yardstick for it:
    # with unit-power sources trace(R)/M ~ K + sigma^2, so received power
    # alone counts sources about as well as MDL, and the scale-invariant
    # criteria cannot use it.  They stay in the line for reference.
    accs = default_point.accuracy
    ok = (accs["covnet"] <= accs["ernet"] - 0.03
          and accs["covnet"] <= accs["ecnet"] - 0.03)
    _criterion(3, ok,
               f"N=20, SNR=5dB: covnet={accs['covnet']:.4f} vs ernet={accs['ernet']:.4f}, "
               f"ecnet={accs['ecnet']:.4f} (covnet must trail both by 0.03); "
               f"aic={accs['aic']:.4f}, mdl={accs['mdl']:.4f}")


def test_criterion_4_coherent_low_snr(coherent_point):
    accs = coherent_point.accuracy
    config = coherent_point.config
    m0 = config.subarray_size
    # An M0 x M0 smoothed covariance resolves at most M0 - 1 sources.
    # K is each trial's first draw from its own seed stream, so drawing
    # the fixture's test phase again gives the very labels it was scored on.
    labels = generate_trials(config, phase="test", num=config.num_test, snr_db=0.0,
                             coherent=True, want=()).labels
    unresolvable = float(np.mean(labels >= m0))
    ok = (0.6 <= accs["fbss-aic"] <= 0.8
          and 0.6 <= accs["fbss-mdl"] <= 0.8
          and accs["fbss-ernet"] >= 0.9
          and accs["fbss-ecnet"] >= 0.9)
    _criterion(4, ok,
               f"coherent, SNR=0dB, N={config.num_snapshots}, M0={m0}, "
               f"K_max={config.max_sources} (K>=M0 in {unresolvable:.3f} of test trials): "
               f"fbss-ernet={accs['fbss-ernet']:.4f}, "
               f"fbss-ecnet={accs['fbss-ecnet']:.4f} (>= 0.9), "
               f"fbss-aic={accs['fbss-aic']:.4f}, fbss-mdl={accs['fbss-mdl']:.4f} "
               f"(in [0.6, 0.8])")


def test_criterion_5_complexity_closed_forms():
    rows = {r.method: r for r in bench_complexity(ExperimentConfig(), timing_trials=100)}
    expected = {
        "ernet": ("mul_div", 88),
        "ecnet": ("mul_div", 160),
        "aic": ("mul_div", 170),
        "mdl": ("mul_div", 170),
    }
    checks = [rows[m].table.mul_div == v for m, (_, v) in expected.items()]
    checks.append(rows["aic"].table.add_sub == 55)
    checks.append(rows["mdl"].table.add_sub == 55)
    checks.append(rows["aic"].table.log == 20)
    checks.append(rows["mdl"].table.log == 10)
    ok = all(checks)
    _criterion(5, ok,
               f"M=10, n1=n2=8 closed forms: ernet mul={rows['ernet'].table.mul_div}, "
               f"ecnet mul={rows['ecnet'].table.mul_div}, "
               f"aic/mdl mul={rows['aic'].table.mul_div}, add={rows['aic'].table.add_sub}, "
               f"logs aic={rows['aic'].table.log}/mdl={rows['mdl'].table.log}")


def _random_hermitian(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (a + a.conj().T)


def _battery_eigendecomposition(rng):
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        a = _random_hermitian(rng, m)
        d = hermitian_eig(a)
        u, w = d.eigenvectors, d.eigenvalues
        norm = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(u @ np.diag(w) @ u.conj().T - a) <= 1e-9 * norm
        tr = np.trace(a).real
        assert abs(w.sum() - tr) <= 1e-9 * max(1.0, abs(tr))


def _battery_fbss(rng):
    # PSD preservation on random sample covariances
    for _ in range(100):
        x = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
        r = sample_covariance(x)
        w = hermitian_eig(fbss_covariance(r, 4)).eigenvalues
        assert np.all(w >= -1e-9 * np.trace(r).real)
    # coherent-pair rank restoration
    sc = Scenario(10, 200, 2, (0.3, 1.1), math.inf, {1: 0})
    r = sample_covariance(generate_snapshots(sc, np.random.default_rng(7)))
    w = hermitian_eig(fbss_covariance(r, 5)).eigenvalues
    assert w[1] > 1e-6 * w[0]


def _battery_criteria_scale_invariance(rng):
    for _ in range(1000):
        m = int(rng.integers(2, 12))
        values = np.sort(rng.uniform(1e-3, 100.0, m))[::-1]
        n = int(rng.integers(2, 10000))
        spec = EigenSpectrum(values, n)
        scale = float(10.0 ** rng.uniform(-6, 6))
        scaled = EigenSpectrum(values * scale, n)
        assert aic(scaled).order == aic(spec).order
        assert mdl(scaled).order == mdl(spec).order


def _battery_softmax(rng):
    for _ in range(200):
        z = rng.standard_normal(int(rng.integers(2, 12))) * 50.0
        out = softmax(z)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.allclose(out, softmax(z + 1234.5))


def _battery_gradients(rng):
    # Analytic vs central finite differences on a 10-8-8-10 softmax net.
    # Central differences at h=1e-6 carry ~1e-9 absolute cancellation
    # noise, so the relative error uses a 1e-4 denominator floor (entries
    # below it are noise-limited for any FD scheme); points with a hidden
    # pre-activation within 1e-4 of the ReLU kink are redrawn because the
    # two-sided difference is not a derivative estimate across the kink.
    sizes = [10, 8, 8, 10]
    h = 1e-6
    worst = 0.0
    checked = 0
    while checked < 100:
        layers = []
        for i in range(3):
            act = "softmax" if i == 2 else "relu"
            layers.append(Layer(rng.standard_normal((sizes[i + 1], sizes[i])) * 0.5,
                                rng.standard_normal(sizes[i + 1]) * 0.1, act))
        net = Network(layers)
        x = rng.standard_normal(10)
        z1 = net.layers[0].weights @ x + net.layers[0].bias
        z2 = net.layers[1].weights @ np.maximum(z1, 0.0) + net.layers[1].bias
        if min(np.min(np.abs(z1)), np.min(np.abs(z2))) < 1e-4:
            continue
        checked += 1
        y = np.zeros(10)
        y[int(rng.integers(0, 10))] = 1.0
        analytic = backward(net, x, y)
        for lay, (gw, gb) in zip(net.layers, analytic):
            for arr, grad in ((lay.weights, gw), (lay.bias, gb)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = compute_loss(forward(net, x), y, "cce")
                    arr[idx] = orig - h
                    down = compute_loss(forward(net, x), y, "cce")
                    arr[idx] = orig
                    fd = (up - down) / (2.0 * h)
                    denom = max(abs(grad[idx]), abs(fd), 1e-4)
                    worst = max(worst, abs(grad[idx] - fd) / denom)
    assert worst < 1e-5, f"worst gradient relative error {worst:.3e}"


def _battery_adam_fixed_point(rng):
    layers = [Layer(rng.standard_normal((4, 3)), rng.standard_normal(4), "relu"),
              Layer(rng.standard_normal((1, 4)), rng.standard_normal(1), "linear")]
    net = Network(layers)
    before = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
    adam_step(net, np.zeros_like(net.params), AdamState.for_network(net), TrainConfig())
    for (w0, b0), lay in zip(before, net.layers):
        assert np.array_equal(w0, lay.weights)
        assert np.array_equal(b0, lay.bias)


def _battery_mini_sweep_reproducibility(tmp_path):
    config = ExperimentConfig(num_train=150, num_test=40, epochs=4, seed=21,
                              snr_axis_db=(0.0, 20.0), detectors=("ernet", "mdl"))
    first = sweep_snr_noncoherent(config)
    second = sweep_snr_noncoherent(config)
    assert first == second
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    emit_csv(first, paths[0])
    emit_csv(second, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_criterion_6_property_battery(tmp_path):
    start = time.perf_counter()
    _battery_eigendecomposition(np.random.default_rng(100))
    _battery_fbss(np.random.default_rng(101))
    _battery_criteria_scale_invariance(np.random.default_rng(102))
    _battery_softmax(np.random.default_rng(103))
    _battery_gradients(np.random.default_rng(104))
    _battery_adam_fixed_point(np.random.default_rng(105))
    _battery_mini_sweep_reproducibility(tmp_path)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _criterion(6, ok, f"property battery completed in {elapsed:.1f}s (< 60s)")


def _draw_separated_doas(rng, k, gap=0.05):
    """Identifiable geometries: pairwise circular separation in sin-space
    (period 2 for half-wavelength spacing) of at least ``gap``.

    Large-sample consistency presumes an identifiable model; draws whose
    steering vectors nearly coincide (aliased or merged sources) have a
    true resolvable order below K, so they test nothing about the
    criterion.
    """
    while True:
        doas = rng.uniform(0.0, 2.0 * math.pi, size=k)
        if len(set(doas.tolist())) != k:
            continue
        u = np.sort(np.sin(doas))
        gaps = np.diff(u)
        wraparound = (u[0] + 1.0) + (1.0 - u[-1])
        if k < 2 or (gaps.min() >= gap and wraparound >= gap):
            return tuple(doas.tolist())


def test_criterion_7_mdl_large_sample_consistency():
    correct = 0
    trials = 100
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(9, 0, i)))
        doas = _draw_separated_doas(rng, 3)
        scenario = Scenario(10, 10000, 3, doas, 20.0)
        r = sample_covariance(generate_snapshots(scenario, rng))
        spectrum = EigenSpectrum(make_feature_eigen(r), 10000)
        correct += mdl(spectrum).order == 3
    accuracy = correct / trials
    ok = accuracy >= 0.99
    _criterion(7, ok, f"K=3, SNR=20dB, N=10000: mdl accuracy {accuracy:.2f} "
                      f"over {trials} trials (>= 0.99)")
