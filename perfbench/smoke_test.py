"""Smoke test of the benchmark itself.

Runs every workload once at the tiny ``smoke`` size, untraced and traced,
and checks that each metric named in ``BENCHMARK.json`` is printed with
its unit; then checks that the digest gate fails when one trained weight
bit, or one decision, changes.

    python3 -m pytest -q perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from sourcecount import detectors, experiments  # noqa: E402


def _bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} ") and f" {unit}" in line
                   for line in lines), name
    assert any(line.startswith("metric failed_frac 0.0 frac") for line in lines)


def test_run_without_package_source_fails(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "reference.json").write_bytes((HERE / "reference.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate-stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pace_clock_leaves_out_its_kernel_and_restores_the_handler():
    import signal
    import time

    from pace import PACE

    before = signal.getsignal(signal.SIGALRM)
    PACE.start()
    try:
        t0, k0 = PACE.clock(), PACE.spent_ns
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            pass
        elapsed, kernels = PACE.clock() - t0, (PACE.spent_ns - k0) / 1e9
        factor = PACE.factor
    finally:
        PACE.stop()
    assert kernels > 0, "the kernel did not run during a second of work"
    assert abs(elapsed - (1.0 - kernels) * factor) < 0.5 * factor
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert PACE.factor == 1.0


def _stream_run() -> run.Run:
    bench_run = run.Run(workloads.EstimateStream(workloads.SMOKE, 3))
    bench_run.setups(1)
    bench_run.units(0.0, workloads.LatencyBlocks())
    return bench_run


def test_digest_gate_passes_on_identical_rerun():
    reference = _stream_run().digest()
    _, checks, failed = run.gate(_stream_run(), reference)
    assert checks["digest matches the reference"] and failed == 0


def test_digest_gate_fails_on_one_weight_bit(monkeypatch):
    reference = _stream_run().digest()
    train_detector = experiments.train_detector

    def flip_lowest_bit(*args, **kwargs):
        det, history = train_detector(*args, **kwargs)
        det.net.layers[0].weights.view(np.uint64)[0, 0] ^= 1
        return det, history

    monkeypatch.setattr(experiments, "train_detector", flip_lowest_bit)
    bench_run = _stream_run()
    _, checks, failed = run.gate(bench_run, reference)
    assert not checks["digest matches the reference"]
    assert failed == bench_run.attempted > 0


def test_digest_gate_fails_on_one_decision(monkeypatch):
    reference = _stream_run().digest()
    estimate = detectors.Detector.estimate
    calls = []

    def off_by_one_once(self, r_hat):
        calls.append(None)
        return estimate(self, r_hat) + (len(calls) == 5)

    monkeypatch.setattr(detectors.Detector, "estimate", off_by_one_once)
    bench_run = _stream_run()
    _, checks, failed = run.gate(bench_run, reference)
    assert not checks["digest matches the reference"]
    assert failed == bench_run.attempted > 0
