"""Benchmark of the sourcecount pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload protocol-point --seed 0 --seconds 20 --trace 0

Workloads: ``protocol-point``, ``coherent-sweep``, ``estimate-stream``
(see ``perfbench/reference.json`` for why each was chosen).  The package
is imported from ``src/`` of the checkout.  BLAS is pinned to one thread.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it first measures untraced, then repeats one set-up and one
unit with every public function wrapped, and prints per-layer metrics
and the tracing overhead.  Either way the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Details,
machine facts and (traced) the spans go to ``perfbench/out/``.

Untraced times are read from the pace clock of ``perfbench/pace.py``:
seconds at a fixed host pace, measured by a calibration kernel that runs
between the workload's steps, so that the shared host's drift cancels.
The traced run uses the plain wall clock.

Correctness: every run checks that repeated set-ups and units give the
same digest, that every per-sample decision equals the batch path's, and
that the AIC/MDL accuracies clear a sanity floor; for a seed with a
stored reference it also checks the digest bit for bit.  Any failed check
counts every operation of the run as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from pace import PACE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Applied before numpy loads, so every BLAS and OpenMP pool has one thread.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}

WORKLOAD_NAMES = ("protocol-point", "coherent-sweep", "estimate-stream")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "decisions_per_s": "1/s", "estimate_p50_us": "us",
                    "estimate_p99_us": "us"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"),
                        help="input sizes; 'smoke' is the smoke test's tiny size")
    return parser.parse_args(argv)


def import_package() -> float:
    """Imports the checkout's package and returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "sourcecount" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import sourcecount
    elapsed = time.perf_counter() - start
    if Path(sourcecount.__file__).resolve().parent != src / "sourcecount":
        raise SystemExit(f"error: imported sourcecount from {sourcecount.__file__}, not {src}")
    return elapsed


def machine_facts(thread_env_before: dict) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "simd": config.get("SIMD Extensions"),
        "thread_env_before": thread_env_before,
        "thread_pin_applied": THREAD_PIN,
    }


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def reference_digest(reference: dict, workload: str, scale_name: str, seed: int):
    if scale_name != reference["scale"]:
        return None
    return reference["digests"].get(workload, {}).get(str(seed))


class Run:
    """One workload run: set-ups, timed units, their digests and checks."""

    def __init__(self, workload):
        self.workload = workload
        self.unit_rates: list[float] = []
        self.digests: dict[str, set[str]] = {"setup": set(), "unit": set()}
        self.checks: dict[str, bool] = {}
        self.accuracy: dict[str, float] = {}
        self.attempted = 0

    def _record(self, kind: str, outcome):
        self.digests[kind].add(outcome.digest())
        self.attempted += outcome.ops
        self.accuracy.update(outcome.accuracy)
        for name, ok in outcome.checks.items():
            self.checks[name] = self.checks.get(name, True) and ok

    def setups(self, count: int) -> list[float]:
        times = []
        for _ in range(count):
            start = PACE.clock()
            outcome = self.workload.setup()
            times.append(PACE.clock() - start)
            self._record("setup", outcome)
        return times

    def units(self, budget_s: float, latencies) -> list[float]:
        """Whole units until the next one would overrun ``budget_s`` of
        wall time (at least one)."""
        times = []
        start = time.perf_counter()
        while True:
            wall0, t0 = time.perf_counter(), PACE.clock()
            outcome = self.workload.unit(latencies)
            dt = PACE.clock() - t0 - outcome.excluded_s
            times.append(dt)
            self.unit_rates.append(outcome.decisions / dt)
            self._record("unit", outcome)
            now = time.perf_counter()
            if now - start + (now - wall0) > budget_s:
                return times

    def digest(self) -> str:
        from workloads import digest_parts

        parts = []
        for kind in ("setup", "unit"):
            parts.extend(d.encode() for d in sorted(self.digests[kind]))
        return digest_parts(parts)

    def deterministic(self) -> bool:
        return all(len(d) <= 1 for d in self.digests.values())


def gate(run: Run, expected: str | None) -> tuple[str, dict[str, bool], int]:
    """The run's digest, its named checks, and its failed operations:
    all of them when any check fails, else none."""
    digest = run.digest()
    checks = dict(run.checks)
    checks["repeated set-ups and units give one digest"] = run.deterministic()
    if expected is not None:
        checks["digest matches the reference"] = digest == expected
    failed = 0 if all(checks.values()) else run.attempted
    return digest, checks, failed


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".busy_s." in name or ".self_s." in name:
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if ".param_bytes." in name:
        return "B"
    if ".flops_per_step." in name:
        return "flop"
    return "count"


def computed_metrics(config) -> dict[str, float]:
    """Counts worked out from layer shapes and the public complexity rows."""
    from sourcecount import detectors, experiments

    out = {}
    specs = {
        "ernet": detectors.DetectorSpec("ernet", config.num_antennas),
        "ecnet": detectors.DetectorSpec("ecnet", config.num_antennas),
        "covnet": detectors.DetectorSpec("covnet", config.num_antennas),
        "fbss-ernet": detectors.DetectorSpec("ernet", config.num_antennas,
                                             subarray_size=config.subarray_size),
        "fbss-ecnet": detectors.DetectorSpec("ecnet", config.num_antennas,
                                             subarray_size=config.subarray_size),
    }
    batch = config.batch_size
    for name, spec in specs.items():
        sizes = [spec.feature_size, *spec.hidden, spec.output_size]
        shapes = list(zip(sizes[:-1], sizes[1:]))
        params = sum(i * o + o for i, o in shapes)
        # Multiply-add = 2 flops: forward, weight gradient, and input
        # gradient for every layer but the first; ADAM ~14 flops/param.
        matmul = sum(2 * batch * i * o * (3 if k else 2) for k, (i, o) in enumerate(shapes))
        out[f"computed.network.flops_per_step.{name}"] = float(matmul + 14 * params)
        out[f"computed.network.param_bytes.{name}"] = float(8 * params)
    for row in experiments.bench_complexity(config, timing_trials=1):
        ops = row.measured
        out[f"computed.complexity.{row.method}.ops"] = float(
            ops.mul_div + ops.add_sub + ops.log + ops.compare)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    thread_env_before = {k: os.environ.get(k) for k in THREAD_PIN}
    os.environ.update(THREAD_PIN)
    import_s = import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import Recorder

    scale = workloads.SMOKE if args.scale == "smoke" else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](scale, args.seed)
    run = Run(workload)
    facts = machine_facts(thread_env_before)
    print(f"workload {args.workload} seed {args.seed} scale {scale.name} trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))

    if not args.trace:
        PACE.start()
        import_s *= PACE.factor
    try:
        setup_times = run.setups(scale.setups)
        budget = args.seconds / 2 if args.trace else args.seconds
        latencies = workloads.LatencyBlocks()
        unit_times = run.units(budget, latencies)
    finally:
        PACE.stop()

    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()
        try:
            traced_setup = run.setups(1)[0]
            traced_unit = run.units(0.0, workloads.LatencyBlocks())[0]
        finally:
            recorder.restore()

    expected = reference_digest(load_reference(), args.workload, scale.name, args.seed)
    digest, checks, failed = gate(run, expected)
    attempted = run.attempted

    if args.trace:
        metrics = recorder.layer_metrics()
        metrics.update(computed_metrics(workload.config))
        metrics["trace.overhead_s"] = traced_unit - statistics.median(unit_times)
        metrics["trace.setup_overhead_s"] = traced_setup - statistics.median(setup_times)
        units = {name: layer_unit(name) for name in metrics}
    else:
        p50, p99 = latencies.summary_us()
        metrics = {
            "wall_s": statistics.median(unit_times),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "decisions_per_s": statistics.median(run.unit_rates),
            "estimate_p50_us": p50,
            "estimate_p99_us": p99,
        }
        units = END_TO_END_UNITS

    samples = {"wall_s": len(unit_times), "setup_s": len(setup_times),
               "decisions_per_s": len(unit_times),
               "estimate_p50_us": latencies.calls,
               "estimate_p99_us": latencies.calls}
    print("pace " + json.dumps(PACE.summary(), sort_keys=True))
    print(f"digest {digest} reference {expected or 'none'}")
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, value in metrics.items():
        n = samples.get(name) if not args.trace else None
        print(f"metric {name} {value!r} {units[name]}" + (f" (n={n})" if n else ""))
    print(f"metric failed_frac {failed / attempted!r} frac ({failed} of {attempted} operations)")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{scale.name}-trace{args.trace}"
    if recorder is not None:
        recorder.write(OUT_DIR / f"{stem}-spans.csv.gz")
    detail = {"workload": args.workload, "seed": args.seed, "scale": scale.name,
              "trace": args.trace, "machine": facts, "digest": digest,
              "reference_digest": expected, "checks": checks, "accuracy": run.accuracy,
              "import_s": import_s, "pace": PACE.summary(),
              "setup_times_s": setup_times, "unit_times_s": unit_times,
              "latency_calls": latencies.calls, "latency_blocks_us": latencies.blocks(),
              "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n",
                                          encoding="utf-8")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
