"""A clock that reads the workload's time at a fixed host pace.

The host this benchmark runs on is shared.  The same code runs up to
twice as slow when its neighbours are busy, in CPU time as much as in
wall time, and the pace changes within a fraction of a second, so a
plain wall clock spreads by 20-25 % between runs of the same commit.  ``Pace``
takes that out:

* a fixed calibration kernel (none of it the package's code) runs for
  about a millisecond every ``INTERVAL_S`` seconds, from a ``SIGALRM``
  handler, between two of the workload's bytecodes;
* the latest kernel time against ``REFERENCE_S`` (its time on a quiet
  host) is the host's current pace, ``factor``;
* ``clock()`` advances at ``factor`` times wall time and stands still
  while the kernel runs, so the difference of two readings is the
  workload's own seconds as they would read at the reference pace.

A change to the package moves these times as it moves wall time; the
host's drift moves the kernel as much as the workload and cancels.
Timers that read ``time.perf_counter_ns`` directly drop a reading that
a kernel run interrupted (``spent_ns`` grew) and scale by ``factor``.  Before
``start()`` and after ``stop()`` the clock is the plain
``time.perf_counter`` and ``factor`` is 1.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# Median kernel time on the 2-vCPU host the bounds were set on; it only
# sets the scale of the reported times.
REFERENCE_S = 0.001


class Kernel:
    """Fixed work in about the mix the workloads do, a few hundred
    microseconds of each: 20x20 complex Hermitian eigendecompositions,
    dense-layer products at batch 64, one-row numpy calls as a
    per-sample decision makes them, plain Python, and a complex Gaussian
    draw with its sample covariance.  The one-row calls and plain Python
    track the per-call latencies best; the other parts stand for
    training and trial generation."""

    def __init__(self):
        import numpy as np  # not at import time: the caller pins BLAS first

        self.np = np
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        self.r = a @ a.conj().T
        self.x = rng.standard_normal((64, 40))
        self.w = rng.standard_normal((40, 40)) / 8
        self.v = rng.standard_normal(40)
        self.e = rng.standard_normal(20) + 5
        self.rng = rng

    def run(self):
        np = self.np
        for _ in range(2):
            np.linalg.eigh(self.r)
        for _ in range(6):
            h = np.tanh(self.x @ self.w)
            (h * (1 - h * h)).T @ self.x
        for _ in range(20):
            z = np.tanh(self.v @ self.w)
            int(np.argmax(z))
            s = np.sort(self.e)[::-1]
            np.log(s).sum()
            np.concatenate([s, z])
        table = {}
        for i in range(1000):
            table[i % 97] = table.get(i % 97, 0) + i
        s = self.rng.standard_normal((20, 100)) + 1j * self.rng.standard_normal((20, 100))
        s @ s.conj().T / 100


class Pace:
    def __init__(self):
        self.kernel = None
        self.kernel_s: list[float] = []
        self.spent_ns = 0  # time inside kernel runs; timers see it grow
        self.factor = 1.0
        self._scaled = 0.0
        self._mark = time.perf_counter()
        self._previous_handler = None

    def clock(self) -> float:
        while True:  # read again if a kernel run came between the reads
            runs = len(self.kernel_s)
            now = self._scaled + (time.perf_counter() - self._mark) * self.factor
            if runs == len(self.kernel_s):
                return now

    def start(self):
        self.kernel = self.kernel or Kernel()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._measure()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self._previous_handler is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._previous_handler = None
        self._settle(time.perf_counter())
        self.factor = 1.0

    def summary(self) -> dict:
        """The kernel times behind the clock, for the run's detail file."""
        if len(self.kernel_s) < 2:
            return {"kernel_runs": len(self.kernel_s)}
        q1, q2, q3 = statistics.quantiles(self.kernel_s, n=4)
        return {"kernel_runs": len(self.kernel_s), "reference_s": REFERENCE_S,
                "kernel_q1_s": q1, "kernel_median_s": q2, "kernel_q3_s": q3,
                "kernel_total_s": self.spent_ns / 1e9}

    def _on_alarm(self, signum, frame):
        self._measure()

    def _settle(self, now: float):
        self._scaled += (now - self._mark) * self.factor
        self._mark = now

    def _measure(self):
        start = time.perf_counter_ns()
        self._settle(start / 1e9)
        self.kernel.run()
        end = time.perf_counter_ns()
        self.kernel_s.append((end - start) / 1e9)
        self.factor = REFERENCE_S * 1e9 / (end - start)
        self.spent_ns += end - start
        self._mark = end / 1e9


PACE = Pace()
