"""Information-theoretic source-number criteria (AIC and MDL).

Both criteria score every candidate order ``k`` from the sorted
eigenvalue spectrum of the covariance estimate and pick the minimizer:

    AIC(k) = -2 N (m-k) ln(g_k / a_k) + 2 k (2m - k)
    MDL(k) = -N (m-k) ln(g_k / a_k) + 0.5 k (2m - k) ln N

where ``g_k`` and ``a_k`` are the geometric and arithmetic means of the
``m-k`` smallest eigenvalues.  Ties break toward the smaller order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Floor applied to eigenvalues before logarithms; noise-free simulation
# produces exact zeros.
EIGENVALUE_FLOOR = 1e-300


def check_spectra(values, num_snapshots: int) -> np.ndarray:
    """Returns ``values`` as a float (num, m) batch of spectra.

    Raises:
        ValueError: Unless m >= 2, every eigenvalue is finite and non-negative,
            every row is sorted descending, and ``num_snapshots`` >= 1.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("eigenvalues must be finite (no NaN or inf)")
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValueError("spectra must form a (num, m) array with m >= 2")
    if (values < 0.0).any():
        raise ValueError("eigenvalues must be non-negative")
    if (values[:, 1:] > values[:, :-1]).any():
        raise ValueError("eigenvalues must be sorted descending")
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be at least 1")
    return values


@dataclass(frozen=True)
class EigenSpectrum:
    """Sorted eigenvalue spectrum of a covariance estimate.

    Attributes:
        values: Eigenvalues sorted descending, each >= 0.
        num_snapshots: Snapshot count N behind the estimate.
    """

    values: np.ndarray
    num_snapshots: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("spectrum must be a 1-D vector of length >= 2")
        check_spectra(values[np.newaxis], self.num_snapshots)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CriterionTrace:
    """Criterion values over candidate orders k = 0..m-1 and the argmin."""

    values: np.ndarray
    order: int


def criterion_values(values: np.ndarray, num_snapshots: int, kind: str) -> np.ndarray:
    """AIC or MDL over k = 0..m-1 for each row of a (num, m) batch of
    spectra that passed :func:`check_spectra`.

    Raises:
        ValueError: If a row is all zeros or ``kind`` is unknown.
    """
    if not (values > 0.0).any(axis=1).all():
        raise ValueError("degenerate all-zero spectrum")
    m = values.shape[1]
    k = np.arange(m, dtype=float)
    counts = np.arange(m, 0, -1, dtype=float)  # m-k for k = 0..m-1
    if kind == "aic":
        scale, penalty = 2.0, 2.0 * k * (2 * m - k)
    elif kind == "mdl":
        scale, penalty = 1.0, 0.5 * k * (2 * m - k) * math.log(num_snapshots)
    else:
        raise ValueError(f"unknown criterion kind {kind!r}")
    lam = np.maximum(values, EIGENVALUE_FLOOR)
    # Suffix sums: column k aggregates the m-k smallest eigenvalues.
    tail_sum = lam[:, ::-1].cumsum(axis=1)[:, ::-1]
    tail_log_sum = np.log(lam)[:, ::-1].cumsum(axis=1)[:, ::-1]
    log_mean_ratio = tail_log_sum / counts - np.log(tail_sum / counts)  # ln(g_k / a_k)
    return -scale * num_snapshots * counts * log_mean_ratio + penalty


def _trace(spec: EigenSpectrum, kind: str) -> CriterionTrace:
    values = criterion_values(spec.values[np.newaxis], spec.num_snapshots, kind)[0]
    return CriterionTrace(values=values, order=int(values.argmin()))


def aic(spec: EigenSpectrum) -> CriterionTrace:
    """Akaike information criterion trace over k = 0..m-1."""
    return _trace(spec, "aic")


def mdl(spec: EigenSpectrum) -> CriterionTrace:
    """Minimum description length criterion trace over k = 0..m-1."""
    return _trace(spec, "mdl")


@dataclass(frozen=True)
class OpCounts:
    """Arithmetic operation tallies for one decision."""

    mul_div: int
    add_sub: int
    log: int
    compare: int


class OpCounter:
    """Counting arithmetic wrapper used to instrument a criterion pass."""

    def __init__(self):
        self.mul_div = 0
        self.add_sub = 0
        self.log = 0
        self.compare = 0

    def mul(self, a, b):
        self.mul_div += 1
        return a * b

    def div(self, a, b):
        self.mul_div += 1
        return a / b

    def add(self, a, b):
        self.add_sub += 1
        return a + b

    def sub(self, a, b):
        self.add_sub += 1
        return a - b

    def ln(self, a):
        self.log += 1
        return math.log(a)

    def less(self, a, b):
        self.compare += 1
        return a < b

    def counts(self) -> OpCounts:
        return OpCounts(self.mul_div, self.add_sub, self.log, self.compare)


def _criterion_counted(values, num_snapshots: int, kind: str, ops: OpCounter) -> int:
    """Straightforward per-order evaluation of AIC/MDL through ``ops``.

    Mirrors the production formulas operation by operation so the tally
    reflects what one decision actually costs (eigendecomposition
    excluded).  Returns the selected order.
    """
    m = len(values)
    lam = [max(v, EIGENVALUE_FLOOR) for v in values]
    log_lam = [ops.ln(v) for v in lam]
    if kind == "aic":
        fit_scale = ops.mul(-2.0, float(num_snapshots))
    else:
        fit_scale = -float(num_snapshots)
        log_n = ops.ln(float(num_snapshots))
    crit = []
    tail_sum = 0.0
    tail_log_sum = 0.0
    for k in range(m - 1, -1, -1):
        count = m - k
        tail_sum = ops.add(tail_sum, lam[k])
        tail_log_sum = ops.add(tail_log_sum, log_lam[k])
        arith = ops.div(tail_sum, count)
        geo_log = ops.div(tail_log_sum, count)
        ratio = ops.sub(geo_log, ops.ln(arith))
        fit = ops.mul(ops.mul(fit_scale, count), ratio)
        if kind == "aic":
            pen = ops.mul(ops.mul(2.0, k), 2 * m - k)
        else:
            pen = ops.mul(ops.mul(ops.mul(0.5, k), 2 * m - k), log_n)
        crit.append(ops.add(fit, pen))
    crit.reverse()
    best = 0
    for k in range(1, m):
        if ops.less(crit[k], crit[best]):
            best = k
    return best


def table_op_counts(m: int, kind: str) -> OpCounts:
    """Closed-form per-decision operation counts for AIC or MDL.

    These are the published totals for a spectrum of length ``m``:
    ``m^2 + 7m`` multiplications/divisions, ``(m^2 + m)/2``
    additions/subtractions, ``2m`` (AIC) or ``m`` (MDL) logarithms, and
    ``m`` comparisons.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if kind not in ("aic", "mdl"):
        raise ValueError(f"unknown criterion kind {kind!r}")
    return OpCounts(
        mul_div=m * m + 7 * m,
        add_sub=(m * m + m) // 2,
        log=2 * m if kind == "aic" else m,
        compare=m,
    )


def measured_op_counts(m: int, kind: str) -> OpCounts:
    """Instrumented operation tally from actually running the criterion.

    The count depends only on ``m``, so a synthetic spectrum and snapshot
    count are used.  Reported side by side with :func:`table_op_counts`;
    the two are not asserted to agree.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    ops = OpCounter()
    values = [float(m - i) for i in range(m)]
    _criterion_counted(values, 1000, kind, ops)
    return ops.counts()
