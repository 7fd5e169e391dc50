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
from functools import lru_cache

import numpy as np

from .linalg import check_count, is_moderate

# Floor applied to eigenvalues before logarithms; noise-free simulation
# produces exact zeros.
EIGENVALUE_FLOOR = 1e-300
# A spectrum whose largest eigenvalue lies below this is scaled by an
# exact power of two before the floor, so that the floor cannot swallow
# its shape.  Spectra above it keep their bits.
TINY_SPECTRUM = 2.0 ** -500


def check_spectra(values, num_snapshots: int) -> np.ndarray:
    """Returns ``values`` as a float (num, m) batch of spectra.

    Raises:
        ValueError: Unless m >= 2, every eigenvalue is finite and non-negative,
            every row's sum is finite, every row is sorted descending, and
            ``num_snapshots`` is an integer (not a bool) >= 1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValueError("spectra must form a (num, m) array with m >= 2")
    if not is_moderate(values):
        with np.errstate(over="ignore", invalid="ignore"):  # summed as criterion_values sums
            sums = values[:, ::-1].cumsum(axis=1)[:, -1]
        if not np.isfinite(sums).all():
            raise ValueError("eigenvalues and each spectrum's sum must be finite (no NaN or inf)")
    if np.count_nonzero(values < 0.0):
        raise ValueError("eigenvalues must be non-negative")
    if np.count_nonzero(values[:, 1:] > values[:, :-1]):
        raise ValueError("eigenvalues must be sorted descending")
    check_count("num_snapshots", num_snapshots, 1)
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
        ValueError: If ``kind`` is unknown.
    """
    top = values[:, :1]  # each row's largest eigenvalue
    counts, weight, penalty = _criterion_terms(values.shape[1], num_snapshots, kind)
    if top.min(initial=math.inf) < TINY_SPECTRUM:
        # Exact: brings each tiny row's top into [0.5, 1); an all-zero row reads as flat.
        values = np.where(top < TINY_SPECTRUM, np.ldexp(values, -np.frexp(top)[1]), values)
        values[top[:, 0] == 0.0] = 1.0
    lam = np.maximum(values, EIGENVALUE_FLOOR)
    # Suffix sums: column k aggregates the m-k smallest eigenvalues.
    tail_sum = lam[:, ::-1].cumsum(axis=1)[:, ::-1]
    tail_log_sum = np.log(lam)[:, ::-1].cumsum(axis=1)[:, ::-1]
    log_mean_ratio = tail_log_sum / counts - np.log(tail_sum / counts)  # ln(g_k / a_k)
    return weight * log_mean_ratio + penalty


@lru_cache(maxsize=64)
def _criterion_terms(m: int, num_snapshots: int, kind: str):
    k = np.arange(m, dtype=float)
    counts = np.arange(m, 0, -1, dtype=float)
    if kind == "aic":
        scale, penalty = 2.0, 2.0 * k * (2 * m - k)
    elif kind == "mdl":
        scale, penalty = 1.0, 0.5 * k * (2 * m - k) * math.log(num_snapshots)
    else:
        raise ValueError(f"unknown criterion kind {kind!r}")
    terms = np.stack([counts, -scale * num_snapshots * counts, penalty])
    terms.flags.writeable = False
    return terms


def _trace(spec: EigenSpectrum, kind: str) -> CriterionTrace:
    values = criterion_values(spec.values[np.newaxis], spec.num_snapshots, kind)[0]
    return CriterionTrace(values=values, order=int(values.argmin()))


def aic(spec: EigenSpectrum) -> CriterionTrace:
    """Akaike information criterion trace over k = 0..m-1."""
    return _trace(spec, "aic")


def mdl(spec: EigenSpectrum) -> CriterionTrace:
    """Minimum description length criterion trace over k = 0..m-1."""
    return _trace(spec, "mdl")


@dataclass
class OpCounts:
    """Arithmetic operation tallies for one decision; each method counts the
    operation it performs."""

    mul_div: int = 0
    add_sub: int = 0
    log: int = 0
    compare: int = 0

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


def _criterion_counted(values, num_snapshots: int, kind: str, ops: OpCounts) -> int:
    """Straightforward per-order evaluation of AIC/MDL through ``ops``.

    Mirrors the production formulas operation by operation so the tally
    reflects what one decision actually costs (eigendecomposition
    excluded).  Returns the selected order.
    """
    m = len(values)
    if values[0] < TINY_SPECTRUM:
        values = [math.ldexp(v, -math.frexp(values[0])[1]) if values[0] else 1.0 for v in values]
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

