"""Complex linear algebra helpers for covariance processing.

Every routine takes a ``complex128`` matrix or an ``(..., M, M)`` stack
of them and treats each matrix on its own, so a whole stack of this
package's tiny (M <= 16) covariances goes through one LAPACK call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Relative tolerance for declaring a matrix Hermitian, applied to
# max(1, largest entry magnitude).
HERMITIAN_RTOL = 1e-10

# Negative eigenvalues closer to zero than this (relative to the
# Frobenius norm) are treated as round-off from a PSD input.
PSD_CLAMP_RTOL = 1e-9

FLOAT_MAX = float(np.finfo(np.float64).max)


def _square(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def check_count(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as an int.  Raises ValueError naming ``name`` unless it is a Python or
    numpy integer (a bool is not) in [low, high]: the one rule for every count."""
    if not np.issubdtype(type(value), np.integer) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def check_real(name: str, value, low: float, high: float) -> float:
    """``value`` as a float.  Raises ValueError naming ``name`` unless it is a Python or numpy
    real (a bool is not) in [low, high]: the one rule for every real-valued setting."""
    # A float skips the ABC check, which triples this check's cost: it runs once per trial.
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an integer past the float range
        x = math.nan
    if not low <= x <= high:  # NaN never is
        raise ValueError(f"{name} must be a real number in [{low}, {high}], got {value!r}")
    return x


def is_moderate(a) -> bool:
    """Whether ``a``'s squared magnitudes sum below 2**1000 (so no entry or sum overflows)."""
    return bool(np.vdot(a, a).real < 2.0 ** 1000)


def is_hermitian(a):
    """Checks |A[i,j] - conj(A[j,i])| <= HERMITIAN_RTOL * max(1, max|A|)
    entrywise, per matrix of a square stack (a bool for one matrix); a
    matrix with a NaN or infinite entry is not Hermitian."""
    a = _square(a)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf: not Hermitian
        asym = np.abs(a - a.swapaxes(-1, -2).conj())
        bound = HERMITIAN_RTOL * np.abs(a).max(axis=(-2, -1), initial=1.0, keepdims=True)
    ok = ((asym <= bound) & np.isfinite(a)).all(axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


def check_hermitian(a):
    """Raises ValueError unless :func:`is_hermitian` holds for each matrix of the stack ``a``."""
    if np.count_nonzero(a != a.swapaxes(-1, -2).conj()) and not np.all(is_hermitian(a)):
        with np.errstate(over="ignore"):  # cov and fbss inputs may hold entries past 1e154
            asym = np.abs(a - a.swapaxes(-1, -2).conj()).max()
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    Attributes:
        eigenvalues: Real eigenvalues sorted in descending order.
        eigenvectors: Unit-norm eigenvector columns aligned with
            ``eigenvalues``, so ``A = U diag(w) U^H`` (a view, not a copy).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack, eigenvalues descending.

    Negative eigenvalues within round-off of zero (``PSD_CLAMP_RTOL``
    times that matrix's Frobenius norm) are clamped to zero, so positive
    semidefinite inputs always yield non-negative spectra.  Genuinely
    indefinite matrices keep their negative eigenvalues.

    Args:
        a: Square Hermitian matrix, or an ``(..., M, M)`` stack of them.

    Raises:
        ValueError: If a matrix is not square, has a NaN or infinite
            entry, has a squared Frobenius norm that overflows, or is not
            Hermitian within ``HERMITIAN_RTOL``.
        ArithmeticError: If the underlying iteration fails to converge.
    """
    a = _square(a)
    if not is_moderate(a):  # the hypot norm tells what is wrong, if anything
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            if not np.isfinite(np.square(_frobenius(a).max(initial=0.0))):  # NaN, inf or overflow
                if not np.isfinite(a).all():
                    raise ValueError("matrix has non-finite entries (NaN or inf)")
                raise ValueError("matrix is too large: its squared Frobenius norm overflows")
    check_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigendecomposition did not converge: {exc}") from exc
    # eigh returns ascending order; flip to descending.
    values = values[..., ::-1].copy()
    if np.count_nonzero(values < 0.0):  # past the checks, hypot cannot overflow
        values[(values < 0.0) & (values >= -PSD_CLAMP_RTOL * _frobenius(a)[..., np.newaxis])] = 0.0
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors[..., ::-1])


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Each matrix's Frobenius norm, by hypot so that a tiny one does not underflow."""
    return np.hypot.reduce(np.abs(a.reshape(*a.shape[:-2], a.shape[-1] ** 2)), -1, initial=0.0)


def exchange_conjugate(a) -> np.ndarray:
    """Computes J conj(A) J per matrix, with J the anti-identity of matching size.

    This is the reflection used to form backward sub-array covariances:
    it reverses both matrix axes and conjugates every entry.

    Raises:
        ValueError: If the input is not square.
    """
    return _square(a)[..., ::-1, ::-1].conj()
