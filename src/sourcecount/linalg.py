"""Complex linear algebra helpers for covariance processing.

Every routine takes a ``complex128`` matrix or an ``(..., M, M)`` stack
of them and treats each matrix on its own, so a whole stack of this
package's tiny (M <= 16) covariances goes through one LAPACK call.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# Relative tolerance for declaring a matrix Hermitian, applied to
# max(1, largest entry magnitude).
HERMITIAN_RTOL = 1e-10

# Negative eigenvalues closer to zero than this (relative to the
# Frobenius norm) are treated as round-off from a PSD input.
PSD_CLAMP_RTOL = 1e-9

FLOAT_MAX = float(np.finfo(np.float64).max)


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


def check_hermitian(a) -> bool:
    """The one covariance screen: raises ValueError if a matrix of the square stack ``a``
    has a NaN or infinite entry, then unless |A[i,j] - conj(A[j,i])| <= HERMITIAN_RTOL *
    max(1, max|A|) entrywise for each matrix.  Returns :func:`is_moderate` of ``a``."""
    moderate = is_moderate(a)
    if not moderate and not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries (NaN or inf)")
    if np.count_nonzero(a != a.swapaxes(-1, -2).conj()):
        unit = 1.0 if moderate else 0.25  # exact; then no |.| of finite parts overflows
        a = a * unit
        asym = np.abs(a - a.swapaxes(-1, -2).conj())
        bound = HERMITIAN_RTOL * np.abs(a).max(axis=(-2, -1), initial=unit, keepdims=True)
        if not (asym <= bound).all():
            with np.errstate(over="ignore"):  # the unscaled asymmetry may pass FLOAT_MAX
                worst = (asym / unit).max()
            raise ValueError(f"matrix is not Hermitian (max asymmetry {worst:.3e})")
    return moderate


def hermitian_eig(a):
    """numpy's ``eigh`` result ``(eigenvalues, eigenvectors)`` for a Hermitian matrix or each
    matrix of a stack, with the eigenvalues descending and the unit-norm eigenvector columns
    (a view, not a copy) aligned with them, so ``A = U diag(w) U^H``.

    Negative eigenvalues within round-off of zero (``PSD_CLAMP_RTOL``
    times that matrix's Frobenius norm) are clamped to zero, so positive
    semidefinite inputs always yield non-negative spectra.  Genuinely
    indefinite matrices keep their negative eigenvalues.

    Args:
        a: Square Hermitian matrix, or an ``(..., M, M)`` stack of them.

    Raises:
        ValueError: If a matrix is not square, then as
            :func:`check_hermitian` raises, then if a squared Frobenius
            norm overflows.
        ArithmeticError: If the underlying iteration fails to converge.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not check_hermitian(a):  # the hypot norm tells whether it is too large
        with np.errstate(over="ignore"):  # reported below
            if not np.isfinite(np.square(_frobenius(a).max(initial=0.0))):
                raise ValueError("matrix is too large: its squared Frobenius norm overflows")
    try:
        result = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigendecomposition did not converge: {exc}") from exc
    values = result.eigenvalues[..., ::-1].copy()  # eigh's ascending order, flipped
    if np.count_nonzero(values < 0.0):  # past the checks, hypot cannot overflow
        values[(values < 0.0) & (values >= -PSD_CLAMP_RTOL * _frobenius(a)[..., np.newaxis])] = 0.0
    return type(result)(values, result.eigenvectors[..., ::-1])


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Each matrix's Frobenius norm, by hypot so that a tiny one does not underflow."""
    return np.hypot.reduce(np.abs(a.reshape(*a.shape[:-2], a.shape[-1] ** 2)), -1, initial=0.0)

