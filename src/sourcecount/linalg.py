"""Complex linear algebra helpers for covariance processing.

All matrices are dense 2-D ``numpy.ndarray`` objects with dtype
``complex128`` (row-major).  Matrix sizes in this package are tiny
(antenna counts of 16 or less), so every routine favours clarity and
strict validation over throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance for declaring a matrix Hermitian, applied to
# max(1, largest entry magnitude).
HERMITIAN_RTOL = 1e-10

# Negative eigenvalues closer to zero than this (relative to the
# Frobenius norm) are treated as round-off from a PSD input.
PSD_CLAMP_RTOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerces ``a`` to a 2-D complex128 array.

    Raises:
        ValueError: If the input is not two-dimensional.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {m.ndim}-D input")
    return m


def is_hermitian(a) -> bool:
    """Checks |A[i,j] - conj(A[j,i])| <= HERMITIAN_RTOL * max(1, max|A|)
    entrywise; a matrix with a NaN or infinite entry is not Hermitian."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    if a.size == 0:
        return True
    scale = float(np.max(np.abs(a)))
    if not math.isfinite(scale):
        return False
    return float(np.max(np.abs(a - a.conj().T))) <= HERMITIAN_RTOL * max(1.0, scale)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Attributes:
        eigenvalues: Real eigenvalues sorted in descending order.
        eigenvectors: Unit-norm eigenvector columns aligned with
            ``eigenvalues``, so ``A = U diag(w) U^H``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Negative eigenvalues within round-off of zero (``PSD_CLAMP_RTOL``
    times the Frobenius norm) are clamped to zero, so positive
    semidefinite inputs always yield non-negative spectra.  Genuinely
    indefinite matrices keep their negative eigenvalues.

    Args:
        a: Square Hermitian matrix.

    Raises:
        ValueError: If the input is not square, has a NaN or infinite
            entry, or is not Hermitian within ``HERMITIAN_RTOL``.
        ArithmeticError: If the underlying iteration fails to converge.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not is_hermitian(a):
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries (NaN or inf)")
        resid = float(np.max(np.abs(a - a.conj().T)))
        raise ValueError(f"matrix is not Hermitian (max asymmetry {resid:.3e})")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigendecomposition did not converge: {exc}") from exc
    # eigh returns ascending order; flip to descending.
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    tiny = PSD_CLAMP_RTOL * float(np.linalg.norm(a))
    values[(values < 0.0) & (values >= -tiny)] = 0.0
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def exchange_conjugate(a) -> np.ndarray:
    """Computes J conj(A) J, with J the anti-identity of matching size.

    This is the reflection used to form backward sub-array covariances:
    it reverses both axes and conjugates every entry.

    Raises:
        ValueError: If the input is not square.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return np.flip(a, axis=(0, 1)).conj()
