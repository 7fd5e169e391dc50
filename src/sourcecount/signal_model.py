"""Snapshot simulation for a half-wavelength uniform linear array.

Generates array snapshots ``r(n) = A(theta) s(n) + w(n)`` for
non-coherent and coherent source mixes, estimates the sample covariance
``R = (1/N) sum_n r(n) r(n)^H``, and applies forward-backward spatial
smoothing to decorrelate coherent sources.

Conventions:
    * Element spacing is half a wavelength, so element ``m`` of the
      steering vector is ``exp(i pi m sin(theta))``.
    * Every source has unit power; the SNR in dB sets the per-antenna
      noise variance ``sigma^2 = 10^(-snr_db / 10)``.  ``snr_db = inf``
      is the noise-free sentinel.
    * Sources and noise are circular complex Gaussian.

All generators take an explicit ``numpy.random.Generator`` so that
parallel workers can use independently seeded streams.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import FLOAT_MAX, check_count, check_real, is_moderate

_HALF_SQRT2 = 1.0 / math.sqrt(2.0)

# The lowest SNR whose noise variance 10^(-SNR/10) does not overflow (found by bisection).
MIN_SNR_DB = -3082.547155599167


def noise_variance_at(snr_db) -> float:
    """Per-antenna noise variance ``10^(-snr_db / 10)`` of unit-power sources, 0.0 at inf.
    Raises ValueError naming ``snr_db`` unless it is a real in [``MIN_SNR_DB``, inf]."""
    return 10.0 ** (-check_real("snr_db", snr_db, MIN_SNR_DB, math.inf) / 10.0)


def steering_matrix(doas, num_antennas: int) -> np.ndarray:
    """M x K array response of a half-wavelength ULA to plane waves at
    ``doas``: entry (m, k) is ``exp(i pi m sin(doas[k]))``, so row 0 is
    all ones.  No DOAs give an M x 0 matrix; a (g, K) array of DOAs
    gives the (g, M, K) stack."""
    doas = np.asarray(doas, dtype=float)
    sines = np.array([math.sin(theta) for theta in doas.ravel().tolist()]).reshape(doas.shape)
    return np.exp(1j * (np.pi * np.arange(num_antennas)[:, np.newaxis]
                        * sines[..., np.newaxis, :]))


def snapshot_stack(m: int, n: int, counts, rows, doas, variances, normals) -> np.ndarray:
    """The (g, M, N) snapshots ``A(theta) S + W`` of g trials, from their
    columns: trial ``j`` has ``counts[j]`` = K sources at DOAs ``doas[j, :K]``
    (entries past K are not read), source ``i`` reads independent source row
    ``rows[j, i]`` (a coherent copy its target's), and the noise variance is
    ``variances[j]`` (0.0 noise-free).  Row ``j`` of ``normals`` ends with the
    real then imaginary parts of its independent source rows, then of its M x N noise (if any).

    Sources and noise are unit-power circular complex Gaussian.  The trials
    of each K take one stacked steering and matmul, the noisy ones one noise pass.
    """
    g, width = normals.shape
    noisy = variances > 0.0
    # Each part goes onto the float64 view of `out` as its normal times 1/sqrt(2): the bits
    # of the complex (re + 1j * im) / sqrt(2), whose Smith division is that product.
    out = np.zeros((g, m, n), dtype=np.complex128)
    if noisy.any():  # a noise-free row may be narrower than M x N noise
        parts = out.view(np.float64).reshape(g, m, n, 2)
        noise = normals[:, width - 2 * m * n:].reshape(g, 2, m, n).transpose(0, 2, 3, 1)
        # Masking the rows triples the product's cost, so only a mixed block pays it.
        where = True if noisy.all() else noisy.reshape(-1, 1, 1, 1)
        np.multiply(noise, _HALF_SQRT2, out=parts, where=where)
        parts *= np.sqrt(variances).reshape(-1, 1, 1, 1)
    used = np.arange(rows.shape[1]) < counts[:, np.newaxis]
    independent = rows.max(axis=1, initial=-1, where=used) + 1
    # Each trial's first normal, as an index into the flattened normals.
    first = width * np.arange(1, g + 1) - 2 * (independent + m * noisy) * n
    # The first real and imaginary normal of each source's row.
    starts = first[:, np.newaxis, np.newaxis] + n * np.stack(
        [rows, rows + independent[:, np.newaxis]], axis=-1)
    for k in set(counts.tolist()) - {0}:
        trials = np.flatnonzero(counts == k)
        sources = normals.take(starts[trials, :k, np.newaxis] + np.arange(n)[:, np.newaxis])
        sources *= _HALF_SQRT2
        out[trials] += steering_matrix(doas[trials, :k], m) @ sources.view(np.complex128)[..., 0]
    return out


def generate_snapshots(num_antennas: int, num_snapshots: int, doas, targets, snr_db,
                       rng: np.random.Generator) -> np.ndarray:
    """The M x N snapshots ``A(theta) S + W`` of one raw draw of ``experiments.draw_scenario``:
    the last ``len(targets)`` of the K = ``len(doas)`` sources are coherent copies, copy ``c``
    of independent source ``targets[c]``; at ``snr_db = inf`` no noise is drawn.  Raises
    ValueError naming the argument, before any draw, unless M and N are integers with 0 <= K < M
    and N >= 1, the DOAs are distinct finite reals, each target is an independent source and
    :func:`noise_variance_at` takes the SNR.  The one-row case of :func:`snapshot_stack`."""
    k, independent = len(doas), len(doas) - len(targets)
    m = check_count("num_antennas", num_antennas, k + 1)
    n = check_count("num_snapshots", num_snapshots, 1)
    doas = [check_real("doas", theta, -FLOAT_MAX, FLOAT_MAX) for theta in doas]
    if len(set(doas)) < k:
        raise ValueError("doas must be pairwise distinct")
    targets = [check_count("targets", t, 0, independent - 1) for t in targets]
    variance = noise_variance_at(snr_db)
    normals = rng.standard_normal((1, 2 * (independent + m * (variance > 0.0)) * n))
    return snapshot_stack(m, n, np.array([k]), np.array([[*range(independent), *targets]], int),
                          np.array([doas], dtype=float), np.array([variance]), normals)[0]


def sample_covariance(snapshots) -> np.ndarray:
    """Sample covariance ``(1/N) sum_n r(n) r(n)^H`` of an M x N snapshot
    matrix, or of each matrix of an (..., M, N) stack.

    The result is symmetrized entrywise, so it is exactly Hermitian and
    PSD up to round-off.
    """
    data = np.asarray(snapshots)
    if data.ndim < 2:
        raise ValueError("snapshots must be an M x N matrix or a stack of them")
    n = data.shape[-1]
    if n == 0:
        raise ValueError("need at least one snapshot")
    r = data @ data.conj().swapaxes(-1, -2)
    if r.dtype != np.complex128:
        r = r / n
    else:  # Smith's division by n + 0j is the product with 1/n on each part, except where a
        # part is non-finite or -0.0; those entries keep numpy's own division.
        parts = r.view(np.float64)
        scaled = (parts * (1.0 / n)).view(np.complex128)
        if not np.isfinite(parts).all() or np.signbit(parts[parts == 0.0]).any():
            np.divide(r, n, out=scaled, where=~np.isfinite(r) | (r.real * r.imag == 0.0))
        r = scaled
    return 0.5 * (r + r.conj().swapaxes(-1, -2))


def fbss_covariance(r_hat, subarray_size: int) -> np.ndarray:
    """Forward-backward spatially smoothed covariance of each matrix.

    Averages the ``T = M - M0 + 1`` forward sub-array covariances (the M0 x M0 blocks of
    ``r_hat`` at offsets 0..T-1 along the diagonal; one ``np.add.accumulate`` sums them for one
    matrix, a loop for a stack, both in order) with their exchanged conjugates, over 2T terms.

    Args:
        r_hat: Hermitian M x M covariance estimate, or an (..., M, M) stack.
        subarray_size: Sub-array size M0 with 1 <= M0 <= M.

    Returns:
        The M0 x M0 smoothed covariances (Hermitian, PSD-preserving).

    Raises:
        ValueError: If a matrix is not square, ``subarray_size`` is out of
            range, or an entry is NaN, infinite or so large that the sums
            overflow.
    """
    r_hat = np.ascontiguousarray(r_hat, dtype=np.complex128)
    if r_hat.ndim < 2 or r_hat.shape[-1] != r_hat.shape[-2]:
        raise ValueError("covariance must be a square matrix")
    m = r_hat.shape[-1]
    m0 = check_count("subarray_size", subarray_size, 1, m)
    t = m - m0 + 1
    if not is_moderate(r_hat):
        top = np.maximum.reduce(np.abs(r_hat.view(np.float64)), axis=None, initial=0.0)
        if not top <= FLOAT_MAX / (2 * t):  # the 2T-term sums stay finite; NaN fails too
            if not np.isfinite(r_hat).all():
                raise ValueError("matrix has non-finite entries (NaN or inf)")
            raise ValueError("matrix is too large: its smoothed sum overflows")
    if r_hat.size == m * m:  # one matrix: accumulate adds its T windows (a view) in order
        windows = np.ndarray((t, *r_hat.shape[:-2], m0, m0), np.complex128, r_hat,
                             strides=(sum(r_hat.strides[-2:]), *r_hat.strides))
        forward = np.add.accumulate(windows)[-1] + 0.0  # as below, -0.0 becomes 0.0
    else:  # accumulate keeps all T partial sums: 194 against 80 µs on 256 matrices (SkylakeX)
        forward = r_hat[..., :m0, :m0] + 0.0  # as a sum from zeros: -0.0 becomes 0.0
        for offset in range(1, t):
            forward += r_hat[..., offset:offset + m0, offset:offset + m0]
    return (forward + forward[..., ::-1, ::-1].conj()) / (2 * t)
