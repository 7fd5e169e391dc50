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
from dataclasses import dataclass

import numpy as np

from .linalg import exchange_conjugate, is_moderate

_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class Scenario:
    """One simulation draw.

    Attributes:
        num_antennas: Array size M.
        num_snapshots: Snapshot count N.
        num_sources: Source count K, with 0 <= K < M.
        doas: K distinct arrival angles in radians.
        snr_db: Per-source SNR in dB (``math.inf`` means noise-free;
            NaN and ``-math.inf`` are rejected).
        coherent_map: Optional mapping from coherent source index to the
            independent source index it duplicates; ``None`` or empty
            means all sources are independent.
    """

    num_antennas: int
    num_snapshots: int
    num_sources: int
    doas: tuple[float, ...]
    snr_db: float
    coherent_map: dict[int, int] | None = None

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be at least 1")
        if self.num_snapshots < 1:
            raise ValueError("num_snapshots must be at least 1")
        if not 0 <= self.num_sources < self.num_antennas:
            raise ValueError(
                f"need 0 <= num_sources < num_antennas, got K={self.num_sources}, "
                f"M={self.num_antennas}"
            )
        if len(self.doas) != self.num_sources:
            raise ValueError("doas length must equal num_sources")
        if len(set(self.doas)) != len(self.doas):
            raise ValueError("doas must be pairwise distinct")
        if not self.snr_db > -math.inf:
            raise ValueError(f"snr_db must be a number or inf (noise-free), got {self.snr_db}")
        noise_variance_at(self.snr_db)
        if self.coherent_map:
            coherent = set(self.coherent_map)
            for copy_idx, src_idx in self.coherent_map.items():
                if not 0 <= copy_idx < self.num_sources:
                    raise ValueError(f"coherent index {copy_idx} out of range")
                if not 0 <= src_idx < self.num_sources:
                    raise ValueError(f"copy target {src_idx} out of range")
                if src_idx in coherent:
                    raise ValueError(
                        f"copy target {src_idx} is itself coherent; targets must be "
                        "independent sources"
                    )

    @property
    def noise_variance(self) -> float:
        return noise_variance_at(self.snr_db)


def noise_variance_at(snr_db: float, name: str = "snr_db") -> float:
    """Per-antenna noise variance ``10^(-snr_db / 10)`` of unit-power sources (0.0 at
    inf); an SNR below about -3082.5 dB, where it overflows, raises ValueError naming it."""
    if snr_db == math.inf:
        return 0.0
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"{name} must be above about -3082.5 dB, where the noise variance "
                         f"10^(-SNR/10) overflows, got {snr_db}") from None


def steering_matrix(doas, num_antennas: int) -> np.ndarray:
    """M x K array response of a half-wavelength ULA to plane waves at
    ``doas``: entry (m, k) is ``exp(i pi m sin(doas[k]))``, so row 0 is
    all ones.  No DOAs give an M x 0 matrix; a (g, K) array of DOAs
    gives the (g, M, K) stack."""
    doas = np.asarray(doas, dtype=float)
    sines = np.array([math.sin(theta) for theta in doas.ravel().tolist()]).reshape(doas.shape)
    return np.exp(1j * (np.pi * np.arange(num_antennas)[:, np.newaxis]
                        * sines[..., np.newaxis, :]))


def normal_count(scenario: Scenario) -> int:
    """Standard normals one scenario draws, in this order: the real then
    the imaginary parts of its independent source rows, then those of its
    M x N noise (none when noise-free)."""
    independent = scenario.num_sources - len(scenario.coherent_map or {})
    noise = scenario.num_antennas if scenario.noise_variance > 0.0 else 0
    return 2 * (independent + noise) * scenario.num_snapshots


def snapshot_stack(m: int, n: int, counts, rows, doas, variances, normals) -> np.ndarray:
    """The (g, M, N) snapshots ``A(theta) S + W`` of g trials, from their
    columns: trial ``j`` has ``counts[j]`` = K sources at DOAs ``doas[j, :K]``
    (entries past K are not read), source ``i`` reads independent source row
    ``rows[j, i]`` (a coherent copy its target's), and the noise variance is
    ``variances[j]`` (0.0 noise-free).  Row ``j`` of ``normals`` ends with
    the trial's :func:`normal_count` standard normals.

    Sources and noise are unit-power circular complex Gaussian.  The trials
    of each K take one stacked steering and matmul, the noisy ones one noise pass.
    """
    g, width = normals.shape
    noisy = variances > 0.0
    # The noise term comes first, so its gathered normals are freed before `out` is made.
    noise = normals[noisy, width - 2 * m * n:].reshape(-1, 2, m, n)
    noise = np.sqrt(variances[noisy])[:, np.newaxis, np.newaxis] * (
        (noise[:, 0] + 1j * noise[:, 1]) / math.sqrt(2.0))
    out = np.zeros((g, m, n), dtype=np.complex128)
    used = np.arange(rows.shape[1]) < counts[:, np.newaxis]
    independent = rows.max(axis=1, initial=-1, where=used) + 1
    first = width - 2 * (independent + m * noisy) * n  # each trial's first normal
    # The first real and imaginary normal of each source's row.
    starts = first[:, np.newaxis, np.newaxis] + n * np.stack(
        [rows, rows + independent[:, np.newaxis]], axis=1)
    for k in set(counts.tolist()) - {0}:
        trials = np.flatnonzero(counts == k)
        parts = normals[trials[:, np.newaxis, np.newaxis, np.newaxis],
                        starts[trials, :, :k, np.newaxis] + np.arange(n)]
        out[trials] = steering_matrix(doas[trials, :k], m) @ (
            (parts[:, 0] + 1j * parts[:, 1]) / math.sqrt(2.0))
    out[noisy] += noise
    return out


def generate_snapshots(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Draws the M x N snapshot matrix ``A(theta) S + W`` of one scenario:
    the one-row case of :func:`snapshot_stack`.

    With ``snr_db = inf`` no noise is drawn at all, leaving the rank-K
    signal part (the zero matrix for K = 0).
    """
    k, coherent = scenario.num_sources, scenario.coherent_map or {}
    independent = [i for i in range(k) if i not in coherent]
    rows = [independent.index(coherent.get(i, i)) for i in range(k)]
    normals = rng.standard_normal((1, normal_count(scenario)))
    return snapshot_stack(scenario.num_antennas, scenario.num_snapshots, np.array([k]),
                          np.array([rows], dtype=np.intp), np.array([scenario.doas], dtype=float),
                          np.array([scenario.noise_variance]), normals)[0]


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
    r = (data @ data.conj().swapaxes(-1, -2)) / n
    return 0.5 * (r + r.conj().swapaxes(-1, -2))


def fbss_covariance(r_hat, subarray_size: int) -> np.ndarray:
    """Forward-backward spatially smoothed covariance of each matrix.

    Averages the ``T = M - M0 + 1`` forward sub-array covariances (the
    M0 x M0 principal blocks of ``r_hat`` at offsets 0..T-1 along the
    diagonal) together with their exchanged conjugates, over 2T terms.

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
    m0 = subarray_size
    if not 1 <= m0 <= m:
        raise ValueError(f"subarray size must be in [1, {m}], got {m0}")
    t = m - m0 + 1
    if not is_moderate(r_hat):
        top = np.maximum.reduce(np.abs(r_hat.view(np.float64)), axis=None, initial=0.0)
        if not top <= _FLOAT_MAX / (2 * t):  # the 2T-term sums stay finite; NaN fails too
            if not np.isfinite(r_hat).all():
                raise ValueError("matrix has non-finite entries (NaN or inf)")
            raise ValueError("matrix is too large: its smoothed sum overflows")
    forward = r_hat[..., :m0, :m0] + 0.0  # as a sum from zeros: -0.0 becomes 0.0
    for offset in range(1, t):
        forward += r_hat[..., offset:offset + m0, offset:offset + m0]
    return (forward + exchange_conjugate(forward)) / (2 * t)
