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

from .linalg import exchange_conjugate


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
        if self.snr_db == math.inf:
            return 0.0
        return 10.0 ** (-self.snr_db / 10.0)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Circular complex Gaussian with unit power per entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def steering_matrix(doas, num_antennas: int) -> np.ndarray:
    """M x K array response of a half-wavelength ULA to plane waves at
    ``doas``: entry (m, k) is ``exp(i pi m sin(doas[k]))``, so row 0 is
    all ones.  No DOAs give an M x 0 matrix."""
    sines = np.array([math.sin(theta) for theta in doas], dtype=float)
    return np.exp(1j * np.multiply.outer(np.pi * np.arange(num_antennas), sines))


def generate_sources(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """K x N source waveform matrix for one scenario.

    Independent sources are unit-power circular complex Gaussian rows,
    drawn in ascending index order.  Each coherent source is an exact
    copy (amplitude and phase) of its mapped independent source.
    """
    k, n = scenario.num_sources, scenario.num_snapshots
    coherent = scenario.coherent_map or {}
    s = np.zeros((k, n), dtype=np.complex128)
    independent = [i for i in range(k) if i not in coherent]
    if independent:
        s[independent] = _complex_gaussian(rng, (len(independent), n))
    for copy_idx in sorted(coherent):
        s[copy_idx] = s[coherent[copy_idx]]
    return s


def generate_snapshots(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Draws the M x N snapshot matrix ``A(theta) S + W`` of one scenario.

    Noise entries are i.i.d. circular complex Gaussian with variance
    ``scenario.noise_variance`` per antenna.  With ``snr_db = inf`` no
    noise is drawn at all, leaving the rank-K signal part (the zero
    matrix for K = 0).
    """
    m, n = scenario.num_antennas, scenario.num_snapshots
    data = steering_matrix(scenario.doas, m) @ generate_sources(scenario, rng)
    sigma2 = scenario.noise_variance
    if sigma2 > 0.0:
        data = data + math.sqrt(sigma2) * _complex_gaussian(rng, (m, n))
    return data


def sample_covariance(snapshots) -> np.ndarray:
    """Sample covariance ``(1/N) sum_n r(n) r(n)^H`` of an M x N snapshot
    matrix.

    The result is symmetrized entrywise, so it is exactly Hermitian and
    PSD up to round-off.
    """
    data = np.asarray(snapshots)
    if data.ndim != 2:
        raise ValueError("snapshots must be an M x N matrix")
    n = data.shape[1]
    if n == 0:
        raise ValueError("need at least one snapshot")
    r = (data @ data.conj().T) / n
    return 0.5 * (r + r.conj().T)


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
    """
    r_hat = np.asarray(r_hat)
    if r_hat.ndim < 2 or r_hat.shape[-1] != r_hat.shape[-2]:
        raise ValueError("covariance must be a square matrix")
    if not np.isfinite(r_hat).all():
        raise ValueError("matrix has non-finite entries (NaN or inf)")
    m = r_hat.shape[-1]
    m0 = subarray_size
    if not 1 <= m0 <= m:
        raise ValueError(f"subarray size must be in [1, {m}], got {m0}")
    t = m - m0 + 1
    forward = np.zeros(r_hat.shape[:-2] + (m0, m0), dtype=np.complex128)
    for offset in range(t):
        forward += r_hat[..., offset:offset + m0, offset:offset + m0]
    return (forward + exchange_conjugate(forward)) / (2 * t)
