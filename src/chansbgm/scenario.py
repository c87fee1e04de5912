"""Synthetic propagation scenarios and the compressed observation model.

Two generators are provided. The SIMO generator draws a path angle from a
street-canyon style mixture profile and then a channel from a zero-mean
complex Gaussian whose covariance integrates a narrow Laplacian angle
density against the array steering vectors; the covariance and the
ground-truth path synthesis share one split Gauss-Legendre quadrature of
that density, vectorized over a block of samples. A ULA's covariance is
Hermitian Toeplitz, so only its first column is integrated, and steering
vectors are never formed: their entries are the powers of one phasor per
node, taken by a running product. Channels are drawn a block at a time
from per-covariance Cholesky factors, with a small jitter for the
(numerically) singular covariances that narrow densities give. The OFDM
generator draws a random number of discrete paths with uniform
delays/Dopplers and exponentially decaying gain power, and evaluates the
resulting channel matrix on the time-frequency sampling grid.

Observations follow y = A h + n, where A keeps the channel entries at a
fixed set of pilot indices (all of them for SIMO), and the per-sample
noise variance follows from a per-sample SNR drawn uniformly in dB. A is
held as those indices, never as a matrix: A h is ``h[pilots]`` and the
effective dictionary A D is ``D[pilots]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dictionary import SystemConfig, delay_matrix, doppler_matrix
from .errors import InvalidArgumentError, NumericError
from .utils import complex_standard_normal


@dataclass(frozen=True)
class AngleComponent:
    """One angular region: a Gaussian with std = half_width/3, truncated to
    [center - half_width, center + half_width]. half_width = 0 degenerates
    to a point mass at the center."""

    center: float
    half_width: float
    weight: float


@dataclass(frozen=True)
class AngleProfile:
    """Mixture of truncated angular components; weights sum to one."""

    components: tuple[AngleComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise InvalidArgumentError("profile needs at least one component")
        weights = np.array([c.weight for c in self.components])
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError("component weights must be nonnegative and sum to 1")
        for c in self.components:
            if c.half_width < 0:
                raise InvalidArgumentError("half_width must be nonnegative")
            if c.center - c.half_width < -math.pi / 2 or c.center + c.half_width >= math.pi / 2:
                raise InvalidArgumentError("component support must lie within [-pi/2, pi/2)")

    @classmethod
    def street_canyons(cls) -> "AngleProfile":
        """Default four-region profile (centers +-60 and +-20 degrees,
        per-region std 5 degrees, truncated at 3 std)."""
        centers_deg = (-60.0, -20.0, 20.0, 60.0)
        std = math.radians(5.0)
        return cls(
            components=tuple(
                AngleComponent(center=math.radians(c), half_width=3.0 * std, weight=0.25)
                for c in centers_deg
            )
        )

    def support_mask(self, angles: np.ndarray) -> np.ndarray:
        """Boolean mask of which angles fall inside any component support."""
        angles = np.asarray(angles)
        mask = np.zeros(angles.shape, dtype=bool)
        for c in self.components:
            mask |= np.abs(angles - c.center) <= c.half_width + 1e-12
        return mask


def sample_angle(profile: AngleProfile, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` path angles from the mixture profile.

    Per-component sampling is a truncated Gaussian realized by rejection;
    the acceptance rate at the 3-std truncation exceeds 99.7%.
    """
    n = int(size)
    weights = np.array([c.weight for c in profile.components])
    labels = rng.choice(len(profile.components), size=n, p=weights)
    out = np.empty(n)
    for i, lab in enumerate(labels):
        comp = profile.components[lab]
        if comp.half_width == 0.0:
            out[i] = comp.center
            continue
        std = comp.half_width / 3.0
        while True:
            draw = comp.center + std * rng.standard_normal()
            if abs(draw - comp.center) <= comp.half_width:
                out[i] = draw
                break
    return out


@lru_cache(maxsize=8)
def _reference_gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    # leggauss solves an eigenproblem of size `count`; cache the reference
    # nodes since they are reused for every sample drawn
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre_nodes(lo, hi, count: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _reference_gauss_legendre(count)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _laplacian_nodes(centers, std_dev: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and density-weighted weights, each of shape
    (len(centers), count), for Laplacian angle densities around ``centers``.

    Each window [center - 10 std, center + 10 std], clipped to [-pi, pi],
    is split at the density's kink and each half uses Gauss-Legendre
    quadrature, so smooth integrands converge to near machine precision (a
    composite trapezoid rule stalls around 1e-5 because of the kink). The
    truncated tail mass is exp(-10 sqrt(2)), below 1e-6.
    """
    centers = np.asarray(centers, dtype=float)[:, None]
    lo = np.maximum(centers - 10.0 * std_dev, -math.pi)
    hi = np.minimum(centers + 10.0 * std_dev, math.pi)
    t_lo, w_lo = _gauss_legendre_nodes(lo, centers, count // 2)
    t_hi, w_hi = _gauss_legendre_nodes(centers, hi, count - count // 2)
    theta = np.concatenate([t_lo, t_hi], axis=1)
    w = np.concatenate([w_lo, w_hi], axis=1)
    scale = std_dev / math.sqrt(2.0)
    density = np.exp(-np.abs(theta - centers) / scale) / (2.0 * scale)
    return theta, w * density


def _steering_sums(theta: np.ndarray, coeffs: np.ndarray, n_antennas: int) -> np.ndarray:
    """Rows of sum_j coeffs[:, j] z_j^m for m < ``n_antennas``, with
    z_j = exp(-j pi sin theta[:, j]): the ULA steering vectors toward the
    nodes ``theta`` weighted by ``coeffs``. The powers come from a running
    product, so no (n_antennas, nodes) steering matrix is formed; power m
    carries about m roundings more than ``ula_matrix`` would.
    """
    z = np.exp(-1j * math.pi * np.sin(theta))
    power = np.ones_like(z)
    coeffs = coeffs.astype(complex)[:, :, None]
    sums = np.empty((len(theta), n_antennas), dtype=complex)
    for m in range(n_antennas):
        sums[:, m] = (power[:, None, :] @ coeffs)[:, 0, 0]  # one dot product per row
        power *= z
    return sums


# Samples are walked in blocks whose (rows, nodes) quadrature arrays hold
# about this many entries (2 MB complex), so their memory depends on neither
# the sample count nor the node count.
_NODE_BLOCK = 1 << 17


def _node_blocks(n: int, count: int) -> list[slice]:
    step = max(1, _NODE_BLOCK // count)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def laplacian_local_covariance(
    center,
    std_dev: float,
    n_antennas: int,
    quadrature_points: int = 2048,
) -> np.ndarray:
    """Channel covariance for a Laplacian angle density around ``center``.

    Integrates g(theta) a(theta) a(theta)^H over the quadrature window of
    :func:`_laplacian_nodes`; the default node count converges it to near
    machine precision. The covariance of a ULA is Hermitian Toeplitz, so
    only its first column r_m = sum_j w_j z_j^m (z_j = exp(-j pi sin
    theta_j)) is integrated, and entry (a, b) is r_(a-b), or the conjugate
    of r_(b-a) above the diagonal: the result is exactly Hermitian and
    exactly Toeplitz.

    A scalar ``center`` gives one (N, N) matrix; a 1-D array of centers
    gives the (n, N, N) stack of their covariances, each row of which
    equals the scalar call. The stack's working arrays are (n,
    quadrature_points), so callers pass a block of centers at a time.
    """
    if std_dev <= 0:
        raise InvalidArgumentError("std_dev must be positive")
    if quadrature_points < 64:
        raise InvalidArgumentError("quadrature_points must be >= 64")
    centers = np.asarray(center, dtype=float)
    if centers.ndim > 1:
        raise InvalidArgumentError("center must be a scalar or a 1-D array")
    theta, weights = _laplacian_nodes(centers.reshape(-1), std_dev, quadrature_points)
    column = _steering_sums(theta, weights, n_antennas)
    lag = np.arange(n_antennas)[:, None] - np.arange(n_antennas)[None, :]
    cov = column[:, np.abs(lag)]
    above = lag < 0
    cov[:, above] = cov[:, above].conj()
    return cov if centers.ndim else cov[0]


def _cholesky_factors(covs: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of PSD covariances.

    Each covariance is factored alone, and one that is singular (PSD but
    not PD) gets a single jitter of 1e-12 * trace/N before its retry.
    """
    factors = np.empty_like(covs)
    n = covs.shape[-1]
    for i, cov in enumerate(covs):
        try:
            factors[i] = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            jitter = 1e-12 * (np.trace(cov).real / n)
            try:
                factors[i] = np.linalg.cholesky(cov + jitter * np.eye(n))
            except np.linalg.LinAlgError as exc:
                raise NumericError("covariance is not positive semidefinite") from exc
    return factors


def draw_simo_channel(cov: np.ndarray, rng: np.random.Generator, size: int | None = None):
    """Draw circularly symmetric complex Gaussian vectors with covariance ``cov``.

    An (N, N) ``cov`` gives one vector, or ``size`` rows of them; an
    (n, N, N) stack gives one row per covariance (``size`` must then be
    None). Each draw is L z with L the Cholesky factor of its covariance
    (see :func:`_cholesky_factors` for singular ones) and z a row of one
    ``complex_standard_normal(rng, (rows, N))`` call, so a stack consumes
    the generator exactly as its rows drawn one at a time do. An all-zero
    covariance draws zeros and consumes no normals, alone or in a stack.
    """
    cov = np.asarray(cov)
    if cov.ndim not in (2, 3) or cov.shape[-1] != cov.shape[-2]:
        raise InvalidArgumentError("cov must be an (N, N) matrix or an (n, N, N) stack")
    if cov.ndim == 3 and size is not None:
        raise InvalidArgumentError("a stack of covariances draws one channel each; omit size")
    stack = cov if cov.ndim == 3 else cov[None]
    count = len(stack) if size is None else int(size)
    live = stack.any(axis=(1, 2))
    factors = _cholesky_factors(stack[live])
    live = np.broadcast_to(live, count)  # one covariance serves all `size` draws
    z = complex_standard_normal(rng, (int(live.sum()), stack.shape[-1]))
    draws = np.zeros((count, stack.shape[-1]), dtype=complex)
    draws[live] = (factors @ z[..., None])[..., 0]
    return draws[0] if cov.ndim == 2 and size is None else draws


def simo_channels(
    profile: AngleProfile,
    std_dev: float,
    n_antennas: int,
    n_samples: int,
    rng: np.random.Generator,
    quadrature_points: int = 2048,
) -> np.ndarray:
    """Draw ``n_samples`` path angles from ``profile``, then one channel per
    angle from the Laplacian local covariance around it; shape
    (n, n_antennas).

    Samples go a block at a time: the block's covariance stack
    (:func:`laplacian_local_covariance`) is drawn from
    (:func:`draw_simo_channel`) before the next block is computed, so only
    one block's (rows, quadrature_points) arrays are held. Both are looked
    up in this module when called, so the benchmark's tracer, which wraps
    them by name, times them.
    """
    angles = sample_angle(profile, rng, size=n_samples)
    channels = np.empty((n_samples, n_antennas), dtype=complex)
    for rows in _node_blocks(n_samples, quadrature_points):
        covs = laplacian_local_covariance(angles[rows], std_dev, n_antennas, quadrature_points)
        channels[rows] = draw_simo_channel(covs, rng)
    return channels


@dataclass(frozen=True)
class OfdmScenario:
    """Parametric multipath scenario for the OFDM system.

    Per realization: the path count is uniform on {1..max_paths}, delays
    and Dopplers are uniform on their ranges, and each path gain has
    squared magnitude exp(-delay * gain_decay_rate) with a phase uniform
    on [0, 2pi).
    """

    config: SystemConfig
    max_paths: int = 8
    delay_range: tuple[float, float] = (0.0, 3e-6)
    doppler_range: tuple[float, float] = (-200.0, 200.0)
    gain_decay_rate: float = 1e6
    # grid bounds the learned representation will use; ranges must fit inside
    doppler_bound: float = 250.0
    delay_bound: float = 6e-6

    def __post_init__(self):
        if self.config.variant != "ofdm":
            raise InvalidArgumentError("OfdmScenario requires an OFDM system config")
        if self.max_paths < 1:
            raise InvalidArgumentError("max_paths must be >= 1")
        if not self.gain_decay_rate >= 0:
            raise InvalidArgumentError("gain_decay_rate must be >= 0")
        lo_d, hi_d = self.delay_range
        if not (0.0 <= lo_d <= hi_d < self.delay_bound):
            raise InvalidArgumentError("delay_range must lie within [0, delay_bound)")
        lo_v, hi_v = self.doppler_range
        if not (-self.doppler_bound <= lo_v <= hi_v <= self.doppler_bound):
            raise InvalidArgumentError("doppler_range must lie within the Doppler bound")


def evaluate_ofdm_channel(
    config: SystemConfig,
    gains: np.ndarray,
    dopplers: np.ndarray,
    delays: np.ndarray,
) -> np.ndarray:
    """Channel matrix (n_subcarriers, n_symbols) as a sum of path terms.

    Entry (j, i) accumulates gain * exp(+j2pi doppler i dT) *
    exp(-j2pi delay j df) over paths, with 0-based sample indices.
    """
    freq = delay_matrix(delays, config.n_subcarriers, config.subcarrier_spacing)
    time = doppler_matrix(dopplers, config.n_symbols, config.symbol_duration)
    return (freq * np.asarray(gains)[None, :]) @ time.T


def draw_ofdm_channel(scenario: OfdmScenario, rng: np.random.Generator) -> np.ndarray:
    """One multipath OFDM channel matrix (n_subcarriers, n_symbols)."""
    n_paths = int(rng.integers(1, scenario.max_paths + 1))
    delays = rng.uniform(*scenario.delay_range, size=n_paths)
    dopplers = rng.uniform(*scenario.doppler_range, size=n_paths)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_paths)
    amplitudes = np.exp(-0.5 * delays * scenario.gain_decay_rate)
    gains = amplitudes * np.exp(1j * phases)
    return evaluate_ofdm_channel(scenario.config, gains, dopplers, delays)


def simo_ground_truth(
    profile: AngleProfile,
    std_dev: float,
    grid,
    n_antennas: int,
    n_samples: int,
    rng: np.random.Generator,
    quadrature_points: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw channels together with their true on-grid coefficient vectors.

    Each channel is synthesized as an explicit superposition of steering
    vectors at the quadrature nodes of its local angle density (the factor
    form of the covariance used by :func:`draw_simo_channel`), so the true
    path gains are known. Binning those gains to the nearest grid angle
    gives the exact ground-truth coefficient vector, which a dictionary
    inversion could only approximate: with as many antennas as gridpoints
    the square system is numerically singular (the uniform angle grid
    undersamples spatial frequency near broadside), so direct inversion is
    not an option in double precision.

    Returns (channels, coefficients) with shapes (n, n_antennas) and
    (n, grid.size).
    """
    angles = sample_angle(profile, rng, size=n_samples)
    channels = np.empty((n_samples, n_antennas), dtype=complex)
    coefficients = np.zeros((n_samples, grid.size), dtype=complex)
    spacing = math.pi / grid.size
    for rows in _node_blocks(n_samples, quadrature_points):
        theta, weights = _laplacian_nodes(angles[rows], std_dev, quadrature_points)
        # one row of gains per sample, drawn in sample order
        gains = np.sqrt(weights) * complex_standard_normal(rng, theta.shape)
        channels[rows] = _steering_sums(theta, gains, n_antennas)
        nearest = np.clip(
            np.round((theta - grid.points[0]) / spacing).astype(int), 0, grid.size - 1
        )
        sample = np.arange(len(theta))[:, None]
        np.add.at(coefficients[rows], (sample, nearest), gains)
    return channels, coefficients


def random_pilots(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct indices drawn uniformly from range(n)."""
    if not (1 <= m <= n):
        raise InvalidArgumentError("need 1 <= m <= n")
    return rng.choice(n, size=m, replace=False)


def _check_pilots(pilots, n_entries: int | None = None) -> np.ndarray:
    """``pilots`` as a 1-D array of distinct non-negative integers, each
    below ``n_entries`` when that is given."""
    pilots = np.asarray(pilots)
    if pilots.ndim != 1 or pilots.dtype.kind not in "iu":
        raise InvalidArgumentError("pilots must be a 1-D integer index vector")
    if np.any(pilots < 0) or len(np.unique(pilots)) != len(pilots):
        raise InvalidArgumentError("pilots must be distinct non-negative indices")
    if n_entries is not None and np.any(pilots >= n_entries):
        raise InvalidArgumentError(f"pilots must be below the {n_entries} channel entries")
    return pilots


@dataclass
class ObservationSet:
    """Noisy compressed samples with the channel entries they observe.

    samples: (n, M) complex observations, one per row.
    noise_vars: (n,) per-sample noise variance (per complex entry).
    pilots: (M,) distinct channel-entry indices; sample entry j observes
        channel entry pilots[j] (``np.arange(N)`` observes them all).
    snr_db: (n,) the drawn per-sample SNR values.
    """

    samples: np.ndarray
    noise_vars: np.ndarray
    pilots: np.ndarray
    snr_db: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        self.noise_vars = np.asarray(self.noise_vars, dtype=float)
        self.pilots = _check_pilots(self.pilots)
        if self.samples.ndim != 2 or len(self.samples) == 0:
            raise InvalidArgumentError("samples must be a nonempty 2-D array (n, M)")
        if len(self.samples) != len(self.noise_vars):
            raise InvalidArgumentError("samples and noise_vars must have equal length")
        if not (np.all(np.isfinite(self.samples)) and np.all(np.isfinite(self.noise_vars))):
            raise InvalidArgumentError("samples and noise_vars must be finite")
        if np.any(self.noise_vars <= 0):
            raise InvalidArgumentError("noise variances must be positive")
        if self.samples.shape[1] != len(self.pilots):
            raise InvalidArgumentError("sample length must match the pilot count")

    def __len__(self) -> int:
        return len(self.samples)

    def observed_rows(self, matrix: np.ndarray) -> np.ndarray:
        """The rows of ``matrix`` at the pilots; for a dictionary matrix D
        this is the effective dictionary W = A D."""
        return matrix[_check_pilots(self.pilots, len(matrix))]


def make_observations(
    channels: np.ndarray,
    pilots: np.ndarray,
    snr_range_db: tuple[float, float],
    rng: np.random.Generator,
    *,
    signal_energy: float | None = None,
) -> ObservationSet:
    """Keep the channel entries at ``pilots`` and add per-sample noise.

    The per-sample noise variance is
    signal_energy / (M * 10^(SNR_i/10)) with SNR_i uniform on the given
    dB range and signal_energy defaulting to the dataset mean of
    ||A h||^2, A h being the entries at the M pilots.
    """
    channels = np.asarray(channels, dtype=complex)
    if channels.ndim != 2 or len(channels) == 0:
        raise InvalidArgumentError("channels must be a nonempty (n, N) array")
    lo, hi = snr_range_db
    if lo > hi:
        raise InvalidArgumentError("snr_range_db must satisfy lo <= hi")
    pilots = _check_pilots(pilots, channels.shape[1])
    # take keeps the rows contiguous (channels[:, pilots] is column-major),
    # so the row sums below round as over the rows of a matrix product
    compressed = channels.take(pilots, axis=1)
    if signal_energy is None:
        signal_energy = float(np.mean(np.sum(np.abs(compressed) ** 2, axis=1)))
    if signal_energy <= 0:
        raise InvalidArgumentError("channel set carries no energy at the pilots")
    m = len(pilots)
    snr_db = rng.uniform(lo, hi, size=len(channels))
    noise_vars = signal_energy / (m * 10.0 ** (0.1 * snr_db))
    noise = complex_standard_normal(rng, (len(channels), m)) * np.sqrt(noise_vars)[:, None]
    return ObservationSet(
        samples=compressed + noise,
        noise_vars=noise_vars,
        pilots=pilots,
        snr_db=snr_db,
    )


def normalize_dataset(channels: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale channels so the mean squared norm equals the channel dimension.

    Returns the scaled channels and the applied scale factor.
    """
    channels = np.asarray(channels, dtype=complex)
    if channels.ndim != 2 or len(channels) == 0:
        raise InvalidArgumentError("channels must be a nonempty (n, N) array")
    mean_energy = float(np.mean(np.sum(np.abs(channels) ** 2, axis=1)))
    if mean_energy == 0.0:
        raise InvalidArgumentError("cannot normalize an all-zero dataset")
    scale = math.sqrt(channels.shape[1] / mean_energy)
    return channels * scale, scale
