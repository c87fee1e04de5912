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
from Cholesky factors taken with a small jitter, which lets the
(numerically) singular covariances of narrow densities factor. The OFDM
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
from typing import Iterator

import numpy as np

from .dictionary import (
    DelayDopplerGrid,
    SystemConfig,
    check_pilots,
    delay_matrix,
    doppler_matrix,
    vectorize_channel,
)
from .errors import InvalidArgumentError, NumericError
from .utils import complex_standard_normal, row_blocks

# default node count of the SIMO covariance quadrature
QUADRATURE_POINTS = 2048


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
        values = np.array([(c.center, c.half_width, c.weight) for c in self.components])
        if not np.isfinite(values).all():
            raise InvalidArgumentError("component centers, widths and weights must be finite")
        weights = values[:, 2]
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


# Newton steps below this size leave the reference nodes at round-off: the
# next step would be about (step size)^2 * count^2, far under one ulp
_NEWTON_STEP = 1e-12
# Tricomi's guesses reach _NEWTON_STEP in 3-4 steps for every count >= 32
_NEWTON_ITERATIONS = 10
# rows of a block that _steering_sums takes at a time: a group's phasors and
# powers at 2048 nodes are 512 kB each, so a group's arrays stay in L2
_STEERING_GROUP_ROWS = 16


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_(n-1)(x) by the three-term recurrence, for n >= 1."""
    previous, current, following = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(2, n + 1):
        # P_j = ((2j - 1) x P_(j-1) - (j - 1) P_(j-2)) / j, in place
        np.multiply(2 * j - 1, x, out=following)
        following *= current
        previous *= j - 1
        following -= previous
        following /= j
        previous, current, following = current, following, previous
    return current, previous


@lru_cache(maxsize=8)
def _reference_gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence, from Tricomi's guesses
    cos(pi (4k - 1) / (4 count + 2)), finds the count // 2 positive nodes
    (and 0 for an odd count); the rest follow by symmetry. The weights
    2 (1 - x^2) / (count P_(count-1)(x))^2 are taken at the converged
    nodes. Cached, since every sample reuses them.
    """
    n = count
    k = np.arange(1, n // 2 + 1)
    x = np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x = np.append(x, 0.0)
    for _ in range(_NEWTON_ITERATIONS):
        p, q = _legendre_pair(n, x)
        # P_n' = n (x P_n - P_(n-1)) / (x^2 - 1) holds off the roots too
        step = p * (x * x - 1.0) / (n * (x * p - q))
        x -= step
        if np.abs(step).max() < _NEWTON_STEP:
            break
    _, q = _legendre_pair(n, x)
    w = 2.0 * (1.0 - x * x) / (n * q) ** 2
    positive = slice(n // 2 - 1, None, -1)  # the positive nodes, ascending
    x = np.concatenate([-x[: n // 2], x[n // 2 :], x[positive]])
    w = np.concatenate([w[: n // 2], w[n // 2 :], w[positive]])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _laplacian_nodes(centers, std_dev: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and density-weighted weights, each of shape
    (len(centers), count), for Laplacian angle densities around ``centers``;
    ``count`` must be at least 64.

    Each window [center - 10 std, center + 10 std], clipped to [-pi, pi],
    is split at the density's kink and each half uses Gauss-Legendre
    quadrature, so smooth integrands converge to near machine precision (a
    composite trapezoid rule stalls around 1e-5 because of the kink). The
    truncated tail mass is exp(-10 sqrt(2)), below 1e-6. The nodes, weights
    and density are written in place, into three (rows, count) arrays.
    """
    if count < 64:
        raise InvalidArgumentError("quadrature_points must be >= 64")
    centers = np.asarray(centers, dtype=float)[:, None]
    lo = np.maximum(centers - 10.0 * std_dev, -math.pi)
    hi = np.minimum(centers + 10.0 * std_dev, math.pi)
    theta = np.empty((len(centers), count))
    weights = np.empty_like(theta)
    split = count // 2
    halves = ((lo, centers, theta[:, :split], weights[:, :split]),
              (centers, hi, theta[:, split:], weights[:, split:]))
    for a, b, nodes, node_weights in halves:
        x, w = _reference_gauss_legendre(nodes.shape[1])
        half = 0.5 * (b - a)
        np.multiply(half, x, out=nodes)
        nodes += 0.5 * (b + a)
        np.multiply(half, w, out=node_weights)
    scale = std_dev / math.sqrt(2.0)
    density = np.subtract(theta, centers)
    np.abs(density, out=density)
    density /= -scale
    np.exp(density, out=density)
    density /= 2.0 * scale
    weights *= density
    return theta, weights


def _steering_sums(theta: np.ndarray, coeffs: np.ndarray, n_antennas: int) -> np.ndarray:
    """Rows of sum_j coeffs[:, j] z_j^m for m < ``n_antennas``, with
    z_j = exp(-j pi sin theta[:, j]): the ULA steering vectors toward the
    nodes ``theta`` weighted by real or complex ``coeffs``.

    The rows go ``_STEERING_GROUP_ROWS`` at a time. A group's phasors are
    the cos and sin of the real phase, and the powers come from a running
    product, so no (n_antennas, nodes) steering matrix is formed; power m
    carries about m roundings more than ``ula_matrix`` would. Each power's
    sum is one real product per row on the power's (nodes, 2) float view,
    with each real weight row: complex ``coeffs`` are two such rows, the
    real and the imaginary parts, whose sums combine as a + 1j b.
    """
    rows, count = theta.shape
    if np.iscomplexobj(coeffs):
        parts = np.stack([coeffs.real, coeffs.imag], axis=1)
    else:
        parts = coeffs[:, None, :]
    # pairs[r, m, k] holds the real and imaginary parts of part k's sum m
    pairs = np.empty((rows, n_antennas, parts.shape[1], 2))
    np.sum(parts, axis=2, out=pairs[:, 0, :, 0])
    pairs[:, 0, :, 1] = 0.0
    phase = np.empty((min(rows, _STEERING_GROUP_ROWS), count))
    z = np.empty(phase.shape, dtype=complex)
    power = np.empty_like(z)
    for start in range(0, rows, _STEERING_GROUP_ROWS):
        g = slice(start, min(start + _STEERING_GROUP_ROWS, rows))
        size = g.stop - start
        ph, zg, pg = phase[:size], z[:size], power[:size]
        np.sin(theta[g], out=ph)
        ph *= -math.pi
        z_pairs = zg.view(float).reshape(size, count, 2)
        np.cos(ph, out=z_pairs[..., 0])
        np.sin(ph, out=z_pairs[..., 1])
        current = zg
        for m in range(1, n_antennas):
            np.matmul(parts[g], current.view(float).reshape(size, count, 2), out=pairs[g, m])
            if m + 1 < n_antennas:
                np.multiply(current, zg, out=pg)
                current = pg
    sums = pairs.view(complex)[..., 0]
    return sums[..., 0] + 1j * sums[..., 1] if sums.shape[2] == 2 else sums[..., 0]


def laplacian_local_covariance(
    centers: np.ndarray,
    std_dev: float,
    n_antennas: int,
    quadrature_points: int = QUADRATURE_POINTS,
) -> np.ndarray:
    """Channel covariances for Laplacian angle densities around each of the
    1-D array ``centers``, as an (n, N, N) stack.

    Integrates g(theta) a(theta) a(theta)^H over the quadrature window of
    :func:`_laplacian_nodes`; the default node count converges it to near
    machine precision. The covariance of a ULA is Hermitian Toeplitz, so
    only its first column r_m = sum_j w_j z_j^m (z_j = exp(-j pi sin
    theta_j)) is integrated, and entry (a, b) is r_(a-b), or the conjugate
    of r_(b-a) above the diagonal: each matrix is exactly Hermitian and
    exactly Toeplitz. The working arrays are (n, quadrature_points), so
    callers pass a block of centers at a time.
    """
    if std_dev <= 0:
        raise InvalidArgumentError("std_dev must be positive")
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 1:
        raise InvalidArgumentError(f"centers must be a 1-D array, not of shape {centers.shape}")
    theta, weights = _laplacian_nodes(centers, std_dev, quadrature_points)
    column = _steering_sums(theta, weights, n_antennas)
    lag = np.arange(n_antennas)[:, None] - np.arange(n_antennas)[None, :]
    cov = column[:, np.abs(lag)]
    above = lag < 0
    cov[:, above] = cov[:, above].conj()
    return cov


def draw_simo_channel(covs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One circularly symmetric complex Gaussian row per covariance of the
    (n, N, N) stack ``covs``; shape (n, N).

    Row i is L_i z_i, with L_i the lower Cholesky factor of covariance i
    plus 1e-12 * trace/N on its diagonal and z the rows of one
    ``complex_standard_normal(rng, (rows, N))`` call, so a stack consumes
    the generator exactly as its rows do when drawn as stacks of one.
    Every covariance gets the jitter, so singular ones factor too and the
    factor is continuous in the covariance. An all-zero covariance draws
    zeros and consumes no normals.
    """
    covs = np.asarray(covs)
    if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
        raise InvalidArgumentError(f"covs must be an (n, N, N) stack, not of shape {covs.shape}")
    n = covs.shape[-1]
    live = covs.any(axis=(1, 2))
    kept = covs[live]
    jitter = 1e-12 * (np.trace(kept, axis1=1, axis2=2).real / n)
    try:
        factors = np.linalg.cholesky(kept + jitter[:, None, None] * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericError("covariance is not positive semidefinite") from exc
    z = complex_standard_normal(rng, (len(kept), n))
    draws = np.zeros(covs.shape[:2], dtype=complex)
    draws[live] = (factors @ z[..., None])[..., 0]
    return draws


def simo_channels(
    profile: AngleProfile,
    std_dev: float,
    n_antennas: int,
    n_samples: int,
    rng: np.random.Generator,
    quadrature_points: int = QUADRATURE_POINTS,
) -> Iterator[np.ndarray]:
    """Draw ``n_samples`` path angles from ``profile``, then one channel per
    angle from the Laplacian local covariance around it; yields the
    channels a row block (:func:`~chansbgm.utils.row_blocks`, one
    quadrature node per element) at a time, (rows, n_antennas) each.

    The angles are drawn when the first block is asked for. Each block's
    covariance stack (:func:`laplacian_local_covariance`) is drawn from
    (:func:`draw_simo_channel`) before the next block is computed, so only
    one block's (rows, quadrature_points) arrays are held. Both are looked
    up in this module when called, so the benchmark's tracer, which wraps
    them by name, times them.
    """
    angles = sample_angle(profile, rng, size=n_samples)
    for rows in row_blocks(n_samples, quadrature_points):
        covs = laplacian_local_covariance(angles[rows], std_dev, n_antennas, quadrature_points)
        yield draw_simo_channel(covs, rng)


@dataclass(frozen=True)
class OfdmScenario:
    """Parametric multipath scenario for an OFDM system, drawn within the
    bounds of the delay-Doppler grid its representation is learned on.

    Per realization: the path count is uniform on {1..max_paths}, delays
    and Dopplers are uniform on their ranges, and each path gain has
    squared magnitude exp(-delay * gain_decay_rate) with a phase uniform
    on [0, 2pi). The arguments after ``grid`` are the synth config's
    ``paths`` fields of the same names.
    """

    config: SystemConfig
    grid: DelayDopplerGrid
    max_paths: int = 8
    delay_range_s: tuple[float, float] | None = None  # default (0, delay_bound / 2)
    doppler_range_hz: tuple[float, float] | None = None  # default +-0.8 doppler_bound
    gain_decay_rate: float = 1e6

    def __post_init__(self):
        delay_bound, doppler_bound = self.grid.delay_bound, self.grid.doppler_bound
        defaults = {
            "delay_range_s": (0.0, 0.5 * delay_bound),
            "doppler_range_hz": (-0.8 * doppler_bound, 0.8 * doppler_bound),
        }
        for name, default in defaults.items():  # frozen: the ranges are settled here, once
            value = getattr(self, name)
            object.__setattr__(self, name, default if value is None else tuple(value))
        if self.config.variant != "ofdm":
            raise InvalidArgumentError("OfdmScenario requires an OFDM system config")
        if self.max_paths < 1:
            raise InvalidArgumentError("max_paths must be >= 1")
        if not self.gain_decay_rate >= 0:
            raise InvalidArgumentError("gain_decay_rate must be >= 0")
        lo, hi = delays = [float(v) for v in self.delay_range_s]
        if not 0.0 <= lo <= hi < delay_bound:
            raise InvalidArgumentError(f"delay_range_s {delays} must lie within [0, {delay_bound})")
        lo, hi = dopplers = [float(v) for v in self.doppler_range_hz]
        if not -doppler_bound <= lo <= hi <= doppler_bound:
            raise InvalidArgumentError(
                f"doppler_range_hz {dopplers} must lie within [{-doppler_bound}, {doppler_bound}]"
            )


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
    delays = rng.uniform(*scenario.delay_range_s, size=n_paths)
    dopplers = rng.uniform(*scenario.doppler_range_hz, size=n_paths)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_paths)
    amplitudes = np.exp(-0.5 * delays * scenario.gain_decay_rate)
    gains = amplitudes * np.exp(1j * phases)
    return evaluate_ofdm_channel(scenario.config, gains, dopplers, delays)


def ofdm_channels(
    scenario: OfdmScenario, n_samples: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Draw ``n_samples`` channels of ``scenario`` (:func:`draw_ofdm_channel`,
    looked up when called, as in :func:`simo_channels`), each vectorized
    (:func:`~chansbgm.dictionary.vectorize_channel`); yields them a row
    block (:func:`~chansbgm.utils.row_blocks`) at a time, (rows, channel_dim)
    each, drawn row by row in sample order."""
    dim = scenario.config.channel_dim
    for rows in row_blocks(n_samples, dim):
        block = np.empty((rows.stop - rows.start, dim), dtype=complex)
        for i in range(len(block)):
            block[i] = vectorize_channel(draw_ofdm_channel(scenario, rng))
        yield block
        del block  # not held while the next block is drawn


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
    for rows in row_blocks(n_samples, quadrature_points):
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


@dataclass
class ObservationSet:
    """Noisy compressed samples with the channel entries they observe.

    samples: (n, M) complex observations, one per row.
    noise_vars: (n,) per-sample noise variance (per complex entry).
    pilots: (M,) distinct channel-entry indices; sample entry j observes
        channel entry pilots[j] (``np.arange(N)`` observes them all).
    snr_db: (n,) the drawn per-sample SNR values, or None.
    """

    samples: np.ndarray
    noise_vars: np.ndarray
    pilots: np.ndarray
    snr_db: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        self.noise_vars = np.asarray(self.noise_vars, dtype=float)
        self.pilots = check_pilots(self.pilots)
        if self.samples.ndim != 2 or len(self.samples) == 0:
            raise InvalidArgumentError("samples must be a nonempty 2-D array (n, M)")
        if self.noise_vars.shape != (len(self.samples),):
            raise InvalidArgumentError("noise_vars must hold one value per sample")
        if not (np.all(np.isfinite(self.samples)) and np.all(np.isfinite(self.noise_vars))):
            raise InvalidArgumentError("samples and noise_vars must be finite")
        if np.any(self.noise_vars <= 0):
            raise InvalidArgumentError("noise variances must be positive")
        if self.samples.shape[1] != len(self.pilots):
            raise InvalidArgumentError("sample length must match the pilot count")
        if self.snr_db is not None:
            self.snr_db = np.asarray(self.snr_db, dtype=float)
            if self.snr_db.shape != (len(self),) or not np.isfinite(self.snr_db).all():
                raise InvalidArgumentError("snr_db must hold one finite value per sample")

    def __len__(self) -> int:
        return len(self.samples)


def row_energies(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a 2-D array, squared in place: the
    bytes of ``np.sum(np.abs(rows) ** 2, axis=1)``."""
    power = np.abs(rows)
    power *= power
    return np.sum(power, axis=1)


def make_observations(
    compressed: np.ndarray,
    pilots: np.ndarray,
    snr_range_db: tuple[float, float],
    rng: np.random.Generator,
) -> ObservationSet:
    """Add per-sample noise to ``compressed``, the (n, M) channel entries
    at ``pilots`` (row i is A h_i, ``h_i[pilots]``).

    The per-sample noise variance is
    signal_energy / (M * 10^(SNR_i/10)) with SNR_i uniform on the given
    dB range and signal_energy the dataset mean of ||A h||^2. The noise
    is scaled in place and the entries are added into it.
    """
    # C order, whatever the caller's layout: the row sums below then round
    # as over the rows of a matrix product
    compressed = np.ascontiguousarray(compressed, dtype=complex)
    if compressed.ndim != 2 or len(compressed) == 0:
        raise InvalidArgumentError("compressed channels must be a nonempty (n, M) array")
    lo, hi = snr_range_db
    if lo > hi:
        raise InvalidArgumentError("snr_range_db must satisfy lo <= hi")
    pilots = check_pilots(pilots)
    if compressed.shape[1] != len(pilots):
        raise InvalidArgumentError("compressed channels need one column per pilot")
    signal_energy = float(np.mean(row_energies(compressed)))
    if signal_energy <= 0:
        raise InvalidArgumentError("channel set carries no energy at the pilots")
    m = len(pilots)
    snr_db = rng.uniform(lo, hi, size=len(compressed))
    noise_vars = signal_energy / (m * 10.0 ** (0.1 * snr_db))
    samples = complex_standard_normal(rng, (len(compressed), m))
    samples *= np.sqrt(noise_vars)[:, None]
    samples += compressed
    return ObservationSet(samples=samples, noise_vars=noise_vars, pilots=pilots, snr_db=snr_db)


def normalization_scale(energies: np.ndarray, n_entries: int) -> float:
    """The factor that scales channels of squared norms ``energies`` (one
    per channel, see :func:`row_energies`) to a mean squared norm of
    ``n_entries``, the channel dimension."""
    mean_energy = float(np.mean(energies))
    if mean_energy == 0.0:
        raise InvalidArgumentError("cannot normalize an all-zero dataset")
    return math.sqrt(n_entries / mean_energy)
