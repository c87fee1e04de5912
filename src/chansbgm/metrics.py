"""Evaluation quantities for generated coefficient vectors and channels.

The metrics stage reads a batch's coefficients once, a row block at a
time, in one loop: :func:`power_angular_profile` keeps the running power
profile and the per-sample angular spreads. The channel pass scores each
block of paired channels with :func:`sample_nmse` and
:func:`sample_cosines`; :func:`nmse` and :func:`cosine_similarity` are
their means over whole arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .dictionary import AngleGrid
from .errors import InvalidArgumentError
from .utils import row_blocks

# edges of the 64 even bins of angular spread (radians) in every spread histogram
SPREAD_HIST_EDGES = np.linspace(0.0, math.pi / 2, 65)
SPREAD_HIST_EDGES.flags.writeable = False


def _row_powers(power: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``power`` checked, its row sums (the samples' squared norms) and
    which of them are nonzero."""
    power = np.asarray(power)
    if np.iscomplexobj(power):
        raise InvalidArgumentError("pass the powers |s|**2, not the coefficients s")
    norms = power.sum(axis=1)
    _check_finite(norms, "coefficient")
    return power, norms, norms > 0


def _check_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN or infinite per-sample values: a row sum or ratio is
    finite unless a stored value is not (or its square overflows)."""
    if not np.isfinite(values).all():
        raise InvalidArgumentError(f"{what} values must be finite")


def power_angular_profile(vectors, grid: AngleGrid | None = None):
    """Mean normalized per-gridpoint power, the skipped-sample count and,
    on an angle ``grid``, the per-sample angular spreads (else None).

    Each sample contributes |s_q|^2 / ||s||^2; samples with zero norm are
    skipped (the ratio is undefined for them). ``vectors`` is an (n, S)
    array or :class:`~chansbgm.container.ArrayReader`, read a row block at
    a time. The running total leads each block's normalized rows in one
    sum over the first axis, which continues numpy's row-by-row order, so
    the block size does not change the result.
    """
    if len(vectors.shape) != 2 or len(vectors) == 0:
        raise InvalidArgumentError("vectors must be a nonempty (n, S) array")
    total, n_kept, spreads = np.zeros(vectors.shape[1]), 0, []
    for rows in row_blocks(len(vectors), vectors.shape[1]):
        power = np.abs(vectors[rows])  # the block itself is not kept
        power *= power  # the bits of np.abs(block) ** 2
        _, norms, keep = _row_powers(power)
        kept, norms = (power, norms) if keep.all() else (power[keep], norms[keep])
        summed = np.empty((len(kept) + 1, len(total)))
        summed[0] = total
        np.divide(kept, norms[:, None], out=summed[1:])
        total = summed.sum(axis=0)
        n_kept += len(kept)
        del kept, norms, summed  # freed before the spreads and the next block
        if grid is not None:
            spreads.append(batch_angular_spreads(power, grid)[0])
    if n_kept == 0:
        raise InvalidArgumentError("all samples have zero norm")
    return total / n_kept, len(vectors) - n_kept, np.concatenate(spreads) if spreads else None


def angular_spread(s: np.ndarray, grid: AngleGrid) -> float:
    """Power-weighted standard deviation of the grid angles of one vector."""
    s = np.asarray(s)
    power = np.abs(s) ** 2
    total = power.sum()
    if total == 0:
        raise InvalidArgumentError("angular spread is undefined for a zero vector")
    angles = grid.points
    if len(angles) != len(s):
        raise InvalidArgumentError("vector length must match the grid size")
    mean = np.sum(angles * power) / total
    return float(math.sqrt(np.sum((angles - mean) ** 2 * power) / total))


def batch_angular_spreads(power: np.ndarray, grid: AngleGrid) -> tuple[np.ndarray, int]:
    """Angular spread per sample, from the samples' powers ``np.abs(s) ** 2``
    as the rows of ``power``; zero-norm samples are skipped and counted."""
    power, totals, keep = _row_powers(power)
    n_skipped = int(np.sum(~keep))
    angles = grid.points
    # the product runs over every row, so which rows are kept cannot move
    # the others within the kernel's row groups
    weighted = power @ angles
    if n_skipped:
        power, totals, weighted = power[keep], totals[keep], weighted[keep]
    # (angle - mean)**2 * power, formed in one (n, S) array
    deviations = angles[None, :] - (weighted / totals)[:, None]
    deviations *= deviations
    deviations *= power
    spreads = np.sqrt(deviations.sum(axis=1) / totals)
    return spreads, n_skipped


def _paired(estimates: np.ndarray, truths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    estimates = np.asarray(estimates)
    truths = np.asarray(truths)
    if estimates.shape != truths.shape or estimates.ndim != 2 or len(estimates) == 0:
        raise InvalidArgumentError("estimates and truths must be equal-shape (n, N) arrays")
    return estimates, truths


def sample_nmse(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Per-sample ||estimate - truth||^2 / dimension."""
    power = np.abs(estimates - truths)
    power *= power  # the bits of np.abs(estimates - truths) ** 2
    errors = np.sum(power, axis=1) / estimates.shape[1]
    _check_finite(errors, "channel")
    return errors


def sample_cosines(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Per-sample absolute normalized inner product; 1 for collinear pairs."""
    products = np.conj(estimates).astype(np.result_type(estimates, truths), copy=False)
    products *= truths  # the bits of estimates.conj() * truths
    num = np.abs(np.sum(products, axis=1))
    del products
    den = np.linalg.norm(estimates, axis=1) * np.linalg.norm(truths, axis=1)
    if np.any(den == 0):
        raise InvalidArgumentError("cosine similarity is undefined for zero vectors")
    cosines = num / den
    _check_finite(cosines, "channel")
    return cosines


def nmse(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Mean over samples of ||estimate - truth||^2 / dimension."""
    return float(np.mean(sample_nmse(*_paired(estimates, truths))))


def cosine_similarity(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Mean absolute normalized inner product; 1 for collinear pairs."""
    return float(np.mean(sample_cosines(*_paired(estimates, truths))))


def spread_histogram(values: np.ndarray) -> np.ndarray:
    """Share of ``values`` in each bin of ``SPREAD_HIST_EDGES``.

    Values are clipped into the bin range so every value carries mass.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InvalidArgumentError("a spread histogram needs at least one value")
    edges = SPREAD_HIST_EDGES
    counts, _ = np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)
    return counts / counts.sum()


def histogram_w1(p: np.ndarray, q: np.ndarray) -> float:
    """1-Wasserstein distance between two :func:`spread_histogram` results;
    zero exactly when the two histograms coincide.
    """
    centers = 0.5 * (SPREAD_HIST_EDGES[:-1] + SPREAD_HIST_EDGES[1:])
    gaps = np.diff(centers)
    cdf_diff = np.cumsum(p - q)[:-1]
    return float(np.sum(np.abs(cdf_diff) * gaps))


def profile_support_leakage(profile: np.ndarray, support_mask: np.ndarray) -> float:
    """Total profile mass falling outside the support mask."""
    profile = np.asarray(profile, dtype=float)
    support_mask = np.asarray(support_mask, dtype=bool)
    if profile.shape != support_mask.shape:
        raise InvalidArgumentError("mask length must equal the profile length")
    return float(profile[~support_mask].sum())


def toeplitz_deviation(matrix: np.ndarray) -> float:
    """Largest spread (max minus min) along any diagonal of a square matrix.

    Zero for an exactly Toeplitz matrix; used to quantify how far a
    conditional channel covariance is from its stationary structure.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise InvalidArgumentError("matrix must be square")
    worst = 0.0
    for offset in range(-(n - 1), n):
        diag = np.diagonal(matrix, offset=offset)
        spread_re = float(diag.real.max() - diag.real.min())
        spread_im = float(diag.imag.max() - diag.imag.min()) if np.iscomplexobj(matrix) else 0.0
        worst = max(worst, spread_re, spread_im)
    return worst
