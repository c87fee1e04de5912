"""Mixture model on sparse coefficients, fit by expectation-maximization.

The model is a K-component zero-mean complex Gaussian mixture with
diagonal per-component covariances diag(gamma_k) on the coefficient
vector s, observed only through y = W s + n with W = A D: the rows of
the dictionary D at the observed pilots, gathered by
:meth:`ObservationSet.observed_rows`. The E-step gives every sample's
responsibilities r_ik; the M-step needs per component only the total
R_k = sum_i r_ik and the weighted posterior second moment
T_k = sum_i r_ik (|mu_ik|^2 + diag C_ik).

Because the noise variance differs per sample, the observation covariance
C_y = W diag(gamma_k) W^H + sigma_i^2 I cannot be factorized once per
component. Instead the sigma-independent part is factorized once per
component per iteration, as U diag(lam) U^H from the SVD of
(W diag(sqrt(gamma_k)))^H, taken through its triangular QR factor. Unlike
an eigendecomposition of the formed product, the SVD keeps lam >= 0 and
accurate when gamma spans many decades. Shifting lam by sigma_i^2 then gives every per-sample inverse,
log-determinant and quadratic form through a few dense products.

T_k never needs the per-sample S-vectors. With z_i = U^H y_i /
(lam + sigma_i^2), G = W^H U and Q_k = sum_i r_ik z_i z_i^H (M x M),

    sum_i r_ik |mu_ik|^2   = gamma_k^2 * Re diag(G Q_k G^H),
    sum_i r_ik diag C_ik   = R_k gamma_k - gamma_k^2 * (|G|^2 v_k),

with v_k = sum_i r_ik / (lam + sigma_i^2). That costs O(n M^2 + S M^2)
per component instead of O(n M S). :func:`csgmm_e_step` keeps the
per-sample statistics as the reference: the tests check it against the
per-sample Cholesky route in :mod:`chansbgm.posterior`, and the sums
against it. One M-step core serves the fit loop, :func:`csgmm_m_step`
and :func:`kronecker_m_step`.

Setting K = 1 recovers multiple-measurement-vector sparse Bayesian
learning; the CLI exposes it under the name ``msbl``.

The coefficient variances may optionally be constrained to a Kronecker
product gamma_k = gamma_t_k kron gamma_f_k (Doppler factor times delay
factor), which has no closed-form M-step; coordinate updates with
closed-form half-steps are used instead. ``_FORMS`` states each form's
stored arrays once; the model, its hash, ``save_model`` and ``load_model``
all read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import read_array, read_json, write_array, write_json
from .dictionary import DelayDopplerGrid, Dictionary
from .errors import InvalidArgumentError, NumericError
from .scenario import ObservationSet
from .utils import check_tagged_document, content_id

GAMMA_FLOOR = 1e-7

_DEAD_RESPONSIBILITY = 1e-300

FULL = "full"
KRONECKER = "kronecker"

# the arrays each variance form stores, in expansion and hash order: the
# SbgmModel attribute (also the file stem), its role, its model.json size key
_FORMS = {
    FULL: (("variances", "component-variances", "n_coefficients"),),
    KRONECKER: (
        ("doppler_variances", "doppler-variances", "doppler_size"),
        ("delay_variances", "delay-variances", "delay_size"),
    ),
}
# the model.json fields load_model checks, per variance form
_MODEL_FIELDS = {
    form: {"kind": "string", "n_components": "integer", "clip_floor": "number",
           "model_id": "string", **{key: "integer" for _, _, key in layout}}
    for form, layout in _FORMS.items()
}


@dataclass
class SbgmModel:
    """Mixture weights plus per-component diagonal coefficient variances.

    ``variances`` holds (K, S) for the full form; the Kronecker form
    stores (K, S_t) and (K, S_f) factors that expand to
    ``kron(doppler, delay)`` rows.
    """

    weights: np.ndarray
    variance_form: str = FULL
    variances: np.ndarray | None = None
    doppler_variances: np.ndarray | None = None
    delay_variances: np.ndarray | None = None
    clip_floor: float = GAMMA_FLOOR

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or len(self.weights) < 1:
            raise InvalidArgumentError("weights must be a nonempty vector")
        w = self.weights
        if not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError("weights must be finite, nonnegative and sum to 1")
        if self.variance_form not in _FORMS:
            raise InvalidArgumentError(f"unknown variance form {self.variance_form!r}")
        for name, _, _ in _FORMS[self.variance_form]:
            factor = np.asarray(getattr(self, name), dtype=float)  # None becomes a 0-d nan
            if factor.ndim != 2 or len(factor) != len(w):
                raise InvalidArgumentError(f"{name} needs one row per component")
            if not np.all(np.isfinite(factor)) or np.any(factor < 0):
                raise InvalidArgumentError(f"{name} must be finite and nonnegative")
            setattr(self, name, factor)

    @property
    def factors(self) -> tuple[np.ndarray, ...]:
        """The stored variance arrays of the form, in ``_FORMS`` order."""
        return tuple(getattr(self, name) for name, _, _ in _FORMS[self.variance_form])

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def n_coefficients(self) -> int:
        return math.prod(factor.shape[1] for factor in self.factors)

    def component_variances(self, k: int) -> np.ndarray:
        return functools.reduce(np.kron, [factor[k] for factor in self.factors])

    def expanded_variances(self) -> np.ndarray:
        return np.stack([self.component_variances(k) for k in range(self.n_components)])

    @property
    def content_id(self) -> str:
        return content_id(self.weights.tobytes(), *(f.tobytes() for f in self.factors))


@dataclass
class EmTrace:
    """Per-iteration total log-likelihood of the training data."""

    log_likelihoods: np.ndarray
    converged: bool
    n_iterations: int

    def is_monotone(self, rel_slack: float = 1e-8) -> bool:
        ll = self.log_likelihoods
        if len(ll) < 2:
            return True
        floor = ll[:-1] - rel_slack * np.abs(ll[:-1])
        return bool(np.all(ll[1:] >= floor))


class _ComponentCache:
    """Factorization W diag(gamma) W^H = U diag(lam) U^H, reused across all samples.

    Every per-sample covariance is U diag(lam + sigma_i^2) U^H, so inverses
    and determinants reduce to the shifted values. :meth:`log_marginals`
    keeps the projections U^H y_i and the shifts it computes; the moment
    methods read them.
    """

    def __init__(self, gamma: np.ndarray, w: np.ndarray):
        self.gamma = gamma
        # the SVD of the triangular factor has the same singular values and
        # right basis, and its full basis spans C^M even when S < M
        r = np.linalg.qr((w * np.sqrt(gamma)[None, :]).conj().T, mode="r")
        _, sv, vh = np.linalg.svd(r)
        self.u = vh.conj().T
        self.lam = np.zeros(w.shape[0])
        self.lam[: len(sv)] = sv**2
        self.g = w.conj().T @ self.u  # (S, M)

    def log_marginals(self, samples: np.ndarray, sigma2s: np.ndarray) -> np.ndarray:
        m = samples.shape[1]
        self.yt = samples @ self.u.conj()
        self.denom = self.lam[None, :] + sigma2s[:, None]
        quad = np.sum(np.abs(self.yt) ** 2 / self.denom, axis=1)
        return -m * math.log(math.pi) - np.sum(np.log(self.denom), axis=1) - quad

    def moment_stats(self) -> np.ndarray:
        """Per-sample |mu|^2 + diag(C) as an (n, S) array."""
        gamma = self.gamma[None, :]
        mu = (self.yt / self.denom) @ self.g.T * gamma
        quad = (1.0 / self.denom) @ (np.abs(self.g) ** 2).T
        cov_diag = np.clip(gamma - gamma**2 * quad, 0.0, gamma)
        return np.abs(mu) ** 2 + cov_diag

    def moment_sum(self, r: np.ndarray) -> np.ndarray:
        """sum_i r_i (|mu_i|^2 + diag C_i), shape (S,), from M x M statistics."""
        gamma = self.gamma
        z = self.yt / self.denom
        q = (z.T * r) @ z.conj()
        mu2 = np.sum((self.g @ q) * self.g.conj(), axis=1).real
        total = r.sum()
        cov = total * gamma - gamma**2 * ((np.abs(self.g) ** 2) @ (r @ (1.0 / self.denom)))
        return gamma**2 * mu2 + np.clip(cov, 0.0, total * gamma)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(weights, _DEAD_RESPONSIBILITY))


def _log_sum_exp(a: np.ndarray) -> np.ndarray:
    """log sum_k exp(a_ik) per row of ``a``.

    The row maximum and its ties are taken out of the sum, which then adds
    only terms below 1 and enters through log1p; this keeps full relative
    precision when one component dominates a sample.
    """
    top = a.max(axis=1, keepdims=True)
    ties = a == top
    m = ties.sum(axis=1, keepdims=True).astype(float)
    rest = np.exp(np.where(ties, -np.inf, a - top)).sum(axis=1, keepdims=True)
    return (np.log1p(rest / m) + np.log(m) + top)[:, 0]


def _e_step(
    model: SbgmModel, w: np.ndarray, obs: ObservationSet
) -> tuple[list[_ComponentCache], np.ndarray, np.ndarray]:
    """Per-component caches, responsibilities (n, K) normalized in the log
    domain, and per-sample log-likelihoods (n,)."""
    caches = [_ComponentCache(model.component_variances(k), w) for k in range(model.n_components)]
    log_post = np.column_stack(
        [c.log_marginals(obs.samples, obs.noise_vars) for c in caches]
    ) + _log_weights(model.weights)[None, :]
    norm = _log_sum_exp(log_post)
    resp = np.exp(log_post - norm[:, None])
    resp /= resp.sum(axis=1, keepdims=True)
    return caches, resp, norm


def csgmm_e_step(
    model: SbgmModel, obs: ObservationSet, dictionary: Dictionary
) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (n, K) and posterior statistics (K, n, S).

    The statistics are the per-sample second-moment diagonals
    |mu_ik|^2 + diag(C_ik) whose weighted sums the M-step needs.
    Responsibilities are normalized in the log domain.
    """
    caches, resp, _ = _e_step(model, obs.observed_rows(dictionary.matrix), obs)
    return resp, np.stack([c.moment_stats() for c in caches])


def _component_sums(resp: np.ndarray, weighted_sum) -> tuple[np.ndarray, np.ndarray]:
    """Totals R (K,) and statistic sums T (K, S) for :func:`_m_step`.

    ``weighted_sum(k, r)`` returns sum_i r_i stat_ik for component k. A
    component whose total responsibility underflows is reinitialized from
    one badly explained sample: its row is that sample's statistic, with
    total 1. The j-th such component takes the j-th worst explained
    sample, so components that die together restart apart.
    """
    totals = resp.sum(axis=0)
    dead = totals < _DEAD_RESPONSIBILITY
    restarts = np.zeros_like(resp)
    dead_cols = np.flatnonzero(dead)
    worst_first = np.argsort(resp.max(axis=1), kind="stable")
    restarts[worst_first[np.arange(len(dead_cols)) % len(resp)], dead_cols] = 1.0
    resp = np.where(dead, restarts, resp)
    sums = np.stack([weighted_sum(k, resp[:, k]) for k in range(resp.shape[1])])
    return np.where(dead, 1.0, totals), sums


def _m_step(
    totals: np.ndarray,
    sums: np.ndarray,
    clip_floor: float,
    factors: tuple[np.ndarray, ...] = (),
    coord_iters: int = 3,
) -> SbgmModel:
    """M-step from totals R (K,) and statistic sums T (K, S).

    ``factors`` are the current model's :attr:`SbgmModel.factors`. Unless
    they are a Doppler (K, S_t) and a delay (K, S_f) factor, the update is
    the closed-form full one, gamma_k = T_k / R_k, which needs none. Given
    the two factors it runs ``coord_iters`` coordinate sweeps from them
    under gamma = gamma_t kron gamma_f instead.
    """
    weights = totals / totals.sum()
    if len(factors) != 2:
        return SbgmModel(
            weights=weights,
            variance_form=FULL,
            variances=np.maximum(sums / totals[:, None], clip_floor),
            clip_floor=clip_floor,
        )
    gt, gf = factors
    s_t, s_f = gt.shape[1], gf.shape[1]
    t = sums.reshape(len(totals), s_t, s_f)
    r = totals[:, None]
    for _ in range(coord_iters):
        gt = np.maximum(np.einsum("kij,kj->ki", t, 1.0 / gf) / (s_f * r), clip_floor)
        gf = np.maximum(np.einsum("ki,kij->kj", 1.0 / gt, t) / (s_t * r), clip_floor)
    return SbgmModel(
        weights=weights,
        variance_form=KRONECKER,
        doppler_variances=gt,
        delay_variances=gf,
        clip_floor=clip_floor,
    )


def _sample_sums(resp: np.ndarray, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    stats = np.asarray(stats, dtype=float)
    return _component_sums(np.asarray(resp, dtype=float), lambda k, r: r @ stats[k])


def csgmm_m_step(
    resp: np.ndarray, stats: np.ndarray, clip_floor: float = GAMMA_FLOOR
) -> SbgmModel:
    """Closed-form update: weighted means of the posterior statistics.

    A component whose total responsibility underflows is reinitialized
    from a badly explained sample (see :func:`_component_sums`).
    """
    return _m_step(*_sample_sums(resp, stats), clip_floor)


def kronecker_q_objective(
    resp: np.ndarray,
    stats: np.ndarray,
    weights: np.ndarray,
    doppler_factors: np.ndarray,
    delay_factors: np.ndarray,
) -> float:
    """Expected complete-data log-likelihood under Kronecker variances.

    Used to verify that the coordinate updates never decrease the
    objective they maximize.
    """
    n, k = resp.shape
    s_t = doppler_factors.shape[1]
    s_f = delay_factors.shape[1]
    s = s_t * s_f
    total = 0.0
    log_w = _log_weights(np.asarray(weights, dtype=float))
    for j in range(k):
        r_j = resp[:, j].sum()
        t_j = (resp[:, j] @ stats[j]).reshape(s_t, s_f)
        gt = doppler_factors[j]
        gf = delay_factors[j]
        total += (
            -r_j * s * math.log(math.pi)
            - r_j * s_f * float(np.sum(np.log(gt)))
            - r_j * s_t * float(np.sum(np.log(gf)))
            - float(np.sum(t_j / np.outer(gt, gf)))
            + r_j * log_w[j]
        )
    return total


def kronecker_m_step(
    resp: np.ndarray,
    stats: np.ndarray,
    doppler_size: int,
    delay_size: int,
    coord_iters: int = 3,
    clip_floor: float = GAMMA_FLOOR,
    init_doppler: np.ndarray | None = None,
    init_delay: np.ndarray | None = None,
) -> SbgmModel:
    """Coordinate-search M-step under gamma = gamma_t kron gamma_f.

    Each sweep updates the Doppler factor given the delay factor and then
    vice versa; both half-steps are constrained global maximizers over
    [clip_floor, inf), so the objective of
    :func:`kronecker_q_objective` never decreases. Pass the previous
    factors as init to warm-start inside an EM loop (required for EM-level
    monotonicity); the default all-ones init recovers exactly Kronecker
    statistics in a single sweep.
    """
    k = np.shape(resp)[1]
    if np.shape(stats)[2] != doppler_size * delay_size:
        raise InvalidArgumentError("stats length must equal doppler_size * delay_size")
    factors = (
        np.ones((k, doppler_size)) if init_doppler is None else np.asarray(init_doppler, float),
        np.ones((k, delay_size)) if init_delay is None else np.asarray(init_delay, float),
    )
    return _m_step(*_sample_sums(resp, stats), clip_floor, factors, coord_iters)


def total_log_likelihood(
    model: SbgmModel, obs: ObservationSet, dictionary: Dictionary
) -> float:
    """Sum over samples of log sum_k rho_k CN(y_i; 0, C_ik)."""
    _, _, norm = _e_step(model, obs.observed_rows(dictionary.matrix), obs)
    return float(np.sum(norm))


def _init_variances(
    obs: ObservationSet,
    w: np.ndarray,
    n_components: int,
    rng: np.random.Generator,
    clip_floor: float,
) -> np.ndarray:
    """Seeded starting variances, shape (K, S).

    Each component is anchored on the matched-filter power spectrum of
    one randomly chosen observation, sharpened (4th power, rescaled to
    keep the total energy) so that it starts on the dominant peaks of that
    sample. Starting narrow is cheap: EM grows variances multiplicatively
    fast where the data demand it, while shrinking an overly wide
    component takes many iterations.
    """
    n = len(obs)
    n_coef = w.shape[1]
    scale = float(np.mean(np.abs(obs.samples) ** 2))
    col_norm2 = np.sum(np.abs(w) ** 2, axis=0)
    picks = rng.choice(n, size=min(n_components, n), replace=False)
    gammas = np.empty((n_components, n_coef))
    for k in range(n_components):
        y = obs.samples[picks[k % len(picks)]]
        spectrum = np.abs(w.conj().T @ y) ** 2 / col_norm2**2
        total = spectrum.sum()
        if total == 0.0:
            gammas[k] = scale
            continue
        sharp = spectrum**4
        gammas[k] = sharp * (total / sharp.sum())
    return np.maximum(gammas, clip_floor)


def csgmm_fit(
    obs: ObservationSet,
    dictionary: Dictionary,
    n_components: int,
    *,
    variance_form: str = FULL,
    max_iters: int = 500,
    rel_tol: float = 1e-6,
    seed: int = 0,
    clip_floor: float = GAMMA_FLOOR,
    kron_sweeps: int = 3,
) -> tuple[SbgmModel, EmTrace]:
    """Fit the mixture by EM until the relative log-likelihood change
    drops below ``rel_tol`` or ``max_iters`` is reached.

    Initialization is seeded and data-driven (see
    :func:`_init_variances`); weights start uniform. ``n_components=1``
    is the sparse Bayesian learning special case. The returned trace
    holds one log-likelihood per E-step and is non-decreasing up to
    round-off; its last entry scores the returned model.
    """
    if n_components < 1:
        raise InvalidArgumentError("n_components must be >= 1")
    if max_iters < 1 or kron_sweeps < 1:
        raise InvalidArgumentError("max_iters and kron_sweeps must be >= 1")
    if not (rel_tol > 0 and clip_floor > 0):
        raise InvalidArgumentError("rel_tol and clip_floor must be > 0")
    w = obs.observed_rows(dictionary.matrix)
    rng = np.random.default_rng(seed)

    init_gammas = _init_variances(obs, w, n_components, rng, clip_floor)
    if variance_form == KRONECKER:
        if not isinstance(dictionary.grid, DelayDopplerGrid):
            raise InvalidArgumentError("kronecker variances need a delay-Doppler dictionary")
        # nearest Kronecker factors of the init: row/column energy profiles
        grid = dictionary.grid
        tables = init_gammas.reshape(n_components, grid.doppler_size, grid.delay_size)
        scale = np.maximum(init_gammas.mean(axis=1), clip_floor)[:, None]
        factors = {
            "doppler_variances": np.maximum(tables.mean(axis=2), clip_floor),
            "delay_variances": np.maximum(tables.mean(axis=1) / scale, clip_floor),
        }
    else:  # SbgmModel rejects an unknown variance form
        factors = {"variances": init_gammas}
    weights = np.full(n_components, 1.0 / n_components)
    model = SbgmModel(weights, variance_form, clip_floor=clip_floor, **factors)

    logliks: list[float] = []
    converged = False
    for iteration in range(max_iters):
        try:
            caches, resp, norm = _e_step(model, w, obs)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"EM iteration {iteration} failed: {exc}") from exc
        loglik = float(np.sum(norm))
        logliks.append(loglik)
        if len(logliks) >= 2:
            prev = logliks[-2]
            if abs(loglik - prev) <= rel_tol * max(abs(prev), 1e-12):
                converged = True
                break
        if iteration == max_iters - 1:
            break  # return the model the last log-likelihood scored
        totals, sums = _component_sums(resp, lambda k, r: caches[k].moment_sum(r))
        model = _m_step(totals, sums, clip_floor, model.factors, kron_sweeps)

    trace = EmTrace(
        log_likelihoods=np.array(logliks), converged=converged, n_iterations=len(logliks)
    )
    return model, trace


def msbl_fit(obs: ObservationSet, dictionary: Dictionary, **options) -> tuple[SbgmModel, EmTrace]:
    """Sparse Bayesian learning fit: the single-component mixture."""
    return csgmm_fit(obs, dictionary, 1, **options)


def _describe(model: SbgmModel) -> dict:
    """The ``model.json`` fields that describe ``model``'s arrays."""
    return {
        "kind": "sbgm-model",
        "n_components": model.n_components,
        "variance_form": model.variance_form,
        "clip_floor": model.clip_floor,
        "model_id": model.content_id,
        **{key: f.shape[1] for (_, _, key), f in zip(_FORMS[model.variance_form], model.factors)},
    }


def save_model(model: SbgmModel, directory: str | Path, extra_meta: dict | None = None) -> None:
    """Write ``model.json`` plus raw arrays for weights and variances."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_array(directory / "weights", model.weights, role="mixture-weights")
    for (stem, role, _), factor in zip(_FORMS[model.variance_form], model.factors):
        write_array(directory / stem, factor, role=role)
    write_json(directory / "model.json", {**_describe(model), **(extra_meta or {})})


def load_model(directory: str | Path) -> tuple[SbgmModel, dict]:
    """Read a model directory; returns (model, ``model.json``). The fields
    of :func:`_describe` must be present and describe the arrays read."""
    path = Path(directory) / "model.json"
    meta = read_json(path)
    keys = {"variance_form"}.union(*_MODEL_FIELDS.values())
    doc = {key: value for key, value in meta.items() if key in keys}  # the rest is the caller's
    header = check_tagged_document(doc, "variance_form", _MODEL_FIELDS, f"model document {path}")
    form = header["variance_form"]
    factors = {stem: read_array(path.parent / stem)[0] for stem, _, _ in _FORMS[form]}
    weights, _ = read_array(path.parent / "weights")
    model = SbgmModel(weights, form, clip_floor=header["clip_floor"], **factors)
    wrong = sorted(key for key, value in _describe(model).items() if header[key] != value)
    if wrong:
        raise InvalidArgumentError(f"{path} does not describe its arrays: {wrong} differ")
    return model, meta
