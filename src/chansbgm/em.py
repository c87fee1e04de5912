"""Mixture model on sparse coefficients, fit by EM with a fixed-point
variance update.

The model is a K-component zero-mean complex Gaussian mixture with
diagonal per-component covariances diag(gamma_k) on the coefficient
vector s, observed only through y = W s + n with W = A D: the rows of
the dictionary D at the observed pilots, gathered from the dictionary's
factors by :meth:`Dictionary.rows`. The E-step gives every sample's
responsibilities r_ik; the M-step needs per component only the total
R_k = sum_i r_ik and the weighted posterior second moment
T_k = sum_i r_ik (|mu_ik|^2 + diag C_ik).

Because the noise variance differs per sample, the observation covariance
C_y = W diag(gamma_k) W^H + sigma_i^2 I cannot be factorized once per
component. Instead the sigma-independent part is factorized once per
component per scored model, as U diag(lam) U^H from the SVD of
(W diag(sqrt(gamma_k)))^H, taken through its triangular QR factor. Unlike
an eigendecomposition of the formed product, the SVD keeps lam >= 0 and
accurate when gamma spans many decades. Shifting lam by sigma_i^2 then gives every per-sample inverse,
log-determinant and quadratic form through a few dense products.

T_k never needs the per-sample S-vectors. With z_i = U^H y_i /
(lam + sigma_i^2), G = W^H U and Q_k = sum_i r_ik z_i z_i^H (M x M),

    A_k = sum_i r_ik |mu_ik|^2              = gamma_k^2 * Re diag(G Q_k G^H),
    B_k = sum_i r_ik diag(W^H C_ik^-1 W)   = |G|^2 v_k,
    sum_i r_ik diag C_ik                   = R_k gamma_k - gamma_k^2 * B_k,

with v_k = sum_i r_ik / (lam + sigma_i^2), and T_k = A_k + R_k gamma_k -
gamma_k^2 B_k. That costs O(n M^2 + S M^2) per component instead of
O(n M S). :func:`csgmm_e_step` keeps the per-sample statistics as the
reference: the tests check it against the per-sample Cholesky route in
:mod:`chansbgm.posterior`, and the sums against it.

The fit's variance update is MacKay's fixed point, gamma_k <- A_k /
(gamma_k B_k): the log-likelihood's gradient in gamma_k is A_k / gamma_k^2
- B_k, so both it and the EM update T_k / R_k stop where that gradient
vanishes, but the fixed point moves a poorly determined variance, whose
posterior variance stays near gamma, far faster. It does not guarantee
ascent, so the EM update is its safeguard. One iteration is written once,
in :func:`_em_steps`: one loop scores the fixed-point candidate and, if it
is rejected, the EM update, and yields the accepted model with its
log-likelihood and whether it is EM's. A fit is a driver over it, and
:func:`csgmm_fit` is the init plus a loop with the stop rule. The EM
M-step core also serves :func:`csgmm_m_step` and :func:`kronecker_m_step`.

A fit's memory does not grow with n beyond a few numbers per sample. Each
scored candidate is one pass (:func:`_scored`) that factorizes every
component once and walks the samples in row blocks, two at a time: the
calling thread scores one block while a helper thread scores another
(:func:`_block_total`), and the blocks' partial sums are added in block
order, so the bytes are those of a walk on one thread. Only one block's
K projections and shifts, :data:`_FIT_BLOCK_ELEMENTS` elements of 24
bytes, are alive per thread. :func:`csgmm_e_step` takes all samples as
one block.

Setting K = 1 recovers multiple-measurement-vector sparse Bayesian
learning; the CLI exposes it under the name ``msbl``.

The coefficient variances may optionally be constrained to a Kronecker
product gamma_k = gamma_t_k kron gamma_f_k (Doppler factor times delay
factor), which has no closed-form M-step; coordinate updates with
closed-form half-steps are used instead, and the fixed point takes one
multiplicative sweep over the two factors. ``_FORMS`` states each form's
stored arrays once; the model, its hash, ``save_model`` and ``load_model``
all read it, and :meth:`SbgmModel.from_factors` is the one constructor
that names them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

import numpy as np

from .container import read_array, read_json, write_array, write_json
from .dictionary import AngleGrid, DelayDopplerGrid, Dictionary, kron_rows
from .errors import InvalidArgumentError, NumericError
from .utils import aligned_blocks, check_tagged_document, side_by_side

if TYPE_CHECKING:  # annotations only: a model loads without the scenarios
    from .scenario import ObservationSet

T = TypeVar("T")

GAMMA_FLOOR = 1e-7

# coordinate sweeps per Kronecker M-step
KRON_SWEEPS = 3

_DEAD_RESPONSIBILITY = 1e-300

# one row block of the fit holds this many elements of the K (rows, M)
# projections, rows aligned to ROW_ALIGN; of 2**14 to 2**17, 2**15 timed fastest
_FIT_BLOCK_ELEMENTS = 1 << 15
# a pass's blocks are scored in chunks of at most this many, half of each on a
# helper thread whose partial sums wait for the join, so these bound them
_CHUNK_BLOCKS = 16

# a log-likelihood may fall by this fraction of its size and still count as monotone
_MONOTONE_REL_SLACK = 1e-8

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

    @classmethod
    def from_factors(
        cls, weights: np.ndarray, form: str, factors: tuple, clip_floor: float = GAMMA_FLOOR
    ) -> SbgmModel:
        """The model of ``form`` whose stored variance arrays are ``factors``,
        in ``_FORMS`` order: the inverse of :attr:`factors`."""
        names = (name for name, _, _ in _FORMS[form])
        return cls(weights, form, clip_floor=clip_floor, **dict(zip(names, factors)))

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

    def expanded_variances(self) -> np.ndarray:
        """The (K, S) coefficient variances: row k is gamma_k, for the
        Kronecker form ``kron_rows`` of the factors' rows k (for the full
        form, ``variances`` itself)."""
        return functools.reduce(kron_rows, self.factors)

    @property
    def content_id(self) -> str:
        """SHA-256 of the weights' bytes and the factors', 12 hex digits."""
        chunks = [self.weights.tobytes(), *(f.tobytes() for f in self.factors)]
        return hashlib.sha256(b"".join(chunks)).hexdigest()[:12]

    def check_grid(self, grid: AngleGrid | DelayDopplerGrid) -> None:
        """Reject a grid whose points are not this model's coefficients: one
        point per coefficient, and for the Kronecker form a delay-Doppler
        grid of the factors' sizes."""
        sizes = tuple(factor.shape[1] for factor in self.factors)
        if self.variance_form == KRONECKER and isinstance(grid, DelayDopplerGrid):
            points = (grid.doppler_size, grid.delay_size)
        else:  # a Kronecker model's two sizes never equal this one
            points = (grid.size,)
        if sizes != points:
            raise InvalidArgumentError(f"model variances of sizes {sizes} do not fit its grid")


@dataclass
class EmTrace:
    """Per-iteration total log-likelihood of the training data, and the
    number of iterations that fell back to the EM update."""

    log_likelihoods: np.ndarray
    converged: bool
    n_fallbacks: int

    @property
    def n_iterations(self) -> int:
        return len(self.log_likelihoods)

    def is_monotone(self) -> bool:
        ll = self.log_likelihoods
        floor = ll[:-1] - _MONOTONE_REL_SLACK * np.abs(ll[:-1])
        return bool(np.all(ll[1:] >= floor))


class _Components:
    """The K components' factorizations W diag(gamma_k) W^H = U_k diag(lam_k)
    U_k^H, stacked: ``uh`` holds U_k^H (K, M, M) and ``lam`` (K, M); every
    block of samples shares them. G_k = W^H U_k (S, M) is formed where it
    is used, one component at a time (:meth:`gs`)."""

    def __init__(self, gammas: np.ndarray, w: np.ndarray):
        self.gamma, self.w = gammas, w
        self.uh = np.empty((len(gammas), w.shape[0], w.shape[0]), complex)
        self.lam = np.zeros((len(gammas), w.shape[0]))
        for gamma, uh, lam in zip(gammas, self.uh, self.lam):
            # the SVD of the triangular factor has the same singular values and
            # right basis, and its full basis spans C^M even when S < M
            scaled = w * np.sqrt(gamma)[None, :]
            r = np.linalg.qr(np.conjugate(scaled, out=scaled).T, mode="r")
            _, sv, uh[...] = np.linalg.svd(r)
            lam[: len(sv)] = sv**2

    def gs(self) -> Iterator[np.ndarray]:
        """G_k = W^H U_k (S, M) for each component in turn, each the slice
        that the stacked product would give."""
        wh = self.w.conj().T
        for uh in self.uh:
            yield wh @ uh.conj().T


class _Block:
    """The components' view of a block of samples: the projections ``yt``
    = U_k^H y_i and shifts ``denom`` = lam_k + sigma_i^2, (K, rows, M) each,
    and ``log_marginals``, log CN(y_i; 0, C_ik) (K, rows)."""

    def __init__(self, components: _Components, samples: np.ndarray, sigma2s: np.ndarray):
        self.components = components
        self.yt = samples @ components.uh.transpose(0, 2, 1)
        self.denom = components.lam[:, None, :] + sigma2s[None, :, None]
        t = np.abs(self.yt)
        t *= t
        t /= self.denom
        quad = np.sum(t, axis=2)
        logdet = np.sum(np.log(self.denom, out=t), axis=2)
        self.log_marginals = -samples.shape[1] * math.log(math.pi) - logdet - quad

    def moment_stats(self) -> np.ndarray:
        """Per-sample |mu|^2 + diag(C) as a (K, rows, S) array, taken one
        component at a time: the (rows, S) temporaries are the large ones."""
        return np.stack([
            np.abs((yt / denom) @ g.T * gamma) ** 2  # |mu|^2
            + np.clip(gamma - gamma**2 * ((1.0 / denom) @ (np.abs(g) ** 2).T), 0.0, gamma)
            for gamma, g, yt, denom in zip(self.components.gamma, self.components.gs(),
                                           self.yt, self.denom)
        ])

    def moment_sums(self, resp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Q_k = sum_i r_ik z_ik z_ik^H (K, M, M), z_ik = U_k^H y_i / (lam_k
        + sigma_i^2), and v_k = sum_i r_ik / (lam_k + sigma_i^2) (K, M), over
        the block's samples weighted by their responsibilities (rows, K).

        It uses the block up: z is written over the projections, and the
        shifts, turned into their reciprocals in place, are dropped before
        the weighted copy of z is made."""
        z = np.divide(self.yt, self.denom, out=self.yt)
        v = (resp.T[:, None, :] @ np.divide(1.0, self.denom, out=self.denom))[:, 0]
        self.denom = None
        left = z * resp.T[:, :, None]
        return left.transpose(0, 2, 1) @ np.conjugate(z, out=z), v

    def responsibilities(self, log_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Responsibilities (rows, K), normalized in the log domain, and
        per-sample log-likelihoods (rows,)."""
        # row sums round by memory order; C order keeps the bytes fits were pinned with
        log_post = np.ascontiguousarray(self.log_marginals.T) + log_weights
        norm = _log_sum_exp(log_post)
        resp = np.exp(log_post - norm[:, None])
        resp /= resp.sum(axis=1, keepdims=True)
        return resp, norm

    def sums(self, log_weights: np.ndarray) -> tuple[np.ndarray, list]:
        """The block's share of a pass: each sample's largest responsibility
        (rows,), and the block's log-likelihood, totals R (K,), R again
        summed per column, Q (K, M, M) and v (K, M)."""
        resp, norm = self.responsibilities(log_weights)
        # R_k summed per column too: resp.sum(axis=0) rounds differently
        columns = np.ascontiguousarray(resp.T).sum(axis=1)
        return resp.max(axis=1), [np.sum(norm), resp.sum(axis=0), columns, *self.moment_sums(resp)]


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


def csgmm_e_step(
    model: SbgmModel, obs: ObservationSet, dictionary: Dictionary
) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (n, K) and posterior statistics (K, n, S).

    The statistics are the per-sample second-moment diagonals
    |mu_ik|^2 + diag(C_ik) whose weighted sums the M-step needs.
    Responsibilities are normalized in the log domain.
    """
    components = _Components(model.expanded_variances(), dictionary.rows(obs.pilots))
    block = _Block(components, obs.samples, obs.noise_vars)
    resp, _ = block.responsibilities(_log_weights(model.weights))
    return resp, block.moment_stats()


def _restarts(totals: np.ndarray, best: np.ndarray) -> Iterator[tuple[int, int]]:
    """Each component whose total responsibility underflows, with the sample
    it restarts from, given each sample's largest responsibility ``best``: the
    j-th takes the j-th worst explained sample, so components that die together restart apart."""
    dead = np.flatnonzero(totals < _DEAD_RESPONSIBILITY)
    return zip(dead, np.argsort(best, kind="stable")[np.arange(len(dead)) % len(best)])


def _m_step(
    totals: np.ndarray,
    sums: np.ndarray,
    clip_floor: float,
    factors: tuple[np.ndarray, ...] = (),
    coord_iters: int = KRON_SWEEPS,
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
        gamma = np.maximum(sums / totals[:, None], clip_floor)
        return SbgmModel.from_factors(weights, FULL, (gamma,), clip_floor)
    gt, gf = factors
    s_t, s_f = gt.shape[1], gf.shape[1]
    t = sums.reshape(len(totals), s_t, s_f)
    r = totals[:, None]
    for _ in range(coord_iters):
        gt = np.maximum(np.einsum("kij,kj->ki", t, 1.0 / gf) / (s_f * r), clip_floor)
        gf = np.maximum(np.einsum("ki,kij->kj", 1.0 / gt, t) / (s_t * r), clip_floor)
    return SbgmModel.from_factors(weights, KRONECKER, (gt, gf), clip_floor)


def _fit_blocks(components: _Components, n: int) -> list[slice]:
    """The row blocks that a pass over ``n`` samples walks, aligned, each
    the size of a :class:`_Block` of about :data:`_FIT_BLOCK_ELEMENTS`."""
    n_components, m = components.lam.shape
    blocks = aligned_blocks(n, _FIT_BLOCK_ELEMENTS // (n_components * m))
    # freeing a mapped chunk of one block's working size raises glibc's mmap and
    # trim thresholds, so the blocks' arrays stay in the heap between blocks
    np.empty((4, n_components, blocks[0].stop, m), complex)
    return blocks


def _block_total(
    blocks: list[slice], part: Callable[[slice], T], add: Callable[[T, T], T]
) -> T:
    """The parts ``part(rows)`` of the row blocks ``blocks`` added up in block
    order: ``add(...add(add(part(b0), part(b1)), part(b2))..., part(bn))``.

    The blocks go in chunks of at most :data:`_CHUNK_BLOCKS`. The calling
    thread scores the first half of a chunk and adds each part as it comes,
    while a helper thread scores the second half (:func:`side_by_side`);
    each thread holds one block at a time, and the helper's parts are added
    once it is joined. A chunk of one block starts no thread. An exception
    in either half is raised again here, as the same object; when both
    halves raise, the first half's.
    """

    def added(total, rows_list):
        for rows in rows_list:
            one = part(rows)
            total = one if total is None else add(total, one)
        return total

    total = None
    for start in range(0, len(blocks), _CHUNK_BLOCKS):
        chunk = blocks[start : start + _CHUNK_BLOCKS]
        if len(chunk) == 1:
            total = added(total, chunk)
            continue
        half = (len(chunk) + 1) // 2
        total, theirs = side_by_side(
            lambda: added(total, chunk[:half]), lambda: [part(rows) for rows in chunk[half:]]
        )
        total = functools.reduce(add, theirs, total)
        del theirs  # not kept while the next chunk is scored
    return total


def _scored(model: SbgmModel, w: np.ndarray, obs: ObservationSet) -> tuple[float, tuple]:
    """One pass of ``model`` over the samples: its total log-likelihood, and
    the pass's sums, from which :func:`_update_terms` forms what the next
    update needs: the components, the totals R (K,), R summed per column,
    Q (K, M, M) and v (K, M) (see the module docstring).

    Each component is factorized once. The partial sums of each row block
    (:meth:`_Block.sums`) are added in block order. Dead components restart
    (:func:`_restarts`) from the one row of their sample.
    """
    components = _Components(model.expanded_variances(), w)
    log_weights = _log_weights(model.weights)
    samples, sigma2s = obs.samples, obs.noise_vars
    best = np.empty(len(samples))  # each sample's largest responsibility

    def block_sums(rows):
        # a temporary: a thread's block is freed before it projects its next
        best[rows], part = _Block(components, samples[rows], sigma2s[rows]).sums(log_weights)
        return part

    loglik, totals, r, q, v = _block_total(
        _fit_blocks(components, len(samples)),
        block_sums,
        lambda sums, part: [s + p for s, p in zip(sums, part)],
    )
    for k, i in _restarts(totals, best):
        one = _Block(components, samples[i : i + 1], sigma2s[i : i + 1])
        one_q, one_v = one.moment_sums(np.ones((1, len(totals))))
        totals[k], r[k], q[k], v[k] = 1.0, 1.0, one_q[k], one_v[k]
    return float(loglik), (components, totals, r, q, v)


def _update_terms(
    components: _Components, totals: np.ndarray, r: np.ndarray, q: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The totals R (K,), the EM sums T (K, S) and the fixed point's terms A
    and B (K, S), formed from the sums of a pass (:func:`_scored`).

    T_k's posterior variances R_k gamma_k - gamma_k^2 B_k are clipped to
    [0, R_k gamma_k].
    """
    gamma = components.gamma
    # one component at a time: G_k and the (S, M) temporaries stay small
    a, b = np.empty_like(gamma), np.empty_like(gamma)
    for g, qk, vk, ak, bk in zip(components.gs(), q, v, a, b):
        g2 = np.abs(g)
        bk[:] = np.multiply(g2, g2, out=g2) @ vk
        gq = g @ qk
        ak[:] = np.sum(np.multiply(gq, np.conjugate(g, out=g), out=gq), axis=1).real
        del g, g2, gq  # freed before the next component's G is formed
    a = gamma**2 * a
    r = r[:, None]
    return totals, a + np.clip(r * gamma - gamma**2 * b, 0.0, r * gamma), a, b


def _rescaled(x: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """x num / den clipped at the floor, and x itself where den is 0."""
    return np.maximum(np.divide(x * num, den, out=x.copy(), where=den != 0), GAMMA_FLOOR)


def _fixed_point_step(
    totals: np.ndarray, a: np.ndarray, b: np.ndarray, model: SbgmModel
) -> SbgmModel:
    """MacKay's fixed-point update of ``model`` from the terms A and B of
    :func:`_scored`; the weights take the EM update.

    With Abar = A / gamma^2, the full form sets gamma to gamma Abar / B =
    A / (gamma B), a multiplicative step along the log-likelihood's
    gradient Abar - B. The Kronecker form takes one such sweep over its
    factors, Abar and B laid out (K, S_t, S_f): t_a <- t_a sum_b f_b
    Abar_ab / sum_b f_b B_ab, then f likewise with the new t. Variances
    are clipped at :data:`GAMMA_FLOOR`.
    """
    abar = a / model.expanded_variances() ** 2
    if model.variance_form == FULL:
        factors = (_rescaled(model.variances, abar, b),)
    else:
        gt, gf = model.factors
        abar, b = (x.reshape(len(totals), gt.shape[1], gf.shape[1]) for x in (abar, b))
        gt = _rescaled(gt, np.einsum("kij,kj->ki", abar, gf), np.einsum("kij,kj->ki", b, gf))
        gf = _rescaled(gf, np.einsum("ki,kij->kj", gt, abar), np.einsum("ki,kij->kj", gt, b))
        factors = (gt, gf)
    return SbgmModel.from_factors(totals / totals.sum(), model.variance_form, factors)


def _sample_sums(resp: np.ndarray, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Totals R (K,) and sums T (K, S) of per-sample statistics (K, n, S),
    dead components restarted (:func:`_restarts`)."""
    resp, stats = np.asarray(resp, dtype=float), np.asarray(stats, dtype=float)
    totals, sums = resp.sum(axis=0), np.stack([r @ s for r, s in zip(resp.T, stats)])
    for k, i in _restarts(totals, resp.max(axis=1)):
        totals[k], sums[k] = 1.0, stats[k, i]
    return totals, sums


def csgmm_m_step(
    resp: np.ndarray, stats: np.ndarray, clip_floor: float = GAMMA_FLOOR
) -> SbgmModel:
    """Closed-form update: weighted means of the posterior statistics.

    A component whose total responsibility underflows is reinitialized
    from a badly explained sample (see :func:`_restarts`).
    """
    return _m_step(*_sample_sums(resp, stats), clip_floor)


def q_objective(resp: np.ndarray, stats: np.ndarray, model: SbgmModel) -> float:
    """Expected complete-data log-likelihood of ``model`` given
    responsibilities r (n, K) and posterior statistics (K, n, S):
    sum_k R_k (log w_k - sum_s log(pi gamma_ks)) - sum_k,s T_ks / gamma_ks,
    with R_k = sum_i r_ik and T_k = sum_i r_ik stats_ki.

    Either variance form is scored through its expanded variances; the
    tests use it to check that an M-step never lowers what it maximizes.
    """
    resp = np.asarray(resp, dtype=float)
    totals = resp.sum(axis=0)
    sums = np.einsum("ik,kis->ks", resp, np.asarray(stats, dtype=float))
    gamma = model.expanded_variances()
    per_component = _log_weights(model.weights) - np.log(math.pi * gamma).sum(axis=1)
    return float(totals @ per_component - np.sum(sums / gamma))


def kronecker_m_step(
    resp: np.ndarray,
    stats: np.ndarray,
    doppler_size: int,
    delay_size: int,
    coord_iters: int = KRON_SWEEPS,
    clip_floor: float = GAMMA_FLOOR,
    init_doppler: np.ndarray | None = None,
    init_delay: np.ndarray | None = None,
) -> SbgmModel:
    """Coordinate-search M-step under gamma = gamma_t kron gamma_f.

    Each sweep updates the Doppler factor given the delay factor and then
    vice versa; both half-steps are constrained global maximizers over
    [clip_floor, inf), so the objective of
    :func:`q_objective` never decreases. Pass the previous
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
    """Sum over samples of log sum_k rho_k CN(y_i; 0, C_ik): the total of
    the fit's pass (:func:`_scored`), which this sums alone."""
    components = _Components(model.expanded_variances(), dictionary.rows(obs.pilots))
    log_weights = _log_weights(model.weights)
    samples, sigma2s = obs.samples, obs.noise_vars

    def block_loglik(rows):
        # a temporary: a thread's block is freed before it projects its next
        _, norm = _Block(components, samples[rows], sigma2s[rows]).responsibilities(log_weights)
        return np.sum(norm)

    return float(_block_total(_fit_blocks(components, len(samples)), block_loglik, operator.add))


def _em_steps(
    model: SbgmModel, w: np.ndarray, obs: ObservationSet
) -> Iterator[tuple[float, SbgmModel, bool]]:
    """EM under a fixed-point proposal from ``model``: yields the total
    log-likelihood of ``model``, ``model`` itself and False, then the same
    for each update of it, the flag telling whether the update is EM's.

    Each update tries two candidates in turn, each scored by one pass
    (:func:`_scored`) that also sums what the next update needs; only the
    accepted one's terms are formed (:func:`_update_terms`). The
    first is :func:`_fixed_point_step`, accepted if its total is finite and
    no lower than the current one. It is rejected when lower, non-finite,
    an invalid model, or when its factorization fails; then the EM update,
    formed from the same sums, is taken instead, so the yielded
    log-likelihoods rise at least as EM's would. The EM update is always
    accepted: if it makes an invalid model or its factorization fails,
    :class:`NumericError` names the trace row it would have written, "EM
    iteration i" (``model``'s is row 0), with the cause as ``__cause__``.
    Variances are clipped at :data:`GAMMA_FLOOR`; an EM Kronecker update
    runs :data:`KRON_SWEEPS` sweeps.

    The update that makes the next item runs only when that item is asked
    for, so a driver that stops discards none.
    """
    # the candidates of one update in turn; the last is always accepted
    loglik, candidates = -math.inf, (lambda: model,)
    for row in itertools.count():
        for took_em, propose in enumerate(candidates):
            last = propose is candidates[-1]
            try:
                candidate = propose()
                candidate_loglik, sums = _scored(candidate, w, obs)
            except (InvalidArgumentError, np.linalg.LinAlgError) as exc:
                if last:
                    raise NumericError(f"EM iteration {row} failed: {exc}") from exc
                continue
            if last or math.isfinite(candidate_loglik) and candidate_loglik >= loglik:
                break
        model, loglik = candidate, candidate_loglik
        yield loglik, model, bool(took_em)
        totals, t, a, b = _update_terms(*sums)
        candidates = (
            functools.partial(_fixed_point_step, totals, a, b, model),
            functools.partial(_m_step, totals, t, GAMMA_FLOOR, model.factors),
        )


def _init_variances(
    obs: ObservationSet,
    w: np.ndarray,
    n_components: int,
    rng: np.random.Generator,
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
    col_norm2 = np.sum(np.abs(w) ** 2, axis=0)
    picks = rng.choice(n, size=min(n_components, n), replace=False)
    gammas = np.empty((n_components, n_coef))
    for k in range(n_components):
        pick = picks[k % len(picks)]
        spectrum = np.abs(w.conj().T @ obs.samples[pick]) ** 2 / col_norm2**2
        total = spectrum.sum()
        if total == 0.0:  # the data's mean power, taken only here: it reads every sample
            gammas[k] = np.mean(np.abs(obs.samples) ** 2)
            continue
        sharp = spectrum**4
        sharp_total = sharp.sum()
        if sharp_total == 0.0:
            raise NumericError(
                f"the initial model is invalid: the sharpened spectrum of sample {pick} "
                "underflows to zero"
            )
        gammas[k] = sharp * (total / sharp_total)
    return np.maximum(gammas, GAMMA_FLOOR)


def csgmm_fit(
    obs: ObservationSet,
    dictionary: Dictionary,
    n_components: int,
    *,
    variance_form: str = FULL,
    max_iters: int = 500,
    rel_tol: float = 1e-6,
    seed: int = 0,
) -> tuple[SbgmModel, EmTrace]:
    """Fit the mixture by the safeguarded fixed-point iteration of
    :func:`_em_steps` until the relative log-likelihood change drops below
    ``rel_tol`` or ``max_iters`` is reached.

    Initialization is seeded and data-driven (see
    :func:`_init_variances`); weights start uniform. ``n_components=1``
    is the sparse Bayesian learning special case. The returned trace
    holds one log-likelihood per accepted model and is non-decreasing up
    to the EM fallback's round-off; its last entry scores the returned model, and ``n_fallbacks`` counts
    the iterations that took the EM update. A failed computation raises
    :class:`NumericError`: an EM fallback whose factorization fails, an
    init whose sharpened spectrum underflows, or an init or EM M-step
    whose variances are not finite.
    """
    if n_components < 1:
        raise InvalidArgumentError("n_components must be >= 1")
    if max_iters < 1:
        raise InvalidArgumentError("max_iters must be >= 1")
    if not rel_tol > 0:
        raise InvalidArgumentError("rel_tol must be > 0")
    if variance_form not in _FORMS:
        raise InvalidArgumentError(f"unknown variance form {variance_form!r}")
    w = dictionary.rows(obs.pilots)
    rng = np.random.default_rng(seed)

    init_gammas = _init_variances(obs, w, n_components, rng)
    if variance_form == KRONECKER:
        if not isinstance(dictionary.grid, DelayDopplerGrid):
            raise InvalidArgumentError("kronecker variances need a delay-Doppler dictionary")
        # nearest Kronecker factors of the init: row/column energy profiles
        grid = dictionary.grid
        tables = init_gammas.reshape(n_components, grid.doppler_size, grid.delay_size)
        scale = np.maximum(init_gammas.mean(axis=1), GAMMA_FLOOR)[:, None]
        factors = (
            np.maximum(tables.mean(axis=2), GAMMA_FLOOR),
            np.maximum(tables.mean(axis=1) / scale, GAMMA_FLOOR),
        )
    else:
        factors = (init_gammas,)
    weights = np.full(n_components, 1.0 / n_components)
    try:
        model = SbgmModel.from_factors(weights, variance_form, factors)
    except InvalidArgumentError as exc:  # the arguments were checked: the init failed
        raise NumericError(f"the initial model is invalid: {exc}") from exc

    logliks: list[float] = []
    n_fallbacks = 0
    for loglik, model, took_em in _em_steps(model, w, obs):
        prev = logliks[-1] if logliks else None
        logliks.append(loglik)
        n_fallbacks += took_em
        converged = prev is not None and abs(loglik - prev) <= rel_tol * max(abs(prev), 1e-12)
        if converged or len(logliks) == max_iters:
            return model, EmTrace(np.array(logliks), converged, n_fallbacks)


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
    factors = tuple(read_array(path.parent / stem)[0] for stem, _, _ in _FORMS[form])
    weights, _ = read_array(path.parent / "weights")
    model = SbgmModel.from_factors(weights, form, factors, header["clip_floor"])
    wrong = sorted(key for key, value in _describe(model).items() if header[key] != value)
    if wrong:
        raise InvalidArgumentError(f"{path} does not describe its arrays: {wrong} differ")
    return model, meta
