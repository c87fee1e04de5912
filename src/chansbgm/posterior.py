"""Closed-form posterior moments of the sparse coefficient vector.

The generative chain is y = A D s + n with s ~ CN(0, diag(gamma)) and
n ~ CN(0, sigma2 I). Writing W = A D, the observation covariance is

    C_y = W diag(gamma) W^H + sigma2 I,

and the conditional distribution of s given y is Gaussian with

    mu  = diag(gamma) W^H C_y^{-1} y,
    C   = diag(gamma) - diag(gamma) W^H C_y^{-1} W diag(gamma).

All inverses are applied through the Cholesky factor of C_y by linear
solves with that factor; C_y is never inverted explicitly, nor formed:
the factor comes from a QR decomposition of its square-root form. These
per-sample routes are the reference the EM code is tested against, so
they take W as the fit holds it: the dictionary rows at the observed
pilots, ``Dictionary.rows(pilots)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError


@dataclass
class PosteriorMoments:
    """Conditional mean, covariance diagonal, and the log marginal of y."""

    mean: np.ndarray
    cov_diag: np.ndarray
    log_marginal: float
    full_cov: np.ndarray | None = None


@dataclass
class ElboBreakdown:
    """Evidence-lower-bound terms for one sample at fixed variances.

    ``combined`` is the analytically simplified value of
    ``reconstruction - posterior_kl``; the two routes agree up to
    round-off and are computed independently as a cross-check.
    """

    reconstruction: float
    encoder_kl: float
    posterior_kl: float
    combined: float


def marginal_cov_factor(gamma: np.ndarray, w: np.ndarray, sigma2: float) -> np.ndarray:
    """Cholesky factor L with L L^H = W diag(gamma) W^H + sigma2 I.

    L is R^H for the QR factor R of [diag(sqrt(gamma)) W^H; sqrt(sigma2) I],
    its rows scaled to a positive diagonal. The covariance is never formed,
    so L stays accurate when gamma spans many decades.
    """
    if sigma2 <= 0:
        raise InvalidArgumentError("sigma2 must be positive")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise InvalidArgumentError("gamma must be nonnegative")
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[1] != gamma.shape[0]:
        raise InvalidArgumentError("W must be a matrix with one column per gamma entry")
    root = np.vstack([np.sqrt(gamma)[:, None] * w.conj().T, math.sqrt(sigma2) * np.eye(len(w))])
    r = np.linalg.qr(root, mode="r")
    diag = np.diag(r)
    return (r * (diag.conj() / np.abs(diag))[:, None]).conj().T


def posterior_moments(
    gamma: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    sigma2: float,
    want_full_cov: bool = False,
) -> PosteriorMoments:
    """Conditional moments of s given one observation y.

    Returns the mean, the diagonal of the conditional covariance (the full
    matrix only when ``want_full_cov``), and log CN(y; 0, C_y) evaluated
    through the Cholesky factor.
    """
    gamma = np.asarray(gamma, dtype=float)
    y = np.asarray(y, dtype=complex)
    factor = marginal_cov_factor(gamma, w, sigma2)
    w = np.asarray(w)
    m = w.shape[0]
    if y.shape != (m,):
        raise InvalidArgumentError(f"y must have shape ({m},)")

    u = np.linalg.solve(factor, y)
    ciy = np.linalg.solve(factor.conj().T, u)
    mean = gamma * (w.conj().T @ ciy)

    v = np.linalg.solve(factor, w)
    quad = np.sum(np.abs(v) ** 2, axis=0)
    cov_diag = np.clip(gamma - gamma**2 * quad, 0.0, gamma)

    log_det = 2.0 * float(np.sum(np.log(np.diag(factor).real)))
    log_marginal = -m * math.log(math.pi) - log_det - float(np.sum(np.abs(u) ** 2))

    full_cov = None
    if want_full_cov:
        vg = v * gamma[None, :]
        full_cov = np.diag(gamma).astype(complex) - vg.conj().T @ vg
    return PosteriorMoments(
        mean=mean, cov_diag=cov_diag, log_marginal=log_marginal, full_cov=full_cov
    )


def csvae_elbo_terms(
    gamma: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    sigma2: float,
    enc_mean: np.ndarray,
    enc_var: np.ndarray,
) -> ElboBreakdown:
    """Closed-form ELBO terms for one sample given encoder moments.

    The reconstruction term and posterior-prior KL are computed from their
    definitions using the full conditional covariance, while ``combined``
    uses the cancellation-based reformulation; the identity
    reconstruction - posterior_kl == combined serves as a self-check.
    """
    enc_mean = np.asarray(enc_mean, dtype=float)
    enc_var = np.asarray(enc_var, dtype=float)
    if np.any(enc_var <= 0):
        raise InvalidArgumentError("encoder variances must be positive")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0):
        raise InvalidArgumentError("gamma must be strictly positive (floor-clipped)")

    moments = posterior_moments(gamma, y, w, sigma2, want_full_cov=True)
    w = np.asarray(w)
    m, s = w.shape
    mean, cov = moments.mean, moments.full_cov

    residual = y - w @ mean
    reconstruction = -(
        m * math.log(math.pi * sigma2)
        + (np.sum(np.abs(residual) ** 2) + np.trace(w @ cov @ w.conj().T).real) / sigma2
    )

    encoder_kl = -0.5 * float(np.sum(1.0 + np.log(enc_var) - enc_mean**2 - enc_var))

    sign, log_det_cov = np.linalg.slogdet(cov)
    if sign.real <= 0:
        raise NumericError("posterior covariance lost positive definiteness")
    prior_quad = float(np.sum(np.abs(mean) ** 2 / gamma))
    posterior_kl = (
        float(np.sum(np.log(gamma)))
        - float(log_det_cov)
        - s
        + float(np.sum(np.diag(cov).real / gamma))
        + prior_quad
    )

    factor = marginal_cov_factor(gamma, w, sigma2)
    log_det_cy = 2.0 * float(np.sum(np.log(np.diag(factor).real)))
    combined = -(
        m * math.log(math.pi * sigma2) + np.sum(np.abs(residual) ** 2) / sigma2
    ) - (-m * math.log(sigma2) + log_det_cy + prior_quad)

    return ElboBreakdown(
        reconstruction=float(reconstruction),
        encoder_kl=float(encoder_kl),
        posterior_kl=float(posterior_kl),
        combined=float(combined),
    )
