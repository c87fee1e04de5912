import math

import numpy as np
import pytest

from chansbgm.dictionary import AngleGrid, SystemConfig, build_simo_dictionary
from chansbgm.errors import InvalidArgumentError
from chansbgm.posterior import csvae_elbo_terms, marginal_cov_factor, posterior_moments
from chansbgm.utils import complex_standard_normal


def random_instance(rng, m, s, sigma_range=(1e-3, 1.0)):
    """One random problem: selection-style A, unit-modulus D, gamma, y, sigma2."""
    picks = rng.choice(max(s // 2, m), size=m, replace=False)
    a = np.zeros((m, max(s // 2, m)))
    a[np.arange(m), picks] = 1.0
    n = a.shape[1]
    phase = rng.uniform(0, 2 * math.pi, (n, s))
    d = np.exp(1j * phase)
    gamma = rng.uniform(0.0, 2.0, s)
    sigma2 = rng.uniform(*sigma_range)
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return gamma, y, a, d, sigma2


def dense_oracle(gamma, y, a, d, sigma2):
    """Explicit-inverse evaluation of the conditional moments."""
    w = a @ d
    c_y = w @ np.diag(gamma) @ w.conj().T + sigma2 * np.eye(w.shape[0])
    c_sy = np.diag(gamma) @ w.conj().T
    inv = np.linalg.inv(c_y)
    mean = c_sy @ inv @ y
    cov = np.diag(gamma) - c_sy @ inv @ c_sy.conj().T
    sign, logdet = np.linalg.slogdet(c_y)
    log_marginal = (
        -w.shape[0] * math.log(math.pi) - logdet - (y.conj() @ inv @ y).real
    )
    return mean, cov, float(log_marginal)


class TestMarginalCovFactor:
    def test_zero_gamma_gives_scaled_identity(self):
        factor = marginal_cov_factor(np.zeros(6), np.ones((3, 6)), 4.0)
        np.testing.assert_allclose(factor, 2.0 * np.eye(3), atol=1e-14)

    def test_diagonal_case(self):
        factor = marginal_cov_factor(np.array([1.0, 2.0]), np.eye(2), 1.0)
        np.testing.assert_allclose(factor @ factor.conj().T, np.diag([2.0, 3.0]), atol=1e-14)

    def test_factor_reassembles_covariance(self):
        rng = np.random.default_rng(0)
        gamma, y, a, d, sigma2 = random_instance(rng, 8, 32)
        w = a @ d
        c_y = (w * gamma[None, :]) @ w.conj().T + sigma2 * np.eye(8)
        factor = marginal_cov_factor(gamma, a @ d, sigma2)
        np.testing.assert_allclose(factor @ factor.conj().T, c_y, atol=1e-10)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(InvalidArgumentError):
            marginal_cov_factor(np.ones(4), np.ones((2, 4)), 0.0)

    @pytest.mark.parametrize("w", [np.ones(4), np.ones((2, 2, 4)), np.ones((2, 3))],
                             ids=["1-d", "3-d", "wrong-column-count"])
    def test_rejects_w_that_is_not_a_matching_matrix(self, w):
        with pytest.raises(InvalidArgumentError):
            marginal_cov_factor(np.ones(4), w, 1.0)
        with pytest.raises(InvalidArgumentError):
            posterior_moments(np.ones(4), np.zeros(2, dtype=complex), w, 1.0)


class TestPosteriorMoments:
    def test_zero_prior_collapses(self):
        rng = np.random.default_rng(1)
        _, y, a, d, sigma2 = random_instance(rng, 4, 16)
        moments = posterior_moments(np.zeros(16), y, a @ d, sigma2)
        np.testing.assert_array_equal(moments.mean, 0.0)
        np.testing.assert_array_equal(moments.cov_diag, 0.0)

    def test_scalar_wiener_reduction(self):
        # W = I: every coordinate is an independent scalar problem
        rng = np.random.default_rng(2)
        s = 5
        gamma = rng.uniform(0.1, 3.0, s)
        y = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        sigma2 = 0.7
        moments = posterior_moments(gamma, y, np.eye(s), sigma2)
        np.testing.assert_allclose(moments.mean, gamma * y / (gamma + sigma2), atol=1e-14)
        np.testing.assert_allclose(
            moments.cov_diag, gamma * sigma2 / (gamma + sigma2), atol=1e-14
        )

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gamma, y, a, d, sigma2 = random_instance(rng, 8, 32)
            moments = posterior_moments(gamma, y, a @ d, sigma2, want_full_cov=True)
            mean, cov, log_marginal = dense_oracle(gamma, y, a, d, sigma2)
            np.testing.assert_allclose(moments.mean, mean, atol=1e-10)
            np.testing.assert_allclose(moments.cov_diag, np.diag(cov).real, atol=1e-10)
            np.testing.assert_allclose(moments.full_cov, cov, atol=1e-10)
            assert abs(moments.log_marginal - log_marginal) < 1e-9

    def test_cov_diag_bounded_by_prior(self):
        rng = np.random.default_rng(4)
        gamma, y, a, d, sigma2 = random_instance(rng, 8, 24)
        moments = posterior_moments(gamma, y, a @ d, sigma2)
        assert np.all(moments.cov_diag >= 0)
        assert np.all(moments.cov_diag <= gamma)

    def test_standard_complex_gaussian_log_marginal(self):
        moments = posterior_moments(np.zeros(1), np.zeros(1, dtype=complex), np.eye(1), 1.0)
        assert moments.log_marginal == pytest.approx(math.log(1 / math.pi))

    def test_log_marginal_with_diverged_variances(self):
        # three adjacent, nearly collinear atoms with huge variances make the
        # formed covariance W diag(gamma) W^H + sigma2 I too ill-conditioned
        # to factorize accurately; the reference splits them off by the
        # Woodbury identity: slogdet/solve on the well-conditioned remainder
        # plus a 3x3 term
        d = build_simo_dictionary(AngleGrid(128), SystemConfig.simo(16))
        w = d.matrix
        rng = np.random.default_rng(0)
        gamma = rng.uniform(1e-3, 1e-2, 128)
        big = np.array([40, 41, 42])
        gamma[big] = [1e9, 1e10, 3e9]
        sigma2s = rng.uniform(0.011, 0.02, 20)
        samples = complex_standard_normal(rng, (20, 16))
        rest = gamma.copy()
        rest[big] = 0.0
        wb = w[:, big]
        for y, sigma2 in zip(samples, sigma2s):
            a = (w * rest) @ w.conj().T + sigma2 * np.eye(16)
            core = np.diag(1.0 / gamma[big]) + wb.conj().T @ np.linalg.solve(a, wb)
            a_y = np.linalg.solve(a, y)
            u = wb.conj().T @ a_y
            quad = (y.conj() @ a_y - u.conj() @ np.linalg.solve(core, u)).real
            logdet = (
                np.linalg.slogdet(a)[1]
                + np.linalg.slogdet(core)[1]
                + np.sum(np.log(gamma[big]))
            )
            expected = -16 * math.log(math.pi) - logdet - quad
            got = posterior_moments(gamma, y, w, sigma2).log_marginal
            np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            posterior_moments(np.ones(4), np.zeros(3, dtype=complex), np.ones((2, 4)), 1.0)


class TestElboTerms:
    def elbo_instance(self, rng, m=6, s=20):
        gamma, y, a, d, sigma2 = random_instance(rng, m, s)
        gamma = np.maximum(gamma, 1e-7)
        enc_mean = rng.standard_normal(4)
        enc_var = rng.uniform(0.2, 2.0, 4)
        return gamma, y, a, d, sigma2, enc_mean, enc_var

    def test_prior_matched_encoder_has_zero_kl(self):
        rng = np.random.default_rng(5)
        gamma, y, a, d, sigma2, _, _ = self.elbo_instance(rng)
        terms = csvae_elbo_terms(gamma, y, a @ d, sigma2, np.zeros(4), np.ones(4))
        assert terms.encoder_kl == pytest.approx(0.0, abs=1e-14)

    def test_floor_variances_zero_observation(self):
        m, s = 4, 12
        gamma = np.full(s, 1e-7)
        w = np.exp(1j * np.random.default_rng(6).uniform(0, 2 * math.pi, (m, s)))
        sigma2 = 1.0
        terms = csvae_elbo_terms(
            gamma, np.zeros(m, dtype=complex), w, sigma2, np.zeros(2), np.ones(2)
        )
        assert terms.reconstruction == pytest.approx(-m * math.log(math.pi * sigma2), rel=1e-4)

    def test_cancellation_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            gamma, y, a, d, sigma2, enc_mean, enc_var = self.elbo_instance(rng)
            terms = csvae_elbo_terms(gamma, y, a @ d, sigma2, enc_mean, enc_var)
            lhs = terms.reconstruction - terms.posterior_kl
            assert abs(lhs - terms.combined) < 1e-8 * abs(terms.combined)

    def test_encoder_kl_closed_form(self):
        rng = np.random.default_rng(8)
        gamma, y, a, d, sigma2, enc_mean, enc_var = self.elbo_instance(rng)
        terms = csvae_elbo_terms(gamma, y, a @ d, sigma2, enc_mean, enc_var)
        expected = 0.5 * np.sum(enc_mean**2 + enc_var - 1.0 - np.log(enc_var))
        assert terms.encoder_kl == pytest.approx(expected, rel=1e-12)
