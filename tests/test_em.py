import itertools
import json
import math
import operator
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from chansbgm.dataset import check_synth_config, load_dataset, synthesize
from chansbgm.dictionary import (
    AngleGrid,
    DelayDopplerGrid,
    SystemConfig,
    build_ofdm_dictionary,
    build_simo_dictionary,
)
from chansbgm.em import (
    GAMMA_FLOOR,
    SbgmModel,
    _Block,
    _block_total,
    _Components,
    _em_steps,
    _fixed_point_step,
    _log_sum_exp,
    _m_step,
    _scored,
    _update_terms,
    csgmm_e_step,
    csgmm_fit,
    csgmm_m_step,
    kronecker_m_step,
    load_model,
    q_objective,
    save_model,
    total_log_likelihood,
)
from chansbgm.errors import InvalidArgumentError, NumericError
from chansbgm.generation import sample_parameters
from chansbgm.posterior import posterior_moments
from chansbgm.scenario import ObservationSet, make_observations
from chansbgm.utils import aligned_blocks, complex_standard_normal


def simo_setup(s=16, n_antennas=8):
    grid = AngleGrid(s)
    return build_simo_dictionary(grid, SystemConfig.simo(n_antennas))


def synthetic_observations(dictionary, n_samples, seed, snr=(0.0, 20.0), sparsity=3):
    """Observations from a random sparse source through the dictionary."""
    rng = np.random.default_rng(seed)
    s = dictionary.n_columns
    coeff = np.zeros((n_samples, s), dtype=complex)
    for i in range(n_samples):
        support = rng.choice(s, size=sparsity, replace=False)
        coeff[i, support] = complex_standard_normal(rng, sparsity)
    channels = coeff @ dictionary.matrix.T
    return make_observations(channels, np.arange(dictionary.matrix.shape[0]), snr, rng)


def random_model(rng, k, s):
    weights = rng.dirichlet(np.ones(k))
    variances = rng.uniform(0.05, 2.0, (k, s))
    return SbgmModel(weights=weights, variances=variances)


def random_kronecker_model(rng, k, s_t, s_f):
    return SbgmModel(
        weights=rng.dirichlet(np.ones(k)),
        variance_form="kronecker",
        doppler_variances=rng.uniform(0.2, 1.5, (k, s_t)),
        delay_variances=rng.uniform(0.2, 1.5, (k, s_f)),
    )


def ofdm_problem(seed, n=50):
    """A 4 x 4 delay-Doppler dictionary and n observations at 20 pilots."""
    grid = DelayDopplerGrid(4, 4, doppler_bound=200.0, delay_bound=4e-6)
    d = build_ofdm_dictionary(grid, SystemConfig.ofdm(5, 4, 15e3, 1e-3 / 14))
    rng = np.random.default_rng(seed)
    coeff = complex_standard_normal(rng, (n, 16)) * rng.uniform(0, 1, (n, 16))
    return d, make_observations(coeff @ d.matrix.T, np.arange(20), (5.0, 20.0), rng)


def fit_loop_sums(model, obs, dictionary):
    """The totals, the EM statistic sums and the fixed point's terms A and
    B that the fit's pass forms from M x M statistics."""
    return _update_terms(*_scored(model, dictionary.rows(obs.pilots), obs)[1])


def log_marginals(gamma, w, samples, sigma2s):
    """log CN(y_i; 0, W diag(gamma) W^H + sigma_i^2 I) per sample, as the
    fit computes them."""
    return _Block(_Components(gamma[None, :], w), samples, sigma2s).log_marginals[0]


class TestEStep:
    def test_single_component_responsibilities_are_one(self):
        d = simo_setup()
        obs = synthetic_observations(d, 12, seed=0)
        model = random_model(np.random.default_rng(1), 1, d.n_columns)
        resp, stats = csgmm_e_step(model, obs, d)
        np.testing.assert_array_equal(resp, 1.0)
        assert stats.shape == (1, 12, d.n_columns)

    def test_identical_components_split_evenly(self):
        d = simo_setup()
        obs = synthetic_observations(d, 10, seed=2)
        gamma = np.random.default_rng(3).uniform(0.1, 1.0, d.n_columns)
        model = SbgmModel(
            weights=np.array([0.5, 0.5]), variances=np.stack([gamma, gamma])
        )
        resp, _ = csgmm_e_step(model, obs, d)
        np.testing.assert_allclose(resp, 0.5, atol=1e-12)

    def test_rows_sum_to_one(self):
        d = simo_setup()
        obs = synthetic_observations(d, 25, seed=4)
        model = random_model(np.random.default_rng(5), 4, d.n_columns)
        resp, _ = csgmm_e_step(model, obs, d)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_density_ratio_oracle(self):
        # responsibilities recomputed from per-sample Gaussian densities
        # evaluated through the Cholesky-based route
        d = simo_setup()
        obs = synthetic_observations(d, 8, seed=6)
        model = random_model(np.random.default_rng(7), 2, d.n_columns)
        resp, _ = csgmm_e_step(model, obs, d)
        for i in range(len(obs)):
            logs = np.array(
                [
                    math.log(model.weights[k])
                    + posterior_moments(
                        model.variances[k],
                        obs.samples[i],
                        d.rows(obs.pilots),
                        obs.noise_vars[i],
                    ).log_marginal
                    for k in range(2)
                ]
            )
            expected = np.exp(logs - logs.max())
            expected /= expected.sum()
            np.testing.assert_allclose(resp[i], expected, atol=1e-10)

    def test_stats_match_posterior_moments(self):
        d = simo_setup()
        obs = synthetic_observations(d, 6, seed=8)
        rng = np.random.default_rng(9)
        for model in (random_model(rng, 3, d.n_columns), random_kronecker_model(rng, 3, 4, 4)):
            resp, stats = csgmm_e_step(model, obs, d)
            # the fit loop's M x M route to the weighted sums
            totals, sums, a, b = fit_loop_sums(model, obs, d)
            np.testing.assert_allclose(totals, resp.sum(axis=0), rtol=1e-12)
            for k in range(3):
                np.testing.assert_allclose(sums[k], resp[:, k] @ stats[k], rtol=1e-10)
                gamma = model.expanded_variances()[k]
                mean2, cov = np.zeros(d.n_columns), np.zeros(d.n_columns)
                for i in range(len(obs)):
                    moments = posterior_moments(
                        gamma,
                        obs.samples[i],
                        d.rows(obs.pilots),
                        obs.noise_vars[i],
                    )
                    expected = np.abs(moments.mean) ** 2 + moments.cov_diag
                    np.testing.assert_allclose(stats[k, i], expected, atol=1e-10)
                    mean2 += resp[i, k] * np.abs(moments.mean) ** 2
                    cov += resp[i, k] * moments.cov_diag
                # A weighs |mu|^2, and R gamma - gamma^2 B is the weighted diag C
                np.testing.assert_allclose(a[k], mean2, rtol=1e-10)
                np.testing.assert_allclose(totals[k] * gamma - gamma**2 * b[k], cov, atol=1e-10)


class TestMStep:
    def test_single_component_is_plain_mean(self):
        rng = np.random.default_rng(0)
        stats = rng.uniform(0.5, 2.0, (1, 20, 6))
        resp = np.ones((20, 1))
        model = csgmm_m_step(resp, stats)
        np.testing.assert_allclose(model.variances[0], stats[0].mean(axis=0), atol=1e-14)
        assert model.weights[0] == 1.0

    def test_hard_assignment_gives_per_cluster_means(self):
        rng = np.random.default_rng(1)
        stats = rng.uniform(0.5, 2.0, (2, 10, 4))
        resp = np.zeros((10, 2))
        resp[:6, 0] = 1.0
        resp[6:, 1] = 1.0
        model = csgmm_m_step(resp, stats)
        np.testing.assert_allclose(model.variances[0], stats[0, :6].mean(axis=0))
        np.testing.assert_allclose(model.variances[1], stats[1, 6:].mean(axis=0))
        np.testing.assert_allclose(model.weights, [0.6, 0.4])

    def test_floor_clipping(self):
        stats = np.full((1, 5, 3), 1e-12)
        model = csgmm_m_step(np.ones((5, 1)), stats)
        np.testing.assert_array_equal(model.variances, GAMMA_FLOOR)

    def test_dead_component_reinitialized(self):
        rng = np.random.default_rng(2)
        stats = rng.uniform(0.5, 2.0, (2, 8, 4))
        resp = np.zeros((8, 2))
        resp[:, 0] = 1.0  # component 1 receives nothing at all
        model = csgmm_m_step(resp, stats)
        worst = int(np.argmin(resp.max(axis=1)))
        np.testing.assert_allclose(model.variances[1], stats[1, worst])
        assert model.weights[1] > 0
        assert model.weights.sum() == pytest.approx(1.0)
        # the fit's pass takes the same row, with total 1, from M x M
        # statistics: a component of weight 0 and huge variances explains
        # no sample
        d = simo_setup()
        obs = synthetic_observations(d, 8, seed=3)
        variances = random_model(rng, 3, d.n_columns).variances
        variances[2] = 1e6
        e_model = SbgmModel(weights=[0.4, 0.6, 0.0], variances=variances)
        resp, stats = csgmm_e_step(e_model, obs, d)
        assert resp[:, 2].sum() < 1e-300
        worst = int(np.argmin(resp.max(axis=1)))
        assert worst != 0  # not a tie broken by order
        totals, sums, _, _ = fit_loop_sums(e_model, obs, d)
        np.testing.assert_allclose(totals, [*resp[:, :2].sum(axis=0), 1.0], rtol=1e-12)
        for k in range(2):
            np.testing.assert_allclose(sums[k], resp[:, k] @ stats[k], rtol=1e-10)
        np.testing.assert_allclose(sums[2], stats[2, worst], rtol=1e-10)

    def test_components_dying_together_restart_apart(self):
        rng = np.random.default_rng(4)
        stats = rng.uniform(0.5, 2.0, (8, 4))
        resp = np.zeros((8, 3))
        resp[:, 0] = 1.0  # components 1 and 2 receive nothing at all
        # both dead components see the same statistics, so only the sample
        # each restarts from can tell them apart
        model = csgmm_m_step(resp, np.stack([stats, stats, stats]))
        assert not np.array_equal(model.variances[1], model.variances[2])
        np.testing.assert_allclose(model.weights, [0.8, 0.1, 0.1])

    def test_q_objective_of_full_model_matches_naive_evaluation(self):
        rng = np.random.default_rng(5)
        resp = rng.dirichlet(np.ones(3), size=9)
        stats = rng.uniform(0.05, 2.0, (3, 9, 5))
        model = csgmm_m_step(resp, stats)
        naive = 0.0
        for i in range(9):
            for k in range(3):
                gamma = model.variances[k]
                naive += resp[i, k] * (
                    -5 * math.log(math.pi)
                    - np.sum(np.log(gamma))
                    - np.sum(stats[k, i] / gamma)
                    + math.log(model.weights[k])
                )
        assert q_objective(resp, stats, model) == pytest.approx(naive, rel=1e-12)

    def test_full_m_step_maximizes_q_objective(self):
        # statistics well above the floor: the unclipped update is the maximizer
        rng = np.random.default_rng(6)
        resp = rng.dirichlet(np.ones(3), size=30)
        stats = rng.uniform(0.5, 2.0, (3, 30, 6))
        best = csgmm_m_step(resp, stats)
        value = q_objective(resp, stats, best)
        for k, scale in itertools.product(range(3), (0.9, 1.1)):
            variances = best.variances.copy()
            variances[k] *= scale
            weights = best.weights.copy()
            weights[k] *= scale
            for perturbed in (
                SbgmModel(best.weights, variances=variances),
                SbgmModel(weights / weights.sum(), variances=best.variances),
            ):
                assert q_objective(resp, stats, perturbed) < value


class TestKroneckerMStep:
    def make_stats(self, rng, n, k, s_t, s_f):
        resp = rng.dirichlet(np.ones(k), size=n)
        stats = rng.uniform(0.05, 2.0, (k, n, s_t * s_f))
        return resp, stats

    def test_exactly_kronecker_stats_recovered_in_one_sweep(self):
        rng = np.random.default_rng(0)
        s_t, s_f, n = 6, 5, 40
        gt = rng.uniform(0.2, 2.0, s_t)
        gf = rng.uniform(0.2, 2.0, s_f)
        stats = np.tile(np.kron(gt, gf), (1, n, 1))
        resp = np.ones((n, 1))
        model = kronecker_m_step(resp, stats, s_t, s_f, coord_iters=1)
        rebuilt = np.kron(model.doppler_variances[0], model.delay_variances[0])
        np.testing.assert_allclose(rebuilt, np.kron(gt, gf), rtol=1e-8)

    def test_degenerate_delay_axis_reduces_to_plain_m_step(self):
        rng = np.random.default_rng(1)
        resp, stats = self.make_stats(rng, 30, 2, 7, 1)
        kron_model = kronecker_m_step(resp, stats, 7, 1, coord_iters=1)
        full_model = csgmm_m_step(resp, stats)
        rebuilt = np.stack(
            [
                np.kron(kron_model.doppler_variances[k], kron_model.delay_variances[k])
                for k in range(2)
            ]
        )
        np.testing.assert_allclose(rebuilt, full_model.variances, rtol=1e-12)

    def test_objective_non_decreasing_over_sweeps(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            resp, stats = self.make_stats(rng, 25, 3, 8, 8)
            values = []
            init_t, init_f = None, None
            for _ in range(10):
                model = kronecker_m_step(
                    resp, stats, 8, 8, coord_iters=1,
                    init_doppler=init_t, init_delay=init_f,
                )
                init_t = model.doppler_variances
                init_f = model.delay_variances
                values.append(q_objective(resp, stats, model))
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-8 * np.abs(np.array(values[:-1])))

    def test_objective_matches_naive_evaluation(self):
        rng = np.random.default_rng(3)
        resp, stats = self.make_stats(rng, 7, 2, 3, 4)
        model = kronecker_m_step(resp, stats, 3, 4, coord_iters=2)
        value = q_objective(resp, stats, model)
        naive = 0.0
        s = 12
        for i in range(7):
            for k in range(2):
                gamma = np.kron(model.doppler_variances[k], model.delay_variances[k])
                naive += resp[i, k] * (
                    -s * math.log(math.pi)
                    - np.sum(np.log(gamma))
                    - np.sum(stats[k, i] / gamma)
                    + math.log(model.weights[k])
                )
        assert value == pytest.approx(naive, rel=1e-12)


class TestFit:
    @pytest.mark.parametrize("form", ["full", "kronecker"])
    def test_ofdm_fit_never_forms_the_dense_matrix(self, form):
        d, obs = ofdm_problem(20)
        factored = build_ofdm_dictionary(d.grid, d.config)
        model, _ = csgmm_fit(obs, factored, 2, max_iters=3, variance_form=form, seed=0)
        total_log_likelihood(model, obs, factored)
        assert "matrix" not in vars(factored)
        assert factored.rows(obs.pilots).tobytes() == d.matrix[obs.pilots].tobytes()

    def test_loglik_trace_monotone(self):
        d = simo_setup(s=24, n_antennas=8)
        obs = synthetic_observations(d, 60, seed=10)
        for k in (1, 2, 4):
            _, trace = csgmm_fit(obs, d, k, max_iters=40, seed=k)
            assert trace.is_monotone(), f"K={k} trace decreased"

    def test_trace_matches_total_log_likelihood(self):
        d = simo_setup()
        obs = synthetic_observations(d, 30, seed=11)
        model, trace = csgmm_fit(obs, d, 2, max_iters=15, seed=0)
        final = total_log_likelihood(model, obs, d)
        # the last E-step evaluated the model that was returned, also when
        # the fit stopped at max_iters
        assert not trace.converged
        assert final == pytest.approx(trace.log_likelihoods[-1], rel=1e-12)

    def test_refit_is_deterministic(self):
        d = simo_setup()
        obs = synthetic_observations(d, 20, seed=13)
        m1, _ = csgmm_fit(obs, d, 3, max_iters=10, seed=7)
        m2, _ = csgmm_fit(obs, d, 3, max_iters=10, seed=7)
        np.testing.assert_array_equal(m1.variances, m2.variances)
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_two_cluster_weights_recovered(self):
        # two components with disjoint angular supports and 0.3/0.7 weights
        d = simo_setup(s=32, n_antennas=16)
        s = d.n_columns
        gamma = np.full((2, s), 1e-4)
        gamma[0, 4:8] = 2.0
        gamma[1, 20:26] = 1.5
        truth = SbgmModel(weights=np.array([0.3, 0.7]), variances=gamma)
        batch = sample_parameters(truth, 2000, 14)
        channels = batch.sparse @ d.matrix.T
        obs = make_observations(
            channels, np.arange(16), (15.0, 20.0), np.random.default_rng(15)
        )
        model, _ = csgmm_fit(obs, d, 2, max_iters=150, seed=1)
        weights = np.sort(model.weights)
        np.testing.assert_allclose(weights, [0.3, 0.7], atol=0.05)

    @pytest.mark.parametrize(
        "option, value",
        [("max_iters", 0), ("rel_tol", 0.0)],
    )
    def test_out_of_range_option_rejected(self, option, value):
        d = simo_setup()
        obs = synthetic_observations(d, 10, seed=17)
        with pytest.raises(InvalidArgumentError):
            csgmm_fit(obs, d, 1, seed=0, **{option: value})

    @pytest.mark.parametrize("iteration", [0, 3])
    def test_factorization_failure_names_its_iteration(self, monkeypatch, iteration):
        d = simo_setup()
        obs = synthetic_observations(d, 20, seed=18)
        svd, calls = np.linalg.svd, []

        def svd_failing_in_iteration(*args, **kwargs):
            calls.append(None)
            # from the second component's factorization on: the fixed-point
            # candidate's E-step fails, and so does the EM fallback's
            if len(calls) >= 2 * iteration + 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_failing_in_iteration)
        with pytest.raises(NumericError, match=f"EM iteration {iteration} failed") as info:
            csgmm_fit(obs, d, 2, max_iters=10, seed=0)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("fault", ["factorization", "invalid-model", "non-finite-total"])
    def test_candidate_whose_factorization_fails_falls_back_to_em(self, monkeypatch, fault):
        # one fault in the third fixed-point candidate, which the fit rejects
        # and goes on from the EM update instead: a failed SVD, an infinite
        # variance, or a pass's total of +inf that is no lower than any
        import chansbgm.em as em_module

        d = simo_setup()
        obs = synthetic_observations(d, 20, seed=18)
        _, clean = csgmm_fit(obs, d, 2, max_iters=10, seed=0)

        def failed_svd(real, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        def infinite_variance(real, totals, a, b, model):
            return real(totals, np.full_like(a, np.inf), b, model)

        def infinite_total(real, *args):
            _, sums = real(*args)
            return math.inf, sums

        # the patched function, its call that makes the third candidate, the fault
        module, name, nth, inject = {
            "factorization": (np.linalg, "svd", 8, failed_svd),  # its second component
            "invalid-model": (em_module, "_fixed_point_step", 3, infinite_variance),
            "non-finite-total": (em_module, "_scored", 4, infinite_total),
        }[fault]
        real, calls = getattr(module, name), []

        def faulty(*args, **kwargs):
            calls.append(None)
            if len(calls) == nth:
                return inject(real, *args, **kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, faulty)
        _, trace = csgmm_fit(obs, d, 2, max_iters=10, seed=0)
        assert clean.n_fallbacks == 0 and trace.n_fallbacks == 1
        assert trace.is_monotone() and trace.n_iterations == 10
        assert trace.log_likelihoods[:3].tobytes() == clean.log_likelihoods[:3].tobytes()
        assert trace.log_likelihoods[3] != clean.log_likelihoods[3]

    def test_m_step_that_builds_no_model_is_a_numeric_error(self, monkeypatch):
        # NaN sums make the first update's fixed-point candidate and its EM
        # update invalid: the error names trace row 1, which it would have written
        import chansbgm.em as em_module

        d = simo_setup()
        obs = synthetic_observations(d, 20, seed=18)
        real_scored = em_module._scored

        def nan_sums(*args):
            loglik, (components, totals, *sums) = real_scored(*args)
            return loglik, (components, totals, *(np.full_like(x, np.nan) for x in sums))

        monkeypatch.setattr(em_module, "_scored", nan_sums)
        with pytest.raises(NumericError, match="EM iteration 1 failed") as info:
            csgmm_fit(obs, d, 2, max_iters=10, seed=0)
        assert isinstance(info.value.__cause__, InvalidArgumentError)

    def test_unknown_variance_form_is_bad_input(self):
        d = simo_setup()
        with pytest.raises(InvalidArgumentError, match="unknown variance form"):
            csgmm_fit(synthetic_observations(d, 10, seed=17), d, 1, variance_form="diagonal")

    @pytest.mark.parametrize("k, form", [(1, "full"), (3, "full"), (2, "kronecker")])
    def test_fit_is_its_init_driven_by_em_steps(self, k, form):
        # the fit's model and trace, bit for bit, from its init and n steps
        # taken by hand: the model returned is the one the last step scored
        d, obs = ofdm_problem(19)
        n, options = 6, {"variance_form": form, "rel_tol": 1e-12, "seed": 5}
        model, trace = csgmm_fit(obs, d, k, max_iters=n, **options)
        init, _ = csgmm_fit(obs, d, k, max_iters=1, **options)
        steps = _em_steps(init, d.rows(obs.pilots), obs)
        logliks, models, _ = zip(*itertools.islice(steps, n))
        assert models[0] is init
        assert not trace.converged and trace.n_iterations == n
        assert trace.log_likelihoods.tobytes() == np.array(logliks).tobytes()
        assert model.variance_form == form
        for got, want in zip((model.weights, *model.factors),
                             (models[-1].weights, *models[-1].factors)):
            assert got.tobytes() == want.tobytes()

    def test_kronecker_fit_monotone_and_structured(self):
        d, obs = ofdm_problem(16)
        model, trace = csgmm_fit(
            obs, d, 2, variance_form="kronecker", max_iters=30, seed=2
        )
        assert model.doppler_variances.shape == (2, 4)
        assert model.delay_variances.shape == (2, 4)
        assert trace.is_monotone()


class TestEStepArrays:
    """The fit scores each candidate in one pass over row blocks, and its
    memory does not grow with the number of samples."""

    @staticmethod
    def _buffered_loop_took_em(problem, k, fixed_point_step=_fixed_point_step):
        """Six iterations of the fit against a loop that scores every
        candidate by a pass of its own and takes the fixed point or EM by
        hand, bit for bit; returns the fit's ``took_em`` flags."""
        rng = np.random.default_rng(40 + k)
        if problem == "simo":
            d = simo_setup(s=24, n_antennas=8)
            obs = synthetic_observations(d, 40, seed=41)
            model = random_model(rng, k, d.n_columns)
        else:
            d, obs = ofdm_problem(42)
            model = random_kronecker_model(rng, k, 4, 4)
        w = d.rows(obs.pilots)
        steps = list(itertools.islice(_em_steps(model, w, obs), 6))
        (want, sums), fell_back = _scored(model, w, obs), False
        for loglik, got, took_em in steps:
            assert loglik == want and took_em == fell_back
            for a, b in zip((got.weights, *got.factors), (model.weights, *model.factors)):
                assert a.tobytes() == b.tobytes()
            totals, t, *terms = _update_terms(*sums)
            candidate = fixed_point_step(totals, *terms, model)
            candidate_loglik, candidate_sums = _scored(candidate, w, obs)
            fell_back = not candidate_loglik >= want  # accept the fixed point, else fall back to EM
            if not fell_back:
                model, want, sums = candidate, candidate_loglik, candidate_sums
            else:
                model = _m_step(totals, t, GAMMA_FLOOR, model.factors)
                want, sums = _scored(model, w, obs)
        return [took_em for *_, took_em in steps]

    @pytest.mark.parametrize("problem, k", [("simo", 3), ("simo", 1), ("ofdm", 2)])
    def test_buffered_loop_keeps_every_bit(self, problem, k):
        self._buffered_loop_took_em(problem, k)

    @pytest.mark.parametrize("problem, k", [("simo", 3), ("ofdm", 2)])
    def test_buffered_loop_keeps_every_bit_on_the_em_path(self, problem, k, monkeypatch):
        # every candidate puts every variance at the floor, which scores below
        # the model it would replace: each update falls back to EM
        import chansbgm.em as em_module

        def floored_step(*args):
            candidate = _fixed_point_step(*args)
            for factor in candidate.factors:
                factor.fill(GAMMA_FLOOR)
            return candidate

        monkeypatch.setattr(em_module, "_fixed_point_step", floored_step)
        took_em = self._buffered_loop_took_em(problem, k, floored_step)
        assert took_em == [False] + [True] * 5

    @pytest.mark.parametrize("case", ["simo-3", "simo-1", "ofdm-2", "simo-restart"])
    def test_row_blocks_keep_the_single_block_fit(self, case, monkeypatch):
        # 200 or more samples in at least three row blocks against one block:
        # the first six items of the fit agree to round-off, and a component
        # of weight 0 restarts from the same sample
        import chansbgm.em as em_module

        rng = np.random.default_rng(50)
        if case == "ofdm-2":
            d, obs = ofdm_problem(51, n=230)
            model = random_kronecker_model(rng, 2, 4, 4)
        else:
            d = simo_setup(s=24, n_antennas=8)
            obs = synthetic_observations(d, 200, seed=52)
            model = random_model(rng, 1 if case == "simo-1" else 3, d.n_columns)
        if case == "simo-restart":  # weight 0 and huge variances: no sample is its own
            model.variances[2] = 1e6
            model = SbgmModel(weights=[0.5, 0.5, 0.0], variances=model.variances)
        w = d.rows(obs.pilots)
        real_restarts, restarts = em_module._restarts, []

        def recorded_restarts(*args):
            restarts.append(list(real_restarts(*args)))
            return restarts[-1]

        monkeypatch.setattr(em_module, "_restarts", recorded_restarts)
        whole = list(itertools.islice(_em_steps(model, w, obs), 6))
        monkeypatch.setattr(em_module, "_FIT_BLOCK_ELEMENTS", 1)
        rows = em_module._FIT_BLOCK_ELEMENTS // (model.n_components * len(w))
        assert len(aligned_blocks(len(obs), rows)) >= 3
        blocked = list(itertools.islice(_em_steps(model, w, obs), 6))
        half = len(restarts) // 2
        assert restarts[:half] == restarts[half:]
        assert any(restarts) == (case == "simo-restart")
        for (want_ll, want, want_em), (ll, got, took_em) in zip(whole, blocked):
            assert took_em == want_em
            assert abs(ll - want_ll) <= 1e-12 * abs(want_ll)
            assert np.abs(got.weights - want.weights).max() <= 1e-10 * want.weights.max()
            for a, b in zip(got.factors, want.factors):
                assert np.abs(a - b).max() <= 1e-10 * b.max()

    def test_no_block_of_a_pass_outlives_it(self, monkeypatch):
        # at most one row block's arrays per thread: a thread's block is gone
        # when it projects its next, so a block meets at most the other
        # thread's, and every block of a pass is gone when the next pass
        # starts, a rejected candidate's included; the same holds for
        # total_log_likelihood's pass
        import chansbgm.em as em_module

        d = simo_setup(s=24, n_antennas=8)
        obs = synthetic_observations(d, 200, seed=49)
        real_scored, built = em_module._scored, []
        alive_at = {"pass": [], "own": [], "other": []}

        def alive(own):
            me = threading.get_ident()
            return sum(ref() is not None and (ident == me) == own for ident, ref in built)

        class TrackedBlock(em_module._Block):
            def __init__(self, *args):
                alive_at["own"].append(alive(True))
                alive_at["other"].append(alive(False))
                super().__init__(*args)
                built.append((threading.get_ident(), weakref.ref(self)))

        def tracked_scored(*args):
            alive_at["pass"].append(alive(True) + alive(False))
            return real_scored(*args)

        monkeypatch.setattr(em_module, "_Block", TrackedBlock)
        monkeypatch.setattr(em_module, "_scored", tracked_scored)
        monkeypatch.setattr(em_module, "_FIT_BLOCK_ELEMENTS", 1)
        model, trace = csgmm_fit(obs, d, 3, max_iters=4, rel_tol=1e-12, seed=0)
        assert trace.n_fallbacks == 0 and alive_at["pass"] == [0] * 4
        assert alive_at["own"] == [0] * 4 * 4 and len(built) == 4 * 4
        assert max(alive_at["other"]) <= 1
        assert len({ident for ident, _ in built}) >= 2  # the blocks did run on two threads
        # total_log_likelihood walks the same blocks, one alive per thread
        built.clear()
        alive_at["own"].clear()
        alive_at["other"].clear()
        em_module.total_log_likelihood(model, obs, d)
        assert alive_at["own"] == [0] * 4 and max(alive_at["other"]) <= 1
        assert len(built) == 4 and all(ref() is None for _, ref in built)
        # every candidate floored scores lower: each update runs the
        # candidate's pass and then the fallback's
        def floored_step(*args):
            candidate = _fixed_point_step(*args)
            for factor in candidate.factors:
                factor.fill(GAMMA_FLOOR)
            return candidate

        monkeypatch.setattr(em_module, "_fixed_point_step", floored_step)
        built.clear()
        alive_at["pass"].clear()
        _, trace = csgmm_fit(obs, d, 3, max_iters=4, rel_tol=1e-12, seed=0)
        assert trace.n_fallbacks == 3 and alive_at["pass"] == [0] * 7

    @staticmethod
    def _k16_fit_peak(n):
        """The tracemalloc peak of 3 iterations of a K=16 fit of n samples at
        16 antennas on a 128-point grid."""
        d = simo_setup(s=128, n_antennas=16)
        obs = synthetic_observations(d, n, seed=45)
        tracemalloc.start()
        try:
            csgmm_fit(obs, d, 16, max_iters=3, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fit_holds_one_e_steps_arrays(self):
        # one E-step's projections and shifts over all samples would take
        # K n M (16 + 8) bytes (12.3 MB), and the fit holds one row block of them
        k, n, m = 16, 2000, 16
        assert self._k16_fit_peak(n) < 1.5 * k * n * m * 24

    @pytest.mark.parametrize("n", [2000, 20_000])
    def test_fit_memory_does_not_grow_with_the_samples(self, n):
        # the E-step arrays over all samples would take 12.3 MB at n=2000 and
        # 123 MB at n=20 000; the fit peaks near 3.2 MB at either
        assert self._k16_fit_peak(n) < 8e6


def run_inline(first, second):
    """``utils.side_by_side`` without the helper thread: the two calls in turn."""
    return first(), second()


class TestTwoThreadPass:
    """A pass scores its row blocks on the calling thread and one helper
    thread, and writes the bytes of the same walk on one thread."""

    @pytest.fixture
    def em_module(self, monkeypatch):
        # 64-row blocks in chunks of four: 520 samples make chunks of 4, 4 and 1 blocks
        import chansbgm.em as em_module

        monkeypatch.setattr(em_module, "_FIT_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(em_module, "_CHUNK_BLOCKS", 4)
        return em_module

    def test_block_total_adds_the_parts_in_block_order(self, em_module):
        blocks = aligned_blocks(520, 64)
        threads = {}

        def part(rows):
            threads[rows.start] = threading.get_ident()
            return [rows.start]

        assert len(blocks) == 9
        assert _block_total(blocks, part, operator.add) == [rows.start for rows in blocks]
        # each chunk's second half on a helper; the lone last block on the caller
        main = threading.get_ident()
        on_main = [threads[rows.start] == main for rows in blocks]
        assert on_main == [True, True, False, False] * 2 + [True]

    @pytest.mark.parametrize("case", ["full", "kronecker", "restart", "total-log-likelihood"])
    def test_threads_write_the_serial_walks_bytes(self, case, em_module, monkeypatch):
        # six items of the fit's steps, or total_log_likelihood, on two threads
        # and with the helper's half run inline, compared with ==: each
        # log-likelihood, the flag, every model array and the model_id
        rng = np.random.default_rng(60)
        if case == "kronecker":
            d, obs = ofdm_problem(61, n=520)
            model = random_kronecker_model(rng, 2, 4, 4)
        else:
            d = simo_setup(s=24, n_antennas=8)
            obs = synthetic_observations(d, 520, seed=62)
            model = random_model(rng, 3, d.n_columns)
        if case == "restart":  # weight 0 and huge variances: no sample is its own
            model.variances[2] = 1e6
            model = SbgmModel(weights=[0.5, 0.5, 0.0], variances=model.variances)
        w = d.rows(obs.pilots)
        real_restarts, restarts = em_module._restarts, []

        def recorded_restarts(*args):
            restarts.append(list(real_restarts(*args)))
            return restarts[-1]

        def run():
            if case == "total-log-likelihood":
                return [(total_log_likelihood(model, obs, d), model, False)]
            return list(itertools.islice(_em_steps(model, w, obs), 6))

        monkeypatch.setattr(em_module, "_restarts", recorded_restarts)
        real_side_by_side, helpers = em_module.side_by_side, []

        def counted_side_by_side(*calls):
            helpers.append(None)
            return real_side_by_side(*calls)

        monkeypatch.setattr(em_module, "side_by_side", counted_side_by_side)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads swap often, so a lost row of best would show
        try:
            threaded = run()
        finally:
            sys.setswitchinterval(interval)
        # two chunks of each pass on two threads
        assert len(helpers) >= 2 * len(threaded)
        monkeypatch.setattr(em_module, "side_by_side", run_inline)
        serial = run()
        assert any(restarts) == (case == "restart")
        for (want_ll, want, want_em), (ll, got, took_em) in zip(serial, threaded, strict=True):
            assert type(ll) is float and ll == want_ll and took_em == want_em
            assert got.content_id == want.content_id
            for a, b in zip((got.weights, *got.factors), (want.weights, *want.factors)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("failing", ["first", "second", "both"])
    def test_an_exception_in_either_half_reaches_the_caller(self, failing, em_module, monkeypatch):
        # 200 samples: one chunk of four blocks, the caller's 0-127 and the
        # helper's 128-199; the raised object itself arrives, the first
        # half's when both raise, and the helper is gone in either case
        d = simo_setup(s=24, n_antennas=8)
        obs = synthetic_observations(d, 200, seed=66)
        errors = {64: RuntimeError("first half"), 192: RuntimeError("second half")}
        if failing != "both":
            del errors[64 if failing == "second" else 192]

        class FailingBlock(em_module._Block):
            def __init__(self, components, samples, sigma2s):
                for start, error in errors.items():
                    if np.array_equal(samples[0], obs.samples[start]):
                        raise error
                super().__init__(components, samples, sigma2s)

        baseline = threading.active_count()
        csgmm_fit(obs, d, 2, max_iters=3, seed=0)
        assert threading.active_count() == baseline
        monkeypatch.setattr(em_module, "_Block", FailingBlock)
        with pytest.raises(RuntimeError) as info:
            csgmm_fit(obs, d, 2, max_iters=3, seed=0)
        assert info.value is errors[64 if failing != "second" else 192]
        assert threading.active_count() == baseline

    def test_a_one_block_pass_starts_no_thread(self, monkeypatch):
        import chansbgm.em as em_module

        d = simo_setup(s=24, n_antennas=8)
        obs = synthetic_observations(d, 100, seed=67)
        started = []
        real_start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        model, _ = csgmm_fit(obs, d, 1, max_iters=3, seed=0)
        total_log_likelihood(model, obs, d)
        components = em_module._Components(model.expanded_variances(), d.rows(obs.pilots))
        assert len(em_module._fit_blocks(components, len(obs))) == 1
        assert started == []


@pytest.fixture(scope="module")
def street_canyon_500(tmp_path_factory):
    """A 500-sample street-canyon dataset at 16 antennas on a 128-point grid,
    its dictionary, and the K=4 fit of 60 iterations that the tests transform."""
    config = check_synth_config({
        "scenario": "simo", "n_train": 500, "snr_range_db": [0.0, 20.0],
        "system": {"variant": "simo", "n_antennas": 16}, "grid_size": 128,
        "laplacian_std_deg": 2.0, "quadrature_points": 2048,
    })
    directory = tmp_path_factory.mktemp("street_canyon_500")
    synthesize(config, 100, directory)
    obs, _, _ = load_dataset(directory)
    d = build_simo_dictionary(AngleGrid(128), SystemConfig.simo(16))
    return obs, d, fit_60(obs, d)


def fit_60(obs, d):
    model, _ = csgmm_fit(obs, d, 4, max_iters=60, rel_tol=1e-12, seed=1)
    return model


class TestFitInvariances:
    """Transformations of the data that the fitted model must follow: each
    test predicts the transformed fit from the original one alone."""

    def test_per_sample_phase_leaves_the_fit(self, street_canyon_500):
        # the model is circularly symmetric: a unit phase on each sample
        # changes no likelihood, so no variance or weight
        obs, d, model = street_canyon_500
        phases = np.exp(2j * np.pi * np.random.default_rng(3).uniform(size=len(obs)))
        rotated = ObservationSet(obs.samples * phases[:, None], obs.noise_vars, obs.pilots)
        got = fit_60(rotated, d)
        scale = model.variances.max()
        assert np.abs(got.variances - model.variances).max() <= 1e-11 * scale
        assert np.abs(got.weights - model.weights).max() <= 1e-11

    def test_conjugated_simo_data_mirror_the_grid(self, street_canyon_500):
        # conj a(theta) = a(-theta): grid point g moves to -g, index i to
        # (S - i) mod S, and the point -S/2 (at -pi/2, a real steering
        # vector) stays
        obs, d, model = street_canyon_500
        conjugated = ObservationSet(obs.samples.conj(), obs.noise_vars, obs.pilots)
        got = fit_60(conjugated, d)
        size = d.n_columns
        mirrored = got.variances[:, (size - np.arange(size)) % size]
        scale = model.variances.max()
        assert np.abs(mirrored - model.variances).max() <= 1e-11 * scale
        assert np.abs(got.weights - model.weights).max() <= 1e-11


class TestTotalLogLikelihood:
    def test_standard_complex_gaussian_at_origin(self):
        d = build_simo_dictionary(AngleGrid(2), SystemConfig.simo(1))
        obs = ObservationSet(
            samples=np.zeros((1, 1), dtype=complex),
            noise_vars=np.array([1.0]),
            pilots=np.arange(1),
        )
        model = SbgmModel(weights=np.array([1.0]), variances=np.zeros((1, 2)))
        assert total_log_likelihood(model, obs, d) == pytest.approx(math.log(1 / math.pi))

    def test_equals_e_step_normalizer(self):
        d = simo_setup()
        obs = synthetic_observations(d, 15, seed=17)
        model = random_model(np.random.default_rng(18), 3, d.n_columns)
        from scipy.special import logsumexp

        w = d.rows(obs.pilots)
        log_marg = np.column_stack(
            [
                log_marginals(model.variances[k], w, obs.samples, obs.noise_vars)
                for k in range(3)
            ]
        )
        expected = float(
            np.sum(logsumexp(log_marg + np.log(model.weights)[None, :], axis=1))
        )
        assert total_log_likelihood(model, obs, d) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("problem", ["simo-k16", "ofdm"])
    def test_sums_the_fit_pass_total_alone(self, problem, monkeypatch):
        # the blocks' log-likelihoods in the fit pass's block order, bit for
        # bit, without the statistics that pass also forms
        import chansbgm.em as em_module

        rng = np.random.default_rng(50)
        if problem == "simo-k16":
            d = simo_setup(s=128, n_antennas=16)
            obs = synthetic_observations(d, 2000, seed=51)
            model = random_model(rng, 16, d.n_columns)
            rows = em_module._FIT_BLOCK_ELEMENTS // (16 * 16)
            assert len(aligned_blocks(len(obs), rows)) == 16
        else:
            d, obs = ofdm_problem(52)
            model = random_kronecker_model(rng, 2, 4, 4)
        want = _scored(model, d.rows(obs.pilots), obs)[0]

        def formed(*args):
            raise AssertionError("the pass's statistics were formed")

        monkeypatch.setattr(em_module._Block, "moment_sums", formed)
        got = total_log_likelihood(model, obs, d)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_log_sum_exp_keeps_small_terms_and_ties(self):
        # a dominated term below round-off of 1 still counts, through log1p
        out = _log_sum_exp(np.array([[0.0, -40.0], [3.0, 3.0]]))
        assert out[0] == pytest.approx(math.exp(-40.0), rel=1e-12, abs=0.0)
        assert out[1] == math.log(2.0) + 3.0

    def test_log_marginals_with_diverged_variances(self):
        # three adjacent, nearly collinear atoms with huge variances: the
        # sigma-free part has a condition number far beyond 1/eps, so its
        # small eigenvalues must not come from a factorization of the formed
        # product. The reference splits them off by the Woodbury identity:
        # slogdet/solve on the well-conditioned remainder plus a 3x3 term.
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
        expected = np.empty(20)
        for i, (y, sigma2) in enumerate(zip(samples, sigma2s)):
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
            expected[i] = -16 * math.log(math.pi) - logdet - quad
        got = log_marginals(gamma, w, samples, sigma2s)
        np.testing.assert_allclose(got, expected, rtol=1e-9)


class TestModelSerialization:
    def test_full_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        model = random_model(rng, 3, 8)
        save_model(model, tmp_path / "model")
        loaded, meta = load_model(tmp_path / "model")
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.variances, model.variances)
        assert meta["variance_form"] == "full"

    def test_kronecker_variances_expand_to_the_kron_of_the_factors(self):
        model = random_kronecker_model(np.random.default_rng(21), 3, 4, 5)
        expanded = model.expanded_variances()
        assert expanded.shape == (3, 20)
        for k in range(3):
            np.testing.assert_array_equal(
                expanded[k], np.kron(model.doppler_variances[k], model.delay_variances[k])
            )

    def test_kronecker_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        model = SbgmModel(
            weights=np.array([0.4, 0.6]),
            variance_form="kronecker",
            doppler_variances=rng.uniform(0.1, 1.0, (2, 4)),
            delay_variances=rng.uniform(0.1, 1.0, (2, 5)),
        )
        save_model(model, tmp_path / "model")
        loaded, _ = load_model(tmp_path / "model")
        np.testing.assert_array_equal(loaded.doppler_variances, model.doppler_variances)
        np.testing.assert_array_equal(loaded.delay_variances, model.delay_variances)
        np.testing.assert_allclose(
            loaded.expanded_variances(), model.expanded_variances(), atol=0
        )

    # saved models and batches record these ids: a change to the hash or the
    # layout would orphan every model written before it
    @pytest.mark.parametrize(
        "form, factors, model_id, sizes, roles",
        [
            ("full", {"variances": np.arange(1.0, 7.0).reshape(2, 3)}, "20e3e917a2fe",
             {"n_coefficients": 3}, {"variances": "component-variances"}),
            ("kronecker", {"doppler_variances": np.arange(1.0, 5.0).reshape(2, 2),
                           "delay_variances": np.arange(1.0, 7.0).reshape(2, 3)},
             "72fffb4e7a3a", {"doppler_size": 2, "delay_size": 3},
             {"doppler_variances": "doppler-variances", "delay_variances": "delay-variances"}),
        ],
    )
    def test_model_id_and_saved_layout_are_pinned(
        self, tmp_path, form, factors, model_id, sizes, roles
    ):
        model = SbgmModel(weights=[0.25, 0.75], variance_form=form, **factors)
        assert model.content_id == model_id
        directory = tmp_path / "model"
        save_model(model, directory)
        roles = {"weights": "mixture-weights", **roles}
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            ["model.json", *(f"{stem}.{ext}" for stem in roles for ext in ("bin", "json"))]
        )
        assert json.loads((directory / "model.json").read_text()) == {
            "kind": "sbgm-model", "n_components": 2, "variance_form": form,
            "clip_floor": GAMMA_FLOOR, "model_id": model_id, **sizes,
        }
        for stem, role in roles.items():
            assert json.loads((directory / f"{stem}.json").read_text())["role"] == role
        assert load_model(directory)[0].content_id == model_id

    @pytest.mark.parametrize("field", ["doppler_variances", "delay_variances"])
    def test_non_finite_kronecker_factor_rejected(self, field):
        factors = {"doppler_variances": np.ones((2, 4)), "delay_variances": np.ones((2, 5))}
        factors[field][1, 2] = np.inf
        with pytest.raises(InvalidArgumentError):
            SbgmModel(weights=np.array([0.4, 0.6]), variance_form="kronecker", **factors)
