import json
import math

import numpy as np
import pytest

from chansbgm import (
    AngleGrid,
    DelayDopplerGrid,
    ObservationSet,
    SbgmModel,
    SystemConfig,
    build_ofdm_dictionary,
    build_simo_dictionary,
    csgmm_e_step,
    csgmm_fit,
    csgmm_m_step,
    kronecker_m_step,
    kronecker_q_objective,
    load_model,
    make_observations,
    msbl_fit,
    posterior_moments,
    sample_parameters,
    save_model,
    total_log_likelihood,
)
from chansbgm.em import GAMMA_FLOOR, _component_sums, _ComponentCache, _e_step, _log_sum_exp
from chansbgm.errors import InvalidArgumentError
from chansbgm.utils import complex_standard_normal


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


def fit_loop_sums(model, obs, dictionary, resp=None):
    """The totals and statistic sums the EM loop feeds its M-step."""
    caches, e_resp, _ = _e_step(model, obs.observed_rows(dictionary.matrix), obs)
    resp = e_resp if resp is None else resp
    return _component_sums(resp, lambda k, r: caches[k].moment_sum(r))


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
                        np.eye(len(d.matrix))[obs.pilots],
                        d.matrix,
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
            totals, sums = fit_loop_sums(model, obs, d)
            np.testing.assert_allclose(totals, resp.sum(axis=0), rtol=1e-12)
            for k in range(3):
                np.testing.assert_allclose(sums[k], resp[:, k] @ stats[k], rtol=1e-10)
                for i in range(len(obs)):
                    moments = posterior_moments(
                        model.component_variances(k),
                        obs.samples[i],
                        np.eye(len(d.matrix))[obs.pilots],
                        d.matrix,
                        obs.noise_vars[i],
                    )
                    expected = np.abs(moments.mean) ** 2 + moments.cov_diag
                    np.testing.assert_allclose(stats[k, i], expected, atol=1e-10)


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
        # the fit loop takes the same row, with total 1, from M x M statistics
        d = simo_setup()
        obs = synthetic_observations(d, 8, seed=3)
        e_model = random_model(rng, 2, d.n_columns)
        _, stats = csgmm_e_step(e_model, obs, d)
        totals, sums = fit_loop_sums(e_model, obs, d, resp)
        np.testing.assert_array_equal(totals, [8.0, 1.0])
        np.testing.assert_allclose(sums[0], resp[:, 0] @ stats[0], rtol=1e-10)
        np.testing.assert_allclose(sums[1], stats[1, worst], rtol=1e-10)

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
                values.append(
                    kronecker_q_objective(resp, stats, model.weights, init_t, init_f)
                )
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-8 * np.abs(np.array(values[:-1])))

    def test_objective_matches_naive_evaluation(self):
        rng = np.random.default_rng(3)
        resp, stats = self.make_stats(rng, 7, 2, 3, 4)
        model = kronecker_m_step(resp, stats, 3, 4, coord_iters=2)
        value = kronecker_q_objective(
            resp, stats, model.weights, model.doppler_variances, model.delay_variances
        )
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
    def test_loglik_trace_monotone(self):
        d = simo_setup(s=24, n_antennas=8)
        obs = synthetic_observations(d, 60, seed=10)
        for k in (1, 2, 4):
            _, trace = csgmm_fit(obs, d, k, max_iters=40, seed=k)
            assert trace.is_monotone(1e-8), f"K={k} trace decreased"

    def test_trace_matches_total_log_likelihood(self):
        d = simo_setup()
        obs = synthetic_observations(d, 30, seed=11)
        model, trace = csgmm_fit(obs, d, 2, max_iters=15, seed=0)
        final = total_log_likelihood(model, obs, d)
        # the last E-step evaluated the model that was returned, also when
        # the fit stopped at max_iters
        assert not trace.converged
        assert final == pytest.approx(trace.log_likelihoods[-1], rel=1e-12)

    def test_msbl_is_single_component_fit(self):
        d = simo_setup()
        obs = synthetic_observations(d, 40, seed=12)
        m1, t1 = msbl_fit(obs, d, max_iters=25, seed=3)
        m2, t2 = csgmm_fit(obs, d, 1, max_iters=25, seed=3)
        np.testing.assert_array_equal(m1.variances, m2.variances)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(t1.log_likelihoods, t2.log_likelihoods)

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
        batch = sample_parameters(truth, 2000, np.random.default_rng(14))
        channels = batch.sparse @ d.matrix.T
        obs = make_observations(
            channels, np.arange(16), (15.0, 20.0), np.random.default_rng(15)
        )
        model, _ = csgmm_fit(obs, d, 2, max_iters=150, seed=1)
        weights = np.sort(model.weights)
        np.testing.assert_allclose(weights, [0.3, 0.7], atol=0.05)

    @pytest.mark.parametrize(
        "option, value",
        [("max_iters", 0), ("kron_sweeps", 0), ("rel_tol", 0.0), ("clip_floor", 0.0)],
    )
    def test_out_of_range_option_rejected(self, option, value):
        d = simo_setup()
        obs = synthetic_observations(d, 10, seed=17)
        with pytest.raises(InvalidArgumentError):
            csgmm_fit(obs, d, 1, seed=0, **{option: value})

    def test_kronecker_fit_monotone_and_structured(self):
        grid = DelayDopplerGrid(4, 4, doppler_bound=200.0, delay_bound=4e-6)
        config = SystemConfig.ofdm(5, 4, 15e3, 1e-3 / 14)
        d = build_ofdm_dictionary(grid, config)
        rng = np.random.default_rng(16)
        coeff = complex_standard_normal(rng, (50, 16)) * rng.uniform(0, 1, (50, 16))
        channels = coeff @ d.matrix.T
        obs = make_observations(channels, np.arange(20), (5.0, 20.0), rng)
        model, trace = csgmm_fit(
            obs, d, 2, variance_form="kronecker", max_iters=30, seed=2
        )
        assert model.doppler_variances.shape == (2, 4)
        assert model.delay_variances.shape == (2, 4)
        assert trace.is_monotone(1e-8)


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

        w = obs.observed_rows(d.matrix)
        log_marg = np.column_stack(
            [
                _ComponentCache(model.variances[k], w).log_marginals(
                    obs.samples, obs.noise_vars
                )
                for k in range(3)
            ]
        )
        expected = float(
            np.sum(logsumexp(log_marg + np.log(model.weights)[None, :], axis=1))
        )
        assert total_log_likelihood(model, obs, d) == pytest.approx(expected, rel=1e-12)

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
        got = _ComponentCache(gamma, w).log_marginals(samples, sigma2s)
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
