import math

import numpy as np
import pytest

from chansbgm import (
    AngleComponent,
    AngleProfile,
    DelayDopplerGrid,
    OfdmScenario,
    SystemConfig,
    build_ofdm_dictionary,
    draw_ofdm_channel,
    draw_simo_channel,
    evaluate_ofdm_channel,
    laplacian_local_covariance,
    make_observations,
    normalize_dataset,
    random_pilots,
    sample_angle,
    simo_channels,
    simo_ground_truth,
    steering_vector_ula,
    ula_matrix,
    vectorize_channel,
)
from chansbgm.dictionary import AngleGrid
from chansbgm.errors import InvalidArgumentError, NumericError
from chansbgm.scenario import _laplacian_nodes
from chansbgm.utils import complex_standard_normal

STD = math.radians(2.0)


class TestAngleProfile:
    def test_degenerate_component_always_returns_center(self):
        profile = AngleProfile((AngleComponent(center=0.0, half_width=0.0, weight=1.0),))
        rng = np.random.default_rng(0)
        draws = sample_angle(profile, rng, size=50)
        np.testing.assert_array_equal(draws, 0.0)

    def test_default_profile_has_four_regions(self):
        profile = AngleProfile.street_canyons()
        assert len(profile.components) == 4

    def test_component_frequencies_match_weights(self):
        profile = AngleProfile.street_canyons()
        rng = np.random.default_rng(1)
        draws = sample_angle(profile, rng, size=100_000)
        for comp in profile.components:
            frac = np.mean(np.abs(draws - comp.center) <= comp.half_width)
            assert abs(frac - 0.25) < 0.02

    def test_samples_stay_inside_component_supports(self):
        profile = AngleProfile.street_canyons()
        rng = np.random.default_rng(2)
        draws = sample_angle(profile, rng, size=10_000)
        assert np.all(profile.support_mask(draws))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidArgumentError):
            AngleProfile((AngleComponent(0.0, 0.1, 0.5),))


class TestLaplacianCovariance:
    def test_hermitian_and_psd(self):
        cov = laplacian_local_covariance(0.3, math.radians(2.0), 16)
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(cov)
        assert eigvals.min() >= -1e-10

    def test_trace_matches_density_mass(self):
        n = 16
        cov = laplacian_local_covariance(0.2, math.radians(2.0), n, quadrature_points=2048)
        # every diagonal entry integrates the bare density, and the mass
        # inside the ten-sigma window is 1 - exp(-10 sqrt(2))
        mass = 1.0 - math.exp(-10.0 * math.sqrt(2.0))
        assert abs(np.trace(cov).real - n * mass) < 1e-9 * n

    def test_narrow_density_approaches_rank_one(self):
        center, n = -0.4, 8
        cov = laplacian_local_covariance(center, 1e-9, n)
        steer = steering_vector_ula(center, n)
        normalized = cov * (n / np.trace(cov).real)
        np.testing.assert_allclose(normalized, np.outer(steer, steer.conj()), atol=1e-8)

    def test_diagonal_entries_equal(self):
        cov = laplacian_local_covariance(0.0, math.radians(2.0), 16)
        diag = np.diag(cov).real
        np.testing.assert_allclose(diag, diag[0], rtol=1e-12)

    def test_stack_rows_equal_scalar_calls(self):
        centers = np.random.default_rng(0).uniform(-1.3, 1.3, 9)
        stack = laplacian_local_covariance(centers, STD, 16, quadrature_points=256)
        assert stack.shape == (9, 16, 16)
        for center, cov in zip(centers, stack):
            single = laplacian_local_covariance(center, STD, 16, quadrature_points=256)
            assert np.array_equal(cov, single)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_matches_steering_product(self, n):
        centers = np.array([-1.2, -0.35, 0.0, 0.7, 1.45])
        stack = laplacian_local_covariance(centers, STD, n)
        for center, cov in zip(centers, stack):
            theta, weights = _laplacian_nodes([center], STD, 2048)
            steer = ula_matrix(theta[0], n)
            reference = (steer * weights[0]) @ steer.conj().T
            assert np.abs(cov - reference).max() < 1e-13 * np.abs(reference).max()

    def test_exactly_hermitian_toeplitz(self):
        for cov in laplacian_local_covariance(np.array([-0.9, 0.1, 1.1]), STD, 16):
            assert np.array_equal(cov, cov.conj().T)
            assert np.array_equal(cov[1:, 1:], cov[:-1, :-1])

    def test_quadrature_refinement_converges(self):
        coarse = laplacian_local_covariance(0.1, math.radians(2.0), 12, quadrature_points=2048)
        fine = laplacian_local_covariance(0.1, math.radians(2.0), 12, quadrature_points=4096)
        assert np.linalg.norm(coarse - fine) < 1e-8


class TestSimoChannelDraws:
    def test_zero_covariance_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        h = draw_simo_channel(np.zeros((4, 4)), rng)
        np.testing.assert_array_equal(h, 0.0)

    def test_identity_covariance_unit_energy(self):
        rng = np.random.default_rng(1)
        draws = draw_simo_channel(np.eye(2), rng, size=100_000)
        energy = np.mean(np.abs(draws) ** 2, axis=0)
        np.testing.assert_allclose(energy, 1.0, atol=0.02)

    def test_rank_one_covariance_draws_proportional(self):
        rng = np.random.default_rng(2)
        a = steering_vector_ula(0.5, 6)
        cov = np.outer(a, a.conj())
        draws = draw_simo_channel(cov, rng, size=32)
        # remove the component along a; the residual is jitter-level only
        coeff = draws @ a.conj() / (a.conj() @ a)
        residual = draws - np.outer(coeff, a)
        assert np.linalg.norm(residual) < 1e-4 * np.linalg.norm(draws)

    def test_circular_symmetry(self):
        rng = np.random.default_rng(3)
        cov = laplacian_local_covariance(0.2, math.radians(2.0), 4)
        draws = draw_simo_channel(cov, rng, size=100_000)
        re_var = np.var(draws.real, axis=0)
        im_var = np.var(draws.imag, axis=0)
        np.testing.assert_allclose(re_var, im_var, rtol=0.05)
        pseudo = draws.T @ draws / len(draws)
        assert np.abs(pseudo).max() < 5 * np.abs(cov).max() / math.sqrt(len(draws)) * 3

    def test_empirical_covariance_matches(self):
        rng = np.random.default_rng(4)
        cov = laplacian_local_covariance(-0.3, math.radians(2.0), 4)
        draws = draw_simo_channel(cov, rng, size=100_000)
        emp = draws.T.conj() @ draws / len(draws)
        tol = 6 * np.abs(np.diag(cov)).max() / math.sqrt(len(draws))
        assert np.abs(emp.T - cov).max() < tol


    @staticmethod
    def _stack(n=16):
        centers = np.array([-1.0, -0.2, 0.4, 1.2])
        return laplacian_local_covariance(centers, math.radians(20.0), n)

    def test_stack_consumes_the_stream_of_single_draws(self):
        covs = self._stack()
        stacked_rng, single_rng = np.random.default_rng(5), np.random.default_rng(5)
        stacked = draw_simo_channel(covs, stacked_rng)
        singles = np.stack([draw_simo_channel(cov, single_rng) for cov in covs])
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state
        assert stacked.shape == (4, 16)
        np.testing.assert_allclose(stacked, singles, rtol=0, atol=1e-14 * np.abs(singles).max())

    def test_stack_factors_well_conditioned_covariances_without_jitter(self):
        covs = self._stack(4)
        assert np.linalg.eigvalsh(covs).min() > 1e-6
        draws = draw_simo_channel(covs, np.random.default_rng(6))
        z = complex_standard_normal(np.random.default_rng(6), (4, 4))
        expected = np.einsum("rij,rj->ri", np.linalg.cholesky(covs), z)
        np.testing.assert_allclose(draws, expected, rtol=0, atol=1e-14 * np.abs(expected).max())

    def test_jitter_only_for_the_singular_covariance(self):
        pd = self._stack(4)[0]
        a = steering_vector_ula(0.5, 4)
        singular = np.outer(a, a.conj())
        draws = draw_simo_channel(np.stack([pd, singular]), np.random.default_rng(7))
        z = complex_standard_normal(np.random.default_rng(7), (2, 4))
        jitter = lambda cov: cov + 1e-12 * np.trace(cov).real / 4 * np.eye(4)  # noqa: E731
        plain = np.linalg.cholesky(pd) @ z[0]
        np.testing.assert_allclose(draws[0], plain, rtol=0, atol=1e-15)
        assert np.abs(draws[0] - np.linalg.cholesky(jitter(pd)) @ z[0]).max() > 1e-15
        np.testing.assert_allclose(
            draws[1], np.linalg.cholesky(jitter(singular)) @ z[1], rtol=0, atol=1e-14
        )

    def test_indefinite_covariance_in_stack_raises(self):
        covs = self._stack(4)
        covs[2] = -covs[2]
        with pytest.raises(NumericError):
            draw_simo_channel(covs, np.random.default_rng(8))

    def test_zero_covariance_consumes_no_normals_alone_or_stacked(self):
        # a zero covariance draws zeros without touching the generator, so a
        # stack holding one draws what its rows drawn one at a time would
        covs = self._stack(4)
        covs[1] = 0.0
        stacked_rng, single_rng = np.random.default_rng(9), np.random.default_rng(9)
        stacked = draw_simo_channel(covs, stacked_rng)
        singles = np.stack([draw_simo_channel(cov, single_rng) for cov in covs])
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state
        np.testing.assert_array_equal(stacked[1], 0.0)
        np.testing.assert_allclose(stacked, singles, rtol=0, atol=1e-14 * np.abs(singles).max())
        untouched = np.random.default_rng(9)
        draw_simo_channel(np.zeros((3, 4, 4)), untouched)
        assert untouched.bit_generator.state == np.random.default_rng(9).bit_generator.state

    def test_size_needs_a_single_covariance(self):
        with pytest.raises(InvalidArgumentError):
            draw_simo_channel(self._stack(4), np.random.default_rng(0), size=3)


class TestSimoDatasets:
    def test_channels_equal_per_sample_draws(self):
        # more samples than one block of nodes, so the walk crosses blocks
        profile = AngleProfile.street_canyons()
        channels = simo_channels(profile, STD, 8, 150, np.random.default_rng(10), 1024)
        rng = np.random.default_rng(10)
        angles = sample_angle(profile, rng, size=150)
        expected = np.stack([
            draw_simo_channel(laplacian_local_covariance(angle, STD, 8, 1024), rng)
            for angle in angles
        ])
        assert np.array_equal(channels, expected)

    def test_ground_truth_matches_per_sample_reference(self):
        profile, grid, n, q = AngleProfile.street_canyons(), AngleGrid(64), 8, 1024
        channels, coefficients = simo_ground_truth(
            profile, STD, grid, n, 300, np.random.default_rng(11), quadrature_points=q
        )
        rng = np.random.default_rng(11)
        angles = sample_angle(profile, rng, size=300)
        spacing = math.pi / grid.size
        for i, angle in enumerate(angles):
            theta, weights = (a[0] for a in _laplacian_nodes([angle], STD, q))
            gains = np.sqrt(weights) * complex_standard_normal(rng, q)
            nearest = np.clip(
                np.round((theta - grid.points[0]) / spacing).astype(int), 0, grid.size - 1
            )
            expected = np.zeros(grid.size, dtype=complex)
            np.add.at(expected, nearest, gains)
            assert np.array_equal(coefficients[i], expected)
            channel = ula_matrix(theta, n) @ gains
            assert np.abs(channels[i] - channel).max() < 1e-13 * np.abs(channel).max()


class TestOfdmChannelDraws:
    def setup_method(self):
        self.config = SystemConfig.ofdm(8, 6, 15e3, 1e-3 / 14)

    def test_single_static_path_gives_all_ones(self):
        h = evaluate_ofdm_channel(self.config, np.array([1.0]), np.array([0.0]), np.array([0.0]))
        np.testing.assert_allclose(h, np.ones((8, 6)))

    def test_one_symbol_delay_gives_dft_column(self):
        delay = 1.0 / (8 * 15e3)
        h = evaluate_ofdm_channel(self.config, np.array([1.0]), np.array([0.0]), np.array([delay]))
        assert np.linalg.matrix_rank(h) == 1
        expected = np.exp(-2j * math.pi * np.arange(8) / 8)
        np.testing.assert_allclose(h[:, 0], expected, atol=1e-12)

    def test_rank_bounded_by_path_count(self):
        rng = np.random.default_rng(0)
        h = evaluate_ofdm_channel(
            self.config,
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
            rng.uniform(-100, 100, 3),
            rng.uniform(0, 2e-6, 3),
        )
        assert np.linalg.matrix_rank(h) <= 3

    def test_draw_respects_path_budget(self):
        scenario = OfdmScenario(config=self.config, max_paths=2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = draw_ofdm_channel(scenario, rng)
            assert h.shape == (8, 6)
            assert np.linalg.matrix_rank(h) <= 2

    def test_grid_snapped_paths_match_dictionary(self):
        # channels whose parameters sit exactly on grid points must equal
        # the dictionary applied to the coefficient vector holding the gains
        grid = DelayDopplerGrid(4, 4, doppler_bound=200.0, delay_bound=4e-6)
        d = build_ofdm_dictionary(grid, self.config)
        rng = np.random.default_rng(6)
        q_idx, p_idx = [0, 2, 3], [1, 0, 2]
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h = evaluate_ofdm_channel(
            self.config,
            gains,
            grid.doppler_points[q_idx],
            grid.delay_points[p_idx],
        )
        s = np.zeros(grid.size, dtype=complex)
        for g, q, p in zip(gains, q_idx, p_idx):
            s[q * grid.delay_size + p] += g
        np.testing.assert_allclose(vectorize_channel(h), d.matrix @ s, atol=1e-10)


class TestSelectionMatrix:
    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(0)
        picks = random_pilots(5, 5, rng)
        np.testing.assert_array_equal(np.sort(picks), np.arange(5))
        np.testing.assert_array_equal(np.bincount(picks, minlength=5), np.ones(5))

    def test_distinct_indices(self):
        rng = np.random.default_rng(1)
        picked = random_pilots(30, 336, rng)
        assert len(np.unique(picked)) == 30

    def test_single_pick_is_uniform(self):
        rng = np.random.default_rng(2)
        picks = [random_pilots(1, 2, rng)[0] for _ in range(10_000)]
        assert abs(np.mean(picks) - 0.5) < 0.02

    def test_rejects_oversized_selection(self):
        with pytest.raises(InvalidArgumentError):
            random_pilots(5, 4, np.random.default_rng(0))


class TestObservations:
    def test_noiseless_limit(self):
        rng = np.random.default_rng(0)
        channels = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
        obs = make_observations(channels, np.arange(6), (300.0, 300.0), rng)
        rel = np.abs(obs.samples - channels).max() / np.abs(channels).max()
        assert rel < 1e-10

    def test_fixed_snr_noise_variance(self):
        rng = np.random.default_rng(1)
        channels = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        obs = make_observations(
            channels, np.arange(4), (10.0, 10.0), rng, signal_energy=4.0
        )
        np.testing.assert_allclose(obs.noise_vars, 0.1, atol=1e-15)

    def test_snr_definition_self_consistent(self):
        rng = np.random.default_rng(2)
        channels = rng.standard_normal((200, 8)) + 1j * rng.standard_normal((200, 8))
        pilots = random_pilots(3, 8, rng)
        obs = make_observations(channels, pilots, (5.0, 20.0), rng)
        energy = np.mean(np.sum(np.abs(channels[:, pilots]) ** 2, axis=1))
        recomputed = 10 * np.log10(energy / (3 * obs.noise_vars))
        np.testing.assert_allclose(recomputed, obs.snr_db, atol=1e-9)

    def test_noise_is_circular(self):
        rng = np.random.default_rng(3)
        channels = np.zeros((100_000, 2), dtype=complex)
        channels[:, 0] = 1.0  # fixed deterministic signal
        obs = make_observations(channels, np.arange(2), (0.0, 0.0), rng)
        noise = obs.samples - channels
        assert abs(np.var(noise.real) - np.var(noise.imag)) < 0.01
        pseudo = np.mean(noise**2)
        assert abs(pseudo) < 5 * obs.noise_vars[0] / math.sqrt(len(channels)) * 3

    def test_zero_energy_dataset_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidArgumentError, match="no energy at the pilots"):
            make_observations(np.zeros((5, 4), dtype=complex), np.arange(4), (0.0, 10.0), rng)

    @pytest.mark.parametrize(
        "pilots", [[0, 4], [1, 1], [-1, 2], [0.0, 1.0], [[0, 1]]],
        ids=["past-last-entry", "repeated", "negative", "float", "2-D"],
    )
    def test_malformed_pilots_rejected(self, pilots):
        rng = np.random.default_rng(5)
        with pytest.raises(InvalidArgumentError):
            make_observations(np.ones((3, 4), dtype=complex), pilots, (0.0, 10.0), rng)

    def test_observed_rows_gathers_pilot_rows(self):
        rng = np.random.default_rng(6)
        obs = make_observations(np.ones((3, 4), dtype=complex), [3, 1], (0.0, 10.0), rng)
        matrix = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(obs.observed_rows(matrix), matrix[[3, 1]])
        with pytest.raises(InvalidArgumentError):
            obs.observed_rows(matrix[:3])


class TestNormalizeDataset:
    def test_already_normalized_gives_unit_scale(self):
        n = 6
        channels = np.eye(n, dtype=complex) * math.sqrt(n)
        scaled, scale = normalize_dataset(channels)
        assert scale == pytest.approx(1.0)
        np.testing.assert_array_equal(scaled, channels)

    def test_scale_arithmetic(self):
        n = 4
        channels = np.full((10, n), 2.0, dtype=complex)  # per-sample energy 4n
        _, scale = normalize_dataset(channels)
        assert scale == pytest.approx(0.5)

    def test_target_energy_reached(self):
        rng = np.random.default_rng(0)
        channels = 3.7 * (rng.standard_normal((100, 336)) + 1j * rng.standard_normal((100, 336)))
        scaled, _ = normalize_dataset(channels)
        assert abs(np.mean(np.sum(np.abs(scaled) ** 2, axis=1)) - 336) < 1e-10

    def test_zero_dataset_rejected(self):
        with pytest.raises(InvalidArgumentError, match="cannot normalize an all-zero dataset"):
            normalize_dataset(np.zeros((3, 2), dtype=complex))
