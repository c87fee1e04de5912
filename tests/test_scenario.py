import math

import numpy as np
import pytest

from chansbgm.dictionary import (
    AngleGrid,
    DelayDopplerGrid,
    SystemConfig,
    build_ofdm_dictionary,
    ula_matrix,
    vectorize_channel,
)
from chansbgm.errors import InvalidArgumentError, NumericError
from chansbgm.scenario import (
    AngleComponent,
    AngleProfile,
    ObservationSet,
    OfdmScenario,
    _laplacian_nodes,
    _reference_gauss_legendre,
    draw_ofdm_channel,
    draw_simo_channel,
    evaluate_ofdm_channel,
    laplacian_local_covariance,
    make_observations,
    normalization_scale,
    random_pilots,
    row_energies,
    sample_angle,
    simo_channels,
    simo_ground_truth,
)
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

    @pytest.mark.parametrize(
        "component",
        [(math.nan, 0.1, 1.0), (0.0, math.inf, 1.0), (0.0, 0.1, math.nan),
         (math.nan, 0.0, 1.0)],
        ids=["nan-center", "infinite-width", "nan-weight", "nan-point-mass"],
    )
    def test_non_finite_component_rejected(self, component):
        # a NaN center would pass the support test and then never leave
        # sample_angle's rejection loop
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            AngleProfile((AngleComponent(*component),))


class TestGaussLegendreNodes:
    # counts of both parities; _laplacian_nodes takes count // 2 >= 32
    COUNTS = [32, 33, 64, 65, 512, 1023, 1024]

    @pytest.mark.parametrize("count", COUNTS)
    def test_matches_leggauss(self, count):
        # measured: nodes within 1.1e-16 at every count; weights within
        # 1.7e-12 relative up to 65 and 2.8e-9 (at 1023) above. leggauss
        # errs as much at the endpoint weights, so this is agreement, not
        # accuracy
        x, w = _reference_gauss_legendre(count)
        x_ref, w_ref = np.polynomial.legendre.leggauss(count)
        assert np.abs(x - x_ref).max() <= 4.4e-16
        assert (np.abs(w - w_ref) / w_ref).max() <= (1e-11 if count <= 65 else 1e-8)

    @pytest.mark.parametrize("count", COUNTS)
    def test_integrates_polynomials_exactly(self, count):
        # sum_j w_j x_j^k = 2 / (k + 1) for even k < 2 count and 0 for odd k;
        # measured error at most 4.0e-14
        x, w = _reference_gauss_legendre(count)
        k = np.arange(2 * count)
        exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        assert np.abs(w @ np.vander(x, 2 * count, increasing=True) - exact).max() <= 1e-13

    @pytest.mark.parametrize("count", COUNTS)
    def test_symmetric_ascending_and_weights_sum_to_two(self, count):
        # measured: the weights sum to 2 within 4.0e-14
        x, w = _reference_gauss_legendre(count)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert abs(w.sum() - 2.0) <= 1e-13


class TestLaplacianCovariance:
    def test_hermitian_and_psd(self):
        cov = laplacian_local_covariance(np.array([0.3]), math.radians(2.0), 16)[0]
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(cov)
        assert eigvals.min() >= -1e-10

    def test_trace_matches_density_mass(self):
        n = 16
        cov = laplacian_local_covariance(
            np.array([0.2]), math.radians(2.0), n, quadrature_points=2048
        )[0]
        # every diagonal entry integrates the bare density, and the mass
        # inside the ten-sigma window is 1 - exp(-10 sqrt(2))
        mass = 1.0 - math.exp(-10.0 * math.sqrt(2.0))
        assert abs(np.trace(cov).real - n * mass) < 1e-9 * n

    def test_narrow_density_approaches_rank_one(self):
        center, n = -0.4, 8
        cov = laplacian_local_covariance(np.array([center]), 1e-9, n)[0]
        steer = ula_matrix(np.array([center]), n)[:, 0]
        normalized = cov * (n / np.trace(cov).real)
        np.testing.assert_allclose(normalized, np.outer(steer, steer.conj()), atol=1e-8)

    def test_diagonal_entries_equal(self):
        cov = laplacian_local_covariance(np.array([0.0]), math.radians(2.0), 16)[0]
        diag = np.diag(cov).real
        np.testing.assert_allclose(diag, diag[0], rtol=1e-12)

    def test_stack_rows_equal_scalar_calls(self):
        # each row of a stack is the block of its one center
        centers = np.random.default_rng(0).uniform(-1.3, 1.3, 9)
        stack = laplacian_local_covariance(centers, STD, 16, quadrature_points=256)
        assert stack.shape == (9, 16, 16)
        for center, cov in zip(centers, stack):
            single = laplacian_local_covariance(np.array([center]), STD, 16, 256)[0]
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

    @pytest.mark.parametrize("centers", [0.3, np.zeros((2, 1))], ids=["scalar", "2-D"])
    def test_centers_must_be_a_1d_array(self, centers):
        with pytest.raises(InvalidArgumentError, match="centers must be a 1-D array"):
            laplacian_local_covariance(centers, STD, 4)

    def test_quadrature_refinement_converges(self):
        coarse, fine = (
            laplacian_local_covariance(np.array([0.1]), math.radians(2.0), 12, quadrature_points=q)
            for q in (2048, 4096)
        )
        assert np.linalg.norm(coarse - fine) < 1e-8


def _repeated_draws(cov, n, rng):
    """``n`` draws from one covariance, as a stack of ``n`` copies of it."""
    return draw_simo_channel(np.broadcast_to(cov, (n, *np.shape(cov))), rng)


class TestSimoChannelDraws:
    def test_zero_covariance_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        h = draw_simo_channel(np.zeros((1, 4, 4)), rng)
        np.testing.assert_array_equal(h, 0.0)

    def test_identity_covariance_unit_energy(self):
        rng = np.random.default_rng(1)
        draws = _repeated_draws(np.eye(2), 100_000, rng)
        energy = np.mean(np.abs(draws) ** 2, axis=0)
        np.testing.assert_allclose(energy, 1.0, atol=0.02)

    def test_rank_one_covariance_draws_proportional(self):
        rng = np.random.default_rng(2)
        a = ula_matrix(np.array([0.5]), 6)[:, 0]
        cov = np.outer(a, a.conj())
        draws = _repeated_draws(cov, 32, rng)
        # remove the component along a; the residual is jitter-level only
        coeff = draws @ a.conj() / (a.conj() @ a)
        residual = draws - np.outer(coeff, a)
        assert np.linalg.norm(residual) < 1e-4 * np.linalg.norm(draws)

    def test_circular_symmetry(self):
        rng = np.random.default_rng(3)
        cov = laplacian_local_covariance(np.array([0.2]), math.radians(2.0), 4)[0]
        draws = _repeated_draws(cov, 100_000, rng)
        re_var = np.var(draws.real, axis=0)
        im_var = np.var(draws.imag, axis=0)
        np.testing.assert_allclose(re_var, im_var, rtol=0.05)
        pseudo = draws.T @ draws / len(draws)
        assert np.abs(pseudo).max() < 5 * np.abs(cov).max() / math.sqrt(len(draws)) * 3

    def test_empirical_covariance_matches(self):
        rng = np.random.default_rng(4)
        cov = laplacian_local_covariance(np.array([-0.3]), math.radians(2.0), 4)[0]
        draws = _repeated_draws(cov, 100_000, rng)
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
        singles = np.stack([draw_simo_channel(cov[None], single_rng)[0] for cov in covs])
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state
        assert stacked.shape == (4, 16)
        np.testing.assert_allclose(stacked, singles, rtol=0, atol=1e-14 * np.abs(singles).max())

    def test_every_draw_uses_the_jittered_factor(self):
        a = ula_matrix(np.array([0.5]), 4)[:, 0]
        covs = np.stack([self._stack(4)[0], np.outer(a, a.conj())])  # definite, singular
        draws = draw_simo_channel(covs, np.random.default_rng(7))
        z = complex_standard_normal(np.random.default_rng(7), (2, 4))
        for cov, draw, normals in zip(covs, draws, z):
            jittered = cov + 1e-12 * (np.trace(cov).real / 4) * np.eye(4)
            expected = np.linalg.cholesky(jittered) @ normals
            np.testing.assert_allclose(draw, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("center", [-0.73, 0.48])
    def test_draws_are_continuous_in_a_singular_covariance(self, center):
        # a 2-degree covariance on 16 antennas is singular to round-off; raising
        # its real parts by one ulp moves the jittered factor by about 5e-6,
        # while switching between a plain and a jittered factor moves it by 2e-2
        cov = laplacian_local_covariance(np.array([center]), math.radians(2.0), 16)
        nudged = cov.real * (1 + 2.0**-52) + 1j * cov.imag
        first, second = (draw_simo_channel(c, np.random.default_rng(11)) for c in (cov, nudged))
        assert np.abs(first - second).max() < 1e-4

    @pytest.mark.parametrize(
        "covs", [np.eye(4), np.zeros((2, 4, 3))], ids=["one-matrix", "non-square"]
    )
    def test_covariances_must_be_a_stack(self, covs):
        with pytest.raises(InvalidArgumentError, match=r"covs must be an \(n, N, N\) stack"):
            draw_simo_channel(covs, np.random.default_rng(8))

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
        singles = np.stack([draw_simo_channel(cov[None], single_rng)[0] for cov in covs])
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state
        np.testing.assert_array_equal(stacked[1], 0.0)
        np.testing.assert_allclose(stacked, singles, rtol=0, atol=1e-14 * np.abs(singles).max())
        untouched = np.random.default_rng(9)
        draw_simo_channel(np.zeros((3, 4, 4)), untouched)
        assert untouched.bit_generator.state == np.random.default_rng(9).bit_generator.state


def simo_rows(*args):
    """The row blocks that ``simo_channels(*args)`` yields, stacked."""
    return np.concatenate(list(simo_channels(*args)))


class TestSimoDatasets:
    # samples and nodes per sample: the walk crosses blocks; 129 ends on a
    # lone row, which joins the block before it; 3000 nodes give 64-row blocks
    SIMO_WALKS = [(150, 1024), (129, 1024), (150, 3000)]

    def test_channels_equal_per_sample_draws(self):
        profile = AngleProfile.street_canyons()
        for n_samples, q in self.SIMO_WALKS:
            channels = simo_rows(profile, STD, 8, n_samples, np.random.default_rng(10), q)
            rng = np.random.default_rng(10)
            angles = sample_angle(profile, rng, size=n_samples)
            expected = np.stack([
                draw_simo_channel(laplacian_local_covariance(np.array([angle]), STD, 8, q), rng)[0]
                for angle in angles
            ])
            assert np.array_equal(channels, expected), (n_samples, q)

    def test_ground_truth_matches_per_sample_reference(self):
        profile, grid, n = AngleProfile.street_canyons(), AngleGrid(64), 8
        spacing = math.pi / grid.size
        for n_samples, q in [(300, 1024), *self.SIMO_WALKS[1:]]:
            channels, coefficients = simo_ground_truth(
                profile, STD, grid, n, n_samples, np.random.default_rng(11), quadrature_points=q
            )
            rng = np.random.default_rng(11)
            angles = sample_angle(profile, rng, size=n_samples)
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

    @pytest.mark.parametrize("block_elements, group_rows", [(1, 16), (1 << 20, 16), (1 << 17, 5)])
    def test_bytes_independent_of_block_and_group_size(self, monkeypatch, block_elements,
                                                       group_rows):
        # 300 samples at 1024 nodes: blocks of 128 rows by default, 64 at the
        # smallest block, one block at 2**20; groups of 16 rows or of 5
        import chansbgm.scenario as scenario_module
        import chansbgm.utils as utils_module

        profile, grid = AngleProfile.street_canyons(), AngleGrid(64)

        def draws():
            channels = simo_rows(profile, STD, 8, 300, np.random.default_rng(13), 1024)
            truth = simo_ground_truth(profile, STD, grid, 8, 300, np.random.default_rng(14))
            return [a.tobytes() for a in (channels, *truth)]

        default = draws()
        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", block_elements)
        monkeypatch.setattr(scenario_module, "_STEERING_GROUP_ROWS", group_rows)
        assert len(utils_module.row_blocks(300, 1024)) == {1: 5, 1 << 20: 1, 1 << 17: 3}[
            block_elements]
        assert draws() == default

    def test_no_samples_give_empty_arrays(self):
        profile, rng = AngleProfile.street_canyons(), np.random.default_rng(15)
        assert simo_rows(profile, STD, 8, 0, rng, 256).shape == (0, 8)
        channels, coefficients = simo_ground_truth(profile, STD, AngleGrid(16), 8, 0, rng)
        assert channels.shape == (0, 8) and coefficients.shape == (0, 16)

    @pytest.mark.parametrize("count", [0, -4, 63])
    def test_too_few_quadrature_points_rejected(self, count):
        profile, rng = AngleProfile.street_canyons(), np.random.default_rng(12)
        with pytest.raises(InvalidArgumentError, match="quadrature_points must be >= 64"):
            simo_rows(profile, STD, 8, 5, rng, count)
        with pytest.raises(InvalidArgumentError, match="quadrature_points must be >= 64"):
            simo_ground_truth(profile, STD, AngleGrid(16), 8, 5, rng, quadrature_points=count)


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

    def test_default_ranges_follow_the_bounds(self):
        grid = DelayDopplerGrid(4, 4, doppler_bound=300.0, delay_bound=5e-6)
        scenario = OfdmScenario(self.config, grid)
        assert scenario.delay_range_s == (0.0, 2.5e-6)
        assert scenario.doppler_range_hz == (-240.0, 240.0)
        given = OfdmScenario(self.config, grid, delay_range_s=[1e-7, 2e-6])
        assert given.delay_range_s == (1e-7, 2e-6)

    def test_draw_respects_path_budget(self):
        grid = DelayDopplerGrid(4, 4, doppler_bound=250.0, delay_bound=6e-6)
        scenario = OfdmScenario(self.config, grid, max_paths=2)
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
        # unit-modulus entries: every channel carries energy 4 at the 4 pilots
        channels = np.exp(1j * rng.uniform(0, 2 * math.pi, (50, 4)))
        obs = make_observations(channels, np.arange(4), (10.0, 10.0), rng)
        np.testing.assert_allclose(obs.noise_vars, 0.1, atol=1e-15)

    def test_snr_definition_self_consistent(self):
        rng = np.random.default_rng(2)
        channels = rng.standard_normal((200, 8)) + 1j * rng.standard_normal((200, 8))
        pilots = random_pilots(3, 8, rng)
        obs = make_observations(channels[:, pilots], pilots, (5.0, 20.0), rng)
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
        "pilots", [[1, 1], [-1, 2], [0.0, 1.0], [[0, 1]]],
        ids=["repeated", "negative", "float", "2-D"],
    )
    def test_malformed_pilots_rejected(self, pilots):
        rng = np.random.default_rng(5)
        with pytest.raises(InvalidArgumentError, match="pilots must be"):
            make_observations(np.ones((3, 2), dtype=complex), pilots, (0.0, 10.0), rng)

    def test_one_column_per_pilot(self):
        rng = np.random.default_rng(6)
        with pytest.raises(InvalidArgumentError, match="one column per pilot"):
            make_observations(np.ones((3, 4), dtype=complex), [0, 3], (0.0, 10.0), rng)

    def test_noise_added_in_place_keeps_the_bytes(self):
        # the noise is scaled in place and the entries added into it: the
        # bytes of scaling a copy and adding it to the row-contiguous
        # entries, also for column-major entries, whose row sums would round
        # otherwise (30 pilots: the sums are pairwise); on these draws the
        # mean row energy of the column-major entries differs in its last bit
        channels = np.random.default_rng(1).standard_normal((400, 40)) * (1 + 0.5j)
        pilots = np.random.default_rng(1001).permutation(40)[:30]
        rng = np.random.default_rng(9)
        compressed = channels.take(pilots, axis=1)
        snr_db = rng.uniform(0.0, 20.0, size=400)
        signal = float(np.mean(np.sum(np.abs(compressed) ** 2, axis=1)))
        noise_vars = signal / (30 * 10.0 ** (0.1 * snr_db))
        noise = complex_standard_normal(rng, (400, 30)) * np.sqrt(noise_vars)[:, None]
        for entries in (compressed, channels[:, pilots]):
            obs = make_observations(entries, pilots, (0.0, 20.0), np.random.default_rng(9))
            assert obs.noise_vars.tobytes() == noise_vars.tobytes()
            assert obs.samples.tobytes() == (compressed + noise).tobytes()

    @pytest.mark.parametrize(
        "snr_db", [[1.0, 2.0], [1.0, np.nan, 2.0], [[1.0, 2.0, 3.0]]],
        ids=["short", "nan", "2-D"],
    )
    def test_malformed_snr_db_rejected(self, snr_db):
        obs = make_observations(np.ones((3, 2), dtype=complex), [3, 1], (0.0, 10.0),
                                np.random.default_rng(7))
        with pytest.raises(InvalidArgumentError, match="snr_db"):
            ObservationSet(obs.samples, obs.noise_vars, obs.pilots, snr_db)
        assert ObservationSet(obs.samples, obs.noise_vars, obs.pilots).snr_db is None


class TestNormalizeDataset:
    def test_already_normalized_gives_unit_scale(self):
        n = 6
        channels = np.eye(n, dtype=complex) * math.sqrt(n)
        assert normalization_scale(row_energies(channels), n) == pytest.approx(1.0)

    def test_scale_arithmetic(self):
        n = 4
        channels = np.full((10, n), 2.0, dtype=complex)  # per-sample energy 4n
        assert normalization_scale(row_energies(channels), n) == pytest.approx(0.5)

    def test_target_energy_reached(self):
        rng = np.random.default_rng(0)
        channels = 3.7 * (rng.standard_normal((100, 336)) + 1j * rng.standard_normal((100, 336)))
        scaled = channels * normalization_scale(row_energies(channels), 336)
        assert abs(np.mean(np.sum(np.abs(scaled) ** 2, axis=1)) - 336) < 1e-10

    def test_zero_dataset_rejected(self):
        with pytest.raises(InvalidArgumentError, match="cannot normalize an all-zero dataset"):
            normalization_scale(row_energies(np.zeros((3, 2), dtype=complex)), 2)
