import json
import math

import numpy as np
import pytest

from chansbgm.dictionary import (
    AngleGrid,
    DelayDopplerGrid,
    SystemConfig,
    build_dictionary,
    build_ofdm_dictionary,
    build_simo_dictionary,
    grid_from_json,
    grid_to_json,
    load_dictionary,
    ula_matrix,
    vectorize_channel,
)
from chansbgm.errors import InvalidArgumentError
from chansbgm.utils import complex_standard_normal


def small_ofdm_setup():
    grid = DelayDopplerGrid(doppler_size=4, delay_size=4, doppler_bound=200.0, delay_bound=4e-6)
    config = SystemConfig.ofdm(
        n_subcarriers=5, n_symbols=3, subcarrier_spacing=15e3, symbol_duration=1e-3 / 14
    )
    return grid, config


class TestSteeringVector:
    """Closed forms of the ULA steering columns of ``ula_matrix``."""

    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(ula_matrix(np.array([0.0]), 4)[:, 0], np.ones(4))

    def test_endfire_alternates_sign(self):
        np.testing.assert_allclose(
            ula_matrix(np.array([math.pi / 2]), 2)[:, 0], [1.0, -1.0], atol=1e-15
        )

    def test_thirty_degrees_closed_form(self):
        # sin(pi/6) = 1/2, so entries walk the quarter circle
        np.testing.assert_allclose(
            ula_matrix(np.array([math.pi / 6]), 3)[:, 0], [1.0, -1j, -1.0], atol=1e-15
        )

    def test_first_entry_always_one(self):
        rng = np.random.default_rng(0)
        angles = rng.uniform(-math.pi / 2, math.pi / 2, 20)
        assert np.all(ula_matrix(angles, 7)[0] == 1.0 + 0.0j)


class TestAngleGrid:
    def test_points_span_half_circle(self):
        grid = AngleGrid(size=8)
        pts = grid.points
        assert pts[0] == -math.pi / 2
        assert pts[-1] == pytest.approx(math.pi / 2 - math.pi / 8)
        np.testing.assert_allclose(np.diff(pts), math.pi / 8)
        assert np.all(np.diff(pts) > 0)

    def test_rejects_odd_size(self):
        with pytest.raises(InvalidArgumentError):
            AngleGrid(size=7)

    def test_capacity_limit(self):
        AngleGrid(65536)
        with pytest.raises(InvalidArgumentError, match="exceeding the limit of 65536"):
            AngleGrid(131072)


class TestSimoDictionary:
    def test_paper_scale_shape(self):
        d = build_simo_dictionary(AngleGrid(256), SystemConfig.simo(16))
        assert d.matrix.shape == (16, 256)

    def test_single_antenna_all_ones(self):
        d = build_simo_dictionary(AngleGrid(2), SystemConfig.simo(1))
        np.testing.assert_allclose(d.matrix, np.ones((1, 2)))

    def test_broadside_column(self):
        grid = AngleGrid(4)
        d = build_simo_dictionary(grid, SystemConfig.simo(2))
        col = np.flatnonzero(grid.points == 0.0)[0]
        np.testing.assert_allclose(d.matrix[:, col], [1.0, 1.0])

    def test_columns_are_steering_vectors(self):
        grid = AngleGrid(16)
        d = build_simo_dictionary(grid, SystemConfig.simo(6))
        for g, theta in enumerate(grid.points):
            steer = np.exp(-1j * math.pi * np.arange(6) * math.sin(theta))
            np.testing.assert_allclose(d.matrix[:, g], steer)

    def test_unit_modulus(self):
        d = build_simo_dictionary(AngleGrid(64), SystemConfig.simo(8))
        np.testing.assert_allclose(np.abs(d.matrix), 1.0, atol=1e-12)


class TestOfdmDictionary:
    def test_paper_scale_shape(self):
        grid = DelayDopplerGrid(40, 40, doppler_bound=250.0, delay_bound=6e-6)
        config = SystemConfig.ofdm(24, 14, 15e3, 1e-3 / 14)
        d = build_ofdm_dictionary(grid, config)
        assert d.matrix.shape == (336, 1600)
        d_t, d_f = d.factors
        assert d_t.shape == (14, 40)
        assert d_f.shape == (24, 40)

    def test_matrix_is_kron_of_factors(self):
        grid, config = small_ofdm_setup()
        d = build_ofdm_dictionary(grid, config)
        np.testing.assert_array_equal(d.matrix, np.kron(*d.factors))

    def test_on_grid_path_renders_its_column(self):
        from chansbgm.scenario import evaluate_ofdm_channel

        grid, config = small_ofdm_setup()
        d = build_ofdm_dictionary(grid, config)
        q, p = 1, 3
        h = evaluate_ofdm_channel(
            config, np.ones(1), grid.doppler_points[[q]], grid.delay_points[[p]]
        )
        np.testing.assert_allclose(
            vectorize_channel(h), d.matrix[:, q * grid.delay_size + p], atol=1e-14
        )

    def test_unit_modulus(self):
        grid, config = small_ofdm_setup()
        d = build_ofdm_dictionary(grid, config)
        np.testing.assert_allclose(np.abs(d.matrix), 1.0, atol=1e-12)

    def test_zero_delay_zero_doppler_column_is_ones(self):
        grid, config = small_ofdm_setup()
        d = build_ofdm_dictionary(grid, config)
        q = np.flatnonzero(grid.doppler_points == 0.0)[0]
        p = 0  # delay grid starts at exactly zero
        col = q * grid.delay_size + p
        np.testing.assert_allclose(d.matrix[:, col], np.ones(config.channel_dim), atol=1e-12)

    def test_entries_match_path_sum_evaluation(self):
        # every column equals the vectorized single-path channel matrix for
        # its grid tuple with unit gain
        grid = DelayDopplerGrid(2, 2, doppler_bound=100.0, delay_bound=2e-6)
        config = SystemConfig.ofdm(2, 2, 30e3, 1e-3 / 7)
        d = build_ofdm_dictionary(grid, config)
        assert d.matrix.shape == (4, 4)
        for q, doppler in enumerate(grid.doppler_points):
            for p, delay in enumerate(grid.delay_points):
                h = np.empty((2, 2), dtype=complex)
                for j in range(2):
                    for i in range(2):
                        h[j, i] = np.exp(
                            2j * math.pi * doppler * i * config.symbol_duration
                        ) * np.exp(-2j * math.pi * delay * j * config.subcarrier_spacing)
                col = q * grid.delay_size + p
                np.testing.assert_allclose(
                    d.matrix[:, col], vectorize_channel(h), atol=1e-12
                )

    def test_capacity_limit(self):
        DelayDopplerGrid(256, 256, doppler_bound=250.0, delay_bound=6e-6)
        with pytest.raises(InvalidArgumentError, match="exceeding the limit of 65536"):
            DelayDopplerGrid(256, 512, doppler_bound=250.0, delay_bound=6e-6)


PAPER_GRID = DelayDopplerGrid(40, 40, doppler_bound=250.0, delay_bound=6e-6)
# the default OFDM numerology and criterion 8's swapped one
PAPER_OFDM = SystemConfig.ofdm(24, 14, 15e3, 1e-3 / 14)
SWAPPED_OFDM = SystemConfig.ofdm(20, 18, 60e3, 1e-3 / 3.5)


class TestFactoredDictionary:
    @pytest.mark.parametrize("config", [PAPER_OFDM, SWAPPED_OFDM], ids=["default", "swapped"])
    def test_ofdm_apply_matches_the_dense_product(self, config):
        d = build_ofdm_dictionary(PAPER_GRID, config)
        s = complex_standard_normal(np.random.default_rng(0), (200, d.n_columns))
        dense = s @ d.matrix.T
        np.testing.assert_allclose(d.apply(s), dense, rtol=0, atol=1e-12 * np.abs(dense).max())

    def test_simo_apply_is_the_dense_product(self):
        d = build_simo_dictionary(AngleGrid(128), SystemConfig.simo(16))
        s = complex_standard_normal(np.random.default_rng(1), (300, 128))
        assert d.apply(s).tobytes() == (s @ d.matrix.T).tobytes()

    def test_apply_leading_rows_equal_the_whole_product(self):
        # the row-block contract of chansbgm.utils.row_blocks: a block's
        # rendered rows do not depend on where the block ends
        d = build_ofdm_dictionary(PAPER_GRID, PAPER_OFDM)
        s = complex_standard_normal(np.random.default_rng(2), (700, d.n_columns))
        whole = d.apply(s)
        for n in (1, 2, 63, 65, 655):
            assert d.apply(s[:n]).tobytes() == whole[:n].tobytes(), n

    @pytest.mark.parametrize("variant", ["simo", "ofdm"])
    def test_rows_are_the_matrix_rows(self, variant):
        if variant == "simo":
            d = build_simo_dictionary(AngleGrid(64), SystemConfig.simo(12))
        else:
            d = build_ofdm_dictionary(PAPER_GRID, PAPER_OFDM)
        pilots = np.random.default_rng(3).choice(d.config.channel_dim, 10, replace=False)
        assert d.rows(pilots).tobytes() == d.matrix[pilots].tobytes()

    @pytest.mark.parametrize(
        "pilots", [[0, 336], [-1, 2], [0.0, 1.0], [[0, 1]]],
        ids=["past-last-entry", "negative", "float", "2-D"],
    )
    def test_rows_reject_malformed_pilots(self, pilots):
        d = build_ofdm_dictionary(PAPER_GRID, PAPER_OFDM)
        with pytest.raises(InvalidArgumentError, match="pilots must be"):
            d.rows(pilots)

    def test_matrix_is_formed_once_and_read_only(self):
        d = build_ofdm_dictionary(*small_ofdm_setup())
        assert d.matrix is d.matrix
        assert not d.matrix.flags.writeable
        assert all(not factor.flags.writeable for factor in d.factors)


class TestSwapSystemConfig:
    def test_ofdm_swap_to_larger_spacing(self):
        grid = DelayDopplerGrid(40, 40, doppler_bound=250.0, delay_bound=6e-6)
        trained = build_ofdm_dictionary(grid, SystemConfig.ofdm(24, 14, 15e3, 1e-3 / 14))
        swapped = build_dictionary(trained.grid, SystemConfig.ofdm(20, 18, 60e3, 1e-3 / 3.5))
        assert swapped.matrix.shape == (360, 1600)
        assert swapped.grid == trained.grid

    def test_swap_to_identical_config_is_identity(self):
        grid, config = small_ofdm_setup()
        d = build_ofdm_dictionary(grid, config)
        again = build_dictionary(d.grid, config)
        np.testing.assert_allclose(again.matrix, d.matrix, atol=1e-12)

    def test_simo_antenna_growth_nests(self):
        grid = AngleGrid(32)
        d16 = build_simo_dictionary(grid, SystemConfig.simo(16))
        d32 = build_dictionary(d16.grid, SystemConfig.simo(32))
        np.testing.assert_allclose(d32.matrix[:16], d16.matrix, atol=1e-15)

    def test_round_trip_swap_restores_matrix(self):
        grid, config = small_ofdm_setup()
        d = build_ofdm_dictionary(grid, config)
        other = SystemConfig.ofdm(7, 4, 60e3, 1e-3 / 3.5)
        back = build_dictionary(build_dictionary(d.grid, other).grid, config)
        np.testing.assert_allclose(back.matrix, d.matrix, atol=1e-12)

    def test_domain_mismatch_rejected(self):
        grid, config = small_ofdm_setup()
        cases = [
            (build_simo_dictionary(AngleGrid(8), SystemConfig.simo(4)), config,
             "an angle grid needs a SIMO system config"),
            (build_ofdm_dictionary(grid, config), SystemConfig.simo(4),
             "a delay-Doppler grid needs an OFDM system config"),
        ]
        for d, other, message in cases:
            with pytest.raises(InvalidArgumentError, match=message):
                build_dictionary(d.grid, other)


class TestCovarianceStructure:
    def test_simo_covariance_is_toeplitz(self):
        from chansbgm.metrics import toeplitz_deviation

        rng = np.random.default_rng(7)
        d = build_simo_dictionary(AngleGrid(64), SystemConfig.simo(12))
        gamma = rng.uniform(0.0, 2.0, 64)
        cov = (d.matrix * gamma[None, :]) @ d.matrix.conj().T
        assert toeplitz_deviation(cov) < 1e-10 * np.abs(cov).max()

    def test_kron_variances_factor_the_covariance(self):
        from chansbgm.metrics import toeplitz_deviation

        rng = np.random.default_rng(8)
        grid, config = small_ofdm_setup()
        d = build_ofdm_dictionary(grid, config)
        gt = rng.uniform(0.1, 2.0, grid.doppler_size)
        gf = rng.uniform(0.1, 2.0, grid.delay_size)
        gamma = np.kron(gt, gf)
        cov = (d.matrix * gamma[None, :]) @ d.matrix.conj().T
        d_t, d_f = d.factors
        cov_t = (d_t * gt[None, :]) @ d_t.conj().T
        cov_f = (d_f * gf[None, :]) @ d_f.conj().T
        np.testing.assert_allclose(cov, np.kron(cov_t, cov_f), atol=1e-10)
        assert toeplitz_deviation(cov_t) < 1e-10 * np.abs(cov_t).max()
        assert toeplitz_deviation(cov_f) < 1e-10 * np.abs(cov_f).max()


def through_json(document):
    """The document as it reads back from a JSON file."""
    return json.loads(json.dumps(document))


class TestSerialization:
    def test_simo_round_trip(self):
        d = build_simo_dictionary(AngleGrid(16), SystemConfig.simo(4))
        loaded = load_dictionary(
            through_json(grid_to_json(d.grid)), through_json(d.config.to_json())
        )
        np.testing.assert_array_equal(loaded.matrix, d.matrix)
        assert loaded.grid == d.grid
        assert loaded.config == d.config

    def test_ofdm_round_trip(self):
        grid, config = small_ofdm_setup()
        d = build_ofdm_dictionary(grid, config)
        loaded = load_dictionary(through_json(grid_to_json(grid)), through_json(config.to_json()))
        np.testing.assert_array_equal(loaded.matrix, d.matrix)
        for loaded_factor, factor in zip(loaded.factors, d.factors, strict=True):
            np.testing.assert_array_equal(loaded_factor, factor)
        assert loaded.grid == d.grid
        assert loaded.config == d.config

    @pytest.mark.parametrize(
        "doc",
        [
            {"variant": "simo", "n_antennas": 16.5},
            {"variant": "simo", "n_antennas": True},
            {"variant": "simo", "n_antennas": "16"},
            {"variant": "simo", "n_antennas": 16, "n_rx": 1},
            {"variant": "simo"},
            ["simo", 16],
        ],
    )
    def test_malformed_system_document_rejected(self, doc):
        with pytest.raises(InvalidArgumentError):
            SystemConfig.from_json(doc)

    def test_integral_float_fields_read_as_integers(self):
        config = SystemConfig.from_json({"variant": "simo", "n_antennas": 16.0})
        assert config == SystemConfig.simo(16)
        assert type(config.n_antennas) is int
        grid = grid_from_json(
            {"kind": "delay_doppler", "doppler_size": 4.0, "delay_size": 4,
             "doppler_bound": 200, "delay_bound": 4e-6}
        )
        assert type(grid.doppler_size) is int
        assert grid == DelayDopplerGrid(4, 4, doppler_bound=200.0, delay_bound=4e-6)
