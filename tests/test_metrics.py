import math

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

import chansbgm.utils as utils
from chansbgm.container import ArrayReader, write_array
from chansbgm.dictionary import AngleGrid
from chansbgm.errors import InvalidArgumentError
from chansbgm.metrics import (
    angular_spread,
    batch_angular_spreads,
    cosine_similarity,
    histogram_w1,
    nmse,
    power_angular_profile,
    profile_support_leakage,
    spread_histogram,
    toeplitz_deviation,
)


class TestPowerAngularProfile:
    def test_single_gridpoint_batch(self):
        vectors = np.zeros((5, 8), dtype=complex)
        vectors[:, 3] = 2.0 - 1.0j
        profile, skipped, _ = power_angular_profile(vectors)
        expected = np.zeros(8)
        expected[3] = 1.0
        np.testing.assert_allclose(profile, expected, atol=1e-15)
        assert skipped == 0

    def test_two_distinct_gridpoints(self):
        vectors = np.zeros((2, 4), dtype=complex)
        vectors[0, 1] = 1.0
        vectors[1, 2] = 5.0
        profile, _, _ = power_angular_profile(vectors)
        np.testing.assert_allclose(profile, [0.0, 0.5, 0.5, 0.0])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6))
        profile, _, _ = power_angular_profile(vectors)
        oracle = np.zeros(6)
        for i in range(10):
            norm = sum(abs(vectors[i, g]) ** 2 for g in range(6))
            for g in range(6):
                oracle[g] += abs(vectors[i, g]) ** 2 / norm
        oracle /= 10
        np.testing.assert_allclose(profile, oracle, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((50, 12)) * rng.uniform(0, 10, (50, 12))
        profile, _, _ = power_angular_profile(vectors)
        assert profile.sum() == pytest.approx(1.0, abs=1e-12)

    # with zero-norm rows, and without, which divides the powers unfiltered
    @pytest.mark.parametrize("size, zero_rows", [
        *(pytest.param(size, [3, 150, 151], id=str(size)) for size in (2, 5, 64)),
        *(pytest.param(size, [], id=f"{size}-all-kept") for size in (2, 5, 64)),
    ])
    def test_blocks_give_the_bits_of_one_mean(self, size, zero_rows, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((300, size)) + 1j * rng.standard_normal((300, size))
        vectors[zero_rows] = 0.0
        power = np.abs(vectors) ** 2
        norms = power.sum(axis=1)
        keep = norms > 0
        reference = np.mean(power[keep] / norms[keep, None], axis=0)
        # the angular pass, over the array and over its stored copy, in
        # 64-, 128- and 192-row blocks and in the default ones
        write_array(tmp_path / "v", vectors, role="test")
        for block_elements in (1, 128 * size, 192 * size, utils.BLOCK_ELEMENTS):
            monkeypatch.setattr(utils, "BLOCK_ELEMENTS", block_elements)
            for source in (vectors, ArrayReader(tmp_path / "v")):
                profile, skipped, spreads = power_angular_profile(source)
                assert profile.tobytes() == reference.tobytes()
                assert (skipped, spreads) == (len(zero_rows), None)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            power_angular_profile(np.zeros((0, 4), dtype=complex))

    def test_zero_norm_samples_skipped_and_counted(self):
        vectors = np.zeros((4, 3), dtype=complex)
        vectors[0, 1] = 1.0
        vectors[2, 2] = 1.0
        profile, skipped, _ = power_angular_profile(vectors)
        assert skipped == 2
        np.testing.assert_allclose(profile, [0.0, 0.5, 0.5])


class TestAngularSpread:
    def setup_method(self):
        self.grid = AngleGrid(8)

    def test_single_entry_has_zero_spread(self):
        s = np.zeros(8, dtype=complex)
        s[5] = 3.0j
        assert angular_spread(s, self.grid) == 0.0

    def test_symmetric_two_point_spread(self):
        grid = AngleGrid(8)  # contains -pi/4 and +pi/4
        s = np.zeros(8, dtype=complex)
        s[list(grid.points).index(-math.pi / 4)] = 1.0
        s[list(grid.points).index(math.pi / 4)] = 1.0
        assert angular_spread(s, grid) == pytest.approx(math.pi / 4)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        power = np.abs(s) ** 2
        mean = np.sum(self.grid.points * power) / power.sum()
        expected = math.sqrt(np.sum((self.grid.points - mean) ** 2 * power) / power.sum())
        assert angular_spread(s, self.grid) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_complex_scaling(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert angular_spread(1.7j * s, self.grid) == pytest.approx(
            angular_spread(s, self.grid), abs=1e-12
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidArgumentError, match="undefined for a zero vector"):
            angular_spread(np.zeros(8), self.grid)

    def test_coefficients_in_place_of_powers_rejected(self):
        vectors = np.ones((3, 8), dtype=complex)
        with pytest.raises(InvalidArgumentError, match="pass the powers"):
            batch_angular_spreads(vectors, self.grid)

    @pytest.mark.parametrize("zero_rows", [[3, 150, 151], []], ids=["skipped", "all-kept"])
    def test_batch_gives_the_bits_of_the_whole_array_formula(
        self, zero_rows, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(6)
        grid = AngleGrid(16)
        vectors = rng.standard_normal((300, 16)) + 1j * rng.standard_normal((300, 16))
        vectors[zero_rows] = 0.0
        power = np.abs(vectors) ** 2
        before = power.copy()
        totals = power.sum(axis=1)
        keep = totals > 0
        means = (power @ grid.points)[keep] / totals[keep]
        deviations = grid.points[None, :] - means[:, None]
        expected = np.sqrt(np.sum(deviations**2 * power[keep], axis=1) / totals[keep])
        spreads, skipped = batch_angular_spreads(power, grid)
        assert spreads.tobytes() == expected.tobytes()
        assert skipped == len(zero_rows)
        assert power.tobytes() == before.tobytes()
        write_array(tmp_path / "v", vectors, role="test")
        for block_elements in (1, utils.BLOCK_ELEMENTS):
            monkeypatch.setattr(utils, "BLOCK_ELEMENTS", block_elements)
            for source in (vectors, ArrayReader(tmp_path / "v")):
                _, skipped, spreads = power_angular_profile(source, grid)
                assert spreads.tobytes() == expected.tobytes()
                assert skipped == len(zero_rows)

    def test_profile_sums_and_checks_each_block_once(self, monkeypatch):
        import chansbgm.metrics as metrics_module

        real_row_powers, summed = metrics_module._row_powers, []

        def counted(power):
            summed.append(len(power))
            return real_row_powers(power)

        monkeypatch.setattr(metrics_module, "_row_powers", counted)
        monkeypatch.setattr(utils, "BLOCK_ELEMENTS", 1)
        rng = np.random.default_rng(7)
        vectors = rng.standard_normal((300, 16)) + 1j * rng.standard_normal((300, 16))
        power_angular_profile(vectors, AngleGrid(16))
        assert summed == [len(range(300)[rows]) for rows in utils.row_blocks(300, 16)]

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((20, 8)) + 1j * rng.standard_normal((20, 8))
        spreads, skipped = batch_angular_spreads(np.abs(vectors) ** 2, self.grid)
        assert skipped == 0
        for i in range(20):
            assert spreads[i] == pytest.approx(angular_spread(vectors[i], self.grid), abs=1e-12)


class TestChannelMetrics:
    def test_nmse_zero_for_identical(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert nmse(x, x) == 0.0

    def test_nmse_unit_contribution(self):
        n = 7
        truth = np.full((1, n), 1.0, dtype=complex)  # squared norm n
        assert nmse(np.zeros((1, n), dtype=complex), truth) == pytest.approx(1.0)

    def test_nmse_matches_elementwise_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        b = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        oracle = np.mean([np.sum(np.abs(a[i] - b[i]) ** 2) / 5 for i in range(9)])
        assert nmse(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_cosine_scale_and_phase_invariance(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert cosine_similarity((0.5 - 2j) * h, h) == pytest.approx(1.0)

    def test_cosine_orthogonal_pair(self):
        a = np.array([[1.0, 0.0]], dtype=complex)
        b = np.array([[0.0, 1.0]], dtype=complex)
        assert cosine_similarity(a, b) == 0.0

    def test_cosine_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        oracle = np.mean(
            [
                abs(np.vdot(a[i], b[i])) / (np.linalg.norm(a[i]) * np.linalg.norm(b[i]))
                for i in range(5)
            ]
        )
        assert cosine_similarity(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(InvalidArgumentError, match="undefined for zero vectors"):
            cosine_similarity(np.zeros((1, 3)), np.ones((1, 3)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            nmse(np.ones((2, 3)), np.ones((2, 4)))


def spread_w1(a, b):
    """The distance between the spread histograms of two value lists."""
    return histogram_w1(spread_histogram(a), spread_histogram(b))


class TestHistogramW1:
    def test_identical_lists_give_zero(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1.2, 100)
        assert spread_w1(a, a.copy()) == 0.0

    def test_point_masses_in_adjacent_bins(self):
        # the default bins are pi/128 wide: masses in bins 0 and 1 lie one width apart
        width = math.pi / 128
        assert spread_w1([0.0], [1.5 * width]) == pytest.approx(width)

    def test_histogram_clips_into_end_bins(self):
        # the bins are pi/128 wide: 1.0 falls in bin 40
        shares = spread_histogram(np.array([-5.0, 0.01, 1.0, math.pi / 2, 9.0]))
        expected = np.zeros(64)
        expected[[0, 40, 63]] = [0.4, 0.2, 0.4]
        np.testing.assert_array_equal(shares, expected)

    def test_histogram_of_no_values_rejected(self):
        with pytest.raises(InvalidArgumentError, match="at least one value"):
            spread_histogram(np.array([]))

    def test_matches_quantile_coupling_oracle(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(0, math.pi / 2, 400)
        b = rng.beta(2, 5, 300) * math.pi / 2
        edges = np.linspace(0, math.pi / 2, 65)
        centers = 0.5 * (edges[:-1] + edges[1:])
        pa, _ = np.histogram(a, bins=edges)
        pb, _ = np.histogram(b, bins=edges)
        oracle = wasserstein_distance(centers, centers, pa, pb)
        assert spread_w1(a, b) == pytest.approx(oracle, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1.5, 50)
        b = rng.uniform(0, 1.5, 70)
        assert spread_w1(a, b) == pytest.approx(spread_w1(b, a), abs=1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0, 1.5, 60)
        b = rng.uniform(0, 1.5, 60)
        c = rng.uniform(0, 1.5, 60)
        ab = spread_w1(a, b)
        bc = spread_w1(b, c)
        ac = spread_w1(a, c)
        assert ac <= ab + bc + 1e-9


class TestSupportLeakage:
    def test_fully_inside_mask(self):
        profile = np.array([0.0, 0.4, 0.6, 0.0])
        mask = np.array([False, True, True, False])
        assert profile_support_leakage(profile, mask) == 0.0

    def test_uniform_profile_half_mask(self):
        profile = np.full(8, 1 / 8)
        mask = np.zeros(8, dtype=bool)
        mask[:4] = True
        assert profile_support_leakage(profile, mask) == pytest.approx(0.5)

    def test_matches_masked_sum(self):
        rng = np.random.default_rng(13)
        profile = rng.dirichlet(np.ones(16))
        mask = rng.random(16) > 0.5
        assert profile_support_leakage(profile, mask) == pytest.approx(
            profile[~mask].sum(), abs=1e-12
        )


class TestToeplitzDeviation:
    def test_exact_toeplitz_is_zero(self):
        from scipy.linalg import toeplitz

        t = toeplitz([4.0, 1.0, 0.5, 0.2])
        assert toeplitz_deviation(t) == 0.0

    def test_detects_perturbation(self):
        from scipy.linalg import toeplitz

        t = toeplitz([4.0, 1.0, 0.5, 0.2]).astype(complex)
        t[2, 1] += 0.1j
        assert toeplitz_deviation(t) == pytest.approx(0.1)
