import math

import numpy as np
import pytest

import chansbgm.utils as utils_module
from chansbgm.dictionary import (
    AngleGrid,
    DelayDopplerGrid,
    SystemConfig,
    build_dictionary,
    build_ofdm_dictionary,
    build_simo_dictionary,
    grid_to_json,
)
from chansbgm.em import SbgmModel
from chansbgm.errors import InvalidArgumentError
from chansbgm.generation import (
    conditional_covariance,
    limit_batch_paths,
    limit_paths,
    load_batch,
    render_channels,
    sample_blocks,
    sample_parameters,
    save_batch,
)
from chansbgm.metrics import toeplitz_deviation
from chansbgm.utils import complex_standard_normal


def one_component_model(gamma):
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    return SbgmModel(weights=np.array([1.0]), variances=gamma)


class TestSampleParameters:
    def test_zero_variance_gives_zero_vectors(self):
        batch = sample_parameters(one_component_model(np.zeros(6)), 10, 0)
        np.testing.assert_array_equal(batch.sparse, 0.0)
        assert batch.channels is None

    def test_unit_variance_empirical_energy(self):
        model = one_component_model(np.ones(4))
        batch = sample_parameters(model, 10_000, 1)
        energy = np.mean(np.abs(batch.sparse) ** 2, axis=0)
        np.testing.assert_allclose(energy, 1.0, atol=0.03)

    def test_label_frequencies_follow_weights(self):
        model = SbgmModel(
            weights=np.array([0.3, 0.7]),
            variances=np.ones((2, 3)),
        )
        batch = sample_parameters(model, 10_000, 2)
        freq = np.mean(batch.labels == 0)
        assert abs(freq - 0.3) < 0.02

    def test_deterministic_given_seed(self):
        model = one_component_model(np.linspace(0.1, 1.0, 5))
        b1 = sample_parameters(model, 50, 3)
        b2 = sample_parameters(model, 50, 3)
        assert b1.sparse.tobytes() == b2.sparse.tobytes()
        assert np.array_equal(b1.labels, b2.labels)

    def test_empty_batch(self):
        batch = sample_parameters(one_component_model(np.ones(4)), 0, 4)
        assert len(batch) == 0
        assert batch.sparse.shape == (0, 4)

    def test_conditional_zero_mean(self):
        gamma = np.linspace(0.2, 1.0, 6)
        batch = sample_parameters(one_component_model(gamma), 100_000, 5)
        mean = batch.sparse.mean(axis=0)
        bound = 5 * math.sqrt(gamma.sum() / len(batch))
        assert np.linalg.norm(mean) < bound

    def test_circular_symmetry(self):
        gamma = np.full(4, 0.8)
        batch = sample_parameters(one_component_model(gamma), 100_000, 6)
        pseudo = np.mean(batch.sparse**2, axis=0)
        assert np.abs(pseudo).max() < 3 * 0.8 * math.sqrt(2.0 / len(batch))


class TestRenderChannels:
    def setup_method(self):
        self.dict = build_simo_dictionary(AngleGrid(8), SystemConfig.simo(4))

    def test_unit_vector_picks_column(self):
        sparse = np.zeros((1, 8), dtype=complex)
        sparse[0, 5] = 1.0
        batch = sample_parameters(one_component_model(np.ones(8)), 1, 0)
        batch = type(batch)(sparse=sparse, labels=batch.labels)
        rendered = render_channels(batch, self.dict)
        np.testing.assert_allclose(rendered.channels[0], self.dict.matrix[:, 5])

    def test_zero_vector_maps_to_zero(self):
        batch = sample_parameters(one_component_model(np.zeros(8)), 3, 1)
        rendered = render_channels(batch, self.dict)
        np.testing.assert_array_equal(rendered.channels, 0.0)

    def test_matches_dense_multiply(self):
        batch = sample_parameters(one_component_model(np.ones(8)), 20, 2)
        rendered = render_channels(batch, self.dict)
        for i in range(20):
            expected = sum(
                batch.sparse[i, g] * self.dict.matrix[:, g] for g in range(8)
            )
            np.testing.assert_allclose(rendered.channels[i], expected, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        batch = sample_parameters(one_component_model(np.ones(6)), 2, 3)
        with pytest.raises(InvalidArgumentError, match="columns but the batch has"):
            render_channels(batch, self.dict)

    def test_swapped_dictionary_same_coefficients(self):
        model = one_component_model(np.linspace(0.1, 1.0, 8))
        batch = sample_parameters(model, 30, 7)
        bigger = build_dictionary(self.dict.grid, SystemConfig.simo(6))
        r1 = render_channels(batch, self.dict)
        r2 = render_channels(batch, bigger)
        assert r1.sparse.tobytes() == r2.sparse.tobytes()
        assert r1.channels.shape == (30, 4)
        assert r2.channels.shape == (30, 6)
        np.testing.assert_allclose(r2.channels[:, :4], r1.channels, atol=1e-12)

    def test_ofdm_render_never_forms_the_dense_matrix(self):
        grid = DelayDopplerGrid(4, 6, doppler_bound=200.0, delay_bound=4e-6)
        d = build_ofdm_dictionary(grid, SystemConfig.ofdm(5, 3, 15e3, 1e-3 / 14))
        batch = render_channels(sample_parameters(one_component_model(np.ones(24)), 40, 8), d)
        assert "matrix" not in vars(d)
        np.testing.assert_allclose(batch.channels, batch.sparse @ d.matrix.T, atol=1e-12)


class TestLimitPaths:
    def test_keeps_everything_when_budget_large(self):
        s = np.array([1.0, 0.0, -2.0j])
        np.testing.assert_array_equal(limit_paths(s, 5), s)

    def test_unique_maximum(self):
        s = np.array([1.0, 2.0j, -3.0])
        np.testing.assert_array_equal(limit_paths(s, 1), [0.0, 0.0, -3.0])

    def test_tie_breaks_toward_lowest_index(self):
        s = np.array([1.0, -1.0, 1.0, 0.5])
        np.testing.assert_array_equal(limit_paths(s, 2), [1.0, -1.0, 0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        once = limit_paths(s, 3)
        np.testing.assert_array_equal(limit_paths(once, 3), once)

    def test_commutes_with_global_scaling(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        c = 2.3 - 1.1j
        np.testing.assert_allclose(limit_paths(c * s, 4), c * limit_paths(s, 4))

    def test_batch_application(self):
        model = one_component_model(np.ones(16))
        batch = sample_parameters(model, 25, 8)
        limited = limit_batch_paths(batch, 3)
        counts = np.sum(limited.sparse != 0, axis=1)
        assert np.all(counts <= 3)
        assert limited.provenance["p_max"] == 3
        # every kept entry equals the original
        mask = limited.sparse != 0
        np.testing.assert_array_equal(limited.sparse[mask], batch.sparse[mask])

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(InvalidArgumentError):
            limit_paths(np.ones(3), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    @pytest.mark.parametrize("p_max", [1, 4])
    def test_rejects_non_finite_input(self, bad, p_max):
        # a NaN power has no rank: selection would place it first, the
        # former sort on -power last
        s = np.ones((3, 4), dtype=complex)
        s[1, 2] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            limit_paths(s, p_max)


def _argsort_limit_paths(s, p_max):
    """The former cap, a stable full sort on -power: the reference for the
    selection in :func:`limit_paths`."""
    s = np.asarray(s)
    if p_max >= s.shape[-1]:
        return s.copy()
    power = np.abs(s) ** 2
    order = np.argsort(-power, axis=-1, kind="stable")
    mask = np.zeros(s.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :p_max], True, axis=-1)
    return np.where(mask, s, 0.0)


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestLimitPathsOracle:
    """The selection keeps exactly the entries the stable sort kept."""

    S = 24
    BUDGETS = [1, 3, S - 1, S, S + 3]

    @pytest.mark.parametrize("p_max", BUDGETS)
    def test_random_complex_batch(self, p_max):
        s = complex_standard_normal(np.random.default_rng(20), (300, self.S))
        _assert_same_bytes(limit_paths(s, p_max), _argsort_limit_paths(s, p_max))

    @pytest.mark.parametrize("p_max", BUDGETS)
    def test_quantized_batch_with_many_ties(self, p_max):
        rng = np.random.default_rng(21)
        # few distinct magnitudes: most rows have ties at the p_max-th power
        s = rng.integers(-2, 3, (400, self.S)) + 1j * rng.integers(-2, 3, (400, self.S))
        s[::7] = 1.0j  # rows of one value, tied everywhere
        _assert_same_bytes(limit_paths(s, p_max), _argsort_limit_paths(s, p_max))

    @pytest.mark.parametrize("p_max", BUDGETS)
    def test_all_zero_rows(self, p_max):
        s = complex_standard_normal(np.random.default_rng(22), (6, self.S))
        s[[0, 3, 5]] = 0.0
        out = limit_paths(s, p_max)
        _assert_same_bytes(out, _argsort_limit_paths(s, p_max))
        np.testing.assert_array_equal(out[[0, 3, 5]], 0.0)

    @pytest.mark.parametrize("p_max", BUDGETS)
    def test_single_vector(self, p_max):
        rng = np.random.default_rng(23)
        for s in (complex_standard_normal(rng, self.S), np.round(rng.standard_normal(self.S))):
            _assert_same_bytes(limit_paths(s, p_max), _argsort_limit_paths(s, p_max))

    @pytest.mark.parametrize("p_max", BUDGETS)
    def test_real_input(self, p_max):
        rng = np.random.default_rng(24)
        s = np.round(2 * rng.standard_normal((200, self.S))) / 2
        out = limit_paths(s, p_max)
        assert out.dtype == np.float64
        _assert_same_bytes(out, _argsort_limit_paths(s, p_max))

    def test_higher_dimensional_batch(self):
        rng = np.random.default_rng(25)
        s = rng.integers(-1, 2, (5, 7, self.S)) + 0j
        _assert_same_bytes(limit_paths(s, 4), _argsort_limit_paths(s, 4))

    def test_empty_batch(self):
        s = np.zeros((0, self.S), dtype=complex)
        _assert_same_bytes(limit_paths(s, 2), _argsort_limit_paths(s, 2))

    def test_capping_blocks_equals_capping_the_whole(self, monkeypatch):
        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        model = one_component_model(np.linspace(0.1, 1.0, 16))
        n = 3 * utils_module.ROW_ALIGN + 5
        blocks = list(sample_blocks(model, n, 31))
        assert len(blocks) == 4
        capped = np.concatenate([limit_batch_paths(b, 3).sparse for b in blocks])
        whole = limit_batch_paths(sample_parameters(model, n, 31), 3)
        _assert_same_bytes(capped, whole.sparse)
        _assert_same_bytes(whole.sparse, _argsort_limit_paths(whole.sparse, 3))

    def test_drops_rendered_channels(self):
        d = build_simo_dictionary(AngleGrid(8), SystemConfig.simo(4))
        rendered = render_channels(sample_parameters(one_component_model(np.ones(8)), 5, 0), d)
        assert limit_batch_paths(rendered, 2).channels is None


class TestComplexStandardNormal:
    @pytest.mark.parametrize("shape", [3, (7, 5), (0, 4), (2, 3, 4), ()])
    def test_equals_the_complex_expression(self, shape):
        out = complex_standard_normal(np.random.default_rng(40), shape)
        pair = np.random.default_rng(40).standard_normal(tuple(np.atleast_1d(shape)) + (2,))
        expected = (pair[..., 0] + 1j * pair[..., 1]) / np.sqrt(2.0)
        _assert_same_bytes(out, expected)
        assert out.dtype == np.complex128
        assert out.flags.c_contiguous

    def test_consumes_the_stream_as_one_draw(self):
        rng = np.random.default_rng(41)
        complex_standard_normal(rng, (4, 3))
        reference = np.random.default_rng(41)
        reference.standard_normal((4, 3, 2))
        assert rng.standard_normal() == reference.standard_normal()

    def test_sample_parameters_bytes(self):
        model = SbgmModel(
            weights=np.array([0.25, 0.75]),
            variances=np.random.default_rng(42).uniform(0.0, 2.0, (2, 16)),
        )
        batch = sample_parameters(model, 500, 43)
        rng = np.random.default_rng(43)
        labels = rng.choice(2, size=500, p=model.weights)
        pair = rng.standard_normal((500, 16, 2))
        draws = (pair[..., 0] + 1j * pair[..., 1]) / np.sqrt(2.0)
        expected = draws * np.sqrt(model.expanded_variances())[labels]
        np.testing.assert_array_equal(batch.labels, labels)
        _assert_same_bytes(batch.sparse, expected)


class TestConditionalCovariance:
    def setup_method(self):
        self.dict = build_simo_dictionary(AngleGrid(32), SystemConfig.simo(8))

    def test_unit_variance_at_one_gridpoint_is_rank_one(self):
        gamma = np.zeros(32)
        gamma[10] = 1.0
        cov = conditional_covariance(one_component_model(gamma), 0, self.dict)
        col = self.dict.matrix[:, 10]
        np.testing.assert_allclose(cov, np.outer(col, col.conj()), atol=1e-12)

    def test_toeplitz_structure(self):
        rng = np.random.default_rng(2)
        gamma = rng.uniform(0.0, 1.5, 32)
        cov = conditional_covariance(one_component_model(gamma), 0, self.dict)
        assert toeplitz_deviation(cov) < 1e-9 * np.abs(cov).max()

    def test_matches_empirical_covariance(self):
        gamma = np.zeros(32)
        gamma[[3, 17, 29]] = [1.0, 0.5, 2.0]
        model = one_component_model(gamma)
        cov = conditional_covariance(model, 0, self.dict)
        batch = render_channels(sample_parameters(model, 100_000, 9), self.dict)
        h = batch.channels
        emp = h.T @ h.conj() / len(h)
        tol = 6 * np.abs(np.diag(cov)).max() / math.sqrt(len(h))
        assert np.abs(emp - cov).max() < tol

    def test_component_index_checked(self):
        with pytest.raises(InvalidArgumentError):
            conditional_covariance(one_component_model(np.ones(32)), 1, self.dict)


class TestBatchSerialization:
    def test_round_trip(self, tmp_path):
        model = one_component_model(np.linspace(0.2, 1.0, 8))
        grid, system = AngleGrid(8), SystemConfig.simo(4)
        documents = {"grid": grid_to_json(grid), "system": system.to_json()}
        drawn = sample_parameters(model, 12, 10)
        rendered = render_channels(drawn, build_simo_dictionary(grid, system))
        for name, batch in (("unrendered", drawn), ("rendered", rendered)):
            first, second = tmp_path / name, tmp_path / f"{name}-rewritten"
            save_batch(batch, first, extra_meta=documents)
            loaded, meta = load_batch(first)
            assert loaded.sparse.tobytes() == batch.sparse.tobytes()
            assert np.array_equal(loaded.labels, batch.labels)
            assert (loaded.channels is None) == (batch.channels is None)
            if batch.channels is not None:
                assert loaded.channels.tobytes() == batch.channels.tobytes()
            assert meta["provenance"] == {"model_id": model.content_id, "seed": 10, "p_max": None}
            # the loaded batch, written again with its documents, gives the same files
            save_batch(loaded, second, extra_meta={"grid": meta["grid"], "system": meta["system"]})
            files = sorted(p.name for p in first.iterdir())
            assert files == sorted(p.name for p in second.iterdir())
            assert all((first / f).read_bytes() == (second / f).read_bytes() for f in files)
