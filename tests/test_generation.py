import math

import numpy as np
import pytest

from chansbgm import (
    AngleGrid,
    SbgmModel,
    SystemConfig,
    build_simo_dictionary,
    conditional_covariance,
    limit_batch_paths,
    limit_paths,
    load_batch,
    render_channels,
    sample_parameters,
    save_batch,
    swap_system_config,
    toeplitz_deviation,
)
from chansbgm.errors import InvalidArgumentError


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
        bigger = swap_system_config(self.dict, SystemConfig.simo(6))
        r1 = render_channels(batch, self.dict)
        r2 = render_channels(batch, bigger)
        assert r1.sparse.tobytes() == r2.sparse.tobytes()
        assert r1.channels.shape == (30, 4)
        assert r2.channels.shape == (30, 6)
        np.testing.assert_allclose(r2.channels[:, :4], r1.channels, atol=1e-12)


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
        d = build_simo_dictionary(AngleGrid(8), SystemConfig.simo(4))
        batch = render_channels(sample_parameters(model, 12, 10), d)
        save_batch(batch, tmp_path / "batch")
        loaded, meta = load_batch(tmp_path / "batch")
        assert loaded.sparse.tobytes() == batch.sparse.tobytes()
        assert np.array_equal(loaded.labels, batch.labels)
        assert loaded.channels.tobytes() == batch.channels.tobytes()
        assert meta["provenance"]["dictionary_id"] == d.content_id
