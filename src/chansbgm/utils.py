"""Small numeric helpers used across modules."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidArgumentError


def complex_standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw circularly symmetric unit-variance complex normals.

    Real and imaginary parts are independent N(0, 1/2) so that
    E[|z|^2] = 1 and E[z^2] = 0.
    """
    pair = rng.standard_normal(tuple(np.atleast_1d(shape)) + (2,))
    return (pair[..., 0] + 1j * pair[..., 1]) / np.sqrt(2.0)


def effective_matrix(measurement: np.ndarray, dict_matrix: np.ndarray) -> np.ndarray:
    """W = A D: the measurement matrix applied to the dictionary matrix."""
    measurement = np.asarray(measurement)
    dict_matrix = np.asarray(dict_matrix)
    if measurement.shape[1] != dict_matrix.shape[0]:
        raise InvalidArgumentError(
            f"measurement has {measurement.shape[1]} columns but the dictionary "
            f"has {dict_matrix.shape[0]} rows"
        )
    return measurement @ dict_matrix


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Symmetrize a square matrix to be exactly Hermitian."""
    return 0.5 * (a + a.conj().T)


def content_id(*chunks: bytes) -> str:
    """Short stable identifier for binary content (used in provenance)."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:12]
