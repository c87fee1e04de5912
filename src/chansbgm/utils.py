"""Small numeric helpers used across modules."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidArgumentError

# Batches are generated, written, read and scored in row blocks of about
# this many elements, so memory depends on the block, not on the row count.
BLOCK_ELEMENTS = 1 << 20
# Block lengths are multiples of this. BLAS kernels compute a product's rows
# in small groups, so a block boundary inside a group would change the last
# bits of the rows around it; at a multiple of the group the rows of a
# product taken block by block equal those of the product taken whole.
ROW_ALIGN = 64


def row_blocks(n: int, row_size: int) -> list[slice]:
    """Consecutive row slices covering ``range(n)``, each of about
    ``BLOCK_ELEMENTS`` elements for rows of ``row_size`` elements.

    There is always at least one slice (an empty one when ``n`` is 0).
    A lone last row joins the block before it, because numpy multiplies a
    single row through a matrix-vector kernel whose sums round differently.
    """
    rows = max(ROW_ALIGN, BLOCK_ELEMENTS // max(row_size, 1) // ROW_ALIGN * ROW_ALIGN)
    starts = list(range(0, n, rows)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


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
