"""Small helpers used across modules."""

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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON value types a field table may name
_JSON_TYPES = {
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
    "number": _is_number,
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number pair": lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
}


def check_document(doc, fields: dict[str, str], required=(), what: str = "document") -> dict:
    """Check a JSON object against a field table; returns its fields.

    ``fields`` maps every known key to the JSON type of its value (a key
    of ``_JSON_TYPES``); ``required`` lists the keys that must be present.
    An integer may be written as a float without a fractional part and
    comes back as an ``int``; booleans are neither integers nor numbers.
    Ranges are left to the constructors that take the values.
    """
    if not isinstance(doc, dict):
        raise InvalidArgumentError(f"{what} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise InvalidArgumentError(f"{what} has unknown fields {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise InvalidArgumentError(f"{what} lacks the fields {missing}")
    checked = {}
    for key, value in doc.items():
        if not _JSON_TYPES[fields[key]](value):
            raise InvalidArgumentError(f"{what}: {key!r} must be {fields[key]}, got {value!r}")
        checked[key] = int(value) if fields[key] == "integer" else value
    return checked


def check_tagged_document(doc, tag: str, layouts: dict, what: str, optional=()) -> dict:
    """Check a document whose ``tag`` field names its layout in ``layouts``
    (a field table per tag value) with :func:`check_document`; every field
    but those in ``optional`` is required. Returns the fields, ``tag``
    included."""
    kind = doc.get(tag) if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in layouts:
        raise InvalidArgumentError(f"{what} needs {tag} in {sorted(layouts)}, got {kind!r}")
    layout = {tag: "string", **layouts[kind]}
    required = [key for key in layout if key not in optional]
    return check_document(doc, layout, required, f"{kind} {what}")


def complex_standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw circularly symmetric unit-variance complex normals.

    Real and imaginary parts are independent N(0, 1/2) so that
    E[|z|^2] = 1 and E[z^2] = 0.
    """
    pair = rng.standard_normal(tuple(np.atleast_1d(shape)) + (2,))
    return (pair[..., 0] + 1j * pair[..., 1]) / np.sqrt(2.0)


def content_id(*chunks: bytes) -> str:
    """Short stable identifier for binary content (used in provenance)."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:12]
