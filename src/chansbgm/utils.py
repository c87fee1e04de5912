"""Small helpers used across modules."""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import InvalidArgumentError

T = TypeVar("T")
U = TypeVar("U")
_END = object()  # marks the end of the items in prefetch

# Batches are generated, written, read and scored in row blocks of about
# this many elements, so memory depends on the block, not on the row count.
# A complex block is then 2 MB, so each stage's few block-sized
# temporaries together stay near the size of a per-core L2 cache.
BLOCK_ELEMENTS = 1 << 17
# Block lengths are multiples of this. BLAS kernels compute a product's rows
# in small groups, so a block boundary inside a group would change the last
# bits of the rows around it; at a multiple of the group the rows of a
# product taken block by block equal those of the product taken whole.
ROW_ALIGN = 64


def row_blocks(n: int, row_size: int) -> list[slice]:
    """Consecutive row slices covering ``range(n)``, each of about
    ``BLOCK_ELEMENTS`` elements for rows of ``row_size`` elements (see
    :func:`aligned_blocks`)."""
    return aligned_blocks(n, BLOCK_ELEMENTS // max(row_size, 1))


def aligned_blocks(n: int, rows: int) -> list[slice]:
    """Consecutive row slices covering ``range(n)``, each of ``rows`` rows
    rounded down to a multiple of ``ROW_ALIGN``, and at least ``ROW_ALIGN``.

    There is always at least one slice (an empty one when ``n`` is 0).
    A lone last row joins the block before it, because numpy multiplies a
    single row through a matrix-vector kernel whose sums round differently.
    """
    rows = max(ROW_ALIGN, rows // ROW_ALIGN * ROW_ALIGN)
    starts = list(range(0, n, rows)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def prefetch(items: Iterable[T]) -> Iterator[T]:
    """Yield the items of ``items`` in order, taking each next one on a
    worker thread while the caller works on the one before.

    The worker keeps at most one item ahead of the caller, and it alone
    advances ``items``. An exception raised there is raised again in the
    caller, as the same object. Closing the generator waits for the item
    in progress, drops it (or the exception it raised) and joins the
    worker; use it under ``contextlib.closing`` where the worker must be
    gone before the caller cleans up.
    """
    # imported here, so that only the commands that prefetch pay for it
    from concurrent.futures import ThreadPoolExecutor

    iterator = iter(items)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="prefetch") as worker:
        ahead = worker.submit(next, iterator, _END)
        while (item := ahead.result()) is not _END:
            ahead = worker.submit(next, iterator, _END)
            yield item
            del item  # not kept while the next item is awaited


def side_by_side(first: Callable[[], T], second: Callable[[], U]) -> tuple[T, U]:
    """``first()`` and ``second()``, the first called on the calling thread
    while a helper thread calls the second.

    The helper is joined before this returns or raises. An exception
    raised by ``second`` is raised again in the caller, as the same object;
    when both raise, the exception of ``first`` wins, as it would in a
    serial run that calls ``first`` before ``second``.
    """
    # imported here, so that only the commands with a second pass pay for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="side") as helper:
        other = helper.submit(second)
        mine = first()  # an exception leaves the block, which waits for the helper
    return mine, other.result()


def _is_number(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)  # JSON's NaN and Infinity parse as floats
    return isinstance(value, int) and not isinstance(value, bool)


# JSON value types a field table may name
_JSON_TYPES = {
    # an int64, written as a JSON integer or as an integral float
    "integer": lambda v: _is_number(v) and int(v) == v and -(2**63) <= v < 2**63,
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
    An integer must fit in 64 bits; it may be written as a float without a
    fractional part and comes back as an ``int``. Booleans are neither
    integers nor numbers, and ``NaN`` and ``Infinity`` are neither.
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
    E[|z|^2] = 1 and E[z^2] = 0. The pairs are scaled in place and viewed
    as complex, which gives the bytes of ``(a + 1j*b) / np.sqrt(2.0)``
    (numpy divides a complex by a real as a multiply by its reciprocal)
    without the complex temporaries.
    """
    pair = rng.standard_normal(tuple(np.atleast_1d(shape)) + (2,))
    pair *= 1.0 / np.sqrt(2.0)
    return pair.view(np.complex128)[..., 0]


def content_id(chunks: Iterable[bytes]) -> str:
    """Short stable identifier for binary content given as consecutive
    chunks (used in provenance); only the joined bytes count."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:12]
