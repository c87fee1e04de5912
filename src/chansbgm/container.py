"""On-disk array container: a JSON sidecar plus a raw binary payload.

Every array is stored as two files, ``<stem>.json`` and ``<stem>.bin``.
The sidecar records shape, dtype tag (``"c128"`` or ``"f64"``), row-major
order, little-endian byte order, a semantic role string, and optional
provenance. The payload is the raw little-endian bytes; complex values are
stored as interleaved (re, im) pairs of 8-byte floats. Reading back what
was written is bit-exact.

Arrays move in row blocks (:func:`chansbgm.utils.row_blocks`), so a batch
never has to be whole in memory:

* :class:`ArrayWriter` appends row blocks to ``<stem>.bin.tmp``; committing
  moves the payload to ``<stem>.bin`` with ``os.replace`` and then writes
  the sidecar, whose shape counts the rows appended. On an error the
  temporary payload is removed, so no partial payload ever carries the
  final name.
* :class:`ArrayReader` reads and checks the sidecar, checks the payload's
  size against it, and then reads any range of rows with ``seek`` and
  ``np.fromfile`` (plain reads: mapped file pages would count toward the
  process's resident memory).

:func:`write_array` and :func:`read_array` are the whole-array forms of the
same writer and reader; the bytes on disk do not depend on the block size.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import InvalidArgumentError
from .utils import row_blocks

FORMAT_TAG = "chansbgm-array-v1"

_DTYPES = {
    "c128": np.dtype("<c16"),
    "f64": np.dtype("<f8"),
}


def _dtype_tag(array: np.ndarray) -> str:
    if np.iscomplexobj(array):
        return "c128"
    return "f64"


def write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text to ``path`` through a temporary file and
    ``os.replace``, so the final name never holds a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: str | Path, document: dict) -> None:
    """Write a JSON document deterministically (sorted keys, fixed layout)."""
    write_text(path, json.dumps(document, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> dict:
    """The JSON object stored in ``path``; any other content is rejected."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise InvalidArgumentError(f"{path} must hold a JSON object")
    return document


class ArrayWriter:
    """Write one array to ``<stem>.json`` + ``<stem>.bin`` a row block at a time.

    The first block fixes the dtype tag and the shape of a row; later
    blocks must match them. Used as a context manager, the writer commits
    when the block exits cleanly and discards the payload when it raises.
    """

    def __init__(self, stem: str | Path, role: str, provenance: dict | None = None):
        stem = Path(stem)
        self._bin = stem.with_suffix(".bin")
        self._sidecar_path = stem.with_suffix(".json")
        self._tmp = self._bin.with_name(self._bin.name + ".tmp")
        self._sidecar = {"format": FORMAT_TAG, "order": "C", "endianness": "LE", "role": role}
        if provenance is not None:
            self._sidecar["provenance"] = provenance
        self._shape: list[int] | None = None
        self._file = open(self._tmp, "wb")

    def append(self, block: np.ndarray) -> None:
        block = np.asarray(block)
        tag = _dtype_tag(block)
        if block.ndim == 0:
            raise InvalidArgumentError("arrays are written in rows; a 0-d array has none")
        if self._shape is None:
            self._sidecar["dtype"] = tag
            self._shape = [0, *block.shape[1:]]
        elif tag != self._sidecar["dtype"] or list(block.shape[1:]) != self._shape[1:]:
            raise InvalidArgumentError(
                f"a {tag} block of shape {block.shape} does not continue "
                f"{self._bin} ({self._sidecar['dtype']}, rows of shape {self._shape[1:]})"
            )
        self._file.write(np.ascontiguousarray(block, dtype=_DTYPES[tag]).data)
        self._shape[0] += len(block)

    def commit(self) -> None:
        """Give the payload its final name, then write the sidecar."""
        if self._shape is None:
            self.discard()
            raise InvalidArgumentError(f"no rows were appended to {self._bin}")
        self._file.close()
        os.replace(self._tmp, self._bin)
        write_json(self._sidecar_path, dict(self._sidecar, shape=self._shape))

    def discard(self) -> None:
        """Remove the temporary payload; the final names are left untouched."""
        self._file.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "ArrayWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.discard()


class ArrayReader:
    """Read an array written by :class:`ArrayWriter` in ranges of rows.

    Opening checks the sidecar and the payload's size, so a truncated or
    mismatched payload is rejected before any row is read.
    """

    def __init__(self, stem: str | Path):
        stem = Path(stem)
        sidecar = read_json(stem.with_suffix(".json"))
        if sidecar.get("format") != FORMAT_TAG:
            raise InvalidArgumentError(f"not a {FORMAT_TAG} sidecar: {stem}")
        tag = sidecar.get("dtype")
        if tag not in _DTYPES:
            raise InvalidArgumentError(f"unknown dtype tag {tag!r} in {stem}")
        shape = sidecar.get("shape")
        if not (
            isinstance(shape, list)
            and shape
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)
        ):
            raise InvalidArgumentError(f"shape of {stem} must be a nonempty list of row counts")
        self.sidecar = sidecar
        self.dtype = _DTYPES[tag]
        self.shape = tuple(shape)
        self.path = stem.with_suffix(".bin")
        self._row_items = math.prod(self.shape[1:])
        size = self.path.stat().st_size
        expected = math.prod(self.shape) * self.dtype.itemsize
        if size != expected:
            raise InvalidArgumentError(
                f"payload of {stem}.bin has {size} bytes, expected {expected}"
            )

    def __len__(self) -> int:
        return self.shape[0]

    def read(self, rows: slice = slice(None)) -> np.ndarray:
        """Rows ``rows`` (a step-1 slice) of the array; all of it by default."""
        start, stop, _ = rows.indices(len(self))
        n_rows = max(stop - start, 0)
        count = n_rows * self._row_items
        with open(self.path, "rb") as payload:
            payload.seek(start * self._row_items * self.dtype.itemsize)
            data = np.fromfile(payload, dtype=self.dtype, count=count)
        if data.size != count:
            raise InvalidArgumentError(f"payload of {self.path} ended before row {stop}")
        return data.reshape((n_rows,) + self.shape[1:])

    def blocks(self) -> Iterator[np.ndarray]:
        """The array as consecutive row blocks (:func:`row_blocks`)."""
        for rows in row_blocks(len(self), self._row_items):
            yield self.read(rows)


def write_array(
    stem: str | Path,
    array: np.ndarray,
    role: str,
    provenance: dict | None = None,
) -> None:
    """Write ``array`` to ``<stem>.json`` + ``<stem>.bin``.

    Arrays are converted to c128/f64 before writing; integer input is
    stored as f64 (exact for the small index ranges used here).
    """
    array = np.asarray(array)
    if array.ndim == 0:
        raise InvalidArgumentError("arrays are written in rows; a 0-d array has none")
    with ArrayWriter(stem, role, provenance) as writer:
        for rows in row_blocks(len(array), math.prod(array.shape[1:])):
            writer.append(array[rows])


def read_array(stem: str | Path) -> tuple[np.ndarray, dict]:
    """Read an array written by :func:`write_array`; returns (array, sidecar)."""
    reader = ArrayReader(stem)
    return reader.read(), reader.sidecar
