"""On-disk array container: a JSON sidecar plus a raw binary payload.

Every array is stored as two files, ``<stem>.json`` and ``<stem>.bin``.
The sidecar records shape, dtype tag (``"c128"`` or ``"f64"``), row-major
order, little-endian byte order and a semantic role string. The payload
is the raw little-endian bytes; complex values are stored as interleaved
(re, im) pairs of 8-byte floats. Reading back what was written is
bit-exact.

Arrays move in row blocks (:func:`chansbgm.utils.row_blocks`), so a batch
never has to be whole in memory:

* :class:`ArrayWriter` appends row blocks to ``<stem>.bin`` and then
  writes the sidecar, whose shape counts the rows appended.
* :class:`ArrayReader` reads and checks the sidecar, checks the payload's
  size against it, and is then indexed like the array: ``reader[rows]``
  reads a step-1 slice of rows with ``seek`` and ``np.fromfile`` (plain
  reads: mapped file pages would count toward the process's resident
  memory), and ``reader[rows] = block`` overwrites them in place. With
  ``len`` and ``shape`` it is a row source, like an array, for the loops
  over :func:`~chansbgm.utils.row_blocks`.

:func:`write_array` and :func:`read_array` are the whole-array forms of the
same writer and reader; the bytes on disk do not depend on the block size.

Writers write in place; a command commits its whole output directory at
once with :func:`output_directory`, so it never leaves a partial one.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import InvalidArgumentError

FORMAT_TAG = "chansbgm-array-v1"

_DTYPES = {
    "c128": np.dtype("<c16"),
    "f64": np.dtype("<f8"),
}


@contextmanager
def output_directory(path: str | Path, document: str, reads=()) -> Iterator[Path]:
    """Stage a command's output directory and commit it whole.

    ``path`` must be absent, empty or an earlier output holding ``document``;
    anything else is refused, and so is a ``path`` that holds one of the
    inputs ``reads`` (paths the command reads; None entries are skipped),
    which replacing it would delete, or that lies inside one, which a later
    command replacing that input would delete. The block fills a fresh sibling
    directory ``.<name>.partial-<pid>``, which replaces ``path`` only on a
    clean exit. On an error it is removed and ``path`` is left as it was.
    """
    path = Path(path).resolve()
    reusable = (path / document).is_file() or path.is_dir() and not os.listdir(path)
    if path.exists() and not reusable:
        raise InvalidArgumentError(f"{path} is neither empty nor an output with {document}")
    for read in filter(None, reads):
        read = Path(read).resolve()
        if read == path or path in read.parents:
            raise InvalidArgumentError(f"{read} is an input; replacing {path} would delete it")
        if read in path.parents:
            raise InvalidArgumentError(f"{path} lies inside the input {read}")
    staging = path.with_name(f".{path.name}.partial-{os.getpid()}")
    earlier = path.with_name(f".{path.name}.replaced-{os.getpid()}")
    staging.mkdir(parents=True)  # not mkdtemp: its mode 0700 would carry over to outputs
    try:
        yield staging
    except BaseException:
        shutil.rmtree(staging)
        raise
    if path.exists():  # a rename cannot replace a non-empty directory
        os.replace(path, earlier)
    os.replace(staging, path)
    shutil.rmtree(earlier, ignore_errors=True)  # absent if nothing was replaced


def write_json(path: str | Path, document: dict) -> None:
    """Write a JSON document deterministically (sorted keys, fixed layout)."""
    Path(path).write_text(json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8")


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

    The first block fixes the dtype tag (``"c128"`` for complex blocks,
    ``"f64"`` for any other) and the shape of a row; later blocks must
    match them. The writer is a context manager: on exit it closes the
    payload and, when the block exits cleanly, writes the sidecar.
    """

    def __init__(self, stem: str | Path, role: str):
        self._bin = Path(stem).with_suffix(".bin")
        self._sidecar = {"format": FORMAT_TAG, "order": "C", "endianness": "LE", "role": role}
        self._shape: list[int] | None = None
        self._file = open(self._bin, "wb")

    def append(self, block: np.ndarray) -> None:
        block = np.asarray(block)
        tag = "c128" if np.iscomplexobj(block) else "f64"
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

    def __enter__(self) -> "ArrayWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._file.close()
        if exc_type is None:
            if self._shape is None:
                raise InvalidArgumentError(f"no rows were appended to {self._bin}")
            write_json(self._bin.with_suffix(".json"), dict(self._sidecar, shape=self._shape))


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

    def _span(self, rows: slice) -> tuple[int, tuple[int, ...]]:
        """The payload offset and the shape of ``rows``, a step-1 slice."""
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise InvalidArgumentError(f"{self.path} is read in row slices of step 1, not {rows!r}")
        start, stop, _ = rows.indices(len(self))
        offset = start * self._row_items * self.dtype.itemsize
        return offset, (max(stop - start, 0),) + self.shape[1:]

    def __getitem__(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` (a step-1 slice) of the array; ``reader[:]`` is all of it."""
        offset, shape = self._span(rows)
        with open(self.path, "rb") as payload:
            payload.seek(offset)
            data = np.fromfile(payload, dtype=self.dtype, count=math.prod(shape))
        if data.size != math.prod(shape):
            raise InvalidArgumentError(f"payload of {self.path} ended within rows {rows!r}")
        return data.reshape(shape)

    def __setitem__(self, rows: slice, block: np.ndarray) -> None:
        """Write ``block``, of the shape of rows ``rows`` (a step-1 slice)
        and the payload's dtype, over those rows in place."""
        offset, shape = self._span(rows)
        if block.dtype != self.dtype or block.shape != shape:
            raise InvalidArgumentError(
                f"{self.path} rows {shape} are {self.dtype}, not {block.dtype} {block.shape}"
            )
        with open(self.path, "r+b") as payload:
            payload.seek(offset)
            payload.write(np.ascontiguousarray(block).data)

def write_array(stem: str | Path, array: np.ndarray, role: str) -> None:
    """Write ``array`` to ``<stem>.json`` + ``<stem>.bin``.

    Arrays are converted to c128/f64 before writing; integer input is
    stored as f64 (exact for the small index ranges used here).
    """
    with ArrayWriter(stem, role) as writer:
        writer.append(array)


def read_array(stem: str | Path) -> tuple[np.ndarray, dict]:
    """Read an array written by :func:`write_array`; returns (array, sidecar)."""
    reader = ArrayReader(stem)
    return reader[:], reader.sidecar
