"""Sampling coefficient vectors from a fitted model and rendering channels.

Each generated coefficient vector is a draw from the mixture: pick a
component, then draw a zero-mean complex Gaussian with that component's
diagonal covariance. A nonzero entry stands for one propagation path; the
entry index names the grid point (angle, or delay-Doppler tuple) and the
complex value is the path gain. Channels are obtained by multiplying with
any dictionary over the same grid, so the system configuration can differ
from the one used for training.

A batch can be handled in row blocks (:func:`chansbgm.utils.row_blocks`):
:func:`sample_blocks` yields the draw block by block, the batch functions
take a block as they take a whole batch, and :func:`save_batch` appends
blocks as they come. Streamed this way a batch of any size needs memory
for one block, and the bytes written do not depend on the block size.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .container import ArrayReader, ArrayWriter, read_json, write_json
from .errors import InvalidArgumentError
from .utils import complex_standard_normal, row_blocks

if TYPE_CHECKING:  # annotations only: a batch is read without the fit's modules
    from .dictionary import Dictionary
    from .em import SbgmModel


@dataclass(frozen=True)
class GeneratedBatch:
    """Generated coefficient vectors with component labels and provenance.

    ``channels`` is present if and only if a dictionary has been applied.
    """

    sparse: np.ndarray
    labels: np.ndarray
    channels: np.ndarray | None = None
    provenance: dict | None = None

    def __post_init__(self):
        if self.sparse.ndim != 2:
            raise InvalidArgumentError("sparse must be a 2-D (n, S) array")
        if len(self.sparse) != len(self.labels):
            raise InvalidArgumentError("one label per generated vector required")
        if self.channels is not None and len(self.channels) != len(self.sparse):
            raise InvalidArgumentError("one channel per generated vector required")

    def __len__(self) -> int:
        return len(self.sparse)

    @property
    def n_coefficients(self) -> int:
        return self.sparse.shape[1]


def sample_blocks(model: SbgmModel, n: int, seed: int) -> Iterator[GeneratedBatch]:
    """Draw ``n`` coefficient vectors from the fitted mixture, as
    consecutive row blocks (:func:`chansbgm.utils.row_blocks`), from the
    generator ``np.random.default_rng(seed)``.

    Component labels follow the mixture weights; conditioned on the label
    the entries are independent circularly symmetric complex Gaussians
    with the component's variances. All ``n`` labels are drawn first and
    the Gaussians block by block after them, which consumes the random
    stream exactly as one whole draw does, so the values do not depend on
    the block size. There is always at least one block.
    """
    if n < 0:
        raise InvalidArgumentError("n must be nonnegative")
    rng = np.random.default_rng(seed)
    s = model.n_coefficients
    labels = rng.choice(model.n_components, size=n, p=model.weights)
    scales = np.sqrt(model.expanded_variances())
    provenance = {"model_id": model.content_id, "seed": int(seed), "p_max": None}
    for rows in row_blocks(n, s):
        block_labels = labels[rows]
        draws = complex_standard_normal(rng, (len(block_labels), s))
        draws *= scales[block_labels]
        yield GeneratedBatch(sparse=draws, labels=block_labels, provenance=provenance)


def sample_parameters(model: SbgmModel, n: int, seed: int) -> GeneratedBatch:
    """Draw ``n`` coefficient vectors from the fitted mixture in one batch
    (the blocks of :func:`sample_blocks`, joined)."""
    blocks = list(sample_blocks(model, n, seed))
    return GeneratedBatch(
        sparse=np.concatenate([b.sparse for b in blocks]),
        labels=np.concatenate([b.labels for b in blocks]),
        provenance=blocks[0].provenance,
    )


def render_channels(batch: GeneratedBatch, dictionary: Dictionary) -> GeneratedBatch:
    """Return a copy of the batch with channels D s attached, rendered
    through the dictionary's factors (:meth:`Dictionary.apply`).

    Any dictionary over the training grid is accepted; only the column
    count has to match the coefficient dimension.
    """
    if dictionary.n_columns != batch.n_coefficients:
        raise InvalidArgumentError(
            f"dictionary has {dictionary.n_columns} columns but the batch has "
            f"{batch.n_coefficients} coefficients"
        )
    return replace(batch, channels=dictionary.apply(batch.sparse))


def limit_paths(s: np.ndarray, p_max: int) -> np.ndarray:
    """Keep the ``p_max`` entries that are largest in squared magnitude.

    All other entries are zeroed. Works on a single vector or on the last
    axis of a batch. Each row's ``p_max``-th largest power is found by
    selection (``np.partition``), not by a full sort; every entry above it
    is kept, and of the entries tied with it the lowest-index ones fill
    the remaining places. Non-finite input is rejected, since a NaN power
    has no rank.
    """
    if p_max < 1:
        raise InvalidArgumentError("p_max must be >= 1")
    s = np.asarray(s)
    if not np.isfinite(s).all():
        raise InvalidArgumentError("limit_paths needs finite coefficients")
    n_entries = s.shape[-1]
    if p_max >= n_entries:
        return s.copy()
    # |s|**2 squared in place; re**2 + im**2 would round near-ties apart
    power = np.abs(s).reshape(-1, n_entries)
    power *= power
    # a copy of the column, so the partitioned array is freed
    kth = np.partition(power, n_entries - p_max, axis=-1)[:, [n_entries - p_max]]
    keep = power >= kth
    # rows where entries tied at kth would keep more than p_max
    over = np.flatnonzero(np.count_nonzero(keep, axis=-1) > p_max)
    if len(over):
        rows, row_kth = power[over], kth[over]
        above = rows > row_kth
        tied = rows == row_kth
        room = p_max - np.count_nonzero(above, axis=-1)[:, None]
        keep[over] = above | (tied & (np.cumsum(tied, axis=-1) <= room))
    return np.where(keep.reshape(s.shape), s, 0.0)


def limit_batch_paths(batch: GeneratedBatch, p_max: int) -> GeneratedBatch:
    """Apply :func:`limit_paths` to every vector of a batch.

    The result has no channels (``channels=None``): channels rendered
    before the cap no longer match the capped coefficients, so render
    after capping.
    """
    provenance = dict(batch.provenance or {})
    provenance["p_max"] = int(p_max)
    return GeneratedBatch(
        sparse=limit_paths(batch.sparse, p_max),
        labels=batch.labels,
        channels=None,
        provenance=provenance,
    )


def conditional_covariance(model: SbgmModel, k: int, dictionary: Dictionary) -> np.ndarray:
    """Channel covariance D diag(gamma_k) D^H of component ``k``."""
    if not 0 <= k < model.n_components:
        raise InvalidArgumentError("component index out of range")
    gamma = model.expanded_variances()[k]
    if dictionary.n_columns != len(gamma):
        raise InvalidArgumentError("dictionary and model dimensions do not match")
    d = dictionary.matrix
    return (d * gamma[None, :]) @ d.conj().T


def save_batch(
    batch: GeneratedBatch | Iterable[GeneratedBatch],
    directory: str | Path,
    extra_meta: dict | None = None,
) -> None:
    """Write a batch directory: ``sparse``, ``labels``, ``channels`` (when
    the batch has them) and, last, ``batch.json``.

    ``batch`` is a whole batch or the consecutive row blocks of one, such
    as :func:`sample_blocks` yields (then rendered or capped block by
    block); blocks are appended to the payloads as they arrive, and none
    is kept once appended. A failed block leaves partial payloads; stage
    with :func:`container.output_directory`.
    """
    blocks = iter([batch] if isinstance(batch, GeneratedBatch) else batch)
    block = next(blocks, None)
    if block is None:
        raise InvalidArgumentError("a batch is written from at least one block")
    # batch.json takes these from the first block, which is not kept
    n_coefficients, provenance = block.n_coefficients, block.provenance or {}
    has_channels = block.channels is not None
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    roles = {"sparse": "generated-coefficients", "labels": "component-labels"}
    if has_channels:
        roles["channels"] = "generated-channels"
    n_samples = 0
    with ExitStack() as stack:
        writers = {
            stem: stack.enter_context(ArrayWriter(directory / stem, role))
            for stem, role in roles.items()
        }
        while block is not None:
            if (block.channels is not None) != has_channels:
                raise InvalidArgumentError("either every block of a batch has channels or none")
            writers["sparse"].append(block.sparse)
            writers["labels"].append(block.labels.astype(float))
            if has_channels:
                writers["channels"].append(block.channels)
            n_samples += len(block)
            del block  # freed before the next block is made
            block = next(blocks, None)
    meta = {
        "kind": "generated-batch",
        "n_samples": n_samples,
        "n_coefficients": n_coefficients,
        "has_channels": has_channels,
        "provenance": provenance,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(directory / "batch.json", meta)


@dataclass(frozen=True)
class StoredBatch:
    """A batch directory opened for reading: its ``batch.json`` and a
    checked :class:`~chansbgm.container.ArrayReader` per payload."""

    meta: dict
    sparse: ArrayReader
    labels: ArrayReader
    channels: ArrayReader | None


def open_batch(directory: str | Path) -> StoredBatch:
    """Open a batch directory and check its payloads against each other,
    their sidecars and the counts in ``batch.json``, without reading any rows."""
    directory = Path(directory)
    meta = read_json(directory / "batch.json")
    sparse = ArrayReader(directory / "sparse")
    labels = ArrayReader(directory / "labels")
    channels = ArrayReader(directory / "channels") if meta.get("has_channels") else None
    if len(sparse.shape) != 2:
        raise InvalidArgumentError(f"{directory}: sparse must be a 2-D (n, S) array")
    if len(labels) != len(sparse) or (channels is not None and len(channels) != len(sparse)):
        raise InvalidArgumentError(f"{directory}: sparse, labels and channels differ in length")
    if [meta.get("n_samples"), meta.get("n_coefficients")] != list(sparse.shape):
        raise InvalidArgumentError(f"{directory}: batch.json miscounts sparse's rows or columns")
    return StoredBatch(meta=meta, sparse=sparse, labels=labels, channels=channels)


def load_batch(directory: str | Path) -> tuple[GeneratedBatch, dict]:
    stored = open_batch(directory)
    batch = GeneratedBatch(
        sparse=stored.sparse[:],
        labels=stored.labels[:].astype(int),
        channels=None if stored.channels is None else stored.channels[:],
        provenance=stored.meta.get("provenance"),
    )
    return batch, stored.meta
