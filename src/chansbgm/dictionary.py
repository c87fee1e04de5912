"""Parameter grids and steering-vector dictionaries.

Two system families are supported:

* SIMO: a half-wavelength uniform linear array samples the spatial domain;
  dictionary columns are array steering vectors on a uniform angle grid.
* OFDM: time/frequency sampling of a doubly dispersive channel; dictionary
  columns are outer products of Doppler and delay steering vectors on a
  uniform delay-Doppler grid, the Kronecker product D_t kron D_f.

A dictionary keeps its steering factors, ``(D,)`` for SIMO and
``(D_t, D_f)`` for OFDM, not the product: rendering channels
(:meth:`Dictionary.apply`) and gathering the rows observed at pilots
(:meth:`Dictionary.rows`) go through the factors, so no stage forms the
(channel_dim, grid size) OFDM matrix. ``rows`` forms every row of the
product, those of ``Dictionary.matrix`` included.

Grids are stored as integer sizes plus bounds (points are derived on
demand), so value equality of grids never depends on floating-point
round-off. Dictionaries are immutable after construction.

A dictionary is a pure function of its grid and system configuration, so
it is never stored: :func:`build_dictionary` derives it (the grid type
picks the builder), and :func:`load_dictionary` does the same from the
``grid`` and ``system`` JSON documents that datasets and models carry.
Those two documents are also its only name. No hash of its entries
stands for it, since their last bits vary with numpy's SIMD dispatch
while the dictionary they describe does not.

Vectorization convention for OFDM: a channel matrix ``H`` of shape
(n_subcarriers, n_symbols) is flattened column-major (frequency index
fastest), which makes ``h = (D_t kron D_f) s`` with coefficient index
``q * S_f + p`` for Doppler bin q and delay bin p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import InvalidArgumentError
from .utils import check_tagged_document

MAX_DICTIONARY_COLUMNS = 1 << 16

SIMO = "simo"
OFDM = "ofdm"

# the fields of each kind of grid document and variant of system document,
# in the order the documents are written and checked
_GRID_FIELDS = {
    "angle": {"size": "integer"},
    "delay_doppler": {
        "doppler_size": "integer",
        "delay_size": "integer",
        "doppler_bound": "number",
        "delay_bound": "number",
    },
}
_SYSTEM_FIELDS = {
    SIMO: {"n_antennas": "integer"},
    OFDM: {
        "n_subcarriers": "integer",
        "n_symbols": "integer",
        "subcarrier_spacing": "number",
        "symbol_duration": "number",
    },
}


def _check_columns(size: int) -> None:
    """A grid point is a dictionary column and a coefficient. The cap bounds
    what grows with the grid: coefficient blocks, the fit's effective
    dictionary and variances, and ``Dictionary.matrix`` when it is formed."""
    if size > MAX_DICTIONARY_COLUMNS:
        raise InvalidArgumentError(
            f"grid has {size} columns, exceeding the limit of {MAX_DICTIONARY_COLUMNS}"
        )


@dataclass(frozen=True)
class AngleGrid:
    """Uniform angle grid g*pi/size for g = -size/2 .. size/2 - 1 (radians)."""

    size: int

    def __post_init__(self):
        if self.size < 2 or self.size % 2 != 0:
            raise InvalidArgumentError("angle grid size must be a positive even integer")
        _check_columns(self.size)

    @property
    def points(self) -> np.ndarray:
        g = np.arange(-self.size // 2, self.size // 2)
        return g * (math.pi / self.size)


@dataclass(frozen=True)
class DelayDopplerGrid:
    """Uniform product grid over Doppler shift (Hz) and delay (seconds).

    Doppler points: i * 2*doppler_bound/doppler_size, i = -S_t/2 .. S_t/2-1.
    Delay points: j * delay_bound/delay_size, j = 0 .. S_f-1.
    """

    doppler_size: int
    delay_size: int
    doppler_bound: float
    delay_bound: float

    def __post_init__(self):
        if self.doppler_size < 2 or self.doppler_size % 2 != 0:
            raise InvalidArgumentError("doppler_size must be a positive even integer")
        if self.delay_size < 1:
            raise InvalidArgumentError("delay_size must be >= 1")
        if not (self.doppler_bound > 0 and math.isfinite(self.doppler_bound)):
            raise InvalidArgumentError("doppler_bound must be positive and finite")
        if not (self.delay_bound > 0 and math.isfinite(self.delay_bound)):
            raise InvalidArgumentError("delay_bound must be positive and finite")
        _check_columns(self.size)

    @property
    def doppler_points(self) -> np.ndarray:
        i = np.arange(-self.doppler_size // 2, self.doppler_size // 2)
        return i * (2.0 * self.doppler_bound / self.doppler_size)

    @property
    def delay_points(self) -> np.ndarray:
        j = np.arange(self.delay_size)
        return j * (self.delay_bound / self.delay_size)

    @property
    def size(self) -> int:
        return self.doppler_size * self.delay_size


@dataclass(frozen=True)
class SystemConfig:
    """System configuration: either a SIMO array or an OFDM grid.

    Use :meth:`simo` or :meth:`ofdm` to construct.
    """

    variant: str
    n_antennas: int = 0
    n_subcarriers: int = 0
    n_symbols: int = 0
    subcarrier_spacing: float = 0.0
    symbol_duration: float = 0.0

    @classmethod
    def simo(cls, n_antennas: int) -> "SystemConfig":
        if n_antennas < 1:
            raise InvalidArgumentError("n_antennas must be >= 1")
        return cls(variant=SIMO, n_antennas=int(n_antennas))

    @classmethod
    def ofdm(
        cls,
        n_subcarriers: int,
        n_symbols: int,
        subcarrier_spacing: float,
        symbol_duration: float,
    ) -> "SystemConfig":
        if n_subcarriers < 1 or n_symbols < 1:
            raise InvalidArgumentError("subcarrier and symbol counts must be >= 1")
        if not (subcarrier_spacing > 0 and symbol_duration > 0):
            raise InvalidArgumentError("subcarrier_spacing and symbol_duration must be > 0")
        return cls(
            variant=OFDM,
            n_subcarriers=int(n_subcarriers),
            n_symbols=int(n_symbols),
            subcarrier_spacing=float(subcarrier_spacing),
            symbol_duration=float(symbol_duration),
        )

    @property
    def channel_dim(self) -> int:
        if self.variant == SIMO:
            return self.n_antennas
        return self.n_subcarriers * self.n_symbols

    def to_json(self) -> dict:
        fields = _SYSTEM_FIELDS[self.variant]
        return {"variant": self.variant, **{key: getattr(self, key) for key in fields}}

    @classmethod
    def from_json(cls, doc: dict) -> "SystemConfig":
        fields = check_tagged_document(doc, "variant", _SYSTEM_FIELDS, "system document")
        return cls.simo(**fields) if fields.pop("variant") == SIMO else cls.ofdm(**fields)


@dataclass(frozen=True)
class Dictionary:
    """Steering-vector dictionary over a parameter grid, kept as its factors.

    ``factors`` is ``(D,)`` for SIMO, the (n_antennas, size) ULA steering
    matrix, and ``(D_t, D_f)`` for OFDM, the (n_symbols, doppler_size)
    Doppler and (n_subcarriers, delay_size) delay steering matrices. The
    dictionary is the Kronecker product of its factors, of shape
    (channel_dim, grid size), and every entry is unit-modulus.
    :meth:`apply` and :meth:`rows` work through the factors; only
    ``matrix`` forms the product, when it is first read.
    """

    factors: tuple[np.ndarray, ...]
    grid: AngleGrid | DelayDopplerGrid
    config: SystemConfig

    def __post_init__(self):
        for factor in self.factors:
            factor.flags.writeable = False

    @property
    def n_columns(self) -> int:
        return math.prod(factor.shape[1] for factor in self.factors)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (channel_dim, n_columns) matrix, formed on first use."""
        matrix = self.rows(np.arange(self.config.channel_dim))
        matrix.flags.writeable = False
        return matrix

    def apply(self, s: np.ndarray) -> np.ndarray:
        """Channels D s of the coefficient rows ``s`` (n, n_columns), as an
        (n, channel_dim) array.

        For OFDM each row is reshaped to S of shape (doppler_size,
        delay_size) and rendered as D_t S D_f^T, Doppler factor first; the
        rows of the result depend only on the rows of ``s`` they come from.
        """
        if len(self.factors) == 1:
            return s @ self.factors[0].T
        d_t, d_f = self.factors
        n = len(s)
        doppler = d_t @ s.reshape(n, d_t.shape[1], d_f.shape[1])
        return (doppler.reshape(-1, d_f.shape[1]) @ d_f.T).reshape(n, -1)

    def rows(self, pilots) -> np.ndarray:
        """The dictionary rows at channel entries ``pilots``: the effective
        dictionary W = A D of observations at those pilots.

        Row t * n_subcarriers + f of an OFDM dictionary is
        ``kron_rows(D_t[[t]], D_f[[f]])``, the products ``np.kron`` forms,
        so every row equals that of ``np.kron(D_t, D_f)`` bit for bit.
        """
        pilots = check_pilots(pilots, self.config.channel_dim)
        indices = np.unravel_index(pilots, tuple(len(factor) for factor in self.factors))
        return reduce(kron_rows, (factor[i] for factor, i in zip(self.factors, indices)))


def kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product: row i is ``np.kron(a[i], b[i])``, from
    the same products, for ``a`` of shape (n, p) and ``b`` (n, q)."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def check_pilots(pilots, n_entries: int | None = None) -> np.ndarray:
    """``pilots`` as a 1-D array of distinct non-negative integers, each
    below ``n_entries`` when that is given."""
    pilots = np.asarray(pilots)
    if pilots.ndim != 1 or pilots.dtype.kind not in "iu":
        raise InvalidArgumentError("pilots must be a 1-D integer index vector")
    ordered = np.sort(pilots)  # not np.unique, whose first call imports numpy.ma
    if np.any(pilots < 0) or np.any(ordered[1:] == ordered[:-1]):
        raise InvalidArgumentError("pilots must be distinct non-negative indices")
    if n_entries is not None and np.any(pilots >= n_entries):
        raise InvalidArgumentError(f"pilots must be below the {n_entries} channel entries")
    return pilots


def ula_matrix(angles: np.ndarray, n_antennas: int) -> np.ndarray:
    """Half-wavelength ULA steering vectors toward ``angles`` as columns.

    Entry (i, g) is exp(-j*pi*i*sin(angles[g])) with 0-based i; the shape
    is (n_antennas, len(angles)).
    """
    idx = np.arange(n_antennas)[:, None]
    return np.exp(-1j * math.pi * idx * np.sin(angles)[None, :])


def doppler_matrix(dopplers: np.ndarray, n_symbols: int, symbol_duration: float) -> np.ndarray:
    """Temporal steering vectors toward Doppler shifts ``dopplers`` (Hz) as
    columns: entry (i, q) is exp(+j*2*pi*dopplers[q]*i*dT) with 0-based i."""
    sym = np.arange(n_symbols)[:, None]
    return np.exp(2j * math.pi * sym * (np.asarray(dopplers) * symbol_duration)[None, :])


def delay_matrix(delays: np.ndarray, n_subcarriers: int, subcarrier_spacing: float) -> np.ndarray:
    """Spectral steering vectors toward delays ``delays`` (seconds) as
    columns: entry (j, p) is exp(-j*2*pi*delays[p]*j*df) with 0-based j."""
    sub = np.arange(n_subcarriers)[:, None]
    return np.exp(-2j * math.pi * sub * (np.asarray(delays) * subcarrier_spacing)[None, :])


def check_pairing(grid: AngleGrid | DelayDopplerGrid, config: SystemConfig) -> None:
    """An angle grid needs a SIMO system, a delay-Doppler grid an OFDM one."""
    if isinstance(grid, AngleGrid) and config.variant != SIMO:
        raise InvalidArgumentError("an angle grid needs a SIMO system config")
    if isinstance(grid, DelayDopplerGrid) and config.variant != OFDM:
        raise InvalidArgumentError("a delay-Doppler grid needs an OFDM system config")


def build_simo_dictionary(grid: AngleGrid, config: SystemConfig) -> Dictionary:
    """Columns are ULA steering vectors at the grid angles; shape (N, size)."""
    check_pairing(grid, config)
    d = ula_matrix(grid.points, config.n_antennas)
    return Dictionary(factors=(d,), grid=grid, config=config)


def build_ofdm_dictionary(grid: DelayDopplerGrid, config: SystemConfig) -> Dictionary:
    """Kronecker dictionary D_t kron D_f over the delay-Doppler grid.

    D_t has shape (n_symbols, doppler_size), D_f (n_subcarriers,
    delay_size); the dictionary keeps both, and its product has shape
    (n_symbols*n_subcarriers, doppler_size*delay_size).
    """
    check_pairing(grid, config)
    d_t = doppler_matrix(grid.doppler_points, config.n_symbols, config.symbol_duration)
    d_f = delay_matrix(grid.delay_points, config.n_subcarriers, config.subcarrier_spacing)
    return Dictionary(factors=(d_t, d_f), grid=grid, config=config)


def build_dictionary(grid: AngleGrid | DelayDopplerGrid, config: SystemConfig) -> Dictionary:
    """Dictionary over ``grid`` sampled by ``config``.

    An angle grid takes :func:`build_simo_dictionary`, a delay-Doppler grid
    :func:`build_ofdm_dictionary`; either rejects a ``config`` of the other
    variant (:func:`check_pairing`).
    """
    if isinstance(grid, AngleGrid):
        return build_simo_dictionary(grid, config)
    return build_ofdm_dictionary(grid, config)


def vectorize_channel(channel_matrix: np.ndarray) -> np.ndarray:
    """Flatten an OFDM channel matrix (n_subcarriers, n_symbols) to a vector.

    Column-major: the frequency index varies fastest, matching the
    Kronecker column convention of :func:`build_ofdm_dictionary`.
    """
    return np.asarray(channel_matrix).flatten(order="F")


def grid_to_json(grid: AngleGrid | DelayDopplerGrid) -> dict:
    kind = "angle" if isinstance(grid, AngleGrid) else "delay_doppler"
    return {"kind": kind, **{key: getattr(grid, key) for key in _GRID_FIELDS[kind]}}


def grid_from_json(doc: dict) -> AngleGrid | DelayDopplerGrid:
    fields = check_tagged_document(doc, "kind", _GRID_FIELDS, "grid document")
    return AngleGrid(**fields) if fields.pop("kind") == "angle" else DelayDopplerGrid(**fields)


def load_dictionary(grid_doc: dict, system_doc: dict) -> Dictionary:
    """Build the dictionary described by a ``grid`` and a ``system`` document."""
    return build_dictionary(grid_from_json(grid_doc), SystemConfig.from_json(system_doc))
