"""Parameter grids and steering-vector dictionaries.

Two system families are supported:

* SIMO: a half-wavelength uniform linear array samples the spatial domain;
  dictionary columns are array steering vectors on a uniform angle grid.
* OFDM: time/frequency sampling of a doubly dispersive channel; dictionary
  columns are outer products of Doppler and delay steering vectors on a
  uniform delay-Doppler grid, stored as a Kronecker product.

Grids are stored as integer sizes plus bounds (points are derived on
demand), so value equality of grids never depends on floating-point
round-off. Dictionaries are immutable after construction.

A dictionary is a pure function of its grid and system configuration, so
it is never stored: :func:`build_dictionary` derives it (the grid type
picks the builder), and :func:`load_dictionary` does the same from the
``grid`` and ``system`` JSON documents that datasets and models carry.

Vectorization convention for OFDM: a channel matrix ``H`` of shape
(n_subcarriers, n_symbols) is flattened column-major (frequency index
fastest), which makes ``h = (D_t kron D_f) s`` with coefficient index
``q * S_f + p`` for Doppler bin q and delay bin p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainMismatchError, InvalidArgumentError
from .utils import check_tagged_document, content_id

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


@dataclass(frozen=True)
class AngleGrid:
    """Uniform angle grid g*pi/size for g = -size/2 .. size/2 - 1 (radians)."""

    size: int

    def __post_init__(self):
        if self.size < 2 or self.size % 2 != 0:
            raise InvalidArgumentError("angle grid size must be a positive even integer")

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
    """Dense steering-vector dictionary over a parameter grid.

    ``matrix`` has shape (channel_dim, grid size); every entry is
    unit-modulus. For OFDM the Doppler and delay factors are kept so the
    Kronecker structure stays available to structured algorithms.
    """

    matrix: np.ndarray
    grid: AngleGrid | DelayDopplerGrid
    config: SystemConfig
    doppler_factor: np.ndarray | None = None
    delay_factor: np.ndarray | None = None

    def __post_init__(self):
        self.matrix.flags.writeable = False
        if self.doppler_factor is not None:
            self.doppler_factor.flags.writeable = False
        if self.delay_factor is not None:
            self.delay_factor.flags.writeable = False

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    @property
    def content_id(self) -> str:
        return content_id(self.matrix.tobytes())


def steering_vector_ula(theta: float, n_antennas: int) -> np.ndarray:
    """Steering vector of a half-wavelength ULA toward angle ``theta``.

    Entry i (1-based) is exp(-j*pi*(i-1)*sin(theta)); entry 1 is always 1.
    """
    if n_antennas < 1:
        raise InvalidArgumentError("n_antennas must be >= 1")
    if not math.isfinite(theta):
        raise InvalidArgumentError("theta must be finite")
    idx = np.arange(n_antennas)
    return np.exp(-1j * math.pi * idx * math.sin(theta))


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


def build_simo_dictionary(grid: AngleGrid, config: SystemConfig) -> Dictionary:
    """Columns are ULA steering vectors at the grid angles; shape (N, size)."""
    if config.variant != SIMO:
        raise DomainMismatchError("an angle grid needs a SIMO system config")
    return Dictionary(matrix=ula_matrix(grid.points, config.n_antennas), grid=grid, config=config)


def build_ofdm_dictionary(
    grid: DelayDopplerGrid,
    config: SystemConfig,
    max_columns: int = MAX_DICTIONARY_COLUMNS,
) -> Dictionary:
    """Kronecker dictionary D_t kron D_f over the delay-Doppler grid.

    D_t has shape (n_symbols, doppler_size), D_f (n_subcarriers,
    delay_size); the full matrix has shape (n_symbols*n_subcarriers,
    doppler_size*delay_size).
    """
    if config.variant != OFDM:
        raise DomainMismatchError("a delay-Doppler grid needs an OFDM system config")
    if grid.size > max_columns:
        raise CapacityError(
            f"grid has {grid.size} columns, exceeding the limit of {max_columns}"
        )
    d_t = doppler_matrix(grid.doppler_points, config.n_symbols, config.symbol_duration)
    d_f = delay_matrix(grid.delay_points, config.n_subcarriers, config.subcarrier_spacing)
    matrix = np.kron(d_t, d_f)
    return Dictionary(
        matrix=matrix,
        grid=grid,
        config=config,
        doppler_factor=d_t,
        delay_factor=d_f,
    )


def build_dictionary(grid: AngleGrid | DelayDopplerGrid, config: SystemConfig) -> Dictionary:
    """Dictionary over ``grid`` sampled by ``config``.

    An angle grid takes :func:`build_simo_dictionary`, a delay-Doppler grid
    :func:`build_ofdm_dictionary`; either raises ``DomainMismatchError``
    when ``config`` is of the other variant.
    """
    if isinstance(grid, AngleGrid):
        return build_simo_dictionary(grid, config)
    return build_ofdm_dictionary(grid, config)


def swap_system_config(dictionary: Dictionary, new_config: SystemConfig) -> Dictionary:
    """Re-evaluate the dictionary for a new system configuration.

    The parameter grid is unchanged; only the sampling of the steering
    vectors (antenna count, or OFDM timing/grid dimensions) changes.
    """
    return build_dictionary(dictionary.grid, new_config)


def vectorize_channel(channel_matrix: np.ndarray) -> np.ndarray:
    """Flatten an OFDM channel matrix (n_subcarriers, n_symbols) to a vector.

    Column-major: the frequency index varies fastest, matching the
    Kronecker column convention of :func:`build_ofdm_dictionary`.
    """
    return np.asarray(channel_matrix).flatten(order="F")


def unvectorize_channel(h: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Inverse of :func:`vectorize_channel`."""
    if config.variant != OFDM:
        raise DomainMismatchError("unvectorize_channel requires an OFDM config")
    return np.asarray(h).reshape((config.n_subcarriers, config.n_symbols), order="F")


def grid_to_json(grid: AngleGrid | DelayDopplerGrid) -> dict:
    kind = "angle" if isinstance(grid, AngleGrid) else "delay_doppler"
    return {"kind": kind, **{key: getattr(grid, key) for key in _GRID_FIELDS[kind]}}


def grid_from_json(doc: dict) -> AngleGrid | DelayDopplerGrid:
    fields = check_tagged_document(doc, "kind", _GRID_FIELDS, "grid document")
    return AngleGrid(**fields) if fields.pop("kind") == "angle" else DelayDopplerGrid(**fields)


def load_dictionary(grid_doc: dict, system_doc: dict) -> Dictionary:
    """Build the dictionary described by a ``grid`` and a ``system`` document."""
    return build_dictionary(grid_from_json(grid_doc), SystemConfig.from_json(system_doc))
