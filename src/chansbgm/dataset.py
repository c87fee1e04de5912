"""The training dataset: its synth config, its simulation and its directory.

A dataset is what an access point collects in normal operation (noisy
compressed observations with their noise variances, SNRs and pilots),
stored with the ground-truth channels they were drawn from. This module
alone knows its directory: ``scenario.json`` and the arrays ``channels``,
``observations``, ``noise_vars``, ``snr_db`` and ``selection`` (the pilots
as the (M, N) 0/1 matrix with one unit row per pilot).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator

import numpy as np

from .container import ArrayReader, ArrayWriter, read_array, read_json, write_array, write_json
from .dictionary import (
    AngleGrid,
    DelayDopplerGrid,
    Dictionary,
    SystemConfig,
    grid_to_json,
    load_dictionary,
)
from .errors import InvalidArgumentError
from .scenario import (
    QUADRATURE_POINTS,
    AngleComponent,
    AngleProfile,
    ObservationSet,
    OfdmScenario,
    make_observations,
    normalization_scale,
    ofdm_channels,
    random_pilots,
    row_energies,
    simo_channels,
)
from .utils import check_document, check_tagged_document, row_blocks

DATASET_DOCUMENT = "scenario.json"
# |SNR| in dB: with 10**(SNR/10) within 1e±30 the noise variances stay finite and positive
_SNR_BOUND_DB = 300.0
# the coarsest spacing of angles in [-pi/2, pi/2), where SIMO path centers lie
_NODE_ULP = math.ulp(math.pi / 2)

# JSON types of the fields of each scenario's synth config (its system
# document is checked by SystemConfig.from_json, value ranges by the
# constructors that take the values)
_SYNTH_COMMON = {
    "n_train": "integer",
    "snr_range_db": "number pair",
    "system": "object",
    "normalize": "boolean",
}
_SYNTH_FIELDS = {
    "simo": {
        **_SYNTH_COMMON,
        "grid_size": "integer",
        "angle_profile": "array",
        "laplacian_std_deg": "number",
        "quadrature_points": "integer",
    },
    "ofdm": {
        **_SYNTH_COMMON,
        "doppler_size": "integer",
        "delay_size": "integer",
        "doppler_bound_hz": "number",
        "delay_bound_s": "number",
        "n_pilots": "integer",
        "paths": "object",
    },
}
_SYNTH_OPTIONAL = ("normalize", "angle_profile", "laplacian_std_deg", "quadrature_points", "paths")
_ANGLE_COMPONENT_FIELDS = {"center_deg": "number", "half_width_deg": "number", "weight": "number"}
# each paths field sets the OfdmScenario argument of its name (an absent
# field leaves that argument at its default)
_PATHS_FIELDS = {
    "max_paths": "integer",
    "delay_range_s": "number pair",
    "doppler_range_hz": "number pair",
    "gain_decay_rate": "number",
}


def default_simo_synth_config() -> dict:
    """Street-canyon SIMO dataset at the reference scale."""
    return {
        "scenario": "simo",
        "n_train": 10_000,
        "snr_range_db": [0.0, 20.0],
        "system": SystemConfig.simo(16).to_json(),
        "grid_size": 256,
        "laplacian_std_deg": 2.0,
    }


def default_ofdm_synth_config() -> dict:
    """Pilot-masked OFDM dataset at the reference scale."""
    return {
        "scenario": "ofdm",
        "n_train": 10_000,
        "snr_range_db": [5.0, 20.0],
        "system": SystemConfig.ofdm(24, 14, 15e3, 1e-3 / 14).to_json(),
        "doppler_size": 40,
        "delay_size": 40,
        "doppler_bound_hz": 250.0,
        "delay_bound_s": 6e-6,
        "n_pilots": 30,
        "normalize": True,
    }


def check_synth_config(document) -> dict:
    """Check a synth config with its system, angle_profile entries and paths."""
    config = check_tagged_document(
        document, "scenario", _SYNTH_FIELDS, "synth config", _SYNTH_OPTIONAL
    )
    if config["n_train"] < 1:
        raise InvalidArgumentError("n_train must be >= 1")
    scenario, variant = config["scenario"], SystemConfig.from_json(config["system"]).variant
    if variant != scenario:
        raise InvalidArgumentError(f"a {scenario} scenario cannot take a {variant} system")
    for entry in config.get("angle_profile", ()):
        check_document(
            entry, _ANGLE_COMPONENT_FIELDS, _ANGLE_COMPONENT_FIELDS, "angle_profile entry"
        )
    if "paths" in config:
        config["paths"] = check_document(config["paths"], _PATHS_FIELDS, what="paths")
    return config


def _angle_profile(entries: list[dict] | None) -> AngleProfile:
    """The angle profile of a config's ``angle_profile`` entries (degrees);
    the street-canyon profile when there are none."""
    if entries is None:
        return AngleProfile.street_canyons()
    return AngleProfile(
        components=tuple(
            AngleComponent(
                center=math.radians(e["center_deg"]),
                half_width=math.radians(e["half_width_deg"]),
                weight=e["weight"],
            )
            for e in entries
        )
    )


def _synth_grid(config: dict) -> AngleGrid | DelayDopplerGrid:
    """The coefficient grid of a checked synth config."""
    if config["scenario"] == "simo":
        return AngleGrid(config["grid_size"])
    return DelayDopplerGrid(
        doppler_size=config["doppler_size"],
        delay_size=config["delay_size"],
        doppler_bound=config["doppler_bound_hz"],
        delay_bound=config["delay_bound_s"],
    )


def _channel_blocks(
    config: dict, system: SystemConfig, grid: AngleGrid | DelayDopplerGrid, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The row blocks of a checked synth config's channels, drawn from
    ``rng`` as they are asked for; its fields are checked now."""
    n_train, n = config["n_train"], system.channel_dim
    if config["scenario"] == "ofdm":
        if not 1 <= config["n_pilots"] <= n:
            raise InvalidArgumentError(f"n_pilots {config['n_pilots']} must lie in [1, {n}]")
        return ofdm_channels(OfdmScenario(system, grid, **config.get("paths", {})), n_train, rng)
    profile = _angle_profile(config.get("angle_profile"))
    spread = config.get("laplacian_std_deg", 2.0)
    quad = config.get("quadrature_points", QUADRATURE_POINTS)
    std = math.radians(spread)
    # the +-10 std window must span one ulp of pi/2 per node, or the
    # nodes collapse onto a few angles and the covariance loses its trace
    if 20.0 * std < quad * _NODE_ULP:
        bound = math.degrees(quad * _NODE_ULP / 20.0)
        raise InvalidArgumentError(
            f"laplacian_std_deg {spread} must be at least {bound:.3g} at {quad} "
            "quadrature points"
        )
    return simo_channels(profile, std, n, n_train, rng, quad)


def synthesize(config: dict, seed: int, directory: str | Path) -> None:
    """Simulate the dataset of a checked synth config into ``directory``,
    which must exist.

    The ground-truth channels are drawn a row block at a time
    (:func:`~chansbgm.scenario.simo_channels`,
    :func:`~chansbgm.scenario.ofdm_channels`) and appended to ``channels``;
    only each channel's squared norm is kept. SIMO observes every antenna;
    OFDM draws ``n_pilots`` pilots after the channels, from the same
    generator. One pass over the stored rows then scales them in place by
    the normalization scale and gathers the entries at the pilots, which
    are observed, so no more than one block of channels is held at a time.
    """
    system, grid = SystemConfig.from_json(config["system"]), _synth_grid(config)
    # ranges checked before any draw, so that the message names the config field
    snr, bound = config["snr_range_db"], _SNR_BOUND_DB
    if not all(-bound <= v <= bound for v in snr):
        raise InvalidArgumentError(f"snr_range_db {snr} must lie in [{-bound}, {bound}]")
    rng = np.random.default_rng(seed)
    blocks = _channel_blocks(config, system, grid, rng)
    directory, n_train, n = Path(directory), config["n_train"], system.channel_dim
    energies = []
    with ArrayWriter(directory / "channels", role="ground-truth-channels") as writer:
        for block in blocks:
            energies.append(row_energies(block))
            writer.append(block)
            del block  # freed before the next block is drawn
    if config["scenario"] == "simo":
        pilots = np.arange(n)
    else:
        pilots = random_pilots(config["n_pilots"], n, rng)
    scale = 1.0
    if config.get("normalize", config["scenario"] == "ofdm"):  # OFDM by default, SIMO on request
        scale = normalization_scale(np.concatenate(energies), n)
    channels = ArrayReader(directory / "channels")
    compressed = np.empty((n_train, len(pilots)), dtype=complex)
    for rows in row_blocks(n_train, n):
        block = channels[rows]
        if scale != 1.0:  # x * 1.0 is x, so an unscaled row is left as written
            block *= scale
            channels[rows] = block
        compressed[rows] = block[:, pilots]
        del block  # freed before the next block is read
    obs = make_observations(compressed, pilots, tuple(snr), rng)
    write_array(directory / "observations", obs.samples, role="observations")
    write_array(directory / "noise_vars", obs.noise_vars, role="noise-variances")
    write_array(directory / "snr_db", obs.snr_db, role="per-sample-snr-db")
    selection = np.zeros((len(pilots), n))
    selection[np.arange(len(pilots)), pilots] = 1.0
    write_array(directory / "selection", selection, role="selection-matrix")
    write_json(directory / DATASET_DOCUMENT, {
        "kind": "dataset",
        "config": config,
        "seed": int(seed),
        "normalization_scale": scale,
        "grid": grid_to_json(grid),
        "system": system.to_json(),
        "n_train": n_train,
    })


def _selection_pilots(selection, n_entries: int):
    """Pilot indices of a stored (M, n_entries) 0/1 selection matrix with
    one 1 per row; :class:`ObservationSet` checks that the rows differ."""
    ones = selection == 1.0
    if selection.shape[1:] != (n_entries,) or not (
        (ones == (selection != 0.0)).all() and (ones.sum(axis=1) == 1).all()
    ):
        raise InvalidArgumentError(
            f"selection must be 0/1 with {n_entries} columns and one 1 per row"
        )
    return ones.argmax(axis=1)


def load_dataset(directory: str | Path) -> tuple[ObservationSet, Dictionary, dict]:
    """A dataset's observation set, dictionary and ``scenario.json`` document.

    The dictionary is rebuilt from the ``grid`` and ``system`` documents,
    which must be the grid and system that the document's synth ``config``
    describes; the stored selection matrix becomes the observation set's
    pilot indices. A ``dictionary_id`` (a hash of the dictionary's entries
    that earlier versions wrote) is ignored.
    """
    directory = Path(directory)
    meta = read_json(directory / DATASET_DOCUMENT)
    dictionary = load_dictionary(meta.get("grid"), meta.get("system"))
    config = check_synth_config(meta.get("config"))
    described = _synth_grid(config), SystemConfig.from_json(config["system"])
    if (dictionary.grid, dictionary.config) != described:
        raise InvalidArgumentError(
            f"{directory / DATASET_DOCUMENT}: grid and system are not those its config describes"
        )
    samples, _ = read_array(directory / "observations")
    noise_vars, _ = read_array(directory / "noise_vars")
    selection, _ = read_array(directory / "selection")
    snr_db, _ = read_array(directory / "snr_db")
    pilots = _selection_pilots(selection, dictionary.config.channel_dim)
    obs = ObservationSet(samples=samples, noise_vars=noise_vars, pilots=pilots, snr_db=snr_db)
    return obs, dictionary, meta


def open_channels(directory: str | Path) -> tuple[ArrayReader, dict]:
    """A reader of a dataset's ground-truth channels, and its ``scenario.json``."""
    meta = read_json(Path(directory) / DATASET_DOCUMENT)
    return ArrayReader(Path(directory) / "channels"), meta
