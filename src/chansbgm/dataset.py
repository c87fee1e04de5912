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

import numpy as np

from .container import ArrayReader, read_array, read_json, write_array, write_json
from .dictionary import (
    AngleGrid,
    DelayDopplerGrid,
    Dictionary,
    SystemConfig,
    grid_to_json,
    load_dictionary,
    vectorize_channel,
)
from .errors import InvalidArgumentError
from .scenario import (
    QUADRATURE_POINTS,
    AngleComponent,
    AngleProfile,
    ObservationSet,
    OfdmScenario,
    draw_ofdm_channel,
    make_observations,
    normalize_dataset,
    random_pilots,
    simo_channels,
)
from .utils import check_document, check_tagged_document

DATASET_DOCUMENT = "scenario.json"
# |SNR| in dB: with 10**(SNR/10) within 1e±30 the noise variances stay finite and positive
_SNR_BOUND_DB = 300.0

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


def synthesize(config: dict, seed: int) -> tuple[np.ndarray, ObservationSet, dict]:
    """Simulate the dataset of a checked synth config.

    Returns the (n, N) ground-truth channels, their observations and the
    dataset's ``scenario.json`` document. SIMO observes every antenna; OFDM
    draws ``n_pilots`` pilots after the channels, from the same generator.
    """
    system, grid = SystemConfig.from_json(config["system"]), _synth_grid(config)
    # ranges checked before any draw, so that the message names the config field
    snr, bound = config["snr_range_db"], _SNR_BOUND_DB
    if not all(-bound <= v <= bound for v in snr):
        raise InvalidArgumentError(f"snr_range_db {snr} must lie in [{-bound}, {bound}]")
    rng = np.random.default_rng(seed)
    n_train = config["n_train"]
    if config["scenario"] == "simo":
        profile = _angle_profile(config.get("angle_profile"))
        std = math.radians(config.get("laplacian_std_deg", 2.0))
        quad = config.get("quadrature_points", QUADRATURE_POINTS)
        channels = simo_channels(profile, std, system.n_antennas, n_train, rng, quad)
        pilots = np.arange(system.n_antennas)
    else:
        m, n = config["n_pilots"], system.channel_dim
        if not 1 <= m <= n:
            raise InvalidArgumentError(f"n_pilots {m} must lie in [1, {n}]")
        scenario = OfdmScenario(system, grid, **config.get("paths", {}))
        channels = np.empty((n_train, system.channel_dim), dtype=complex)
        for row in channels:
            row[:] = vectorize_channel(draw_ofdm_channel(scenario, rng))
        pilots = random_pilots(m, n, rng)
    scale = 1.0
    if config.get("normalize", config["scenario"] == "ofdm"):  # OFDM by default, SIMO on request
        channels, scale = normalize_dataset(channels)  # in place
    obs = make_observations(channels, pilots, tuple(config["snr_range_db"]), rng)
    document = {
        "kind": "dataset",
        "config": config,
        "seed": int(seed),
        "normalization_scale": scale,
        "grid": grid_to_json(grid),
        "system": system.to_json(),
        "n_train": n_train,
    }
    return channels, obs, document


def save_dataset(
    directory: str | Path, channels: np.ndarray, obs: ObservationSet, document: dict
) -> None:
    """Write a dataset into ``directory``, which must exist."""
    directory = Path(directory)
    write_array(directory / "channels", channels, role="ground-truth-channels")
    write_array(directory / "observations", obs.samples, role="observations")
    write_array(directory / "noise_vars", obs.noise_vars, role="noise-variances")
    write_array(directory / "snr_db", obs.snr_db, role="per-sample-snr-db")
    selection = np.eye(channels.shape[1])[obs.pilots]
    write_array(directory / "selection", selection, role="selection-matrix")
    write_json(directory / DATASET_DOCUMENT, document)


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
