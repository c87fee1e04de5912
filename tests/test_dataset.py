"""A dataset written by ``save_dataset`` reads back bit for bit."""

from dataclasses import fields

import numpy as np
import pytest

from chansbgm.dataset import (
    _PATHS_FIELDS,
    check_synth_config,
    default_ofdm_synth_config,
    load_dataset,
    open_channels,
    save_dataset,
    synthesize,
)
from chansbgm.dictionary import DelayDopplerGrid, SystemConfig, grid_to_json, vectorize_channel
from chansbgm.errors import InvalidArgumentError
from chansbgm.scenario import (
    OfdmScenario,
    draw_ofdm_channel,
    make_observations,
    normalize_dataset,
    random_pilots,
)

SIMO = {
    "scenario": "simo",
    "n_train": 40,
    "snr_range_db": [0.0, 20.0],
    "system": {"variant": "simo", "n_antennas": 6},
    "grid_size": 24,
    "quadrature_points": 256,
}
OFDM = dict(
    default_ofdm_synth_config(),
    n_train=30,
    system={"variant": "ofdm", "n_subcarriers": 6, "n_symbols": 4,
            "subcarrier_spacing": 15e3, "symbol_duration": 1e-3 / 14},
    doppler_size=4,
    delay_size=4,
    n_pilots=10,
)


@pytest.mark.parametrize("config", [SIMO, OFDM], ids=["simo", "ofdm"])
def test_save_then_load_round_trips(tmp_path, config):
    channels, obs, document = synthesize(check_synth_config(dict(config)), seed=3)
    save_dataset(tmp_path, channels, obs, document)
    loaded, dictionary, meta = load_dataset(tmp_path)
    for name in ("samples", "noise_vars", "pilots", "snr_db"):
        written, read = getattr(obs, name), getattr(loaded, name)
        assert (read.dtype, read.shape) == (written.dtype, written.shape), name
        assert read.tobytes() == written.tobytes(), name
    assert meta == document
    assert "dictionary_id" not in document
    assert grid_to_json(dictionary.grid) == document["grid"]
    assert dictionary.config.to_json() == document["system"]
    reader, opened = open_channels(tmp_path)
    assert reader[:].tobytes() == channels.tobytes()
    assert opened == document


def test_ofdm_synthesis_equals_stacking_and_scaling_a_copy():
    # the rows are drawn into one array and scaled in place; the reference
    # stacks a list of rows and scales a copy
    config = check_synth_config(dict(OFDM, n_train=200))
    channels, obs, document = synthesize(config, seed=4)
    system = SystemConfig.from_json(config["system"])
    rng = np.random.default_rng(4)
    grid = DelayDopplerGrid(config["doppler_size"], config["delay_size"],
                            config["doppler_bound_hz"], config["delay_bound_s"])
    scenario = OfdmScenario(system, grid)
    stacked = np.stack([vectorize_channel(draw_ofdm_channel(scenario, rng)) for _ in range(200)])
    _, scale = normalize_dataset(stacked.copy())
    expected = stacked * scale
    pilots = random_pilots(config["n_pilots"], system.channel_dim, rng)
    samples = make_observations(expected, pilots, (5.0, 20.0), rng).samples
    assert document["normalization_scale"] == scale
    assert (channels.dtype, channels.shape) == (expected.dtype, expected.shape)
    assert channels.tobytes() == expected.tobytes()
    assert obs.samples.tobytes() == samples.tobytes()


def test_every_paths_field_sets_an_ofdm_scenario_argument():
    assert set(_PATHS_FIELDS) <= {f.name for f in fields(OfdmScenario)}



@pytest.mark.parametrize(
    "edit",
    [
        {"doppler_bound_hz": float("inf")},
        {"paths": {"gain_decay_rate": float("nan")}},
        {"paths": {"delay_range_s": [0.0, float("inf")]}},
        {"system": dict(OFDM["system"], subcarrier_spacing=float("nan"))},
    ],
    ids=["field", "paths-number", "paths-number-pair", "system"],
)
def test_non_finite_numbers_rejected(edit):
    with pytest.raises(InvalidArgumentError, match="must be number"):
        check_synth_config(dict(OFDM, **edit))


@pytest.mark.parametrize(
    "value, accepted",
    [(2**63 - 1, True), (-(2**63), True), (-float(2**63), True),
     (2**63, False), (float(2**63), False), (-(2**63) - 1, False)],
)
def test_integer_fields_hold_64_bits(value, accepted):
    config = dict(OFDM, n_pilots=value)  # ranges are left to the constructors
    if accepted:
        assert check_synth_config(config)["n_pilots"] == value
    else:
        with pytest.raises(InvalidArgumentError, match="'n_pilots' must be integer"):
            check_synth_config(config)
