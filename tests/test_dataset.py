"""A dataset written by ``synthesize`` reads back bit for bit."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from chansbgm.container import read_array, read_json
from chansbgm.dataset import (
    _PATHS_FIELDS,
    check_synth_config,
    default_ofdm_synth_config,
    load_dataset,
    open_channels,
    synthesize,
)
from chansbgm.dictionary import DelayDopplerGrid, SystemConfig, grid_to_json, vectorize_channel
from chansbgm.errors import InvalidArgumentError
from chansbgm.scenario import (
    OfdmScenario,
    draw_ofdm_channel,
    make_observations,
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
    config = check_synth_config(dict(config))
    synthesize(config, 3, tmp_path)
    loaded, dictionary, meta = load_dataset(tmp_path)
    for name, stem in (("samples", "observations"), ("noise_vars", "noise_vars"),
                       ("snr_db", "snr_db")):
        written, _ = read_array(tmp_path / stem)
        read = getattr(loaded, name)
        assert (read.dtype, read.shape) == (written.dtype, written.shape), name
        assert read.tobytes() == written.tobytes(), name
    selection, _ = read_array(tmp_path / "selection")
    assert (selection[np.arange(len(loaded.pilots)), loaded.pilots] == 1.0).all()
    assert selection.sum() == len(loaded.pilots)
    assert meta == read_json(tmp_path / "scenario.json")
    assert (meta["kind"], meta["config"], meta["seed"]) == ("dataset", config, 3)
    assert "dictionary_id" not in meta
    assert grid_to_json(dictionary.grid) == meta["grid"]
    assert dictionary.config.to_json() == meta["system"]
    reader, opened = open_channels(tmp_path)
    assert reader.shape == (config["n_train"], dictionary.config.channel_dim)
    assert opened == meta


def test_ofdm_synthesis_equals_stacking_and_scaling_a_copy(tmp_path):
    # the rows are drawn, written, read back and scaled in place a row
    # block at a time; the reference stacks a list of rows and scales a
    # copy by the mean squared norm of the whole array
    config = check_synth_config(dict(OFDM, n_train=200))
    synthesize(config, 4, tmp_path)
    obs, _, document = load_dataset(tmp_path)
    channels, _ = read_array(tmp_path / "channels")
    system = SystemConfig.from_json(config["system"])
    rng = np.random.default_rng(4)
    grid = DelayDopplerGrid(config["doppler_size"], config["delay_size"],
                            config["doppler_bound_hz"], config["delay_bound_s"])
    scenario = OfdmScenario(system, grid)
    stacked = np.stack([vectorize_channel(draw_ofdm_channel(scenario, rng)) for _ in range(200)])
    scale = math.sqrt(system.channel_dim / float(np.mean(np.sum(np.abs(stacked) ** 2, axis=1))))
    expected = stacked * scale
    pilots = random_pilots(config["n_pilots"], system.channel_dim, rng)
    samples = make_observations(expected.take(pilots, axis=1), pilots, (5.0, 20.0), rng).samples
    assert document["normalization_scale"] == scale
    assert (channels.dtype, channels.shape) == (expected.dtype, expected.shape)
    assert channels.tobytes() == expected.tobytes()
    assert obs.samples.tobytes() == samples.tobytes()


def _ofdm_synth_peak(directory, n_train):
    """The tracemalloc peak of synthesizing the default OFDM config
    (N = 336 entries, M = 30 pilots) at ``n_train`` samples."""
    config = check_synth_config(dict(default_ofdm_synth_config(), n_train=n_train))
    directory.mkdir()
    tracemalloc.start()
    try:
        synthesize(config, 5, directory)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ofdm_synth_holds_one_block_and_the_observations(tmp_path, monkeypatch):
    # at 64-row blocks (344 kB) a few hundred samples span many blocks; the
    # channels of all samples would take 16 n N bytes (2.7 and 8.1 MB), and
    # synth holds one block of them and a few (n, M) and (n,) arrays: peaks
    # near 0.7 and 1.7 MB
    import chansbgm.utils as utils_module

    monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1 << 14)
    assert utils_module.row_blocks(500, 336)[0] == slice(0, 64)
    _ofdm_synth_peak(tmp_path / "warm-up", 1)  # first-call allocations are not the stage's
    small, large = 500, 1500
    peaks = [_ofdm_synth_peak(tmp_path / str(n), n) for n in (small, large)]
    for n, peak in zip((small, large), peaks):
        assert peak < 0.4 * 16 * n * 336, (n, peak)
    # the observations, the entries at the pilots and a few per-sample vectors
    assert peaks[1] - peaks[0] < (large - small) * (3 * 16 * 30 + 8 * 8)


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
