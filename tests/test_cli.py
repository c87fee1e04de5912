import json
import os
from pathlib import Path

import numpy as np
import pytest

from chansbgm.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from chansbgm.dataset import default_ofdm_synth_config, load_dataset


def small_simo_config():
    return {
        "scenario": "simo",
        "n_train": 30,
        "snr_range_db": [0.0, 20.0],
        "system": {"variant": "simo", "n_antennas": 6},
        "grid_size": 24,
        "quadrature_points": 256,
    }


def small_ofdm_config():
    cfg = default_ofdm_synth_config()
    cfg.update(
        {
            "n_train": 25,
            "system": {
                "variant": "ofdm",
                "n_subcarriers": 6,
                "n_symbols": 4,
                "subcarrier_spacing": 15e3,
                "symbol_duration": 1e-3 / 14,
            },
            "doppler_size": 4,
            "delay_size": 4,
            "n_pilots": 10,
        }
    )
    return cfg


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def dir_bytes(directory):
    """Map of relative path to content bytes for a whole directory."""
    directory = Path(directory)
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def simo_dataset(tmp_path):
    cfg = write_config(tmp_path, small_simo_config())
    out = tmp_path / "dataset"
    assert main(["synth", "--config", cfg, "--seed", "11", "--out", str(out)]) == EXIT_OK
    return out


class TestSynth:
    def test_writes_all_artifacts(self, simo_dataset):
        stems = ("channels", "observations", "noise_vars", "snr_db", "selection")
        expected = {"scenario.json"} | {f"{s}.{ext}" for s in stems for ext in ("json", "bin")}
        assert {p.name for p in simo_dataset.iterdir()} == expected

    def test_single_sample_smoke_run(self, tmp_path):
        cfg = small_simo_config()
        cfg["n_train"] = 1
        path = write_config(tmp_path, cfg)
        out = tmp_path / "one"
        assert main(["synth", "--config", path, "--seed", "0", "--out", str(out)]) == EXIT_OK
        obs, dictionary, meta = load_dataset(out)
        assert len(obs) == 1
        assert meta["n_train"] == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, small_ofdm_config())
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["synth", "--config", cfg, "--seed", "5", "--out", str(out1)]) == EXIT_OK
        assert main(["synth", "--config", cfg, "--seed", "5", "--out", str(out2)]) == EXIT_OK
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_different_seed_changes_data(self, tmp_path):
        cfg = write_config(tmp_path, small_simo_config())
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["synth", "--config", cfg, "--seed", "1", "--out", str(out1)])
        main(["synth", "--config", cfg, "--seed", "2", "--out", str(out2)])
        assert (out1 / "channels.bin").read_bytes() != (out2 / "channels.bin").read_bytes()

    def test_invalid_config_rejected(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "simo"})
        assert (
            main(["synth", "--config", path, "--seed", "0", "--out", str(tmp_path / "x")])
            == EXIT_BAD_CONFIG
        )

    @pytest.mark.parametrize(
        "make, edit",
        [
            (small_simo_config, lambda c: c.update(n_train="5")),
            (small_ofdm_config, lambda c: c.update(n_train=0)),
            (small_simo_config, lambda c: c.update(snr_range_db=[0.0, 10.0, 20.0])),
            (small_simo_config, lambda c: c.update(grid=24)),
            (small_simo_config,
             lambda c: c.update(angle_profile=[{"center_deg": 0.0, "half_width_deg": 5.0}])),
            (small_ofdm_config, lambda c: c.update(paths={"gain_decay_rate": -1.0})),
            (small_ofdm_config, lambda c: c.update(paths={"max_path": 3})),
            (small_ofdm_config, lambda c: c.update(normalize="yes")),
            (small_simo_config, lambda c: c.update(scenario="mimo")),
            (small_ofdm_config, lambda c: c.update(grid_size=1)),
            (small_simo_config, lambda c: c.update(system=small_ofdm_config()["system"])),
            (small_simo_config, lambda c: c.update(grid_size=131072)),
            (small_simo_config, lambda c: c.update(quadrature_points=0)),
            (small_simo_config, lambda c: c.update(n_train=10**30)),
            (small_simo_config, lambda c: c.update(n_train=1e30)),
            (small_simo_config, lambda c: c.update(n_train=2**63)),
            (small_ofdm_config, lambda c: c.update(n_pilots=0)),
            (small_ofdm_config, lambda c: c.update(n_pilots=400)),
            (small_simo_config, lambda c: c.update(snr_range_db=[4000.0, 4000.0])),
            (small_simo_config, lambda c: c.update(snr_range_db=[-4000.0, -4000.0])),
            (small_simo_config, lambda c: c.update(laplacian_std_deg=1e-16)),
            (small_simo_config, lambda c: c.update(laplacian_std_deg=1e-300)),
        ],
        ids=["n_train-string", "ofdm-n_train-0", "snr-three-items", "unknown-key",
             "profile-entry-without-weight", "negative-gain-decay", "paths-unknown-key",
             "normalize-string",
             "scenario-mimo", "simo-field-in-ofdm", "system-of-other-variant",
             "simo-grid-above-the-column-cap", "quadrature-points-0",
             "n_train-1e30-integer", "n_train-1e30-float", "n_train-int64-max-plus-one",
             "n_pilots-0", "n_pilots-above-the-channel-entries", "snr-too-high", "snr-too-low",
             "spread-1e-16", "spread-1e-300"],
    )
    def test_malformed_config_rejected(self, tmp_path, capsys, request, make, edit):
        config = make()
        edit(config)
        path = write_config(tmp_path, config)
        out = tmp_path / "x"
        assert main(["synth", "--config", path, "--seed", "0", "--out", str(out)]) == (
            EXIT_BAD_CONFIG
        )
        assert not out.exists()
        # a range error names the field, its value and the bound (6 x 4 channel entries)
        message = {
            "n_pilots-0": "n_pilots 0 must lie in [1, 24]",
            "n_pilots-above-the-channel-entries": "n_pilots 400 must lie in [1, 24]",
            "snr-too-high": "snr_range_db [4000.0, 4000.0] must lie in [-300.0, 300.0]",
            "snr-too-low": "snr_range_db [-4000.0, -4000.0] must lie in [-300.0, 300.0]",
            "spread-1e-16": (
                "laplacian_std_deg 1e-16 must be at least 1.63e-13 at 256 quadrature points"
            ),
            "spread-1e-300": (
                "laplacian_std_deg 1e-300 must be at least 1.63e-13 at 256 quadrature points"
            ),
        }.get(request.node.callspec.id)
        assert message is None or message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda c: c.update(snr_range_db=[float("nan"), 20.0]), "snr_range_db"),
            (lambda c: c.update(snr_range_db=[0.0, float("inf")]), "snr_range_db"),
            (lambda c: c.update(angle_profile=[
                {"center_deg": 0.0, "half_width_deg": 5.0, "weight": float("nan")}]), "weight"),
            (lambda c: c.update(laplacian_std_deg=float("inf")), "laplacian_std_deg"),
        ],
        ids=["snr-nan", "snr-infinity", "profile-weight-nan", "laplacian-std-infinity"],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, edit, field):
        config = small_simo_config()
        edit(config)
        path = write_config(tmp_path, config)  # json writes NaN and Infinity
        out = tmp_path / "x"
        assert main(["synth", "--config", path, "--seed", "0", "--out", str(out)]) == (
            EXIT_BAD_CONFIG
        )
        assert f"{field!r} must be number" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_profile_center_rejected_without_hanging(self, tmp_path):
        # a NaN center never passes the truncation test of sample_angle's
        # rejection loop, so the check must come first; a separate process
        # with a timeout fails the test if the loop is ever reached again
        import subprocess
        import sys

        config = small_simo_config()
        config["angle_profile"] = [
            {"center_deg": float("nan"), "half_width_deg": 5.0, "weight": 1.0}
        ]
        path = write_config(tmp_path, config)
        out = tmp_path / "x"
        done = subprocess.run(
            [sys.executable, "-m", "chansbgm.cli", "synth", "--config", path,
             "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert done.returncode == EXIT_BAD_CONFIG
        assert "'center_deg' must be number" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["simo", "ofdm"])
    def test_system_of_another_variant_rejected_before_drawing(
        self, tmp_path, capsys, scenario
    ):
        config, other = small_simo_config(), small_ofdm_config()
        if scenario == "ofdm":
            config, other = other, config
        config["system"] = other["system"]
        path = write_config(tmp_path, config)
        out = tmp_path / "x"
        assert main(["synth", "--config", path, "--seed", "0", "--out", str(out)]) == (
            EXIT_BAD_CONFIG
        )
        assert f"a {scenario} scenario cannot take a" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def synth_matrices(tmp_path, name, paths):
        """The channels that synth draws for the small OFDM config with
        ``paths``, each reshaped to its (n_subcarriers, n_symbols) matrix."""
        from chansbgm.container import read_array

        config = small_ofdm_config()
        config["paths"] = paths
        out = tmp_path / name
        path = write_config(tmp_path, config, f"{name}.json")
        assert main(["synth", "--config", path, "--seed", "3", "--out", str(out)]) == EXIT_OK
        channels, _ = read_array(out / "channels")
        system = config["system"]
        shape = (system["n_subcarriers"], system["n_symbols"])
        return channels, np.stack([row.reshape(shape, order="F") for row in channels])

    def test_paths_reach_the_scenario(self, tmp_path):
        # one path per channel: every channel matrix is one outer product
        _, matrices = self.synth_matrices(tmp_path, "one", {"max_paths": 1})
        assert (np.linalg.matrix_rank(matrices) == 1).all()
        _, matrices = self.synth_matrices(tmp_path, "default", {})
        assert (np.linalg.matrix_rank(matrices) > 1).any()
        # every path at one delay and one Doppler: the channels differ only by a factor
        pinned = {"delay_range_s": [1e-6, 1e-6], "doppler_range_hz": [50.0, 50.0]}
        channels, _ = self.synth_matrices(tmp_path, "pinned", pinned)
        assert np.linalg.matrix_rank(channels) == 1

    @pytest.mark.parametrize(
        "paths, message",
        [
            ({"delay_range_s": [0, 1e-5]}, "delay_range_s [0.0, 1e-05] must lie within [0, 6e-06)"),
            ({"doppler_range_hz": [-300, 0]},
             "doppler_range_hz [-300.0, 0.0] must lie within [-250.0, 250.0]"),
        ],
        ids=["delay", "doppler"],
    )
    def test_paths_range_outside_the_grid_rejected(self, tmp_path, capsys, paths, message):
        config = small_ofdm_config()
        config["paths"] = paths
        out = tmp_path / "x"
        assert main(["synth", "--config", write_config(tmp_path, config), "--seed", "0",
                     "--out", str(out)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_integral_floats_accepted_as_integers(self, tmp_path):
        config = small_simo_config()
        config.update(n_train=30.0, grid_size=24.0, quadrature_points=256.0)
        config["system"]["n_antennas"] = 6.0
        as_floats, as_ints = tmp_path / "floats", tmp_path / "ints"
        for cfg, out in ((config, as_floats), (small_simo_config(), as_ints)):
            path = write_config(tmp_path, cfg)
            assert main(["synth", "--config", path, "--seed", "4", "--out", str(out)]) == EXIT_OK
        written = dir_bytes(as_floats)
        assert written.keys() == dir_bytes(as_ints).keys()
        for name, data in dir_bytes(as_ints).items():
            if name != "scenario.json":
                assert written[name] == data, name

    def test_ofdm_normalization_target(self, tmp_path):
        cfg = write_config(tmp_path, small_ofdm_config())
        out = tmp_path / "ofdm"
        main(["synth", "--config", cfg, "--seed", "3", "--out", str(out)])
        from chansbgm.container import read_array

        channels, _ = read_array(out / "channels")
        energy = np.mean(np.sum(np.abs(channels) ** 2, axis=1))
        assert energy == pytest.approx(24.0, abs=1e-9)  # 6 x 4 resource elements


class TestStreamedSynth:
    """synth draws, scales and gathers its channels a row block at a time:
    the bytes do not depend on the block size, and a failed synth leaves
    --out as it was."""

    STEMS = ("channels", "observations", "noise_vars", "snr_db", "selection")

    @pytest.mark.parametrize(
        "config",
        [
            dict(small_simo_config(), n_train=150),
            dict(small_simo_config(), n_train=129, normalize=True),
            dict(small_ofdm_config(), n_train=150),
            dict(small_ofdm_config(), n_train=129,
                 paths={"max_paths": 2, "doppler_range_hz": [-100.0, 100.0]}),
        ],
        ids=["simo", "simo-normalized", "ofdm", "ofdm-paths"],
    )
    def test_bytes_independent_of_block_size(self, tmp_path, monkeypatch, config):
        import chansbgm.utils as utils_module

        path = write_config(tmp_path, config)
        whole, blocked = tmp_path / "whole", tmp_path / "blocked"
        assert main(["synth", "--config", path, "--seed", "8", "--out", str(whole)]) == EXIT_OK
        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        # 64-row blocks at any row size: three of 150 rows, two of 129 (the
        # lone last row joins the block before it)
        assert len(utils_module.row_blocks(config["n_train"], 24)) == {150: 3, 129: 2}[
            config["n_train"]]
        assert main(["synth", "--config", path, "--seed", "8", "--out", str(blocked)]) == EXIT_OK
        written = dir_bytes(blocked)
        assert written == dir_bytes(whole)
        # the drawn payload is gone: scenario.json and the five payload pairs stay
        assert sorted(written) == sorted(
            ["scenario.json", *(f"{stem}.{ext}" for stem in self.STEMS for ext in ("bin", "json"))]
        )

    @pytest.mark.parametrize(
        "normalize, message",
        [(True, "cannot normalize an all-zero dataset"),
         (False, "channel set carries no energy at the pilots")],
        ids=["at-the-scale", "at-the-observations"],
    )
    def test_failed_synth_leaves_out_as_it_was(self, tmp_path, capsys, normalize, message):
        # gains of exp(-500) and below square to zero, so the channels carry
        # no energy: a normalized synth fails after drawing every block, an
        # unnormalized one after writing every scaled block too
        out = tmp_path / "data"
        path = write_config(tmp_path, small_ofdm_config())
        assert main(["synth", "--config", path, "--seed", "1", "--out", str(out)]) == EXIT_OK
        before = dir_bytes(out)
        config = dict(small_ofdm_config(), normalize=normalize,
                      paths={"delay_range_s": [1e-6, 2e-6], "gain_decay_rate": 1e9})
        path = write_config(tmp_path, config, "silent.json")
        capsys.readouterr()
        assert main(["synth", "--config", path, "--seed", "2", "--out", str(out)]) == (
            EXIT_BAD_CONFIG)
        assert capsys.readouterr().err == f"error: {message}\n"
        assert dir_bytes(out) == before
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]


class TestFit:
    def test_fit_writes_model_and_trace(self, simo_dataset, tmp_path):
        out = tmp_path / "model"
        code = main(
            ["fit", str(simo_dataset), "--model", "csgmm", "--K", "2",
             "--seed", "1", "--out", str(out),
             "--config", write_config(tmp_path, {"max_iters": 12}, "em.json")]
        )
        assert code == EXIT_OK
        assert (out / "model.json").exists()
        assert (out / "weights.bin").exists()
        assert (out / "variances.bin").exists()
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iteration,log_likelihood"
        values = [float(line.split(",")[1]) for line in trace[1:]]
        assert all(b >= a - 1e-8 * abs(a) for a, b in zip(values, values[1:]))

    def test_msbl_alias_is_bit_identical_to_k1(self, simo_dataset, tmp_path):
        em = write_config(tmp_path, {"max_iters": 8}, "em.json")
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        assert main(["fit", str(simo_dataset), "--model", "msbl", "--seed", "4",
                     "--out", str(out1), "--config", em]) == EXIT_OK
        assert main(["fit", str(simo_dataset), "--model", "csgmm", "--K", "1", "--seed", "4",
                     "--out", str(out2), "--config", em]) == EXIT_OK
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_refit_is_byte_identical(self, simo_dataset, tmp_path):
        em = write_config(tmp_path, {"max_iters": 6}, "em.json")
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            assert main(["fit", str(simo_dataset), "--model", "csgmm", "--K", "2", "--seed", "9",
                         "--out", str(out), "--config", em]) == EXIT_OK
        assert dir_bytes(out1) == dir_bytes(out2)

    @pytest.mark.parametrize("target", ["dataset", "unrelated-directory", "regular-file"])
    def test_out_holding_other_files_refused(self, simo_dataset, tmp_path, target):
        out = {"dataset": simo_dataset}.get(target, tmp_path / "elsewhere")
        if target == "regular-file":
            out.write_text("notes")
        elif target == "unrelated-directory":
            out.mkdir()
            (out / "notes.txt").write_text("notes")
        before = dir_bytes(tmp_path)
        code = main(["fit", str(simo_dataset), "--model", "msbl", "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert dir_bytes(tmp_path) == before

    def test_csgmm_requires_component_count(self, simo_dataset, tmp_path):
        code = main(["fit", str(simo_dataset), "--model", "csgmm",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG

    def test_zero_components_rejected(self, simo_dataset, tmp_path):
        code = main(["fit", str(simo_dataset), "--model", "csgmm", "--K", "0",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG

    def test_model_records_the_datasets_grid_and_system(self, simo_dataset, tmp_path):
        out = tmp_path / "m"
        em = write_config(tmp_path, {"max_iters": 2}, "em.json")
        assert main(["fit", str(simo_dataset), "--model", "msbl", "--out", str(out),
                     "--config", em]) == EXIT_OK
        scenario = json.loads((simo_dataset / "scenario.json").read_text())
        model = json.loads((out / "model.json").read_text())
        assert (model["grid"], model["system"]) == (scenario["grid"], scenario["system"])
        assert "dictionary_id" not in scenario and "dictionary_id" not in model

    @pytest.mark.parametrize(
        "key, field", [("grid", "size"), ("system", "n_antennas")], ids=["grid", "system"]
    )
    def test_grid_or_system_not_matching_config_rejected(
        self, simo_dataset, tmp_path, capsys, key, field
    ):
        path = simo_dataset / "scenario.json"
        scenario = json.loads(path.read_text())
        scenario[key][field] += 2
        path.write_text(json.dumps(scenario))
        code = main(["fit", str(simo_dataset), "--model", "msbl",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG
        assert "grid and system are not those its config describes" in capsys.readouterr().err

    def test_scenario_without_its_synth_config_rejected(self, simo_dataset, tmp_path):
        path = simo_dataset / "scenario.json"
        scenario = json.loads(path.read_text())
        del scenario["config"]
        path.write_text(json.dumps(scenario))
        code = main(["fit", str(simo_dataset), "--model", "msbl",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG

    def test_dataset_with_an_earlier_dictionary_id_fits(self, simo_dataset, tmp_path):
        # earlier versions wrote a hash of the dictionary's entries; it is ignored
        path = simo_dataset / "scenario.json"
        scenario = json.loads(path.read_text())
        path.write_text(json.dumps({**scenario, "dictionary_id": "3f9c2a7d1e04"}))
        em = write_config(tmp_path, {"max_iters": 2}, "em.json")
        assert main(["fit", str(simo_dataset), "--model", "msbl", "--config", em,
                     "--out", str(tmp_path / "m")]) == EXIT_OK

    def test_dataset_written_under_baseline_dispatch_fits(self, tmp_path):
        """A dataset moves between hosts whose numpy dispatches to other
        SIMD targets: ``synth`` runs in a child process with every dispatch
        target that this host's numpy reports as found turned off, so at
        the x86-64 baseline, and the fit runs here under the full dispatch.
        On a host whose numpy finds no target above its baseline (numpy then
        omits the "found" list), both run alike and the test passes
        trivially."""
        import subprocess
        import sys

        found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(found),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cfg = write_config(tmp_path, dict(small_ofdm_config(), n_train=20), "ofdm.json")
        data = tmp_path / "data"
        proc = subprocess.run(
            [sys.executable, "-m", "chansbgm.cli", "synth", "--config", cfg, "--seed", "3",
             "--out", str(data)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        em = write_config(tmp_path, {"max_iters": 2}, "em.json")
        assert main(["fit", str(data), "--model", "msbl", "--config", em,
                     "--out", str(tmp_path / "m")]) == EXIT_OK

    @pytest.mark.parametrize(
        "key, field, value",
        [("grid", "kind", "angles"), ("grid", "size", None), ("system", "variant", "simd"),
         ("system", "variant", "ofdm"), ("system", "n_antennas", 6.5),
         ("system", "n_rx", 2)],
    )
    def test_malformed_grid_or_system_document_rejected(
        self, simo_dataset, tmp_path, key, field, value
    ):
        path = simo_dataset / "scenario.json"
        scenario = json.loads(path.read_text())
        if value is None:
            del scenario[key][field]
        else:
            scenario[key][field] = value
        path.write_text(json.dumps(scenario))
        code = main(["fit", str(simo_dataset), "--model", "msbl",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "options",
        [{"max_iters": 0}, {"rel_tol": 0}, {"kron_sweeps": 1.5}, {"max_iter": 10},
         {"kron_sweeps": 3}, {"clip_floor": 1e-7}],
        ids=["max_iters-0", "rel_tol-0", "kron_sweeps-1.5", "unknown-key",
             "retired-kron_sweeps", "retired-clip_floor"],
    )
    def test_malformed_em_options_rejected(self, simo_dataset, tmp_path, options):
        em = write_config(tmp_path, options, "em.json")
        code = main(["fit", str(simo_dataset), "--model", "msbl", "--config", em,
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG

    def test_non_finite_observation_rejected(self, simo_dataset, tmp_path):
        path = simo_dataset / "observations.bin"
        payload = bytearray(path.read_bytes())
        payload[:8] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(payload))
        code = main(["fit", str(simo_dataset), "--model", "msbl",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "row, head",
        [(0, [0.5, 0.0]), (0, [1.0, 1.0]), (1, [1.0, 0.0])],
        ids=["half-entry", "two-ones-in-a-row", "repeated-pilot"],
    )
    def test_malformed_selection_rejected(self, simo_dataset, tmp_path, row, head):
        from chansbgm.container import read_array, write_array

        # the stored SIMO selection is the identity; overwrite a row's first two entries
        selection = np.array(read_array(simo_dataset / "selection")[0])
        selection[row, :2] = head
        write_array(simo_dataset / "selection", selection, role="selection-matrix")
        code = main(["fit", str(simo_dataset), "--model", "msbl",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG


    @pytest.mark.parametrize(
        "stem, edit",
        [("snr_db", lambda v: v[:-1]), ("snr_db", lambda v: np.where(v == v[0], np.inf, v)),
         ("noise_vars", lambda v: v[:, None])],
        ids=["short-snr_db", "infinite-snr_db", "column-noise_vars"],
    )
    def test_malformed_per_sample_vector_rejected(self, simo_dataset, tmp_path, stem, edit):
        from chansbgm.container import read_array, write_array

        stored, sidecar = read_array(simo_dataset / stem)
        write_array(simo_dataset / stem, edit(np.array(stored)), role=sidecar["role"])
        code = main(["fit", str(simo_dataset), "--model", "msbl",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG

class TestGenerateAndMetrics:
    @pytest.fixture()
    def fitted_model(self, simo_dataset, tmp_path):
        out = tmp_path / "model"
        em = write_config(tmp_path, {"max_iters": 10}, "em.json")
        main(["fit", str(simo_dataset), "--model", "csgmm", "--K", "2", "--seed", "2",
              "--out", str(out), "--config", em])
        return out

    def test_generate_render_and_metrics(self, fitted_model, simo_dataset, tmp_path):
        batch = tmp_path / "batch"
        code = main(["generate", str(fitted_model), "-n", "200", "--seed", "3",
                     "--render", "--out", str(batch)])
        assert code == EXIT_OK
        report_dir = tmp_path / "report"
        code = main(["metrics", str(batch), "--out", str(report_dir)])
        assert code == EXIT_OK
        report = json.loads((report_dir / "report.json").read_text())
        assert report["n_samples"] == 200
        assert "mean_angular_spread" in report
        # profile file has one row per gridpoint and the masses sum to one
        rows = (report_dir / "profile.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 24
        total = sum(float(r.split(",")[2]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_empty_batch_is_valid_file(self, fitted_model, tmp_path):
        batch = tmp_path / "empty"
        code = main(["generate", str(fitted_model), "-n", "0", "--seed", "0",
                     "--out", str(batch)])
        assert code == EXIT_OK
        from chansbgm.generation import load_batch

        loaded, meta = load_batch(batch)
        assert len(loaded) == 0

    def test_p_max_cap_applies(self, fitted_model, tmp_path):
        batch = tmp_path / "limited"
        main(["generate", str(fitted_model), "-n", "50", "--seed", "1",
              "--p-max", "2", "--out", str(batch)])
        from chansbgm.generation import load_batch

        loaded, _ = load_batch(batch)
        assert np.all(np.sum(loaded.sparse != 0, axis=1) <= 2)

    @pytest.mark.parametrize("command", ["synth", "fit", "generate", "metrics"])
    def test_out_holding_an_input_refused(self, fitted_model, simo_dataset, tmp_path, command):
        # replacing --out would delete the input read from inside it
        if command == "synth":
            out = simo_dataset
            config = write_config(out, small_simo_config(), "synth.json")
            args = ["synth", "--config", config, "--seed", "11"]
        elif command == "fit":
            out = fitted_model
            config = write_config(out, {"max_iters": 10}, "em.json")
            args = ["fit", str(simo_dataset), "--K", "2", "--seed", "2", "--config", config]
        elif command == "generate":
            out = tmp_path / "batch"
            assert main(["generate", str(fitted_model), "-n", "5", "--out", str(out)]) == EXIT_OK
            swap = write_config(out, {"variant": "simo", "n_antennas": 9}, "swap.json")
            args = ["generate", str(fitted_model), "-n", "5", "--render", "--swap-config", swap]
        else:
            out, batch = tmp_path / "report", tmp_path / "report" / "batch"
            for step in (["generate", str(fitted_model), "-n", "5", "--out", str(tmp_path / "b")],
                         ["metrics", str(tmp_path / "b"), "--out", str(out)],
                         ["generate", str(fitted_model), "-n", "5", "--out", str(batch)]):
                assert main(step) == EXIT_OK
            args = ["metrics", str(batch)]
        before = dir_bytes(out)
        assert main([*args, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert dir_bytes(out) == before

    @pytest.mark.parametrize("command", ["synth", "fit", "generate"])
    def test_negative_seed_rejected(self, fitted_model, simo_dataset, tmp_path, capsys, command):
        # numpy's generators take no negative seed; argparse rejects it with exit 2
        inputs = {
            "synth": ["--config", write_config(tmp_path, small_simo_config())],
            "fit": [str(simo_dataset), "--K", "2"],
            "generate": [str(fitted_model), "-n", "5"],
        }
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([command, *inputs[command], "--seed", "-1", "--out", str(out)])
        assert info.value.code == EXIT_BAD_CONFIG
        assert "--seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not out.exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]

    @pytest.mark.parametrize("good_blocks", [0, 2])
    def test_error_on_the_draw_thread_exits_2_and_writes_nothing(
        self, fitted_model, tmp_path, monkeypatch, good_blocks
    ):
        # the draw runs on a worker thread; its error still reaches main as itself
        import threading

        import chansbgm.generation as generation_module
        import chansbgm.utils as utils_module
        from chansbgm.errors import InvalidArgumentError

        real_sample_blocks = generation_module.sample_blocks
        caller = threading.get_ident()

        def fail_after(*args):
            assert threading.get_ident() != caller
            blocks = real_sample_blocks(*args)
            for _ in range(good_blocks):
                yield next(blocks)
            raise InvalidArgumentError("drawn badly")

        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(generation_module, "sample_blocks", fail_after)
        baseline = threading.active_count()
        out = tmp_path / "batch"
        assert main(["generate", str(fitted_model), "-n", "300", "--render",
                     "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert threading.active_count() == baseline

    def test_swap_config_changes_channels_not_coefficients(self, fitted_model, tmp_path):
        swap = write_config(
            tmp_path, {"variant": "simo", "n_antennas": 9}, "swap.json"
        )
        b1, b2 = tmp_path / "b1", tmp_path / "b2"
        main(["generate", str(fitted_model), "-n", "40", "--seed", "8",
              "--render", "--out", str(b1)])
        main(["generate", str(fitted_model), "-n", "40", "--seed", "8",
              "--render", "--swap-config", swap, "--out", str(b2)])
        from chansbgm.generation import load_batch

        batch1, _ = load_batch(b1)
        batch2, _ = load_batch(b2)
        assert batch1.sparse.tobytes() == batch2.sparse.tobytes()
        assert batch1.channels.shape == (40, 6)
        assert batch2.channels.shape == (40, 9)

    def test_swap_config_of_other_variant_rejected(self, fitted_model, tmp_path):
        swap = write_config(tmp_path, small_ofdm_config()["system"], "swap.json")
        code = main(["generate", str(fitted_model), "-n", "5", "--seed", "0",
                     "--render", "--swap-config", swap, "--out", str(tmp_path / "b")])
        assert code == EXIT_BAD_CONFIG

    def test_unrendered_swap_config_of_other_variant_rejected(self, fitted_model, tmp_path):
        # the batch would record the model's angle grid beside an OFDM system
        swap = write_config(tmp_path, small_ofdm_config()["system"], "swap.json")
        out = tmp_path / "b"
        code = main(["generate", str(fitted_model), "-n", "10", "--seed", "0",
                     "--swap-config", swap, "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("render", [["--render"], []], ids=["rendered", "unrendered"])
    def test_malformed_swap_config_rejected(self, fitted_model, tmp_path, render):
        # the batch records the swapped system, so it is checked even unrendered
        swap = write_config(tmp_path, {"variant": "simo", "n_antennas": 9.5}, "swap.json")
        code = main(["generate", str(fitted_model), "-n", "5", "--seed", "0", *render,
                     "--swap-config", swap, "--out", str(tmp_path / "b")])
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("stem", ["weights", "variances"])
    def test_non_finite_model_rejected(self, fitted_model, tmp_path, stem):
        path = fitted_model / f"{stem}.bin"
        payload = bytearray(path.read_bytes())
        payload[:8] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(payload))
        code = main(["generate", str(fitted_model), "-n", "5", "--seed", "0",
                     "--out", str(tmp_path / "b")])
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "document, field, value",
        [("model.json", "variance_form", None), ("model.json", "variance_form", "diagonal"),
         ("model.json", "clip_floor", None), ("model.json", "grid", None),
         ("model.json", "system", None), ("model.json", "model_id", None),
         ("scenario.json", "grid", None), ("scenario.json", "system", None),
         ("model.json", None, "[]"), ("model.json", None, "{"),
         ("scenario.json", None, "[]"), ("scenario.json", None, "{")],
    )
    def test_malformed_model_or_scenario_document_rejected(
        self, fitted_model, simo_dataset, tmp_path, capsys, document, field, value
    ):
        if document == "model.json":
            path = fitted_model / document
            command = ["generate", str(fitted_model), "-n", "5", "--seed", "0", "--render"]
        else:
            path = simo_dataset / document
            command = ["fit", str(simo_dataset), "--model", "msbl"]
        if field is None:
            path.write_text(value)  # not a JSON object
        else:
            meta = json.loads(path.read_text())
            if value is None:
                del meta[field]
            else:
                meta[field] = value
            path.write_text(json.dumps(meta))
        assert main([*command, "--out", str(tmp_path / "out")]) == EXIT_BAD_CONFIG
        if field == "variance_form" and value:
            assert repr(value) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        ["doubled-variance", "n_components", "n_coefficients", "model_id"],
    )
    def test_model_arrays_not_matching_model_json_rejected(self, fitted_model, tmp_path, edit):
        if edit == "doubled-variance":
            path = fitted_model / "variances.bin"
            payload = bytearray(path.read_bytes())
            payload[:8] = (2 * np.frombuffer(payload[:8], "<f8")).tobytes()
            path.write_bytes(bytes(payload))
        else:
            meta = json.loads((fitted_model / "model.json").read_text())
            meta[edit] = "0" * 12 if edit == "model_id" else meta[edit] + 1
            (fitted_model / "model.json").write_text(json.dumps(meta))
        code = main(["generate", str(fitted_model), "-n", "5", "--seed", "0",
                     "--out", str(tmp_path / "b")])
        assert code == EXIT_BAD_CONFIG

    def test_metrics_against_self_reference(self, fitted_model, tmp_path):
        batch = tmp_path / "batch"
        main(["generate", str(fitted_model), "-n", "100", "--seed", "5",
              "--render", "--out", str(batch)])
        report_dir = tmp_path / "selfref"
        code = main(["metrics", str(batch), str(batch), "--channel-metrics",
                     "--out", str(report_dir)])
        assert code == EXIT_OK
        report = json.loads((report_dir / "report.json").read_text())
        assert report["leakage_vs_reference_support"] == pytest.approx(0.0, abs=1e-12)
        assert report["spread_w1_vs_reference"] == 0.0
        assert report["nmse"] == 0.0
        assert report["cosine_similarity"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no-reference", "no reference was given"),
            ("zero-norm-channel", "cosine similarity is undefined for zero vectors"),
            ("unrendered-reference", "{reference} holds no channels"),
            ("shorter-reference", "{reference} holds channels of shape (5, 6), {batch} of "
                                  "shape (10, 6)"),
        ],
        ids=["no-reference", "zero-norm-channel", "unrendered-reference", "shorter-reference"],
    )
    def test_rejected_channel_metrics_write_nothing(
        self, fitted_model, tmp_path, capsys, case, message
    ):
        batch, other = tmp_path / "batch", tmp_path / "other"
        main(["generate", str(fitted_model), "-n", "10", "--seed", "5", "--render",
              "--out", str(batch)])
        reference = []
        if case == "zero-norm-channel":
            # one zeroed channel (6 c128 entries): its cosine similarity is undefined,
            # and the profile and spread passes run before the channel pass
            payload = bytearray((batch / "channels.bin").read_bytes())
            payload[:96] = bytes(96)
            (batch / "channels.bin").write_bytes(bytes(payload))
            reference = [str(batch)]
        elif case != "no-reference":
            n, render = ("10", []) if case == "unrendered-reference" else ("5", ["--render"])
            assert main(["generate", str(fitted_model), "-n", n, "--seed", "6", *render,
                         "--out", str(other)]) == EXIT_OK
            reference = [str(other)]
        capsys.readouterr()
        code = main(["metrics", str(batch), *reference, "--channel-metrics",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_BAD_CONFIG
        assert message.format(batch=batch, reference=other) in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]

    @pytest.mark.parametrize("empty", ["batch", "reference"])
    def test_metrics_of_an_empty_batch_names_it(self, fitted_model, tmp_path, capsys, empty):
        batches = {"empty": tmp_path / "empty", "full": tmp_path / "full"}
        for name, n in (("empty", "0"), ("full", "10")):
            assert main(["generate", str(fitted_model), "-n", n, "--seed", "5",
                         "--out", str(batches[name])]) == EXIT_OK
        inputs = [batches["empty"]] if empty == "batch" else [batches["full"], batches["empty"]]
        code = main(["metrics", *map(str, inputs), "--out", str(tmp_path / "r")])
        assert code == EXIT_BAD_CONFIG
        assert f"{batches['empty']} holds no samples" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]

    @pytest.mark.parametrize(
        "stem, value",
        [("sparse", np.nan), ("sparse", np.inf), ("channels", np.nan)],
        ids=["nan-sparse", "inf-sparse", "nan-channel"],
    )
    def test_non_finite_stored_values_rejected(self, fitted_model, tmp_path, stem, value):
        batch, reference = tmp_path / "batch", tmp_path / "reference"
        for out in (batch, reference):
            assert main(["generate", str(fitted_model), "-n", "10", "--seed", "5", "--render",
                         "--out", str(out)]) == EXIT_OK
        # a NaN norm is not > 0, and an infinite one gives NaN ratios
        payload = bytearray((batch / f"{stem}.bin").read_bytes())
        payload[16:24] = np.float64(value).tobytes()
        (batch / f"{stem}.bin").write_bytes(bytes(payload))
        reference = [str(reference)] if stem == "channels" else []
        code = main(["metrics", str(batch), *reference, "--out", str(tmp_path / "r")])
        assert code == EXIT_BAD_CONFIG
        assert not (tmp_path / "r").exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]


    @pytest.mark.parametrize("field, value", [("n_antennas", 16.5), ("n_rx", 2)])
    def test_render_with_malformed_model_system_rejected(
        self, fitted_model, tmp_path, field, value
    ):
        path = fitted_model / "model.json"
        meta = json.loads(path.read_text())
        meta["system"][field] = value
        path.write_text(json.dumps(meta))
        code = main(["generate", str(fitted_model), "-n", "5", "--seed", "0",
                     "--render", "--out", str(tmp_path / "b")])
        assert code == EXIT_BAD_CONFIG

    def test_metrics_on_malformed_grid_rejected(self, fitted_model, tmp_path):
        batch = tmp_path / "batch"
        main(["generate", str(fitted_model), "-n", "10", "--seed", "5", "--out", str(batch)])
        meta = json.loads((batch / "batch.json").read_text())
        meta["grid"]["kind"] = "angles"
        (batch / "batch.json").write_text(json.dumps(meta))
        code = main(["metrics", str(batch), "--out", str(tmp_path / "r")])
        assert code == EXIT_BAD_CONFIG

    def test_model_with_an_earlier_dictionary_id_generates(self, fitted_model, tmp_path):
        # earlier versions copied the dataset's dictionary hash here; it is ignored
        path = fitted_model / "model.json"
        meta = json.loads(path.read_text())
        path.write_text(json.dumps({**meta, "dictionary_id": "3f9c2a7d1e04"}))
        assert main(["generate", str(fitted_model), "-n", "5", "--seed", "0", "--render",
                     "--out", str(tmp_path / "b")]) == EXIT_OK

    def test_model_on_a_grid_of_another_size_rejected(self, fitted_model, tmp_path):
        path = fitted_model / "model.json"
        meta = json.loads(path.read_text())
        meta["grid"]["size"] = 48  # the model has 24 coefficients
        path.write_text(json.dumps(meta))
        out = tmp_path / "batch"
        code = main(["generate", str(fitted_model), "-n", "5", "--seed", "0", "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid",
        [
            {"kind": "angle", "size": 48},
            {"kind": "delay_doppler", "doppler_size": 2, "delay_size": 4,
             "doppler_bound": 250.0, "delay_bound": 6e-6},
        ],
        ids=["angle", "delay-doppler"],
    )
    def test_batch_on_a_grid_of_another_size_rejected(self, fitted_model, tmp_path, grid):
        batch = tmp_path / "batch"
        assert main(["generate", str(fitted_model), "-n", "10", "--seed", "5",
                     "--out", str(batch)]) == EXIT_OK
        meta = json.loads((batch / "batch.json").read_text())
        meta["grid"] = grid  # the batch has 24 coefficients per sample
        (batch / "batch.json").write_text(json.dumps(meta))
        report = tmp_path / "report"
        assert main(["metrics", str(batch), "--out", str(report)]) == EXIT_BAD_CONFIG
        assert not report.exists()

    def test_reference_on_a_grid_of_another_size_rejected(self, fitted_model, tmp_path):
        from chansbgm.generation import GeneratedBatch, save_batch

        batch, reference = tmp_path / "batch", tmp_path / "reference"
        assert main(["generate", str(fitted_model), "-n", "10", "--seed", "5",
                     "--out", str(batch)]) == EXIT_OK
        grid = json.loads((batch / "batch.json").read_text())["grid"]
        coefficients = GeneratedBatch(sparse=np.ones((10, 16), complex), labels=np.zeros(10, int))
        save_batch(coefficients, reference, extra_meta={"grid": grid})  # 16 of 24 points
        report = tmp_path / "report"
        assert main(["metrics", str(batch), str(reference),
                     "--out", str(report)]) == EXIT_BAD_CONFIG
        assert not report.exists()

    @pytest.mark.parametrize(
        "corruption", ["truncated", "shape", "missing-channels", "labels-rows"]
    )
    def test_corrupt_batch_rejected(self, fitted_model, tmp_path, capsys, corruption):
        from chansbgm.container import write_array

        batch = tmp_path / "batch"
        main(["generate", str(fitted_model), "-n", "30", "--seed", "5", "--render",
              "--out", str(batch)])
        if corruption == "labels-rows":  # a whole labels payload, one row short of sparse
            write_array(batch / "labels", np.zeros(29), "component-labels")
        elif corruption == "truncated":
            payload = (batch / "sparse.bin").read_bytes()
            (batch / "sparse.bin").write_bytes(payload[:-16])
        elif corruption == "shape":
            sidecar = json.loads((batch / "sparse.json").read_text())
            sidecar["shape"] = [15, 48]  # same byte count as the payload's (30, 24)
            (batch / "sparse.json").write_text(json.dumps(sidecar))
        else:
            (batch / "channels.bin").unlink()
        code = main(["metrics", str(batch), "--out", str(tmp_path / "r")])
        assert code == EXIT_BAD_CONFIG
        assert str(batch) in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("counts", [(7, 24), (30, 5), (7, 5)])
    def test_batch_json_counts_not_matching_payloads_rejected(
        self, fitted_model, tmp_path, counts
    ):
        batch = tmp_path / "batch"
        assert main(["generate", str(fitted_model), "-n", "30", "--seed", "5",
                     "--out", str(batch)]) == EXIT_OK
        meta = json.loads((batch / "batch.json").read_text())
        meta["n_samples"], meta["n_coefficients"] = counts  # sparse is (30, 24)
        (batch / "batch.json").write_text(json.dumps(meta))
        report = tmp_path / "r"
        assert main(["metrics", str(batch), "--out", str(report)]) == EXIT_BAD_CONFIG
        assert not report.exists()

    def test_failed_generate_leaves_no_partial_payload(
        self, fitted_model, tmp_path, monkeypatch
    ):
        import chansbgm.generation as generation_module
        import chansbgm.utils as utils_module

        batch = tmp_path / "batch"
        assert main(["generate", str(fitted_model), "-n", "150", "--seed", "1", "--render",
                     "--out", str(batch)]) == EXIT_OK
        before = dir_bytes(batch)
        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        real_render = generation_module.render_channels
        calls = []

        def render_then_fail(*args):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("no space left on device")
            return real_render(*args)

        monkeypatch.setattr(generation_module, "render_channels", render_then_fail)
        code = main(["generate", str(fitted_model), "-n", "150", "--seed", "2", "--render",
                     "--out", str(batch)])
        assert code == EXIT_BAD_CONFIG
        assert len(calls) == 2
        # the earlier batch stays whole and no temporary payload is left
        assert dir_bytes(batch) == before
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        # an unrendered rerun replaces it whole: no channels of the earlier batch stay
        assert main(["generate", str(fitted_model), "-n", "150", "--seed", "2",
                     "--out", str(batch)]) == EXIT_OK
        assert sorted(dir_bytes(batch)) == [
            "batch.json", "labels.bin", "labels.json", "sparse.bin", "sparse.json"
        ]


def _generate_and_score(model, root, n, args):
    """CLI generate of a capped batch and its uncapped reference, and the
    paired metrics report; returns every byte written."""
    capped, full = root / "capped", root / "full"
    for out, extra in ((capped, ["--p-max", "2"]), (full, [])):
        assert main(["generate", str(model), "-n", str(n), "--seed", "4", *args, *extra,
                     "--out", str(out)]) == EXIT_OK
    assert main(["metrics", str(capped), str(full), "--channel-metrics",
                 "--out", str(root / "report")]) == EXIT_OK
    assert main(["metrics", str(full), "--out", str(root / "own")]) == EXIT_OK
    return dir_bytes(root)


def _library_batch(model_dir, n, out, p_max, system_doc=None):
    """The in-memory path: sample_parameters, limit_batch_paths,
    render_channels, save_batch."""
    from chansbgm.dictionary import load_dictionary
    from chansbgm.em import load_model
    from chansbgm.generation import (
        limit_batch_paths,
        render_channels,
        sample_parameters,
        save_batch,
    )

    model, meta = load_model(model_dir)
    system_doc = system_doc or meta["system"]
    batch = limit_batch_paths(sample_parameters(model, n, 4), p_max)
    batch = render_channels(batch, load_dictionary(meta["grid"], system_doc))
    save_batch(batch, out, extra_meta={"grid": meta["grid"], "system": system_doc})
    return dir_bytes(out)


@pytest.fixture()
def ofdm_model(tmp_path):
    cfg = write_config(tmp_path, small_ofdm_config(), "ofdm.json")
    em = write_config(tmp_path, {"max_iters": 5}, "em.json")
    data, model = tmp_path / "ofdm_data", tmp_path / "ofdm_model"
    assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(data)]) == EXIT_OK
    assert main(["fit", str(data), "--K", "2", "--seed", "1", "--config", em,
                 "--out", str(model)]) == EXIT_OK
    return model


def test_kronecker_model_on_a_grid_of_another_shape_rejected(tmp_path):
    cfg = write_config(tmp_path, small_ofdm_config(), "ofdm.json")
    em = write_config(tmp_path, {"max_iters": 3}, "em.json")
    data, model = tmp_path / "data", tmp_path / "model"
    assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(data)]) == EXIT_OK
    assert main(["fit", str(data), "--K", "2", "--variance-form", "kronecker",
                 "--config", em, "--out", str(model)]) == EXIT_OK
    meta = json.loads((model / "model.json").read_text())
    meta["grid"].update(doppler_size=2, delay_size=8)  # 16 points, as the 4 x 4 factors expand to
    (model / "model.json").write_text(json.dumps(meta))
    out = tmp_path / "batch"
    code = main(["generate", str(model), "-n", "5", "--seed", "0", "--out", str(out)])
    assert code == EXIT_BAD_CONFIG
    assert not out.exists()


def test_ofdm_stages_never_form_the_dense_dictionary(tmp_path, monkeypatch):
    """synth, both fits and a capped, swapped generate --render work through
    the dictionary's factors; reading ``Dictionary.matrix`` fails the stage."""
    from chansbgm.dictionary import Dictionary

    def formed(dictionary):
        raise AssertionError("the dense dictionary was formed")

    monkeypatch.setattr(Dictionary, "matrix", property(formed))
    cfg = write_config(tmp_path, small_ofdm_config(), "ofdm.json")
    em = write_config(tmp_path, {"max_iters": 3}, "em.json")
    swap = small_ofdm_config()["system"] | {"n_subcarriers": 5, "n_symbols": 7}
    swap = write_config(tmp_path, swap, "swap.json")
    data = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(data)]) == EXIT_OK
    for form in ("full", "kronecker"):
        model = tmp_path / form
        assert main(["fit", str(data), "--K", "2", "--variance-form", form,
                     "--config", em, "--out", str(model)]) == EXIT_OK
        assert main(["generate", str(model), "-n", "70", "--seed", "0", "--render",
                     "--p-max", "3", "--swap-config", swap,
                     "--out", str(tmp_path / f"{form}_batch")]) == EXIT_OK


class TestCsvBytes:
    """The CSV files, fit documents, a batch document and the reports of
    tiny seeded runs, pinned byte for byte: every value is written as the
    ``repr`` of a Python int or float, and ``model.json``'s ``model_id``
    hashes the fitted arrays. The fits
    cover both variance forms, the iteration cap and a stop on ``rel_tol``.
    The digests hold for one numpy build and platform: numpy 2.4.6 with
    its bundled OpenBLAS 0.3.31 on the ``SkylakeX`` kernel, and numpy's
    SIMD dispatch up to ``AVX512_SPR`` (x86-64, Python 3.11). The
    quadrature, EM and metrics arithmetic behind them may round
    differently under another build, kernel or dispatch level."""

    DIGESTS = {
        "simo_model/trace.csv":
            "7c3ecda8696b60607cc96083d95e63c892f274729bca189f014b33d0cc003d17",
        "simo_model/fit.json":
            "b871170caa18c7741acd42343d6e0d3bdcaf07fce4332e553d9908729c4b3fee",
        "simo_model/model.json":
            "8cb4f104d8a63db7b48e41ece7cb95ebe9f68a6507a3d0257f1f987104d0dc8c",
        "simo_report/profile.csv":
            "6f21015f7fb949c63a97d58f1c2c4a8cde52902aea6930852f30a97251adbb2b",
        "simo_report/spread_hist.csv":
            "65dd4dfa99f49b89ac33ef66edcd804d4a530b08fb76f54ad98827c0878ae526",
        "ofdm_model/trace.csv":
            "64138ffa4c0a3cc5900b2fef510762e351da41060d6537295aeb04d7499eda41",
        "ofdm_model/fit.json":
            "9841e7caf05b83b8a6b0f71e034f1ee1b7eaff5a4a9a3478366846095c36775b",
        "ofdm_model/model.json":
            "13c40565b9993d8295c3f41a27de86c521d5f8ff6c102c756eb43f794b8bc6ab",
        "ofdm_report/profile.csv":
            "712fc407c944bde06cfd68f397c55d8ce6ce1af759cfa17030bb6e5e5f8d4c36",
        "ofdm_kron_model/trace.csv":
            "8fa29e290d81ea1a1b1ec7782640f750080177b97bbbc64b322d3e47a6f00d94",
        "ofdm_kron_model/fit.json":
            "bf55b7e0fe763a49b71acafbd08bbe18d0e1607c7819625dbf8a170489c4b945",
        "ofdm_kron_model/model.json":
            "a80a948e1393c2dbf9e832104ec60d85516193a4770359ca73a7b517e1a601c0",
        "simo_tol_model/trace.csv":
            "d52468c3ff32a48ed7cba1227bd468dd8a852b932ba104e5fffb8703e1ecb897",
        "simo_tol_model/fit.json":
            "b51ad189c8567962d020b34acf2e3a3fad07b2331cd02cc0bb746c860c9309fd",
        "simo_tol_model/model.json":
            "cc6d466a27cb55f02f4a92f01ae456e16b3b2fabb8335e7bc3dd8d79dc58233c",
        "simo_batch/batch.json":
            "ba91ee72b6085d49a7edef90ef1d7d12d8c90992cac6b3e1c2d49f1fd9abb735",
        "simo_report/report.json":
            "bd3fe6aa1bfd019a269ef85cb190203fdf0f7d9235277b7a7d39192378b9c397",
        "ofdm_report/report.json":
            "20027ba97bfd39448cd16f39907349b183a2bb62f5e16e9432d0aa7609e681fc",
        "simo_ref_report/report.json":
            "4b6d805b256681bffec5d86ae379f964e4977e9d1b006184aa834e7dccdeadba",
    }

    # the four fits' files as the plain EM wrote them, before the fixed-point
    # update: what they write when every fixed-point candidate is rejected
    EM_FALLBACK_DIGESTS = {
        "simo_model/trace.csv":
            "e44120254f8a0ec4ebc00003d4332a001d285983774a1ba0110f049a4226d070",
        "simo_model/model.json":
            "fbe5056c75bf507808266f2a972519d4412c08dd67208e9e5adc1548eac607bf",
        "ofdm_model/trace.csv":
            "4856461fe8e1055e21eafb3f61b44c5b75ec22db66b0b58ad34b85b2e2a24f5a",
        "ofdm_model/model.json":
            "f1aa829514fc4a4da7fe9c75b8aa46a9aa5f6b7913888f918a02082822a97e0e",
        "ofdm_kron_model/trace.csv":
            "cb893c96e254d4587b453ceaf77d2c95fa06595592f63f3708998d3140cccfc1",
        "ofdm_kron_model/model.json":
            "dab853eec83a6ce43f34a6ed66fa17c3c094bd0374689828b945255961289637",
        "simo_tol_model/trace.csv":
            "e49a158ea8616a071bd86fdb3ac08a49f7a90ab8b4fa74ef32afa07d1c82d966",
        "simo_tol_model/model.json":
            "501d9888a698307ab1717bfa01c47c6c5b5786067c263e27fdf5f150c132b8b7",
    }

    @staticmethod
    def _fit_all(tmp_path):
        """The SIMO and OFDM datasets and their four pinned fits: SIMO, OFDM
        full and Kronecker at the 5-iteration cap, and SIMO to ``rel_tol``."""
        em = write_config(tmp_path, {"max_iters": 5}, "em.json")
        em_tol = write_config(tmp_path, {"max_iters": 300, "rel_tol": 1e-3}, "em_tol.json")
        fits = (("simo", "full", em, "simo_model"), ("ofdm", "full", em, "ofdm_model"),
                ("ofdm", "kronecker", em, "ofdm_kron_model"),
                ("simo", "full", em_tol, "simo_tol_model"))
        for name, config in (("simo", small_simo_config()), ("ofdm", small_ofdm_config())):
            cfg = write_config(tmp_path, config, f"{name}.json")
            assert main(["synth", "--config", cfg, "--seed", "11",
                         "--out", str(tmp_path / f"{name}_data")]) == EXIT_OK
        for data, form, config, out in fits:
            assert main(["fit", str(tmp_path / f"{data}_data"), "--K", "2", "--seed", "2",
                         "--variance-form", form, "--config", config,
                         "--out", str(tmp_path / out)]) == EXIT_OK
        return [out for *_, out in fits]

    @staticmethod
    def _check_digests(tmp_path, digests):
        import hashlib

        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_csv_files_byte_identical(self, tmp_path):
        self._fit_all(tmp_path)
        for name in ("simo", "ofdm"):
            batch, report = tmp_path / f"{name}_batch", tmp_path / f"{name}_report"
            assert main(["generate", str(tmp_path / f"{name}_model"), "-n", "40", "--seed", "3",
                         "--out", str(batch)]) == EXIT_OK
            assert main(["metrics", str(batch), "--out", str(report)]) == EXIT_OK
        fit = json.loads((tmp_path / "simo_tol_model" / "fit.json").read_text(encoding="utf-8"))
        assert fit["converged"] and fit["n_iterations"] < 300
        # a report against a reference batch: leakage and spread W1 vs the reference
        assert main(["generate", str(tmp_path / "simo_model"), "-n", "40", "--seed", "4",
                     "--out", str(tmp_path / "simo_batch4")]) == EXIT_OK
        assert main(["metrics", str(tmp_path / "simo_batch"), str(tmp_path / "simo_batch4"),
                     "--out", str(tmp_path / "simo_ref_report")]) == EXIT_OK
        self._check_digests(tmp_path, self.DIGESTS)

    def test_rejected_fixed_point_falls_back_to_plain_em(self, tmp_path, monkeypatch):
        # every candidate puts every variance at the floor, which scores below
        # the model it would replace: each iteration after the first falls back
        import chansbgm.em as em_module

        fixed_point_step = em_module._fixed_point_step

        def floored_step(*args):
            candidate = fixed_point_step(*args)
            for factor in candidate.factors:
                factor.fill(em_module.GAMMA_FLOOR)
            return candidate

        monkeypatch.setattr(em_module, "_fixed_point_step", floored_step)
        for out in self._fit_all(tmp_path):
            fit = json.loads((tmp_path / out / "fit.json").read_text(encoding="utf-8"))
            assert fit["monotone"] and fit["n_fallbacks"] == fit["n_iterations"] - 1, out
        self._check_digests(tmp_path, self.EM_FALLBACK_DIGESTS)


class TestBlockSizeInvariance:
    """generate and metrics write the same bytes whatever the row block
    size, and the same bytes as the in-memory library path."""

    @pytest.mark.parametrize("n", [150, 129])
    def test_simo_capped_and_swapped(self, simo_dataset, tmp_path, monkeypatch, n):
        import chansbgm.utils as utils_module

        em = write_config(tmp_path, {"max_iters": 10}, "em.json")
        model = tmp_path / "model"
        main(["fit", str(simo_dataset), "--K", "2", "--seed", "2", "--config", em,
              "--out", str(model)])
        swap_doc = {"variant": "simo", "n_antennas": 9}
        args = ["--render", "--swap-config", write_config(tmp_path, swap_doc, "swap.json")]
        whole = _generate_and_score(model, tmp_path / "whole", n, args)
        library = _library_batch(model, n, tmp_path / "library", 2, swap_doc)
        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        assert len(utils_module.row_blocks(n, 24)) > 1
        blocked = _generate_and_score(model, tmp_path / "blocked", n, args)
        assert blocked == whole
        assert library == {
            name.split("/", 1)[1]: data for name, data in whole.items()
            if name.startswith("capped/")
        }

    def test_default_block_size_writes_the_bytes_of_1_shl_20(self, simo_dataset, tmp_path,
                                                             monkeypatch):
        # several blocks of sparse and of channels and a lone last row at the
        # default size; one block at 2**20
        import chansbgm.utils as utils_module

        em = write_config(tmp_path, {"max_iters": 10}, "em.json")
        model = tmp_path / "model"
        assert main(["fit", str(simo_dataset), "--K", "2", "--seed", "2", "--config", em,
                     "--out", str(model)]) == EXIT_OK
        rows = utils_module.row_blocks(10**6, 24)[0].stop
        n = 5 * rows + 1
        assert len(utils_module.row_blocks(n, 24)) == 5
        assert len(utils_module.row_blocks(n, 6)) == 2
        default = _generate_and_score(model, tmp_path / "default", n, ["--render"])
        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1 << 20)
        assert len(utils_module.row_blocks(n, 24)) == 1
        assert _generate_and_score(model, tmp_path / "old", n, ["--render"]) == default

    def test_ofdm_rendered(self, ofdm_model, tmp_path, monkeypatch):
        import chansbgm.utils as utils_module

        n = 150
        whole = _generate_and_score(ofdm_model, tmp_path / "whole", n, ["--render"])
        library = _library_batch(ofdm_model, n, tmp_path / "library", 2)
        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        assert len(utils_module.row_blocks(n, 16)) > 1
        blocked = _generate_and_score(ofdm_model, tmp_path / "blocked", n, ["--render"])
        assert blocked == whole
        assert library == {
            name.split("/", 1)[1]: data for name, data in whole.items()
            if name.startswith("capped/")
        }


class TestPrefetchedGenerate:
    """generate draws the next block on a worker thread; it writes the
    bytes of the serial library path drawing, capping, rendering and
    saving the blocks one after another."""

    @pytest.fixture()
    def model(self, simo_dataset, tmp_path):
        em = write_config(tmp_path, {"max_iters": 10}, "em.json")
        out = tmp_path / "model"
        assert main(["fit", str(simo_dataset), "--K", "2", "--seed", "2", "--config", em,
                     "--out", str(out)]) == EXIT_OK
        return out

    @staticmethod
    def serial_batch(model_dir, n, seed, p_max, render, out):
        from chansbgm.dictionary import load_dictionary
        from chansbgm.em import load_model
        from chansbgm.generation import (
            limit_batch_paths,
            render_channels,
            sample_blocks,
            save_batch,
        )

        model, meta = load_model(model_dir)
        blocks = sample_blocks(model, n, seed)
        if p_max is not None:
            blocks = (limit_batch_paths(block, p_max) for block in blocks)
        if render:
            dictionary = load_dictionary(meta["grid"], meta["system"])
            blocks = (render_channels(block, dictionary) for block in blocks)
        save_batch(blocks, out, extra_meta={"grid": meta["grid"], "system": meta["system"]})
        return dir_bytes(out)

    # with 64-row blocks: no rows, one row, one row past a block (which joins
    # it) and three blocks, so the worker runs ahead
    @pytest.mark.parametrize("n", [0, 1, 65, 130])
    @pytest.mark.parametrize("p_max, render", [(None, False), (None, True), (3, False), (3, True)])
    def test_bytes_equal_serial_save_batch(self, model, tmp_path, monkeypatch, n, p_max, render):
        import chansbgm.utils as utils_module

        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        args = ["generate", str(model), "-n", str(n), "--seed", "9", "--out", str(tmp_path / "b")]
        if p_max is not None:
            args += ["--p-max", str(p_max)]
        if render:
            args.append("--render")
        assert main(args) == EXIT_OK
        serial = self.serial_batch(model, n, 9, p_max, render, tmp_path / "serial")
        assert dir_bytes(tmp_path / "b") == serial
        assert ("channels.bin" in serial) == render


class TestPairedMetrics:
    """A paired metrics run profiles the reference on a helper thread while
    it profiles the batch, then scores the channel pass in two halves, the
    second on the helper; it writes the bytes of the serial library path."""

    @pytest.fixture()
    def model(self, simo_dataset, tmp_path):
        em = write_config(tmp_path, {"max_iters": 10}, "em.json")
        out = tmp_path / "model"
        assert main(["fit", str(simo_dataset), "--K", "2", "--seed", "2", "--config", em,
                     "--out", str(out)]) == EXIT_OK
        return out

    @staticmethod
    def generated(model, root, name, n, seed, *extra):
        out = root / name
        assert main(["generate", str(model), "-n", str(n), "--seed", str(seed), "--render",
                     *extra, "--out", str(out)]) == EXIT_OK
        return out

    @staticmethod
    def serial_report(batch_dir, reference, out):
        """The batch's profile, then the reference's (a batch's; a dataset
        has none), then sample_nmse and sample_cosines block by block."""
        from chansbgm.cli import _open_reference, _write_csv
        from chansbgm.container import write_json
        from chansbgm.dictionary import grid_from_json
        from chansbgm.generation import open_batch
        from chansbgm.metrics import (
            SPREAD_HIST_EDGES,
            histogram_w1,
            power_angular_profile,
            profile_support_leakage,
            sample_cosines,
            sample_nmse,
            spread_histogram,
        )
        from chansbgm.utils import row_blocks

        batch, meta = open_batch(batch_dir)
        ref_sparse, ref_channels, _ = _open_reference(reference)
        grid = grid_from_json(meta["grid"])
        profile, skipped, spreads = power_angular_profile(batch.sparse, grid)
        report = {"n_samples": len(batch.sparse), "n_skipped_zero_norm": skipped,
                  "mean_angular_spread": float(np.mean(spreads))}
        hist, edges = spread_histogram(spreads), SPREAD_HIST_EDGES.tolist()
        if ref_sparse is None:
            report["leakage_vs_own_support"] = profile_support_leakage(profile, profile > 1e-12)
        else:
            ref_profile, _, ref_spreads = power_angular_profile(ref_sparse, grid)
            report["leakage_vs_reference_support"] = profile_support_leakage(
                profile, ref_profile > 1e-12
            )
            report["spread_w1_vs_reference"] = histogram_w1(hist, spread_histogram(ref_spreads))
        errors, cosines = [], []
        for rows in row_blocks(len(batch.channels), batch.channels.shape[1]):
            estimates, truths = batch.channels[rows], ref_channels[rows]
            errors.append(sample_nmse(estimates, truths))
            cosines.append(sample_cosines(estimates, truths))
        report["nmse"] = float(np.mean(np.concatenate(errors)))
        report["cosine_similarity"] = float(np.mean(np.concatenate(cosines)))
        out.mkdir()
        rows = zip(range(len(profile)), grid.points.tolist(), profile.tolist())
        _write_csv(out / "profile.csv", "grid_index,angle_rad,mass", rows)
        _write_csv(out / "spread_hist.csv", "bin_lo,bin_hi,mass",
                   zip(edges[:-1], edges[1:], hist.tolist()))
        write_json(out / "report.json", report)
        return dir_bytes(out)

    @staticmethod
    def channel_blocks(batch):
        from chansbgm.generation import open_batch
        from chansbgm.utils import row_blocks

        channels = open_batch(batch)[0].channels
        return len(row_blocks(len(channels), channels.shape[1]))

    # with 64-row blocks: 1, 2 and 3 channel blocks, the last split into
    # halves of unequal size
    @pytest.mark.parametrize("n, blocks", [(40, 1), (128, 2), (150, 3)])
    def test_bytes_equal_serial_composition(self, model, tmp_path, monkeypatch, n, blocks):
        import chansbgm.utils as utils_module

        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        batch = self.generated(model, tmp_path, "capped", n, 4, "--p-max", "2")
        reference = self.generated(model, tmp_path, "full", n, 5)
        assert self.channel_blocks(batch) == blocks
        assert main(["metrics", str(batch), str(reference), "--channel-metrics",
                     "--out", str(tmp_path / "report")]) == EXIT_OK
        serial = self.serial_report(batch, reference, tmp_path / "serial")
        assert dir_bytes(tmp_path / "report") == serial

    def test_dataset_reference_bytes_equal_serial_composition(self, model, tmp_path, monkeypatch):
        # a dataset holds channels but no coefficients: only the channel pass is shared
        import chansbgm.utils as utils_module

        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        config = write_config(tmp_path, {**small_simo_config(), "n_train": 150}, "data150.json")
        dataset = tmp_path / "data150"
        assert main(["synth", "--config", config, "--seed", "6", "--out", str(dataset)]) == EXIT_OK
        batch = self.generated(model, tmp_path, "batch", 150, 4)
        assert self.channel_blocks(batch) == 3
        assert main(["metrics", str(batch), str(dataset), "--channel-metrics",
                     "--out", str(tmp_path / "report")]) == EXIT_OK
        serial = self.serial_report(batch, dataset, tmp_path / "serial")
        assert dir_bytes(tmp_path / "report") == serial

    @staticmethod
    def spoil(directory, stem, row_bytes, rows, value):
        """Write ``value`` over the first float64 of each of ``rows`` in a
        payload of ``row_bytes``-byte rows."""
        path = directory / f"{stem}.bin"
        payload = bytearray(path.read_bytes())
        for row in rows:
            payload[row * row_bytes : row * row_bytes + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(payload))

    def failed_run(self, tmp_path, capsys, batch, reference):
        import threading

        baseline = threading.active_count()
        capsys.readouterr()
        code = main(["metrics", str(batch), str(reference), "--channel-metrics",
                     "--out", str(tmp_path / "report")])
        assert threading.active_count() == baseline
        assert code == EXIT_BAD_CONFIG
        assert not (tmp_path / "report").exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        return capsys.readouterr().err

    # the sparse rows hold 24 c128 entries, the channel rows 6
    @pytest.mark.parametrize("spoiled, message", [
        ("reference", "error: coefficient values must be finite"),
        ("both", "error: all samples have zero norm"),
    ])
    def test_bad_reference_profile(self, model, tmp_path, capsys, monkeypatch, spoiled, message):
        # the reference's NaN, on the helper, is found in its first block; the
        # batch's zero norms only after its last, yet the batch's error wins
        import chansbgm.utils as utils_module

        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        batch = self.generated(model, tmp_path, "batch", 150, 4)
        reference = self.generated(model, tmp_path, "reference", 150, 5)
        self.spoil(reference, "sparse", 24 * 16, [0], np.nan)
        if spoiled == "both":
            (batch / "sparse.bin").write_bytes(bytes((batch / "sparse.bin").stat().st_size))
        err = self.failed_run(tmp_path, capsys, batch, reference)
        assert err.strip() == message

    @pytest.mark.parametrize("spoiled, message", [
        ("second-half", "error: cosine similarity is undefined for zero vectors"),
        ("both-halves", "error: channel values must be finite"),
    ])
    def test_bad_channel_halves(self, model, tmp_path, capsys, monkeypatch, spoiled, message):
        # 3 blocks: rows 0-127 are scored here, rows 128-149 on the helper
        import chansbgm.utils as utils_module

        monkeypatch.setattr(utils_module, "BLOCK_ELEMENTS", 1)
        batch = self.generated(model, tmp_path, "batch", 150, 4)
        reference = self.generated(model, tmp_path, "reference", 150, 5)
        zero_row = bytes(6 * 16)
        payload = bytearray((batch / "channels.bin").read_bytes())
        payload[140 * len(zero_row) : 141 * len(zero_row)] = zero_row
        (batch / "channels.bin").write_bytes(bytes(payload))
        if spoiled == "both-halves":
            self.spoil(batch, "channels", 6 * 16, [100], np.nan)
        err = self.failed_run(tmp_path, capsys, batch, reference)
        assert err.strip() == message

    def test_unpaired_run_starts_no_thread(self, model, tmp_path):
        # a fresh interpreter runs the metrics stage of a batch without a
        # reference, which starts no thread, then with one; neither loads the
        # fit's or the scenarios' modules. A generate stage after them loads
        # the fit's model but no scenario.
        import subprocess
        import sys

        batch = self.generated(model, tmp_path, "batch", 100, 4)
        reference = self.generated(model, tmp_path, "reference", 100, 5)
        unused = ["chansbgm.em", "chansbgm.scenario", "hashlib"]
        stages = {
            "unpaired": ["metrics", str(batch), "--out", str(tmp_path / "r")],
            "paired": ["metrics", str(batch), str(reference), "--out", str(tmp_path / "p")],
            "generate": ["generate", str(model), "-n", "10", "--out", str(tmp_path / "g")],
        }
        code = (
            "import sys, threading\n"
            "start = threading.Thread.start\n"
            "def refused(thread):\n"
            "    raise AssertionError('a thread was started')\n"
            "threading.Thread.start = refused\n"
            "from chansbgm.cli import main\n"
            f"assert main({stages['unpaired']!r}) == 0\n"
            "print('check', 'concurrent.futures' in sys.modules, threading.active_count())\n"
            "threading.Thread.start = start\n"
            f"assert main({stages['paired']!r}) == 0\n"
            f"print('check', sorted(set({unused!r}) & set(sys.modules)))\n"
            f"assert main({stages['generate']!r}) == 0\n"
            "print('check', 'chansbgm.scenario' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        checks = [line for line in out.stdout.splitlines() if line.startswith("check ")]
        assert checks == ["check False 1", "check []", "check False"]


class TestReferenceMismatch:
    """metrics compares coefficients only on one grid and channels only
    for one system."""

    def test_reference_on_another_grid_rejected(self, ofdm_model, tmp_path):
        config = small_simo_config()
        config["grid_size"] = 16  # as many coefficients as the 4x4 delay-Doppler grid
        data, model = tmp_path / "simo_data", tmp_path / "simo_model"
        assert main(["synth", "--config", write_config(tmp_path, config, "simo.json"),
                     "--seed", "0", "--out", str(data)]) == EXIT_OK
        em = write_config(tmp_path, {"max_iters": 3}, "em3.json")
        assert main(["fit", str(data), "--model", "msbl", "--config", em,
                     "--out", str(model)]) == EXIT_OK
        angle, delay_doppler = tmp_path / "angle", tmp_path / "delay_doppler"
        for source, out in ((model, angle), (ofdm_model, delay_doppler)):
            assert main(["generate", str(source), "-n", "20", "--seed", "0",
                         "--out", str(out)]) == EXIT_OK
        report = tmp_path / "report"
        assert main(["metrics", str(angle), str(delay_doppler),
                     "--out", str(report)]) == EXIT_BAD_CONFIG
        assert not report.exists()

    def test_channels_for_another_system_rejected(self, ofdm_model, tmp_path, capsys):
        batches = []
        for n_subcarriers, n_symbols in ((4, 4), (2, 8)):  # 16 channel entries each
            system = dict(small_ofdm_config()["system"],
                          n_subcarriers=n_subcarriers, n_symbols=n_symbols)
            swap = write_config(tmp_path, system, f"swap_{n_subcarriers}.json")
            out = tmp_path / f"batch_{n_subcarriers}"
            assert main(["generate", str(ofdm_model), "-n", "20", "--seed", "0", "--render",
                         "--swap-config", swap, "--out", str(out)]) == EXIT_OK
            batches.append(str(out))
        report = tmp_path / "report"
        assert main(["metrics", *batches, "--channel-metrics",
                     "--out", str(report)]) == EXIT_BAD_CONFIG
        assert (f"{batches[1]} holds channels of another system than {batches[0]}"
                in capsys.readouterr().err)
        assert not report.exists()
        # without --channel-metrics the coefficients are scored and the channels are not
        assert main(["metrics", *batches, "--out", str(report)]) == EXIT_OK
        scored = json.loads((report / "report.json").read_text())
        assert "leakage_vs_reference_support" in scored and "nmse" not in scored


class TestSelfcheck:
    CHECKS = 5  # stages, trace, swap, Toeplitz covariance, rerun

    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == self.CHECKS

    def test_falling_trace_fails(self, capsys, monkeypatch):
        import chansbgm.em as em_module
        from chansbgm.cli import EXIT_ERROR

        real_fit = em_module.csgmm_fit

        def broken_fit(*args, **kwargs):
            model, trace = real_fit(*args, **kwargs)
            trace.log_likelihoods = np.array([0.0, -100.0])
            return model, trace

        monkeypatch.setattr(em_module, "csgmm_fit", broken_fit)
        assert main(["selfcheck"]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert "[FAIL] stages-exit-0: AssertionError: run1 fit model exited 3" in out
        assert "[FAIL] monotone-trace" in out

    def test_swap_drawing_other_coefficients_fails(self, capsys, monkeypatch):
        import chansbgm.cli as cli_module
        from chansbgm.cli import EXIT_ERROR

        real_generate = cli_module.cmd_generate

        def reseeded_swap(args):
            if args.swap_config is not None:
                args.seed += 1
            return real_generate(args)

        monkeypatch.setattr(cli_module, "cmd_generate", reseeded_swap)
        assert main(["selfcheck"]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert "[FAIL] swap-keeps-coefficients" in out
        assert out.count("[PASS]") == self.CHECKS - 1

    RAISING_FIT = (
        "from chansbgm.errors import InvalidArgumentError\n"
        "def broken(args):\n"
        "    raise InvalidArgumentError('fit broke')\n"
        "cli.cmd_fit = broken\n"
    )
    FALLING_FIT = (
        "import numpy as np, chansbgm.em as em\n"
        "real_fit = em.csgmm_fit\n"
        "def broken(*args, **kwargs):\n"
        "    model, trace = real_fit(*args, **kwargs)\n"
        "    trace.log_likelihoods = np.array([0.0, -100.0])\n"
        "    return model, trace\n"
        "em.csgmm_fit = broken\n"
    )

    # python -O strips assert statements, and with them a check's own reads
    @pytest.mark.parametrize("patch, failed", [
        (RAISING_FIT, ["stages-exit-0", "monotone-trace", "rerun-byte-identical"]),
        (FALLING_FIT, ["stages-exit-0", "monotone-trace"]),
    ], ids=["raising-fit", "falling-trace"])
    def test_checks_hold_under_optimized_mode(self, patch, failed):
        import subprocess
        import sys

        from chansbgm.cli import EXIT_ERROR

        code = f"import sys\nimport chansbgm.cli as cli\n{patch}sys.exit(cli.main(['selfcheck']))\n"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert out.returncode == EXIT_ERROR, out.stderr
        for name in failed:
            assert f"[FAIL] {name}" in out.stdout, name

    def test_stages_keep_the_outer_thread_count(self, capsys, monkeypatch):
        # a stage run through main would apply main's default of one thread
        import chansbgm.cli as cli_module

        counts = []
        real_configure = cli_module._configure_threads

        def recorded(threads):
            counts.append(threads)
            real_configure(threads)

        monkeypatch.setattr(cli_module, "_configure_threads", recorded)
        assert main(["--threads", "2", "selfcheck"]) == EXIT_OK
        assert counts == [2]

    def test_runtime_imports_only_numpy(self, tmp_path):
        # a fresh interpreter, so only what chansbgm itself imports is loaded;
        # run in an empty directory, which the selfcheck must leave empty.
        # numpy.ma (np.unique's first call) and numpy.polynomial (leggauss)
        # cost every stage their import time
        import subprocess
        import sys

        code = (
            "import pkgutil, sys, contextlib, io, importlib, chansbgm\n"
            "for info in pkgutil.iter_modules(chansbgm.__path__):\n"
            "    importlib.import_module('chansbgm.' + info.name)\n"
            "from chansbgm.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['selfcheck']) == 0\n"
            "unwanted = ('scipy', 'jsonschema', 'numpy.ma', 'numpy.polynomial')\n"
            "print(sorted(m for m in unwanted if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            cwd=tmp_path, env=env,
        )
        assert out.stdout.strip() == "[]"
        assert list(tmp_path.iterdir()) == []


class TestFullPipelineDeterminism:
    def test_two_full_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, small_simo_config())
        em = write_config(tmp_path, {"max_iters": 8}, "em.json")
        results = []
        for tag in ("run1", "run2"):
            root = tmp_path / tag
            data = root / "data"
            model = root / "model"
            batch = root / "batch"
            report = root / "report"
            assert main(["synth", "--config", cfg, "--seed", "21", "--out", str(data)]) == EXIT_OK
            assert main(["fit", str(data), "--model", "csgmm", "--K", "2", "--seed", "22",
                         "--out", str(model), "--config", em]) == EXIT_OK
            assert main(["generate", str(model), "-n", "150", "--seed", "23", "--render",
                         "--out", str(batch)]) == EXIT_OK
            assert main(["metrics", str(batch), "--out", str(report)]) == EXIT_OK
            results.append(dir_bytes(root))
        assert results[0] == results[1]

    def test_fit_agrees_across_thread_counts(self, tmp_path):
        # bytes reproduce for one host, BLAS build and thread count; another
        # thread count may sum in another order. The cap acts only before
        # numpy is imported, hence one fresh interpreter per count.
        import os
        import subprocess
        import sys

        from chansbgm.em import load_model

        cfg = write_config(tmp_path, dict(default_ofdm_synth_config(), n_train=2000))
        em = write_config(tmp_path, {"max_iters": 12}, "em.json")
        data = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(data)]) == EXIT_OK
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        variances = []
        for threads in ("1", "2"):
            out = tmp_path / f"model_{threads}"
            subprocess.run(
                [sys.executable, "-m", "chansbgm.cli", "--threads", threads, "fit", str(data),
                 "--K", "4", "--config", em, "--out", str(out)],
                capture_output=True, check=True, env=env,
            )
            variances.append(load_model(out)[0].variances)
        np.testing.assert_allclose(variances[1], variances[0], rtol=1e-9, atol=0)


class TestDiagnosticsAndDefaults:
    def test_non_monotone_trace_exits_with_diagnostic_code(
        self, simo_dataset, tmp_path, monkeypatch
    ):
        import chansbgm.em as em_module
        from chansbgm.cli import EXIT_DIAGNOSTIC

        real_fit = em_module.csgmm_fit

        def broken_fit(*args, **kwargs):
            model, trace = real_fit(*args, **kwargs)
            trace.log_likelihoods = np.array([0.0, -100.0])
            return model, trace

        monkeypatch.setattr(em_module, "csgmm_fit", broken_fit)
        code = main(["fit", str(simo_dataset), "--model", "msbl",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_DIAGNOSTIC
        # the model directory is committed all the same, trace.csv included
        assert (tmp_path / "m" / "trace.csv").exists()
        assert (tmp_path / "m" / "model.json").exists()

    def test_thread_cap_sets_environment(self):
        # run in a fresh interpreter so numpy is not yet imported
        import subprocess
        import sys

        code = (
            "import os, sys\n"
            "sys.argv = ['chansbgm']\n"
            "from chansbgm.cli import _configure_threads\n"
            "_configure_threads(3)\n"
            "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "3 3"

    def test_one_blas_thread_by_default(self):
        # without --threads every pool is capped at one thread; the command
        # is replaced, so only the parsing and the cap run
        import subprocess
        import sys

        code = (
            "import os, sys\n"
            "from chansbgm import cli\n"
            "def show(args):\n"
            "    print(*(os.environ.get(v) for v in cli._THREAD_VARS))\n"
            "    return 0\n"
            "cli.cmd_selfcheck = show\n"
            "sys.exit(cli.main(['selfcheck']))\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.split() == ["1", "1", "1"]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_rejected(self, capsys, threads):
        # checked before the cap's numpy-already-imported early return
        assert main(["--threads", threads, "selfcheck"]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert "error: --threads must be >= 1" in captured.err
        assert captured.out == ""

    def test_numeric_error_is_not_bad_input(self, simo_dataset, tmp_path, monkeypatch):
        import chansbgm.em as em_module
        from chansbgm.errors import NumericError

        def failing_fit(*args, **kwargs):
            raise NumericError("factorization failed")

        monkeypatch.setattr(em_module, "csgmm_fit", failing_fit)
        # main lets it propagate, so the interpreter exits 1
        with pytest.raises(NumericError):
            main(["fit", str(simo_dataset), "--model", "msbl", "--out", str(tmp_path / "m")])

    def test_model_the_fit_cannot_build_is_a_numeric_error(self, tmp_path):
        # the init's sharpened spectrum underflows to zero; it is refused
        # before the rescaling would divide by it
        from chansbgm.errors import NumericError

        config = dict(small_simo_config(), grid_size=16, laplacian_std_deg=1e300)
        data, model = tmp_path / "data", tmp_path / "model"
        assert main(["synth", "--config", write_config(tmp_path, config), "--seed", "0",
                     "--out", str(data)]) == EXIT_OK
        with pytest.raises(NumericError, match="the initial model is invalid"):
            main(["fit", str(data), "--K", "2", "--out", str(model)])
        assert not model.exists()

    def test_reference_scale_defaults(self):
        from chansbgm.dataset import default_ofdm_synth_config, default_simo_synth_config

        simo = default_simo_synth_config()
        assert simo["system"]["n_antennas"] == 16
        assert simo["grid_size"] == 256
        assert simo["n_train"] == 10_000
        assert simo["snr_range_db"] == [0.0, 20.0]
        ofdm = default_ofdm_synth_config()
        assert ofdm["system"]["n_subcarriers"] == 24
        assert ofdm["system"]["n_symbols"] == 14
        assert ofdm["n_pilots"] == 30
        assert ofdm["snr_range_db"] == [5.0, 20.0]
        assert ofdm["doppler_size"] == ofdm["delay_size"] == 40

    def test_fit_passes_em_options_through(self, simo_dataset, tmp_path):
        em = write_config(tmp_path, {"max_iters": 3, "rel_tol": 1e-3}, "em.json")
        out = tmp_path / "m"
        main(["fit", str(simo_dataset), "--model", "msbl", "--out", str(out),
              "--config", em])
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) - 1 <= 3
