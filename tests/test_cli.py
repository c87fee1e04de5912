import json
from pathlib import Path

import numpy as np
import pytest

from chansbgm.cli import (
    EXIT_BAD_CONFIG,
    EXIT_OK,
    default_ofdm_synth_config,
    load_dataset,
    main,
)


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
        main(["synth", "--config", cfg, "--seed", "5", "--out", str(out1)])
        main(["synth", "--config", cfg, "--seed", "5", "--out", str(out2)])
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
        ],
        ids=["n_train-string", "ofdm-n_train-0", "snr-three-items", "unknown-key",
             "profile-entry-without-weight", "negative-gain-decay", "paths-unknown-key",
             "normalize-string",
             "scenario-mimo", "simo-field-in-ofdm", "system-of-other-variant"],
    )
    def test_malformed_config_rejected(self, tmp_path, make, edit):
        config = make()
        edit(config)
        path = write_config(tmp_path, config)
        out = tmp_path / "x"
        assert main(["synth", "--config", path, "--seed", "0", "--out", str(out)]) == (
            EXIT_BAD_CONFIG
        )
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
        main(["fit", str(simo_dataset), "--model", "msbl", "--seed", "4",
              "--out", str(out1), "--config", em])
        main(["fit", str(simo_dataset), "--model", "csgmm", "--K", "1", "--seed", "4",
              "--out", str(out2), "--config", em])
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_refit_is_byte_identical(self, simo_dataset, tmp_path):
        em = write_config(tmp_path, {"max_iters": 6}, "em.json")
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            main(["fit", str(simo_dataset), "--model", "csgmm", "--K", "2", "--seed", "9",
                  "--out", str(out), "--config", em])
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

    def test_model_records_dictionary_id(self, simo_dataset, tmp_path):
        out = tmp_path / "m"
        em = write_config(tmp_path, {"max_iters": 2}, "em.json")
        assert main(["fit", str(simo_dataset), "--model", "msbl", "--out", str(out),
                     "--config", em]) == EXIT_OK
        scenario = json.loads((simo_dataset / "scenario.json").read_text())
        model = json.loads((out / "model.json").read_text())
        assert model["dictionary_id"] == scenario["dictionary_id"]

    def test_grid_not_matching_dictionary_id_rejected(self, simo_dataset, tmp_path):
        path = simo_dataset / "scenario.json"
        scenario = json.loads(path.read_text())
        scenario["grid"]["size"] += 2
        path.write_text(json.dumps(scenario))
        code = main(["fit", str(simo_dataset), "--model", "msbl",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_BAD_CONFIG

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
        [{"max_iters": 0}, {"rel_tol": 0}, {"kron_sweeps": 1.5}, {"max_iter": 10}],
        ids=["max_iters-0", "rel_tol-0", "kron_sweeps-1.5", "unknown-key"],
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

    @pytest.mark.parametrize("case", ["no-reference", "zero-norm-channel"])
    def test_rejected_channel_metrics_write_nothing(self, fitted_model, tmp_path, case):
        batch = tmp_path / "batch"
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
        code = main(["metrics", str(batch), *reference, "--channel-metrics",
                     "--out", str(tmp_path / "r")])
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

    @pytest.mark.parametrize("corruption", ["truncated", "shape", "missing-channels"])
    def test_corrupt_batch_rejected(self, fitted_model, tmp_path, corruption):
        batch = tmp_path / "batch"
        main(["generate", str(fitted_model), "-n", "30", "--seed", "5", "--render",
              "--out", str(batch)])
        if corruption == "truncated":
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
    save_batch(batch, out, extra_meta={"grid": meta["grid"], "system": system_doc,
                                       "model_id": meta["model_id"]})
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

    def test_channels_for_another_system_rejected(self, ofdm_model, tmp_path):
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
        assert not report.exists()
        # without --channel-metrics the coefficients are scored and the channels are not
        assert main(["metrics", *batches, "--out", str(report)]) == EXIT_OK
        scored = json.loads((report / "report.json").read_text())
        assert "leakage_vs_reference_support" in scored and "nmse" not in scored


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 8


    def test_runtime_imports_only_numpy(self):
        # a fresh interpreter, so only what chansbgm itself imports is loaded
        import subprocess
        import sys

        code = (
            "import pkgutil, sys, contextlib, io, importlib, chansbgm\n"
            "for info in pkgutil.iter_modules(chansbgm.__path__):\n"
            "    importlib.import_module('chansbgm.' + info.name)\n"
            "from chansbgm.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['selfcheck']) == 0\n"
            "print(sorted(m for m in ('scipy', 'jsonschema') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


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
            main(["synth", "--config", cfg, "--seed", "21", "--out", str(data)])
            main(["fit", str(data), "--model", "csgmm", "--K", "2", "--seed", "22",
                  "--out", str(model), "--config", em])
            main(["generate", str(model), "-n", "150", "--seed", "23", "--render",
                  "--out", str(batch)])
            main(["metrics", str(batch), "--out", str(report)])
            results.append(dir_bytes(root))
        assert results[0] == results[1]


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

    def test_numeric_error_is_not_bad_input(self, simo_dataset, tmp_path, monkeypatch):
        import chansbgm.em as em_module
        from chansbgm.errors import NumericError

        def failing_fit(*args, **kwargs):
            raise NumericError("factorization failed")

        monkeypatch.setattr(em_module, "csgmm_fit", failing_fit)
        # main lets it propagate, so the interpreter exits 1
        with pytest.raises(NumericError):
            main(["fit", str(simo_dataset), "--model", "msbl", "--out", str(tmp_path / "m")])

    def test_reference_scale_defaults(self):
        from chansbgm.cli import default_ofdm_synth_config, default_simo_synth_config

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
