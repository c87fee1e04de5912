"""The benchmark's tracer must still find the functions it wraps.

``benchmarks/traced_stage.py`` wraps program functions by name; if one is
renamed, ``run.py --trace 1`` loses its span without failing. This runs
the tracer on each stage of tiny pipelines and checks the spans it
records.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the per-layer em.* metrics read these; the probes run after each fit
FIT_SPANS = {"dictionary.load", "em.fit", "em.e_step", "em.loglik", "em.m_step"}


def traced_stage(tmp_path, name, *cli_args):
    spans_path = tmp_path / f"{name}.spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "traced_stage.py"), str(spans_path),
         repr(time.time()), "--threads", "1", *cli_args],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    assert spans["exit_code"] == 0
    return {span["name"] for span in spans["spans"]}


def test_traced_synth_and_fit_record_their_spans(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "scenario": "simo",
        "n_train": 20,
        "snr_range_db": [0.0, 20.0],
        "system": {"variant": "simo", "n_antennas": 4},
        "grid_size": 16,
        "quadrature_points": 128,
    }), encoding="utf-8")
    (tmp_path / "em.json").write_text(json.dumps({"max_iters": 3}), encoding="utf-8")
    synth = traced_stage(
        tmp_path, "synth", "synth", "--config", str(config), "--seed", "3", "--out", "data"
    )
    # the per-layer scenario.* and container.write_* read these spans; synth
    # builds no dictionary
    assert {"scenario.covariance", "scenario.draw", "scenario.observations",
            "container.write"} <= synth
    assert "dictionary.build" not in synth
    fit = traced_stage(
        tmp_path, "fit", "fit", "data", "--K", "2", "--config", "em.json", "--out", "model"
    )
    assert FIT_SPANS <= fit


def test_traced_ofdm_synth_and_kronecker_fit_record_their_spans(tmp_path):
    from chansbgm.dataset import default_ofdm_synth_config

    config = tmp_path / "synth.json"
    config.write_text(json.dumps(dict(
        default_ofdm_synth_config(),
        n_train=10,
        system={"variant": "ofdm", "n_subcarriers": 6, "n_symbols": 4,
                "subcarrier_spacing": 15e3, "symbol_duration": 1e-3 / 14},
        doppler_size=4,
        delay_size=4,
        n_pilots=5,
    )), encoding="utf-8")
    synth = traced_stage(
        tmp_path, "synth", "synth", "--config", str(config), "--seed", "3", "--out", "data"
    )
    assert {"scenario.draw", "scenario.observations", "container.write"} <= synth
    assert "dictionary.build" not in synth
    (tmp_path / "em.json").write_text(json.dumps({"max_iters": 3}), encoding="utf-8")
    fit = traced_stage(
        tmp_path, "fit", "fit", "data", "--K", "2", "--variance-form", "kronecker",
        "--config", "em.json", "--out", "model",
    )
    assert FIT_SPANS <= fit


def test_traced_generate_and_metrics_record_their_spans(tmp_path):
    from chansbgm.cli import main

    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "scenario": "simo",
        "n_train": 20,
        "snr_range_db": [0.0, 20.0],
        "system": {"variant": "simo", "n_antennas": 4},
        "grid_size": 16,
        "quadrature_points": 128,
    }), encoding="utf-8")
    (tmp_path / "em.json").write_text(json.dumps({"max_iters": 3}), encoding="utf-8")
    (tmp_path / "swap.json").write_text(
        json.dumps({"variant": "simo", "n_antennas": 6}), encoding="utf-8"
    )
    data, model = str(tmp_path / "data"), str(tmp_path / "model")
    assert main(["synth", "--config", str(config), "--seed", "3", "--out", data]) == 0
    assert main(["fit", data, "--K", "2", "--config", str(tmp_path / "em.json"),
                 "--out", model]) == 0
    render = ["--render", "--swap-config", str(tmp_path / "swap.json")]
    assert main(["generate", model, "-n", "30", "--seed", "1", *render,
                 "--out", str(tmp_path / "uncapped")]) == 0
    generate = traced_stage(
        tmp_path, "generate", "generate", model, "-n", "30", "--seed", "1", "--p-max", "2",
        *render, "--out", "capped",
    )
    # the per-layer em.load_s, dictionary.build_s and generation.* read these spans
    assert {"em.load", "dictionary.build", "generation.limit", "generation.render",
            "generation.save"} <= generate
    metrics = traced_stage(
        tmp_path, "metrics", "metrics", "capped", "uncapped", "--channel-metrics",
        "--out", "report",
    )
    # the per-layer metrics.profile_s, metrics.spread_s and metrics.w1_s read these spans
    assert {"metrics.profile", "metrics.spread", "metrics.w1"} <= metrics
