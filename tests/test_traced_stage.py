"""The benchmark's tracer must still find the functions it wraps.

``benchmarks/traced_stage.py`` wraps program functions by name; if one is
renamed, ``run.py --trace 1`` loses its span without failing. This runs
the tracer on a tiny SIMO synth and fit and checks the spans it records.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    # the per-layer scenario.covariance_s and scenario.draw_s read these spans
    assert {"scenario.covariance", "scenario.draw", "scenario.observations"} <= synth
    fit = traced_stage(
        tmp_path, "fit", "fit", "data", "--K", "2", "--config", "em.json", "--out", "model"
    )
    assert {"dictionary.load", "em.fit"} <= fit
