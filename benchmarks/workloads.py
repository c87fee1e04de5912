"""The benchmark's workloads: stage plans, their inputs and their checks.

A workload is one dataset made by ``synth`` (the set-up, run several
times), then a round of ``fit``, ``generate`` and ``metrics`` stages that
read it. Stage arguments may name ``{data}`` (the dataset), ``{config}``
(the directory of config files written here) and ``{round}`` (the round's
output directory). ``reps`` runs a stage that many times on the same
inputs; its time is the median, and every repetition must write the same
bytes as the first.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

EM_TO_TOLERANCE = {"max_iters": 600, "rel_tol": 1e-4}

STREET_CANYON = {
    "scenario": "simo",
    "n_train": 2000,
    "snr_range_db": [0.0, 20.0],
    "system": {"variant": "simo", "n_antennas": 16},
    "grid_size": 128,
    "laplacian_std_deg": 2.0,
    "quadrature_points": 2048,
}

OFDM_SYSTEM = {
    "variant": "ofdm",
    "n_subcarriers": 24,
    "n_symbols": 14,
    "subcarrier_spacing": 15e3,
    "symbol_duration": 1e-3 / 14,
}

OFDM_PILOT = {
    "scenario": "ofdm",
    "n_train": 2000,
    "snr_range_db": [5.0, 20.0],
    "system": OFDM_SYSTEM,
    "doppler_size": 40,
    "delay_size": 40,
    "doppler_bound_hz": 250.0,
    "delay_bound_s": 6e-6,
    "n_pilots": 30,
    "normalize": True,
}

# criterion 8's swapped numerology over the same delay-Doppler grid
OFDM_SWAPPED = {
    "variant": "ofdm",
    "n_subcarriers": 20,
    "n_symbols": 18,
    "subcarrier_spacing": 60e3,
    "symbol_duration": 1e-3 / 3.5,
}

OFDM_GRID = {
    "kind": "delay_doppler",
    "doppler_size": 40,
    "delay_size": 40,
    "doppler_bound": 250.0,
    "delay_bound": 6e-6,
}

ULA_64 = {"variant": "simo", "n_antennas": 64}
P_MAX = 8


@dataclass
class Step:
    kind: str
    args: list[str]
    out: str
    reps: int = 1
    samples: int = 0


@dataclass
class Workload:
    synth_args: list[str]
    synth_reps: int
    steps: list[Step]
    round_s: float  # nominal length of one round, which sets the round count
    # name -> check(dataset_dir, round_dir); raises checks.CheckError
    checks: dict[str, Callable[[Path, Path], None]] = field(default_factory=dict)


def _write_configs(config_dir: Path, documents: dict[str, dict]) -> None:
    config_dir.mkdir(parents=True, exist_ok=True)
    for name, document in documents.items():
        (config_dir / name).write_text(json.dumps(document), encoding="utf-8")


def _seeds(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [str(rng.randrange(1, 2**31)) for _ in range(count)]


def simo_street_canyon(seed: int, config_dir: Path) -> Workload:
    # Dataset seed 100 and fit seed 1 are criterion 7's. They stay fixed
    # because iterations to tolerance depend on the data (K=16: 140-161
    # over four dataset seeds, M-SBL: 33-148), which would swamp fit_s;
    # the run seed draws the generation seeds.
    _write_configs(config_dir, {"synth.json": STREET_CANYON, "em.json": EM_TO_TOLERANCE})
    gen_csgmm, gen_msbl = _seeds(seed, 2)
    fit = ["{data}", "--seed", "1", "--config", "{config}/em.json"]
    steps = [
        Step("fit", fit + ["--model", "csgmm", "--K", "16"], "csgmm"),
        Step("fit", fit + ["--model", "msbl"], "msbl"),
        Step("generate", ["{round}/csgmm", "-n", "10000", "--seed", gen_csgmm], "csgmm_batch",
             reps=5, samples=10_000),
        Step("generate", ["{round}/msbl", "-n", "10000", "--seed", gen_msbl], "msbl_batch",
             reps=5, samples=10_000),
        Step("metrics", ["{round}/csgmm_batch"], "csgmm_report", reps=5),
        Step("metrics", ["{round}/msbl_batch"], "msbl_report", reps=5),
    ]
    return Workload(
        synth_args=["--config", "{config}/synth.json", "--seed", "100"],
        synth_reps=3,
        steps=steps,
        round_s=34.0,
        checks={
            "a:csgmm-log-likelihood": lambda d, r: checks.check_log_likelihood(d, r / "csgmm"),
            "a:msbl-log-likelihood": lambda d, r: checks.check_log_likelihood(d, r / "msbl"),
            "f:street-canyon": lambda d, r: checks.check_street_canyon(
                r / "csgmm_batch", r / "msbl_batch", r / "csgmm_report", r / "msbl_report"
            ),
        },
    )


def ofdm_pilot(seed: int, config_dir: Path) -> Workload:
    # A fixed iteration cap: at this length the log-likelihood still rises
    # by about 1 % per iteration, so a tolerance would never stop the fit.
    _write_configs(config_dir, {
        "synth.json": OFDM_PILOT,
        "em.json": {"max_iters": 12, "rel_tol": 1e-12},
        "swap.json": OFDM_SWAPPED,
    })
    synth_seed, fit_seed, gen_seed = _seeds(seed, 3)
    fit = ["{data}", "--model", "csgmm", "--K", "4", "--seed", fit_seed,
           "--config", "{config}/em.json"]
    generate = ["{round}/kron", "-n", "2000", "--seed", gen_seed, "--render"]
    steps = [
        Step("fit", fit + ["--variance-form", "full"], "full"),
        Step("fit", fit + ["--variance-form", "kronecker"], "kron"),
        Step("generate", generate, "batch_train", reps=3, samples=2000),
        Step("generate", generate + ["--swap-config", "{config}/swap.json"], "batch_swap",
             reps=3, samples=2000),
        Step("metrics", ["{round}/batch_train"], "report_train", reps=3),
        Step("metrics", ["{round}/batch_swap"], "report_swap", reps=3),
    ]
    return Workload(
        synth_args=["--config", "{config}/synth.json", "--seed", synth_seed],
        synth_reps=5,
        steps=steps,
        round_s=26.0,
        checks={
            "a:full-log-likelihood": lambda d, r: checks.check_log_likelihood(d, r / "full"),
            "a:kron-log-likelihood": lambda d, r: checks.check_log_likelihood(d, r / "kron"),
            "b:render-train": lambda d, r: checks.check_rendered(
                r / "batch_train", OFDM_GRID, OFDM_SYSTEM
            ),
            "b:render-swap": lambda d, r: checks.check_rendered(
                r / "batch_swap", OFDM_GRID, OFDM_SWAPPED
            ),
            "c:swap-coefficients": lambda d, r: checks.check_same_coefficients(
                r / "batch_train", r / "batch_swap"
            ),
        },
    )


def generate_swap(seed: int, config_dir: Path) -> Workload:
    # Dataset seed 100 and fit seed 1 are criterion 7's. They stay fixed
    # because the K=4 fit of some drawn datasets lowers its log-likelihood
    # at one iteration and exits 3 (dataset and fit seeds drawn from run
    # seed 303); an operation that fails on some seeds only cannot stay in
    # a run. The run seed draws the generation seed.
    small = dict(STREET_CANYON, n_train=500)
    _write_configs(config_dir, {
        "synth.json": small,
        "em.json": {"max_iters": 60, "rel_tol": 1e-12},
        "ula64.json": ULA_64,
    })
    synth_seed, fit_seed = "100", "1"
    (gen_seed,) = _seeds(seed, 1)
    generate = ["{round}/model", "-n", "100000", "--seed", gen_seed, "--render",
                "--swap-config", "{config}/ula64.json"]
    steps = [
        Step("fit", ["{data}", "--model", "csgmm", "--K", "4", "--seed", fit_seed,
                     "--config", "{config}/em.json"], "model", reps=3),
        Step("generate", generate + ["--p-max", str(P_MAX)], "capped", samples=100_000),
        Step("generate", generate, "uncapped", samples=100_000),
        Step("metrics", ["{round}/capped", "{round}/uncapped", "--channel-metrics"], "report"),
    ]
    grid = {"kind": "angle", "size": small["grid_size"]}
    return Workload(
        synth_args=["--config", "{config}/synth.json", "--seed", synth_seed],
        synth_reps=3,
        steps=steps,
        round_s=14.0,
        checks={
            "a:log-likelihood": lambda d, r: checks.check_log_likelihood(d, r / "model"),
            "b:render-capped": lambda d, r: checks.check_rendered(r / "capped", grid, ULA_64),
            "b:render-uncapped": lambda d, r: checks.check_rendered(r / "uncapped", grid, ULA_64),
            "d:path-cap": lambda d, r: checks.check_path_cap(r / "capped", r / "uncapped", P_MAX),
            "e:channel-report": lambda d, r: checks.check_channel_report(
                r / "capped", r / "uncapped", r / "report"
            ),
        },
    )


WORKLOADS = {
    "simo-street-canyon": simo_street_canyon,
    "ofdm-pilot": ofdm_pilot,
    "generate-swap": generate_swap,
}
