"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The expensive fixtures (the batch of mixture fits, the full
street-canyon pipeline) are shared across criteria.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from chansbgm.cli import EXIT_OK, main
from chansbgm.dictionary import (
    AngleGrid,
    DelayDopplerGrid,
    SystemConfig,
    build_ofdm_dictionary,
    build_simo_dictionary,
)
from chansbgm.em import SbgmModel, csgmm_fit, kronecker_m_step, q_objective
from chansbgm.generation import conditional_covariance, load_batch, sample_parameters
from chansbgm.metrics import (
    batch_angular_spreads,
    power_angular_profile,
    profile_support_leakage,
    toeplitz_deviation,
)
from chansbgm.posterior import csvae_elbo_terms, posterior_moments
from chansbgm.scenario import AngleProfile, make_observations, simo_ground_truth
from chansbgm.utils import complex_standard_normal


def report(criterion: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def random_selection(rng, m, n):
    a = np.zeros((m, n))
    a[np.arange(m), rng.choice(n, size=m, replace=False)] = 1.0
    return a


def random_unit_modulus(rng, rows, cols):
    return np.exp(1j * rng.uniform(0, 2 * math.pi, (rows, cols)))


def dir_bytes(directory):
    directory = Path(directory)
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# shared fixtures


def synthetic_dataset(seed, n_samples=200, m=16, s=64):
    """Random sparse-source dataset behind a SIMO dictionary with A = I."""
    rng = np.random.default_rng(seed)
    dictionary = build_simo_dictionary(AngleGrid(s), SystemConfig.simo(m))
    coeff = np.zeros((n_samples, s), dtype=complex)
    for i in range(n_samples):
        support = rng.choice(s, size=4, replace=False)
        coeff[i, support] = complex_standard_normal(rng, 4)
    channels = coeff @ dictionary.matrix.T
    obs = make_observations(channels, np.arange(m), (0.0, 20.0), rng)
    return obs, dictionary


@pytest.fixture(scope="session")
def em_fit_battery():
    """Criterion 2 workload: 20 datasets, each fit with K in {1, 2, 4, 8}."""
    start = time.monotonic()
    results = []
    for dataset_idx in range(20):
        obs, dictionary = synthetic_dataset(seed=1000 + dataset_idx)
        for k in (1, 2, 4, 8):
            model, trace = csgmm_fit(
                obs, dictionary, k, max_iters=25, seed=dataset_idx * 10 + k
            )
            results.append((model, trace, dictionary))
    return results, time.monotonic() - start


FIG3_SYNTH_CONFIG = {
    "scenario": "simo",
    "n_train": 2000,
    "snr_range_db": [0.0, 20.0],
    "system": {"variant": "simo", "n_antennas": 16},
    "grid_size": 128,
    "laplacian_std_deg": 2.0,
    "quadrature_points": 2048,
}

FIG3_EM_CONFIG = {"max_iters": 600, "rel_tol": 1e-6}


def run_street_canyon_pipeline(root: Path) -> dict:
    """Criterion 7 pipeline: synth, fit CSGMM(16) and MSBL, generate 10k each."""
    root.mkdir(parents=True, exist_ok=True)
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(FIG3_SYNTH_CONFIG), encoding="utf-8")
    em_cfg = root / "em.json"
    em_cfg.write_text(json.dumps(FIG3_EM_CONFIG), encoding="utf-8")
    data = root / "dataset"
    csgmm_dir = root / "csgmm"
    msbl_dir = root / "msbl"
    paths = {
        "dataset": data,
        "csgmm_model": csgmm_dir,
        "msbl_model": msbl_dir,
        "csgmm_batch": root / "csgmm_batch",
        "msbl_batch": root / "msbl_batch",
        "csgmm_report": root / "csgmm_report",
        "msbl_report": root / "msbl_report",
    }
    assert main(["synth", "--config", str(synth_cfg), "--seed", "100",
                 "--out", str(data)]) == EXIT_OK
    assert main(["fit", str(data), "--model", "csgmm", "--K", "16", "--seed", "1",
                 "--config", str(em_cfg), "--out", str(csgmm_dir)]) == EXIT_OK
    assert main(["fit", str(data), "--model", "msbl", "--seed", "1",
                 "--config", str(em_cfg), "--out", str(msbl_dir)]) == EXIT_OK
    assert main(["generate", str(csgmm_dir), "-n", "10000", "--seed", "7",
                 "--out", str(paths["csgmm_batch"])]) == EXIT_OK
    assert main(["generate", str(msbl_dir), "-n", "10000", "--seed", "8",
                 "--out", str(paths["msbl_batch"])]) == EXIT_OK
    assert main(["metrics", str(paths["csgmm_batch"]),
                 "--out", str(paths["csgmm_report"])]) == EXIT_OK
    assert main(["metrics", str(paths["msbl_batch"]),
                 "--out", str(paths["msbl_report"])]) == EXIT_OK
    return paths


@pytest.fixture(scope="session")
def street_canyon_run(tmp_path_factory):
    start = time.monotonic()
    root = tmp_path_factory.mktemp("fig3") / "run1"
    paths = run_street_canyon_pipeline(root)

    grid = AngleGrid(FIG3_SYNTH_CONFIG["grid_size"])
    profile = AngleProfile.street_canyons()
    support = profile.support_mask(grid.points)
    _, gt_coeff = simo_ground_truth(
        profile,
        math.radians(FIG3_SYNTH_CONFIG["laplacian_std_deg"]),
        grid,
        8,
        2000,
        np.random.default_rng(101),
    )
    gt_spreads, _ = batch_angular_spreads(np.abs(gt_coeff) ** 2, grid)
    return {
        "root": root,
        "paths": paths,
        "grid": grid,
        "support": support,
        "gt_spread_mean": float(gt_spreads.mean()),
        "elapsed": time.monotonic() - start,
    }


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_posterior_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 17))
        s = int(rng.integers(m, 65))
        n_full = s + int(rng.integers(0, 8))
        a = random_selection(rng, m, n_full)
        d = random_unit_modulus(rng, n_full, s)
        gamma = rng.uniform(0.0, 2.0, s)
        sigma2 = float(rng.uniform(1e-3, 1.0))
        y = complex_standard_normal(rng, m)

        moments = posterior_moments(gamma, y, a @ d, sigma2, want_full_cov=True)
        w = a @ d
        c_y = w @ np.diag(gamma) @ w.conj().T + sigma2 * np.eye(m)
        inv = np.linalg.inv(c_y)
        c_sy = np.diag(gamma) @ w.conj().T
        mean = c_sy @ inv @ y
        cov = np.diag(gamma).astype(complex) - c_sy @ inv @ c_sy.conj().T
        worst = max(
            worst,
            float(np.abs(moments.mean - mean).max()),
            float(np.abs(moments.full_cov - cov).max()),
            float(np.abs(moments.cov_diag - np.diag(cov).real).max()),
        )
    elapsed = time.monotonic() - start
    report(
        "criterion 1 (posterior-oracle equivalence)",
        worst < 1e-10 and elapsed < 10.0,
        f"max abs deviation {worst:.2e} over 100 instances in {elapsed:.1f}s",
    )


def test_criterion_2_em_monotonicity(em_fit_battery):
    results, elapsed = em_fit_battery
    violations = [
        (i, trace.n_iterations)
        for i, (_, trace, _) in enumerate(results)
        if not trace.is_monotone()
    ]
    report(
        "criterion 2 (EM monotonicity)",
        not violations and elapsed < 120.0,
        f"{len(results)} fits (20 datasets x K in {{1,2,4,8}}), "
        f"{len(violations)} non-monotone traces, {elapsed:.1f}s",
    )


def test_criterion_3_elbo_identity():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 13))
        s = int(rng.integers(m, 49))
        a = np.eye(m)
        d = random_unit_modulus(rng, m, s)
        gamma = rng.uniform(1e-7, 2.0, s)
        sigma2 = float(rng.uniform(1e-3, 1.0))
        y = complex_standard_normal(rng, m)
        enc_mean = rng.standard_normal(6)
        enc_var = rng.uniform(0.2, 3.0, 6)
        terms = csvae_elbo_terms(gamma, y, a @ d, sigma2, enc_mean, enc_var)
        rel = abs((terms.reconstruction - terms.posterior_kl) - terms.combined) / abs(
            terms.combined
        )
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(
        "criterion 3 (ELBO cancellation identity)",
        worst < 1e-8 and elapsed < 5.0,
        f"max relative mismatch {worst:.2e} over 100 instances in {elapsed:.1f}s",
    )


def test_criterion_4_physical_consistency(em_fit_battery):
    start = time.monotonic()
    results, _ = em_fit_battery
    worst = 0.0
    n_components = 0
    for model, _, dictionary in results:
        for k in range(model.n_components):
            cov = conditional_covariance(model, k, dictionary)
            deviation = toeplitz_deviation(cov) / np.abs(cov).max()
            worst = max(worst, deviation)
            n_components += 1
    elapsed = time.monotonic() - start
    report(
        "criterion 4 (Toeplitz physical consistency)",
        worst < 1e-9 and elapsed < 30.0,
        f"max relative diagonal spread {worst:.2e} over {n_components} "
        f"components in {elapsed:.1f}s",
    )


def test_criterion_5_msbl_bit_identity(tmp_path):
    config = {
        "scenario": "simo",
        "n_train": 80,
        "snr_range_db": [0.0, 20.0],
        "system": {"variant": "simo", "n_antennas": 8},
        "grid_size": 32,
        "quadrature_points": 256,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    em = tmp_path / "em.json"
    em.write_text(json.dumps({"max_iters": 15}), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--seed", "9", "--out", str(data)]) == EXIT_OK
    out_msbl = tmp_path / "msbl"
    out_k1 = tmp_path / "k1"
    assert main(["fit", str(data), "--model", "msbl", "--seed", "4",
                 "--config", str(em), "--out", str(out_msbl)]) == EXIT_OK
    assert main(["fit", str(data), "--model", "csgmm", "--K", "1", "--seed", "4",
                 "--config", str(em), "--out", str(out_k1)]) == EXIT_OK
    identical = dir_bytes(out_msbl) == dir_bytes(out_k1)
    report(
        "criterion 5 (M-SBL = CSGMM K=1 bit identity)",
        identical,
        "model directories are byte-identical" if identical else "files differ",
    )


def test_criterion_6_kronecker_m_step():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    s_t = s_f = 8
    monotone_ok = True
    for _ in range(50):
        n, k = 20, 2
        resp = rng.dirichlet(np.ones(k), size=n)
        stats = rng.uniform(0.02, 2.0, (k, n, s_t * s_f))
        init_t, init_f = None, None
        values = []
        for _ in range(10):
            model = kronecker_m_step(
                resp, stats, s_t, s_f, coord_iters=1,
                init_doppler=init_t, init_delay=init_f,
            )
            init_t = model.doppler_variances
            init_f = model.delay_variances
            values.append(q_objective(resp, stats, model))
        diffs = np.diff(values)
        if not np.all(diffs >= -1e-8 * np.abs(np.array(values[:-1]))):
            monotone_ok = False

    # exactly Kronecker statistics: a single sweep recovers the product
    recovery_worst = 0.0
    for _ in range(10):
        gt = rng.uniform(0.1, 2.0, s_t)
        gf = rng.uniform(0.1, 2.0, s_f)
        target = np.kron(gt, gf)
        stats = np.tile(target, (1, 30, 1))
        model = kronecker_m_step(np.ones((30, 1)), stats, s_t, s_f, coord_iters=1)
        rebuilt = np.kron(model.doppler_variances[0], model.delay_variances[0])
        recovery_worst = max(
            recovery_worst, float(np.abs(rebuilt - target).max() / target.max())
        )
    elapsed = time.monotonic() - start
    report(
        "criterion 6 (Kronecker coordinate M-step)",
        monotone_ok and recovery_worst < 1e-8 and elapsed < 20.0,
        f"objective monotone over 50 instances x 10 sweeps, recovery error "
        f"{recovery_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_street_canyon_replica(street_canyon_run):
    ctx = street_canyon_run
    grid, support = ctx["grid"], ctx["support"]
    gt_mean = ctx["gt_spread_mean"]

    csgmm_batch, _ = load_batch(ctx["paths"]["csgmm_batch"])
    msbl_batch, _ = load_batch(ctx["paths"]["msbl_batch"])
    profile, _, _ = power_angular_profile(csgmm_batch.sparse)
    leakage = profile_support_leakage(profile, support)
    csgmm_spreads, _ = batch_angular_spreads(np.abs(csgmm_batch.sparse) ** 2, grid)
    msbl_spreads, _ = batch_angular_spreads(np.abs(msbl_batch.sparse) ** 2, grid)
    csgmm_ratio = float(csgmm_spreads.mean()) / gt_mean
    msbl_ratio = float(msbl_spreads.mean()) / gt_mean

    ok = (
        leakage < 0.05
        and 0.5 <= csgmm_ratio <= 2.0
        and msbl_ratio > 2.0
        and ctx["elapsed"] < 600.0
    )
    report(
        "criterion 7 (scaled street-canyon replica)",
        ok,
        f"leakage {leakage:.4f} (<0.05), CSGMM spread ratio {csgmm_ratio:.2f} "
        f"(within [0.5, 2]), MSBL ratio {msbl_ratio:.2f} (>2), "
        f"ground truth mean {math.degrees(gt_mean):.2f} deg, "
        f"pipeline {ctx['elapsed']:.0f}s",
    )


def test_criterion_8_generalizability(tmp_path):
    start = time.monotonic()
    config = {
        "scenario": "ofdm",
        "n_train": 300,
        "snr_range_db": [5.0, 20.0],
        "system": {
            "variant": "ofdm",
            "n_subcarriers": 24,
            "n_symbols": 14,
            "subcarrier_spacing": 15e3,
            "symbol_duration": 1e-3 / 14,
        },
        "doppler_size": 40,
        "delay_size": 40,
        "doppler_bound_hz": 250.0,
        "delay_bound_s": 6e-6,
        "n_pilots": 30,
        "normalize": True,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    em = tmp_path / "em.json"
    em.write_text(json.dumps({"max_iters": 30}), encoding="utf-8")
    swapped_system = {
        "variant": "ofdm",
        "n_subcarriers": 20,
        "n_symbols": 18,
        "subcarrier_spacing": 60e3,
        "symbol_duration": 1e-3 / 3.5,
    }
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps(swapped_system), encoding="utf-8")

    data = tmp_path / "data"
    model_dir = tmp_path / "model"
    assert main(["synth", "--config", str(cfg), "--seed", "31", "--out", str(data)]) == EXIT_OK
    assert main(["fit", str(data), "--model", "csgmm", "--K", "2",
                 "--variance-form", "kronecker", "--seed", "2",
                 "--config", str(em), "--out", str(model_dir)]) == EXIT_OK
    batch_a = tmp_path / "batch_a"
    batch_b = tmp_path / "batch_b"
    assert main(["generate", str(model_dir), "-n", "500", "--seed", "77", "--render",
                 "--out", str(batch_a)]) == EXIT_OK
    assert main(["generate", str(model_dir), "-n", "500", "--seed", "77", "--render",
                 "--swap-config", str(swap), "--out", str(batch_b)]) == EXIT_OK

    loaded_a, _ = load_batch(batch_a)
    loaded_b, _ = load_batch(batch_b)
    same_coeff = loaded_a.sparse.tobytes() == loaded_b.sparse.tobytes()
    shapes_ok = loaded_a.channels.shape == (500, 336) and loaded_b.channels.shape == (500, 360)

    from chansbgm.em import load_model

    model, _ = load_model(model_dir)
    grid = DelayDopplerGrid(40, 40, doppler_bound=250.0, delay_bound=6e-6)
    dict_b = build_ofdm_dictionary(grid, SystemConfig.from_json(swapped_system))
    factor_worst = 0.0
    d_t, d_f = dict_b.factors
    for k in range(model.n_components):
        cov_t = (d_t * model.doppler_variances[k][None, :]) @ d_t.conj().T
        cov_f = (d_f * model.delay_variances[k][None, :]) @ d_f.conj().T
        factor_worst = max(
            factor_worst,
            toeplitz_deviation(cov_t) / np.abs(cov_t).max(),
            toeplitz_deviation(cov_f) / np.abs(cov_f).max(),
        )
    elapsed = time.monotonic() - start
    ok = same_coeff and shapes_ok and factor_worst < 1e-9 and elapsed < 120.0
    report(
        "criterion 8 (config-swap generalizability)",
        ok,
        f"coefficients identical={same_coeff}, shapes 336->360 ok={shapes_ok}, "
        f"factor Toeplitz deviation {factor_worst:.2e}, {elapsed:.0f}s",
    )


def test_criterion_9_sampling_statistics():
    s = 8
    n = 100_000
    rng = np.random.default_rng(3)
    gamma = rng.uniform(0.2, 2.0, s)
    model = SbgmModel(weights=np.array([1.0]), variances=gamma[None, :])
    batch = sample_parameters(model, n, 12)
    second = np.mean(np.abs(batch.sparse) ** 2, axis=0)
    var_bound = 3.0 * gamma / math.sqrt(n)
    var_ok = np.all(np.abs(second - gamma) < var_bound)
    pseudo = np.abs(np.mean(batch.sparse**2, axis=0))
    pseudo_bound = 3.0 * gamma * math.sqrt(2.0 / n)
    pseudo_ok = np.all(pseudo < pseudo_bound)
    report(
        "criterion 9 (sampling statistics, circular symmetry)",
        var_ok and pseudo_ok,
        f"per-entry |E|s|^2 - gamma| max {np.abs(second - gamma).max():.2e} "
        f"(3-sigma bounds), pseudo-covariance max {pseudo.max():.2e}",
    )


def test_criterion_10_pipeline_determinism(street_canyon_run, tmp_path_factory):
    root2 = tmp_path_factory.mktemp("fig3_repeat") / "run2"
    run_street_canyon_pipeline(root2)
    bytes1 = dir_bytes(street_canyon_run["root"])
    bytes2 = dir_bytes(root2)
    # config files live inside each root with identical content by construction
    identical = bytes1 == bytes2
    if not identical:
        differing = [k for k in bytes1 if bytes1.get(k) != bytes2.get(k)]
        detail = f"{len(differing)} files differ: {differing[:5]}"
    else:
        detail = f"all {len(bytes1)} files byte-identical across reruns"
    report("criterion 10 (pipeline determinism)", identical, detail)
