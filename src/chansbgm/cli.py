"""Command-line pipeline: synth, fit, generate, metrics, selfcheck.

Every command takes a seed and writes deterministic artifacts; re-running
with the same inputs reproduces every output file byte for byte. Numeric
imports happen after thread configuration so that --threads can cap the
linear-algebra thread pools before they start.

Exit codes: 0 success, 1 unexpected failure, 2 invalid configuration or
input (``InvalidArgumentError`` or ``OSError``), 3 diagnostic failure
(non-monotone fit trace).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .errors import InvalidArgumentError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_CONFIG = 2
EXIT_DIAGNOSTIC = 3

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

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
_PATHS_FIELDS = {
    "max_paths": "integer",
    "delay_range_s": "number pair",
    "doppler_range_hz": "number pair",
    "gain_decay_rate": "number",
}
_EM_OPTION_FIELDS = {
    "max_iters": "integer",
    "rel_tol": "number",
    "clip_floor": "number",
    "kron_sweeps": "integer",
}


def default_simo_synth_config() -> dict:
    """Street-canyon SIMO dataset at the reference scale."""
    return {
        "scenario": "simo",
        "n_train": 10_000,
        "snr_range_db": [0.0, 20.0],
        "system": {"variant": "simo", "n_antennas": 16},
        "grid_size": 256,
        "laplacian_std_deg": 2.0,
    }


def default_ofdm_synth_config() -> dict:
    """Pilot-masked OFDM dataset at the reference scale."""
    return {
        "scenario": "ofdm",
        "n_train": 10_000,
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


def _configure_threads(threads: int | None) -> None:
    if threads is None or "numpy" in sys.modules:
        return  # no cap, or pools already started; the cap only works at first import
    for var in _THREAD_VARS:
        os.environ[var] = str(int(threads))


def _synth_config(document) -> dict:
    """Check a synth config with its angle_profile entries and paths."""
    from .utils import check_document, check_tagged_document

    config = check_tagged_document(
        document, "scenario", _SYNTH_FIELDS, "synth config", _SYNTH_OPTIONAL
    )
    if config["n_train"] < 1:
        raise InvalidArgumentError("n_train must be >= 1")
    for entry in config.get("angle_profile", ()):
        check_document(
            entry, _ANGLE_COMPONENT_FIELDS, _ANGLE_COMPONENT_FIELDS, "angle_profile entry"
        )
    if "paths" in config:
        config["paths"] = check_document(config["paths"], _PATHS_FIELDS, what="paths")
    return config


def _profile_from_config(entries: list[dict] | None):
    from .scenario import AngleComponent, AngleProfile

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


def cmd_synth(config_path: str, seed: int, out: str) -> int:
    import numpy as np

    from .container import output_directory, read_json, write_array, write_json
    from .dictionary import (
        AngleGrid,
        DelayDopplerGrid,
        SystemConfig,
        build_dictionary,
        grid_to_json,
        vectorize_channel,
    )
    from .scenario import (
        OfdmScenario,
        draw_ofdm_channel,
        make_observations,
        normalize_dataset,
        random_pilots,
        simo_channels,
    )

    config = _synth_config(read_json(config_path))
    system = SystemConfig.from_json(config["system"])
    with output_directory(out, "scenario.json", reads=[config_path]) as out_dir:
        rng = np.random.default_rng(seed)
        n_train = config["n_train"]
        snr_range = tuple(config["snr_range_db"])
        scale = 1.0

        if config["scenario"] == "simo":
            grid = AngleGrid(config["grid_size"])
            dictionary_id = build_dictionary(grid, system).content_id
            profile = _profile_from_config(config.get("angle_profile"))
            std = math.radians(config.get("laplacian_std_deg", 2.0))
            quad = config.get("quadrature_points", 2048)
            channels = simo_channels(profile, std, system.n_antennas, n_train, rng, quad)
            if config.get("normalize", False):
                channels, scale = normalize_dataset(channels)
            pilots = np.arange(system.n_antennas)
        else:
            grid = DelayDopplerGrid(
                doppler_size=config["doppler_size"],
                delay_size=config["delay_size"],
                doppler_bound=config["doppler_bound_hz"],
                delay_bound=config["delay_bound_s"],
            )
            dictionary_id = build_dictionary(grid, system).content_id
            paths = config.get("paths", {})
            scenario = OfdmScenario(
                config=system,
                max_paths=paths.get("max_paths", 8),
                delay_range=tuple(paths.get("delay_range_s", (0.0, 0.5 * grid.delay_bound))),
                doppler_range=tuple(paths.get(
                    "doppler_range_hz", (-0.8 * grid.doppler_bound, 0.8 * grid.doppler_bound)
                )),
                gain_decay_rate=paths.get("gain_decay_rate", 1e6),
                doppler_bound=grid.doppler_bound,
                delay_bound=grid.delay_bound,
            )
            channels = np.stack(
                [vectorize_channel(draw_ofdm_channel(scenario, rng)) for _ in range(n_train)]
            )
            if config.get("normalize", True):
                channels, scale = normalize_dataset(channels)
            pilots = random_pilots(config["n_pilots"], system.channel_dim, rng)

        obs = make_observations(channels, pilots, snr_range, rng)
        write_array(out_dir / "channels", channels, role="ground-truth-channels")
        write_array(out_dir / "observations", obs.samples, role="observations")
        write_array(out_dir / "noise_vars", obs.noise_vars, role="noise-variances")
        write_array(out_dir / "snr_db", obs.snr_db, role="per-sample-snr-db")
        # stored as the 0/1 selection matrix A, one unit row per pilot
        selection = np.eye(system.channel_dim)[pilots]
        write_array(out_dir / "selection", selection, role="selection-matrix")
        write_json(
            out_dir / "scenario.json",
            {
                "kind": "dataset",
                "config": config,
                "seed": int(seed),
                "normalization_scale": scale,
                "grid": grid_to_json(grid),
                "system": system.to_json(),
                "dictionary_id": dictionary_id,
                "n_train": n_train,
            },
        )
    print(f"synth: wrote {n_train} samples to {Path(out)}")
    return EXIT_OK


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


def load_dataset(directory: str | Path):
    """Read a dataset directory back into an observation set + dictionary.

    The dictionary is rebuilt from the ``grid`` and ``system`` documents of
    ``scenario.json`` and must hash to its ``dictionary_id``; the stored
    selection matrix becomes the observation set's pilot indices.
    """
    from .container import read_array, read_json
    from .dictionary import load_dictionary
    from .scenario import ObservationSet

    directory = Path(directory)
    meta = read_json(directory / "scenario.json")
    dictionary = load_dictionary(meta.get("grid"), meta.get("system"))
    if dictionary.content_id != meta.get("dictionary_id"):
        raise InvalidArgumentError(
            f"{directory / 'scenario.json'}: grid and system do not rebuild its dictionary_id"
        )
    samples, _ = read_array(directory / "observations")
    noise_vars, _ = read_array(directory / "noise_vars")
    selection, _ = read_array(directory / "selection")
    snr_db, _ = read_array(directory / "snr_db")
    pilots = _selection_pilots(selection, len(dictionary.matrix))
    obs = ObservationSet(samples=samples, noise_vars=noise_vars, pilots=pilots, snr_db=snr_db)
    return obs, dictionary, meta


def cmd_fit(
    dataset: str,
    out: str,
    model_kind: str,
    n_components: int | None,
    variance_form: str,
    seed: int,
    config_path: str | None,
) -> int:
    from .container import output_directory, read_json, write_json
    from .em import csgmm_fit, save_model
    from .utils import check_document

    document = {} if config_path is None else read_json(config_path)
    options = check_document(document, _EM_OPTION_FIELDS, what="EM options")
    if model_kind == "msbl":
        if n_components not in (None, 1):
            raise InvalidArgumentError(
                "msbl is the single-component model; omit --K or use --K 1"
            )
        n_components = 1
    elif n_components is None:
        raise InvalidArgumentError("csgmm requires --K")

    obs, dictionary, meta = load_dataset(dataset)
    with output_directory(out, "model.json", reads=[dataset, config_path]) as out_dir:
        model, trace = csgmm_fit(
            obs,
            dictionary,
            n_components,
            variance_form=variance_form,
            seed=seed,
            **options,
        )
        save_model(
            model,
            out_dir,
            extra_meta={
                "seed": int(seed),
                "dictionary_id": meta["dictionary_id"],
                "grid": meta["grid"],
                "system": meta["system"],
                "converged": trace.converged,
                "n_iterations": trace.n_iterations,
            },
        )
        lines = ["iteration,log_likelihood"]
        lines += [f"{i},{repr(float(v))}" for i, v in enumerate(trace.log_likelihoods)]
        (out_dir / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_json(
            out_dir / "fit.json",
            {
                "converged": trace.converged,
                "n_iterations": trace.n_iterations,
                "final_log_likelihood": float(trace.log_likelihoods[-1]),
                "monotone": trace.is_monotone(),
            },
        )
    print(
        f"fit: {trace.n_iterations} iterations, "
        f"final log-likelihood {trace.log_likelihoods[-1]:.6f}, "
        f"converged={trace.converged}"
    )
    if not trace.is_monotone():  # committed all the same: trace.csv shows where it fell
        print("fit: log-likelihood trace decreased beyond tolerance", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def cmd_generate(
    model_dir: str,
    n: int,
    seed: int,
    out: str,
    render: bool,
    p_max: int | None,
    swap_config_path: str | None,
) -> int:
    from .container import output_directory, read_json
    from .dictionary import SystemConfig, build_dictionary, check_pairing, grid_from_json
    from .em import load_model
    from .generation import limit_batch_paths, render_channels, sample_blocks, save_batch

    model, meta = load_model(model_dir)
    grid_doc = meta.get("grid")
    system_doc = meta.get("system") if swap_config_path is None else read_json(swap_config_path)
    # the batch records both even when nothing is rendered
    grid, system = grid_from_json(grid_doc), SystemConfig.from_json(system_doc)
    check_pairing(grid, system)
    with output_directory(out, "batch.json", reads=[model_dir, swap_config_path]) as out_dir:
        dictionary = build_dictionary(grid, system) if render else None
        # one row block at a time: drawn, capped, rendered, appended
        blocks = sample_blocks(model, n, seed)
        if p_max is not None:
            blocks = (limit_batch_paths(block, p_max) for block in blocks)
        if dictionary is not None:
            blocks = (render_channels(block, dictionary) for block in blocks)
        save_batch(
            blocks,
            out_dir,
            extra_meta={"grid": grid_doc, "system": system_doc, "model_id": model.content_id},
        )
    print(f"generate: wrote {n} samples to {out}")
    return EXIT_OK


def _open_reference(path: str | Path):
    """Accept either a generated batch or a dataset directory as reference;
    returns readers of its coefficients (None for a dataset) and channels,
    and its ``batch.json`` or ``scenario.json`` document."""
    from .container import ArrayReader, read_json
    from .generation import open_batch

    path = Path(path)
    if (path / "batch.json").exists():
        stored = open_batch(path)
        return stored.sparse, stored.channels, stored.meta
    if (path / "scenario.json").exists():
        return None, ArrayReader(path / "channels"), read_json(path / "scenario.json")
    raise InvalidArgumentError(f"{path} is neither a batch nor a dataset directory")


def _angular_pass(sparse, grid):
    """Power profile, skipped count and (on an angle grid) per-sample
    spreads of stored coefficients, read one row block at a time."""
    import numpy as np

    from .metrics import PowerProfile, batch_angular_spreads

    profile = PowerProfile(sparse.shape[1])
    spreads = []
    for block in sparse.blocks():
        profile.add(block)
        if grid is not None:
            spreads.append(batch_angular_spreads(block, grid)[0])
    return profile.profile(), profile.n_skipped, np.concatenate(spreads) if spreads else None


def cmd_metrics(
    batch_dir: str,
    reference: str | None,
    out: str,
    channel_metrics: bool,
) -> int:
    import numpy as np

    from .container import output_directory, write_json
    from .dictionary import AngleGrid, grid_from_json
    from .generation import open_batch
    from .metrics import (
        SPREAD_HIST_BINS,
        SPREAD_HIST_RANGE,
        histogram_w1,
        profile_support_leakage,
        sample_cosines,
        sample_nmse,
        spread_histogram,
    )
    from .utils import row_blocks

    batch = open_batch(batch_dir)
    grid_doc = batch.meta.get("grid")
    grid = grid_from_json(grid_doc) if grid_doc else None
    angular = isinstance(grid, AngleGrid)
    ref_sparse, ref_channels, ref_meta = (
        (None, None, {}) if reference is None else _open_reference(reference)
    )
    # coefficients compare only on one grid, channels only for one system
    if ref_sparse is not None and ref_meta.get("grid") != grid_doc:
        raise InvalidArgumentError(f"{reference} was not drawn on the grid of {batch_dir}")
    aligned = (
        batch.channels is not None
        and ref_channels is not None
        and ref_channels.shape == batch.channels.shape
        and ref_meta.get("system") == batch.meta.get("system")
    )
    if channel_metrics and not aligned:
        raise InvalidArgumentError(
            "channel metrics need a reference with channels aligned to the batch"
        )
    with output_directory(out, "report.json", reads=[batch_dir, reference]) as out_dir:
        profile, skipped, spreads = _angular_pass(batch.sparse, grid if angular else None)
        report: dict = {"n_samples": len(batch.sparse), "n_skipped_zero_norm": skipped}

        lines = ["grid_index,angle_rad,mass"] if angular else ["grid_index,mass"]
        for idx, mass in enumerate(profile):
            if angular:
                lines.append(f"{idx},{repr(float(grid.points[idx]))},{repr(float(mass))}")
            else:
                lines.append(f"{idx},{repr(float(mass))}")
        (out_dir / "profile.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

        if angular:
            edges = np.linspace(*SPREAD_HIST_RANGE, SPREAD_HIST_BINS + 1)
            hist = spread_histogram(spreads, edges)
            hist_lines = ["bin_lo,bin_hi,mass"]
            hist_lines += [
                f"{repr(float(edges[i]))},{repr(float(edges[i + 1]))},{repr(float(hist[i]))}"
                for i in range(SPREAD_HIST_BINS)
            ]
            text = "\n".join(hist_lines) + "\n"
            (out_dir / "spread_hist.csv").write_text(text, encoding="utf-8")
            report["mean_angular_spread"] = float(np.mean(spreads))

        if ref_sparse is not None:
            ref_profile, _, ref_spreads = _angular_pass(ref_sparse, grid if angular else None)
            report["leakage_vs_reference_support"] = profile_support_leakage(
                profile, ref_profile > 1e-12
            )
            if angular:
                report["spread_w1_vs_reference"] = histogram_w1(spreads, ref_spreads)
        else:
            report["leakage_vs_own_support"] = profile_support_leakage(profile, profile > 1e-12)

        # the spreads are reduced; free them before the channel pass adds two (n,) vectors
        spreads = ref_spreads = None
        if aligned:
            n = len(batch.channels)
            errors, cosines = np.empty(n), np.empty(n)
            for rows in row_blocks(n, batch.channels.shape[1]):
                estimates, truths = batch.channels.read(rows), ref_channels.read(rows)
                errors[rows] = sample_nmse(estimates, truths)
                cosines[rows] = sample_cosines(estimates, truths)
            report["nmse"] = float(np.mean(errors))
            report["cosine_similarity"] = float(np.mean(cosines))
        write_json(out_dir / "report.json", report)
    print(f"metrics: wrote report to {Path(out)}")
    return EXIT_OK


def _selfcheck_registry():
    import numpy as np

    from . import (
        AngleGrid,
        DelayDopplerGrid,
        SystemConfig,
        build_ofdm_dictionary,
        build_simo_dictionary,
        csgmm_fit,
        csvae_elbo_terms,
        limit_paths,
        make_observations,
        posterior_moments,
        swap_system_config,
        toeplitz_deviation,
    )
    from .utils import complex_standard_normal

    def dictionary_unit_modulus():
        d = build_simo_dictionary(AngleGrid(32), SystemConfig.simo(8))
        assert np.abs(np.abs(d.matrix) - 1).max() < 1e-12

    def ofdm_kron_identity():
        grid = DelayDopplerGrid(4, 4, doppler_bound=200.0, delay_bound=4e-6)
        d = build_ofdm_dictionary(grid, SystemConfig.ofdm(5, 3, 15e3, 1e-3 / 14))
        assert np.abs(d.matrix - np.kron(d.doppler_factor, d.delay_factor)).max() < 1e-12

    def swap_round_trip():
        d = build_simo_dictionary(AngleGrid(16), SystemConfig.simo(4))
        back = swap_system_config(swap_system_config(d, SystemConfig.simo(9)), d.config)
        assert np.abs(back.matrix - d.matrix).max() < 1e-12

    def posterior_dense_oracle():
        rng = np.random.default_rng(0)
        m, s = 6, 24
        a = np.eye(m)
        dmat = np.exp(1j * rng.uniform(0, 2 * math.pi, (m, s)))
        gamma = rng.uniform(0, 2, s)
        sigma2 = 0.3
        y = complex_standard_normal(rng, m)
        mom = posterior_moments(gamma, y, a, dmat, sigma2)
        w = a @ dmat
        c_y = w @ np.diag(gamma) @ w.conj().T + sigma2 * np.eye(m)
        inv = np.linalg.inv(c_y)
        mean = np.diag(gamma) @ w.conj().T @ inv @ y
        assert np.abs(mom.mean - mean).max() < 1e-10

    def elbo_cancellation():
        rng = np.random.default_rng(1)
        m, s = 5, 16
        dmat = np.exp(1j * rng.uniform(0, 2 * math.pi, (m, s)))
        gamma = rng.uniform(1e-7, 1.5, s)
        y = complex_standard_normal(rng, m)
        terms = csvae_elbo_terms(
            gamma, y, np.eye(m), dmat, 0.5, rng.standard_normal(3), rng.uniform(0.5, 2, 3)
        )
        assert abs(terms.reconstruction - terms.posterior_kl - terms.combined) < 1e-8 * abs(
            terms.combined
        )

    def em_monotone_micro():
        rng = np.random.default_rng(2)
        d = build_simo_dictionary(AngleGrid(16), SystemConfig.simo(6))
        channels = complex_standard_normal(rng, (30, 6))
        obs = make_observations(channels, np.arange(6), (5.0, 15.0), rng)
        _, trace = csgmm_fit(obs, d, 2, max_iters=10, seed=0)
        assert trace.is_monotone(1e-8)

    def conditional_toeplitz():
        rng = np.random.default_rng(3)
        d = build_simo_dictionary(AngleGrid(24), SystemConfig.simo(8))
        gamma = rng.uniform(0, 1, 24)
        cov = (d.matrix * gamma[None, :]) @ d.matrix.conj().T
        assert toeplitz_deviation(cov) < 1e-9 * np.abs(cov).max()

    def limit_paths_idempotent():
        rng = np.random.default_rng(4)
        s = complex_standard_normal(rng, 12)
        once = limit_paths(s, 3)
        assert np.array_equal(limit_paths(once, 3), once)

    def container_round_trip():
        import tempfile

        from .container import read_array, write_array

        rng = np.random.default_rng(5)
        arr = complex_standard_normal(rng, (4, 3))
        with tempfile.TemporaryDirectory() as tmp:
            write_array(Path(tmp) / "x", arr, role="selfcheck")
            back, _ = read_array(Path(tmp) / "x")
        assert back.tobytes() == arr.tobytes()

    def streamed_round_trip():
        import tempfile

        from .container import ArrayReader, ArrayWriter, read_array, write_array

        rng = np.random.default_rng(6)
        arr = complex_standard_normal(rng, (11, 3))
        with tempfile.TemporaryDirectory() as tmp:
            whole, streamed = Path(tmp) / "whole", Path(tmp) / "streamed"
            write_array(whole, arr, role="selfcheck")
            with ArrayWriter(streamed, role="selfcheck") as writer:
                for rows in (slice(0, 4), slice(4, 5), slice(5, 5), slice(5, 11)):
                    writer.append(arr[rows])
            for suffix in (".bin", ".json"):
                written = streamed.with_suffix(suffix).read_bytes()
                assert written == whole.with_suffix(suffix).read_bytes()
            reader = ArrayReader(streamed)
            parts = [reader.read(rows) for rows in (slice(0, 7), slice(7, 8), slice(8, 11))]
            assert np.concatenate(parts).tobytes() == arr.tobytes()
            assert b"".join(b.tobytes() for b in reader.blocks()) == arr.tobytes()
            assert read_array(streamed)[0].tobytes() == arr.tobytes()

    return [
        ("dictionary-unit-modulus", dictionary_unit_modulus),
        ("ofdm-kron-identity", ofdm_kron_identity),
        ("swap-round-trip", swap_round_trip),
        ("posterior-dense-oracle", posterior_dense_oracle),
        ("elbo-cancellation", elbo_cancellation),
        ("em-monotone-micro", em_monotone_micro),
        ("conditional-toeplitz", conditional_toeplitz),
        ("limit-paths-idempotent", limit_paths_idempotent),
        ("container-round-trip", container_round_trip),
        ("streamed-round-trip", streamed_round_trip),
    ]


def cmd_selfcheck() -> int:
    failures = 0
    for name, check in _selfcheck_registry():
        try:
            check()
        except Exception as exc:  # report every failure, keep going
            failures += 1
            print(f"[FAIL] {name}: {exc}")
        else:
            print(f"[PASS] {name}")
    return EXIT_OK if failures == 0 else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chansbgm",
        description="Learn and generate wireless channel parameter distributions.",
    )
    parser.add_argument("--threads", type=int, default=None, help="cap linear-algebra threads")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a training dataset")
    p_synth.add_argument("--config", required=True, help="scenario config JSON")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit a mixture model to a dataset")
    p_fit.add_argument("dataset", help="dataset directory from synth")
    p_fit.add_argument("--model", choices=["csgmm", "msbl"], default="csgmm")
    p_fit.add_argument("--K", type=int, default=None, help="component count")
    p_fit.add_argument(
        "--variance-form", choices=["full", "kronecker"], default="full"
    )
    p_fit.add_argument("--config", default=None, help="EM options JSON")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True)

    p_gen = sub.add_parser("generate", help="sample parameters (and channels)")
    p_gen.add_argument("model", help="model directory from fit")
    p_gen.add_argument("-n", "--n", type=int, required=True, help="sample count")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p-max", type=int, default=None, help="path-count cap")
    p_gen.add_argument("--render", action="store_true", help="also compute channels")
    p_gen.add_argument(
        "--swap-config", default=None, help="system config JSON for rendering"
    )
    p_gen.add_argument("--out", required=True)

    p_met = sub.add_parser("metrics", help="evaluate a generated batch")
    p_met.add_argument("batch", help="batch directory from generate")
    p_met.add_argument("reference", nargs="?", default=None, help="reference batch or dataset")
    p_met.add_argument(
        "--channel-metrics", action="store_true", help="require nmse/cosine against the reference"
    )
    p_met.add_argument("--out", required=True)

    sub.add_parser("selfcheck", help="run bundled invariant checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_threads(args.threads)
    try:
        if args.command == "synth":
            return cmd_synth(args.config, args.seed, args.out)
        if args.command == "fit":
            return cmd_fit(
                args.dataset,
                args.out,
                args.model,
                args.K,
                args.variance_form,
                args.seed,
                args.config,
            )
        if args.command == "generate":
            return cmd_generate(
                args.model, args.n, args.seed, args.out,
                args.render, args.p_max, args.swap_config,
            )
        if args.command == "metrics":
            return cmd_metrics(args.batch, args.reference, args.out, args.channel_metrics)
        if args.command == "selfcheck":
            return cmd_selfcheck()
        raise AssertionError(f"unhandled command {args.command}")
    except (OSError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
