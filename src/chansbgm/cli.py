"""Command-line pipeline: synth, fit, generate, metrics, selfcheck.

``selfcheck`` runs the other four twice on a small case and checks the results.

Every command takes a seed and writes deterministic artifacts. Re-running
with the same inputs on one host, BLAS build and thread count reproduces
every output file byte for byte; across them, results agree to round-off.
Each subcommand's parser binds its ``cmd_*`` function, which takes the
parsed arguments and does its numeric imports itself, after thread
configuration, so that --threads (default 1) can cap the linear-algebra
thread pools before they start.

Exit codes: 0 success, 1 unexpected failure, 2 invalid configuration or
input (``InvalidArgumentError`` or ``OSError``), 3 diagnostic failure
(non-monotone fit trace).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import InvalidArgumentError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_CONFIG = 2
EXIT_DIAGNOSTIC = 3

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_EM_OPTION_FIELDS = {"max_iters": "integer", "rel_tol": "number"}


def _configure_threads(threads: int) -> None:
    if threads < 1:
        raise InvalidArgumentError("--threads must be >= 1")
    if "numpy" in sys.modules:
        return  # pools already started; the cap only works at first import
    for var in _THREAD_VARS:
        os.environ[var] = str(int(threads))


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as numpy's generators take."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and one line per row, its Python ints and floats
    each written as its ``repr`` (which round-trips a float exactly)."""
    lines = [header, *(",".join(map(repr, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_synth(args: argparse.Namespace) -> int:
    from .container import output_directory, read_json
    from .dataset import DATASET_DOCUMENT, check_synth_config, save_dataset, synthesize

    config = check_synth_config(read_json(args.config))
    with output_directory(args.out, DATASET_DOCUMENT, reads=[args.config]) as out_dir:
        save_dataset(out_dir, *synthesize(config, args.seed, out_dir))
    print(f"synth: wrote {config['n_train']} samples to {Path(args.out)}")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    from .container import output_directory, read_json, write_json
    from .dataset import load_dataset
    from .em import csgmm_fit, save_model
    from .utils import check_document

    document = {} if args.config is None else read_json(args.config)
    options = check_document(document, _EM_OPTION_FIELDS, what="EM options")
    n_components = args.K
    if args.model == "msbl":
        if n_components not in (None, 1):
            raise InvalidArgumentError(
                "msbl is the single-component model; omit --K or use --K 1"
            )
        n_components = 1
    elif n_components is None:
        raise InvalidArgumentError("csgmm requires --K")

    obs, dictionary, meta = load_dataset(args.dataset)
    with output_directory(args.out, "model.json", reads=[args.dataset, args.config]) as out_dir:
        model, trace = csgmm_fit(
            obs,
            dictionary,
            n_components,
            variance_form=args.variance_form,
            seed=args.seed,
            **options,
        )
        monotone = trace.is_monotone()
        save_model(
            model,
            out_dir,
            extra_meta={
                "seed": int(args.seed),
                "grid": meta["grid"],
                "system": meta["system"],
                "converged": trace.converged,
                "n_iterations": trace.n_iterations,
            },
        )
        rows = enumerate(trace.log_likelihoods.tolist())
        _write_csv(out_dir / "trace.csv", "iteration,log_likelihood", rows)
        write_json(
            out_dir / "fit.json",
            {
                "converged": trace.converged,
                "n_iterations": trace.n_iterations,
                "n_fallbacks": trace.n_fallbacks,
                "final_log_likelihood": float(trace.log_likelihoods[-1]),
                "monotone": monotone,
            },
        )
    print(
        f"fit: {trace.n_iterations} iterations ({trace.n_fallbacks} EM fallbacks), "
        f"final log-likelihood {trace.log_likelihoods[-1]:.6f}, "
        f"converged={trace.converged}"
    )
    if not monotone:  # committed all the same: trace.csv shows where it fell
        print("fit: log-likelihood trace decreased beyond tolerance", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    from contextlib import closing

    from .container import output_directory, read_json
    from .dictionary import SystemConfig, build_dictionary, grid_from_json
    from .em import load_model
    from .generation import limit_batch_paths, render_channels, sample_blocks, save_batch
    from .utils import prefetch

    model, meta = load_model(args.model)
    grid_doc = meta.get("grid")
    system_doc = meta.get("system") if args.swap_config is None else read_json(args.swap_config)
    # the batch records both even when nothing is rendered
    grid, system = grid_from_json(grid_doc), SystemConfig.from_json(system_doc)
    model.check_grid(grid)
    dictionary = build_dictionary(grid, system)  # checks that grid and system pair

    def cap_and_render(block):
        if args.p_max is not None:
            block = limit_batch_paths(block, args.p_max)
        if args.render:
            block = render_channels(block, dictionary)
        return block

    # one row block at a time: drawn, capped, rendered, appended. The next
    # block is drawn on a worker thread meanwhile; closing stops it before
    # a failed run's staging directory is removed.
    with (
        output_directory(args.out, "batch.json", reads=[args.model, args.swap_config]) as out_dir,
        closing(prefetch(sample_blocks(model, args.n, args.seed))) as drawn,
    ):
        save_batch(
            map(cap_and_render, drawn),
            out_dir,
            extra_meta={"grid": grid_doc, "system": system_doc},
        )
    print(f"generate: wrote {args.n} samples to {args.out}")
    return EXIT_OK


def _open_reference(path: str | Path):
    """Readers of a reference batch's (or dataset's) coefficients (None for
    a dataset) and channels, and its batch or dataset document."""
    from .generation import open_batch

    path = Path(path)
    if (path / "batch.json").exists():
        batch, meta = open_batch(path)
        return batch.sparse, batch.channels, meta
    from .dataset import open_channels  # only here, since a dataset loads the scenarios

    return (None, *open_channels(path))


def _channel_mismatch(batch_dir, channels, meta, reference, ref_channels, ref_meta):
    """Why a batch's channels cannot be scored row by row against the
    reference's (channels compare only for one system), or None if they can."""
    if reference is None:
        return "no reference was given"
    if channels is None or ref_channels is None:
        return f"{batch_dir if channels is None else reference} holds no channels"
    if ref_channels.shape != channels.shape:
        return (f"{reference} holds channels of shape {ref_channels.shape}, "
                f"{batch_dir} of shape {channels.shape}")
    if ref_meta.get("system") != meta.get("system"):
        return f"{reference} holds channels of another system than {batch_dir}"
    return None


def cmd_metrics(args: argparse.Namespace) -> int:
    import numpy as np

    from .container import output_directory, write_json
    from .dictionary import AngleGrid, grid_from_json
    from .generation import open_batch
    from .metrics import (
        SPREAD_HIST_EDGES,
        histogram_w1,
        power_angular_profile,
        profile_support_leakage,
        sample_cosines,
        sample_nmse,
        spread_histogram,
    )
    from .utils import row_blocks, side_by_side

    batch_dir, reference = args.batch, args.reference
    batch, meta = open_batch(batch_dir)
    grid_doc = meta.get("grid")
    grid = grid_from_json(grid_doc) if grid_doc else None
    angle_grid = grid if isinstance(grid, AngleGrid) else None  # angular spreads need one
    ref_sparse, ref_channels, ref_meta = (
        (None, None, {}) if reference is None else _open_reference(reference)
    )
    # coefficients compare only on one grid, channels only for one system
    if ref_sparse is not None and ref_meta.get("grid") != grid_doc:
        raise InvalidArgumentError(f"{reference} was not drawn on the grid of {batch_dir}")
    for path, sparse in ((batch_dir, batch.sparse), (reference, ref_sparse)):
        if sparse is not None and len(sparse) == 0:
            raise InvalidArgumentError(f"{path} holds no samples to score")
        if grid is not None and sparse is not None and sparse.shape[1] != grid.size:
            raise InvalidArgumentError(f"{path}: sparse does not hold one column per grid point")
    misaligned = _channel_mismatch(
        batch_dir, batch.channels, meta, reference, ref_channels, ref_meta
    )
    if args.channel_metrics and misaligned:
        raise InvalidArgumentError(f"channel metrics need aligned channels: {misaligned}")
    with output_directory(args.out, "report.json", reads=[batch_dir, reference]) as out_dir:
        ref_profile = None
        if ref_sparse is None:
            profile, skipped, spreads = power_angular_profile(batch.sparse, angle_grid)
        else:  # the reference's profile on a helper thread meanwhile
            (profile, skipped, spreads), (ref_profile, _, ref_spreads) = side_by_side(
                lambda: power_angular_profile(batch.sparse, angle_grid),
                lambda: power_angular_profile(ref_sparse, angle_grid),
            )
        report: dict = {"n_samples": len(batch.sparse), "n_skipped_zero_norm": skipped}

        indices = range(len(profile))
        if angle_grid is not None:
            rows = zip(indices, angle_grid.points.tolist(), profile.tolist())
            _write_csv(out_dir / "profile.csv", "grid_index,angle_rad,mass", rows)
            hist = spread_histogram(spreads)
            edges = SPREAD_HIST_EDGES.tolist()
            rows = zip(edges[:-1], edges[1:], hist.tolist())
            _write_csv(out_dir / "spread_hist.csv", "bin_lo,bin_hi,mass", rows)
            report["mean_angular_spread"] = float(np.mean(spreads))
        else:
            _write_csv(out_dir / "profile.csv", "grid_index,mass", zip(indices, profile.tolist()))

        if ref_profile is not None:
            report["leakage_vs_reference_support"] = profile_support_leakage(
                profile, ref_profile > 1e-12
            )
            if angle_grid is not None:
                report["spread_w1_vs_reference"] = histogram_w1(hist, spread_histogram(ref_spreads))
        else:
            report["leakage_vs_own_support"] = profile_support_leakage(profile, profile > 1e-12)

        # the spreads are reduced; free them before the channel pass adds two (n,) vectors
        spreads = ref_spreads = None
        if not misaligned:
            n = len(batch.channels)
            errors, cosines = np.empty(n), np.empty(n)

            def score(blocks):
                for rows in blocks:
                    estimates, truths = batch.channels[rows], ref_channels[rows]
                    errors[rows] = sample_nmse(estimates, truths)
                    cosines[rows] = sample_cosines(estimates, truths)

            # the first half of the blocks here, the second on a helper thread;
            # each writes only its own rows of errors and cosines
            blocks = row_blocks(n, batch.channels.shape[1])
            half = (len(blocks) + 1) // 2
            side_by_side(lambda: score(blocks[:half]), lambda: score(blocks[half:]))
            report["nmse"] = float(np.mean(errors))
            report["cosine_similarity"] = float(np.mean(cosines))
        write_json(out_dir / "report.json", report)
    print(f"metrics: wrote report to {Path(args.out)}")
    return EXIT_OK


# the selfcheck's inputs and stages, "{0}" standing for the run directory
_SELFCHECK_INPUTS = {
    "synth.json": {"scenario": "simo", "n_train": 30, "snr_range_db": [0.0, 20.0],
                   "system": {"variant": "simo", "n_antennas": 6}, "grid_size": 16,
                   "laplacian_std_deg": 2.0},
    "em.json": {"max_iters": 8},
    "swap.json": {"variant": "simo", "n_antennas": 9},
}
_SELFCHECK_STAGES = (
    "synth --config {0}/synth.json --seed 1 --out {0}/data",
    "fit {0}/data --K 2 --config {0}/em.json --seed 2 --out {0}/model",
    "generate {0}/model -n 40 --seed 3 --render --out {0}/trained",
    "generate {0}/model -n 40 --seed 3 --render --swap-config {0}/swap.json --out {0}/swapped",
    "metrics {0}/swapped {0}/trained --out {0}/report",
)


def _expect(condition, message: str) -> None:
    """A selfcheck check: AssertionError with ``message`` unless ``condition``
    holds. Unlike ``assert``, it still checks under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def _selfcheck_run(root: Path) -> None:
    """Run the selfcheck's stages in a new ``root``; AssertionError if one exits non-zero."""
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    from .container import write_json

    root.mkdir()
    for name, document in _SELFCHECK_INPUTS.items():
        write_json(root / name, document)
    for stage in _SELFCHECK_STAGES:
        argv = [word.format(root) for word in stage.split()]
        args = build_parser().parse_args(argv)  # not main, which would redo the thread cap
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = args.run(args)  # an error goes on to the [FAIL] line
        _expect(code == EXIT_OK, f"{root.name} {argv[0]} {Path(argv[-1]).name} exited {code}")


def cmd_selfcheck(args: argparse.Namespace) -> int:
    import tempfile

    import numpy as np

    from .container import read_json
    from .dictionary import load_dictionary
    from .em import load_model
    from .generation import conditional_covariance, open_batch
    from .metrics import toeplitz_deviation

    with tempfile.TemporaryDirectory(prefix="chansbgm-selfcheck-") as tmp:
        first, second = Path(tmp, "run1"), Path(tmp, "run2")

        def stages_exit_0():
            _selfcheck_run(first)
            _selfcheck_run(second)

        def monotone_trace():
            _expect(read_json(first / "model" / "fit.json")["monotone"], "the trace fell")

        def swap_keeps_coefficients():
            batches = (first / "trained", first / "swapped")
            sparse = [(batch / "sparse.bin").read_bytes() for batch in batches]
            _expect(sparse[0] == sparse[1], "the swapped batch holds other coefficients")
            columns = [open_batch(batch)[0].channels.shape[1] for batch in batches]
            _expect(columns == [6, 9], f"channels of {columns} columns, not [6, 9]")

        def swapped_covariance_toeplitz():
            model, meta = load_model(first / "model")
            dictionary = load_dictionary(meta["grid"], _SELFCHECK_INPUTS["swap.json"])
            for k in range(model.n_components):
                cov = conditional_covariance(model, k, dictionary)
                _expect(toeplitz_deviation(cov) < 1e-9 * np.abs(cov).max(), f"component {k}")

        def rerun_byte_identical():
            written = [{p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()}
                       for run in (first, second)]
            _expect(written[0] == written[1], "the second run wrote other bytes")

        failures = 0
        for check in (stages_exit_0, monotone_trace, swap_keeps_coefficients,
                      swapped_covariance_toeplitz, rerun_byte_identical):
            name = check.__name__.replace("_", "-")
            try:
                check()
            except Exception as exc:  # report every failure, keep going
                failures += 1
                print(f"[FAIL] {name}: {type(exc).__name__}: {exc}")
            else:
                print(f"[PASS] {name}")
    return EXIT_OK if failures == 0 else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chansbgm",
        description="Learn and generate wireless channel parameter distributions.",
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="linear-algebra threads (default 1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a training dataset")
    p_synth.add_argument("--config", required=True, help="scenario config JSON")
    p_synth.add_argument("--seed", type=_seed, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(run=cmd_synth)

    p_fit = sub.add_parser("fit", help="fit a mixture model to a dataset")
    p_fit.add_argument("dataset", help="dataset directory from synth")
    p_fit.add_argument("--model", choices=["csgmm", "msbl"], default="csgmm")
    p_fit.add_argument("--K", type=int, default=None, help="component count")
    p_fit.add_argument(
        "--variance-form", choices=["full", "kronecker"], default="full"
    )
    p_fit.add_argument("--config", default=None, help="EM options JSON")
    p_fit.add_argument("--seed", type=_seed, default=0)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(run=cmd_fit)

    p_gen = sub.add_parser("generate", help="sample parameters (and channels)")
    p_gen.add_argument("model", help="model directory from fit")
    p_gen.add_argument("-n", "--n", type=int, required=True, help="sample count")
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--p-max", type=int, default=None, help="path-count cap")
    p_gen.add_argument("--render", action="store_true", help="also compute channels")
    p_gen.add_argument(
        "--swap-config", default=None, help="system config JSON for rendering"
    )
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(run=cmd_generate)

    p_met = sub.add_parser("metrics", help="evaluate a generated batch")
    p_met.add_argument("batch", help="batch directory from generate")
    p_met.add_argument("reference", nargs="?", default=None, help="reference batch or dataset")
    p_met.add_argument(
        "--channel-metrics", action="store_true", help="require nmse/cosine against the reference"
    )
    p_met.add_argument("--out", required=True)
    p_met.set_defaults(run=cmd_metrics)

    p_check = sub.add_parser("selfcheck", help="run a small pipeline twice and check it")
    p_check.set_defaults(run=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_threads(args.threads)
        return args.run(args)
    except (OSError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
