"""Each output check passes on the program's artifacts and fails on a
deliberately corrupted copy.

Run from the repository root::

    python3 -m pytest -q benchmarks/test_checks.py

The artifacts come from the program at a small scale (in-process CLI
calls), except the street-canyon batches of check (f), which are drawn
here from known variance profiles so that both the passing and the
failing case are certain.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from chansbgm.cli import main  # noqa: E402

SIMO_GRID = {"kind": "angle", "size": 32}
ULA_12 = {"variant": "simo", "n_antennas": 12}
OFDM_GRID = {"kind": "delay_doppler", "doppler_size": 8, "delay_size": 6,
             "doppler_bound": 250.0, "delay_bound": 6e-6}
OFDM_TRAIN = {"variant": "ofdm", "n_subcarriers": 6, "n_symbols": 4,
              "subcarrier_spacing": 15e3, "symbol_duration": 1e-3 / 14}
OFDM_SWAP = {"variant": "ofdm", "n_subcarriers": 5, "n_symbols": 7,
             "subcarrier_spacing": 60e3, "symbol_duration": 1e-3 / 3.5}


def _cli(*args: str) -> None:
    assert main(["--threads", "1", *args]) == 0


def _json(path: Path, document: dict) -> Path:
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("artifacts")
    simo = _json(root / "simo.json", {
        "scenario": "simo", "n_train": 60, "snr_range_db": [0.0, 20.0],
        "system": {"variant": "simo", "n_antennas": 8}, "grid_size": 32,
        "quadrature_points": 256,
    })
    ofdm = _json(root / "ofdm.json", {
        "scenario": "ofdm", "n_train": 40, "snr_range_db": [5.0, 20.0],
        "system": OFDM_TRAIN, "doppler_size": 8, "delay_size": 6,
        "doppler_bound_hz": 250.0, "delay_bound_s": 6e-6, "n_pilots": 10,
    })
    converge = _json(root / "converge.json", {"max_iters": 500, "rel_tol": 1e-3})
    capped = _json(root / "capped.json", {"max_iters": 5, "rel_tol": 1e-12})
    ula = _json(root / "ula.json", ULA_12)
    swap = _json(root / "swap.json", OFDM_SWAP)

    _cli("synth", "--config", str(simo), "--seed", "3", "--out", str(root / "simo_data"))
    _cli("fit", str(root / "simo_data"), "--K", "2", "--seed", "1", "--config", str(converge),
         "--out", str(root / "converged"))
    _cli("fit", str(root / "simo_data"), "--K", "2", "--seed", "1", "--config", str(capped),
         "--out", str(root / "capped_fit"))
    generate = ["generate", str(root / "converged"), "-n", "300", "--seed", "5", "--render",
                "--swap-config", str(ula)]
    _cli(*generate, "--p-max", "3", "--out", str(root / "capped"))
    _cli(*generate, "--out", str(root / "uncapped"))
    _cli("metrics", str(root / "capped"), str(root / "uncapped"), "--channel-metrics",
         "--out", str(root / "report"))

    _cli("synth", "--config", str(ofdm), "--seed", "4", "--out", str(root / "ofdm_data"))
    _cli("fit", str(root / "ofdm_data"), "--K", "2", "--variance-form", "kronecker",
         "--seed", "2", "--config", str(capped), "--out", str(root / "kron"))
    generate = ["generate", str(root / "kron"), "-n", "50", "--seed", "6", "--render"]
    _cli(*generate, "--out", str(root / "train"))
    _cli(*generate, "--swap-config", str(swap), "--out", str(root / "swapped"))
    return root


@pytest.fixture()
def work(artifacts, tmp_path) -> Path:
    """A private copy of the artifacts that a test may corrupt."""
    copy = tmp_path / "copy"
    shutil.copytree(artifacts, copy)
    return copy


def _edit_array(stem: Path, edit) -> None:
    """Apply ``edit`` to a writable copy of an array and store it back."""
    array = np.array(checks.read_array(stem))
    edit(array)
    stem.with_suffix(".bin").write_bytes(array.tobytes())


def _edit_json(path: Path, edit) -> None:
    document = json.loads(path.read_text(encoding="utf-8"))
    edit(document)
    path.write_text(json.dumps(document), encoding="utf-8")


# (a) ----------------------------------------------------------------------


def test_log_likelihood_passes(work):
    checks.check_log_likelihood(work / "simo_data", work / "converged")
    checks.check_log_likelihood(work / "simo_data", work / "capped_fit")
    checks.check_log_likelihood(work / "ofdm_data", work / "kron")


def test_log_likelihood_fails_on_altered_variances(work):
    def widen(variances):
        variances[0, 5] *= 1.5

    _edit_array(work / "converged" / "variances", widen)
    with pytest.raises(CheckError):
        checks.check_log_likelihood(work / "simo_data", work / "converged")


def test_log_likelihood_fails_on_altered_report(work):
    def shift(fit):
        fit["final_log_likelihood"] += 1e-6 * abs(fit["final_log_likelihood"])

    _edit_json(work / "converged" / "fit.json", shift)
    with pytest.raises(CheckError):
        checks.check_log_likelihood(work / "simo_data", work / "converged")


def test_log_likelihood_fails_when_capped_model_scores_lower(work):
    saved = checks.dense_log_likelihood(work / "ofdm_data", work / "kron")

    def overstate(fit):
        fit["final_log_likelihood"] = saved + 1e-6 * abs(saved)

    _edit_json(work / "kron" / "fit.json", overstate)
    with pytest.raises(CheckError):
        checks.check_log_likelihood(work / "ofdm_data", work / "kron")


# (b) ----------------------------------------------------------------------


def test_rendered_passes(work):
    checks.check_rendered(work / "capped", SIMO_GRID, ULA_12)
    checks.check_rendered(work / "uncapped", SIMO_GRID, ULA_12)
    checks.check_rendered(work / "train", OFDM_GRID, OFDM_TRAIN)
    checks.check_rendered(work / "swapped", OFDM_GRID, OFDM_SWAP)


def test_rendered_fails_on_altered_channel(work):
    def nudge(channels):
        channels[7, 3] += 1e-6 * abs(channels[7, 3])

    _edit_array(work / "swapped" / "channels", nudge)
    with pytest.raises(CheckError):
        checks.check_rendered(work / "swapped", OFDM_GRID, OFDM_SWAP)


def test_rendered_fails_under_the_wrong_system(work):
    with pytest.raises(CheckError):
        checks.check_rendered(work / "train", OFDM_GRID, dict(OFDM_TRAIN, subcarrier_spacing=30e3))


# (c) ----------------------------------------------------------------------


def test_same_coefficients_passes(work):
    checks.check_same_coefficients(work / "train", work / "swapped")


def test_same_coefficients_fails_on_altered_coefficient(work):
    def flip(sparse):
        sparse[0, 0] = -sparse[0, 0]

    _edit_array(work / "swapped" / "sparse", flip)
    with pytest.raises(CheckError):
        checks.check_same_coefficients(work / "train", work / "swapped")


# (d) ----------------------------------------------------------------------


def test_path_cap_passes(work):
    checks.check_path_cap(work / "capped", work / "uncapped", 3)


def _capped_and_uncapped(work: Path) -> tuple[np.ndarray, np.ndarray]:
    capped = np.array(checks.read_array(work / "capped" / "sparse"))
    return capped, np.array(checks.read_array(work / "uncapped" / "sparse"))


def _store_capped(work: Path, capped: np.ndarray) -> None:
    (work / "capped" / "sparse.bin").write_bytes(capped.tobytes())


def test_path_cap_fails_on_lost_path(work):
    capped, _ = _capped_and_uncapped(work)
    capped[2, np.flatnonzero(capped[2])[0]] = 0.0
    _store_capped(work, capped)
    with pytest.raises(CheckError, match="exactly 3"):
        checks.check_path_cap(work / "capped", work / "uncapped", 3)


def test_path_cap_fails_on_scaled_path(work):
    capped, _ = _capped_and_uncapped(work)
    capped[9, np.flatnonzero(capped[9])[1]] *= 2.0
    _store_capped(work, capped)
    with pytest.raises(CheckError, match="altered"):
        checks.check_path_cap(work / "capped", work / "uncapped", 3)


def test_path_cap_fails_when_a_weaker_path_is_kept(work):
    capped, uncapped = _capped_and_uncapped(work)
    kept = np.flatnonzero(capped[4])
    dropped = np.flatnonzero(capped[4] == 0)
    capped[4, kept[0]] = 0.0
    capped[4, dropped[0]] = uncapped[4, dropped[0]]
    _store_capped(work, capped)
    with pytest.raises(CheckError, match="outweighs"):
        checks.check_path_cap(work / "capped", work / "uncapped", 3)


# (e) ----------------------------------------------------------------------


def test_channel_report_passes(work):
    checks.check_channel_report(work / "capped", work / "uncapped", work / "report")


@pytest.mark.parametrize("key", ["nmse", "cosine_similarity"])
def test_channel_report_fails_on_altered_value(work, key):
    def shift(report):
        report[key] *= 1 + 1e-7

    _edit_json(work / "report" / "report.json", shift)
    with pytest.raises(CheckError):
        checks.check_channel_report(work / "capped", work / "uncapped", work / "report")


# (f) ----------------------------------------------------------------------


def _street_canyon_batches(root: Path, csgmm_variances: np.ndarray) -> list[Path]:
    """Batches drawn from known per-sample variances (M-SBL's flat), with
    the program's metrics reports on them."""
    from chansbgm.generation import GeneratedBatch, save_batch

    rng = np.random.default_rng(0)
    n, size = csgmm_variances.shape
    grid = {"kind": "angle", "size": size}
    for name, variances in (("csgmm", csgmm_variances), ("msbl", np.ones((n, size)))):
        draws = rng.standard_normal((n, size, 2)) @ np.array([1.0, 1j])
        batch = GeneratedBatch(sparse=draws * np.sqrt(variances), labels=np.zeros(n, int))
        save_batch(batch, root / f"{name}_batch", extra_meta={"grid": grid})
        _cli("metrics", str(root / f"{name}_batch"), "--out", str(root / f"{name}_report"))
    return [root / "csgmm_batch", root / "msbl_batch", root / "csgmm_report", root / "msbl_report"]


def _one_path_each(centres_deg, n: int = 400, size: int = 128) -> np.ndarray:
    """Per-sample variances with one strong grid point at one of the centres."""
    angles = np.degrees(checks.angle_grid(size))
    points = [int(np.argmin(np.abs(angles - c))) for c in centres_deg]
    variances = np.full((n, size), 1e-9)
    variances[np.arange(n), np.resize(points, n)] = 1.0
    return variances


def test_street_canyon_passes(tmp_path):
    variances = _one_path_each(checks.STREET_CANYON_CENTRES_DEG)
    checks.check_street_canyon(*_street_canyon_batches(tmp_path, variances))


def test_street_canyon_fails_on_leaking_profile(tmp_path):
    variances = _one_path_each((-60.0, -20.0, 20.0, 0.0))
    with pytest.raises(CheckError, match="outside"):
        checks.check_street_canyon(*_street_canyon_batches(tmp_path, variances))


def test_street_canyon_fails_on_wide_spread(tmp_path):
    angles = np.degrees(checks.angle_grid(128))
    inside = np.zeros(128, dtype=bool)
    for centre in checks.STREET_CANYON_CENTRES_DEG:
        inside |= np.abs(angles - centre) <= checks.STREET_CANYON_HALF_WIDTH_DEG
    variances = np.tile(np.where(inside, 1.0, 1e-9), (400, 1))
    with pytest.raises(CheckError, match="spread"):
        checks.check_street_canyon(*_street_canyon_batches(tmp_path, variances))


def test_street_canyon_fails_on_altered_report(tmp_path):
    batches = _street_canyon_batches(tmp_path, _one_path_each(checks.STREET_CANYON_CENTRES_DEG))

    def shift(report):
        report["mean_angular_spread"] *= 1 + 1e-6

    _edit_json(batches[2] / "report.json", shift)
    with pytest.raises(CheckError, match="mean_angular_spread"):
        checks.check_street_canyon(*batches)


# reruns -------------------------------------------------------------------


def test_identical_trees(work, tmp_path):
    twin = tmp_path / "twin"
    shutil.copytree(work / "train", twin)
    checks.check_identical_trees(work / "train", twin)
    _edit_json(twin / "batch.json", lambda meta: meta.update(seed=math.pi))
    with pytest.raises(CheckError):
        checks.check_identical_trees(work / "train", twin)
