"""Output checks computed apart from the program.

Every check reads the artifacts the pipeline stages wrote with its own
reader, recomputes the quantity from the formulas the method is defined
by, and raises :class:`CheckError` when the artifact disagrees. Nothing
here imports ``chansbgm``.

Large batches (100 k rows) are read as memory maps and processed in row
chunks, so the checks stay small beside the stage processes they verify.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

_DTYPES = {"c128": np.dtype("<c16"), "f64": np.dtype("<f8")}
_CHUNK = 10_000

# agreement asked of a recomputed quantity, relative to its size
REL_TOL = 1e-9
# street-canyon regions: centres in degrees and the half-width of each
STREET_CANYON_CENTRES_DEG = (-60.0, -20.0, 20.0, 60.0)
STREET_CANYON_HALF_WIDTH_DEG = 15.0
# largest CSGMM profile mass outside the regions, and largest CSGMM over
# M-SBL mean-spread ratio
MAX_LEAKAGE = 0.05
MAX_SPREAD_RATIO = 0.25


class CheckError(Exception):
    """An artifact disagrees with the benchmark's own computation."""


def read_array(stem: Path) -> np.ndarray:
    """Read a ``<stem>.json`` + ``<stem>.bin`` pair as a read-only memory map."""
    stem = Path(stem)
    sidecar = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    dtype = _DTYPES[sidecar["dtype"]]
    shape = tuple(int(n) for n in sidecar["shape"])
    payload = stem.with_suffix(".bin")
    expected = math.prod(shape) * dtype.itemsize
    if payload.stat().st_size != expected:
        raise CheckError(f"{payload} has {payload.stat().st_size} bytes, expected {expected}")
    if expected == 0:
        return np.zeros(shape, dtype=dtype)
    return np.memmap(payload, dtype=dtype, mode="r", shape=shape)


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _rows(n: int):
    for start in range(0, n, _CHUNK):
        yield slice(start, min(start + _CHUNK, n))


# ---------------------------------------------------------------------------
# steering-vector dictionaries, from the formulas rather than the program


def angle_grid(size: int) -> np.ndarray:
    """Grid angles g*pi/size for g = -size/2 .. size/2 - 1 (radians)."""
    return np.arange(-size // 2, size // 2) * (math.pi / size)


def dictionary_matrix(grid: dict, system: dict) -> np.ndarray:
    """Steering-vector dictionary for a grid document and a system document.

    SIMO: entry (i, g) is exp(-j pi i sin(theta_g)) for a half-wavelength
    ULA. OFDM: the channel is vectorized with the subcarrier index fastest
    and the coefficient index is q * S_f + p, so entry (l * N_f + k,
    q * S_f + p) is exp(j 2 pi (nu_q l dT - tau_p k df)), evaluated as one
    exponential of the combined phase.
    """
    if grid["kind"] == "angle":
        antennas = np.arange(system["n_antennas"])[:, None]
        return np.exp(-1j * math.pi * antennas * np.sin(angle_grid(grid["size"]))[None, :])
    s_t, s_f = grid["doppler_size"], grid["delay_size"]
    doppler = np.arange(-s_t // 2, s_t // 2) * (2.0 * grid["doppler_bound"] / s_t)
    delay = np.arange(s_f) * (grid["delay_bound"] / s_f)
    symbol = np.arange(system["n_symbols"])
    carrier = np.arange(system["n_subcarriers"])
    phase = (
        (doppler[None, None, :, None] * system["symbol_duration"]) * symbol[:, None, None, None]
        - (delay[None, None, None, :] * system["subcarrier_spacing"]) * carrier[None, :, None, None]
    )
    n_rows = len(symbol) * len(carrier)
    return np.exp(2j * math.pi * phase).reshape(n_rows, s_t * s_f)


# ---------------------------------------------------------------------------
# (a) the saved model's log-likelihood, recomputed densely per sample


def model_variances(model_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    """Mixture weights (K,) and expanded coefficient variances (K, S)."""
    model_dir = Path(model_dir)
    meta = read_json(model_dir / "model.json")
    weights = np.array(read_array(model_dir / "weights"))
    if meta["variance_form"] == "full":
        gammas = np.array(read_array(model_dir / "variances"))
    else:
        doppler = np.array(read_array(model_dir / "doppler_variances"))
        delay = np.array(read_array(model_dir / "delay_variances"))
        gammas = (doppler[:, :, None] * delay[:, None, :]).reshape(len(weights), -1)
    return weights, gammas


def dense_log_likelihood(dataset_dir: Path, model_dir: Path) -> float:
    """Sum over samples of log sum_k w_k CN(y_i; 0, W diag(gamma_k) W^H + s_i^2 I).

    W gathers the observed rows of the dictionary; each per-sample
    covariance is factorized on its own with ``slogdet`` and ``solve``.
    """
    dataset_dir = Path(dataset_dir)
    scenario = read_json(dataset_dir / "scenario.json")
    selection = np.array(read_array(dataset_dir / "selection"))
    samples = np.array(read_array(dataset_dir / "observations"))
    noise = np.array(read_array(dataset_dir / "noise_vars"))
    rows = np.argmax(selection, axis=1)
    w = dictionary_matrix(scenario["grid"], scenario["system"])[rows]
    weights, gammas = model_variances(model_dir)
    n, m = samples.shape
    eye = np.eye(m)
    log_terms = np.empty((n, len(weights)))
    for k, gamma in enumerate(gammas):
        base = (w * gamma[None, :]) @ w.conj().T
        cov = base[None, :, :] + noise[:, None, None] * eye[None, :, :]
        _, logdet = np.linalg.slogdet(cov)
        quad = np.einsum("ni,ni->n", samples.conj(), np.linalg.solve(cov, samples[:, :, None])[..., 0])
        log_w = math.log(weights[k]) if weights[k] > 0 else -math.inf
        log_terms[:, k] = log_w - m * math.log(math.pi) - logdet - quad.real
    top = log_terms.max(axis=1)
    return float(np.sum(top + np.log(np.sum(np.exp(log_terms - top[:, None]), axis=1))))


def check_log_likelihood(dataset_dir: Path, model_dir: Path) -> None:
    """(a) ``fit.json``'s final log-likelihood against the dense recomputation.

    A converged fit saves the model that log-likelihood was computed for,
    so the two must agree. A fit stopped at its iteration cap saves the
    model one M-step later, which EM can only have improved.
    """
    fit = read_json(Path(model_dir) / "fit.json")
    reported = float(fit["final_log_likelihood"])
    ours = dense_log_likelihood(dataset_dir, model_dir)
    slack = REL_TOL * abs(reported)
    if fit["converged"]:
        if abs(ours - reported) > slack:
            raise CheckError(
                f"{model_dir}: converged fit reports log-likelihood {reported!r}, "
                f"dense recomputation gives {ours!r}"
            )
    elif ours < reported - slack:
        raise CheckError(
            f"{model_dir}: capped fit reports {reported!r} but its saved model scores "
            f"lower, {ours!r}"
        )


# ---------------------------------------------------------------------------
# (b) rendered channels, (c) swap invariance, (d) path cap


def check_rendered(batch_dir: Path, grid: dict, system: dict) -> None:
    """(b) Channels equal ``sparse @ D^T`` for the dictionary of ``system``."""
    batch_dir = Path(batch_dir)
    sparse = read_array(batch_dir / "sparse")
    channels = read_array(batch_dir / "channels")
    d_t = dictionary_matrix(grid, system).T
    if channels.shape != (sparse.shape[0], d_t.shape[1]):
        raise CheckError(f"{batch_dir}: channels have shape {channels.shape}")
    worst = 0.0
    scale = 0.0
    for rows in _rows(len(sparse)):
        ours = np.asarray(sparse[rows]) @ d_t
        worst = max(worst, float(np.abs(np.asarray(channels[rows]) - ours).max()))
        scale = max(scale, float(np.abs(ours).max()))
    if not worst <= REL_TOL * scale:
        raise CheckError(f"{batch_dir}: rendered channels differ from sparse @ D^T by {worst:.3e}")


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


def check_same_coefficients(batch_a: Path, batch_b: Path) -> None:
    """(c) The coefficient payloads of two batches are byte-identical."""
    for name in ("sparse.bin", "labels.bin"):
        if file_digest(Path(batch_a) / name) != file_digest(Path(batch_b) / name):
            raise CheckError(f"{name} differs between {batch_a} and {batch_b}")


def check_path_cap(capped_dir: Path, full_dir: Path, p_max: int) -> None:
    """(d) Each capped row keeps exactly the ``p_max`` largest-magnitude
    entries of the uncapped row, unchanged, and zeroes the rest."""
    capped = read_array(Path(capped_dir) / "sparse")
    full = read_array(Path(full_dir) / "sparse")
    if capped.shape != full.shape:
        raise CheckError(f"capped shape {capped.shape} differs from {full.shape}")
    for rows in _rows(len(full)):
        c = np.asarray(capped[rows])
        u = np.asarray(full[rows])
        kept = c != 0
        if not np.all(kept.sum(axis=1) == p_max):
            raise CheckError(f"rows {rows.start}..{rows.stop} do not keep exactly {p_max} entries")
        if not np.array_equal(c[kept], u[kept]):
            raise CheckError(f"rows {rows.start}..{rows.stop}: kept entries were altered")
        power = np.abs(u) ** 2
        least_kept = np.where(kept, power, np.inf).min(axis=1)
        most_dropped = np.where(kept, -np.inf, power).max(axis=1)
        if np.any(most_dropped > least_kept):
            raise CheckError(f"rows {rows.start}..{rows.stop}: a dropped entry outweighs a kept one")


# ---------------------------------------------------------------------------
# (e) channel metrics, (f) street-canyon profile and spreads


def check_channel_report(estimate_dir: Path, reference_dir: Path, report_dir: Path) -> None:
    """(e) ``report.json``'s nmse and cosine similarity against numpy's."""
    est = read_array(Path(estimate_dir) / "channels")
    ref = read_array(Path(reference_dir) / "channels")
    if est.shape != ref.shape:
        raise CheckError(f"channel shapes differ: {est.shape} and {ref.shape}")
    err = 0.0
    cosine = 0.0
    for rows in _rows(len(est)):
        a = np.asarray(est[rows])
        b = np.asarray(ref[rows])
        err += float(np.sum(np.abs(a - b) ** 2))
        inner = np.abs(np.sum(a.conj() * b, axis=1))
        cosine += float(np.sum(inner / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))))
    ours = {"nmse": err / est.shape[1] / len(est), "cosine_similarity": cosine / len(est)}
    report = read_json(Path(report_dir) / "report.json")
    for key, value in ours.items():
        if key not in report or not abs(report[key] - value) <= REL_TOL * abs(value):
            raise CheckError(f"report {key}={report.get(key)!r}, numpy gives {value!r}")


def profile_and_mean_spread(batch_dir: Path) -> tuple[np.ndarray, float]:
    """Mean normalized power per grid angle, and the mean power-weighted
    angular spread, of a batch's coefficient vectors."""
    sparse = read_array(Path(batch_dir) / "sparse")
    angles = angle_grid(sparse.shape[1])
    profile = np.zeros(sparse.shape[1])
    spread_sum = 0.0
    for rows in _rows(len(sparse)):
        power = np.abs(np.asarray(sparse[rows])) ** 2
        share = power / power.sum(axis=1, keepdims=True)
        profile += share.sum(axis=0)
        mean = share @ angles
        spread_sum += float(np.sum(np.sqrt(np.sum(share * (angles[None, :] - mean[:, None]) ** 2, axis=1))))
    return profile / len(sparse), spread_sum / len(sparse)


def check_street_canyon(
    csgmm_batch: Path, msbl_batch: Path, csgmm_report: Path, msbl_report: Path
) -> None:
    """(f) The CSGMM profile stays inside the four street-canyon regions,
    its mean spread stays far below M-SBL's, and each report's mean spread
    matches the benchmark's own."""
    profile, csgmm_spread = profile_and_mean_spread(csgmm_batch)
    angles = np.degrees(angle_grid(len(profile)))
    inside = np.zeros(len(profile), dtype=bool)
    for centre in STREET_CANYON_CENTRES_DEG:
        inside |= np.abs(angles - centre) <= STREET_CANYON_HALF_WIDTH_DEG + 1e-9
    leakage = float(profile[~inside].sum())
    if not leakage < MAX_LEAKAGE:
        raise CheckError(f"CSGMM profile mass outside the street-canyon regions is {leakage:.4f}")
    _, msbl_spread = profile_and_mean_spread(msbl_batch)
    if not csgmm_spread < MAX_SPREAD_RATIO * msbl_spread:
        raise CheckError(
            f"CSGMM mean spread {csgmm_spread:.4f} rad is not far below M-SBL's {msbl_spread:.4f}"
        )
    for report_dir, ours in ((csgmm_report, csgmm_spread), (msbl_report, msbl_spread)):
        reported = read_json(Path(report_dir) / "report.json").get("mean_angular_spread")
        if reported is None or not abs(reported - ours) <= REL_TOL * ours:
            raise CheckError(f"{report_dir}: mean_angular_spread {reported!r}, numpy gives {ours!r}")


# ---------------------------------------------------------------------------
# byte-identical reruns


def tree_digests(directory: Path) -> dict[str, str]:
    directory = Path(directory)
    return {
        str(path.relative_to(directory)): file_digest(path)
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def check_digests(expected: dict[str, str], directory: Path) -> None:
    """A directory holds exactly the files, with the bytes, of ``expected``."""
    found = tree_digests(directory)
    if found != expected:
        differing = sorted(k for k in found.keys() | expected.keys()
                           if found.get(k) != expected.get(k))
        raise CheckError(f"{directory} differs from the first run in {differing[:5]}")


def check_identical_trees(first: Path, second: Path) -> None:
    """Two runs of the same stage on the same inputs wrote the same bytes."""
    check_digests(tree_digests(first), second)
