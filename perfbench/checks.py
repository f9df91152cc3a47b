"""Correctness checks on leakmap command outputs.

Every check reads the files a command wrote and compares them with a path
that does not run the code the benchmark times: the scalar single-orbit
routines of `leakmap.standard_map`, a propagator and projector built here
from their defining formulas, LAPACK's general eigensolver, and
brute-force coherent-state overlaps.  Each function returns a list of
problems; an empty list means the output passed.

Values that depend on LAPACK's choice of Schur basis (per-state s_w,
pearson_lambda_SW) are not checked: they differ between machines.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg

from leakmap.standard_map import Leak, MapParams, evolve_open, ftle
from leakmap.tomography import coherent_state

# Cells sampled per field for the scalar-orbit comparisons.
SAMPLED_CELLS = 64

# The scalar and vectorized orbits run the same float operations in the
# same order, so the closed-map FTLE agrees to a few ulp.
FTLE_RTOL = 1e-12

# Resonances at or below this modulus are not compared one by one.
MODULUS_FLOOR = 1e-6

# Backward error of a dense eigensolver is about N * eps * |M| (|M| <= 1
# here); two solvers each add one, so an eigenvalue with condition number
# kappa may move by 2 N eps kappa.  Measured differences stay below a
# twentieth of this at N = 512.
EIG_BACKWARD_FACTOR = 2.0

# Brute-force overlaps agree with the FFT Husimi transform to ~1e-14 of
# the field maximum at N = 512 on a 500^2 grid.
HUSIMI_RTOL = 1e-9


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(outdir: Path):
    """(manifest or None, problems): every listed output exists with the
    recorded size and sha256, and nothing unlisted sits beside it."""
    mpath = outdir / "manifest.json"
    try:
        manifest = json.loads(mpath.read_text())
    except (OSError, ValueError) as exc:
        return None, [f"manifest unreadable: {exc}"]
    problems = []
    listed = set()
    for entry in manifest.get("outputs", []):
        p = outdir / entry["path"]
        listed.add(entry["path"])
        if not p.is_file():
            problems.append(f"{entry['path']}: listed but missing")
        elif p.stat().st_size != entry["bytes"]:
            problems.append(f"{entry['path']}: size {p.stat().st_size} != manifest {entry['bytes']}")
        elif sha256_file(p) != entry["sha256"]:
            problems.append(f"{entry['path']}: sha256 differs from manifest")
    on_disk = {str(p.relative_to(outdir)) for p in outdir.rglob("*") if p.is_file() and p.name != "manifest.json"}
    if on_disk != listed:
        problems.append(f"files on disk {sorted(on_disk ^ listed)} disagree with the manifest")
    return manifest, problems


def digest(manifest: dict) -> list:
    """(path, sha256) of every output: equal digests mean identical bytes."""
    return sorted((e["path"], e["sha256"]) for e in manifest["outputs"])


def read_lcf(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic = raw[:4]
    n_q, n_p, code = struct.unpack("<III", raw[4:16])
    if magic != b"LCF1" or code != 1 or len(raw) != 16 + 8 * n_q * n_p:
        raise ValueError(f"{path}: malformed LCF1 file")
    return np.frombuffer(raw[16:], dtype="<f8").reshape(n_q, n_p)


def read_csv(path: Path) -> dict:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).reshape(-1, len(header))
    return {name: rows[:, i] for i, name in enumerate(header)}


def _sample_cells(shape, rng):
    return [(int(i), int(j)) for i, j in zip(rng.integers(0, shape[0], SAMPLED_CELLS), rng.integers(0, shape[1], SAMPLED_CELLS))]


def _cell_center(i, j, shape):
    return (i + 0.5) / shape[0], (j + 0.5) / shape[1]


def check_open_classical(outdir: Path, cfg: dict, rng) -> list:
    """tau and dwell-FTLE at sampled cells match the scalar `evolve_open`
    exactly (tau) and to FTLE_RTOL; the survival curve is non-increasing."""
    problems = []
    tau = read_lcf(outdir / "dwell_time_field.lcf")
    lam = read_lcf(outdir / "dwell_ftle_field.lcf")
    leak = Leak(cfg["leak_center"], cfg["leak_width"])
    params = MapParams(cfg["k"])
    for i, j in _sample_cells(tau.shape, rng):
        rec = evolve_open(_cell_center(i, j, tau.shape), leak, cfg["t_max"], params)
        if rec.tau != tau[i, j]:
            problems.append(f"tau[{i},{j}] = {tau[i, j]}, scalar orbit gives {rec.tau}")
        elif rec.tau > 0 and not math.isclose(lam[i, j], rec.ftle, rel_tol=FTLE_RTOL):
            problems.append(f"dwell FTLE[{i},{j}] = {lam[i, j]!r}, scalar orbit gives {rec.ftle!r}")
    p = read_csv(outdir / "survival.csv")["P"]
    if np.any(np.diff(p) > 0.0):
        problems.append("survival curve increases")
    return problems


def check_ftle_field(outdir: Path, cfg: dict, rng) -> list:
    """Closed-map FTLE at sampled cells matches the scalar `ftle`."""
    field = read_lcf(outdir / "ftle_field.lcf")
    params = MapParams(cfg["k"])
    problems = []
    for i, j in _sample_cells(field.shape, rng):
        ref = ftle(_cell_center(i, j, field.shape), cfg["ftle_steps"], params)
        if not math.isclose(field[i, j], ref, rel_tol=FTLE_RTOL):
            problems.append(f"FTLE[{i},{j}] = {field[i, j]!r}, scalar orbit gives {ref!r}")
    return problems


def open_propagator(N: int, K: float, center: float, width: float) -> np.ndarray:
    """The opened one-kick propagator, from its defining formula:
    U[k, k'] = N^-1/2 exp[i pi (k - k')^2 / N + i (N K / 2 pi) cos(2 pi k'/N)],
    with the rows of sites k/N inside the half-open leak strip zeroed
    (membership decided in exact rationals)."""
    k = np.arange(1, N + 1)
    phase = np.pi * (k[:, None] - k[None, :]) ** 2 / N + (N * K / (2 * np.pi)) * np.cos(2 * np.pi * k / N)[None, :]
    u = np.exp(1j * phase) / math.sqrt(N)
    c, w = Fraction(repr(center)), Fraction(repr(width))
    lo = (c - w / 2) % 1
    absorbed = [(Fraction(s, N) - lo) % 1 < w for s in range(1, N + 1)]
    u[np.array(absorbed), :] = 0.0
    return u


def check_quantum(outdir: Path, cfg: dict, rng) -> list:
    """Resonances against LAPACK's general eigensolver, the mean Husimi
    field against brute-force overlaps, and s_w in [0, 1]."""
    problems = []
    N = cfg["dim"]
    m = open_propagator(N, cfg["k"], cfg["leak_center"], cfg["leak_width"])
    w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    order = np.argsort(-np.abs(w), kind="stable")
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    kappa = 1.0 / np.abs(np.sum(vl.conj() * vr, axis=0))  # columns have unit norm

    spec = read_csv(outdir / "spectrum.csv")
    got = np.abs(spec["re_z"] + 1j * spec["im_z"])
    if got.size != N:
        problems.append(f"spectrum has {got.size} rows, expected {N}")
        return problems
    ref = np.abs(w)
    n = int((ref > MODULUS_FLOOR).sum())
    tol = EIG_BACKWARD_FACTOR * N * np.finfo(float).eps * kappa[:n]
    bad = np.nonzero(np.abs(got[:n] - ref[:n]) > tol)[0]
    if bad.size:
        b = int(bad[0])
        problems.append(f"{bad.size} of {n} moduli above {MODULUS_FLOOR:g} disagree with eigvals; first |z|_{b} = {got[b]!r} vs {ref[b]!r}")

    # The mean of m mass-normalized fields over an orthonormal basis of the
    # leading invariant subspace is (N / (M m)) * sum_j |<alpha|q_j>|^2 for
    # any such basis, because a coherent-state grid this fine resolves the
    # identity: sum over cells of |<alpha|v>|^2 = (M / N) |v|^2.
    mean = read_lcf(outdir / "mean_husimi.lcf")
    top = cfg["top_states"]
    basis, _ = np.linalg.qr(vr[:, :top])
    if not math.isclose(mean.sum(), 1.0, rel_tol=1e-12):
        problems.append(f"mean Husimi mass {mean.sum()!r} != 1")
    scale = N / (mean.size * top)
    for i, j in _sample_cells(mean.shape, rng):
        alpha = coherent_state(_cell_center(i, j, mean.shape), N)
        ref_ij = scale * float(np.sum(np.abs(alpha.conj() @ basis) ** 2))
        if abs(ref_ij - mean[i, j]) > HUSIMI_RTOL * mean.max():
            problems.append(f"mean Husimi[{i},{j}] = {mean[i, j]!r}, brute force gives {ref_ij!r}")
            break

    s_w = read_csv(outdir / "wehrl_scatter.csv")["s_w"]
    if s_w.size != N or np.any((s_w < 0.0) | (s_w > 1.0)):
        problems.append("s_w outside [0, 1] or wrong state count")
    return problems


def check_scan(outdir: Path, cfg: dict, rng) -> list:
    """mean_tau at one scan position equals a direct escape-ensemble mean."""
    from leakmap.ensemble import PhaseSpaceGrid, escape_ensemble

    scan = read_csv(outdir / "scan.csv")
    if scan["q_L"].size != cfg["scan_positions"]:
        return [f"scan has {scan['q_L'].size} rows, expected {cfg['scan_positions']}"]
    i = int(rng.integers(scan["q_L"].size))
    ens = escape_ensemble(
        PhaseSpaceGrid(cfg["grid_q"], cfg["grid_p"]),
        Leak(float(scan["q_L"][i]), cfg["leak_width"]),
        cfg["t_max"],
        MapParams(cfg["k"]),
    )
    tau = ens.tau[ens.tau >= 1].astype(float)
    if not math.isclose(scan["mean_tau"][i], tau.mean(), rel_tol=1e-12):
        return [f"mean_tau at q_L={scan['q_L'][i]!r} is {scan['mean_tau'][i]!r}, direct ensemble gives {tau.mean()!r}"]
    return []


CHECKS = {
    "open-classical": check_open_classical,
    "ftle-field": check_ftle_field,
    "quantum": check_quantum,
    "scan": check_scan,
}
