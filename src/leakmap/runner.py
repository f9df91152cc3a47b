"""Experiment commands: compose the library into reproducible output trees.

Every command takes a validated ExperimentConfig and a worker request
(used by `scan` only), computes all of its results, and hands them
to `_Run.finish`, the one place that writes files.  `finish` checks that
the manifest's results are strict JSON before it writes anything, then
writes the artifacts into the configured output directory and a
manifest.json listing each file this run wrote with size and sha256; older
files in a reused directory stay unlisted.  So a command that fails leaves
no file of its own, and all CSV bytes are pure functions of the config: a
rerun into a fresh directory produces identical checksums.
`leak_scan` is the leak-position scan that `scan` writes as columns, with
their correlations and reliabilities; it alone computes the statistics of
a position.  Every command times its stages through `_Run.stage` and
builds each of its Husimi plans itself.

`scan` runs independent tasks: one orbit pass per group of adjacent
positions, which gives the group's classical columns (the orbits do not
depend on the leak), and one Schur spectrum with its entropies per
position.  Given `workers` > 1, `scan` maps them over fork-started worker
processes (never more than `worker_count` allows); one worker runs them in
this process.  `scan` builds what the tasks share (the checked unitary
and the Husimi plan) in its own stages before the pool starts and hands it
to `leak_scan`, whose tasks close over it, so the workers inherit it and
only task indices and results cross processes; each task builds its own
leaks and projector.
`quantum`, `ftle-field` and `open-classical` run in the calling thread at
any worker request and start no thread, so a later `scan` in the same
process forks from a process that runs no other thread.
Results are gathered in task order and every process runs BLAS on one
thread (the CLI pins it), so the output bytes do not depend on the worker
count.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import platform
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ExperimentConfig, serialize_config
from .ensemble import (
    PhaseSpaceGrid,
    _orbits,
    dwell_mask,
    escape_ensemble,
    exponential_tail_fit,
    ftle_field,
    ftle_histogram,
    mean_ftle_by_dwell,
    short_dwell_cutoff,
    strip_scan,
    survival_probability,
)
from .formats import sha256_file, write_csv, write_lcf, write_pgm
from .quantum import (
    QuantumParams,
    build_projector,
    build_unitary,
    open_propagator,
    resonance_spectrum,
    unitarity_defect,
)
from .standard_map import Leak, MapParams
from .tomography import (
    HusimiTransform,
    _coherent_entropy,
    bin_means,
    dwell_bins,
    entropy_grid,
    mean_husimi,
    state_entropies,
)

__all__ = ["cmd_ftle_field", "cmd_open_classical", "cmd_quantum", "cmd_scan", "leak_scan", "worker_count", "COMMANDS"]

# Propagators are checked against this before opening the system.
UNITARITY_TOL = 1e-12

# Busy-time keys of one scan position, in the order a position runs them.
SCAN_STAGES = ("classical", "quantum", "entropy")

# Most scan positions in one classical task: a group's per-cell results
# (int32 tau, float64 lambda, bool escaped; 13 B a cell and position) then
# take about what one position's escape ensemble took in its pass.
_GROUP_MAX = 8

# Statistics of one scan position, in the order its task returns them.
SCAN_COLUMNS = ("mean_tau", "se_tau", "mean_lambda", "se_lambda", "unescaped_fraction", "mean_T", "se_T", "mean_SW", "se_SW")


def _scan_positions(cfg: ExperimentConfig) -> np.ndarray:
    return np.arange(cfg.scan_positions) / cfg.scan_positions


def _mean_se(x: np.ndarray) -> tuple:
    """Mean of a sample and its standard error."""
    return x.mean(), x.std(ddof=1) / math.sqrt(x.size)


def _pearson(x, y) -> float | None:
    """Pearson's r of two scan columns; None (JSON null) where r is
    undefined: fewer than two positions, or a column that is non-finite or
    constant."""
    xy = np.array([x, y], dtype=float)
    if xy.shape[1] < 2 or not np.isfinite(xy).all() or (np.ptp(xy, axis=1) == 0.0).any():
        return None
    return float(np.corrcoef(xy)[0, 1])


def _reliability(mean: np.ndarray, se: np.ndarray) -> float | None:
    """A scan column's reliability, 1 - mean(se^2) / var(mean, ddof=1) over
    the positions where mean and se are finite; None (JSON null) for fewer
    than two such positions or a mean constant on them."""
    finite = np.isfinite(mean) & np.isfinite(se)
    if finite.sum() < 2 or np.ptp(mean[finite]) == 0.0:
        return None
    return float(1.0 - np.mean(se[finite] ** 2) / mean[finite].var(ddof=1))


def _checked_unitary(qp: QuantumParams) -> tuple:
    """The closed propagator and its unitarity defect; raises before the
    system is opened when the defect exceeds UNITARITY_TOL."""
    u = build_unitary(qp)
    defect = unitarity_defect(u)
    if defect > UNITARITY_TOL:
        where = f"N = {qp.N}, map.k = {qp.K:g}"
        raise RuntimeError(f"propagator failed unitarity at {where}: defect {defect:.3g} > {UNITARITY_TOL}")
    return u, defect


def _linalg_build() -> dict:
    """Name and version of the BLAS and LAPACK numpy was built against."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {lib: {key: deps.get(lib, {}).get(key) for key in ("name", "version")} for lib in ("blas", "lapack")}


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(requested: int | None, tasks: int) -> int:
    """Worker processes of a `scan` for `tasks` independent tasks:
    min(requested, tasks, CPUs this process may run on), at least 1.
    requested None means 1."""
    return max(1, min(requested or 1, tasks, _usable_cpus()))


# The task function of a worker process, set by the pool's initializer in
# each worker; the parent process never assigns it.
_task = None


def _install_task(fn):
    global _task
    _task = fn


def _run_task(i: int):
    return _task(i)


@contextlib.contextmanager
def _task_results(fn, n_tasks: int, workers: int):
    """Yield an iterator over fn(0), ..., fn(n_tasks - 1), in task order.

    One worker runs the tasks lazily in this process.  More start a pool of
    fork-started processes that inherit fn with everything it closes over,
    so fn need not pickle and large shared inputs are not copied; a worker
    killed mid-task raises BrokenProcessPool.  Fork is safe here because
    the CLI process runs no other thread: BLAS is pinned to one, and the
    pool forks every worker before it starts its own manager thread.  The
    pool is shut down on exit, and tasks not yet started are cancelled
    when an error ends the command.
    """
    if workers <= 1:
        yield map(fn, range(n_tasks))
        return
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_install_task, initargs=(fn,)
    )
    try:
        yield pool.map(_run_task, range(n_tasks))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# ru_maxrss counts KiB on Linux and bytes on macOS.
_MAXRSS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10


def _max_rss_mb(who: int) -> float:
    """Peak resident set size in MB (2^20 bytes) of this process
    (resource.RUSAGE_SELF) or of its largest waited-for child process
    (resource.RUSAGE_CHILDREN)."""
    return round(resource.getrusage(who).ru_maxrss / _MAXRSS_PER_MB, 3)


class _Run:
    """Output directory, stage timings and peak memory, and the one write
    path of a command."""

    def __init__(self, cfg: ExperimentConfig, command: str):
        self.cfg = cfg
        self.command = command
        self.outdir = Path(cfg.output)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.timings: dict = {}
        self.peak_rss: dict = {}
        self.workers = 1
        self._t0 = time.perf_counter()
        self._stage = None
        self._stage_t0 = 0.0

    def stage(self, name: str):
        """Record the running stage's time and the process's peak memory
        so far (which never decreases) and start `name`."""
        now = time.perf_counter()
        if self._stage is not None:
            self._end_stage(now)
        self._stage = name
        self._stage_t0 = now
        return self

    def _end_stage(self, now: float):
        self.timings[self._stage] = round(now - self._stage_t0, 6)
        self.peak_rss[self._stage] = _max_rss_mb(resource.RUSAGE_SELF)

    def busy(self, key: str, fn, *args):
        """fn(*args), with its seconds recorded as timings[key], a
        sub-timing of the running stage."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.timings[key] = round(time.perf_counter() - t0, 6)
        return out

    def finish(self, fields: dict, tables: dict, extra: dict, **record) -> list:
        """Write this run's artifacts and manifest.json; return their paths.

        fields maps a name to (values, mask), written as NAME.lcf and NAME.pgm
        with its sidecar (mask None images every cell); tables maps a CSV file
        name to (header, columns).  The manifest holds the outputs, timings,
        peak memory (`peak_rss_mb`, keyed like the stage timings), environment,
        the `extra` results and any further `record` keys; a result strict
        JSON cannot hold raises before any file is written."""
        for key, value in [*extra.items(), *record.items()]:
            try:
                json.dumps(value, allow_nan=False)
            except ValueError as exc:
                raise ValueError(f"result {key!r}: {exc}") from None
        self.stage("write")
        files = []
        for name, (values, mask) in fields.items():
            files.append(write_lcf(self.outdir / f"{name}.lcf", values))
            files += write_pgm(self.outdir / f"{name}.pgm", values, mask)
        files += [write_csv(self.outdir / name, header, columns) for name, (header, columns) in tables.items()]
        self.stage("manifest")
        outputs = [
            {"path": str(p.relative_to(self.outdir)), "bytes": p.stat().st_size, "sha256": sha256_file(p)}
            for p in sorted(files)
        ]
        self._end_stage(time.perf_counter())
        manifest = {
            "command": self.command,
            "version": __version__,
            "config": serialize_config(self.cfg),
            "timings_s": self.timings,
            "total_s": round(time.perf_counter() - self._t0, 6),
            "peak_rss_mb": self.peak_rss,
            "environment": {
                "workers": self.workers,
                "usable_cpus": _usable_cpus(),
                "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                **_linalg_build(),
            },
            "outputs": outputs,
            "extra": extra,
            **record,
        }
        mpath = self.outdir / "manifest.json"
        mpath.write_text(json.dumps(manifest, indent=1, sort_keys=True, allow_nan=False) + "\n")
        return files + [mpath]


def cmd_ftle_field(cfg: ExperimentConfig, workers: int | None) -> list:
    """Closed-map FTLE field and the strip-mean scan over leak positions."""
    run = _Run(cfg, "ftle-field")
    params = MapParams(cfg.k)
    grid = PhaseSpaceGrid(cfg.grid_q, cfg.grid_p)
    run.stage("ftle_field")
    field = ftle_field(grid, cfg.ftle_steps, params)
    run.stage("strip_scan")
    positions = _scan_positions(cfg)
    means = strip_scan(field, positions, cfg.leak_width)
    return run.finish(
        {"ftle_field": (field, None)},
        {"strip_means.csv": (["q_L", "mean_ftle"], [positions, means])},
        {"field_mean": float(field.mean())},
    )


def cmd_open_classical(cfg: ExperimentConfig, workers: int | None) -> list:
    """Leaked-map dwell/FTLE fields, histogram, survival and dwell averages."""
    run = _Run(cfg, "open-classical")
    params = MapParams(cfg.k)
    grid = PhaseSpaceGrid(cfg.grid_q, cfg.grid_p)
    leak = Leak(cfg.leak_center, cfg.leak_width)
    run.stage("evolve")
    ens = escape_ensemble(grid, leak, cfg.t_max, params)
    run.stage("survival")
    p = survival_probability(ens)
    fit = exponential_tail_fit(p)
    n_c = short_dwell_cutoff(p, fit)
    run.stage("fields")
    mask = dwell_mask(ens, n_c)
    dwell_ftle = ens.ftle[mask]
    edges, probs = ftle_histogram(dwell_ftle)
    tau, mean_ftle = mean_ftle_by_dwell(ens)
    return run.finish(
        {"dwell_time_field": (ens.tau.astype(float), mask), "dwell_ftle_field": (ens.ftle, mask)},
        {
            "survival.csv": (["n", "P"], [np.arange(p.size), p]),
            "ftle_histogram.csv": (["bin_lo", "bin_hi", "prob"], [edges[:-1], edges[1:], probs]),
            "ftle_by_dwell.csv": (["tau", "mean_ftle"], [tau, mean_ftle]),
        },
        {
            "n_c": n_c,
            "gamma": fit.gamma,
            "tail_rms_residual": fit.rms_residual,
            "escape_fraction": ens.escape_fraction,
            "mean_dwell_ftle": float(dwell_ftle.mean()),
        },
    )


def cmd_quantum(cfg: ExperimentConfig, workers: int | None) -> list:
    """Resonance spectrum, mean Husimi field, and Wehrl scatter for one leak.

    The top states, the spectrum's first m = top_states Schur vectors (the
    longest-lived), must all have nonzero dwell time.  The config's Husimi
    grid images their mean field; every s_w is integrated on the square
    `entropy_grid(N)`, and the manifest records the largest change of the
    top states' s_w at twice that grid (`entropy_grid_check`).

    Runs in the calling thread at any worker request.  The two entropy
    grids' plans are built after the top-states check, then come the mean
    field (on the image grid's plan), the 2n check and every s_w on the
    entropy grid; each plan is built once and passed to the jobs that use
    it.  A leak strip that absorbs no lattice site fails before the
    spectrum, a plan that fails to build raises before any transform, and
    a degenerate coherent reference raises in the entropy job that takes
    it.  timings_s adds each Husimi job's seconds (plans_busy,
    mean_field_busy, grid_check_busy, entropies_busy), sub-timings of the
    husimi stage."""
    run = _Run(cfg, "quantum")
    qp = QuantumParams(cfg.dim, cfg.k)
    leak = Leak(cfg.leak_center, cfg.leak_width)
    n_grid = entropy_grid(cfg.dim)
    run.stage("unitary")
    u, defect = _checked_unitary(qp)
    run.stage("spectrum")
    keep = build_projector(qp, leak)
    if keep.all():
        strip = f"leak strip of width {cfg.leak_width:g} centered at q = {cfg.leak_center:g}"
        raise RuntimeError(f"{strip} absorbs no site k/N at N = {cfg.dim}: the system is closed")
    # Each propagator is freed once nothing reads it, so that the Husimi
    # stage's buffers reuse its memory: the closed one once its open copy
    # exists (rebinding u), the open one, which the Schur factorizes in
    # place, after the spectrum.
    u = open_propagator(u, keep)
    res = resonance_spectrum(u)
    del u
    # a bad dwell bin fails before any transform
    bins = dwell_bins(res.dwell, cfg.dwell_bin)
    run.stage("husimi")
    # too few nonzero-dwell states fail before any plan or transform
    m, n_alive = cfg.top_states, int((res.dwell > 0.0).sum())
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n_alive < m:
        raise RuntimeError(f"only {n_alive} nonzero-dwell states available, need m={m}")
    top = res.vectors[:, :m]
    plan, fine = run.busy("plans_busy", lambda: [HusimiTransform(cfg.dim, n, n) for n in (n_grid, 2 * n_grid)])
    mean_field = run.busy("mean_field_busy", lambda: mean_husimi(top, HusimiTransform(cfg.dim, cfg.husimi_q, cfg.husimi_p)))
    s_w_fine = run.busy("grid_check_busy", state_entropies, top, fine)
    s_w = run.busy("entropies_busy", state_entropies, res.vectors, plan)
    grid_check = np.abs(s_w_fine - s_w[:m]).max()
    return run.finish(
        {"mean_husimi": (mean_field, None)},
        {
            "spectrum.csv": (
                ["k", "re_z", "im_z", "theta", "gamma", "dwell_time"],
                [np.arange(1, cfg.dim + 1), res.z.real, res.z.imag, np.angle(res.z), res.gamma, res.dwell],
            ),
            "wehrl_scatter.csv": (["dwell_time", "s_w", "bin_index"], [res.dwell, s_w, bins]),
            "wehrl_bins.csv": (["bin_index", "dwell_center", "mean_s_w", "count"], bin_means(bins, s_w, cfg.dwell_bin)),
        },
        {
            "unitarity_defect": defect,
            "masked_sites": int((~keep).sum()),
            "n_zero_modes": res.n_zero_modes,
            "entropy_grid": [n_grid, n_grid],
            "entropy_grid_check": float(grid_check),
            "max_s_w": float(s_w.max()),
        },
    )


def leak_scan(cfg: ExperimentConfig, workers: int | None, u: np.ndarray, plan: HusimiTransform) -> tuple:
    """Classical and quantum statistics at `cfg.scan_positions` leak centers.

    u is the closed unitary at (cfg.dim, cfg.k), checked by
    `_checked_unitary`, and plan the Husimi plan of the scan grid; the
    tasks close over both, so forked workers inherit them.  The classical
    columns come from one orbit pass per group of adjacent positions (at
    least one group per worker, at most _GROUP_MAX positions each), since
    the orbits do not depend on the leak; each position's projector and
    Schur spectrum are a task of their own.  The tasks run over at most
    `worker_count(workers, positions)` processes, groups first, with one
    stderr line as each is gathered.  A position's row is the mean and
    standard error of tau and lambda over orbits with tau >= 1, survivors
    counted at t_max (Altmann, Portela & Tel, RMP 85, 869 (2013)), the
    unescaped fraction, and the mean and standard error of the dwell time
    and of s_w over all N Schur states, zero modes entering with dwell 0.
    Returns (columns, busy, groups): columns maps q_L and each SCAN_COLUMNS
    header to its column; busy holds each position's busy seconds per
    SCAN_STAGES key, "classical" being its group's seconds divided by the
    group's size; groups lists each classical group's q_L, seconds and
    point-steps (the steps of the pass summed over its points)."""
    positions = _scan_positions(cfg)
    params = MapParams(cfg.k)
    qp = QuantumParams(cfg.dim, cfg.k)
    grid = PhaseSpaceGrid(cfg.grid_q, cfg.grid_p)
    n_workers = worker_count(workers, positions.size)
    # contiguous groups of position indices, one classical task each
    groups = np.array_split(np.arange(positions.size), max(n_workers, -(-positions.size // _GROUP_MAX)))

    def classical(group):
        t0 = time.perf_counter()
        leaks = [Leak(float(positions[i]), cfg.leak_width) for i in group]
        tau, lam, escaped = _orbits(*grid.points(), leaks, cfg.t_max, params)
        rows = []
        for k in range(len(leaks)):
            sel = tau[k] >= 1
            if sel.any():
                rows.append((*_mean_se(tau[k][sel].astype(float)), *_mean_se(lam[k][sel]), 1.0 - escaped[k].mean()))
            else:
                # every orbit was absorbed before its first step (leak covers
                # the full torus): zero dwell, no exponent defined
                rows.append((0.0, 0.0, math.nan, math.nan, 0.0))
        # a point moves until its last strip catches it
        return rows, time.perf_counter() - t0, int(tau.max(axis=0).sum())

    def quantum(i):
        t0 = time.perf_counter()
        keep = build_projector(qp, Leak(float(positions[i]), cfg.leak_width))
        res = resonance_spectrum(open_propagator(u, keep))
        # an infinite dwell time (a closed system) leaves the mean undefined
        dw = (math.nan, math.nan) if np.isinf(res.dwell).any() else _mean_se(res.dwell)
        t1 = time.perf_counter()
        sw = _mean_se(state_entropies(res.vectors, plan))
        return (*dw, *sw), (t1 - t0, time.perf_counter() - t1)

    def task(j):
        return classical(groups[j]) if j < len(groups) else quantum(j - len(groups))

    cl, cl_busy, group_records, stats, busy = [], [], [], [], []
    with _task_results(task, len(groups) + positions.size, n_workers) as results:
        # zip stops at the last group, before it takes a position's result
        for group, (rows, seconds, steps) in zip(groups, results):
            cl += rows
            cl_busy += [seconds / group.size] * group.size
            q_L = [float(positions[i]) for i in group]
            group_records.append({"q_L": q_L, "seconds": round(seconds, 6), "point_steps": steps})
            print(f"scan: classical q_L={q_L[0]:g}..{q_L[-1]:g}: {seconds:.2f} s", file=sys.stderr, flush=True)
        for i, (row, times) in enumerate(results):
            stats.append((*cl[i], *row))
            busy.append((cl_busy[i], *times))
            line = ", ".join(f"{k} {t:.2f} s" for k, t in zip(SCAN_STAGES, busy[i]))
            print(f"scan: position {i + 1}/{positions.size} q_L={positions[i]:g}: {line}", file=sys.stderr, flush=True)
    columns = {"q_L": positions, **dict(zip(SCAN_COLUMNS, np.array(stats, dtype=float).T))}
    return columns, busy, group_records


def cmd_scan(cfg: ExperimentConfig, workers: int | None) -> list:
    """Classical and quantum leak-position scans (`leak_scan`); the
    manifest's extra holds their Pearson correlations and each column's
    `_reliability` (reliability_tau, _lambda, _T and _SW), its
    position_timings_s each position's busy seconds (its "classical" entry
    is the position's share of its group's pass) and its classical_groups
    each orbit pass's positions, seconds and point-steps.

    The stages are the checked unitary ("unitary"), the scan grid's Husimi
    plan with its coherent reference taken once as a check ("husimi"), so
    a bad unitary or grid fails before any task runs, and the tasks with
    the columns' assembly ("positions").  timings_s adds the positions'
    busy seconds summed per SCAN_STAGES key (more than the wall time when
    workers run in parallel).  Given more than one worker, peak_rss_mb
    adds "workers", the largest child process this process has waited for
    (resource.RUSAGE_CHILDREN): the scan's largest worker, or an earlier
    command's worker where one process runs several commands."""
    run = _Run(cfg, "scan")
    run.workers = worker_count(workers, cfg.scan_positions)
    run.stage("unitary")
    u, defect = _checked_unitary(QuantumParams(cfg.dim, cfg.k))
    run.stage("husimi")
    plan = HusimiTransform(cfg.dim, cfg.scan_husimi_q, cfg.scan_husimi_p)
    _coherent_entropy(plan, plan.workspace())
    run.stage("positions")
    columns, busy, groups = leak_scan(cfg, run.workers, u, plan)
    for key, times in zip(SCAN_STAGES, zip(*busy)):
        run.timings[key] = round(sum(times), 6)
    if run.workers > 1:
        # the pool has joined, so every worker has been waited for
        run.peak_rss["workers"] = _max_rss_mb(resource.RUSAGE_CHILDREN)
    rel = {f"reliability_{k}": _reliability(columns[f"mean_{k}"], columns[f"se_{k}"]) for k in ("tau", "lambda", "T", "SW")}
    scan = ["q_L", "mean_tau", "mean_lambda", "mean_T", "mean_SW"]
    errors = ["q_L", "se_tau", "se_lambda", "se_T", "se_SW", "unescaped_fraction"]
    return run.finish(
        {},
        {"scan.csv": (scan, [columns[h] for h in scan]), "scan_errors.csv": (errors, [columns[h] for h in errors])},
        {
            "unitarity_defect": defect,
            "pearson_tau_T": _pearson(columns["mean_tau"], columns["mean_T"]),
            "pearson_lambda_SW": _pearson(columns["mean_lambda"], columns["mean_SW"]),
            **rel,
        },
        position_timings_s=[
            {"q_L": float(q), **{key: round(t, 6) for key, t in zip(SCAN_STAGES, times)}}
            for q, times in zip(columns["q_L"], busy)
        ],
        classical_groups=groups,
    )


COMMANDS = {
    "ftle-field": cmd_ftle_field,
    "open-classical": cmd_open_classical,
    "quantum": cmd_quantum,
    "scan": cmd_scan,
}
