"""Experiment commands: compose the library into reproducible output trees.

Every command takes a validated ExperimentConfig and a worker-process
request (used by `quantum` and `scan`), writes its artifacts into
the configured output directory, and finishes with a manifest.json listing
each file that this run wrote (`_Run.add`) with size and sha256; older files
in a reused directory stay unlisted.  All CSV bytes are pure functions of
the config, so a rerun into a fresh directory produces identical checksums.

`scan` positions and blocks of `quantum` states are independent tasks.  A
command given `workers` > 1 maps them over fork-started worker processes
(never more than `worker_count` allows); one worker runs them in this
process.  The parent builds what the tasks share (unitary, projectors,
Husimi plan) before the pool starts, so the workers inherit it and only
task indices and results cross processes.  Results are gathered in task
order and every process runs BLAS on one thread (the CLI pins it), so the
output bytes do not depend on the worker count.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ExperimentConfig, serialize_config
from .ensemble import (
    ClassicalScan,
    PhaseSpaceGrid,
    dwell_ftle_field,
    escape_ensemble,
    escape_stats,
    exponential_tail_fit,
    ftle_field,
    ftle_histogram,
    histogram_mean,
    mean_ftle_by_dwell,
    short_dwell_cutoff,
    strip_scan,
    survival_probability,
)
from .formats import complex_to_interleaved, sha256_file, write_csv, write_field_csv, write_lcf, write_pgm
from .quantum import (
    QuantumParams,
    QuantumScan,
    build_projector,
    build_unitary,
    dwell_stats,
    leak_spectrum,
    unitarity_defect,
)
from .standard_map import Leak, MapParams
from .tomography import EntropyScan, entropy_vs_dwell, husimi_plan, mean_husimi, state_entropies, wehrl_stats

__all__ = ["cmd_ftle_field", "cmd_open_classical", "cmd_quantum", "cmd_scan", "worker_count", "COMMANDS"]

# Propagators are checked against this before opening the system.
UNITARITY_TOL = 1e-12

# Busy-time keys of one scan position, in the order a position runs them.
SCAN_STAGES = ("classical", "quantum", "entropy")


def _scan_positions(cfg: ExperimentConfig) -> np.ndarray:
    return np.arange(cfg.scan_positions) / cfg.scan_positions


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(requested: int | None, tasks: int, cpus: int | None = None) -> int:
    """Worker processes for `tasks` independent tasks: min(requested, tasks,
    usable CPUs), at least 1.  requested None means 1; cpus defaults to the
    CPUs this process may run on."""
    if cpus is None:
        cpus = _usable_cpus()
    return max(1, min(requested or 1, tasks, cpus))


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


class _Run:
    """Output directory plus timing bookkeeping for one command."""

    def __init__(self, cfg: ExperimentConfig, command: str):
        self.cfg = cfg
        self.command = command
        self.outdir = Path(cfg.output)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.timings: dict = {}
        self.workers = 1
        self.files: list = []
        self._t0 = time.perf_counter()
        self._stage = None
        self._stage_t0 = 0.0

    def stage(self, name: str):
        """Close the running stage and start `name`; a stage entered more
        than once accumulates its time."""
        now = time.perf_counter()
        if self._stage is not None:
            self.timings[self._stage] = round(self.timings.get(self._stage, 0.0) + now - self._stage_t0, 6)
        self._stage = name
        self._stage_t0 = now
        return self

    def use_workers(self, requested: int | None, tasks: int) -> int:
        """Worker processes for `tasks` tasks; the manifest records the count."""
        self.workers = worker_count(requested, tasks)
        return self.workers

    def add(self, written):
        """Record paths this run wrote; the manifest lists exactly these."""
        if isinstance(written, (list, tuple)):
            self.files.extend(Path(p) for p in written)
        else:
            self.files.append(Path(written))

    def path(self, name: str) -> Path:
        return self.outdir / name

    def finish(self, extra: dict, **record) -> list:
        """Write manifest.json: this run's outputs, timings, environment,
        the command's `extra` results and any further `record` keys."""
        self.stage("manifest")
        outputs = [
            {"path": str(p.relative_to(self.outdir)), "bytes": p.stat().st_size, "sha256": sha256_file(p)}
            for p in sorted(self.files)
        ]
        self.timings[self._stage] = round(time.perf_counter() - self._stage_t0, 6)
        manifest = {
            "command": self.command,
            "version": __version__,
            "config": serialize_config(self.cfg),
            "timings_s": self.timings,
            "total_s": round(time.perf_counter() - self._t0, 6),
            "environment": {
                "workers": self.workers,
                "usable_cpus": _usable_cpus(),
                "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "outputs": outputs,
            "extra": extra,
            **record,
        }
        mpath = self.path("manifest.json")
        mpath.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        self.files.append(mpath)
        return self.files


def cmd_ftle_field(cfg: ExperimentConfig, workers: int | None = None) -> list:
    """Closed-map FTLE field and the strip-mean scan over leak positions."""
    run = _Run(cfg, "ftle-field")
    params = MapParams(cfg.k)
    grid = PhaseSpaceGrid(cfg.grid_q, cfg.grid_p)
    run.stage("ftle_field")
    field = ftle_field(grid, cfg.ftle_steps, params)
    run.stage("strip_scan")
    positions = _scan_positions(cfg)
    means = strip_scan(field, positions, cfg.leak_width)
    run.stage("write")
    run.add(write_lcf(run.path("ftle_field.lcf"), field.values))
    run.add(write_field_csv(run.path("ftle_field.csv"), field))
    run.add(write_pgm(run.path("ftle_field.pgm"), field.values, field.mask))
    run.add(write_csv(run.path("strip_means.csv"), ["q_L", "mean_ftle"], [positions, means]))
    return run.finish(
        {
            "ftle_steps": cfg.ftle_steps,
            "grid": [cfg.grid_q, cfg.grid_p],
            "strip_width": cfg.leak_width,
            "field_mean": float(field.values.mean()),
        }
    )


def cmd_open_classical(cfg: ExperimentConfig, workers: int | None = None) -> list:
    """Leaked-map dwell/FTLE fields, histogram, survival and dwell averages."""
    run = _Run(cfg, "open-classical")
    params = MapParams(cfg.k)
    grid = PhaseSpaceGrid(cfg.grid_q, cfg.grid_p)
    leak = Leak(cfg.leak_center, cfg.leak_width)
    run.stage("evolve")
    ens = escape_ensemble(grid, leak, cfg.t_max, params)
    run.stage("survival")
    curve = survival_probability(ens)
    fit = exponential_tail_fit(curve)
    n_c = short_dwell_cutoff(curve)
    run.stage("fields")
    dwell, lam = dwell_ftle_field(ens, n_c)
    edges, probs = ftle_histogram(lam)
    table = mean_ftle_by_dwell(ens)
    run.stage("write")
    run.add(write_csv(run.path("survival.csv"), ["n", "P"], [curve.n, curve.p]))
    run.add(write_lcf(run.path("dwell_time_field.lcf"), dwell.values))
    run.add(write_field_csv(run.path("dwell_time_field.csv"), dwell))
    run.add(write_pgm(run.path("dwell_time_field.pgm"), dwell.values, dwell.mask))
    run.add(write_lcf(run.path("dwell_ftle_field.lcf"), lam.values))
    run.add(write_field_csv(run.path("dwell_ftle_field.csv"), lam))
    run.add(write_pgm(run.path("dwell_ftle_field.pgm"), lam.values, lam.mask))
    run.add(
        write_csv(
            run.path("ftle_histogram.csv"),
            ["bin_lo", "bin_hi", "prob"],
            [edges[:-1], edges[1:], probs],
        )
    )
    run.add(write_csv(run.path("ftle_by_dwell.csv"), ["tau", "mean_ftle"], [table.tau, table.mean_ftle]))
    return run.finish(
        {
            "leak": [cfg.leak_center, cfg.leak_width],
            "t_max": cfg.t_max,
            "n_c": n_c,
            "gamma": fit.gamma,
            "tail_rms_residual": fit.rms_residual,
            "escape_fraction": ens.escape_fraction,
            "histogram_mean": histogram_mean(edges, probs),
        }
    )


def cmd_quantum(cfg: ExperimentConfig, workers: int | None = None) -> list:
    """Resonance spectrum, mean Husimi field, and Wehrl scatter for one leak;
    the states' entropies run in contiguous blocks, one per worker."""
    run = _Run(cfg, "quantum")
    qp = QuantumParams(cfg.dim, cfg.k)
    leak = Leak(cfg.leak_center, cfg.leak_width)
    run.stage("unitary")
    u = build_unitary(qp)
    defect = unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise RuntimeError(f"propagator failed unitarity: defect {defect:.3g} > {UNITARITY_TOL}")
    run.stage("spectrum")
    keep = build_projector(qp, leak)
    res = leak_spectrum(u, keep)
    run.stage("husimi")
    resolution = (cfg.husimi_q, cfg.husimi_p)
    mean_field = mean_husimi(res, cfg.top_states, resolution)
    n = run.use_workers(workers, cfg.dim)
    edges = [b * cfg.dim // n for b in range(n + 1)]

    def block_entropies(res, resolution):
        def block(b):
            return state_entropies(res, resolution, slice(edges[b], edges[b + 1]))

        with _task_results(block, n, n) as blocks:
            return np.concatenate(list(blocks))

    scatter = entropy_vs_dwell(res, cfg.dwell_bin, resolution, entropies=block_entropies)
    run.stage("write")
    k_idx = np.arange(1, cfg.dim + 1)
    run.add(
        write_csv(
            run.path("spectrum.csv"),
            ["k", "re_z", "im_z", "theta", "gamma", "dwell_time"],
            [k_idx, res.z.real, res.z.imag, res.theta, res.gamma, res.dwell],
        )
    )
    run.add(write_lcf(run.path("mean_husimi.lcf"), mean_field.values))
    run.add(write_pgm(run.path("mean_husimi.pgm"), mean_field.values))
    run.add(
        write_csv(
            run.path("wehrl_scatter.csv"),
            ["dwell_time", "s_w", "bin_index"],
            [scatter.dwell, scatter.s_w, scatter.bin_index],
        )
    )
    run.add(
        write_csv(
            run.path("wehrl_bins.csv"),
            ["bin_index", "dwell_center", "mean_s_w", "count"],
            [
                np.floor(scatter.bin_centers / scatter.bin_width).astype(np.int64),
                scatter.bin_centers,
                scatter.bin_mean,
                scatter.bin_count,
            ],
        )
    )
    if cfg.dump_vectors:
        run.add(write_lcf(run.path("schur_vectors.lcf"), complex_to_interleaved(res.vectors)))
    return run.finish(
        {
            "N": cfg.dim,
            "leak": [cfg.leak_center, cfg.leak_width],
            "unitarity_defect": defect,
            "masked_sites": int((~keep).sum()),
            "n_zero_modes": res.n_zero_modes,
            "top_states": cfg.top_states,
            "max_s_w": float(scatter.s_w.max()),
        }
    )


def cmd_scan(cfg: ExperimentConfig, workers: int | None = None) -> list:
    """Classical and quantum leak-position scans plus their correlations.

    Each position is one task: its escape ensemble, Schur spectrum and
    Wehrl entropies.  timings_s holds the tasks' busy seconds summed per
    stage, which can exceed the wall time when workers run in parallel;
    position_timings_s holds them per position."""
    run = _Run(cfg, "scan")
    positions = _scan_positions(cfg)
    params = MapParams(cfg.k)
    qp = QuantumParams(cfg.dim, cfg.k)
    grid = PhaseSpaceGrid(cfg.grid_q, cfg.grid_p)
    resolution = (cfg.scan_husimi_q, cfg.scan_husimi_p)
    run.stage("unitary")
    # shared by every position: built once, inherited by forked workers
    u = build_unitary(qp)
    keeps = [build_projector(qp, Leak(float(c), cfg.leak_width)) for c in positions]
    husimi_plan(cfg.dim, resolution)

    def position(i):
        t0 = time.perf_counter()
        cl = escape_stats(escape_ensemble(grid, Leak(float(positions[i]), cfg.leak_width), cfg.t_max, params))
        t1 = time.perf_counter()
        res = leak_spectrum(u, keeps[i])
        dw = dwell_stats(res)
        t2 = time.perf_counter()
        sw = wehrl_stats(res, resolution)
        return cl, dw, sw, (t1 - t0, t2 - t1, time.perf_counter() - t2)

    run.stage("positions")
    rows = []
    with _task_results(position, positions.size, run.use_workers(workers, positions.size)) as results:
        for i, row in enumerate(results):
            rows.append(row)
            busy = ", ".join(f"{k} {t:.2f} s" for k, t in zip(SCAN_STAGES, row[3]))
            print(f"scan: position {i + 1}/{positions.size} q_L={positions[i]:g}: {busy}", file=sys.stderr, flush=True)
    cl_rows, dw_rows, sw_rows, busy = zip(*rows)
    cl = ClassicalScan.from_rows(positions, cl_rows)
    qs = QuantumScan.from_rows(positions, dw_rows)
    es = EntropyScan.from_rows(positions, sw_rows)
    for key, times in zip(SCAN_STAGES, zip(*busy)):
        run.timings[key] = round(sum(times), 6)
    run.stage("write")
    corr_tau_t = float(np.corrcoef(cl.mean_tau, qs.mean_dwell)[0, 1])
    corr_lam_sw = float(np.corrcoef(cl.mean_ftle, es.mean_s_w)[0, 1])
    run.add(
        write_csv(
            run.path("scan.csv"),
            ["q_L", "mean_tau", "mean_lambda", "mean_T", "mean_SW"],
            [positions, cl.mean_tau, cl.mean_ftle, qs.mean_dwell, es.mean_s_w],
        )
    )
    run.add(
        write_csv(
            run.path("scan_errors.csv"),
            ["q_L", "se_tau", "se_lambda", "se_T", "se_SW", "unescaped_fraction"],
            [positions, cl.se_tau, cl.se_ftle, qs.se_dwell, es.se_s_w, cl.unescaped_fraction],
        )
    )
    corr = {"pearson_tau_T": corr_tau_t, "pearson_lambda_SW": corr_lam_sw}
    cpath = run.path("correlations.json")
    cpath.write_text(json.dumps(corr, indent=1, sort_keys=True) + "\n")
    run.add(cpath)
    return run.finish(
        {
            "N": cfg.dim,
            "positions": cfg.scan_positions,
            "leak_width": cfg.leak_width,
            **corr,
        },
        position_timings_s=[
            {"q_L": float(q), **{key: round(t, 6) for key, t in zip(SCAN_STAGES, times)}}
            for q, times in zip(positions, busy)
        ],
    )


COMMANDS = {
    "ftle-field": cmd_ftle_field,
    "open-classical": cmd_open_classical,
    "quantum": cmd_quantum,
    "scan": cmd_scan,
}
