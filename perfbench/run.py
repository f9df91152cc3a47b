"""leakmap benchmark: run a workload as real `leakmap` CLI processes.

    python3 perfbench/run.py --workload {classical,quantum,scan} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each workload is a closed loop: one caller
runs the workload's commands back to back, each as its own
`python -m leakmap.cli` process with LEAKMAP_THREADS=2, and starts the
next round when the last one has finished.  A few set-up probes (the same
commands on a tiny fixed config) come first.  Rounds repeat while another
one fits in S seconds, and at least twice so that reruns can be compared
byte for byte.  The seed draws the generated config values; the program
only sees the config file.

Every invocation is checked (exit code, manifest checksums, identical bytes
across rounds, reference paths in checks.py); one that fails any check
counts as failed.  With --trace 1 the run then executes the same commands
in-process under span recorders (tracing.py), once with 2 threads and once
with 1, and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Human-readable lines before it give each metric's median, high
percentile and sample count, and the environment record; the same record
goes to result.json in the run directory under perfbench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# numpy, leakmap and the modules that use them (checks, tracing) are
# imported inside functions, after main() has pinned the thread counts.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "perfbench_runs"

THREADS = 2
MIN_ROUNDS = 2
# Tiny-config invocations before the timed rounds: they warm the page
# cache and give setup_s several samples even when a round is one process.
SETUP_PROBES = 6
# A run must finish within 180 s; leave room for the checks and the exit.
RUN_BUDGET_S = 165.0

# Workload sizes: keys are ExperimentConfig attributes.  The seed adds the
# leak center (classical, quantum) or the leak width (scan).
SIZES = {
    "classical": {"k": 10.0, "leak_width": 0.2, "grid_q": 500, "grid_p": 500, "t_max": 1000, "ftle_steps": 10},
    "quantum": {"k": 10.0, "leak_width": 0.2, "dim": 512, "husimi_q": 500, "husimi_p": 500, "top_states": 20},
    "scan": {
        "k": 10.0,
        "leak_center": 0.2,
        "dim": 512,
        "scan_positions": 10,
        "grid_q": 500,
        "grid_p": 500,
        "t_max": 1000,
        "scan_husimi_q": 100,
        "scan_husimi_p": 100,
    },
}

# Probe configs, fixed: the seed does not change them, because at 60^2
# cells some leak centers leave too few escapes for the exponential tail
# fit and open-classical exits 2.  The Husimi grids are coprime to N and
# much finer than the coherent-state width, as the brute-force
# mean-Husimi check requires (the self-tests run whole workloads at these
# sizes).
PROBE_SIZES = {
    "classical": {"k": 10.0, "leak_center": 0.2, "leak_width": 0.2, "grid_q": 60, "grid_p": 60, "t_max": 400,
                  "ftle_steps": 10},
    "quantum": {"k": 10.0, "leak_center": 0.2, "leak_width": 0.2, "dim": 64, "husimi_q": 63, "husimi_p": 63,
                "top_states": 5},
    "scan": {
        "k": 10.0,
        "leak_center": 0.2,
        "leak_width": 0.2,
        "dim": 64,
        "scan_positions": 3,
        "grid_q": 60,
        "grid_p": 60,
        "t_max": 400,
        "scan_husimi_q": 31,
        "scan_husimi_p": 31,
    },
}

# Scan cost grows as the leak narrows (longer dwell, a larger kept block for
# Schur): five runs at widths 0.228 to 0.166 took 13.7 s to 16.5 s.  The
# seed draws from a narrow band so that this stays below run-to-run noise.
SCAN_WIDTH = (0.19, 0.21)

COMMANDS = {"classical": ["open-classical", "ftle-field"], "quantum": ["quantum"], "scan": ["scan"]}

# Throughput: (reported name, units of work in one round).
WORK = {
    "classical": ("cells_per_s", lambda c: 2 * c["grid_q"] * c["grid_p"]),
    "quantum": ("states_per_s", lambda c: c["dim"]),
    "scan": ("positions_per_s", lambda c: c["scan_positions"]),
}

# ExperimentConfig attribute -> INI section and key.
INI = {
    "k": ("map", "k"),
    "leak_center": ("leak", "center"),
    "leak_width": ("leak", "width"),
    "grid_q": ("classical", "grid_q"),
    "grid_p": ("classical", "grid_p"),
    "ftle_steps": ("classical", "ftle_steps"),
    "t_max": ("classical", "t_max"),
    "dim": ("quantum", "dim"),
    "husimi_q": ("husimi", "grid_q"),
    "husimi_p": ("husimi", "grid_p"),
    "top_states": ("husimi", "top_states"),
    "scan_positions": ("scan", "positions"),
    "scan_husimi_q": ("scan", "husimi_grid_q"),
    "scan_husimi_p": ("scan", "husimi_grid_p"),
}


def draw_config(workload: str, seed: int) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    cfg = dict(SIZES[workload])
    if workload == "scan":
        cfg["leak_width"] = SCAN_WIDTH[0] + (SCAN_WIDTH[1] - SCAN_WIDTH[0]) * float(rng.random())
    else:
        cfg["leak_center"] = float(rng.random())
    return cfg


def write_config(cfg: dict, path: Path) -> Path:
    sections: dict = {}
    for attr, value in cfg.items():
        section, key = INI[attr]
        sections.setdefault(section, []).append(f"{key} = {value!r}")
    path.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n\n" for s, lines in sections.items()))
    return path


@dataclass
class Invocation:
    command: str
    outdir: Path
    exit_code: int
    wall_s: float = math.nan
    maxrss_mb: float = math.nan
    manifest: dict | None = None
    problems: list = field(default_factory=list)
    threads: int = THREADS

    @property
    def total_s(self):
        return None if self.manifest is None else self.manifest["total_s"]

    @property
    def setup_s(self):
        return None if self.manifest is None else self.wall_s - self.total_s


def invoke(command: str, config: Path, outdir: Path, env: dict, deadline: float) -> Invocation:
    """Run one CLI process; wall time and peak RSS come from wait4."""
    argv = [sys.executable, "-m", "leakmap.cli", command, "--config", str(config), "--output", str(outdir)]
    with open(outdir.with_suffix(".log"), "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(command, outdir, proc.returncode, wall, usage.ru_maxrss / 1024.0)


def verify(inv: Invocation, first: dict) -> None:
    """Exit code, manifest checksums, and bytes identical to the first
    valid invocation of the same command at the same thread count, which
    becomes the reference (BLAS may round differently on another count)."""
    import checks

    if inv.exit_code != 0:
        inv.problems.append(f"exit code {inv.exit_code}")
    inv.manifest, problems = checks.check_manifest(inv.outdir)
    inv.problems += problems
    if inv.problems:
        return
    ref = first.setdefault((inv.command, inv.threads), inv)
    differ = {path for path, _ in set(checks.digest(inv.manifest)) ^ set(checks.digest(ref.manifest))}
    if differ:
        inv.problems.append(f"bytes differ from the first run of this seed: {sorted(differ)}")


def reference_checks(first: dict, invocations: list, cfg: dict, seed: int) -> None:
    """Reference-path checks on the first output of each command; the other
    outputs are byte-identical to it, so a failure fails them all."""
    import numpy as np

    import checks

    rng = np.random.default_rng([seed, 1])
    for key, ref in first.items():
        try:
            problems = checks.CHECKS[ref.command](ref.outdir, cfg, rng)
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"reference check raised {type(exc).__name__}: {exc}"]
        for inv in invocations:
            if (inv.command, inv.threads) == key:
                inv.problems += [f"{inv.command}: {p}" for p in problems]


def summary(samples: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond
    it (the maximum when there are fewer than twenty samples)."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 20:
        q = 1.0 - 10.0 / n
        label, hi = f"p{100 * q:.0f}", xs[math.ceil(q * n) - 1]
    else:
        label, hi = "max", xs[-1]
    return {"median": statistics.median(xs), "high_label": label, "high": hi, "n": n}


def round_walls(rounds: list) -> list:
    """Summed manifest total_s of each round in which every invocation
    wrote a manifest: wall_s reuses the program's own timer."""
    return [sum(inv.total_s for inv in r) for r in rounds if all(inv.manifest for inv in r)]


def end_to_end(workload: str, cfg: dict, rounds: list, probes: list) -> dict:
    """metric -> (samples, unit, value).  The value is the samples' median,
    except for items_per_s: the work of every round over their summed
    wall_s, the throughput of the whole run."""
    invs = probes + [inv for r in rounds for inv in r]
    wall = round_walls(rounds)
    units = WORK[workload][1](cfg)
    out = {
        "wall_s": (wall, "s"),
        "setup_s": ([inv.setup_s for inv in invs if inv.manifest], "s"),
        "peak_rss_mb": ([max(inv.maxrss_mb for inv in invs)], "MB"),
        "items_per_s": ([units / w for w in wall], "1/s"),
    }
    return {
        k: (xs, u, units * len(wall) / sum(wall) if k == "items_per_s" else statistics.median(xs))
        for k, (xs, u) in out.items()
        if xs
    }


def traced_pass(workload: str, threads: int, config: Path, rundir: Path, env: dict, deadline: float, first: dict):
    """Run the workload's commands in one traced worker process.

    Returns (span file contents or None, invocations); the invocations are
    verified like untraced ones and count as attempted."""
    import tracing

    outdirs = {c: rundir / f"traced{threads}-{c}" for c in COMMANDS[workload]}
    plan = {
        "threads": threads,
        "trace_id": f"{rundir.name}-t{threads}",
        "commands": [[c, "--config", str(config), "--output", str(d)] for c, d in outdirs.items()],
    }
    plan_path = rundir / f"trace-t{threads}-plan.json"
    spans_path = rundir / f"spans-t{threads}.json"
    plan_path.write_text(json.dumps(plan))
    argv = [sys.executable, tracing.__file__, str(plan_path), str(spans_path)]
    with open(rundir / f"trace-t{threads}.log", "wb") as log:
        try:
            subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT, check=True,
                           timeout=max(deadline - time.monotonic(), 1.0))
            trace = json.loads(spans_path.read_text())
        except (subprocess.SubprocessError, OSError, ValueError):
            trace = None
    invs = []
    for k, (command, outdir) in enumerate(outdirs.items()):
        inv = Invocation(command, outdir, trace["exit_codes"][k] if trace else -1, threads=threads)
        verify(inv, first)
        invs.append(inv)
    return trace, invs


def layer_report(rounds: list, traces: dict) -> dict:
    """Per-layer metrics of the 2-thread pass, every timing metric of the
    1-thread pass under a t1. prefix, and the tracing overhead."""
    import tracing

    untraced = statistics.median(round_walls(rounds))
    out = {}
    for threads, (trace, invs) in traces.items():
        metrics = tracing.layer_metrics(trace, [inv.manifest for inv in invs])
        metrics["trace.wall_s"] = (sum(inv.total_s for inv in invs), "s")
        if threads == THREADS:
            out.update(metrics)
            out["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced, "s")
            out["trace.spans"] = (len(trace["spans"]), "count")
        else:
            out.update({f"t{threads}.{k}": v for k, v in metrics.items() if v[1] not in ("count", "B")})
    return out


def environment(seed: int, thread_env: dict) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for p in sorted((SRC / "leakmap").rglob("*.py")):
        src.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "thread_env": thread_env,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leakmap" / "cli.py").is_file():
        print(f"error: no leakmap sources at {SRC}; run from a leakmap checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S

    # Pin this process and every child exactly as the CLI does, before
    # numpy loads here.
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["LEAKMAP_THREADS"] = str(THREADS)
    from leakmap.cli import apply_thread_env

    apply_thread_env()
    thread_env = {k: v for k, v in os.environ.items() if k == "LEAKMAP_THREADS" or k.endswith("_NUM_THREADS")}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    rundir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    rundir.mkdir(parents=True)
    cfg = draw_config(args.workload, args.seed)
    config = write_config(cfg, rundir / "experiment.cfg")

    probe_config = write_config(PROBE_SIZES[args.workload], rundir / "probe.cfg")
    probes, probe_first = [], {}
    for k in range(SETUP_PROBES):
        command = COMMANDS[args.workload][k % len(COMMANDS[args.workload])]
        inv = invoke(command, probe_config, rundir / f"probe-{command}-{k}", env, deadline)
        verify(inv, probe_first)
        probes.append(inv)

    rounds, first = [], {}
    t_start = time.monotonic()
    while True:
        rnd = []
        for command in COMMANDS[args.workload]:
            inv = invoke(command, config, rundir / f"{command}-{len(rounds)}", env, deadline)
            verify(inv, first)
            if first.get((command, THREADS)) is not inv:
                shutil.rmtree(inv.outdir, ignore_errors=True)
            rnd.append(inv)
        rounds.append(rnd)
        now = time.monotonic()
        # Stop before a round that would end after --seconds, counting the
        # traced passes (a round each, the 1-thread one possibly slower) as
        # part of the run, and before one that would pass the deadline.
        per_round = (now - t_start) / len(rounds)
        if len(rounds) >= MIN_ROUNDS and now - t_start + per_round * (3.5 if args.trace else 1.0) > args.seconds:
            break
        if now + per_round * (3.5 if args.trace else 1.2) + 10.0 > deadline:
            break

    invocations = [inv for r in rounds for inv in r]
    traces = {}
    if args.trace:
        for threads in (THREADS, 1):
            trace, invs = traced_pass(args.workload, threads, config, rundir, env, deadline, first)
            invocations += invs
            traces[threads] = (trace, invs)
    reference_checks(first, invocations, cfg, args.seed)
    invocations += probes
    for p in rundir.iterdir():
        if p.is_dir():
            shutil.rmtree(p)

    attempted = len(invocations)
    failed = sum(1 for inv in invocations if inv.problems)
    e2e = end_to_end(args.workload, cfg, rounds, probes)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "config": cfg,
        "environment": environment(args.seed, thread_env),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": sorted({p for inv in invocations for p in inv.problems}),
        "end_to_end": {WORK[args.workload][0] if k == "items_per_s" else k: {"unit": u, "value": v, **summary(s)}
                       for k, (s, u, v) in e2e.items()},
        "commands": {c: summary([inv.total_s for r in rounds for inv in r if inv.command == c and inv.manifest])
                     for c in COMMANDS[args.workload] if (c, THREADS) in first},
        "probes": [{"command": inv.command, "wall_s": inv.wall_s, "setup_s": inv.setup_s} for inv in probes],
        "rounds": [[{"command": inv.command, "wall_s": inv.wall_s, "maxrss_mb": inv.maxrss_mb,
                     "timings_s": inv.manifest and inv.manifest["timings_s"]} for inv in r] for r in rounds],
    }
    if args.trace and all(t is not None and all(i.manifest for i in invs) for t, invs in traces.values()):
        layers = layer_report(rounds, traces)
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["span_files"] = [os.path.relpath(rundir / f"spans-t{t}.json", ROOT) for t in traces]
        metrics = record["per_layer"]
    elif args.trace:
        metrics = {}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (s, u, v) in e2e.items()}
    (rundir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"leakmap benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}  run={os.path.relpath(rundir, ROOT)}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("config " + json.dumps(cfg, sort_keys=True))
    for name, s in record["end_to_end"].items():
        whole = f"  whole run {s['value']:.6g}" if s["value"] != s["median"] else ""
        print(f"  {name:<16} median {s['median']:<12.6g} {s['high_label']} {s['high']:<12.6g} {s['unit']:<4} n={s['n']}{whole}")
    print(f"  {'failed_frac':<16} {record['failed_frac']:.6g}  ({failed} of {attempted} invocations)")
    for name, s in record["commands"].items():
        print(f"  command {name:<14} total_s median {s['median']:.6g}  n={s['n']}")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<40} {m['value']:<14.6g} {m['unit']}")
    for p in record["problems"]:
        print(f"FAILED CHECK: {p}")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
