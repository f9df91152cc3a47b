#!/usr/bin/env python3
"""Run alternated perfbench pairs of two leakmap trees and judge them.

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \
        --pairs N --seconds S --seed0 K

Pair i runs `perfbench/run.py --workload W --seed K+i --seconds S
--trace 0` once in each tree, each tree with its own `perfbench/run.py`
and sources; pairs 1, 3, ... run the parent first and pairs 2, 4, ... the
change, so a drift of the host's speed over the session falls on both
sides alike.  Every run's last stdout line (the JSON result) gives the
end-to-end metrics; its `result.json` gives each round's manifest
`timings_s`.

For each end-to-end metric of ROOT/BENCHMARK.json (ROOT is CHANGE_ROOT)
the script prints each side's median and quartiles (the inclusive
method of `statistics.quantiles`), the pairs the change wins (ties count
for neither) and two verdicts:

* gain: the change wins at least 9 of 10 pairs run and the medians differ
  in its favour by more than the parent's interquartile range;
* bound: the change's median is no worse than the parent's by more than
  the metric's `bound` (a fraction of the parent's median).  A metric
  whose parent runs spread wider than the bound (IQR over median) reads
  "unresolved" unless it is inside the bound and every change run beats
  every parent run.

Then each side's failed invocations out of those attempted, and the
median over runs of each `timings_s` key's per-run median, per side.
Exits 1 when a run fails or is not `correct`, or a metric breaks
its bound; else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def quartiles(xs: list) -> tuple:
    """(Q1, median, Q3) of a sample, inclusive method."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Judge one metric over pairs (parent[i], change[i]).

    better is "lower" or "higher".  Returns the pair wins, each side's
    quartiles, `gain` (at least WIN_SHARE of the pairs won and the
    medians apart by more than the parent's IQR, in the change's favour),
    `worse` (the change's median worsening as a fraction of the parent's;
    negative is better) and `bound_status`: "within", "regression" or
    "unresolved" (parent IQR over median above the bound, and not every
    change run better than every parent run)."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, non-empty sides, got {len(parent)} and {len(change)} runs")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    iqr = qp[2] - qp[0]
    gap = sign * (qp[1] - qc[1])
    worse = -gap / abs(qp[1])
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse > bound:
        status = "regression"
    elif iqr / abs(qp[1]) > bound and not every_run_better:
        status = "unresolved"
    else:
        status = "within"
    return {
        "pairs": len(parent),
        "wins": wins,
        "parent": qp,
        "change": qc,
        "parent_iqr": iqr,
        "gain": wins >= WIN_SHARE * len(parent) and gap > iqr,
        "worse": worse,
        "bound_status": status,
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in root: its JSON result and its result.json."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {}, "rounds": [], "error": out.stderr.strip()[-500:]}
    result = json.loads(lines[-1])
    rundir = next(w.split("=", 1)[1] for w in lines[0].split() if w.startswith("run="))
    record = json.loads((root / rundir / "result.json").read_text())
    return {**result, "rounds": record["rounds"]}


def stage_medians(runs: list) -> dict:
    """Median over runs of each timings_s key's per-run median."""
    per_run = []
    for r in runs:
        keys = {}
        for inv in (inv for rnd in r["rounds"] for inv in rnd):
            for key, t in (inv["timings_s"] or {}).items():
                keys.setdefault(f"{inv['command']}.{key}", []).append(t)
        per_run.append({k: statistics.median(v) for k, v in keys.items()})
    names = sorted({k for m in per_run for k in m})
    return {k: statistics.median([m[k] for m in per_run if k in m]) for k in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(r)
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in r["metrics"].items())
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: correct={r['correct']} failed={r['failed']} {values}"
                  f"{r.get('error', '')}", file=sys.stderr, flush=True)

    bad = [f"{side} seed {args.seed0 + i}" for side, rs in runs.items() for i, r in enumerate(rs) if not r["correct"]]
    print(f"workload {args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}, parent first in odd-numbered pairs")
    broken = False
    for m in metrics:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"]) if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            print(f"{name}: no pair has this metric")
            continue
        v = verdict([p for p, _ in pairs], [c for _, c in pairs], m["better"], m["bound"])
        broken = broken or v["bound_status"] == "regression"
        (p1, pm, p3), (c1, cm, c3) = v["parent"], v["change"]
        print(f"{name} ({m['unit']}, {m['better']} is better): parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
              f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  change better in {v['wins']}/{v['pairs']}  "
              f"gain {'yes' if v['gain'] else 'no'} (parent IQR {v['parent_iqr']:.6g})  "
              f"bound {m['bound']:g}: worsening {v['worse']:+.1%}, {v['bound_status']}")
    for side, rs in runs.items():
        failed, attempted = (sum(r.get(k) or 0 for r in rs) for k in ("failed", "attempted"))
        print(f"{side}: {failed} of {attempted} invocations failed")
    stages = {side: stage_medians(rs) for side, rs in runs.items()}
    for key in sorted(set(stages["parent"]) | set(stages["change"])):
        p, c = stages["parent"].get(key), stages["change"].get(key)
        print(f"timings_s {key}: parent {p if p is None else f'{p:.6g}'}  change {c if c is None else f'{c:.6g}'}")
    for b in bad:
        print(f"FAILED RUN: {b}")
    return 1 if bad or broken else 0


if __name__ == "__main__":
    sys.exit(main())
