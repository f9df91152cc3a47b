"""In-process traced run of leakmap commands, and per-layer metrics from it.

Run as a worker process:

    python3 perfbench/tracing.py PLAN.json RESULT.json

PLAN.json holds {"threads": n, "trace_id": str, "commands": [argv, ...]}.
The worker pins LEAKMAP_THREADS to n before numpy loads, times the import
of the command layer, wraps the public functions of every leakmap module
(and the Husimi transform's methods) in span recorders, runs each argv
through `leakmap.cli.main`, and writes the spans and counts to RESULT.json.
Spans stay in memory until the run ends.  Nothing under src/ is changed:
the wrappers replace module attributes in this process only.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "runner", "ensemble", "standard_map", "quantum", "tomography", "formats")

# Top-level writers of the formats layer; write_field_csv nests write_csv.
WRITERS = ("formats.write_csv", "formats.write_field_csv", "formats.write_lcf", "formats.write_pgm")

STAGES = (
    "ftle_field",
    "strip_scan",
    "evolve",
    "survival",
    "fields",
    "unitary",
    "spectrum",
    "husimi",
    "classical",
    "quantum",
    "entropy",
    "write",
)


def _paths(written):
    return written if isinstance(written, (list, tuple)) else [written]


# Counts taken at a span boundary: span name -> (counter, f(args, result)).
COUNTERS = {
    "ensemble.escape_ensemble": ("ensemble.trajectory_steps", lambda a, r: int(r.tau.sum())),
    "quantum.resonance_spectrum": ("quantum.zero_modes", lambda a, r: r.n_zero_modes),
    "formats.write_csv": ("formats.csv_rows", lambda a, r: len(a[2][0])),
}


class Tracer:
    """Span recorder: each span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            if name in WRITERS and (span[3] is None or self.spans[span[3]][0] not in WRITERS):
                self.counts["formats.bytes_written"] += sum(Path(p).stat().st_size for p in _paths(result))
            return result

        return traced

    def install(self):
        """Replace every public leakmap function, wherever a module binds
        it (including dict values such as runner.COMMANDS), by a wrapper."""
        modules = {name: importlib.import_module(f"leakmap.{name}") for name in LAYERS}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == mod.__name__:
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in wrapped:
                            value[key] = wrapped[id(item)]
        husimi = modules["tomography"].HusimiTransform
        for method in ("__init__", "overlap_field", "field"):
            setattr(husimi, method, self.wrap(f"tomography.HusimiTransform.{method}", getattr(husimi, method)))


def worker(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    os.environ["LEAKMAP_THREADS"] = str(plan["threads"])
    from leakmap import cli

    cli.apply_thread_env()
    t0 = time.perf_counter()
    importlib.import_module("leakmap.runner")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    codes = [cli.main(argv) for argv in plan["commands"]]
    result = {
        "trace_id": plan["trace_id"],
        "threads": plan["threads"],
        "thread_env": {k: v for k, v in os.environ.items() if k == "LEAKMAP_THREADS" or k.endswith("_NUM_THREADS")},
        "import_s": import_s,
        "exit_codes": codes,
        "counts": dict(tracer.counts),
        "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans],
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


def layer_metrics(trace: dict, manifests: list) -> dict:
    """Per-layer metrics of one traced pass.

    A function's time is the sum of its span durations; `<layer>.self_s`
    is the layer's span time minus the time its child spans cover.  Stage
    times come from the manifests' own timer.
    """
    spans = trace["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[k]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for k, s in enumerate(spans):
        total[s["name"]] += dur[k]
        calls[s["name"]] += 1
        self_s[s["name"].split(".")[0]] += dur[k] - child[k]
    counts = trace["counts"]

    def outer(names):
        return sum(
            dur[k]
            for k, s in enumerate(spans)
            if s["name"] in names and (s["parent"] is None or spans[s["parent"]]["name"] not in names)
        )

    steps = counts.get("ensemble.trajectory_steps", 0)
    transforms = calls["tomography.HusimiTransform.overlap_field"]
    write_s = outer(WRITERS)
    bytes_written = counts.get("formats.bytes_written", 0)
    stage = defaultdict(float)
    for m in manifests:
        for key, value in m["timings_s"].items():
            stage[key] += value

    out = {"cli.import_s": (trace["import_s"], "s")}
    for key in STAGES:
        out[f"runner.stage.{key}_s"] = (stage[key], "s")
    out["runner.manifest_s"] = (stage["manifest"], "s")
    out.update(
        {
            "ensemble.escape_ensemble_s": (total["ensemble.escape_ensemble"], "s"),
            "ensemble.escape_ensemble_calls": (calls["ensemble.escape_ensemble"], "count"),
            "ensemble.trajectory_steps": (steps, "count"),
            "ensemble.ns_per_trajectory_step": (1e9 * total["ensemble.escape_ensemble"] / steps if steps else 0.0, "ns"),
            "ensemble.ftle_field_s": (total["ensemble.ftle_field"], "s"),
            "ensemble.tail_fit_s": (total["ensemble.exponential_tail_fit"], "s"),
            "quantum.build_unitary_s": (total["quantum.build_unitary"], "s"),
            "quantum.resonance_spectrum_s": (total["quantum.resonance_spectrum"], "s"),
            "quantum.resonance_spectrum_calls": (calls["quantum.resonance_spectrum"], "count"),
            "quantum.zero_modes": (counts.get("quantum.zero_modes", 0), "count"),
            "tomography.plan_build_s": (total["tomography.HusimiTransform.__init__"], "s"),
            "tomography.plans_built": (calls["tomography.HusimiTransform.__init__"], "count"),
            "tomography.transforms": (transforms, "count"),
            "tomography.transform_ms": (
                1e3 * total["tomography.HusimiTransform.overlap_field"] / transforms if transforms else 0.0,
                "ms",
            ),
            "tomography.state_entropies_s": (total["tomography.state_entropies"], "s"),
            "tomography.mean_husimi_s": (total["tomography.mean_husimi"], "s"),
            "formats.write_s": (write_s, "s"),
            "formats.csv_rows": (counts.get("formats.csv_rows", 0), "count"),
            "formats.bytes_written": (bytes_written, "B"),
            "formats.write_mb_per_s": (bytes_written / 1e6 / write_s if write_s else 0.0, "MB/s"),
            "formats.sha256_s": (total["formats.sha256_file"], "s"),
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    return out


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1], sys.argv[2]))
