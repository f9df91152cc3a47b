#!/usr/bin/env python3
"""Print the sha256 of every file the four leakmap commands write, every
result each manifest records and every config value it ran with.

    python tools/output_digests.py [ROOT]

Runs `ftle-field`, `open-classical`, `quantum` and `scan` through
`python -m leakmap.cli`, with ROOT/src on PYTHONPATH (ROOT defaults to the
tree this script belongs to), at one fixed small config: classical 120^2
grid, t_max 600, 10 FTLE steps, leak at 0.3 of width 0.2, N = 128 with a
150^2 Husimi grid, and a scan over 6 positions on 60^2 Husimi grids.
`ftle-field` runs a second time on the closed system (`--leak.width 0.0`,
labelled `ftle-field-closed`), whose strip means are undefined but whose
field is the first run's.  `quantum` runs a second time on a 300^2
Husimi grid (`quantum-blocked`), whose 90 000 cells the transform takes
in more than one block of rows.  The scan runs a second time on the closed
system (`scan-closed`), where every dwell time is infinite and the mean
dwell time undefined, and a third time over 20 positions (`scan-many`),
more than one classical group of positions per worker can hold.  Each run
happens once with LEAKMAP_THREADS unset and once at 2.  The script prints
the sorted `label path sha256` lines of the manifests, plus one
`label extra:KEY VALUE` line per key of each manifest's `extra` results,
VALUE being `json.dumps(value, separators=(",", ":"))` (it holds no
space), and one `label config:SECTION.KEY VALUE` line per key of each
manifest's serialized `config` (all but `run.output`, which names a
temporary directory), and exits 1 when the two worker settings disagree.
Every output byte and every `extra` value is a pure function of the
config, so two trees compute the same thing from the same config exactly
when their printed lines are equal, and a `diff` names each file, each
result and each config value that moved:

    python tools/output_digests.py > change.txt
    python tools/output_digests.py path/to/other/checkout > other.txt
    diff other.txt change.txt
"""

from __future__ import annotations

import configparser
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# label -> command and its overrides of CONFIG
RUNS = {
    "ftle-field": ["ftle-field"],
    "ftle-field-closed": ["ftle-field", "--leak.width", "0.0"],
    "open-classical": ["open-classical"],
    "quantum": ["quantum"],
    "quantum-blocked": ["quantum", "--husimi.grid_q", "300", "--husimi.grid_p", "300"],
    "scan": ["scan"],
    "scan-closed": ["scan", "--leak.width", "0.0"],
    "scan-many": ["scan", "--scan.positions", "20"],
}

CONFIG = """\
[leak]
center = 0.3
width = 0.2

[classical]
grid_q = 120
grid_p = 120
ftle_steps = 10
t_max = 600

[quantum]
dim = 128

[husimi]
grid_q = 150
grid_p = 150

[scan]
positions = 6
husimi_grid_q = 60
husimi_grid_p = 60
"""

# LEAKMAP_THREADS values compared; None leaves the variable unset.
WORKER_SETTINGS = (None, "2")


def digests(root: Path, workdir: Path, threads: str | None) -> list:
    """`label path sha256` lines of every run at one worker setting, a
    `label extra:KEY VALUE` line per key of its manifest's `extra` and a
    `label config:SECTION.KEY VALUE` line per key of its `config` but
    `run.output`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("LEAKMAP_THREADS", None)
    if threads is not None:
        env["LEAKMAP_THREADS"] = threads
    cfg = workdir / "digests.cfg"
    cfg.write_text(CONFIG)
    lines = []
    for label, args in RUNS.items():
        out = workdir / f"threads-{threads or 'unset'}" / label
        proc = subprocess.run(
            [sys.executable, "-m", "leakmap.cli", *args, "--config", str(cfg), "--output", str(out)],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.exit(f"{label} (LEAKMAP_THREADS={threads}) exited {proc.returncode}:\n{proc.stderr}")
        manifest = json.loads((out / "manifest.json").read_text())
        lines += [f"{label} {e['path']} {e['sha256']}" for e in manifest["outputs"]]
        lines += [f"{label} extra:{k} {json.dumps(v, separators=(',', ':'))}" for k, v in manifest["extra"].items()]
        config = configparser.ConfigParser(interpolation=None)
        config.read_string(manifest["config"])
        lines += [
            f"{label} config:{section}.{key} {value}"
            for section in config.sections()
            for key, value in config.items(section)
            if (section, key) != ("run", "output")
        ]
    return sorted(lines)


def main(argv: list) -> int:
    if len(argv) > 1:
        print("usage: output_digests.py [ROOT]", file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    if not (root / "src" / "leakmap").is_dir():
        print(f"no src/leakmap under {root}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        runs = {threads: digests(root, Path(tmp), threads) for threads in WORKER_SETTINGS}
    first, second = runs.values()
    print("\n".join(first))
    if first != second:
        a, b = (f"LEAKMAP_THREADS={t or 'unset'}" for t in WORKER_SETTINGS)
        for line in sorted(set(first) ^ set(second)):
            print(f"{a if line in first else b} only: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
