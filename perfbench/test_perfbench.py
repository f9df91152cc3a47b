"""Self-tests of the benchmark at tiny sizes (about 45 s in all).

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402  (needs leakmap on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Whole workloads at the probe sizes.
TINY = run.PROBE_SIZES


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    saved = dict(os.environ)
    for workload, sizes in TINY.items():
        monkeypatch.setitem(run.SIZES, workload, sizes)
    monkeypatch.setattr(run, "RUNS", tmp_path / "runs")
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    yield
    os.environ.clear()
    os.environ.update(saved)


def bench(capsys, workload, trace=0, seed=7):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.COMMANDS))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SETUP_PROBES + len(run.COMMANDS[workload]) * (4 if trace else 2)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_exact_counts_repeat_for_one_seed(tiny, capsys):
    counts = ("quantum.resonance_spectrum_calls", "tomography.transforms", "ensemble.trajectory_steps")
    a, b = (bench(capsys, "scan", trace=1)["metrics"] for _ in range(2))
    assert all(a[c]["value"] == b[c]["value"] > 0 for c in counts)
    assert a["quantum.resonance_spectrum_calls"]["value"] == 2 * TINY["scan"]["scan_positions"]


def test_corrupted_output_byte_counts_as_failed(tiny, capsys, monkeypatch):
    invoke = run.invoke
    calls = []

    def corrupting(command, config, outdir, env, deadline):
        inv = invoke(command, config, outdir, env, deadline)
        calls.append(inv)
        if len(calls) == run.SETUP_PROBES + 2:
            target = outdir / "spectrum.csv"
            data = bytearray(target.read_bytes())
            data[len(data) // 2] ^= 1
            target.write_bytes(bytes(data))
        return inv

    monkeypatch.setattr(run, "invoke", corrupting)
    result = bench(capsys, "quantum")
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == run.SETUP_PROBES + 2


def test_failed_reference_check_fails_every_run_of_the_command(tiny, capsys, monkeypatch):
    monkeypatch.setitem(checks.CHECKS, "ftle-field", lambda outdir, cfg, rng: ["forced failure"])
    result = bench(capsys, "classical")
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] == run.SETUP_PROBES + 4


def test_reference_checks_catch_a_wrong_value(tiny, tmp_path):
    cfg = run.draw_config("classical", 3)
    out = tmp_path / "oc"
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    subprocess.run(
        [sys.executable, "-m", "leakmap.cli", "open-classical", "--config", str(run.write_config(cfg, tmp_path / "c.cfg")),
         "--output", str(out)],
        env=env, check=True, capture_output=True,
    )
    rng = np.random.default_rng(0)
    assert checks.check_open_classical(out, cfg, rng) == []
    assert checks.check_open_classical(out, {**cfg, "leak_center": cfg["leak_center"] + 0.05}, rng)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classical", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
