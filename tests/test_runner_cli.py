"""Experiment commands and the command-line front end (toy scales)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leakmap
from leakmap import quantum, runner
from leakmap.cli import apply_thread_env, main
from leakmap.config import default_config
from leakmap.ensemble import PhaseSpaceGrid, leak_scan_classical
from leakmap.formats import read_lcf, sha256_file, write_csv
from leakmap.quantum import QuantumParams
from leakmap.standard_map import MapParams
from leakmap.tomography import leak_scan
from leakmap.runner import cmd_ftle_field, cmd_open_classical, cmd_quantum, cmd_scan, worker_count


def toy_config(outdir, **kw):
    base = dict(
        grid_q=48,
        grid_p=48,
        ftle_steps=10,
        t_max=600,
        leak_center=0.5,
        leak_width=0.2,
        dim=32,
        husimi_q=60,
        husimi_p=60,
        top_states=5,
        dwell_bin=0.08,
        scan_positions=4,
        scan_husimi_q=40,
        scan_husimi_p=40,
        output=str(outdir),
    )
    base.update(kw)
    return dataclasses.replace(default_config(), **base)


def load_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def check_manifest(outdir):
    """Every listed output exists with the recorded size and checksum."""
    manifest = load_manifest(outdir)
    listed = set()
    for entry in manifest["outputs"]:
        p = outdir / entry["path"]
        assert p.is_file()
        assert p.stat().st_size == entry["bytes"]
        assert sha256_file(p) == entry["sha256"]
        listed.add(entry["path"])
    on_disk = {
        str(p.relative_to(outdir))
        for p in outdir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert listed == on_disk
    return manifest


# ---------------------------------------------------------------------------
# commands


def test_cmd_ftle_field_artifacts(tmp_path):
    out = tmp_path / "run"
    files = cmd_ftle_field(toy_config(out))
    assert all(p.exists() for p in files)
    manifest = check_manifest(out)
    assert manifest["command"] == "ftle-field"
    field = read_lcf(out / "ftle_field.lcf")
    assert field.shape == (48, 48)
    assert manifest["extra"]["field_mean"] == pytest.approx(field.mean())
    lines = (out / "strip_means.csv").read_text().splitlines()
    assert lines[0] == "q_L,mean_ftle"
    assert len(lines) == 5  # header + 4 positions


def test_cmd_ftle_field_deterministic_reruns(tmp_path):
    m1 = check_manifest_after(cmd_ftle_field, toy_config(tmp_path / "a"), tmp_path / "a")
    m2 = check_manifest_after(cmd_ftle_field, toy_config(tmp_path / "b"), tmp_path / "b")
    assert m1["outputs"] == m2["outputs"]  # identical bytes and checksums


def check_manifest_after(cmd, cfg, outdir):
    cmd(cfg)
    return check_manifest(outdir)


def test_cmd_open_classical_artifacts(tmp_path):
    out = tmp_path / "run"
    # survival reaches P = 1e-3 with tolerable counting noise only on a
    # reasonably fine grid
    cmd_open_classical(toy_config(out, grid_q=160, grid_p=160))
    manifest = check_manifest(out)
    extra = manifest["extra"]
    assert extra["leak"] == [0.5, 0.2]
    assert extra["gamma"] > 0.0
    assert extra["n_c"] >= 0
    assert 0.99 <= extra["escape_fraction"] <= 1.0
    survival = (out / "survival.csv").read_text().splitlines()
    assert survival[0] == "n,P"
    assert len(survival) == 602  # header + n = 0 .. t_max
    dwell = read_lcf(out / "dwell_time_field.lcf")
    assert dwell.shape == (160, 160)
    for name in (
        "dwell_time_field.pgm",
        "dwell_ftle_field.pgm",
        "ftle_histogram.csv",
        "ftle_by_dwell.csv",
    ):
        assert (out / name).is_file()


def test_cmd_quantum_artifacts(tmp_path):
    out = tmp_path / "run"
    cmd_quantum(toy_config(out, leak_center=0.2))
    manifest = check_manifest(out)
    extra = manifest["extra"]
    assert extra["N"] == 32
    assert extra["unitarity_defect"] <= 1e-12
    assert extra["masked_sites"] == 6  # floor(32 * 0.2) sites in the strip
    assert extra["n_zero_modes"] >= extra["masked_sites"]
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "k,re_z,im_z,theta,gamma,dwell_time"
    assert len(spectrum) == 33
    assert not (out / "schur_vectors.lcf").exists()


def test_cmd_quantum_dump_vectors(tmp_path):
    out = tmp_path / "run"
    cmd_quantum(toy_config(out, dim=16, dump_vectors=True))
    vecs = read_lcf(out / "schur_vectors.lcf")
    assert vecs.shape == (16, 32)  # one row per state, interleaved re/im
    norms = vecs[:, 0::2] ** 2 + vecs[:, 1::2] ** 2
    np.testing.assert_allclose(norms.sum(axis=1), 1.0, rtol=1e-12)


def test_cmd_scan_artifacts(tmp_path):
    out = tmp_path / "run"
    cmd_scan(toy_config(out, dim=16, t_max=400))
    manifest = check_manifest(out)
    scan = (out / "scan.csv").read_text().splitlines()
    assert scan[0] == "q_L,mean_tau,mean_lambda,mean_T,mean_SW"
    assert len(scan) == 5
    first = scan[1].split(",")
    assert float(first[0]) == 0.0  # positions sample [0, 1) from 0
    corr = json.loads((out / "correlations.json").read_text())
    assert set(corr) == {"pearson_tau_T", "pearson_lambda_SW"}
    assert all(-1.0 <= v <= 1.0 for v in corr.values())
    assert manifest["extra"]["pearson_tau_T"] == corr["pearson_tau_T"]
    assert (out / "scan_errors.csv").is_file()


def test_cmd_scan_one_spectrum_per_position(tmp_path, monkeypatch):
    calls = []
    real = quantum.resonance_spectrum

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(quantum, "resonance_spectrum", counting)
    out = tmp_path / "run"
    cmd_scan(toy_config(out, dim=16, t_max=400))
    assert len(calls) == 4
    timings = load_manifest(out)["timings_s"]
    assert timings["quantum"] > 0.0 and timings["entropy"] > 0.0


def test_cmd_scan_matches_the_serial_library_scans(tmp_path):
    # the command's per-position tasks and the library's serial scans share
    # their statistics code, so the written columns agree byte for byte
    out = tmp_path / "run"
    cfg = toy_config(out, dim=16, t_max=400)
    cmd_scan(cfg)
    positions = np.arange(4) / 4
    cl = leak_scan_classical(positions, cfg.leak_width, PhaseSpaceGrid(48, 48), 400, MapParams(cfg.k))
    qs, es = leak_scan(QuantumParams(16, cfg.k), positions, cfg.leak_width, (40, 40))
    expect = write_csv(
        tmp_path / "scan_errors.csv",
        ["q_L", "se_tau", "se_lambda", "se_T", "se_SW", "unescaped_fraction"],
        [positions, cl.se_tau, cl.se_ftle, qs.se_dwell, es.se_s_w, cl.unescaped_fraction],
    )
    assert expect.read_bytes() == (out / "scan_errors.csv").read_bytes()
    expect = write_csv(
        tmp_path / "scan.csv",
        ["q_L", "mean_tau", "mean_lambda", "mean_T", "mean_SW"],
        [positions, cl.mean_tau, cl.mean_ftle, qs.mean_dwell, es.mean_s_w],
    )
    assert expect.read_bytes() == (out / "scan.csv").read_bytes()


def test_manifest_lists_only_this_runs_files(tmp_path):
    # one output directory reused by three runs: each manifest lists the
    # files its own command wrote, not what an earlier run left behind
    out = tmp_path / "shared"
    for cmd, cfg in (
        (cmd_quantum, toy_config(out, dim=16, dump_vectors=True)),
        (cmd_quantum, toy_config(out, dim=16)),
        (cmd_ftle_field, toy_config(out)),
    ):
        written = [str(p.relative_to(out)) for p in cmd(cfg) if p.name != "manifest.json"]
        outputs = load_manifest(out)["outputs"]
        assert [e["path"] for e in outputs] == sorted(written)
        for entry in outputs:
            assert sha256_file(out / entry["path"]) == entry["sha256"]
    assert (out / "schur_vectors.lcf").is_file()  # left over, unlisted


# ---------------------------------------------------------------------------
# command line


def run_cli(args):
    return main(args)


def test_cli_runs_quantum_with_overrides(tmp_path, capsys):
    out = tmp_path / "q"
    code = run_cli(
        [
            "quantum",
            "--output", str(out),
            "--quantum.dim", "16",
            "--husimi.grid_q=40",
            "--husimi.grid_p=40",
            "--husimi.top_states", "3",
        ]
    )
    assert code == 0
    assert (out / "manifest.json").is_file()
    assert "wrote" in capsys.readouterr().out


def test_cli_config_file_plus_override(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("[classical]\ngrid_q = 30\ngrid_p = 30\nftle_steps = 5\n")
    out = tmp_path / "f"
    code = run_cli(
        ["ftle-field", "--config", str(cfg_path), "--output", str(out), "--scan.positions", "3"]
    )
    assert code == 0
    field = read_lcf(out / "ftle_field.lcf")
    assert field.shape == (30, 30)
    assert len((out / "strip_means.csv").read_text().splitlines()) == 4


def test_cli_config_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[quantum]\ndim = huge\n")
    assert run_cli(["quantum", "--config", str(bad)]) == 1
    assert "quantum.dim" in capsys.readouterr().err
    assert run_cli(["quantum", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert run_cli(["quantum", "--no-dots", "1"]) == 1
    assert run_cli(["quantum", "--quantum.dim"]) == 1  # missing value
    assert run_cli(["quantum", "--quantum.dims", "4"]) == 1  # unknown key


def test_cli_numerical_failure_exits_2(tmp_path, capsys):
    # horizon far too short for any exponential tail to be fit
    out = tmp_path / "short"
    code = run_cli(
        ["open-classical", "--output", str(out), "--classical.t_max", "5",
         "--classical.grid_q", "30", "--classical.grid_p", "30"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err
    # a 2x2 Husimi grid cannot resolve the N = 4 coherent reference state
    out = tmp_path / "coarse"
    code = run_cli(
        ["quantum", "--output", str(out), "--quantum.dim", "4", "--husimi.grid_q", "2",
         "--husimi.grid_p", "2", "--husimi.top_states", "1", "--leak.width", "0.3"]
    )
    assert code == 2
    assert "degenerate coherent reference entropy" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_thread_env(monkeypatch):
    # BLAS runs on one thread in every process; LEAKMAP_THREADS asks for
    # worker processes instead
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.setenv(var, "4")
    monkeypatch.delenv("LEAKMAP_THREADS", raising=False)
    assert apply_thread_env() is None
    assert os.environ["OMP_NUM_THREADS"] == "1"
    monkeypatch.setenv("LEAKMAP_THREADS", "3")
    assert apply_thread_env() == 3
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("LEAKMAP_THREADS", "zero")
    with pytest.raises(ValueError):
        apply_thread_env()
    monkeypatch.setenv("LEAKMAP_THREADS", "0")
    with pytest.raises(ValueError):
        apply_thread_env()


# ---------------------------------------------------------------------------
# worker processes


def test_worker_count_is_a_pure_function(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("worker_count started a process pool")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
    assert worker_count(None, 10, cpus=4) == 1  # unset: in-process
    assert worker_count(1, 10, cpus=4) == 1
    assert worker_count(8, 3, cpus=16) == 3  # above the task count
    assert worker_count(10**6, 50, cpus=2) == 2  # above the usable CPUs
    assert worker_count(2, 0, cpus=2) == 1
    assert worker_count(None, 10) == 1
    assert 1 <= worker_count(10**6, 10**6) <= len(os.sched_getaffinity(0))


class RecordingPool:
    """In-process stand-in for the process pool: records the worker count
    asked for and runs the tasks through the same installed task function."""

    started: list = []

    def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
        RecordingPool.started.append(max_workers)
        initializer(*initargs)

    def map(self, fn, tasks):
        return map(fn, tasks)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("cmd,tasks", [(cmd_scan, 4), (cmd_quantum, 16)])
def test_huge_worker_request_is_capped_and_gathered_in_order(tmp_path, monkeypatch, cmd, tasks):
    # an extreme request starts no process here: the pool is a recorder
    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    cmd(toy_config(tmp_path / "one", dim=16, t_max=400))
    cmd(toy_config(tmp_path / "many", dim=16, t_max=400), workers=10**6)
    expect = min(tasks, len(os.sched_getaffinity(0)))
    assert RecordingPool.started == ([expect] if expect > 1 else [])
    one, many = load_manifest(tmp_path / "one"), load_manifest(tmp_path / "many")
    assert many["environment"]["workers"] == expect
    assert one["environment"]["workers"] == 1
    assert many["outputs"] == one["outputs"]


def test_killed_worker_breaks_the_pool_instead_of_hanging():
    code = (
        "import os\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "from leakmap.runner import _task_results\n"
        "try:\n"
        "    with _task_results(lambda i: os._exit(3), 2, 2) as results:\n"
        "        list(results)\n"
        "except BrokenProcessPool:\n"
        "    print('broken')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=cli_env(None), capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "broken", out.stderr


def cli_env(threads):
    env = dict(os.environ)
    src = str(Path(leakmap.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("LEAKMAP_THREADS", None)
    if threads is not None:
        env["LEAKMAP_THREADS"] = str(threads)
    return env


def run_cli_process(args, threads):
    return subprocess.run(
        [sys.executable, "-m", "leakmap.cli", *args], env=cli_env(threads), capture_output=True, text=True, timeout=300
    )


SMALL = [
    "--classical.grid_q", "120", "--classical.grid_p", "120", "--classical.t_max", "600",
    "--leak.center", "0.3", "--quantum.dim", "32", "--husimi.grid_q", "60", "--husimi.grid_p", "60",
    "--husimi.top_states", "5", "--scan.positions", "4", "--scan.husimi_grid_q", "40",
    "--scan.husimi_grid_p", "40",
]


@pytest.mark.parametrize("command", ["ftle-field", "open-classical", "quantum", "scan"])
def test_output_bytes_do_not_depend_on_worker_count(tmp_path, command):
    manifests = {}
    for threads in (1, 2):
        out = tmp_path / f"w{threads}"
        proc = run_cli_process([command, "--output", str(out), *SMALL], threads)
        assert proc.returncode == 0, proc.stderr
        manifests[threads] = check_manifest(out)
    assert manifests[2]["outputs"] == manifests[1]["outputs"]
    tasks = {"quantum": 32, "scan": 4}.get(command, 1)
    for threads, manifest in manifests.items():
        env = manifest["environment"]
        assert env["workers"] == min(threads, tasks, len(os.sched_getaffinity(0)))
        assert env["thread_env"]["OMP_NUM_THREADS"] == "1"
        assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if command == "scan":
        lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("scan: position")]
        assert [ln.split()[2] for ln in lines] == ["1/4", "2/4", "3/4", "4/4"]
        per_position = manifests[2]["position_timings_s"]
        assert [p["q_L"] for p in per_position] == [0.0, 0.25, 0.5, 0.75]
        for key in ("classical", "quantum", "entropy"):
            total = sum(p[key] for p in per_position)
            assert manifests[2]["timings_s"][key] == pytest.approx(total, abs=1e-5)


def test_numerical_failure_in_a_worker_exits_2(tmp_path):
    # the degenerate coherent reference of test_cli_numerical_failure_exits_2,
    # now raised inside the workers that run the blocks of states
    out = tmp_path / "coarse"
    proc = run_cli_process(
        ["quantum", "--output", str(out), "--quantum.dim", "4", "--husimi.grid_q", "2",
         "--husimi.grid_p", "2", "--husimi.top_states", "1", "--leak.width", "0.3"],
        2,
    )
    assert proc.returncode == 2
    assert "degenerate coherent reference entropy" in proc.stderr
    assert not (out / "manifest.json").exists()
