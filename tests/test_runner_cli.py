"""Experiment commands and the command-line front end (toy scales)."""

import dataclasses
import json
import os

import numpy as np
import pytest

from leakmap import quantum
from leakmap.cli import apply_thread_env, main
from leakmap.config import default_config
from leakmap.formats import read_lcf, sha256_file
from leakmap.runner import cmd_ftle_field, cmd_open_classical, cmd_quantum, cmd_scan


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


def test_thread_env(monkeypatch):
    monkeypatch.delenv("LEAKMAP_THREADS", raising=False)
    assert apply_thread_env() is None
    monkeypatch.setenv("LEAKMAP_THREADS", "3")
    assert apply_thread_env() == 3
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    monkeypatch.setenv("LEAKMAP_THREADS", "zero")
    with pytest.raises(ValueError):
        apply_thread_env()
    monkeypatch.setenv("LEAKMAP_THREADS", "0")
    with pytest.raises(ValueError):
        apply_thread_env()
