"""Experiment commands and the command-line front end (toy scales)."""

import collections
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import leakmap
from leakmap import ensemble, runner
from leakmap.cli import apply_thread_env, build_parser, main
from leakmap.config import ExperimentConfig, parse_config
from leakmap.ensemble import PhaseSpaceGrid, dwell_mask, escape_ensemble, exponential_tail_fit
from leakmap.formats import read_lcf, sha256_file
from leakmap.quantum import (
    QuantumParams,
    build_projector,
    build_unitary,
    open_propagator,
    resonance_spectrum,
    unitarity_defect,
)
from leakmap.runner import cmd_ftle_field, cmd_open_classical, cmd_quantum, cmd_scan, leak_scan, worker_count
from leakmap.standard_map import Leak, MapParams
from leakmap.tomography import HusimiTransform, state_entropies

from conftest import scan_inputs


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
    return dataclasses.replace(ExperimentConfig(), **base)


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


def manifest_paths(manifest):
    return {entry["path"] for entry in manifest["outputs"]}


def pgm_pixels(path):
    """Pixel matrix of a binary PGM as write_pgm writes it (rows along q)."""
    raw = path.read_bytes()
    magic, size, depth, pixels = raw.split(b"\n", 3)
    cols, rows = map(int, size.split())
    assert (magic, depth) == (b"P5", b"255")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(rows, cols)


# ---------------------------------------------------------------------------
# commands


def test_cmd_ftle_field_artifacts(tmp_path):
    out = tmp_path / "run"
    files = cmd_ftle_field(toy_config(out), None)
    assert all(p.exists() for p in files)
    manifest = check_manifest(out)
    assert manifest["command"] == "ftle-field"
    assert manifest_paths(manifest) == {"ftle_field.lcf", "ftle_field.pgm", "ftle_field.pgm.json", "strip_means.csv"}
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
    cmd(cfg, None)
    return check_manifest(outdir)


def test_non_finite_result_fails_before_any_file_is_written(tmp_path, monkeypatch):
    # a field of inf gives a field_mean that strict JSON cannot hold; the
    # run must fail with the key named and leave its directory empty
    monkeypatch.setattr(runner, "ftle_field", lambda grid, n, params: np.full((grid.n_q, grid.n_p), np.inf))
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="result 'field_mean'"):
        cmd_ftle_field(toy_config(out), None)
    assert out.is_dir()
    assert list(out.iterdir()) == []


def test_cli_ftle_field_on_the_closed_system_writes_its_field(tmp_path):
    # the closed-map field does not depend on the leak; a strip of width 0
    # holds no grid column, so every strip mean is undefined
    outs = {}
    for width in ("0.2", "0.0"):
        outs[width] = tmp_path / width
        argv = ["ftle-field", "--output", str(outs[width]), "--leak.width", width,
                "--classical.grid_q", "30", "--classical.grid_p", "30"]
        assert run_cli(argv) == 0
    assert sha256_file(outs["0.0"] / "ftle_field.lcf") == sha256_file(outs["0.2"] / "ftle_field.lcf")
    means = read_columns(outs["0.0"] / "strip_means.csv")["mean_ftle"]
    assert len(means) == ExperimentConfig().scan_positions
    assert means == ["nan"] * len(means)
    check_manifest(outs["0.0"])


def test_cmd_open_classical_artifacts(tmp_path):
    out = tmp_path / "run"
    # survival reaches P = 1e-3 with tolerable counting noise only on a
    # reasonably fine grid
    cmd_open_classical(toy_config(out, grid_q=160, grid_p=160), None)
    manifest = check_manifest(out)
    extra = manifest["extra"]
    cfg = parse_config(manifest["config"])
    assert (cfg.leak_center, cfg.leak_width) == (0.5, 0.2)
    assert extra["gamma"] > 0.0
    assert extra["n_c"] >= 0
    assert 0.99 <= extra["escape_fraction"] <= 1.0
    survival = (out / "survival.csv").read_text().splitlines()
    assert survival[0] == "n,P"
    assert len(survival) == 602  # header + n = 0 .. t_max
    assert manifest_paths(manifest) == {
        "survival.csv",
        "dwell_time_field.lcf",
        "dwell_time_field.pgm",
        "dwell_time_field.pgm.json",
        "dwell_ftle_field.lcf",
        "dwell_ftle_field.pgm",
        "dwell_ftle_field.pgm.json",
        "ftle_histogram.csv",
        "ftle_by_dwell.csv",
    }
    # the fields' mask is rebuilt from the dwell LCF and the manifest's n_c:
    # it is exactly the nonzero pixels of both images, and the dwell FTLE
    # is finite on it
    dwell = read_lcf(out / "dwell_time_field.lcf")
    assert dwell.shape == (160, 160)
    mask = dwell >= max(extra["n_c"], 1)
    assert 0 < mask.sum() < mask.size
    for name in ("dwell_time_field.pgm", "dwell_ftle_field.pgm"):
        assert np.array_equal(pgm_pixels(out / name) != 0, mask)
    assert np.isfinite(read_lcf(out / "dwell_ftle_field.lcf")[mask]).all()


def test_cmd_open_classical_fits_the_survival_tail_once(tmp_path, monkeypatch):
    # the short-dwell cutoff reuses the fit that the manifest reports
    fits = []

    def counting(p):
        fits.append(p)
        return exponential_tail_fit(p)

    for module in (ensemble, runner):
        monkeypatch.setattr(module, "exponential_tail_fit", counting)
    cmd_open_classical(toy_config(tmp_path, grid_q=160, grid_p=160), None)
    assert len(fits) == 1
    assert load_manifest(tmp_path)["extra"]["gamma"] == exponential_tail_fit(fits[0]).gamma


def test_cmd_open_classical_mean_dwell_ftle_is_the_sample_mean(tmp_path):
    # the plain mean of the dwell-FTLE samples that the histogram bins,
    # not a mean of bin midpoints
    cfg = toy_config(tmp_path, grid_q=160, grid_p=160)
    cmd_open_classical(cfg, None)
    extra = load_manifest(tmp_path)["extra"]
    grid = PhaseSpaceGrid(cfg.grid_q, cfg.grid_p)
    ens = escape_ensemble(grid, Leak(cfg.leak_center, cfg.leak_width), cfg.t_max, MapParams(cfg.k))
    assert extra["mean_dwell_ftle"] == float(ens.ftle[dwell_mask(ens, extra["n_c"])].mean())


def test_cmd_quantum_artifacts(tmp_path):
    out = tmp_path / "run"
    cmd_quantum(toy_config(out, leak_center=0.2), None)
    manifest = check_manifest(out)
    assert manifest_paths(manifest) == {
        "spectrum.csv",
        "mean_husimi.lcf",
        "mean_husimi.pgm",
        "mean_husimi.pgm.json",
        "wehrl_scatter.csv",
        "wehrl_bins.csv",
    }
    extra = manifest["extra"]
    assert parse_config(manifest["config"]).dim == 32
    assert extra["unitarity_defect"] <= 1e-12
    assert extra["masked_sites"] == 6  # floor(32 * 0.2) sites in the strip
    assert extra["n_zero_modes"] >= extra["masked_sites"]
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "k,re_z,im_z,theta,gamma,dwell_time"
    assert len(spectrum) == 33


@pytest.mark.parametrize("dim,n", [(16, 20), (64, 40)])
def test_cmd_quantum_integrates_s_w_on_the_entropy_grid(tmp_path, dim, n):
    # the 30^2 image grid makes the mean field only; every s_w is taken on
    # entropy_grid(N), and the manifest records the top states' change at 2n
    cmd_quantum(toy_config(tmp_path, dim=dim, leak_center=0.2, husimi_q=30, husimi_p=30), None)
    extra = load_manifest(tmp_path)["extra"]
    assert extra["entropy_grid"] == [n, n]
    qp = QuantumParams(dim, 10.0)
    res = resonance_spectrum(open_propagator(build_unitary(qp), build_projector(qp, Leak(0.2, 0.2))))
    s_w = state_entropies(res.vectors, HusimiTransform(dim, n, n))
    assert np.array_equal([float(x) for x in read_columns(tmp_path / "wehrl_scatter.csv")["s_w"]], s_w)
    check = np.abs(state_entropies(res.vectors[:, :5], HusimiTransform(dim, 2 * n, 2 * n)) - s_w[:5]).max()
    assert extra["entropy_grid_check"] == check
    assert 0.0 < check < 1e-3


def test_manifest_environment_names_the_linalg_build(tmp_path):
    cmd_ftle_field(toy_config(tmp_path), None)
    env = load_manifest(tmp_path)["environment"]
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    for lib in ("blas", "lapack"):
        assert env[lib] == {"name": deps[lib]["name"], "version": deps[lib]["version"]}


def test_cmd_scan_artifacts(tmp_path):
    out = tmp_path / "run"
    cmd_scan(toy_config(out, dim=16, t_max=400), None)
    manifest = check_manifest(out)
    assert manifest_paths(manifest) == {"scan.csv", "scan_errors.csv"}
    scan = (out / "scan.csv").read_text().splitlines()
    assert scan[0] == "q_L,mean_tau,mean_lambda,mean_T,mean_SW"
    assert len(scan) == 5
    first = scan[1].split(",")
    assert float(first[0]) == 0.0  # positions sample [0, 1) from 0
    extra = manifest["extra"]
    assert all(-1.0 <= extra[k] <= 1.0 for k in ("pearson_tau_T", "pearson_lambda_SW"))
    assert extra["unitarity_defect"] <= 1e-12
    # each reliability is that of the written columns
    columns = {**read_columns(out / "scan.csv"), **read_columns(out / "scan_errors.csv")}
    for k in ("tau", "lambda", "T", "SW"):
        mean, se = (np.array(columns[f"{c}_{k}"], dtype=float) for c in ("mean", "se"))
        assert extra[f"reliability_{k}"] == runner._reliability(mean, se)


def test_reliability_of_hand_built_columns():
    nan = math.nan
    se = np.full(4, 0.1)
    # var(1, 2, 3, 4; ddof=1) = 5/3
    assert runner._reliability(np.array([1.0, 2.0, 3.0, 4.0]), se) == pytest.approx(1.0 - 0.01 / (5.0 / 3.0))
    # a column whose spread its standard errors exceed reads negative
    assert runner._reliability(np.array([0.0, 1.0]), np.ones(2)) == pytest.approx(-1.0)
    # positions where the mean or its error is not finite are left out:
    # var(1, 5; ddof=1) = 8
    col = np.array([1.0, nan, 3.0, 5.0])
    assert runner._reliability(col, np.array([0.5, 0.5, nan, 0.5])) == pytest.approx(1.0 - 0.25 / 8.0)
    # the closed system's dwell column is NaN at every position
    assert runner._reliability(np.full(4, nan), np.full(4, nan)) is None
    # one finite position, or a column constant on the finite ones
    assert runner._reliability(np.array([nan, 2.0, nan]), np.zeros(3)) is None
    assert runner._reliability(np.array([0.3, 0.3, nan]), se[:3]) is None
    assert runner._reliability(np.array([2.0]), np.array([0.1])) is None


def test_pearson_of_hand_built_columns():
    nan = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # one position, a non-finite entry, a constant column: r is undefined
        assert runner._pearson([1.0], [2.0]) is None
        assert runner._pearson([1.0, nan, 3.0], [1.0, 2.0, 3.0]) is None
        assert runner._pearson([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]) is None
        assert runner._pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
        assert runner._pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)


def strict_json(path):
    def no_constant(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=no_constant)


@pytest.mark.parametrize("overrides", [dict(scan_positions=1), dict(leak_width=0.0)])
def test_cmd_scan_writes_null_for_undefined_correlations(tmp_path, overrides):
    # one position, or the empty leak: every position then runs the same
    # closed system, whose dwell column is NaN and whose other columns are
    # constant, so Pearson's r and every column's reliability are undefined
    out = tmp_path / "run"
    cmd_scan(toy_config(out, dim=16, t_max=400, **overrides), None)
    undefined = {"pearson_tau_T": None, "pearson_lambda_SW": None}
    undefined.update({f"reliability_{k}": None for k in ("tau", "lambda", "T", "SW")})
    extra = strict_json(out / "manifest.json")["extra"]
    assert {k: extra[k] for k in undefined} == undefined


def test_cmd_scan_one_spectrum_per_position(tmp_path, monkeypatch):
    calls = []

    def counting(m):
        calls.append(m.shape)
        return resonance_spectrum(m)

    monkeypatch.setattr(runner, "resonance_spectrum", counting)
    out = tmp_path / "run"
    cmd_scan(toy_config(out, dim=16, t_max=400), None)
    assert len(calls) == 4
    timings = load_manifest(out)["timings_s"]
    assert timings["quantum"] > 0.0 and timings["entropy"] > 0.0


def test_leak_scan_columns_are_the_per_position_statistics(tmp_path):
    cfg = toy_config(tmp_path, dim=16, t_max=400, scan_positions=3)
    scan, busy, groups = leak_scan(cfg, None, *scan_inputs(cfg))
    assert list(scan) == ["q_L", *runner.SCAN_COLUMNS]
    assert np.array_equal(scan["q_L"], np.arange(3) / 3)
    qp = QuantumParams(16, cfg.k)
    u = build_unitary(qp)
    cmd_scan(cfg, None)
    assert load_manifest(tmp_path)["extra"]["unitarity_defect"] == unitarity_defect(u)
    plan = HusimiTransform(16, 40, 40)

    def mean_se(x):
        return [x.mean(), x.std(ddof=1) / math.sqrt(x.size)]

    for i, center in enumerate(scan["q_L"]):
        leak = Leak(float(center), cfg.leak_width)
        ens = escape_ensemble(PhaseSpaceGrid(48, 48), leak, 400, MapParams(cfg.k))
        sel = ens.tau >= 1
        res = resonance_spectrum(open_propagator(u, build_projector(qp, leak)))
        s_w = state_entropies(res.vectors, plan)
        row = [
            *mean_se(ens.tau[sel].astype(float)),
            *mean_se(ens.ftle[sel]),
            1.0 - ens.escape_fraction,
            *mean_se(res.dwell),
            *mean_se(s_w),
        ]
        assert [scan[k][i] for k in runner.SCAN_COLUMNS] == row
    assert len(busy) == 3 and all(len(b) == len(runner.SCAN_STAGES) for b in busy)


def test_leak_scan_columns_do_not_depend_on_the_position_groups(tmp_path, monkeypatch):
    # 20 positions: groups of 1, of 3, one group of all, and at most 8 over
    # two workers, more groups than workers
    cfg = toy_config(tmp_path, dim=16, t_max=400, scan_positions=20)
    runs = {}
    for group_max, workers in ((1, None), (3, None), (20, None), (8, 2)):
        monkeypatch.setattr(runner, "_GROUP_MAX", group_max)
        scan, busy, groups = leak_scan(cfg, workers, *scan_inputs(cfg))
        runs[group_max] = scan
        assert [q for g in groups for q in g["q_L"]] == list(scan["q_L"])
        assert all(g["point_steps"] > 0 and g["seconds"] >= 0.0 for g in groups)
        sizes = [len(g["q_L"]) for g in groups]
        assert max(sizes) <= group_max and len(groups) >= runner.worker_count(workers, 20)
    assert [len(g["q_L"]) for g in groups] == [7, 7, 6]
    for scan in runs.values():
        for key in scan:
            assert np.array_equal(scan[key], runs[1][key], equal_nan=True), key


def test_cmd_scan_checks_unitarity_before_any_position(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(runner, "build_unitary", lambda qp: 1.001 * build_unitary(qp))
    monkeypatch.setattr(runner, "_orbits", lambda *args: calls.append(args))
    with pytest.raises(RuntimeError, match="propagator failed unitarity"):
        cmd_scan(toy_config(tmp_path, dim=16, t_max=400), None)
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_cmd_scan_checks_the_coherent_reference_before_any_position(tmp_path, monkeypatch):
    # a 2x2 Husimi grid cannot resolve the N = 4 coherent state
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(runner, "_orbits", counted("escape_ensemble", runner._orbits))
    monkeypatch.setattr(runner, "resonance_spectrum", counted("resonance_spectrum", resonance_spectrum))
    cfg = toy_config(tmp_path, dim=4, t_max=400, scan_husimi_q=2, scan_husimi_p=2)
    with pytest.raises(RuntimeError, match="degenerate coherent reference entropy"):
        cmd_scan(cfg, None)
    assert calls["escape_ensemble"] == 0
    assert calls["resonance_spectrum"] == 0
    assert list(tmp_path.iterdir()) == []


def count_plans(monkeypatch):
    """The (N, n_q, n_p) of every HusimiTransform built from now on."""
    built = []
    real = HusimiTransform.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(HusimiTransform, "__init__", counting)
    return built


def test_cmd_scan_builds_one_plan(tmp_path, monkeypatch):
    # every position's entropies use the plan built before the first task
    built = count_plans(monkeypatch)
    cmd_scan(toy_config(tmp_path, dim=16, t_max=400, scan_positions=5), None)
    assert built == [(16, 40, 40)]


@pytest.mark.parametrize("workers", [None, 2])
def test_cmd_quantum_builds_one_plan_per_grid(tmp_path, monkeypatch, workers):
    # the entropy grid (20^2 at N = 16), twice that grid and the image grid
    built = count_plans(monkeypatch)
    cmd_quantum(toy_config(tmp_path, dim=16, husimi_q=30, husimi_p=30), workers)
    assert built == [(16, 20, 20), (16, 40, 40), (16, 30, 30)]


def test_leak_scan_builds_no_position_input_before_the_first_task(tmp_path, monkeypatch):
    # each position builds its own projector, inside its task
    calls = []

    def counted(*args):
        calls.append(args)
        return build_projector(*args)

    def failing(*args):
        raise RuntimeError("first task ran")

    monkeypatch.setattr(runner, "build_projector", counted)
    monkeypatch.setattr(runner, "_orbits", failing)
    cfg = toy_config(tmp_path, dim=16, t_max=400, scan_positions=5)
    with pytest.raises(RuntimeError, match="first task ran"):
        leak_scan(cfg, None, *scan_inputs(cfg))
    assert calls == []


def test_manifest_stage_keys_read_by_the_benchmark(tmp_path):
    # perfbench reads these timings_s keys as its runner.stage.* metrics
    cmd_scan(toy_config(tmp_path / "scan", dim=16, t_max=400), None)
    manifest = load_manifest(tmp_path / "scan")
    stages = {"unitary", "husimi", "positions", "classical", "quantum", "entropy", "write", "manifest"}
    assert set(manifest["timings_s"]) == stages
    assert len(manifest["position_timings_s"]) == 4
    assert [set(g) for g in manifest["classical_groups"]] == [{"q_L", "seconds", "point_steps"}]
    # quantum adds each Husimi job's busy seconds, flat floats like the
    # stages (layer_metrics adds every timings_s value as a float)
    busy = {"plans_busy", "mean_field_busy", "entropies_busy", "grid_check_busy"}
    for workers in (None, 2):
        cmd_quantum(toy_config(tmp_path / f"quantum{workers}", dim=16), workers)
        timings = load_manifest(tmp_path / f"quantum{workers}")["timings_s"]
        assert set(timings) == {"unitary", "spectrum", "husimi", "write", "manifest"} | busy
        assert all(type(t) is float for t in timings.values())


def test_manifest_records_peak_memory_at_each_stage_end(tmp_path):
    # ru_maxrss is a high-water mark, so the stages' values never decrease;
    # it is a run record beside timings_s, not a result in extra
    cases = [
        ("ftle-field", cmd_ftle_field, None, ["ftle_field", "strip_scan", "write", "manifest"]),
        ("quantum", cmd_quantum, 2, ["unitary", "spectrum", "husimi", "write", "manifest"]),
        ("scan1", cmd_scan, None, ["unitary", "husimi", "positions", "write", "manifest"]),
        ("scan2", cmd_scan, 2, ["unitary", "husimi", "positions", "write", "manifest"]),
    ]
    for name, command, workers, stages in cases:
        command(toy_config(tmp_path / name, dim=16, t_max=400, grid_q=20, grid_p=20), workers)
        manifest = load_manifest(tmp_path / name)
        peak = manifest["peak_rss_mb"]
        # a scan's worker processes report theirs after the pool joins
        pooled = command is cmd_scan and manifest["environment"]["workers"] > 1
        assert set(peak) == set(stages) | ({"workers"} if pooled else set()), name
        if pooled:
            # a forked worker holds at least the interpreter and numpy
            assert peak["workers"] > 10.0
        assert set(stages) <= set(manifest["timings_s"]), name
        values = [peak[key] for key in stages]
        assert values == sorted(values) and values[0] > 0.0, name
        assert all(type(v) is float for v in peak.values()), name
        assert "peak_rss_mb" not in manifest["extra"]


@pytest.mark.parametrize(
    "command,keys",
    [
        ("ftle-field", {"field_mean"}),
        ("open-classical", {"n_c", "gamma", "tail_rms_residual", "escape_fraction", "mean_dwell_ftle"}),
        (
            "quantum",
            {"unitarity_defect", "masked_sites", "n_zero_modes", "entropy_grid", "entropy_grid_check", "max_s_w"},
        ),
        (
            "scan",
            {
                "unitarity_defect",
                "pearson_tau_T",
                "pearson_lambda_SW",
                "reliability_tau",
                "reliability_lambda",
                "reliability_T",
                "reliability_SW",
            },
        ),
    ],
)
def test_extra_holds_results_not_config(tmp_path, command, keys):
    # the config is recorded once, in manifest["config"]; extra holds what
    # the run computed (a 160^2 grid gives open-classical a survival tail
    # that its fit accepts)
    runner.COMMANDS[command](toy_config(tmp_path, dim=16, grid_q=160, grid_p=160), None)
    assert set(load_manifest(tmp_path)["extra"]) == keys


def test_cmd_quantum_checks_top_states_before_any_transform(tmp_path, monkeypatch, capsys):
    # N = 16 with the leak at 0.2 has 13 nonzero-dwell states
    calls = []
    real = HusimiTransform.overlap_field

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(HusimiTransform, "overlap_field", counting)
    cfg = toy_config(tmp_path, dim=16, leak_center=0.2, top_states=16, husimi_q=30, husimi_p=30)
    for workers in (None, 2):
        out = tmp_path / f"run{workers}"
        with pytest.raises(RuntimeError, match="only 13 nonzero-dwell states available, need m=16"):
            cmd_quantum(dataclasses.replace(cfg, output=str(out)), workers)
        assert calls == []
        assert not any(out.iterdir())
    # a dwell bin so narrow that the bin indices overflow int64 fails
    # before the top-states check (8 states, 20 asked for)
    out = tmp_path / "narrow"
    code = run_cli(
        ["quantum", "--output", str(out), "--quantum.dim", "8", "--husimi.dwell_bin", "1e-300",
         "--husimi.grid_q", "30", "--husimi.grid_p", "30"]
    )
    assert code == 2
    assert "bin width 1e-300 is too small" in capsys.readouterr().err
    assert calls == []
    assert not any(out.iterdir())
    # a run that passes its checks transforms the top states on the image
    # grid, every state and the coherent reference on the entropy grid, and
    # the top states and the reference again at twice that grid
    for workers in (None, 2):
        calls.clear()
        cmd_quantum(dataclasses.replace(cfg, top_states=5, output=str(tmp_path / f"ok{workers}")), workers)
        assert len(calls) == 16 + 2 * 5 + 2


def test_manifest_lists_only_this_runs_files(tmp_path):
    # one output directory reused by three runs: each manifest lists the
    # files its own command wrote, not what an earlier run left behind
    out = tmp_path / "shared"
    for cmd, cfg in (
        (cmd_quantum, toy_config(out, dim=16)),
        (cmd_quantum, toy_config(out, dim=16, leak_center=0.2)),
        (cmd_ftle_field, toy_config(out)),
    ):
        written = [str(p.relative_to(out)) for p in cmd(cfg, None) if p.name != "manifest.json"]
        outputs = load_manifest(out)["outputs"]
        assert [e["path"] for e in outputs] == sorted(written)
        for entry in outputs:
            assert sha256_file(out / entry["path"]) == entry["sha256"]
    assert (out / "spectrum.csv").is_file()  # left over, unlisted


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
    capsys.readouterr()
    assert run_cli(["quantum", "--no-dots", "1"]) == 1
    assert "no-dots: overrides must look like section.key" in capsys.readouterr().err
    assert run_cli(["quantum", "--quantum.dim"]) == 1  # missing value
    assert run_cli(["quantum", "--quantum.dims", "4"]) == 1  # unknown key
    capsys.readouterr()
    out = tmp_path / "never"
    assert run_cli(["quantum", "--output", str(out), "--quantum.dump_vectors", "true"]) == 1
    assert "quantum.dump_vectors: unknown key" in capsys.readouterr().err
    for key, value in (("leak.center", "nan"), ("husimi.dwell_bin", "nan"), ("husimi.dwell_bin", "inf")):
        assert run_cli(["quantum", "--output", str(out), f"--{key}", value]) == 1
        assert f"{key}:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_empty_output_fails_like_an_empty_run_output(tmp_path, monkeypatch, capsys):
    # --output "" sets run.output to "", which the config refuses; it must
    # not fall back to the config's output directory
    monkeypatch.chdir(tmp_path)
    for args in (["--output", ""], ["--run.output", ""]):
        assert run_cli(["ftle-field", *args]) == 1
        assert "run.output: must be one line without surrounding whitespace, got ''" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no out/, nor anything else


def test_cli_numerical_failure_exits_2(tmp_path, capsys):
    # horizon far too short for any exponential tail to be fit
    out = tmp_path / "short"
    code = run_cli(
        ["open-classical", "--output", str(out), "--classical.t_max", "5",
         "--classical.grid_q", "30", "--classical.grid_p", "30"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err
    # a 2x2 scan Husimi grid cannot resolve the N = 4 coherent reference
    # state (quantum integrates its entropies on entropy_grid(N) instead)
    out = tmp_path / "coarse"
    code = run_cli(
        ["scan", "--output", str(out), "--quantum.dim", "4", "--scan.husimi_grid_q", "2",
         "--scan.husimi_grid_p", "2", "--scan.positions", "1", "--classical.grid_q", "30",
         "--classical.grid_p", "30", "--classical.t_max", "50"]
    )
    assert code == 2
    assert "degenerate coherent reference entropy" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def read_columns(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return {key: [row[key] for row in rows] for key in rows[0]}


FINE_BINS = ["quantum", "--quantum.dim", "64", "--husimi.grid_q", "30", "--husimi.grid_p", "30",
             "--husimi.top_states", "5", "--husimi.dwell_bin"]


def test_wehrl_bins_are_the_scatter_bins(tmp_path):
    # at a dwell bin of 1e-14 the largest index is about 9e14, where the
    # bin center (index + 1/2) * width no longer divides back to its index
    out = tmp_path / "fine"
    assert run_cli([*FINE_BINS, "1e-14", "--output", str(out)]) == 0
    scatter = read_columns(out / "wehrl_scatter.csv")
    bins = read_columns(out / "wehrl_bins.csv")
    assert max(int(b) for b in bins["bin_index"]) > 2**49
    per_bin = collections.Counter(int(b) for b in scatter["bin_index"])
    assert dict(zip(map(int, bins["bin_index"]), map(int, bins["count"]))) == per_bin
    # every center lies strictly inside its bin, in exact arithmetic
    width = Fraction(1e-14)
    for index, center in zip(bins["bin_index"], bins["dwell_center"]):
        assert int(index) * width < Fraction(float(center)) < (int(index) + 1) * width


def test_dwell_bin_past_exact_centers_exits_2(tmp_path, capsys):
    # at 1e-15 the largest index is about 9e15 > 2^52, where 5 of 52 bin
    # centers used to land on or outside their bins
    out = tmp_path / "finer"
    assert run_cli([*FINE_BINS, "1e-15", "--output", str(out)]) == 2
    assert "bin width 1e-15 is too small for the largest dwell time" in capsys.readouterr().err
    assert not any(out.iterdir())


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


def test_cli_commands_are_the_runner_commands():
    # the CLI declares its command choices before it may import the runner
    (command,) = [action for action in build_parser()._actions if action.dest == "command"]
    assert list(command.choices) == list(runner.COMMANDS)


def test_worker_count_is_a_pure_function(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("worker_count started a process pool")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
    assert worker_count(None, 10) == 1
    assert 1 <= worker_count(10**6, 10**6) <= len(os.sched_getaffinity(0))

    for cpus, requested, tasks, expect in (
        (4, None, 10, 1),  # unset: in-process
        (4, 1, 10, 1),
        (16, 8, 3, 3),  # above the task count
        (2, 10**6, 50, 2),  # above the usable CPUs
        (2, 2, 0, 1),
    ):
        monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
        assert worker_count(requested, tasks) == expect


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


@pytest.mark.parametrize("cmd,tasks", [(cmd_scan, 4)])
def test_huge_worker_request_is_capped_and_gathered_in_order(tmp_path, monkeypatch, cmd, tasks):
    # an extreme request starts no process here: the pool is a recorder
    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    cmd(toy_config(tmp_path / "one", dim=16, t_max=400), None)
    cmd(toy_config(tmp_path / "many", dim=16, t_max=400), workers=10**6)
    expect = min(tasks, len(os.sched_getaffinity(0)))
    assert RecordingPool.started == ([expect] if expect > 1 else [])
    one, many = load_manifest(tmp_path / "one"), load_manifest(tmp_path / "many")
    assert many["environment"]["workers"] == expect
    assert one["environment"]["workers"] == 1
    assert many["outputs"] == one["outputs"]


def test_cmd_quantum_starts_no_pool(tmp_path, monkeypatch):
    # quantum runs in the calling thread at any worker request, whatever
    # the CPUs: no process and no thread, even while its entropy job runs
    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 4)
    threads = threading.active_count()
    seen = []

    def entropies(*args):
        seen.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
        return state_entropies(*args)

    monkeypatch.setattr(runner, "state_entropies", entropies)
    cmd_quantum(toy_config(tmp_path, dim=16), workers=10**6)
    assert RecordingPool.started == []
    assert seen == [(True, threads)] * 2
    assert threading.active_count() == threads
    assert load_manifest(tmp_path)["environment"]["workers"] == 1


@pytest.mark.parametrize(
    "n_grid,overrides,error",
    [
        # N |K| far past where build_unitary stays unitary
        (None, {"k": 3000.0, "dim": 128}, "propagator failed unitarity"),
        # an entropy grid too coarse for the coherent reference
        (2, {}, "degenerate coherent reference entropy"),
        # one that fails its plan build, and the top-states check that
        # comes before it (13 nonzero-dwell states at N = 16)
        (1, {}, "grid needs >= 2 cells per axis"),
        (1, {"top_states": 16}, "only 13 nonzero-dwell states available"),
    ],
)
def test_cmd_quantum_first_error_does_not_depend_on_worker_count(tmp_path, monkeypatch, n_grid, overrides, error):
    if n_grid is not None:
        monkeypatch.setattr(runner, "entropy_grid", lambda N: n_grid)
    errors = {}
    for workers in (None, 2):
        out = tmp_path / f"w{workers}"
        cfg = toy_config(out, **{"dim": 16, "leak_center": 0.2, **overrides})
        with pytest.raises((RuntimeError, ValueError), match=error) as exc:
            cmd_quantum(cfg, workers)
        errors[workers] = (type(exc.value), str(exc.value))
        assert not any(out.iterdir())
    assert errors[None] == errors[2]


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"dim": 16, "leak_width": 0.0}, "leak strip of width 0 centered at q = 0.2 absorbs no site k/N at N = 16"),
        # the default strip [0.1, 0.3) lies between the sites 0, 1/3, 2/3
        ({"dim": 3}, "leak strip of width 0.2 centered at q = 0.2 absorbs no site k/N at N = 3"),
    ],
)
def test_cmd_quantum_on_a_closed_system_fails_before_the_spectrum(tmp_path, monkeypatch, overrides, message):
    spectra = []
    monkeypatch.setattr(runner, "resonance_spectrum", lambda u: spectra.append(u))
    errors = {}
    for workers in (None, 2):
        out = tmp_path / f"w{workers}"
        cfg = toy_config(out, **{"leak_center": 0.2, **overrides})
        with pytest.raises(RuntimeError, match=re.escape(message)) as exc:
            cmd_quantum(cfg, workers)
        errors[workers] = str(exc.value)
        assert not any(out.iterdir())
    assert errors[None] == errors[2]
    assert spectra == []


def test_scan_after_quantum_in_one_process_writes_the_same_bytes(tmp_path):
    # quantum leaves no thread behind for scan to fork beside
    cfg = toy_config(tmp_path, dim=16, t_max=400)
    threads = threading.active_count()
    cmd_quantum(dataclasses.replace(cfg, output=str(tmp_path / "quantum")), 2)
    assert threading.active_count() == threads
    for workers in (2, None):
        cmd_scan(dataclasses.replace(cfg, output=str(tmp_path / f"scan{workers}")), workers)
    assert load_manifest(tmp_path / "scan2")["outputs"] == load_manifest(tmp_path / "scanNone")["outputs"]


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
    tasks = {"scan": 4}.get(command, 1)
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
        # one line and one record per classical group; each position's
        # classical seconds are its share of its group's
        groups = manifests[2]["classical_groups"]
        workers = manifests[2]["environment"]["workers"]
        assert [g["q_L"] for g in groups] == ([[0.0, 0.25], [0.5, 0.75]] if workers == 2 else [[0.0, 0.25, 0.5, 0.75]])
        lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("scan: classical")]
        assert [ln.split()[2] for ln in lines] == [f"q_L={g['q_L'][0]:g}..{g['q_L'][-1]:g}:" for g in groups]
        share = [g["seconds"] / len(g["q_L"]) for g in groups for _ in g["q_L"]]
        assert [p["classical"] for p in per_position] == pytest.approx(share, abs=1e-6)


def test_numerical_failure_in_a_worker_exits_2(tmp_path):
    # a scan position that fails inside a worker process: the error
    # crosses the pool, the command exits 2 and writes no manifest
    out = tmp_path / "positions"
    code = (
        "import os, sys\n"
        "from leakmap.cli import apply_thread_env, main\n"
        "apply_thread_env()\n"
        "from leakmap import runner\n"
        "parent = os.getpid()\n"
        "def failing(*args):\n"
        "    raise RuntimeError('position failed in the ' + ('parent' if os.getpid() == parent else 'worker'))\n"
        "runner.state_entropies = failing\n"
        f"sys.exit(main(['scan', '--output', {str(out)!r}, '--quantum.dim', '16', '--classical.grid_q', '20',"
        " '--classical.grid_p', '20', '--classical.t_max', '50', '--scan.positions', '2',"
        " '--scan.husimi_grid_q', '20', '--scan.husimi_grid_p', '20']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(2), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    where = "worker" if len(os.sched_getaffinity(0)) > 1 else "parent"
    assert f"error: position failed in the {where}" in proc.stderr
    assert not (out / "manifest.json").exists()
