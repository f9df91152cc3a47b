"""tools/output_digests.py: output sha256, `extra` and `config` lines at
two worker settings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digests_of_this_tree_agree_across_worker_settings(capsys):
    assert load_tool().main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == sorted(lines)
    fields = [line.split(" ") for line in lines]
    assert all(len(f) == 3 for f in fields)
    assert all(len(f[2]) == 64 for f in fields if not f[1].startswith(("extra:", "config:")))
    labels = [
        "ftle-field",
        "ftle-field-closed",
        "open-classical",
        "quantum",
        "quantum-blocked",
        "scan",
        "scan-closed",
        "scan-many",
    ]
    assert {f[0] for f in fields} == set(labels)
    assert ["scan", "scan.csv"] in [f[:2] for f in fields]
    assert ["scan-closed", "scan.csv"] in [f[:2] for f in fields]
    # each run's results get one line per key, named by the key
    extra = {(f[0], f[1]): f[2] for f in fields if f[1].startswith("extra:")}
    assert {label for label, _ in extra} == set(labels)
    assert ("ftle-field", "extra:field_mean") in extra
    assert ("open-classical", "extra:mean_dwell_ftle") in extra
    assert extra["scan-closed", "extra:pearson_tau_T"] == "null"
    # the closed-map FTLE field does not depend on the leak width
    digest = {(f[0], f[1]): f[2] for f in fields}
    for path in ("ftle_field.lcf", "ftle_field.pgm"):
        assert digest["ftle-field-closed", path] == digest["ftle-field", path]
    assert digest["ftle-field-closed", "strip_means.csv"] != digest["ftle-field", "strip_means.csv"]
    # each run's config gets one line per key but run.output, which names a
    # temporary directory
    config = {(f[0], f[1]): f[2] for f in fields if f[1].startswith("config:")}
    for label in labels:
        keys = {key for run, key in config if run == label}
        assert len(keys) == 15 and "config:run.output" not in keys, label
    assert config["quantum", "config:quantum.dim"] == "128"
    assert config["quantum", "config:map.k"] == "10.0"
    assert config["scan-closed", "config:leak.width"] == "0.0"
    assert config["scan-many", "config:scan.positions"] == "20"
    assert config["quantum-blocked", "config:husimi.grid_q"] == "300"


def test_disagreeing_worker_settings_exit_1(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "digests", lambda root, workdir, threads: [f"scan scan.csv {threads or 'unset'}"])
    assert tool.main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == "scan scan.csv unset\n"
    assert "LEAKMAP_THREADS=2 only: scan scan.csv 2" in captured.err
    assert "LEAKMAP_THREADS=unset only: scan scan.csv unset" in captured.err
