"""The package surface: public name lists, the numpy-free top level, the
README's library example and the counts of settable options and public
names."""

import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import leakmap


def test_every_public_name_resolves_in_its_submodule_only():
    # each submodule's __all__ is the only list of public names; the
    # package root re-exports none of them
    modules = [m.name for m in pkgutil.iter_modules(leakmap.__path__)]
    assert {"standard_map", "ensemble", "quantum", "tomography", "formats", "config", "runner", "cli"} <= set(modules)
    for name in modules:
        mod = importlib.import_module(f"leakmap.{name}")
        for attr in getattr(mod, "__all__", ()):
            assert hasattr(mod, attr), f"leakmap.{name}.__all__ lists missing {attr!r}"
            assert not hasattr(leakmap, attr), f"leakmap re-exports {attr!r}"


def test_top_level_import_loads_no_numpy():
    # the CLI pins BLAS thread counts after `import leakmap`, before numpy
    src = str(Path(leakmap.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import leakmap; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_readme_library_example_runs(capsys):
    # the example is the README's account of the library's calls, so it
    # must run as written: its three prints, one line each
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


# The counters of tools/size_report.py, so that these ceilings and its
# report count the same way.
TOOL = Path(__file__).resolve().parents[1] / "tools" / "size_report.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("size_report", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tool = load_tool()
LIBRARY = sorted(Path(leakmap.__file__).parent.glob("*.py"))

# Settable options: ExperimentConfig fields plus every defaulted parameter
# or dataclass field default under src/leakmap.
MAX_OPTIONS = 17


def test_settable_options_do_not_grow():
    assert sum(tool.count_options(path.read_text()) for path in LIBRARY) <= MAX_OPTIONS


# Public names: the summed length of every submodule's __all__.
MAX_PUBLIC_NAMES = 52


def test_public_names_do_not_grow():
    assert sum(tool.public_names(path.read_text()) for path in LIBRARY) <= MAX_PUBLIC_NAMES
