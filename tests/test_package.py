"""The package surface: public name lists, the numpy-free top level, the
README's library example and the counts of settable options and public
names."""

import ast
import importlib
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


# Settable options: ExperimentConfig fields plus every defaulted parameter
# or dataclass field default under src/leakmap.
MAX_OPTIONS = 17


def count_options(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
            count += len(fields) if node.name == "ExperimentConfig" else sum(f.value is not None for f in fields)
    return count


def test_settable_options_do_not_grow():
    package = Path(leakmap.__file__).parent
    assert sum(count_options(path.read_text()) for path in package.glob("*.py")) <= MAX_OPTIONS


# Public names: the summed length of every submodule's __all__.
MAX_PUBLIC_NAMES = 52


def test_public_names_do_not_grow():
    modules = [m.name for m in pkgutil.iter_modules(leakmap.__path__)]
    total = sum(len(getattr(importlib.import_module(f"leakmap.{name}"), "__all__", ())) for name in modules)
    assert total <= MAX_PUBLIC_NAMES
