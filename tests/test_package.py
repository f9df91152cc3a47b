"""The package surface: public name lists, the numpy-free top level and
the counts of settable options and public names."""

import ast
import importlib
import pkgutil
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
MAX_PUBLIC_NAMES = 53


def test_public_names_do_not_grow():
    modules = [m.name for m in pkgutil.iter_modules(leakmap.__path__)]
    total = sum(len(getattr(importlib.import_module(f"leakmap.{name}"), "__all__", ())) for name in modules)
    assert total <= MAX_PUBLIC_NAMES
