#!/usr/bin/env python3
"""Print the size of the leakmap library and its tests.

    python tools/size_report.py [ROOT]

For every library module (ROOT/src/leakmap/*.py) and every test file
(ROOT/tests/*.py) the script prints its lines and its code lines (lines
that are not blank, not a comment and not part of a docstring), then the
totals of each, the public names (the summed `__all__` lists of the
library modules) and the settable options (`count_options`).  ROOT
defaults to the tree this script belongs to.  `tests/test_package.py`
holds the public names and settable options under ceilings with the
counters defined here.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    """Lines that are neither blank, nor only a comment, nor part of a
    module, class or function docstring."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstring
    )


def count_options(source: str) -> int:
    """Settable options: ExperimentConfig fields plus every defaulted
    parameter or dataclass field default."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
            count += len(fields) if node.name == "ExperimentConfig" else sum(f.value is not None for f in fields)
    return count


def public_names(source: str) -> int:
    """Length of a module's `__all__` list (0 without one)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    return 0


def report(root: Path) -> list:
    lines = []
    for label, folder in (("library", root / "src" / "leakmap"), ("tests", root / "tests")):
        total = code = 0
        for path in sorted(folder.glob("*.py")):
            source = path.read_text()
            n, c = len(source.splitlines()), code_lines(source)
            total, code = total + n, code + c
            lines.append(f"{path.relative_to(root)}  lines {n}  code {c}")
        lines.append(f"{label}  lines {total}  code {code}")
    sources = [path.read_text() for path in sorted((root / "src" / "leakmap").glob("*.py"))]
    lines.append(f"public names {sum(map(public_names, sources))}")
    lines.append(f"settable options {sum(map(count_options, sources))}")
    return lines


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    print("\n".join(report(root)))
