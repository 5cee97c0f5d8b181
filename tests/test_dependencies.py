"""The package imports only the standard library, numpy and itself.

numpy is the one declared dependency; scipy, sympy or jsonschema may be
installed where the tests run, but an import of them would break a plain
``pip install .``.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hoferlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hoferlab"}


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    bad = sorted({f"{m.relative_to(PACKAGE)}: {root}" for m in modules
                  for root in imported_roots(ast.parse(m.read_text(encoding="utf-8")))
                  if root not in ALLOWED})
    assert not bad, bad
