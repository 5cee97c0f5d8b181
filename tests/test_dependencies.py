"""The package imports only the standard library, numpy and itself, in layers.

numpy is the one declared dependency; scipy, sympy or jsonschema may be
installed where the tests run, but an import of them would break a plain
``pip install .``.

Inside the package each module imports only modules of earlier layers in
``LAYERS``, so paths (``hampath``) never depend on the functionals that
measure them (``lengths``), and grids and their spatial sizes (``grid``)
never depend on the expression DSL (``expr``). The modules of the ``experiments`` subpackage
form one layer and may import each other.

Only ``cli`` opens files: the library takes and returns text and objects.
Only ``cli`` and ``flow`` (``StepErrorWarning``) call ``warnings.warn``.
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


LAYERS = ("errors", "grid", "expr", "hampath", "lengths", "flow", "snowflake", "corpus",
          "experiments", "verify", "cli")
EXEMPT = ("__init__.py", "__main__.py")


def imported_layers(path):
    """Layer of every hoferlab module that the module at ``path`` imports."""
    package = ["hoferlab", *path.relative_to(PACKAGE).parent.parts]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            base = base + (node.module.split(".") if node.module else [])
            targets = [base] if node.module else [base + [a.name] for a in node.names]
        else:
            continue
        yield from (t[1] for t in targets if t[0] == "hoferlab" and len(t) > 1)


def test_modules_import_only_earlier_layers():
    modules = [m for m in sorted(PACKAGE.rglob("*.py"))
               if m.relative_to(PACKAGE).as_posix() not in EXEMPT]
    assert modules
    bad = []
    for m in modules:
        own = m.relative_to(PACKAGE).parts[0].removesuffix(".py")
        for layer in imported_layers(m):
            if layer == own == "experiments":
                continue
            if LAYERS.index(layer) >= LAYERS.index(own):
                bad.append(f"{m.relative_to(PACKAGE)} imports {layer}")
    assert not bad, bad


def calls(tree, name):
    """Line of every call of ``name`` in ``tree``, bare or as an attribute (``io.open``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == name
                    or isinstance(f, ast.Attribute) and f.attr == name):
                yield node.lineno


def calls_outside(name, owners):
    """``module:line`` of every call of ``name`` in a module not named in ``owners``."""
    modules = [m for m in sorted(PACKAGE.rglob("*.py"))
               if m.relative_to(PACKAGE).as_posix() not in owners]
    assert modules
    return [f"{m.relative_to(PACKAGE)}:{line}" for m in modules
            for line in calls(ast.parse(m.read_text(encoding="utf-8")), name)]


def test_only_the_cli_opens_files():
    bad = calls_outside("open", ("cli.py",))
    assert not bad, bad


def test_only_the_cli_and_flow_warn():
    # the length functions never warn; the CLI warns on outside input and the
    # flow on a missed step-error tolerance
    bad = calls_outside("warn", ("cli.py", "flow.py"))
    assert not bad, bad
