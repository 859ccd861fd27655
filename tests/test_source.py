"""Source scan of ``src/qphase``: no unused module-level import, no ``expm``
call, and no SciPy submodule loaded at import.

Every propagator goes through ``dynamics.interval_propagators``.  SciPy's
optimisers are imported on first call (``qphase._solvers``), so importing
qphase loads no SciPy submodule; ``cli`` imports the bare ``scipy`` package
only for the manifest's version string.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qphase")
FILES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))
# the package's __init__ imports only to re-export
MODULES = [f for f in FILES if f != "__init__"]
SCIPY_AT_IMPORT = {("cli", "scipy")}


def parse(module: str) -> ast.Module:
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        return ast.parse(fh.read())


def imported_names(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    tree = parse(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used]
    assert not unused, f"{module}.py imports {unused} without using them"


@pytest.mark.parametrize("module", MODULES)
def test_no_expm_call(module):
    calls = [
        node.lineno
        for node in ast.walk(parse(module))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "expm" or getattr(node.func, "attr", None) == "expm")
    ]
    assert not calls, f"{module}.py calls expm on lines {calls}"


def import_time_nodes(node):
    """Statements run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from import_time_nodes(child)


@pytest.mark.parametrize("module", FILES)
def test_no_scipy_submodule_at_import(module):
    found = []
    for node in import_time_nodes(parse(module)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append((node.lineno, f"from {node.module}"))
    found = [(line, name) for line, name in found if (module, name) not in SCIPY_AT_IMPORT]
    assert not found, f"{module}.py imports SciPy at import time: {found}"
