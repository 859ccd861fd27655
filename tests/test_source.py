"""Source scan of ``src/qphase``: no unused module-level import, no private
module-level name that no code in the package uses, no ``expm`` call, and no
SciPy anywhere.

Every propagator goes through ``dynamics.interval_propagators``, and every
search runs on the NumPy ``_solvers.minimize_box``, so qphase needs only NumPy
at runtime: no module imports ``scipy`` or names it, at import or inside a
function.  SciPy serves the tests and the benchmark as a reference.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qphase")
FILES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))
# the package's __init__ imports only to re-export
MODULES = [f for f in FILES if f != "__init__"]


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


def private_definitions(tree: ast.Module) -> list:
    """Private (single-underscore) names a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def used_names() -> set:
    """Every name that code in the package reads, bare or as an attribute."""
    used = set()
    for module in FILES:
        for node in ast.walk(parse(module)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("module", FILES)
def test_no_unused_private_name(module):
    unused = sorted(set(private_definitions(parse(module))) - used_names())
    assert not unused, f"{module}.py defines {unused}, which no code in src/qphase uses"


@pytest.mark.parametrize("module", MODULES)
def test_no_expm_call(module):
    calls = [
        node.lineno
        for node in ast.walk(parse(module))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "expm" or getattr(node.func, "attr", None) == "expm")
    ]
    assert not calls, f"{module}.py calls expm on lines {calls}"


def scipy_references(tree: ast.Module) -> list:
    """(line, what) of every ``scipy`` import, name or module-name string anywhere in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append((node.lineno, f"from {node.module}"))
        elif isinstance(node, ast.Name) and node.id == "scipy":
            found.append((node.lineno, "scipy"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.split(".")[0] == "scipy":
            found.append((node.lineno, repr(node.value)))
    return found


@pytest.mark.parametrize("module", FILES)
def test_no_scipy_submodule_at_import(module):
    """Stricter than its name: no SciPy reference at all, function bodies included."""
    found = scipy_references(parse(module))
    assert not found, f"{module}.py refers to SciPy: {found}"
