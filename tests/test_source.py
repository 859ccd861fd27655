"""Source scan of ``src/qphase``: no unused module-level import, no ``expm`` call.

Every propagator goes through ``dynamics.interval_propagators``.  The
benchmark's tracer (``perfbench/tracing.py``) looks ``expm`` up by name in
``dynamics`` and ``pontryagin`` and ``expm_frechet`` in ``pontryagin``, so
those three imports stay although nothing calls them.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qphase")
TRACED = {("dynamics", "expm"), ("pontryagin", "expm"), ("pontryagin", "expm_frechet")}
# the package's __init__ imports only to re-export
MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


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
    unused = [name for name in imported_names(tree) if name not in used and (module, name) not in TRACED]
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
