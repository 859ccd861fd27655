"""Source scan of ``src/qphase``: no unused module-level import, no private
module-level name that no code in the package uses, no ``expm`` call, no
SciPy anywhere, no ``raise`` of a builtin exception class outside the
modules that ROADMAP item 9 has yet to convert to ``QPhaseError``, and no
indented JSON written outside ``serialize``.

Every propagator goes through ``dynamics.interval_propagators``, and every
search runs on the NumPy ``_solvers.minimize_box``, so qphase needs only NumPy
at runtime: no module imports ``scipy`` or names it, at import or inside a
function.  SciPy serves the tests and the benchmark as a reference.
"""

import ast
import builtins
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


# modules that still raise builtin ValueErrors (ROADMAP item 9); each leaves
# this set when its sites raise QPhaseErrors, and every other module is scanned
UNCONVERTED = {"geometry"}
# (module, function) pairs allowed a builtin raise: the expm stand-in the
# benchmark's tracer wraps raises NotImplementedError if anything calls it
BUILTIN_RAISE_EXEMPT = {("_solvers", "never_called")}


def builtin_raises(tree: ast.Module, module: str) -> list:
    """(line, name) of each ``raise`` of a builtin Exception subclass outside the exempt functions.

    ``SystemExit`` and ``KeyboardInterrupt`` derive from BaseException alone:
    they end the program and are not errors, so ``cli.main`` may raise one.
    """
    exempt = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and (module, func.name) in BUILTIN_RAISE_EXEMPT
        for node in ast.walk(func)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None or id(node) in exempt:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        cls = getattr(builtins, target.id, None) if isinstance(target, ast.Name) else None
        if isinstance(cls, type) and issubclass(cls, Exception):
            found.append((node.lineno, target.id))
    return sorted(found)


@pytest.mark.parametrize("module", [m for m in FILES if m not in UNCONVERTED])
def test_no_builtin_raise(module):
    found = builtin_raises(parse(module), module)
    assert not found, f"{module}.py raises builtin exceptions, not QPhaseErrors: {found}"


@pytest.mark.parametrize("module", sorted(UNCONVERTED))
def test_unconverted_modules_still_raise_builtins(module):
    assert builtin_raises(parse(module), module), f"{module}.py is converted: drop it from UNCONVERTED"


def test_builtin_raise_scan_sees_every_form():
    tree = ast.parse(
        "def f(x):\n"
        "    if x: raise ValueError('x')\n"
        "    if x: raise IndexError\n"
        "    try: pass\n"
        "    except OSError as exc: raise RuntimeError() from exc\n"
        "    raise SystemExit(0)\n"
        "def never_called():\n"
        "    raise NotImplementedError\n"
    )
    errors = [(2, "ValueError"), (3, "IndexError"), (5, "RuntimeError")]
    assert builtin_raises(tree, "m") == errors + [(8, "NotImplementedError")]
    assert builtin_raises(tree, "_solvers") == errors


# pontryagin validates its transfer problem in one place: a solver builds a
# _TransferProblem and never checks the grid or normalises an endpoint itself
PROBLEM_CONSTRUCTOR = "_TransferProblem.__init__"


def validation_sites(tree: ast.Module) -> list:
    """(line, qualified function) of each ``check_grid`` call and ``NormalizationError`` raise in ``tree``."""
    found = []

    def named(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and named(child.func) == "check_grid":
                found.append((child.lineno, scope))
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if named(exc) == "NormalizationError":
                    found.append((child.lineno, scope))
            visit(child, scope)

    visit(tree, "")
    return found


def test_pontryagin_validates_in_the_problem_constructor_alone():
    sites = validation_sites(parse("pontryagin"))
    assert sites, "pontryagin no longer checks its grid or endpoints"
    stray = [(line, scope) for line, scope in sites if scope != PROBLEM_CONSTRUCTOR]
    assert not stray, f"pontryagin validates outside {PROBLEM_CONSTRUCTOR}: {stray}"


def test_validation_scan_sees_every_form():
    tree = ast.parse(
        "g = check_grid([0.0, 1.0])\n"
        "class P:\n"
        "    def __init__(self, grid):\n"
        "        self.grid = dynamics.check_grid(grid)\n"
        "        raise NormalizationError('x')\n"
        "def solve(grid):\n"
        "    def inner():\n"
        "        raise NormalizationError\n"
        "    return check_grid(grid)\n"
    )
    assert validation_sites(tree) == [(1, ""), (4, "P.__init__"), (5, "P.__init__"), (8, "solve.inner"), (9, "solve")]


# every artifact goes through serialize's one JSON encoder: no other module
# calls json.dump or asks for indented text (a compact json.dumps line is fine)
JSON_WRITER = "serialize"


def json_file_writes(tree: ast.Module) -> list:
    """(line, what) of each call of a function named ``dump`` and each call passing ``indent=``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "dump":
            found.append((node.lineno, "dump"))
        found += [(node.lineno, "indent=") for kw in node.keywords if kw.arg == "indent"]
    return found


@pytest.mark.parametrize("module", [m for m in FILES if m != JSON_WRITER])
def test_json_artifacts_only_through_serialize(module):
    found = json_file_writes(parse(module))
    assert not found, f"{module}.py writes JSON outside serialize: {found}"


def test_json_write_scan_sees_every_form():
    tree = ast.parse(
        "json.dump(x, fh)\n"
        "dump(x, fh, indent=2)\n"
        "text = json.dumps(x, indent=2, sort_keys=True)\n"
        "line = json.dumps(x, sort_keys=True)\n"
    )
    assert json_file_writes(tree) == [(1, "dump"), (2, "dump"), (2, "indent="), (3, "indent=")]
