"""Source scan of ``src/qphase``: no unused module-level import, no private
module-level name that no code in the package uses, no ``expm`` call, no
SciPy anywhere, no ``raise`` of a builtin exception class in any module
(every rejection is a ``QPhaseError``), no indented JSON written outside
``serialize``, no export that only tests reach, and no option that only
tests set.

Every propagator goes through ``dynamics.interval_propagators``, and every
search runs on the NumPy ``_solvers.minimize_box``, so qphase needs only NumPy
at runtime: no module imports ``scipy`` or names it, at import or inside a
function.  SciPy serves the tests and the benchmark as a reference.
"""

import ast
import builtins
import os

import pytest

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(REPO, "src", "qphase")
FILES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))
# the package's __init__ imports only to re-export
MODULES = [f for f in FILES if f != "__init__"]


def parse_file(path: str) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read())


def parse(module: str) -> ast.Module:
    return parse_file(os.path.join(SRC, f"{module}.py"))


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


@pytest.mark.parametrize("module", FILES)
def test_no_builtin_raise(module):
    found = builtin_raises(parse(module), module)
    assert not found, f"{module}.py raises builtin exceptions, not QPhaseErrors: {found}"


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


# every export earns its place: each public name the package's __init__
# re-exports, and each public method of an exported class, is referenced by
# production code outside its own definition.  Production is the package,
# scripts/, the acceptance tests and the benchmark's non-test files.
# Exports that tests alone reach stay only for a planned caller:
TEST_ONLY_EXPORTS = {
    "control_hamiltonian": "ROADMAP item 12; the one statement of H, which TestAdjointConsistency checks",
    "solve_shooting": "ROADMAP items 17 and 20",
    "orbit_membership": "ROADMAP items 7 and 14",
    "build_frame_general": "ROADMAP items 7 and 14",
    "ProtocolTrace.to_json_lines": "ROADMAP item 1's --trace",
}


def non_test_files(directory: str) -> list:
    return [
        os.path.join(directory, f)
        for f in sorted(os.listdir(directory))
        if f.endswith(".py") and not f.startswith("test_")
    ]


def export_definitions(init: ast.Module, modules: dict) -> dict:
    """Qualified name -> definition node of each public export and each public method of an exported class.

    ``modules`` maps a module name to its tree.  A module re-exported whole
    (``from . import m``) maps to its tree, and a name that is not a
    ``def`` or ``class`` maps to None.
    """
    found = {}
    for node in init.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            if name.startswith("_"):
                continue
            if node.module is None:
                found[name] = modules[alias.name]
                continue
            found[name] = None
            for d in modules[node.module].body:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and d.name == alias.name:
                    found[name] = d
                    if isinstance(d, ast.ClassDef):
                        for m in d.body:
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_"):
                                found[f"{name}.{m.name}"] = m
    return found


def uncalled_exports(init: ast.Module, modules: dict, production: list) -> list:
    """Exports of ``init`` that no tree in ``production`` references outside the definition.

    A function, class or module is referenced when it is read by name, as
    an attribute or as a string; a method only as an attribute (``x.name``)
    or as the name string of a ``getattr`` call, so a bare name or a dict key
    that shares a method's name does not count.
    """
    names, attributes = {}, {}
    for tree in production:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append(id(node))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.setdefault(node.value, []).append(id(node))
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
                attributes.setdefault(node.args[1].value, []).append(id(node.args[1]))
    uncalled = []
    for qualname, definition in export_definitions(init, modules).items():
        inside = {id(n) for n in ast.walk(definition)} if definition is not None else set()
        name = qualname.split(".")[-1]
        refs = attributes.get(name, []) + ([] if "." in qualname else names.get(name, []))
        if all(ref in inside for ref in refs):
            uncalled.append(qualname)
    return sorted(uncalled)


def production_trees(modules: dict) -> list:
    return list(modules.values()) + [
        parse_file(path)
        for path in non_test_files(os.path.join(REPO, "scripts"))
        + [os.path.join(REPO, "tests", "test_acceptance.py")]
        + non_test_files(os.path.join(REPO, "perfbench"))
    ]


def test_every_export_has_a_caller():
    modules = {m: parse(m) for m in MODULES}
    uncalled = uncalled_exports(parse("__init__"), modules, production_trees(modules))
    stray = [name for name in uncalled if name not in TEST_ONLY_EXPORTS]
    assert not stray, f"exported, but only tests reach: {stray}"
    called = sorted(set(TEST_ONLY_EXPORTS) - set(uncalled))
    assert not called, f"{called} now have a production caller or are gone: drop them from TEST_ONLY_EXPORTS"


def test_export_scan_sees_every_form():
    init = ast.parse("from .m import Used, Unused, Recursive, Cls, Assigned\nfrom . import m, other\n")
    m = ast.parse(
        "def Used(): pass\n"
        "def Unused(): pass\n"
        "def Recursive(n): return Recursive(n - 1)\n"
        "class Cls:\n"
        "    def called(self): return self.helper()\n"
        "    def helper(self): pass\n"
        "    def by_string(self): pass\n"
        "    def uncalled(self): return self.uncalled()\n"
        "    def shadowed(self): pass\n"
        "    def _private(self): pass\n"
        "Assigned = Used()\n"
    )
    other = ast.parse("def f(): return other\n")
    caller = ast.parse(
        "import qphase\nqphase.Cls().called()\ngetattr(obj, 'by_string')\nAssigned = 1\nm.x\n"
        "shadowed = {'shadowed': 0}\nprint(shadowed)\n"
    )
    modules = {"m": m, "other": other}
    assert uncalled_exports(init, modules, [m, other, caller]) == [
        "Assigned", "Cls.shadowed", "Cls.uncalled", "Recursive", "Unused", "other",
    ]


# every option earns a caller: each parameter with a default, of an exported
# function, of a public method of an exported class or of a public function of
# a module the package re-exports whole, is passed by some production call
# outside its own definition.  A value no caller sets is a constant.  Options
# that tests alone set stay only for a planned caller:
TEST_ONLY_OPTIONS = {
    "stabilize_middle_level(record_steps=)": "ROADMAP item 1's --trace",
}


def option_functions(init: ast.Module, modules: dict) -> dict:
    """Qualified name -> (def node, whether it is a method) of every callable whose options are scanned."""
    found = {}
    for qualname, definition in export_definitions(init, modules).items():
        if isinstance(definition, ast.Module):
            for f in definition.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not f.name.startswith("_"):
                    found[f"{qualname}.{f.name}"] = (f, False)
        elif isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(getattr(d, "id", None) == "staticmethod" for d in definition.decorator_list)
            found[qualname] = (definition, "." in qualname and not static)
    return found


def defaulted_parameters(func, method: bool) -> list:
    """(name, position) of each parameter with a default; the position counts after ``self`` or ``cls``,
    and is None for a keyword-only parameter."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    skip = 1 if method else 0
    found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    return found + [(a.arg, None) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults) if d is not None]


def sets_parameter(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` passes the parameter by keyword, by position, or through a ``*`` or ``**`` splat."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unset_options(init: ast.Module, modules: dict, production: list, exempt=()) -> list:
    """``name(parameter=)`` of every scanned option that no call in ``production`` outside the definition sets.

    A call counts when it calls a name or attribute equal to the function's
    name; the functions named in ``exempt`` are not scanned.
    """
    calls = {}
    for tree in production:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for qualname, (func, method) in option_functions(init, modules).items():
        if qualname in exempt:
            continue
        inside = {id(n) for n in ast.walk(func)}
        outside = [call for call in calls.get(func.name, []) if id(call) not in inside]
        for name, position in defaulted_parameters(func, method):
            if not any(sets_parameter(call, name, position) for call in outside):
                unset.append(f"{qualname}({name}=)")
    return sorted(unset)


def test_every_option_has_a_setter():
    modules = {m: parse(m) for m in MODULES}
    unset = unset_options(parse("__init__"), modules, production_trees(modules), TEST_ONLY_EXPORTS)
    stray = [option for option in unset if option not in TEST_ONLY_OPTIONS]
    assert not stray, f"options that no production call sets: {stray}"
    stale = sorted(set(TEST_ONLY_OPTIONS) - set(unset))
    assert not stale, f"{stale} now have a production setter or are gone: drop them from TEST_ONLY_OPTIONS"


def test_option_scan_sees_every_form():
    init = ast.parse("from .m import f, g, Cls, Exempt\nfrom . import util\n")
    m = ast.parse(
        "def f(a, b=1, *, c=2, d=3): return f(a, b, c=0, d=0)\n"
        "def g(a, b=1, c=2): pass\n"
        "class Cls:\n"
        "    def method(self, x=1, y=2): pass\n"
        "    @classmethod\n"
        "    def make(cls, z=0): pass\n"
        "    @staticmethod\n"
        "    def static(s=0): pass\n"
        "    def _private(self, p=0): pass\n"
        "def Exempt(e=0): pass\n"
    )
    util = ast.parse("def helper(h=1): pass\ndef spread(a, s=1): pass\ndef _hidden(h=1): pass\n")
    caller = ast.parse(
        "f(1, c=3)\ng(1, **options)\nobj.method(5)\nCls.make(z=1)\nCls.static(1)\nspread(*args)\n"
    )
    modules = {"m": m, "util": util}
    assert unset_options(init, modules, [m, util, caller], {"Exempt"}) == [
        "Cls.method(y=)", "f(b=)", "f(d=)", "util.helper(h=)",
    ]
