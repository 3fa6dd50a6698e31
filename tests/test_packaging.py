"""Packaging and source hygiene: every console script pyproject.toml
declares must resolve to a callable in the package, every parameter of
every function in the package must be read, every function or class
the package defines must be named somewhere in the package or the
benchmark (a method or property through attribute access), and so
must every attribute the package stores on self.
Every parameter with a default must be passed by some call there,
too: an option that only ever takes its default is a constant.  Every
error class must be raised somewhere in the package: an error code
nothing raises is dead, and every steering error names its class.
The package's defaulted parameters stay within a budget, so a change
that adds an option raises the budget in its own diff.
The package holds no assert statement: python -O strips them, so a
check the library relies on must raise.
And one cached loader compiles all the package's generated code, so
no caller compiles a source anew on every call.
Importing the package, steering, float-replaying a law, planning on a
covering and taking a growth vector load neither numpy nor scipy,
whose import-time objects every full garbage collection would scan.
The package's memoised recursions leave no reference cycle behind, so
a query leaves no garbage for those collections to find."""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PYPROJECT = os.path.join(HERE, os.pardir, "pyproject.toml")
PACKAGE = os.path.join(HERE, os.pardir, "src", "nilsteer")
# Where a caller must name a definition for it to count as used.
CALLER_DIRS = [os.path.join(HERE, os.pardir, d) for d in ("src", "bench")]

# Definitions kept without a caller in src/ or bench/, with the reason.
NO_CALLER_NEEDED = {
    "to_json_str": "writes a law for the JSON round trip",
    "from_json": "reads a law back in the JSON round trip",
    "growth_vector": "the LARC check a command-line front end will run",
}

# Attributes stored on self but read by no code in src/ or bench/.
NO_READER_NEEDED = {
    "payload": "the structured data of every NilsteerError, for callers",
}

# (function, parameter) defaults that no call in src/ or bench/ passes.
DEFAULT_NOT_PASSED = {}


def resolve(target):
    """The object a 'module:attr.path' entry point names."""
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_script_entry_points_resolve():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        meta = tomllib.load(fh)
    for name, target in meta["project"].get("scripts", {}).items():
        assert callable(resolve(target)), name


def unread_parameters(source):
    """(function, parameter) for each parameter, other than self and
    cls, that its function's body (nested functions included) never
    names."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {n.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        out.extend((name, p.arg) for p in params
                   if p.arg not in ("self", "cls", *named))
    return out


def test_every_parameter_is_read():
    found = []
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname)) as fh:
            source = fh.read()
        found.extend("%s: %s(%s)" % (fname, name, arg)
                     for name, arg in unread_parameters(source))
    assert not found, found


def python_files(root):
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.realpath(os.path.join(dirpath, name))


def uncalled_definitions(package, caller_dirs):
    """(file, name) for each function or class, other than a dunder,
    defined in the package, whose name no use in caller_dirs carries
    outside the definition's own node.  A use is an ast.Attribute attr
    or, except for a method or property (a function defined directly
    in a class body), an ast.Name id: a local variable that shares a
    method's name does not call it.  Import statements, comments and
    docstrings name nothing here."""
    trees = {}
    for root in caller_dirs:
        for path in python_files(root):
            with open(path) as fh:
                trees[path] = ast.parse(fh.read())
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for path in python_files(package):
        tree = trees[path]
        methods = {id(f) for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, defs)}
        for node in ast.walk(tree):
            if not isinstance(node, defs + (ast.ClassDef,)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            kinds = ast.Attribute if id(node) in methods \
                else (ast.Name, ast.Attribute)
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for n in uses.get(name, ())
                   if isinstance(n, kinds)):
                out.append((os.path.basename(path), name))
    return out


def test_every_public_name_has_a_caller():
    uncalled = uncalled_definitions(PACKAGE, CALLER_DIRS)
    found = [(fname, name) for fname, name in uncalled
             if name not in NO_CALLER_NEEDED]
    assert not found, found
    # a name that has gained a caller leaves the list
    assert set(NO_CALLER_NEEDED) == {name for _, name in uncalled}


def unread_attributes(package, caller_dirs):
    """(file, name) for each attribute a function in the package stores
    as self.name, whose name no ast.Attribute read (Load context) in
    caller_dirs carries."""
    read = set()
    for root in caller_dirs:
        for path in python_files(root):
            with open(path) as fh:
                read.update(
                    node.attr for node in ast.walk(ast.parse(fh.read()))
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    out = set()
    for path in python_files(package):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in read):
                out.add((os.path.basename(path), node.attr))
    return sorted(out)


def test_every_stored_attribute_is_read():
    unread = unread_attributes(PACKAGE, CALLER_DIRS)
    found = [(fname, name) for fname, name in unread
             if name not in NO_READER_NEEDED]
    assert not found, found
    # a name that has gained a reader leaves the list
    assert set(NO_READER_NEEDED) == {name for _, name in unread}


def defaulted_parameters(tree):
    """(call name, positional index or None, parameter) for each
    parameter with a default of each function in tree.  A method's
    index leaves out self or cls, and __init__ is called by its class
    name; keyword-only parameters have no index."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name)
                             and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                name = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                out.extend((name, i - skip, positional[i].arg)
                           for i in range(first, len(positional)))
                out.extend((name, None, a.arg)
                           for a, d in zip(args.kwonlyargs,
                                           args.kw_defaults)
                           if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def unpassed_defaults(package, caller_dirs):
    """(function, parameter) for each defaulted parameter of a function
    in the package that no call in caller_dirs passes, by keyword or by
    position.  Calls match by name, as ast.Name id or ast.Attribute
    attr, and a call with *args or **kwargs passes every parameter."""
    calls = {}
    for root in caller_dirs:
        for path in python_files(root):
            with open(path) as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    calls.setdefault(name, []).append(node)
    out = set()
    for path in python_files(package):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for name, index, param in defaulted_parameters(tree):
            for call in calls.get(name, ()):
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg in (None, param)
                               for k in call.keywords)
                        or index is not None and len(call.args) > index):
                    break
            else:
                out.add((name, param))
    return sorted(out)


def test_every_defaulted_parameter_is_passed():
    unpassed = unpassed_defaults(PACKAGE, CALLER_DIRS)
    found = [key for key in unpassed if key not in DEFAULT_NOT_PASSED]
    assert not found, found
    # a parameter that has gained a caller leaves the list
    assert set(DEFAULT_NOT_PASSED) == set(unpassed)


# Defaulted parameters the package may have, counted as
# defaulted_parameters counts them.
OPTIONAL_PARAMETER_BUDGET = 21


def test_optional_parameter_budget():
    found = []
    for path in python_files(PACKAGE):
        with open(path) as fh:
            found.extend("%s: %s(%s)" % (os.path.basename(path), name, param)
                         for name, _, param in
                         defaulted_parameters(ast.parse(fh.read())))
    assert len(found) <= OPTIONAL_PARAMETER_BUDGET, found


def raised_names(package):
    """Names of the exception classes a raise statement in the package
    raises, as the called name or the bare name after raise."""
    out = set()
    for path in python_files(package):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                out.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return out


def test_every_error_is_raised():
    errors = importlib.import_module("nilsteer.errors")
    codes = [name for name, obj in vars(errors).items()
             if isinstance(obj, type)
             and issubclass(obj, errors.NilsteerError)
             and obj is not errors.NilsteerError]
    assert codes
    unraised = sorted(set(codes) - raised_names(PACKAGE))
    assert not unraised, unraised


def test_steering_errors_name_their_class():
    # errors.py promises a class_id in the payload of every
    # SingularMatrix and SteeringResidual that exact steering raises
    with open(os.path.join(PACKAGE, "steer.py")) as fh:
        tree = ast.parse(fh.read())
    raises = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if getattr(exc, "id", None) in ("SingularMatrix",
                                            "SteeringResidual"):
                raises.append(node)
    assert raises
    found = [node.lineno for node in raises
             if "class_id" not in {k.arg for k in
                                   getattr(node.exc, "keywords", ())}]
    assert not found, found


def test_no_assert_in_library():
    found = []
    for path in python_files(PACKAGE):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        found.extend("%s:%d" % (os.path.basename(path), node.lineno)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, found


def compiling_functions(package):
    """(file, function, decorators) for each function of the package
    whose own body, nested functions aside, calls the builtin compile,
    exec or eval; code outside every function counts as function None,
    and decorators are source text."""
    out = []

    def visit(node, fn, fname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child, fname)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in ("compile", "exec", "eval")):
                out.append((fname, fn and fn.name,
                            [ast.unparse(d) for d in fn.decorator_list]
                            if fn else []))
            visit(child, fn, fname)

    for path in python_files(package):
        with open(path) as fh:
            visit(ast.parse(fh.read()), None, os.path.basename(path))
    return out


def test_one_cached_loader_compiles_code():
    found = compiling_functions(PACKAGE)
    assert len({(fname, name) for fname, name, _ in found}) == 1, found
    fname, name, decorators = found[0]
    assert (fname, name) == ("poly.py", "load_kernel")
    assert any(d.startswith("functools.lru_cache(") for d in decorators)


def recursion_calls():
    """One call of each memoised recursion of the package, by name."""
    from nilsteer import canonical, desing, hall, steer
    system = canonical.canonical_fields(2, 3)
    trajs = steer.channel_trigpolys([[(1, 1, 0), (2, 3, 1)], [(1, 2, 0)]])
    return {
        "evaluate_brackets": lambda: hall.evaluate_brackets(
            system.basis, range(1, system.n + 1), system.fields, None),
        "hom_exponents": lambda: desing._hom_exponents(4, (1, 1, 2, 2), 5),
        "poly_on_trigs": lambda: steer.poly_on_trigs(
            system.monomials[3], trajs, {}),
    }


@pytest.mark.parametrize("name", sorted(recursion_calls()))
def test_recursions_leave_no_cyclic_garbage(name):
    call = recursion_calls()[name]
    gc.disable()
    try:
        gc.collect()
        assert call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# Run in a fresh interpreter, since pytest's own imports load scipy.
# It steers canonical (2,4) exactly, float-replays the whole law, replays
# one local step on the unicycle, plans one unicycle query on a grid-4
# covering, takes the unicycle's growth vector, and then takes the
# local step's length.
FOOTPRINT_SCRIPT = """
import importlib, json, pkgutil, sys

import nilsteer

for info in pkgutil.iter_modules(nilsteer.__path__):
    importlib.import_module("nilsteer." + info.name)
from nilsteer import canonical, desing, planner, poly, sim, steer


def loaded():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] in ("numpy", "scipy"))


system = canonical.canonical_fields(2, 4)
law = steer.exact_steer([0.3, -0.2, 0.1, 0.4, -0.5, 0.2, -0.1, 0.6],
                        system, steer.build_plan(system))
z = [float(v) for v in law.meta["z_init"]]
for period in law.periods:
    z = steer.propagate_period(system, period["channels"], z,
                               float_mode=True)
out = {"steer": loaded(), "replay_miss": max(abs(v) for v in z)}
names = ["x", "y", "th"]
fields = [poly.ExprField([poly.parse_expr(c, names) for c in comps])
          for comps in (["cos(th)", "sin(th)", "0"], ["0", "0", "1"])]
model = canonical.canonical_fields(2, 2)
local = planner.LocalSteering(fields, model, steer.build_plan(model))
_, law = local.steer([0.1, -0.15, 0.3], [0.0, 0.0, 0.0])
sim.integrate(fields, [0.1, -0.15, 0.3], law, tol=1e-10)
out["replay"] = [m for m in loaded() if m.startswith("scipy")]
session = planner.Planner(fields, ([-1.0, -1.0, -2.0], [1.0, 1.0, 2.0]),
                          planner.PlannerConfig(4), r=2)
session.plan([0.1, -0.15, 0.3], [0.0, 0.0, 0.0], 1e-3)
out["plan"] = loaded()
growth = desing.growth_vector(fields, model.basis, [0.1, -0.15, 0.3])
out["growth"] = [growth, loaded()]
out["length"] = sim.input_length(law)
print(json.dumps(out))
"""


def test_steering_loads_neither_numpy_nor_scipy():
    env = dict(os.environ,
               PYTHONPATH=os.path.join(HERE, os.pardir, "src"))
    run = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["steer"] == []
    assert out["replay_miss"] <= 1e-9
    assert out["replay"] == []
    assert out["plan"] == []
    assert out["growth"] == [[2, 3], []]
    # scipy's quad, loaded only now, gives the length it gave when
    # scipy loaded with the package
    assert out["length"] == 5.3372635004762685
