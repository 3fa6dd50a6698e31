"""Packaging and source hygiene: every console script pyproject.toml
declares must resolve to a callable in the package, and every
parameter of every function in the package must be read."""

import ast
import importlib
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PYPROJECT = os.path.join(HERE, os.pardir, "pyproject.toml")
PACKAGE = os.path.join(HERE, os.pardir, "src", "nilsteer")

# (file, function, parameter) whose presence a callee fixes: solve_ivp
# calls a domain event as inside(t, x), and the box test reads only x.
CALLEE_FIXED = {("sim.py", "inside", "t")}


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
        for name, arg in unread_parameters(source):
            if (fname, name, arg) not in CALLEE_FIXED:
                found.append("%s: %s(%s)" % (fname, name, arg))
    assert not found, found
