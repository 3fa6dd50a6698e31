"""Packaging metadata: every console script pyproject.toml declares
must resolve to a callable in the package."""

import importlib
import os

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "pyproject.toml")


def resolve(target):
    """The object a 'module:attr.path' entry point names."""
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_script_entry_points_resolve():
    with open(PYPROJECT, "rb") as fh:
        meta = tomllib.load(fh)
    for name, target in meta["project"].get("scripts", {}).items():
        assert callable(resolve(target)), name
