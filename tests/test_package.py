"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import triortho

MODULES = sorted(m.name for m in pkgutil.iter_modules(triortho.__path__))


def test_modules_found():
    assert {"gf2", "codes", "simulator", "logical", "distill", "cost", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"triortho.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"triortho.{name}.__all__ lists missing names {missing}"
    exec(f"from triortho.{name} import *", {})
