"""Package surface: every exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_top_level_reexports_are_in_module_all():
    # Every name triortho/__init__.py imports from a submodule is public there.
    tree = ast.parse(Path(triortho.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stray = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"triortho.{node.module}").__all__
    ]
    assert not stray, f"re-exported but missing from the module's __all__: {stray}"
