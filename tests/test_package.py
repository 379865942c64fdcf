"""Package surface: every exported or documented name resolves."""

import ast
import importlib
import pkgutil
import re
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


# A backticked (or double-backticked) private name, possibly dotted.
PRIVATE_NAME = re.compile(r"`{1,2}((?:[A-Za-z]\w*\.)*_\w*)`{1,2}")


def _documented_private_names():
    # (where, name) for README.md and every src/triortho docstring.
    readme = (Path(triortho.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    found = [("README.md", name) for name in PRIVATE_NAME.findall(readme)]
    for path in sorted(Path(triortho.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node) or ""
                where = f"{path.name}:{getattr(node, 'name', '<module>')}"
                found.extend((where, name) for name in PRIVATE_NAME.findall(doc))
    return found


def _resolves(dotted):
    for root in [triortho, *(importlib.import_module(f"triortho.{m}") for m in MODULES)]:
        obj = root
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            return True
    return False


def test_documented_private_names_resolve():
    # Docs that name a private helper must not outlive it.
    names = _documented_private_names()
    assert any(where == "README.md" for where, _ in names)
    stale = [(where, name) for where, name in names if not _resolves(name)]
    assert not stale, f"backticked private names that no triortho module defines: {stale}"
