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


def test_no_module_carries_a_test_oracle():
    # The references in tests/oracles.py stay outside the package they check.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    oracles = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "apply_gate" in oracles
    modules = [triortho, *(importlib.import_module(f"triortho.{m}") for m in MODULES)]
    carried = sorted(
        f"{module.__name__}.{name}" for module in modules for name in oracles if hasattr(module, name)
    )
    assert not carried, f"package modules define test-oracle names: {carried}"


PACKAGE_DIR = Path(triortho.__file__).parent


def _read_names(tree):
    # Every name a tree reads: loaded bare names and attribute names.
    return {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _package_trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }


def test_no_module_imports_an_unused_name():
    # __init__.py imports to re-export; every other module reads what it imports.
    unused = []
    for name, tree in _package_trees().items():
        if name == "__init__.py":
            continue
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused.extend(f"{name}:{b}" for b in bound if b not in read)
    assert not unused, f"imported but never used: {unused}"


def test_every_private_top_level_name_is_referenced():
    # A private helper that only its own definition reads is a leftover.
    statements = [(name, s) for name, tree in _package_trees().items() for s in tree.body]
    reads = [_read_names(s) for _, s in statements]
    unreferenced = []
    for i, (name, statement) in enumerate(statements):
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            defined = [statement.name]
        elif isinstance(statement, ast.Assign):
            defined = [t.id for t in statement.targets if isinstance(t, ast.Name)]
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            defined = [statement.target.id]
        else:
            continue
        private = [d for d in defined if d.startswith("_") and not d.startswith("__")]
        if private:
            read = set().union(*reads[:i], *reads[i + 1 :])
            unreferenced.extend(f"{name}:{d}" for d in private if d not in read)
    assert not unreferenced, f"private top-level names never referenced: {unreferenced}"


def test_no_function_has_an_unread_parameter():
    # A parameter that the body never reads is an argument callers pass for nothing.
    unread = []
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                read = {
                    n.id
                    for statement in node.body
                    for n in ast.walk(statement)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                unread.extend(
                    f"{name}:{node.name}({p.arg})" for p in params if p and p.arg not in read
                )
    assert not unread, f"parameters never read: {unread}"
