"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qdbar"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # re-exports


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name != "annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"unused imports in {path.name}: {sorted(imported - used)}"


def _private_definitions(tree):
    """Top-level functions and classes whose names start with one underscore."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _references(tree):
    """(name, line) for every name, attribute and imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_orphan_private_definitions(path):
    # a private helper nothing calls is dead code left behind by a refactor
    trees = {p: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    orphans = []
    for node in _private_definitions(trees[path]):
        own = range(node.lineno, node.end_lineno + 1)
        if not any(name == node.name and (p != path or line not in own)
                   for p, tree in trees.items() for name, line in _references(tree)):
            orphans.append(node.name)
    assert not orphans, f"private definitions nothing references in {path.name}: {orphans}"


@pytest.mark.parametrize("name", ["limits.py", "cli.py"])
def test_drivers_import_no_private_name(name):
    # the experiment drivers use the operators and elements through their
    # public functions only
    tree = ast.parse((SRC / name).read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert not private, f"{name} imports private names: {private}"
