"""Checks on the library's source text."""

import ast

from conftest import REPO


def _unread_imports(source: str) -> list:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_unread_imports_are_found():
    assert _unread_imports("import math\nfrom os import path, sep\nsep.join(())\n") == [
        "math", "path"]


def test_every_imported_name_is_read():
    # ``__init__.py`` imports to re-export; every other module imports only
    # what it reads, so a deletion leaves no import behind.
    modules = sorted((REPO / "src" / "cp1graft").glob("*.py"))
    unread = {
        path.name: _unread_imports(path.read_text())
        for path in modules
        if path.name != "__init__.py"
    }
    assert len(unread) == len(modules) - 1 > 0
    assert {name: names for name, names in unread.items() if names} == {}
