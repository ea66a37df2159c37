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


def _reads(tree: ast.AST, strings: bool = False) -> set:
    """The names a tree reads, as names or attributes, and with ``strings``
    every dotted part of its string constants."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def test_every_library_definition_is_read():
    # A module-level function or class of the library is read in ``src``
    # outside its own definition, in a demo or in the benchmark (whose
    # tracer names what it wraps in strings), or exported by the package.
    package = REPO / "src" / "cp1graft"
    defined, read_in_src = [], set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = set()
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, stmt.name))
                own = {stmt.name}
            read_in_src |= _reads(stmt) - own
    scripts = sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "bench").glob("*.py"))
    read_outside = set().union(*(_reads(ast.parse(p.read_text()), strings=True) for p in scripts))
    exported = {a.asname or a.name
                for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(defined) > 100
    unread = [(module, name) for module, name in defined
              if name not in read_in_src | read_outside | exported]
    assert unread == []
