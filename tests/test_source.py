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


def _definitions(stmt: ast.stmt) -> list:
    """The definitions of a module-level statement, each with the tree it
    reads from: a function or a class by its name, and each method of a
    class by its name, dunders excluded and properties included.  A
    class's tree holds what its body reads outside its methods."""
    if isinstance(stmt, ast.FunctionDef):
        return [(stmt.name, stmt)]
    if not isinstance(stmt, ast.ClassDef):
        return [(None, stmt)]
    methods = [node for node in stmt.body if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    rest = ast.Module(body=[node for node in stmt.body if node not in methods]
                      + stmt.bases + stmt.keywords + stmt.decorator_list, type_ignores=[])
    return [(stmt.name, rest)] + [(node.name, node) for node in methods]


def test_definitions_list_methods_and_properties():
    stmt = ast.parse("class A(B):\n    x = f()\n    def __init__(self): g()\n"
                     "    @property\n    def p(self): return self.q()\n    def q(self): return self.q\n").body[0]
    found = {name: _reads(tree) for name, tree in _definitions(stmt)}
    assert list(found) == ["A", "p", "q"]
    assert found == {"A": {"B", "x", "f", "g"}, "p": {"property", "self", "q"},
                     "q": {"self", "q"}}


def test_every_library_definition_is_read():
    # A module-level function or class of the library, or a method of such a
    # class, is read by name in ``src`` outside its own definition, in a demo
    # or in the benchmark (whose tracer names what it wraps in strings), or
    # exported by the package.
    package = REPO / "src" / "cp1graft"
    defined, read_in_src = [], set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            outer = getattr(stmt, "name", None)
            for name, tree in _definitions(stmt):
                if name is not None:
                    defined.append((path.name, name))
                read_in_src |= _reads(tree) - {outer, name}
    scripts = sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "bench").glob("*.py"))
    read_outside = set().union(*(_reads(ast.parse(p.read_text()), strings=True) for p in scripts))
    exported = {a.asname or a.name
                for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(defined) > 100
    unread = [(module, name) for module, name in defined
              if name not in read_in_src | read_outside | exported]
    assert unread == []
