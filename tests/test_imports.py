"""Every module-level import in src/ and tests/ is read by its module, and
every top-level definition in src/cutprec/ is read by src/cutprec/."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "cutprec").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that no name
    expression in the module reads, with the line of their import."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from json import dumps, loads as read\n"
              "def f():\n    import sys\n    return np.zeros(1), read\n")
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list:
    """(line, name) of the top-level functions, classes and assigned names
    of source, dunder names excepted."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if not (name.startswith("__") and name.endswith("__"))]
    return found


def reads(source: str) -> set:
    """Every name source reads: as a name, as an attribute, or through a
    from-import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_definitions(sources: dict) -> list:
    """(module, line, name) of the top-level definitions of the modules in
    sources, {module: source}, that no module of sources reads."""
    read = set().union(*map(reads, sources.values()))
    return sorted((module, line, name)
                  for module, source in sources.items()
                  for line, name in definitions(source) if name not in read)


def test_checker_finds_unread_definitions():
    sources = {"a": "X, _Y = 1, 2\nZ: int = 3\n__all__ = []\n"
                    "def f():\n    return X\nclass C:\n    pass\n",
               "b": "from a import f\nimport a\nprint(a.C, Z)\n"}
    assert unread_definitions(sources) == [("a", 1, "_Y")]
    sources["b"] += "def g():\n    pass\n"
    assert unread_definitions(sources) == [("a", 1, "_Y"), ("b", 4, "g")]


def test_no_src_definition_read_only_by_tests():
    # a definition that only tests read is an API kept alive by its tests
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert unread_definitions(sources) == []
