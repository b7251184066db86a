"""Static checks on the package source, made with the standard library alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rdstab"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_found():
    source = "import os.path\nfrom math import pi, tau as t\nfrom x import y\nprint(os.sep, t)\n"
    assert unused_imports(source) == ["pi", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: list) -> list:
    """``_``-prefixed top-level names and methods that none of ``sources`` reads.

    A name is read where it is loaded as a name or an attribute.  Dunder
    names are left out: the language calls them.
    """
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body if isinstance(item, FUNCTIONS))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    private = {n for n in defined if n.startswith("_") and not n.endswith("__")}
    return sorted(private - read)


def test_unread_private_names_found():
    first = (
        "_LIMIT = 3\n_DEAD: int = 4\n"
        "def _used(): return _LIMIT\ndef _unused(): pass\n"
        "class A:\n    def __init__(self): self._left = 1\n"
        "    def _called(self): pass\n    def _orphan(self): pass\n"
    )
    second = "from first import _used\n_used()\nA()._called()\n"
    assert unread_private_names([first, second]) == ["_DEAD", "_orphan", "_unused"]


def test_package_reads_every_private_name():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []
