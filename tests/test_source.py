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


def unraised_errors(errors_source: str, sources: list) -> list:
    """Classes of ``errors_source``'s ``__all__`` that no source raises, nor any subclass of them.

    A class counts as raised where a ``raise`` names it, called or bare,
    and then so does every base it has in ``errors_source``.
    """
    tree = ast.parse(errors_source)
    exported = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in tree.body if isinstance(node, ast.ClassDef)
    }
    pending = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                pending.append(name)
    raised = set()
    while pending:
        name = pending.pop()
        if name not in raised:
            raised.add(name)
            pending.extend(bases.get(name, []))
    return sorted(set(exported) - raised)


def test_unraised_errors_found():
    errors = (
        '__all__ = ["Base", "Used", "Child", "Dead"]\n'
        "class Base(Exception): pass\nclass Used(Base): pass\n"
        "class Child(Used): pass\nclass Dead(Base): pass\n"
    )
    user = "from errors import Child\nimport errors\ndef f():\n    raise Child('x')\n"
    assert unraised_errors(errors, [user]) == ["Dead"]
    assert unraised_errors(errors, [user, "raise errors.Dead\n"]) == []


def test_package_raises_every_error_class():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unraised_errors((SRC / "errors.py").read_text(), sources) == []
