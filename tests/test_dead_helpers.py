"""No dead helpers: every module-level private function, class or assigned
name of the package is referenced from the package outside its own
definition."""

import ast
import os
from collections import Counter

import germdyn

PKG = os.path.dirname(germdyn.__file__)


def _reads(node) -> Counter:
    """The names a subtree reads, as plain names or as attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _defined(node) -> list[str]:
    """The names a module-level statement binds: a def or class name, or the
    plain names on the left of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unreferenced_helpers(pkg: str) -> list[str]:
    """module:name of each module-level private def, class or assigned name
    in ``pkg`` that nothing in ``pkg`` reads outside its own definition."""
    trees = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                trees[name] = ast.parse(fh.read())
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined(node):
                if (name.startswith("_") and not name.startswith("__")
                        and reads[name] == _reads(node)[name]):
                    dead.append("%s:%s" % (module, name))
    return dead


def test_every_private_helper_is_referenced():
    assert unreferenced_helpers(PKG) == []


def test_an_unused_or_only_recursive_helper_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    pass\n\n\n"
        "def _unused():\n    pass\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n\n"
        "class _Lonely:\n    pass\n\n\n"
        "class _Elsewhere:\n    pass\n\n\n"
        "_CAP = 10\n_UNREAD = 1\n_TYPED: int = 2\n__all__ = []\n\n\n"
        "def public():\n    return _used() + _CAP\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a._Elsewhere()\n")
    assert unreferenced_helpers(str(tmp_path)) == [
        "a.py:_unused", "a.py:_recursive", "a.py:_Lonely", "a.py:_UNREAD", "a.py:_TYPED"]
