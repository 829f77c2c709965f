"""No dead helpers: every module-level private function or class of the
package is referenced from the package outside its own body."""

import ast
import os
from collections import Counter

import germdyn

PKG = os.path.dirname(germdyn.__file__)


def _reads(node) -> Counter:
    """The names a subtree reads, as plain names or as attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_helpers(pkg: str) -> list[str]:
    """module:name of each module-level private def or class in ``pkg``
    that nothing in ``pkg`` reads outside the definition's own body."""
    trees = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                trees[name] = ast.parse(fh.read())
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and reads[node.name] == _reads(node)[node.name]):
                dead.append("%s:%s" % (module, node.name))
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
        "def public():\n    return _used()\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a._Elsewhere()\n")
    assert unreferenced_helpers(str(tmp_path)) == [
        "a.py:_unused", "a.py:_recursive", "a.py:_Lonely"]
