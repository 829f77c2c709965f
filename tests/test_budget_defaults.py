"""One budget default: every parameter named ``budget`` in the package has
no default or defaults to ``DEFAULT_BUDGET``, and the CLI's --budget
default, a literal there, equals it."""

import ast
import os

import germdyn
from germdyn import bounds, cli

PKG = os.path.dirname(germdyn.__file__)


def _defaults(args: ast.arguments):
    """(parameter, default node or None) for every parameter of a def."""
    positional = args.posonlyargs + args.args
    padded = [None] * (len(positional) - len(args.defaults)) + args.defaults
    return list(zip(positional, padded)) + list(zip(args.kwonlyargs, args.kw_defaults))


def stray_budget_defaults(pkg: str) -> list[str]:
    """module:function of each def in ``pkg`` with a parameter named
    ``budget`` whose default is not the name DEFAULT_BUDGET."""
    stray = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for arg, default in _defaults(node.args):
                        if (arg.arg == "budget" and default is not None
                                and not (isinstance(default, ast.Name)
                                         and default.id == "DEFAULT_BUDGET")):
                            stray.append("%s:%s" % (name, node.name))
    return sorted(stray)


def test_every_budget_parameter_defaults_to_the_one_bound():
    assert stray_budget_defaults(PKG) == []


def test_a_budget_default_other_than_the_bound_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def unbounded(budget=None):\n    pass\n\n\n"
        "def literal(x, budget=10**6):\n    pass\n\n\n"
        "def keyword(*, budget=5):\n    pass\n\n\n"
        "def bound(budget=DEFAULT_BUDGET):\n    pass\n\n\n"
        "def required(x, budget):\n    pass\n\n\n"
        "def after(x, limit=None, budget=DEFAULT_BUDGET):\n    pass\n\n\n"
        "class Table:\n    def __init__(self, budget: int | None = None):\n        pass\n")
    assert stray_budget_defaults(str(tmp_path)) == [
        "a.py:__init__", "a.py:keyword", "a.py:literal", "a.py:unbounded"]


def test_the_cli_budget_default_is_the_bound():
    (default,) = [value for flag, _, value in cli.GLOBALS if flag == "--budget"]
    assert default == bounds.DEFAULT_BUDGET
