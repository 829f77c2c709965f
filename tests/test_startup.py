"""Start-up cost: importing the package loads no module, a CLI job loads only
the modules its command runs and, when it succeeds, no argparse, and the
runtime needs nothing but the stdlib."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import germdyn
from germdyn import cli

SRC = os.path.dirname(os.path.dirname(germdyn.__file__))

# runs one CLI job, then prints its exit code, the germdyn modules loaded,
# every other module it loaded from outside the stdlib, whether it loaded
# argparse and gettext, and whether it loaded fractions and decimal
PROBE = """\
import contextlib, io, json, sys
before = set(sys.modules)
from germdyn.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
tops = {m.split(".")[0] for m in set(sys.modules) - before}
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "germdyn"),
                  sorted(tops - {"germdyn"} - sys.stdlib_module_names),
                  sorted({"argparse", "gettext"} & set(sys.modules)),
                  sorted({"fractions", "decimal"} & set(sys.modules))]))
"""

# every job loads bounds, for BudgetExceeded, and the module of its handler;
# of the curve-family jobs only curve coeffs, which prints a row, builds a Dyadic
FAMILY = {"bounds", "cli_family", "bitseq", "curvefamily"}
# c-seq reads rates off weight windows and compiles none of the elimination
# kernels of intpoly; c-inf loads them for its Sturm chain
RATES = {"bounds", "cli_maps", "bipoly", "polyparse", "valuation"}
# mu-seq and pipeline iterate the arc on the window rule of bipoly, and load
# no series
ITERATE = RATES | {"intersect", "intpoly", "recurrence"}
MU = {"bounds", "cli_maps", "bipoly", "intersect", "intpoly", "polyparse"}
IDEALS = {"bounds", "cli_ideals", "bipoly", "polyparse", "staircase"}
MAP = "(x^2 - y^4, y^4)"

# one cheap, successful job per COMMANDS leaf, and the modules it may load
JOBS = {
    ("curve", "coeffs"): (["--seq", "0", "--n", "3"], FAMILY | {"dyadic"}),
    ("curve", "mult"): (["--a", "0", "--b", "001"], FAMILY),
    ("verify", "functoriality"): (["--seq", "0", "--n", "20"], FAMILY),
    ("verify", "bound"): (["--seq", "0", "--n", "20"], FAMILY),
    ("verify", "lemma"): (["--n", "50"], FAMILY),
    ("verify", "section3"): (["--a", "0", "--b", "001"], FAMILY),
    # the third witness has m > 10^5, so its digit count is taken by logarithm
    ("arnold",): (["--nu", "pow:3", "--witnesses", "3"], FAMILY),
    ("mu-seq",): (["--map", MAP, "--ideal", "x, y", "--nmax", "2"], MU),
    ("samuel",): (["--ideal", "x^2, y^3"], IDEALS),
    ("mixed",): (["--ideal-a", "x^2, y^3", "--ideal-b", "x, y"], IDEALS),
    ("c-seq",): (["--map", MAP, "--nmax", "3"], RATES),
    ("c-inf",): (["--map", MAP, "--nmax", "3"], RATES | {"intpoly", "recurrence"}),
    ("skewness",): (["--chart", "CHART", "--i", "1", "--j", "2"],
                    {"bounds", "cli_ideals", "proximity"}),
    ("recursion",): (["--terms", "1,2,4,8,16,32"], {"bounds", "cli_maps", "recurrence"}),
    ("pipeline",): (["--map", MAP, "--ideal", "x, y", "--nmax", "3"], ITERATE),
}

# what the package exported when its __init__ imported every module
OLD_EXPORTS = {
    "bipoly": ["BiPoly", "BudgetExceeded", "ZeroPolynomial", "bipoly_gcd", "resultant_x"],
    "bitseq": ["BitSeq", "first_difference", "parse_bitseq"],
    "curvefamily": ["CoeffTable", "GrowthSpec", "build_theoremA_pair", "coeff", "curve",
                    "lemma_sum_check", "mult_coeffwise", "mult_formula", "mu_theoremA",
                    "section3_recursion_check", "verify_bound", "verify_functoriality"],
    "dyadic": ["Dyadic"],
    "intersect": ["INFINITE", "GenericSampler", "MapGerm", "PlaneCurve", "local_mult",
                  "mu_sequence", "pullback", "samuel_via_generic"],
    "proximity": ["ExceptionalLattice", "ProximityChart", "intersection_matrix", "skewness"],
    "recurrence": ["NoRecurrenceFound", "RecurrenceModel", "detect_recursion"],
    "series": ["AtLeast", "USeries"],
    "bounds": ["AtLeast", "BudgetExceeded"],
    "staircase": ["MonomialIdeal2", "colength_power", "containment_index",
                  "hilbert_samuel_fit", "minkowski_check", "mixed", "product", "samuel"],
    "valuation": ["AsymptoticRate", "MonomialValuation", "attraction_rate", "c_infinity",
                  "c_sequence", "growth_envelope_check"],
}


def probe(*argv):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_leaf_has_a_job():
    leaves = {path for path, _, handler, _ in cli.COMMANDS if handler is not None}
    assert leaves == set(JOBS)


def loaded_by(code):
    """The germdyn modules, and argparse if so, that running code loads."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "; import sys; print(' '.join(sorted("
         "m for m in sys.modules if m.split('.')[0] in ('germdyn', 'argparse'))))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_cli_loads_no_math_module():
    assert loaded_by("import germdyn.cli") == ["germdyn", "germdyn.cli"]


def test_building_the_parser_loads_no_handler_and_no_math_module():
    # the benchmark's set-up times this call
    assert loaded_by("import germdyn.cli; germdyn.cli.build_parser()") == [
        "argparse", "germdyn", "germdyn.cli"]


@pytest.mark.parametrize("argv, code", [(["-h"], 0), (["c-seq", "-h"], 0),
                                        (["c-seq"], 2), (["frobnicate"], 2)])
def test_help_and_usage_errors_load_argparse(argv, code):
    exit_code, _, _, parsers, _ = probe(*argv)
    assert exit_code == code and parsers == ["argparse", "gettext"]


@pytest.mark.parametrize("path", sorted(JOBS), ids=" ".join)
def test_a_job_loads_only_what_its_command_runs(path, tmp_path):
    args, allowed = JOBS[path]
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps({"points": 3, "proximate": [[2, 1], [3, 2], [3, 1]]}))
    args = [str(chart) if a == "CHART" else a for a in args]
    code, modules, outside, parsers, rationals = probe(*path, *args)
    assert code == 0
    assert set(modules) == {"germdyn", "germdyn.cli"} | {"germdyn." + m for m in allowed}
    assert outside == []
    assert parsers == []
    # curve-family jobs build no Fraction, so they import neither module
    if allowed >= FAMILY:
        assert rationals == []


def test_c_seq_compiles_no_elimination_kernel():
    _, modules, _, _, _ = probe("c-seq", "--map", MAP, "--wx", "3/2", "--nmax", "4")
    assert "germdyn.intpoly" not in modules and "germdyn.valuation" in modules


def test_the_package_imports_only_itself_and_the_stdlib():
    pkg = os.path.dirname(germdyn.__file__)
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue  # not an import, or a relative one inside germdyn
            for top in tops:
                assert top == "germdyn" or top in sys.stdlib_module_names, (name, top)


def test_old_exports_resolve_lazily_to_the_defining_objects():
    names = dir(germdyn)
    for module, exported in OLD_EXPORTS.items():
        mod = import_module("germdyn." + module)
        assert module in names and getattr(germdyn, module) is mod
        for name in exported:
            assert name in names
            assert getattr(germdyn, name) is getattr(mod, name), name
    assert germdyn.bipoly.BudgetExceeded is germdyn.series.BudgetExceeded
    assert germdyn.bitseq.AtLeast is germdyn.series.AtLeast
    assert germdyn.__version__ == "0.1.0"


def test_from_imports_and_unknown_names():
    from germdyn import BiPoly, intersect, polyparse

    assert BiPoly is germdyn.bipoly.BiPoly
    assert intersect is sys.modules["germdyn.intersect"]
    assert polyparse.BiPoly is BiPoly
    with pytest.raises(AttributeError):
        germdyn.nosuchname
    with pytest.raises(ImportError):
        from germdyn import nosuchname  # noqa: F401
