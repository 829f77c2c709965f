import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

import germdyn
from germdyn import cli, intersect
from germdyn.cli import main
from germdyn.intersect import InfiniteMultiplicity


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out else None


def test_curve_coeffs(capsys):
    code, data = run_json(capsys, "curve", "coeffs", "--seq", "0", "--n", "5")
    assert code == 0
    vals = [c["value"] for c in data["coefficients"]]
    assert vals == ["1", "-1/2^1", "-1/2^3", "-1/2^4", "-5/2^7", "57/2^8"]
    # large integers are emitted as decimal strings
    assert all(isinstance(c["num"], str) for c in data["coefficients"])


def test_curve_mult(capsys):
    code, data = run_json(capsys, "curve", "mult", "--a", "0", "--b", "001")
    assert code == 0
    assert data["formula"] == "22" and data["coefficientwise"] == "22"
    assert data["agree"] is True


def test_verify_pass_and_fail_exit_codes(capsys):
    code, data = run_json(capsys, "verify", "functoriality", "--seq", "0",
                          "--n", "200")
    assert code == 0 and data["result"] == "PASS"
    code2, data2 = run_json(capsys, "verify", "lemma", "--n", "500")
    assert code2 == 0 and data2["result"] == "PASS"
    code3, data3 = run_json(capsys, "verify", "section3", "--a", "0",
                            "--b", "01")
    assert code3 == 0


@pytest.mark.parametrize("check, keys", [("functoriality", ("exponent", "lhs", "rhs")),
                                         ("bound", ("n", "coefficient", "bound"))])
def test_verify_failure_names_its_witness_in_order(capsys, monkeypatch, check, keys):
    # no row fails either check, so a failing check is put in its place
    from germdyn import curvefamily

    monkeypatch.setattr(curvefamily, "verify_" + check,
                        lambda s, n, table: (False, (9, "3/2^5", "-1/2^7")))
    code, out = run(capsys, "--format", "text", "verify", check, "--seq", "0:1...",
                    "--n", "12")
    assert code == 1
    assert out.splitlines() == [
        "check: " + check, "sequence: 0:1...", "n: 12", "result: FAIL", "witness:",
        "  %s: 9" % keys[0], "  %s: 3/2^5" % keys[1], "  %s: -1/2^7" % keys[2]]


def test_arnold(capsys):
    code, data = run_json(capsys, "arnold", "--nu", "pow:2", "--witnesses", "2")
    assert code == 0 and data["result"] == "PASS"
    assert all(isinstance(w["M"], str) for w in data["witnesses"])


def test_mu_seq_and_pipeline(capsys):
    code, data = run_json(capsys, "mu-seq", "--map", "(x^2 - y^4, y^4)",
                          "--ideal", "x, y", "--nmax", "4")
    assert code == 0 and data["mu"] == ["1", "2", "4", "8", "16"]
    code2, data2 = run_json(capsys, "pipeline", "--map", "(x^2 - y^4, y^4)",
                            "--ideal", "x, y", "--nmax", "5")
    assert code2 == 0 and data2["result"] == "PASS"
    assert data2["recursion"]["coeffs"] == ["2"]
    assert data2["asymptotic_rate"]["value"] == "2"
    assert data2["envelope"]["ratio_min"] == "1"
    assert data2["envelope"]["ratio_max"] == "1"


def test_pipeline_detects_the_recursion_on_mu_once(capsys, monkeypatch):
    from germdyn import recurrence

    seqs, detect = [], recurrence.detect_recursion

    def counting(seq, *rest):
        seqs.append(list(seq))
        return detect(seq, *rest)

    monkeypatch.setattr(recurrence, "detect_recursion", counting)
    code, data = run_json(capsys, "pipeline", "--map", "(x^2 - y^4, y^4)",
                          "--ideal", "x, y", "--nmax", "5")
    assert code == 0 and data["envelope"]["pass"] is True
    mu = [int(v) for v in data["mu"]]
    assert seqs.count(mu) == 1, seqs
    assert len(seqs) == 2  # and once on the rates, inside c_infinity


def test_map_validation_is_a_finite_multiplicity(capsys):
    # x + x^2 and y + x y share 1 + x, a unit at the origin, so the germ is
    # finite: i_0(x (1 + x), y (1 + x)) = 1
    code, data = run_json(capsys, "mu-seq", "--map", "(x + x^2, y + x y)",
                          "--ideal", "x, y", "--nmax", "4")
    assert code == 0 and data["mu"] == ["1"] * 5
    # x y and x y^2 share x y, which passes through the origin
    code2, data2 = run_json(capsys, "mu-seq", "--map", "(x y, x y^2)",
                            "--ideal", "x, y", "--nmax", "2")
    assert code2 == 1
    assert data2 == {"stage": "map validation",
                     "error": "components share a factor or degenerate"}


def test_large_y_degree_does_not_recurse(capsys):
    code, data = run_json(capsys, "mu-seq", "--map", "(x^2 - y^4, y^4)",
                          "--ideal", "x, y^1200", "--nmax", "1")
    assert code == 0 and data["mu"] == ["1200", "4"]
    code2, data2 = run_json(capsys, "c-seq", "--map", "(x, y^1200)", "--nmax", "2")
    assert code2 == 0 and data2["rates"] == ["1", "1"]


@pytest.mark.parametrize("argv, code", [
    (["c-seq", "--nmax", "3"], 3),
    (["c-inf"], 3),
    (["mu-seq", "--ideal", "x, y", "--nmax", "3"], 0),
    (["mu-seq", "--ideal", "x^2, x y, y^2", "--nmax", "3"], 3),
    (["pipeline", "--ideal", "x, y", "--nmax", "3"], 3),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_astronomical_map_degree_ends_within_seconds(argv, code):
    # composing x^99999999999 would build 10^11 powers of x, each within the
    # term budget; the power table is capped at --budget entries instead
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", *argv, "--map", "(x^99999999999, y)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 3:
        assert proc.stdout == ""
        assert proc.stderr == ("budget exceeded: a power table of 99999999999 "
                               "entries exceeds the budget of 1000000\n")
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("ideal, code, mu", [("x + y^99999999999, y", 0, ["1", "2", "4"]),
                                            ("x^99999999999, y", 3, None)])
def test_astronomical_ideal_degree_computes_no_coefficient_past_the_jets(ideal, code, mu):
    # gamma is held below t^budget: its t^(10^11) entry, and the power
    # c^(10^11 - 1) it holds for the second ideal, are never built
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", "mu-seq", "--budget", "1000", "--map",
         "(x^2 - y^4, y^4)", "--ideal", ideal, "--nmax", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if mu is None:
        assert proc.stderr == "budget exceeded: mu(0) is at least 1000, the jet budget\n"
    else:
        assert json.loads(proc.stdout)["mu"] == mu


BUDGET_STOPS = [
    # the jets of x^99999999999 vanish below t^T for every T up to the
    # budget: that term is skipped before any of its powers is built
    (["mu-seq", "--map", "(x^2 - y^4, y^4)", "--ideal", "x^99999999999, y", "--nmax", "2"],
     "budget exceeded: mu(0) is at least 1000000, the jet budget\n"),
    # the parser stops at the first square past the budget, not at the 8000th power
    (["c-seq", "--budget", "100", "--map", "((x+y)^8000, y)", "--nmax", "1"],
     "budget exceeded: term count 129 exceeds budget 100\n"),
    (["pipeline", "--budget", "100", "--map", "(x^2 - y^4, y^4)", "--ideal", "(x+y)^8000, y",
      "--nmax", "2"], "budget exceeded: term count 129 exceeds budget 100\n"),
    # the lowest form of F^8_x at weights (2, 1) has 129 terms
    (["c-seq", "--budget", "100", "--map", "(x^2 - y^4, y^4)", "--wx", "2", "--nmax", "8"],
     "budget exceeded: term count 129 exceeds budget 100\n"),
    (["c-seq", "--budget", "10", "--map", "(x - y, x - y + x^2)", "--nmax", "8"],
     "budget exceeded: a weight window of 16 exceeds the budget of 10\n"),
]


@pytest.mark.parametrize("argv, message", BUDGET_STOPS, ids=[" ".join(a) for a, _ in BUDGET_STOPS])
def test_budget_stops_a_job_before_its_work(argv, message):
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("command, map_text, code, mu", [
    ("mu-seq", "(x^99999999999 + y^2, y)", 0, [1, 1, 1, 1]),
    ("pipeline", "(x^99999999999 + y^2, y)", 3, None),
    ("mu-seq", "(x^99999999999 + y^3, y^2 + x y)", 0, [1, 2, 4, 8]),
    ("mu-seq", "(x^99999999999 + y^2, y^2 + x^2 y + x^3)", 0, [1, 2, 4, 8]),
    ("mu-seq", "(x^99999999999 + x^3 + y^2, y^2 + y^3)", 0, [1, 2, 4, 8]),
], ids=lambda v: str(v))
def test_astronomical_x_degree_in_the_finiteness_check(command, map_text, code, mu):
    # i_0(x^99999999999 + y^2, y) = 99999999999 is read off the terms, and
    # the other three maps go to Fulton's sparse reduction: no finiteness check
    # builds a dense row of 10^11 + 1 entries; pipeline's c_sequence stops
    # at the budget
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", command, "--map", map_text,
         "--ideal", "x, y", "--nmax", "3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["mu"] == [str(v) for v in mu]
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("budget exceeded: a power table of 99999999999 ")
    assert time.monotonic() - start < 10


def test_huge_tangent_cone_in_the_finiteness_check_is_a_budget_failure():
    # the cones x + 2 y and x^N + y^N have more than one term each, and N is
    # past the term budget: no dense cone list, and no 2^N in the evaluation
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", "mu-seq",
         "--map", "(x + 2 y, x^99999999999 + y^99999999999)",
         "--ideal", "x, y", "--nmax", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("budget exceeded: a tangent cone of degree 99999999999 "
                           "exceeds the term budget of 1000000\n")


@pytest.mark.parametrize("map_text", [
    "(x^2 + y^99999999999, x^2)",
    "(x + y^99999999999, x)",
    "(x^2 + y^3, x^99999999999 + x y^99999999998)",
])
def test_astronomical_y_degree_in_the_finiteness_check_ends_within_seconds(map_text):
    # the certificate builds no dense row of 10^11 + 1 entries in y, and
    # Fulton's reduction, which would take about 7 10^10 passes on the last
    # map, stops at a pass past the term budget (10^6 passes, about 5 s on
    # one core of a 2-core VM); the timeout is the bound, with room for a
    # loaded host
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", "mu-seq", "--map", map_text,
         "--ideal", "x, y", "--nmax", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 3:
        assert proc.stdout == ""
        assert proc.stderr.startswith("budget exceeded: ")


@pytest.mark.parametrize("flag", ["--wx", "--wy"])
def test_weight_with_a_zero_denominator_is_a_usage_error(capsys, flag):
    code = main(["c-seq", "--map", "(x^2 - y^4, y^4)", "--nmax", "2", flag, "1/0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a weight has a zero denominator\n"


def test_samuel_and_mixed(capsys):
    code, data = run_json(capsys, "samuel", "--ideal", "x^2, y^3, x y")
    assert code == 0 and data["samuel"] == "5"
    code2, data2 = run_json(capsys, "mixed", "--ideal-a", "x, y",
                            "--ideal-b", "x^2, y^3")
    assert code2 == 0
    assert data2["e_mixed"] == "2" and data2["minkowski_ok"] is True


def test_c_seq_and_c_inf(capsys):
    code, data = run_json(capsys, "c-seq", "--map", "(x^2 - y^4, y^4)",
                          "--nmax", "4")
    assert code == 0 and data["rates"] == ["2", "4", "8", "16"]
    code2, data2 = run_json(capsys, "c-inf", "--map", "(y, x y)", "--nmax", "8")
    assert code2 == 0
    assert data2["certificate"]["char_poly"] == ["1", "-1", "-1"]


def test_c_inf_without_a_recursion_is_a_json_failure(capsys):
    code, data = run_json(capsys, "c-inf", "--map", "(y, x y)", "--nmax", "3")
    assert code == 1
    assert data == {"map": "(y, x y)", "error": "no integral recursion of order <= 1 fits"}


def test_pipeline_stage_failures_and_skips(capsys):
    """Each way the recursion, rate and envelope stages of pipeline end."""
    argv = ("pipeline", "--map", "(y + x^2, x y)", "--ideal", "x, y", "--nmax")
    fib = ["1", "1", "2", "3", "5", "8"]
    code, data = run_json(capsys, *argv, "5", "--max-order", "1")
    assert code == 1 and data["result"] == "FAIL" and data["mu"] == fib
    assert data["recursion"] == {"error": "no integral recursion of order <= 1 fits"}
    assert "asymptotic_rate" not in data and "envelope" not in data
    # at nmax 4 the rate stage has one term fewer than mu, so no order-2 fit
    code, data = run_json(capsys, *argv, "4")
    assert code == 0 and data["result"] == "PASS" and data["mu"] == fib[:5]
    assert data["recursion"]["coeffs"] == ["1", "1"]
    assert data["asymptotic_rate"] == {"error": "no integral recursion of order <= 1 fits"}
    assert data["envelope"] == {"skipped": "rate not exact or not > 1"}
    code, data = run_json(capsys, *argv, "5")
    assert code == 0 and data["result"] == "PASS" and data["mu"] == fib
    certificate = data["asymptotic_rate"]["certificate"]
    assert certificate["char_poly"] == ["1", "-1", "-1"]
    assert certificate["dominant_root_bracket"] == ["1", "2"]
    assert data["envelope"] == {"skipped": "rate not exact or not > 1"}


def test_skewness(capsys, tmp_path):
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps(
        {"points": 2, "proximate": [[2, 1]], "axis": "y"}
    ))
    code, data = run_json(capsys, "skewness", "--chart", str(chart),
                          "--i", "2", "--j", "2")
    assert code == 0 and data["skewness"] == "2"


def test_skewness_refuses_a_chart_past_the_budget(capsys, tmp_path):
    # the lattice builds r x r matrices: 121 entries pass a budget of 100
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps({"points": 11, "proximate": [[i, i - 1] for i in range(2, 12)]}))
    assert main(["skewness", "--budget", "100", "--chart", str(chart),
                 "--i", "1", "--j", "2"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: 11 x 11 matrices exceed the budget of 100 entries\n")
    chart.write_text(json.dumps({"points": 3, "proximate": [[2, 1], [3, 2], [3, 1]]}))
    code, _ = run_json(capsys, "skewness", "--budget", "100", "--chart", str(chart),
                       "--i", "1", "--j", "2")
    assert code == 0


def test_recursion_command(capsys):
    code, data = run_json(capsys, "recursion", "--terms",
                          "1,1,2,3,5,8,13,21,34")
    assert code == 0 and data["coeffs"] == ["1", "1"]
    code2, _ = run(capsys, "recursion", "--terms",
                   "2,3,5,7,11,13,17,19,23,29")
    assert code2 == 1


def test_usage_errors(capsys):
    code, _ = run(capsys, "no-such-command")
    assert code == 2
    code2, _ = run(capsys, "curve", "mult", "--a", "0bad", "--b", "1")
    assert code2 == 2
    code3, _ = run(capsys, "mu-seq", "--map", "bogus(", "--ideal", "x, y",
                   "--nmax", "2")
    assert code3 == 2


def test_curve_coeffs_negative_n_is_a_usage_error():
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", "curve", "coeffs", "--seq", "0",
         "--n", "-1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--n must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["c-seq", "samuel"])
def test_deeply_nested_parentheses_are_a_usage_error(command):
    # past the interpreter's recursion limit the parser raises ParseError
    deep = "(" * 3000 + "x" + ")" * 3000
    argv = (["c-seq", "--map", "(%s, y)" % deep, "--nmax", "2"]
            if command == "c-seq" else ["samuel", "--ideal", deep])
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: parentheses nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["mu-seq", "pipeline"])
def test_shared_component_is_a_json_failure(command):
    # D_z and D_w both lie on x = 0, so mu(0) is infinite
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", command, "--map", "(x^2, y^2)",
         "--ideal", "x, x", "--nmax", "3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["stage"] == "local multiplicity"
    assert "shared component" in data["error"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["mu-seq", "pipeline"])
def test_shared_component_is_a_csv_failure(command):
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", command, "--map", "(x^2, y^2)",
         "--ideal", "x, x", "--nmax", "3", "--format", "csv"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["stage", "error"] and len(rows) == 2
    assert rows[1][0] == "local multiplicity"
    assert "shared component" in rows[1][1]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["mu-seq", "pipeline"])
def test_csv_failure_quotes_commas(capsys, monkeypatch, command):
    message = "shared component at iterate 2; sequence [1, 2] so far"

    def failing(*args, **kwargs):
        raise InfiniteMultiplicity(message)

    monkeypatch.setattr(intersect, "mu_sequence", failing)
    code, out = run(capsys, command, "--map", "(x^2 - y^4, y^4)",
                    "--ideal", "x, y", "--nmax", "3", "--format", "csv")
    assert code == 1
    assert out == 'stage,error\nlocal multiplicity,"%s"\n' % message
    assert list(csv.reader(io.StringIO(out))) == [
        ["stage", "error"], ["local multiplicity", message]]


def test_budget_exit_code(capsys):
    code, _ = run(capsys, "--budget", "2", "pipeline",
                  "--map", "(x^2 - y^4, y^4)", "--ideal", "x, y", "--nmax", "5")
    assert code == 3


def test_budget_bounds_the_jets(capsys):
    # mu(n) = 2^n: mu(10) needs a jet longer than the budget
    start = time.monotonic()
    code, out = run(capsys, "--budget", "1000", "mu-seq", "--map", "(x^2 - y^4, y^4)",
                    "--ideal", "x, y", "--nmax", "40")
    assert code == 3 and out == ""
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("argv, largest", [
    (["verify", "bound", "--seq", "1", "--n", "{}"], 100),
    (["verify", "functoriality", "--seq", "0110:(10)", "--n", "{}"], 404),
    (["verify", "lemma", "--n", "{}"], 100),
    (["curve", "coeffs", "--seq", ":(01)", "--n", "{}"], 99),
    (["curve", "mult", "--a", "0", "--b", "0" * 9 + "1", "--coeff-horizon", "{}"], 100),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else str(v))
def test_budget_bounds_rows_and_ranges(capsys, argv, largest):
    # --budget 100 admits a row (or lemma range) of 100 entries, and refuses
    # one entry more before any work, however large --n is
    def at(n):
        return [a.replace("{}", str(n)) for a in argv] + ["--budget", "100"]

    assert main(at(largest)) == 0
    capsys.readouterr()
    for n in (largest + 1, 10**5, 10**12):
        start = time.monotonic()
        assert main(at(n)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: ")
        assert "exceeds the budget of 100" in captured.err
        assert time.monotonic() - start < 1


def test_mu_seq_on_each_arc_shape_and_the_fallback(capsys):
    # a y-graph, a coprime binomial, and a member with no parametrization
    for ideal, mu in [("y - x^2, x^3", ["3", "4", "8", "16", "32"]),
                      ("x^2, y^3", ["6", "12", "24", "48", "96"]),
                      ("x^2, x y, y^2", ["4", "8", "16"])]:
        nmax = str(len(mu) - 1)
        code, data = run_json(capsys, "mu-seq", "--map", "(x^2 - y^4, y^4)",
                              "--ideal", ideal, "--nmax", nmax)
        assert code == 0 and data["mu"] == mu, ideal


@pytest.mark.parametrize("ideal, mu", [
    ("x^2, x y, y^2", ["4", "8", "16", "32", "64"]),
    ("x^3, x y, y^2", ["5", "12", "24", "48"]),
])
def test_mu_seq_pullback_at_high_degree(capsys, ideal, mu):
    # the pullback against D_w reaches x-degree 2^nmax: one pseudo-division
    # by D_w leaves a small resultant (each once took over 30 s)
    start = time.monotonic()
    code, data = run_json(capsys, "mu-seq", "--map", "(x^2 - y^4, y^4)",
                          "--ideal", ideal, "--nmax", str(len(mu) - 1))
    assert code == 0 and data["mu"] == mu
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("nmax", ["0", "1"])
def test_pipeline_needs_two_terms(capsys, nmax):
    code = main(["pipeline", "--map", "(x^2 - y^4, y^4)", "--ideal", "x, y",
                 "--nmax", nmax])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --nmax must be >= 2\n"


@pytest.mark.parametrize("argv", [
    ["recursion", "--terms", "1,2,4,8,16,32", "--max-order", "-5"],
    ["recursion", "--terms", "1,2,4,8,16,32", "--max-order", "0"],
    ["pipeline", "--map", "(x^2 - y^4, y^4)", "--ideal", "x, y", "--nmax", "3",
     "--max-order", "-2"],
], ids=" ".join)
def test_max_order_below_one_is_a_usage_error(capsys, argv):
    # it once ran order 1 and passed
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-order must be >= 1\n"


LEAVES ={path: arguments for path, _, handler, arguments in cli.COMMANDS if handler}


@pytest.mark.parametrize("path", list(LEAVES), ids=" ".join)
@pytest.mark.parametrize("after", [False, True])
def test_negative_budget_is_a_usage_error(capsys, path, after):
    # the budget is checked before the command runs, so any required value does
    argv = list(path)
    for flag, options in LEAVES[path]:
        if options.get("required"):
            argv += [flag, "1"]
    argv = argv + ["--budget", "-1"] if after else ["--budget", "-1"] + argv
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget must be >= 0\n"


@pytest.mark.parametrize("argv", [
    # the last witness needs nu of a height-21 tower, resp. 10^(10^1005)
    ["arnold", "--nu", "tower:2", "--witnesses", "3"],
    ["arnold", "--nu", "pow:10", "--witnesses", "4"],
    # 400 runs of length 2: the finite-contact certificate needs 1197 shifts
    ["--budget", "1000", "arnold", "--nu", "pow:1", "--witnesses", "400"],
], ids=["tower:2-3", "pow:10-4", "pow:1-400-shifts"])
def test_arnold_growth_values_are_bounded_by_budget(argv):
    src = os.path.dirname(os.path.dirname(germdyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "germdyn.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded:")
    assert "Traceback" not in proc.stderr


def test_global_flags_both_positions_and_out(capsys, tmp_path):
    out = tmp_path / "a.json"
    code, text = run(capsys, "--format", "json", "--out", str(out),
                     "samuel", "--ideal", "x, y")
    assert code == 0 and text == ""
    assert json.loads(out.read_text())["samuel"] == "1"
    code2, text2 = run(capsys, "samuel", "--ideal", "x, y",
                       "--format", "csv")
    # samuel has no csv rendering; ValueError maps to usage error
    assert code2 == 2


def test_deterministic_output(capsys):
    _, a = run(capsys, "pipeline", "--map", "(x^2 - y^4, y^4)",
               "--ideal", "x, y", "--nmax", "4")
    _, b = run(capsys, "pipeline", "--map", "(x^2 - y^4, y^4)",
               "--ideal", "x, y", "--nmax", "4")
    assert a == b


CHARTS = {
    "chart2": {"points": 2, "proximate": [[2, 1]], "axis": "y"},
    "nopoints": {"proximate": []},
    "strpoints": {"points": "2", "proximate": [[2, 1]]},
    "intprox": {"points": 2, "proximate": 5},
    "notobject": [2, [[2, 1]]],
}


@pytest.mark.parametrize("argv", [
    ["skewness", "--chart", "{missing}", "--i", "1", "--j", "1"],
    ["arnold", "--nu", "table:{missing}"],
    ["skewness", "--chart", "{nopoints}", "--i", "1", "--j", "1"],
    ["skewness", "--chart", "{strpoints}", "--i", "1", "--j", "1"],
    ["skewness", "--chart", "{intprox}", "--i", "1", "--j", "1"],
    ["skewness", "--chart", "{notobject}", "--i", "1", "--j", "1"],
    ["skewness", "--chart", "{chart2}", "--i", "5", "--j", "1"],
    ["skewness", "--chart", "{chart2}", "--i", "0", "--j", "2"],
    ["skewness", "--chart", "{chart2}", "--i", "2", "--j", "3"],
    ["recursion", "--terms", "1,2,3,4,5", "--holdout", "-1"],
    ["verify", "lemma", "--n", "-5"],
    ["verify", "lemma", "--n", "0"],
    ["mu-seq", "--map", "(x^2 - y^4, y^4)", "--ideal", "x, y", "--nmax", "-1"],
    ["c-seq", "--map", "(x^2 - y^4, y^4)", "--nmax", "0"],
    ["--out", "{missing}/out.json", "samuel", "--ideal", "x, y"],
], ids=" ".join)
def test_bad_input_is_a_usage_error(capsys, tmp_path, argv):
    # a missing file, a malformed chart, an index or count out of range:
    # exit 2 with nothing on stdout, never a traceback or a vacuous PASS
    files = {"missing": tmp_path / "missing"}
    for name, chart in CHARTS.items():
        files[name] = tmp_path / (name + ".json")
        files[name].write_text(json.dumps(chart))
    argv = [a.format(**files) for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""
