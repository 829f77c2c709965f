"""Batch command-line front end.

Every command is deterministic: the same invocation produces byte-identical
output.  Each leaf command has one handler in COMMANDS; it takes the parsed
arguments and returns ``(payload, ok, csv_rows)``: the result dict, False when
a check failed or a stage could not be decided, and the CSV rows (None when
the command has no CSV rendering).  Handlers write nothing and raise
ValueError on bad input.  ``main`` alone renders json, csv or text, honours
``--out`` and picks the exit code: 0 all checks pass, 1 a check failed
(witness in the output) or a stage could not be decided (a {"stage",
"error"} payload), 2 a usage, parse or input-file error, 3 a computation
budget was exceeded.  No failure ends in a traceback.  A job loads and
builds only what its command needs: a handler imports the modules it runs in
its own body, and ``main`` builds the subparsers of the leaf that argv names
(``_leaf_path``), falling back to the full parser for anything else.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from .series import AtLeast, BudgetExceeded

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_ideal(text: str):
    from .polyparse import ParseError, parse_poly_list
    from .staircase import MonomialIdeal2

    gens = []
    for poly in parse_poly_list(text):
        if poly.term_count() != 1:
            raise ParseError("ideal generators must be monomials", 0)
        ((i, j),) = poly.terms.keys()
        gens.append((i, j))
    return MonomialIdeal2(gens)


def _render_text(payload, indent=0):
    lines = []
    pad = "  " * indent
    for key in payload:
        val = payload[key]
        if isinstance(val, dict):
            lines.append("%s%s:" % (pad, key))
            lines.append(_render_text(val, indent + 1).rstrip("\n"))
        elif isinstance(val, list):
            lines.append("%s%s: %s" % (pad, key, json.dumps(val)))
        else:
            lines.append("%s%s: %s" % (pad, key, val))
    return "\n".join(lines) + "\n"


def _result(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _mult_str(v):
    return "at least %s" % v.bound if isinstance(v, AtLeast) else str(v)


# -- subcommand handlers: each returns (payload, ok, csv_rows) -------------

def cmd_curve_coeffs(args):
    from .bitseq import parse_bitseq
    from .curvefamily import CoeffTable

    if args.n < 0:
        raise ValueError("--n must be >= 0")
    s = parse_bitseq(args.seq)
    row = CoeffTable(args.budget).row(s, args.n + 1)
    payload = {
        "sequence": str(s),
        "coefficients": [
            {"n": n, "value": str(a), **a.to_json()} for n, a in enumerate(row)
        ],
    }
    csv_rows = [["n", "num", "exp2"]] + [[n, a.num, a.exp] for n, a in enumerate(row)]
    return payload, True, csv_rows


def cmd_curve_mult(args):
    from .bitseq import parse_bitseq
    from .curvefamily import CoeffTable, mult_coeffwise, mult_formula

    a = parse_bitseq(args.a)
    b = parse_bitseq(args.b)
    if a.same_sequence(b):
        return ({"a": str(a), "b": str(b),
                 "multiplicity": "infinite (equal sequences)"}, True, None)
    formula = mult_formula(a, b, args.horizon)
    coeffwise = mult_coeffwise(a, b, args.coeff_horizon, CoeffTable(args.budget))
    decided = isinstance(coeffwise, int)
    agree = decided and formula == coeffwise
    payload = {
        "a": str(a),
        "b": str(b),
        "formula": _mult_str(formula),
        "coefficientwise": _mult_str(coeffwise),
        "agree": agree if decided else "undetermined",
    }
    return payload, agree or not decided, None


def cmd_verify_functoriality(args):
    from .bitseq import parse_bitseq
    from .curvefamily import CoeffTable, verify_functoriality

    s = parse_bitseq(args.seq)
    ok, witness = verify_functoriality(s, args.n, CoeffTable(args.budget))
    payload = {"check": "functoriality", "sequence": str(s), "n": args.n,
               "result": _result(ok)}
    if witness:
        exponent, lhs, rhs = witness
        payload["witness"] = {"exponent": exponent, "lhs": str(lhs), "rhs": str(rhs)}
    return payload, ok, None


def cmd_verify_bound(args):
    from .bitseq import parse_bitseq
    from .curvefamily import CoeffTable, verify_bound

    s = parse_bitseq(args.seq)
    ok, witness = verify_bound(s, args.n, CoeffTable(args.budget))
    payload = {"check": "bound", "sequence": str(s), "n": args.n,
               "result": _result(ok)}
    if witness:
        n, coefficient, bound = witness
        payload["witness"] = {"n": n, "coefficient": str(coefficient),
                              "bound": str(bound)}
    return payload, ok, None


def cmd_verify_lemma(args):
    from .curvefamily import lemma_sum_check_range

    if args.n > args.budget:
        raise BudgetExceeded("a range of %d terms exceeds the budget of %d"
                             % (args.n, args.budget))
    ok, bad = lemma_sum_check_range(args.n)
    payload = {"check": "lemma", "n_max": args.n, "result": _result(ok)}
    if bad is not None:
        payload["witness"] = {"n": bad}
    return payload, ok, None


def cmd_verify_section3(args):
    from .bitseq import parse_bitseq
    from .curvefamily import section3_recursion_check

    a = parse_bitseq(args.a)
    b = parse_bitseq(args.b)
    ok = section3_recursion_check(a, b, args.horizon)
    return ({"check": "section3", "a": str(a), "b": str(b),
             "result": _result(ok)}, ok, None)


def cmd_arnold(args):
    from .curvefamily import (GrowthSpec, build_theoremA_pair,
                              certify_finite_contacts, mu_digit_count,
                              mult_formula_exceeds)

    nu = GrowthSpec.parse(args.nu)
    try:
        s, t, witnesses = build_theoremA_pair(nu, args.witnesses, args.budget)
    except IndexError as exc:
        from .polyparse import ParseError

        raise ParseError(str(exc), 0)
    horizon = witnesses[-1][0]
    finite_ok = certify_finite_contacts(s, t, horizon)
    records = [
        {
            "n": str(n_k),
            "M": str(M),
            "nu": str(nu_val),
            "mu_digits": str(mu_digit_count(M)),
            "mu_exceeds_nu": mult_formula_exceeds(M, nu_val),
        }
        for n_k, M, nu_val in witnesses
    ]
    ok = finite_ok and all(r["mu_exceeds_nu"] for r in records)
    payload = {
        "growth": str(nu),
        "witnesses": records,
        "finite_contacts_horizon": str(horizon),
        "finite_contacts_certified": finite_ok,
        "result": _result(ok),
    }
    return payload, ok, None


def _stage_failure(stage: str, error: str):
    return ({"stage": stage, "error": error}, False,
            [["stage", "error"], [stage, error]])


def _mu_stage(args):
    """The stages mu-seq and pipeline share: validate the map, then compute
    mu(0..nmax).  Returns (F, mu), or (None, result) with the handler result
    naming the stage that failed."""
    from .bipoly import MapGerm
    from .intersect import GenericSampler, InfiniteMultiplicity, mu_sequence
    from .polyparse import parse_map, parse_poly_list

    F = MapGerm(*parse_map(args.map))
    if not F.finiteness_certificate():
        return None, _stage_failure("map validation",
                                    "components share a factor or degenerate")
    gens = parse_poly_list(args.ideal)
    sampler = GenericSampler(args.seed)
    z = sampler.draw_vector(len(gens))
    w = sampler.draw_vector(len(gens))
    try:
        return F, mu_sequence(F, gens, z, w, args.nmax, sampler, args.budget)
    except InfiniteMultiplicity as exc:
        return None, _stage_failure("local multiplicity", str(exc))


def cmd_mu_seq(args):
    F, mu = _mu_stage(args)
    if F is None:  # mu is the stage failure
        return mu
    payload = {"map": args.map, "ideal": args.ideal, "seed": args.seed,
               "mu": [str(v) for v in mu]}
    return payload, True, [["n", "mu"]] + [[n, v] for n, v in enumerate(mu)]


def cmd_samuel(args):
    from .staircase import samuel

    ideal = _parse_ideal(args.ideal)
    return {"ideal": str(ideal), "samuel": str(samuel(ideal))}, True, None


def cmd_mixed(args):
    from .staircase import minkowski_check, mixed, samuel

    A = _parse_ideal(args.ideal_a)
    B = _parse_ideal(args.ideal_b)
    e_a, e_b = samuel(A), samuel(B)
    e_mixed = mixed(A, B)
    ok = minkowski_check(A, B)
    payload = {"e_a": str(e_a), "e_b": str(e_b), "e_mixed": str(e_mixed),
               "minkowski_ok": ok}
    return payload, ok, None


def cmd_c_seq(args):
    from .bipoly import MapGerm
    from .polyparse import parse_map
    from .valuation import MonomialValuation, c_sequence

    F = MapGerm(*parse_map(args.map))
    try:
        nu = MonomialValuation(Fraction(args.wx), Fraction(args.wy))
    except ZeroDivisionError:  # "1/0" parses as a Fraction with denominator 0
        raise ValueError("a weight has a zero denominator") from None
    rates = c_sequence(F, nu, args.nmax, args.budget)
    payload = {"map": args.map, "weights": [str(nu.sx), str(nu.ty)],
               "rates": [str(r) for r in rates]}
    return payload, True, [["n", "c"]] + [[n + 1, r] for n, r in enumerate(rates)]


def cmd_c_inf(args):
    from .bipoly import MapGerm
    from .polyparse import parse_map
    from .recurrence import NoRecurrenceFound
    from .valuation import c_infinity

    F = MapGerm(*parse_map(args.map))
    try:
        rate = c_infinity(F, args.nmax, args.budget)
    except NoRecurrenceFound as exc:
        return {"map": args.map, "error": str(exc)}, False, None
    return {"map": args.map, **rate.to_json()}, True, None


def cmd_skewness(args):
    from .proximity import ProximityChart, skewness

    with open(args.chart) as fh:
        chart = ProximityChart.from_json(fh.read())
    value = skewness(chart, args.i, args.j)
    payload = {"chart": chart.to_json(), "i": args.i, "j": args.j,
               "skewness": str(value)}
    return payload, True, None


def cmd_recursion(args):
    from .recurrence import NoRecurrenceFound, detect_recursion

    seq = [int(v) for v in args.terms.split(",")]
    max_order = max(1, min(args.max_order, (len(seq) - args.holdout) // 2))
    try:
        model = detect_recursion(seq, max_order, args.holdout)
    except NoRecurrenceFound as exc:
        return {"terms": seq, "error": str(exc)}, False, None
    return {"terms": [str(v) for v in seq], **model.to_json()}, True, None


def cmd_pipeline(args):
    if args.nmax < 2:  # a recursion needs terms to fit and one to hold out
        raise ValueError("--nmax must be >= 2")
    from .recurrence import NoRecurrenceFound, detect_recursion
    from .valuation import c_infinity, growth_envelope_check

    F, mu = _mu_stage(args)
    if F is None:  # mu is the stage failure
        return mu
    payload = {"map": args.map, "ideal": args.ideal, "seed": args.seed,
               "mu": [str(v) for v in mu]}
    max_order = max(1, min(args.max_order, (len(mu) - 1) // 2))
    try:
        payload["recursion"] = detect_recursion(mu, max_order, 1).to_json()
    except (NoRecurrenceFound, ValueError) as exc:
        payload["recursion"] = {"error": str(exc)}
        payload["result"] = "FAIL"
        return payload, False, None
    try:
        rate = c_infinity(F, max(3, args.nmax), args.budget)
        payload["asymptotic_rate"] = rate.to_json()
    except NoRecurrenceFound as exc:
        payload["asymptotic_rate"] = {"error": str(exc)}
        rate = None
    ok = True
    if rate is not None and rate.is_exact and rate.value > 1:
        report = growth_envelope_check(mu, rate.value, max_order, 1)
        ok = report["pass"]
        payload["envelope"] = {
            "pass": ok,
            "ratio_min": None if report["ratio_min"] is None else str(report["ratio_min"]),
            "ratio_max": None if report["ratio_max"] is None else str(report["ratio_max"]),
            "onset": report["onset"],
        }
    else:
        payload["envelope"] = {"skipped": "rate not exact or not > 1"}
    payload["result"] = _result(ok)
    return payload, ok, None


# -- argument wiring --------------------------------------------------------

_INT = {"type": int}
_REQ = {"required": True}
_REQ_INT = {"type": int, "required": True}

# (flag, argparse options, default).  The parser gives every global flag the
# default SUPPRESS, so a value parsed before the subcommand is not clobbered
# by the subparser's defaults; main fills in the defaults below.
GLOBALS = (
    ("--seed", {"type": int, "help": "sampler seed"}, 0),
    ("--format", {"choices": ["json", "csv", "text"]}, "json"),
    ("--out", {"help": "output path (default stdout)"}, None),
    ("--budget", {"type": int, "help": "term-count and power-table budget for compositions, "
                  "coefficient budget for the jets of mu-seq and pipeline and "
                  "for the coefficient rows of curve and verify, range budget "
                  "for verify lemma, and bit-size budget for arnold growth "
                  "values"}, 10**6),
)

# (path, help, handler, arguments).  A row without a handler is a command
# group; its leaves follow it.  Each argument is (flag, argparse options).
COMMANDS = (
    (("curve",), "coefficients and pair multiplicities", None, ()),
    (("curve", "coeffs"), None, cmd_curve_coeffs,
     (("--seq", _REQ), ("--n", _REQ_INT))),
    (("curve", "mult"), None, cmd_curve_mult,
     (("--a", _REQ), ("--b", _REQ), ("--horizon", {**_INT, "default": 64}),
      ("--coeff-horizon", {**_INT, "default": 400}))),
    (("verify",), "exact verification suites", None, ()),
    (("verify", "functoriality"), None, cmd_verify_functoriality,
     (("--seq", _REQ), ("--n", {**_INT, "default": 2000}))),
    (("verify", "bound"), None, cmd_verify_bound,
     (("--seq", _REQ), ("--n", {**_INT, "default": 2000}))),
    (("verify", "lemma"), None, cmd_verify_lemma,
     (("--n", {**_INT, "default": 10000}),)),
    (("verify", "section3"), None, cmd_verify_section3,
     (("--a", _REQ), ("--b", _REQ), ("--horizon", {**_INT, "default": 64}))),
    (("arnold",), "fast-growth witness construction", cmd_arnold,
     (("--nu", _REQ), ("--witnesses", {**_INT, "default": 3}))),
    (("mu-seq",), "multiplicity sequence of iterates", cmd_mu_seq,
     (("--map", _REQ), ("--ideal", _REQ), ("--nmax", _REQ_INT))),
    (("samuel",), "staircase multiplicity", cmd_samuel, (("--ideal", _REQ),)),
    (("mixed",), "mixed multiplicity by polarization", cmd_mixed,
     (("--ideal-a", _REQ), ("--ideal-b", _REQ))),
    (("c-seq",), "attraction rates along iterates", cmd_c_seq,
     (("--map", _REQ), ("--wx", {"default": "1"}), ("--wy", {"default": "1"}),
      ("--nmax", _REQ_INT))),
    (("c-inf",), "asymptotic attraction rate", cmd_c_inf,
     (("--map", _REQ), ("--nmax", {**_INT, "default": 6}))),
    (("skewness",), "tree height from a proximity chart", cmd_skewness,
     (("--chart", {**_REQ, "help": "path to chart JSON"}), ("--i", _REQ_INT),
      ("--j", _REQ_INT))),
    (("recursion",), "detect an integral linear recursion", cmd_recursion,
     (("--terms", {**_REQ, "help": "comma-separated integers"}),
      ("--max-order", {**_INT, "default": 4}), ("--holdout", {**_INT, "default": 2}))),
    (("pipeline",), "mu sequence, recursion, rate, bounds", cmd_pipeline,
     (("--map", _REQ), ("--ideal", _REQ), ("--nmax", _REQ_INT),
      ("--max-order", {**_INT, "default": 3}))),
)


def build_parser(leaf: tuple | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  Given the path of a COMMANDS leaf, it builds only the
    subparsers on that path; their usage lines still name every command, so
    an argv that names the leaf parses, and fails, as with the full parser."""
    common = argparse.ArgumentParser(add_help=False)
    for flag, options, _ in GLOBALS:
        common.add_argument(flag, default=argparse.SUPPRESS, **options)
    ap = argparse.ArgumentParser(
        prog="germdyn",
        description="Exact curve-family, multiplicity, and attraction-rate "
        "computations for plane germs.",
        parents=[common],
    )

    def add_subparsers(parser, path):
        kw = {}
        if leaf is not None:
            # the usage the full parser derives from its choices; a metavar
            # also names the action in the errors of a missing or unknown
            # command, which an argv naming this leaf never raises
            kw["metavar"] = "{%s}" % ",".join(
                p[-1] for p, _, _, _ in COMMANDS if p[:-1] == path)
        return parser.add_subparsers(dest="command", required=True, **kw)

    subparsers = {(): add_subparsers(ap, ())}
    for path, help_text, handler, arguments in COMMANDS:
        if leaf is not None and leaf[:len(path)] != path:
            continue
        # a parser added with help=None would still get a line of its own in
        # its group's help, so a leaf without help passes none
        kw = {} if help_text is None else {"help": help_text}
        p = subparsers[path[:-1]].add_parser(path[-1], parents=[common], **kw)
        if handler is None:
            subparsers[path] = add_subparsers(p, path)
            continue
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return ap


def _leaf_path(argv):
    """The path of the COMMANDS leaf that argv names, skipping global flags
    and their values; None when anything else comes first (help, an
    abbreviated or unknown flag, a flag-like value, a group without its leaf
    or an unknown command), which only the full parser handles."""
    flags = {flag for flag, _, _ in GLOBALS}
    handlers = {path: handler for path, _, handler, _ in COMMANDS}
    path = ()
    args = iter(argv)
    for arg in args:
        if arg in flags:
            if next(args, "-").startswith("-"):
                return None
        elif arg.startswith("-"):
            if arg.partition("=")[0] not in flags:
                return None
        else:
            path += (arg,)
            if path not in handlers:
                return None
            if handlers[path] is not None:
                return path
    return None


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # outputs legitimately contain very large exact integers
        sys.set_int_max_str_digits(10**7)
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(_leaf_path(argv)).parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for flag, _, default in GLOBALS:
        vars(args).setdefault(flag[2:], default)
    try:
        if args.budget < 0:
            raise ValueError("--budget must be >= 0")
        payload, ok, csv_rows = args.func(args)
        if args.format == "json":
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        elif args.format == "text":
            text = _render_text(payload)
        elif csv_rows is None:
            raise ValueError("this command has no CSV rendering")
        else:
            import csv  # imported here: every other format starts faster without it

            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(csv_rows)
            text = buf.getvalue()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return EXIT_BUDGET
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
