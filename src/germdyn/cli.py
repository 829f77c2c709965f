"""Batch command-line front end.

Every command is deterministic given its arguments: the same invocation
produces byte-identical output.  Exit codes: 0 all checks pass, 1 a
mathematical check failed (witness in the output) or a stage could not be
decided (a {"stage", "error"} payload), 2 usage or parse error, 3 a
computation budget was exceeded.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from .bipoly import BudgetExceeded
from .bitseq import NoneBelow, first_difference, parse_bitseq
from .curvefamily import (
    CoeffTable,
    GrowthSpec,
    InfiniteAbove,
    build_theoremA_pair,
    certify_finite_contacts,
    lemma_sum_check_range,
    mu_digit_count,
    mult_coeffwise,
    mult_formula,
    section3_recursion_check,
    verify_bound,
    verify_functoriality,
)
from .intersect import (
    GenericityFailure,
    GenericSampler,
    InfiniteMultiplicity,
    MapGerm,
    mu_sequence,
)
from .polyparse import ParseError, parse_map, parse_poly, parse_poly_list
from .proximity import ProximityChart, intersection_matrix, skewness
from .recurrence import NoRecurrenceFound, detect_recursion
from .staircase import MonomialIdeal2, minkowski_check, mixed, product, samuel
from .valuation import MonomialValuation, c_infinity, c_sequence, growth_envelope_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_ideal(text: str) -> MonomialIdeal2:
    gens = []
    for poly in parse_poly_list(text):
        if poly.term_count() != 1:
            raise ParseError("ideal generators must be monomials", 0)
        ((i, j),) = poly.terms.keys()
        gens.append((i, j))
    return MonomialIdeal2(gens)


def _emit(args, payload: dict, csv_rows=None):
    fmt = args.format
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        if csv_rows is None:
            raise ValueError("this command has no CSV rendering")
        import csv  # imported here: every other format starts faster without it

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = _render_text(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _frac_str(q) -> str:
    return str(Fraction(q))


# -- subcommand handlers ----------------------------------------------------

def cmd_curve(args) -> int:
    table = CoeffTable()
    if args.action == "coeffs":
        if args.n < 0:
            raise ValueError("--n must be >= 0")
        s = parse_bitseq(args.seq)
        row = table.row(s, args.n + 1)
        payload = {
            "sequence": str(s),
            "coefficients": [
                {"n": n, "value": str(a), **a.to_json()} for n, a in enumerate(row)
            ],
        }
        csv_rows = [["n", "num", "exp2"]] + [
            [n, a.num, a.exp] for n, a in enumerate(row)
        ]
        _emit(args, payload, csv_rows)
        return EXIT_OK
    # action == "mult"
    a = parse_bitseq(args.a)
    b = parse_bitseq(args.b)
    if a.same_sequence(b):
        _emit(args, {"a": str(a), "b": str(b),
                     "multiplicity": "infinite (equal sequences)"})
        return EXIT_OK
    formula = mult_formula(a, b, args.horizon)
    coeffwise = mult_coeffwise(a, b, args.coeff_horizon, table)
    payload = {
        "a": str(a),
        "b": str(b),
        "formula": _mult_str(formula),
        "coefficientwise": _mult_str(coeffwise),
    }
    agree = (
        isinstance(formula, int)
        and isinstance(coeffwise, int)
        and formula == coeffwise
    )
    payload["agree"] = agree if isinstance(coeffwise, int) else "undetermined"
    _emit(args, payload)
    if isinstance(coeffwise, int) and not agree:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _mult_str(v):
    if isinstance(v, InfiniteAbove):
        return "at least %s" % v.bound
    from .series import AtLeast

    if isinstance(v, AtLeast):
        return "at least order %d" % v.bound
    return str(v)


def cmd_verify(args) -> int:
    table = CoeffTable()
    if args.check == "functoriality":
        s = parse_bitseq(args.seq)
        ok, witness = verify_functoriality(s, args.n, table)
        payload = {"check": "functoriality", "sequence": str(s), "n": args.n,
                   "result": "PASS" if ok else "FAIL"}
        if witness:
            payload["witness"] = {
                "exponent": witness[0],
                "lhs": str(witness[1]),
                "rhs": str(witness[2]),
            }
    elif args.check == "bound":
        s = parse_bitseq(args.seq)
        ok, witness = verify_bound(s, args.n, table)
        payload = {"check": "bound", "sequence": str(s), "n": args.n,
                   "result": "PASS" if ok else "FAIL"}
        if witness:
            payload["witness"] = {
                "n": witness[0],
                "coefficient": str(witness[1]),
                "bound": _frac_str(witness[2]),
            }
    elif args.check == "lemma":
        ok, bad = lemma_sum_check_range(args.n)
        payload = {"check": "lemma", "n_max": args.n,
                   "result": "PASS" if ok else "FAIL"}
        if bad is not None:
            payload["witness"] = {"n": bad}
    else:  # section3
        a = parse_bitseq(args.a)
        b = parse_bitseq(args.b)
        ok = section3_recursion_check(a, b, args.horizon)
        payload = {"check": "section3", "a": str(a), "b": str(b),
                   "result": "PASS" if ok else "FAIL"}
    _emit(args, payload)
    return EXIT_OK if payload["result"] == "PASS" else EXIT_CHECK_FAILED


def cmd_arnold(args) -> int:
    nu = GrowthSpec.parse(args.nu)
    try:
        s, t, witnesses = build_theoremA_pair(nu, args.witnesses)
    except IndexError as exc:
        raise ParseError(str(exc), 0)
    horizon = witnesses[-1][0]
    finite_ok = certify_finite_contacts(s, t, horizon)
    records = []
    all_beat = True
    for n_k, M, nu_val in witnesses:
        from .curvefamily import mult_formula_exceeds

        beats = mult_formula_exceeds(M, nu_val)
        all_beat = all_beat and beats
        records.append(
            {
                "n": str(n_k),
                "M": str(M),
                "nu": str(nu_val),
                "mu_digits": str(mu_digit_count(M)),
                "mu_exceeds_nu": beats,
            }
        )
    payload = {
        "growth": str(nu),
        "witnesses": records,
        "finite_contacts_horizon": str(horizon),
        "finite_contacts_certified": finite_ok,
        "result": "PASS" if (all_beat and finite_ok) else "FAIL",
    }
    _emit(args, payload)
    return EXIT_OK if payload["result"] == "PASS" else EXIT_CHECK_FAILED


def _mu_stage(args):
    """The stages mu-seq and pipeline share: validate the map, then compute
    mu(0..nmax).  Returns (F, mu), or (None, payload) naming the stage that
    failed."""
    F = MapGerm(*parse_map(args.map))
    if not F.finiteness_certificate():
        return None, {"stage": "map validation",
                      "error": "components share a factor or degenerate"}
    gens = parse_poly_list(args.ideal)
    sampler = GenericSampler(args.seed)
    z = sampler.draw_vector(len(gens))
    w = sampler.draw_vector(len(gens))
    try:
        return F, mu_sequence(F, gens, z, w, args.nmax, sampler, args.budget)
    except (InfiniteMultiplicity, GenericityFailure) as exc:
        return None, {"stage": "local multiplicity", "error": str(exc)}


def _emit_stage_failure(args, payload: dict) -> int:
    _emit(args, payload, [["stage", "error"], [payload["stage"], payload["error"]]])
    return EXIT_CHECK_FAILED


def cmd_mu_seq(args) -> int:
    F, mu = _mu_stage(args)
    if F is None:  # mu is the failure payload
        return _emit_stage_failure(args, mu)
    payload = {"map": args.map, "ideal": args.ideal, "seed": args.seed,
               "mu": [str(v) for v in mu]}
    csv_rows = [["n", "mu"]] + [[n, v] for n, v in enumerate(mu)]
    _emit(args, payload, csv_rows)
    return EXIT_OK


def cmd_samuel(args) -> int:
    ideal = _parse_ideal(args.ideal)
    payload = {"ideal": str(ideal), "samuel": str(samuel(ideal))}
    _emit(args, payload)
    return EXIT_OK


def cmd_mixed(args) -> int:
    A = _parse_ideal(args.ideal_a)
    B = _parse_ideal(args.ideal_b)
    e_a, e_b = samuel(A), samuel(B)
    e_mixed = mixed(A, B)
    payload = {
        "e_a": str(e_a),
        "e_b": str(e_b),
        "e_mixed": str(e_mixed),
        "minkowski_ok": minkowski_check(A, B),
    }
    _emit(args, payload)
    return EXIT_OK if payload["minkowski_ok"] else EXIT_CHECK_FAILED


def cmd_c_seq(args) -> int:
    fx, fy = parse_map(args.map)
    F = MapGerm(fx, fy)
    nu = MonomialValuation(Fraction(args.wx), Fraction(args.wy))
    rates = c_sequence(F, nu, args.nmax, args.budget)
    payload = {"map": args.map, "weights": [str(nu.sx), str(nu.ty)],
               "rates": [str(r) for r in rates]}
    csv_rows = [["n", "c"]] + [[n + 1, r] for n, r in enumerate(rates)]
    _emit(args, payload, csv_rows)
    return EXIT_OK


def cmd_c_inf(args) -> int:
    fx, fy = parse_map(args.map)
    F = MapGerm(fx, fy)
    try:
        rate = c_infinity(F, args.nmax, args.budget)
    except NoRecurrenceFound as exc:
        _emit(args, {"map": args.map, "error": str(exc)})
        return EXIT_CHECK_FAILED
    payload = {"map": args.map, **rate.to_json()}
    _emit(args, payload)
    return EXIT_OK


def cmd_skewness(args) -> int:
    with open(args.chart) as fh:
        chart = ProximityChart.from_json(fh.read())
    value = skewness(chart, args.i, args.j)
    payload = {"chart": chart.to_json(), "i": args.i, "j": args.j,
               "skewness": _frac_str(value)}
    _emit(args, payload)
    return EXIT_OK


def cmd_recursion(args) -> int:
    seq = [int(v) for v in args.terms.split(",")]
    max_order = max(1, min(args.max_order, (len(seq) - args.holdout) // 2))
    try:
        model = detect_recursion(seq, max_order, args.holdout)
    except NoRecurrenceFound as exc:
        _emit(args, {"terms": seq, "error": str(exc)})
        return EXIT_CHECK_FAILED
    _emit(args, {"terms": [str(v) for v in seq], **model.to_json()})
    return EXIT_OK


def cmd_pipeline(args) -> int:
    F, mu = _mu_stage(args)
    if F is None:  # mu is the failure payload
        return _emit_stage_failure(args, mu)
    payload = {"map": args.map, "ideal": args.ideal, "seed": args.seed,
               "mu": [str(v) for v in mu]}
    max_order = max(1, min(args.max_order, (len(mu) - 1) // 2))
    try:
        model = detect_recursion(mu, max_order, 1)
        payload["recursion"] = model.to_json()
    except (NoRecurrenceFound, ValueError) as exc:
        payload["recursion"] = {"error": str(exc)}
        payload["result"] = "FAIL"
        _emit(args, payload)
        return EXIT_CHECK_FAILED
    try:
        rate = c_infinity(F, max(3, args.nmax), args.budget)
        payload["asymptotic_rate"] = rate.to_json()
    except NoRecurrenceFound as exc:
        payload["asymptotic_rate"] = {"error": str(exc)}
        rate = None
    if rate is not None and rate.is_exact and rate.value > 1:
        report = growth_envelope_check(mu, rate.value, max_order, 1)
        payload["envelope"] = {
            "pass": report["pass"],
            "ratio_min": _frac_str(report["ratio_min"]) if report["ratio_min"] is not None else None,
            "ratio_max": _frac_str(report["ratio_max"]) if report["ratio_max"] is not None else None,
            "onset": report["onset"],
        }
        ok = report["pass"]
    else:
        payload["envelope"] = {"skipped": "rate not exact or not > 1"}
        ok = True
    payload["result"] = "PASS" if ok else "FAIL"
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- argument wiring --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # shared flags carry no default of their own, so a value parsed before
    # the subcommand is not clobbered by the subparser's defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="sampler seed")
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output path (default stdout)")
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="sparse term-count budget for compositions")
    ap = argparse.ArgumentParser(
        prog="germdyn",
        description="Exact curve-family, multiplicity, and attraction-rate "
        "computations for plane germs.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("curve", help="coefficients and pair multiplicities")
    ps = p.add_subparsers(dest="action", required=True)
    pc = ps.add_parser("coeffs", parents=[common])
    pc.add_argument("--seq", required=True)
    pc.add_argument("--n", type=int, required=True)
    pm = ps.add_parser("mult", parents=[common])
    pm.add_argument("--a", required=True)
    pm.add_argument("--b", required=True)
    pm.add_argument("--horizon", type=int, default=64)
    pm.add_argument("--coeff-horizon", type=int, default=400)
    p.set_defaults(func=cmd_curve)

    p = add("verify", help="exact verification suites")
    vs = p.add_subparsers(dest="check", required=True)
    vf = vs.add_parser("functoriality", parents=[common])
    vf.add_argument("--seq", required=True)
    vf.add_argument("--n", type=int, default=2000)
    vb = vs.add_parser("bound", parents=[common])
    vb.add_argument("--seq", required=True)
    vb.add_argument("--n", type=int, default=2000)
    vl = vs.add_parser("lemma", parents=[common])
    vl.add_argument("--n", type=int, default=10000)
    v3 = vs.add_parser("section3", parents=[common])
    v3.add_argument("--a", required=True)
    v3.add_argument("--b", required=True)
    v3.add_argument("--horizon", type=int, default=64)
    p.set_defaults(func=cmd_verify)

    p = add("arnold", help="fast-growth witness construction")
    p.add_argument("--nu", required=True)
    p.add_argument("--witnesses", type=int, default=3)
    p.set_defaults(func=cmd_arnold)

    p = add("mu-seq", help="multiplicity sequence of iterates")
    p.add_argument("--map", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_mu_seq)

    p = add("samuel", help="staircase multiplicity")
    p.add_argument("--ideal", required=True)
    p.set_defaults(func=cmd_samuel)

    p = add("mixed", help="mixed multiplicity by polarization")
    p.add_argument("--ideal-a", required=True)
    p.add_argument("--ideal-b", required=True)
    p.set_defaults(func=cmd_mixed)

    p = add("c-seq", help="attraction rates along iterates")
    p.add_argument("--map", required=True)
    p.add_argument("--wx", default="1")
    p.add_argument("--wy", default="1")
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_c_seq)

    p = add("c-inf", help="asymptotic attraction rate")
    p.add_argument("--map", required=True)
    p.add_argument("--nmax", type=int, default=6)
    p.set_defaults(func=cmd_c_inf)

    p = add("skewness", help="tree height from a proximity chart")
    p.add_argument("--chart", required=True, help="path to chart JSON")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_skewness)

    p = add("recursion", help="detect an integral linear recursion")
    p.add_argument("--terms", required=True, help="comma-separated integers")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--holdout", type=int, default=2)
    p.set_defaults(func=cmd_recursion)

    p = add("pipeline", help="mu sequence, recursion, rate, bounds")
    p.add_argument("--map", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--max-order", type=int, default=3)
    p.set_defaults(func=cmd_pipeline)

    return ap


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # outputs legitimately contain very large exact integers
        sys.set_int_max_str_digits(10**7)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    for dest, default in (("seed", 0), ("format", "json"), ("out", None),
                          ("budget", 10**6)):
        if not hasattr(args, dest):
            setattr(args, dest, default)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
