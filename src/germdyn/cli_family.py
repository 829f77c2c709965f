"""CLI handlers of the curve family: ``curve coeffs``, ``curve mult``, the
``verify`` suites and ``arnold``.  Each takes the parsed arguments and returns
``(payload, ok, csv_rows)`` as ``cli`` describes; it imports the modules it
runs in its own body.
"""

from __future__ import annotations

from .bounds import AtLeast, BudgetExceeded


def _result(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _mult_str(v):
    return "at least %s" % v.bound if isinstance(v, AtLeast) else str(v)


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
    return _verify_row(args, "functoriality", ("exponent", "lhs", "rhs"))


def cmd_verify_bound(args):
    return _verify_row(args, "bound", ("n", "coefficient", "bound"))


def _verify_row(args, check, witness_keys):
    """The body of both row checks: run ``verify_<check>`` on one
    coefficient row and name a witness's index and two values."""
    from . import curvefamily
    from .bitseq import parse_bitseq

    s = parse_bitseq(args.seq)
    verify = getattr(curvefamily, "verify_" + check)
    ok, witness = verify(s, args.n, curvefamily.CoeffTable(args.budget))
    payload = {"check": check, "sequence": str(s), "n": args.n,
               "result": _result(ok)}
    if witness:
        index, lhs, rhs = witness
        key, lhs_key, rhs_key = witness_keys
        payload["witness"] = {key: index, lhs_key: str(lhs), rhs_key: str(rhs)}
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
    if horizon > args.budget:
        raise BudgetExceeded("a certificate of %d shifts exceeds the budget of %d"
                             % (horizon, args.budget))
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
