"""CLI handlers of map germs and their iterates: ``mu-seq``, ``c-seq``,
``c-inf``, ``recursion`` and ``pipeline``.  Each takes the parsed arguments
and returns ``(payload, ok, csv_rows)`` as ``cli`` describes; it imports the
modules it runs in its own body, so ``c-seq`` loads no intersection code.
"""

from __future__ import annotations


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

    F = MapGerm(*parse_map(args.map, args.budget))
    if not F.finiteness_certificate():
        return None, _stage_failure("map validation",
                                    "components share a factor or degenerate")
    gens = parse_poly_list(args.ideal, args.budget)
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


def cmd_c_seq(args):
    from fractions import Fraction

    from .bipoly import MapGerm
    from .polyparse import parse_map
    from .valuation import MonomialValuation, c_sequence

    F = MapGerm(*parse_map(args.map, args.budget))
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

    F = MapGerm(*parse_map(args.map, args.budget))
    try:
        rate = c_infinity(F, args.nmax, args.budget)
    except NoRecurrenceFound as exc:
        return {"map": args.map, "error": str(exc)}, False, None
    return {"map": args.map, **rate.to_json()}, True, None


def cmd_recursion(args):
    if args.max_order < 1:
        raise ValueError("--max-order must be >= 1")
    from .recurrence import NoRecurrenceFound, detect_recursion

    seq = [int(v) for v in args.terms.split(",")]
    try:
        model = detect_recursion(seq, args.max_order, args.holdout)
    except NoRecurrenceFound as exc:
        return {"terms": seq, "error": str(exc)}, False, None
    return {"terms": [str(v) for v in seq], **model.to_json()}, True, None


def cmd_pipeline(args):
    if args.nmax < 2:  # a recursion needs terms to fit and one to hold out
        raise ValueError("--nmax must be >= 2")
    if args.max_order < 1:
        raise ValueError("--max-order must be >= 1")
    from .recurrence import NoRecurrenceFound, detect_recursion
    from .valuation import c_infinity, growth_envelope_check

    F, mu = _mu_stage(args)
    if F is None:  # mu is the stage failure
        return mu
    payload = {"map": args.map, "ideal": args.ideal, "seed": args.seed,
               "mu": [str(v) for v in mu]}
    try:
        model = detect_recursion(mu, args.max_order, 1)
    except NoRecurrenceFound as exc:
        payload["recursion"] = {"error": str(exc)}
        payload["result"] = "FAIL"
        return payload, False, None
    payload["recursion"] = model.to_json()
    try:
        rate = c_infinity(F, max(3, args.nmax), args.budget)
        payload["asymptotic_rate"] = rate.to_json()
    except NoRecurrenceFound as exc:
        payload["asymptotic_rate"] = {"error": str(exc)}
        rate = None
    if rate is not None and rate.is_exact and rate.value > 1:
        lo, hi = growth_envelope_check(mu, model, rate.value)
        # a constant: no bound on the ratios is checked yet
        payload["envelope"] = {"pass": True, "ratio_min": str(lo),
                               "ratio_max": str(hi), "onset": model.onset}
    else:
        payload["envelope"] = {"skipped": "rate not exact or not > 1"}
    payload["result"] = "PASS"
    return payload, True, None
