"""CLI handlers of monomial ideals and proximity charts: ``samuel``,
``mixed`` and ``skewness``.  Each takes the parsed arguments and returns
``(payload, ok, csv_rows)`` as ``cli`` describes.
"""

from __future__ import annotations


def _parse_ideal(text: str, budget: int):
    from .polyparse import ParseError, parse_poly_list
    from .staircase import MonomialIdeal2

    gens = []
    for poly in parse_poly_list(text, budget):
        if poly.term_count() != 1:
            raise ParseError("ideal generators must be monomials", 0)
        ((i, j),) = poly.terms.keys()
        gens.append((i, j))
    return MonomialIdeal2(gens)


def cmd_samuel(args):
    from .staircase import samuel

    ideal = _parse_ideal(args.ideal, args.budget)
    return {"ideal": str(ideal), "samuel": str(samuel(ideal))}, True, None


def cmd_mixed(args):
    from .staircase import minkowski_check, mixed, samuel

    A = _parse_ideal(args.ideal_a, args.budget)
    B = _parse_ideal(args.ideal_b, args.budget)
    e_a, e_b = samuel(A), samuel(B)
    e_mixed = mixed(A, B)
    ok = minkowski_check(A, B)
    payload = {"e_a": str(e_a), "e_b": str(e_b), "e_mixed": str(e_mixed),
               "minkowski_ok": ok}
    return payload, ok, None


def cmd_skewness(args):
    from .bounds import BudgetExceeded
    from .proximity import ProximityChart, skewness

    with open(args.chart) as fh:
        chart = ProximityChart.from_json(fh.read())
    if chart.r * chart.r > args.budget:  # the entries of each r x r matrix
        raise BudgetExceeded("%d x %d matrices exceed the budget of %d entries"
                             % (chart.r, chart.r, args.budget))
    value = skewness(chart, args.i, args.j)
    payload = {"chart": chart.to_json(), "i": args.i, "j": args.j,
               "skewness": str(value)}
    return payload, True, None
