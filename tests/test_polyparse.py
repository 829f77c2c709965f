from fractions import Fraction

import pytest

from germdyn.bipoly import BiPoly
from germdyn.bounds import BudgetExceeded
from germdyn.polyparse import ParseError, parse_map, parse_poly, parse_poly_list


def test_basic_forms():
    assert parse_poly("x") == BiPoly.x()
    assert parse_poly("x^2 - y^4") == BiPoly({(2, 0): 1, (0, 1 * 4): -1})
    assert parse_poly("2 x y^3") == BiPoly({(1, 3): 2})
    assert parse_poly("2*x*y^3") == BiPoly({(1, 3): 2})
    assert parse_poly("1/2 x") == BiPoly({(1, 0): Fraction(1, 2)})
    assert parse_poly("-x + 3") == BiPoly({(1, 0): -1, (0, 0): 3})


def test_parentheses_and_implicit_products():
    assert parse_poly("(x + y)^2") == parse_poly("x^2 + 2 x y + y^2")
    assert parse_poly("(x - y)(x + y)") == parse_poly("x^2 - y^2")
    assert parse_poly("3(x + 1)") == parse_poly("3 x + 3")


def test_poly_list_and_map():
    polys = parse_poly_list("x, y^2, (x + y)")
    assert len(polys) == 3 and polys[1] == BiPoly({(0, 2): 1})
    fx, fy = parse_map("(x^2 - y^4, y^4)")
    assert fx == parse_poly("x^2 - y^4") and fy == parse_poly("y^4")
    fx2, fy2 = parse_map("x, y")
    assert fx2 == BiPoly.x() and fy2 == BiPoly.y()


def test_errors():
    for bad in ("x +", "z", "x^-2", "(x", "1/0", "x))", ""):
        with pytest.raises(ParseError):
            parse_poly(bad)
    with pytest.raises(ParseError):
        parse_map("x")
    with pytest.raises(ParseError):
        parse_map("x, y, x")


def test_products_and_powers_are_held_to_the_budget():
    # each product and square the parser expands is checked, so a power far
    # past the budget stops at its first square over it, not at its end
    with pytest.raises(BudgetExceeded, match="term count 129 exceeds budget 100"):
        parse_poly("(x + y)^8000", budget=100)
    with pytest.raises(BudgetExceeded):
        parse_poly("(1 + x)(1 + y)(1 + x^2 y^2)", budget=7)
    assert parse_poly("(1 + x)(1 + y)(1 + x^2 y^2)", budget=8).term_count() == 8
    with pytest.raises(BudgetExceeded):
        parse_map("(x, (x + y)^3)", budget=3)
    with pytest.raises(BudgetExceeded):
        parse_poly_list("x, y^2, (x + y)^2", budget=2)
    # a monomial stays one term at any power
    assert parse_poly("x^99999999999 y", budget=1) == BiPoly({(99999999999, 1): 1})
    assert parse_poly("(x + y)^16") == parse_poly("(x + y)^8 (x + y)^8")
