import random
from fractions import Fraction

import pytest

from germdyn.intersect import MapGerm
from germdyn.polyparse import parse_map, parse_poly
from germdyn.recurrence import RecurrenceModel, detect_recursion
from germdyn.valuation import (
    MonomialValuation,
    _dominant_root_bracket,
    attraction_rate,
    c_infinity,
    c_sequence,
    growth_envelope_check,
)


def germ(text):
    return MapGerm(*parse_map(text))


def test_monomial_valuation():
    nu = MonomialValuation(1, Fraction(3, 2))
    assert nu(parse_poly("x^2 + x y")) == 2
    assert nu(parse_poly("y^2")) == 3
    with pytest.raises(ValueError):
        MonomialValuation(2, 3)  # min weight must be 1


def test_attraction_rate():
    F = germ("(x^2 - y^4, y^4)")
    assert attraction_rate(F, MonomialValuation.order()) == 2
    nu = MonomialValuation(Fraction(2), Fraction(1))
    assert attraction_rate(F, nu) == 4


def test_c_sequence_powers_of_two():
    F = germ("(x^2 - y^4, y^4)")
    assert c_sequence(F, MonomialValuation.order(), 5) == [2, 4, 8, 16, 32]


def test_c_infinity_exact():
    F = germ("(x^2 - y^4, y^4)")
    rate = c_infinity(F, 5)
    assert rate.is_exact and rate.value == 2
    assert rate.model.order == 1 and rate.model.coeffs == [2]


def test_c_infinity_algebraic_certificate():
    # rates follow the Fibonacci recursion; the dominant root is irrational
    F = germ("(y, x y)")
    rate = c_infinity(F, 8)
    assert not rate.is_exact
    cert = rate.certificate
    assert cert["char_poly"] == [1, -1, -1]
    lo, hi = cert["dominant_root_bracket"]
    assert (lo, hi) == (1, 2)  # golden ratio
    payload = rate.to_json()
    assert payload["certificate"]["dominant_root_bracket"] == ["1", "2"]


def test_growth_envelope():
    mu = [1, 2, 4, 8, 16, 32]
    model = detect_recursion(mu, 2, 1)
    assert growth_envelope_check(mu, model, 2) == (1, 1)
    mu2 = [3, 6, 12, 24, 48, 96, 192]
    assert growth_envelope_check(mu2, detect_recursion(mu2, 2, 1), 2) == (3, 3)
    # the ratios start at the given model's onset: mu3[0] / 2^0 = 7 is left
    # out, and a later onset given by hand leaves out more terms
    mu3 = [7, 1, 2, 4, 8, 16, 32]
    model3 = detect_recursion(mu3, 2, 1)
    assert model3.onset == 1
    assert growth_envelope_check(mu3, model3, 2) == (Fraction(1, 2), Fraction(1, 2))
    mu4 = [1, 5, 4, 8, 16, 32]
    assert growth_envelope_check(mu4, RecurrenceModel(1, [2], 2), 2) == (1, 1)
    assert growth_envelope_check(mu4, RecurrenceModel(1, [2], 0), 2) == (1, Fraction(5, 2))
    for c_inf in (1, Fraction(1, 2), 0, -3):
        with pytest.raises(ValueError):
            growth_envelope_check(mu, model, c_inf)


def test_dominant_root_bracket_counts_roots_exactly():
    # two real roots between 3 and 4 (3.79 and the integer 3): the old
    # integer sign scan stopped at 3 and called the dominant root 3
    assert _dominant_root_bracket([1, -6, 6, 9]) == (3, 4)
    assert _dominant_root_bracket([1, -2]) == (2, 2)
    assert _dominant_root_bracket([1, -1, -1]) == (1, 2)
    assert _dominant_root_bracket([1, -4, 4]) == (2, 2)  # a double root


def test_dominant_root_bracket_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    rng = random.Random(1829)
    for trial in range(400):
        degree = rng.randint(1, 4)
        if trial % 2:
            cp = [1] + [rng.randint(-9, 9) for _ in range(degree)]
        else:  # integer and quadratic factors: repeated and clustered roots
            p = sympy.Integer(1)
            while sympy.degree(p, t) < degree:
                if degree - sympy.degree(p, t) == 1 or rng.random() < 0.6:
                    p *= t - rng.randint(-4, 4)
                else:
                    p *= t**2 + rng.randint(-6, 6) * t + rng.randint(-6, 6)
            cp = [int(c) for c in sympy.Poly(p, t).all_coeffs()]
        lo, hi = _dominant_root_bracket(cp)
        roots = sympy.real_roots(sympy.Poly(cp, t))
        if not roots:
            bound = 1 + max(abs(c) for c in cp)
            assert (lo, hi) == (-bound, bound)
            continue
        top = max(roots)
        if top.is_integer:
            assert lo == hi == top
        else:
            assert hi == lo + 1 and lo < top < hi
