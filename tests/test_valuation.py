import random
from fractions import Fraction

import pytest

from germdyn import valuation
from germdyn.bipoly import BiPoly, ZeroPolynomial
from germdyn.bounds import BudgetExceeded
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


# the four maps of the benchmark's iterate workload, and its c-seq weights
ITERATE_MAPS = ["(x^2 - y^4, y^4)", "(x^2 + y^3, x y)", "(y^2, x^2 - y^3)", "(y, x y)"]
WEIGHTS = [(1, 1), (2, 1), (1, 2), (Fraction(3, 2), 1), (1, Fraction(3, 2)),
           (Fraction(5, 2), 1), (1, Fraction(7, 3)), (3, 1)]
# x - y and x - y + x^2 share their linear parts, so the lowest weights of
# F^2_x = H_x - H_y cancel: the narrowest window reads nothing and widens.
# On the second map the two components of F^2 keep windows of different
# widths, so the powers of the wider one hold terms past f(H)'s exact range.
# On the third, at weights (3/2, 1), every term of F^3_x below the window
# cancels, and only a product the window cut shows that F^3_x is not zero
CANCELLING_MAP = "(x - y, x - y + x^2)"
UNEVEN_MAP = "(x - y - x y, x - y - y^2)"
CUT_MAP = "(-x - y, x + y + x y^2 + x^2 y)"


def exact_c_sequence(F, nu, n_max):
    """The oracle: c(F^n) off the exact iterates F^n = F o F^(n-1)."""
    out, Fn = [], F
    for n in range(1, n_max + 1):
        out.append(attraction_rate(Fn, nu))
        if n < n_max:
            Fn = F.compose(Fn)
    return out


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


@pytest.mark.parametrize("text", ITERATE_MAPS + [CANCELLING_MAP, UNEVEN_MAP, CUT_MAP])
def test_windowed_rates_equal_the_exact_iterates(text):
    F = germ(text)
    for nu in [MonomialValuation.order()] + [MonomialValuation(*w) for w in WEIGHTS]:
        assert c_sequence(F, nu, 5) == exact_c_sequence(F, nu, 5), nu
    if text == UNEVEN_MAP:
        assert c_sequence(F, MonomialValuation(1, 2), 4) == [1, 2, 4, 6]
    if text == CUT_MAP:
        assert c_sequence(F, MonomialValuation(Fraction(3, 2), 1), 3) == [
            1, Fraction(7, 2), Fraction(11, 2)]


def shared_linear_map(rng):
    """A random map with exponents <= 2 whose components have proportional
    linear parts, so that the lowest weights of its iterates often cancel."""
    line = {(1, 0): rng.randint(-2, 2), (0, 1): rng.randint(-2, 2)}
    comps = []
    for _ in range(2):
        k = rng.choice([0, 1, -1, 2])
        terms = {ij: k * c for ij, c in line.items()}
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randint(0, 2), rng.randint(0, 2)
            if i + j:
                terms[i, j] = terms.get((i, j), 0) + rng.randint(-2, 2)
        comps.append(BiPoly(terms))
    return MapGerm(*comps)


def test_windowed_rates_on_random_maps_with_shared_linear_parts():
    rng = random.Random(2607)
    for _ in range(40):
        F = shared_linear_map(rng)
        nu = MonomialValuation(*rng.choice(WEIGHTS))
        n = rng.randint(2, 4)
        try:
            want = exact_c_sequence(F, nu, n)
        except ZeroPolynomial:
            with pytest.raises(ZeroPolynomial):
                c_sequence(F, nu, n)
        else:
            assert c_sequence(F, nu, n) == want, (F, nu)


def test_cancelled_lowest_weights_widen_the_window(monkeypatch):
    windows = []
    window_rates = valuation._window_rates

    def recording(polys, a, b, n_max, window, budget):
        windows.append(window)
        return window_rates(polys, a, b, n_max, window, budget)

    monkeypatch.setattr(valuation, "_window_rates", recording)
    F, nu = germ(CANCELLING_MAP), MonomialValuation.order()
    assert c_sequence(F, nu, 6) == [1, 2, 2, 4, 4, 8] == exact_c_sequence(F, nu, 6)
    assert windows[0] == 1 and len(windows) > 1
    assert windows == [2**k for k in range(len(windows))]
    windows.clear()
    assert c_sequence(germ(ITERATE_MAPS[0]), nu, 6) == [2, 4, 8, 16, 32, 64]
    assert windows == [1]  # no cancellation: the narrowest window suffices


def test_window_and_term_budgets():
    nu = MonomialValuation.order()
    # the cancelling map's rates double every other step, and so does the
    # window they need: 16 weight units at n = 8
    with pytest.raises(BudgetExceeded, match="a weight window of 16 exceeds the budget of 10"):
        c_sequence(germ(CANCELLING_MAP), nu, 8, budget=10)
    assert c_sequence(germ(CANCELLING_MAP), nu, 8, budget=32)[-1] == 16
    # at weights (2, 1) the lowest form of F^n_x is (x^2 - y^4)^(2^(n-1))
    with pytest.raises(BudgetExceeded, match="term count 129 exceeds budget 100"):
        c_sequence(germ(ITERATE_MAPS[0]), MonomialValuation(2, 1), 8, budget=100)
    assert c_sequence(germ(ITERATE_MAPS[0]), MonomialValuation(2, 1), 7, budget=100)[-1] == 256
    # the power table of F's coordinates is capped as BiPoly.compose caps it
    with pytest.raises(BudgetExceeded, match="a power table of 5 entries"):
        c_sequence(germ("(x^5, y)"), nu, 2, budget=4)
    assert c_sequence(germ("(x^5, y)"), nu, 1, budget=4) == [1]


@pytest.mark.parametrize("text", ["(x - y, x - y)", "(0, y)", "(x y, 0)"])
def test_a_zero_iterate_is_a_zero_polynomial(text):
    F = germ(text)
    for rates in (c_sequence, exact_c_sequence):
        with pytest.raises(ZeroPolynomial):
            rates(F, MonomialValuation.order(), 3)


@pytest.mark.parametrize("text", ITERATE_MAPS)
def test_twelve_iterates_under_a_small_budget(text):
    # the exact F^12 has hundreds of thousands of terms; its windows hold few
    rates = c_sequence(germ(text), MonomialValuation.order(), 12, budget=10**4)
    fib = [1, 2]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    assert rates == (fib if text == "(y, x y)" else [2**n for n in range(1, 13)])


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
