"""The integer-first coefficient invariant of BiPoly, and sympy as an
oracle for its arithmetic over Q.

Every stored coefficient is a nonzero int when it is integral and a
Fraction with denominator > 1 when it is not: never a float, never a
Fraction with denominator 1.  sympy is used here only, as a test oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germdyn.bipoly import BiPoly, bipoly_gcd, resultant_x
from germdyn.polyparse import parse_poly
from test_intersect import bipoly_exact_div

sympy = pytest.importorskip("sympy")
X, Y = sympy.symbols("x y")

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# integers, rationals (some with denominator 1 after reduction), integral
# Fractions, and floats that are exact dyadic rationals
coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(-6, 6).map(Fraction),
    st.sampled_from([0.5, -1.25, 2.0, 0.0]),
)
integers_only = st.integers(-6, 6)


def polys(coeffs=coefficients, dmax=3):
    keys = st.tuples(st.integers(0, dmax), st.integers(0, dmax))
    return st.dictionaries(keys, coeffs, max_size=5).map(BiPoly)


def nonzero_polys(coeffs=coefficients, dmax=3):
    return polys(coeffs, dmax).filter(lambda p: not p.is_zero())


def assert_normalized(P):
    for c in P.terms.values():
        assert c != 0
        if type(c) is int:
            continue
        assert type(c) is Fraction and c.denominator > 1, repr(c)


def to_sympy(P):
    return sympy.Poly.from_dict(
        {ij: sympy.Rational(c.numerator, c.denominator) for ij, c in P.terms.items()},
        X, Y, domain="QQ")


def expr(P):
    return to_sympy(P).as_expr()


@SETTINGS
@given(polys())
def test_construction_normalizes(P):
    assert_normalized(P)
    assert_normalized(-P)


@SETTINGS
@given(polys(), polys())
def test_ring_operations(P, Q):
    for R, oracle in ((P + Q, to_sympy(P) + to_sympy(Q)),
                      (P - Q, to_sympy(P) - to_sympy(Q)),
                      (P * Q, to_sympy(P) * to_sympy(Q))):
        assert_normalized(R)
        assert to_sympy(R) == oracle


@SETTINGS
@given(polys(dmax=2), st.integers(0, 3))
def test_power(P, n):
    R = P ** n
    assert_normalized(R)
    assert to_sympy(R) == to_sympy(P) ** n


@SETTINGS
@given(polys(dmax=2), polys(dmax=2), polys(dmax=2))
def test_compose(P, fx, fy):
    R = P.compose(fx, fy)
    assert_normalized(R)
    oracle = sympy.expand(expr(P).subs({X: expr(fx), Y: expr(fy)}, simultaneous=True))
    assert to_sympy(R) == sympy.Poly(oracle, X, Y, domain="QQ")


@SETTINGS
@given(polys(), nonzero_polys())
def test_exact_division(P, D):
    Q = bipoly_exact_div(P * D, D)
    assert_normalized(Q)
    assert Q == P


@SETTINGS
@given(nonzero_polys(dmax=2), nonzero_polys(dmax=2), nonzero_polys(dmax=1))
def test_gcd(A, B, C):
    P, Q = A * C, B * C
    g = bipoly_gcd(P, Q)
    assert_normalized(g)
    # a primitive integer polynomial, positive in its lex-leading term
    assert all(type(c) is int for c in g.terms.values())
    assert g.terms[max(g.terms)] > 0
    assert to_sympy(g).monic() == sympy.gcd(to_sympy(P), to_sympy(Q)).monic()


@SETTINGS
@given(nonzero_polys(), nonzero_polys())
def test_resultant_is_integral(P, Q):
    if P.degree_x() < 1 or Q.degree_x() < 1:
        return
    assert all(type(c) is int for c in resultant_x(P, Q))


@SETTINGS
@given(polys())
def test_parse_round_trip(P):
    R = parse_poly(str(P))
    assert_normalized(R)
    assert R == P


@SETTINGS
@given(polys(integers_only), polys(integers_only))
def test_integer_polynomials_stay_integral(P, Q):
    for R in (P + Q, P - Q, P * Q, P ** 2, P.compose(Q, P)):
        assert all(type(c) is int for c in R.terms.values())
