import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from germdyn.bipoly import (
    BiPoly,
    BudgetExceeded,
    MapGerm,
    ZeroPolynomial,
    bipoly_gcd,
    resultant_x,
)
from germdyn.intpoly import _int_coeff_rows, _uprimitive, _xprem
from germdyn.polyparse import parse_poly
from test_intersect import bipoly_exact_div, sylvester_resultant


def degree_y(p):
    return max((j for _, j in p.terms), default=-1)


def rand_poly(rng, dmax=2):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[(rng.randint(0, dmax), rng.randint(0, dmax))] = rng.randint(-4, 4)
    return BiPoly(terms)


def test_arithmetic_basics():
    x, y = BiPoly.x(), BiPoly.y()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (p - p).is_zero()
    assert BiPoly.const(Fraction(1, 2)) * 2 == BiPoly.const(1)


def test_queries():
    p = parse_poly("x^2 y + 3 y^4")
    assert p.degree_x() == 2 and degree_y(p) == 4
    assert p.degree() == 4 and p.order() == 3
    assert p.ord_y() == 1
    assert p.term_count() == 2
    assert parse_poly("x^2 + 5").eval_y0_in_x() == [5, 0, 1]


def test_compose():
    p = parse_poly("x^2 - y^4")
    q = p.compose(parse_poly("x^2 - y^4"), parse_poly("y^4"))
    assert q == parse_poly("(x^2 - y^4)^2 - y^16")


def test_compose_budget():
    p = parse_poly("(x + y)^8")
    with pytest.raises(BudgetExceeded):
        p.compose(parse_poly("x + y^2"), parse_poly("y + x^2"), budget=3)


def test_compose_without_a_budget_runs_under_the_default_one():
    # a power table of 10^6 + 1 entries is one past DEFAULT_BUDGET
    x, y = BiPoly.x(), BiPoly.y()
    with pytest.raises(BudgetExceeded, match="power table of 1000001 entries"):
        parse_poly("x^1000001").compose(x, y)
    with pytest.raises(BudgetExceeded):
        MapGerm(parse_poly("x^1000001"), y).compose(MapGerm.identity())


@pytest.mark.parametrize("text", ["x^7", "x y^7", "y^7 + x"])
def test_compose_budget_caps_the_power_tables(text):
    # x^7 and y^7 compose under x -> x, y -> y with 7 powers, each one term
    p, x, y = parse_poly(text), BiPoly.x(), BiPoly.y()
    assert p.compose(x, y, budget=7) == p
    with pytest.raises(BudgetExceeded, match="power table of 7 entries"):
        p.compose(x, y, budget=6)
    # a power table past the budget is refused before it is built
    with pytest.raises(BudgetExceeded):
        parse_poly("x^99999999999").compose(x, y, budget=10**6)


def test_resultant_known_values():
    # Res_x(x^2 - y^3, x) = y^3 up to sign/scale
    r = resultant_x(parse_poly("x^2 - y^3"), parse_poly("x + y^5"))
    # common: substitute x = -y^5 into x^2 - y^3 -> y^10 - y^3
    nz = [k for k, c in enumerate(r) if c != 0]
    assert min(nz) == 3 and max(nz) == 10


def test_resultant_vanishing_iff_common_factor():
    p = parse_poly("(x - y)(x + 2 y)")
    q = parse_poly("(x - y)(x + 3 y^2)")
    assert all(c == 0 for c in resultant_x(p, q))
    q2 = parse_poly("(x - 2 y)(x + 3 y^2)")
    assert any(c != 0 for c in resultant_x(p, q2))


def test_resultant_of_a_square_doubles_the_order():
    rng = random.Random(5150)
    for _ in range(60):
        p = rand_poly(rng)
        if p.degree_x() < 1:
            continue
        h = BiPoly({(0, j): rng.randint(-3, 3) for j in range(3)})
        q = BiPoly.x() * rng.choice([1, 2, -1]) + h
        # a linear q against its square, of x-degree 2
        r_lin = resultant_x(p, q)
        r_gen = resultant_x(p, q * q) if p.degree_x() >= 2 else None
        if r_gen is not None:
            # Res(p, q^2) = Res(p, q)^2 up to a constant scale
            lin_sq_ord = 2 * min(
                (k for k, c in enumerate(r_lin) if c), default=0
            ) if any(r_lin) else None
            gen_ord = min(
                (k for k, c in enumerate(r_gen) if c), default=None
            ) if any(r_gen) else None
            assert lin_sq_ord == gen_ord


def rand_x_poly(rng, dx, step=1, rational=False):
    """A polynomial of x-degree exactly dx * step in x^step, y-degree <= 3;
    with ``rational``, coefficients over small denominators."""
    def coef():
        c = rng.randint(-5, 5)
        return Fraction(c, rng.choice([1, 2, 3, 6])) if rational else c
    terms = {(step * i, j): coef() for i in range(dx + 1) for j in range(4)
             if rng.random() < 0.5}
    terms[step * dx, rng.randint(0, 3)] = rng.choice([1, -1, 2, -3])
    return BiPoly(terms)


def test_resultant_matches_the_sylvester_oracle():
    """resultant_x equals the determinant of the Sylvester matrix exactly,
    up to sign, on pairs of every shape the subresultant sequence meets:
    a linear factor, equal x-degrees, polynomials in x^2 and x^3 (whose
    steps drop the x-degree by 2 or 3), a common factor (a zero
    resultant), rational coefficients, and an x-free remainder."""
    rng = random.Random(1729)
    x = BiPoly.x()
    kinds = ("linear", "equal", "x^2", "x^3", "common", "rational", "x-free")
    zero = 0
    for k in range(210):
        kind = kinds[k % len(kinds)]
        da, db = rng.randint(1, 5), rng.randint(1, 5)
        if kind == "linear":
            P, Q = rand_x_poly(rng, da), rand_x_poly(rng, 1)
        elif kind == "equal":
            P, Q = rand_x_poly(rng, da), rand_x_poly(rng, da)
        elif kind in ("x^2", "x^3"):
            step = int(kind[-1])  # x-degrees up to 7: the oracle is cubic
            da, db = 1 + da % (5 - step), 1 + db % (5 - step)
            P, Q = rand_x_poly(rng, da, step), rand_x_poly(rng, db, step)
            if k % 2:  # a remainder x-free only after a drop of step
                P = P * x
        elif kind == "common":
            C = rand_x_poly(rng, 1)
            P, Q = rand_x_poly(rng, da - 1) * C, rand_x_poly(rng, db - 1) * C
        elif kind == "rational":
            P, Q = rand_x_poly(rng, da, rational=True), rand_x_poly(rng, db, rational=True)
        else:  # P = Q S + y^e: the remainder of P by Q is free of x
            Q = rand_x_poly(rng, db)
            P = Q * rand_x_poly(rng, da) + BiPoly.monomial(1, 0, rng.randint(0, 4))
        want = sylvester_resultant(_int_coeff_rows(P), _int_coeff_rows(Q))
        got = resultant_x(P, Q)
        assert got in (want, [-c for c in want]), (kind, str(P), str(Q))
        assert resultant_x(Q, P) in (want, [-c for c in want]), (kind, str(P), str(Q))
        zero += not want
    assert zero >= 30


def textbook_prem(A: BiPoly, B: BiPoly) -> BiPoly:
    """lc_x(B)^(deg A - deg B + 1) (A mod B) by the textbook loop: one step
    per x-degree of A from the top down to deg B, each multiplying by
    lc_x(B) and cancelling the coefficient of that degree."""
    dA, dB = A.degree_x(), B.degree_x()

    def coeff(P, d):
        return BiPoly({(0, j): c for (i, j), c in P.terms.items() if i == d})

    R = A
    for d in range(dA, dB - 1, -1):
        R = coeff(B, dB) * R - coeff(R, d) * BiPoly.monomial(1, d - dB, 0) * B
    return R


def test_pseudo_remainder_matches_the_textbook_loop():
    """_xprem is the exact pseudo-remainder: on rows with zero rows inside
    (x-degrees missing from A, so some steps find a zero top row), on
    linear divisors and on divisors whose leading coefficient is 1, a
    constant or a polynomial in y, it equals the textbook loop's."""
    rng = random.Random(4242)
    zero_tops = linear = 0
    for k in range(150):
        dB = 1 + k % 4
        B = rand_x_poly(rng, dB)
        if k % 3 == 0:  # a monic divisor
            B = BiPoly({ij: c for ij, c in B.terms.items() if ij[0] < dB}) + BiPoly.monomial(1, dB, 0)
        A = rand_x_poly(rng, dB + rng.randint(0, 5))
        # drop whole x-degrees from A below its top
        gaps = {i for i in range(A.degree_x()) if rng.random() < 0.4}
        A = BiPoly({ij: c for ij, c in A.terms.items() if ij[0] not in gaps})
        r = _xprem(_int_coeff_rows(A), _int_coeff_rows(B))
        got = BiPoly({(len(r) - 1 - i, j): c for i, row in enumerate(r)
                      for j, c in enumerate(row)})
        assert got == textbook_prem(A, B), (str(A), str(B))
        assert not r or r[0], "a leading zero row was kept"
        zero_tops += any(i >= dB for i in gaps)
        linear += dB == 1
    assert zero_tops >= 50 and linear >= 30


def uprimitive_by_lcm(p):
    """The reference integer content: clear denominators by their lcm, then
    divide by the gcd, with a positive leading entry."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return p
    den = lcm(*(c.denominator for c in p))
    p = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*p) * (1 if p[-1] > 0 else -1)
    return [c // g for c in p]


def test_integer_content_matches_the_lcm_path():
    """_uprimitive equals the lcm-of-denominators path on int lists, mixed
    int/Fraction lists and all-zero lists, and returns ints."""
    rng = random.Random(1618)
    kinds = [0, 0, 0]
    for k in range(600):
        n = rng.randint(0, 6)
        p = [rng.choice([0, 1, -1]) * rng.randint(0, 60) * rng.choice([1, 6, 35]) for _ in range(n)]
        if k % 3 == 1:
            p = [Fraction(c, rng.choice([1, 2, 9, 10])) if rng.random() < 0.5 else c for c in p]
        elif k % 3 == 2:
            p = [0] * n
        got = _uprimitive(p)
        assert got == uprimitive_by_lcm(p) and all(type(c) is int for c in got), p
        kinds[k % 3] += bool(got)
    assert _uprimitive([]) == [] and _uprimitive([0, 0]) == []
    assert kinds[0] >= 100 and kinds[1] >= 100 and kinds[2] == 0, kinds


def test_resultant_rejects_degenerate():
    with pytest.raises(ZeroPolynomial):
        resultant_x(BiPoly.zero(), BiPoly.x())
    with pytest.raises(ValueError):
        resultant_x(BiPoly.y(), BiPoly.x())


def test_gcd_and_resultant_match_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def to_sympy(P):
        return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * x**i * y**j
                           for (i, j), c in P.terms.items()])

    rng = random.Random(2718)
    nontrivial = resultants = 0
    for _ in range(50):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng, 1)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        P, Q = a * c, b * c
        g, h = to_sympy(bipoly_gcd(P, Q)), sympy.gcd(to_sympy(P), to_sympy(Q))
        unit = sympy.cancel(g / h)
        assert unit.is_number and unit != 0
        nontrivial += not h.is_number
        if P.degree_x() < 1 or b.degree_x() < 1:
            continue
        resultants += 1
        ours = sympy.Add(*[sympy.Rational(r.numerator, r.denominator) * y**j
                           for j, r in enumerate(resultant_x(P, b))])
        theirs = sympy.expand(sympy.resultant(to_sympy(P), to_sympy(b), x))
        if theirs == 0:
            assert ours == 0
            continue
        assert sympy.cancel(ours / theirs).is_number
        ord_y = min(m[0] for m in sympy.Poly(theirs, y).monoms())
        assert ord_y == min(j for j, r in enumerate(resultant_x(P, b)) if r)
    assert nontrivial >= 30 and resultants >= 20


def test_exact_division():
    rng = random.Random(1618)

    def rand_q_poly():
        return BiPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                       for _ in range(rng.randint(1, 5))})

    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert bipoly_exact_div(a * b, b) == a
    for _ in range(60):
        a, b = rand_q_poly(), rand_q_poly()
        if a.is_zero() or b.is_zero():
            continue
        q = bipoly_exact_div(a * b, b)
        assert q == a
        # integer-first: an int when integral, else a Fraction
        assert all(type(c) is int or c.denominator > 1 for c in q.terms.values())
    with pytest.raises(ArithmeticError):
        bipoly_exact_div(parse_poly("x + 1"), parse_poly("x"))
    with pytest.raises(ArithmeticError):
        bipoly_exact_div(parse_poly("x^2 + y"), parse_poly("x + y"))


def test_gcd():
    p = parse_poly("(x + y)^2 (x - y^2)")
    q = parse_poly("(x + y) (x - y^2) (x + 1)")
    g = bipoly_gcd(p, q)
    assert g == parse_poly("(x + y)(x - y^2)") or g == -parse_poly(
        "(x + y)(x - y^2)"
    )
    assert bipoly_gcd(parse_poly("x^2"), parse_poly("y^3")).is_constant()


@pytest.mark.parametrize("p, q", [
    ("y^3 - y", "y^2 + 2 y + 1"),                      # both free of x
    ("(y - 2) (x^2 + y)", "(y - 2) (y + 1)"),          # one free of x
    ("(y^2 + 1) (x + y)^2", "(y^2 + 1) (y - 3) (x - y)"),  # shared y-content
    ("2 y (x + y)", "4 y^2 (x - 1)"),                  # integer content too
    ("1/2 x^2 - 1/3 y", "3/4 x^2 y - 1/2 y^2"),        # rational coefficients
    ("(1/2 x + 2/3 y) (x - y^2)", "(3 x + 4 y) (x + 1/5)"),
    ("y^2", "x y + y^3"),
])
def test_gcd_matches_sympy(p, q):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def to_sympy(P):
        return sympy.Poly(sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                                      * x**i * y**j for (i, j), c in P.terms.items()]),
                          x, y)

    P, Q = parse_poly(p), parse_poly(q)
    g = bipoly_gcd(P, Q)
    assert sympy.cancel(to_sympy(g).as_expr()
                        / sympy.gcd(to_sympy(P), to_sympy(Q)).as_expr()).is_number
    # the normalization: primitive over Z, with a positive coefficient at
    # the lexicographically largest monomial
    assert all(type(c) is int for c in g.terms.values())
    assert gcd(*g.terms.values()) == 1 and g.terms[max(g.terms)] > 0


def test_gcd_random_divides():
    rng = random.Random(777)
    for _ in range(40):
        a, b, c = (rand_poly(rng, 1) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = bipoly_gcd(a * c, b * c)
        assert not g.is_zero()
        # c divides gcd(a*c, b*c): gcd(g, c) is the normalized c itself
        assert bipoly_gcd(g, c) == bipoly_gcd(c, c)
