import random
import re
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from germdyn import intersect
from germdyn.bipoly import BiPoly, bipoly_gcd, resultant_x
from germdyn.intpoly import (_int_coeff_rows, _trim_z, _uexact_div, _ugcd, _umul, _usub,
                             _xprem)
from germdyn.intersect import (
    INFINITE,
    DegenerateInput,
    GenericSampler,
    InfiniteMultiplicity,
    MapGerm,
    PlaneCurve,
    _certified_pair,
    _cone_mult,
    _ord_y,
    _parametrization,
    generic_member,
    local_mult,
    local_mult_detailed,
    mu_sequence,
    pullback,
    samuel_via_generic,
)
from germdyn.polyparse import parse_map, parse_poly, parse_poly_list
from germdyn.bounds import DEFAULT_BUDGET
from germdyn.series import BudgetExceeded
from test_valuation import shared_linear_map


def C(text):
    return PlaneCurve(parse_poly(text))


def test_curve_must_pass_through_origin():
    with pytest.raises(ValueError):
        PlaneCurve(parse_poly("x + 1"))


def test_graph_curves():
    sam = GenericSampler(0)
    assert local_mult(C("x - y^2"), C("x - y^3"), sam) == 2
    assert local_mult(C("x"), C("x - y^7"), sam) == 7
    assert local_mult(C("2 x - y^2"), C("2 x - y^2"), sam) is INFINITE
    # one graph is enough: i_0(x - y^2, y^2 - x^3) = ord_y(y^2 - y^6)
    assert local_mult(C("x - y^2"), C("y^2 - x^3"), sam) == 2
    assert local_mult(C("x - y^2"), C("(x - y^2) (x + y)"), sam) is INFINITE
    # y-graphs: y = x^2 against the cusp gives ord_x(x^4 - x^3) = 3
    assert local_mult(C("y - x^2"), C("y^2 - x^3")) == 3
    assert local_mult(C("y^2 - x^3"), C("3 y + x^2")) == 3
    # a partner with no y: its own order along the graph
    assert local_mult(C("y - x^3"), C("x^2")) == 2
    assert local_mult(C("y - x^3"), C("(y - x^3) (x - y)")) is INFINITE


def test_value_does_not_depend_on_the_sampler():
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError("local_mult used the sampler: %s" % name)

    rng = random.Random(777)
    for _ in range(200):
        P, Q = rand_singular(rng), rand_singular(rng)
        if P.is_zero() or Q.is_zero():
            continue
        values = {repr(local_mult(P, Q, s))
                  for s in (None, NoDraws(), GenericSampler(0), GenericSampler(99))}
        assert len(values) == 1, (P, Q, values)


def test_classic_values():
    sam = GenericSampler(1)
    # line and cusp: i_0(y, y^2 - x^3) = ord_x x^3 = 3
    assert local_mult(C("y^2 - x^3"), C("y"), sam) == 3
    # two smooth branches, tangent to different lines
    assert local_mult(C("y - x^2"), C("x"), sam) == 1
    # tacnode-style contact
    assert local_mult(C("y - x^2"), C("y + x^2"), sam) == 2
    # node against a line through one branch
    assert local_mult(C("x y"), C("x - y"), sam) == 2


def test_shared_component_is_infinite():
    sam = GenericSampler(2)
    P = C("(x - y) (x + y^2)")
    Q = C("(x - y) (x - y^3)")
    assert local_mult(P, Q, sam) is INFINITE


def test_common_factor_missing_the_origin_is_divided_out():
    # (1 + x) and (1 + y) are units at the origin, so they do not change i_0
    sam = GenericSampler(4)
    assert local_mult(C("x (1 + x)"), C("y (1 + x)"), sam) == 1
    assert local_mult(C("x (1 + y)"), C("y (1 + y)"), sam) == 1
    assert local_mult(C("(1 + x + y) (x - y^2)"),
                      C("(1 + x + y) (x - y^3)"), sam) == 2
    # a unit factor beside a shared component through the origin
    assert local_mult(C("(1 - x y) (x - y)"),
                      C("(1 - x y) (x - y) (x + y)"), sam) is INFINITE


def test_infinite_exactly_when_gcd_passes_through_origin():
    """The decision order (tangent cones, the one-sided fiber certificate,
    Fulton capped by Bezout) gives INFINITE on exactly the pairs whose gcd
    is nonconstant and vanishes at the origin, whichever step the shared
    component reaches."""
    rng = random.Random(4242)
    sam = GenericSampler(4242)

    def small(j_max=2):
        return BiPoly({(0, j): rng.randint(-3, 3) for j in range(1, j_max + 1)})

    def graph():  # c x - h(y), or c y - h(x)
        S = BiPoly({(1, 0): rng.choice([1, 2, -3])}) + small(3)
        return S.compose(BiPoly.y(), BiPoly.x()) if rng.random() < 0.5 else S

    def regular(a):  # leading x-coefficient a unit at y = 0
        return BiPoly({(2, 0): rng.choice([1, -2]), (1, 0): a,
                       (1, 1): rng.randint(-2, 2)}) + small()

    def singular():  # leading x-coefficient vanishes at y = 0
        return BiPoly({(1, 1): rng.choice([1, -1]), (0, 1): 1,
                       (2, 1): rng.randint(-2, 2)}) + small()

    def unit():
        return BiPoly({(0, 0): 1, (1, 0): rng.randint(-2, 2),
                       (0, 1): rng.randint(-2, 2)})

    # the step that decides a shared component (never the cones)
    paths = {"certified": 0, "fulton": 0}
    infinite = divided = 0
    for k in range(240):
        kind = k % 4
        if kind == 0:
            S = graph()
            P, Q = S * rng.choice([1, -2, 3]), S * rng.choice([1, 5])
        elif kind == 1:
            # S(x, 0) = c x^2, so the fibers can still meet only at x = 0
            S = regular(0)
            P, Q = S * regular(1), S * regular(2)
        elif kind == 2:
            S = singular()
            P, Q = S * rand_curve(rng).poly, S * rand_curve(rng).poly
        else:
            P, Q = rand_curve(rng).poly, rand_curve(rng).poly
        if rng.random() < 0.3:
            U = unit()
            P, Q = P * U, Q * U
        if P.is_zero() or Q.is_zero():
            continue
        value = local_mult(PlaneCurve(P), PlaneCurve(Q), sam)
        g = bipoly_gcd(P, Q)
        shared = not g.is_constant() and g.constant_term() == 0
        assert (value is INFINITE) == shared, (str(P), str(Q), value)
        if shared:
            infinite += 1
            paths["fulton" if _certified_pair(P, Q) is None else "certified"] += 1
        else:
            assert isinstance(value, int) and value >= 1
            divided += not g.is_constant()
    assert infinite >= 150 and divided >= 10
    assert min(paths.values()) >= 30, paths


def bipoly_exact_div(P: BiPoly, D: BiPoly) -> BiPoly:
    """P / D over Q[x, y]; raises ArithmeticError unless D divides P.

    Long division on the lexicographic leading monomial: lex order is
    multiplicative, so when D divides P each leading monomial of the
    remainder is a multiple of D's."""
    lead = max(D.terms)
    quot, rem = {}, P
    while not rem.is_zero():
        ri, rj = max(rem.terms)
        ij = (ri - lead[0], rj - lead[1])
        if min(ij) < 0:
            raise ArithmeticError("inexact polynomial division")
        quot[ij] = Fraction(rem.terms[ri, rj]) / D.terms[lead]
        rem = rem - BiPoly({ij: quot[ij]}) * D
    return BiPoly(quot)


def sylvester_resultant(a, b) -> list[int]:
    """Res_x of two integer row lists (leading first, both of positive
    x-degree): the determinant of their Sylvester matrix by fraction-free
    (Bareiss) elimination over Z[y].  The resultant's oracle, kept apart
    from the subresultant sequence it checks."""
    dA, dB = len(a) - 1, len(b) - 1
    mat = [[[]] * k + a + [[]] * (dB - 1 - k) for k in range(dB)]
    mat += [[[]] * k + b + [[]] * (dA - 1 - k) for k in range(dA)]
    n, sign, prev = len(mat), 1, [1]
    for k in range(n - 1):
        if not mat[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if pivot_row is None:
                return []
            mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
            sign = -sign
        pkk = mat[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _usub(_umul(pkk, mat[i][j]), _umul(mat[i][k], mat[k][j]))
                mat[i][j] = _uexact_div(num, prev) if num else []
            mat[i][k] = []
        prev = pkk
    return [sign * c for c in mat[n - 1][n - 1]]


def fiber_certificate(P: BiPoly, Q: BiPoly) -> bool:
    """The shear oracle's own certificate, kept apart from the code it
    checks: True when neither leading x-coefficient vanishes at y = 0 and
    the restrictions to y = 0 have no common root but x = 0, so that
    ord_y Res_x(P, Q) is the local multiplicity."""
    # a leading x-coefficient is a unit at y = 0 iff it has a y^0 term
    if (P.degree_x(), 0) not in P.terms or (Q.degree_x(), 0) not in Q.terms:
        return False
    g = _ugcd(P.eval_y0_in_x(), Q.eval_y0_in_x())
    # common roots only at x = 0 means the gcd is a monomial c * x^k
    return sum(1 for c in g if c != 0) == 1


def shear_oracle(P: BiPoly, Q: BiPoly, sam: GenericSampler) -> int:
    """i_0 by an independent route: divide out the gcd (a unit at the
    origin), then ord_y Res_x after a unimodular shear whose two-sided
    fiber certificate holds."""
    g = bipoly_gcd(P, Q)
    if not g.is_constant():
        assert g.constant_term() != 0
        P, Q = bipoly_exact_div(P, g), bipoly_exact_div(Q, g)
    for _ in range(50):
        a, b, c, d = sam.unimodular()
        fx, fy = BiPoly({(1, 0): a, (0, 1): b}), BiPoly({(1, 0): c, (0, 1): d})
        pa, qa = P.compose(fx, fy), Q.compose(fx, fy)
        if pa.degree_x() >= 1 and qa.degree_x() >= 1 and fiber_certificate(pa, qa):
            r = _trim_z(resultant_x(pa, qa))
            assert r, "coprime curves with a zero resultant"
            return next(k for k, v in enumerate(r) if v)
    raise AssertionError("no certified shear in 50 draws")


def test_fulton_matches_the_shear_oracle(monkeypatch):
    """Fulton's reduction, called on every pair that is not certified,
    decides INFINITE on exactly the pairs whose gcd is nonconstant
    and vanishes at the origin, and agrees with the shear oracle on the
    others.  local_mult agrees with it, and reaches it whenever the tangent
    cones share a line and neither curve is smooth at the origin."""
    reached = []
    fulton = intersect._fulton
    monkeypatch.setattr(intersect, "_fulton",
                        lambda p, q: reached.append(1) or fulton(p, q))
    rng = random.Random(5150)
    sam = GenericSampler(5150)
    values, infinite = {}, 0
    for k in range(750):
        P, Q = rand_singular(rng).poly, rand_singular(rng).poly
        if k % 3 == 0:  # a common factor that is a unit at the origin
            U = BiPoly({(0, 0): 1, (1, 0): rng.randint(-2, 2),
                        (0, 1): rng.randint(-2, 2)})
            P, Q = P * U, Q * U
        if P.is_zero() or Q.is_zero() or _certified_pair(P, Q) is not None:
            continue
        value = fulton(P, Q)
        before = len(reached)
        assert local_mult(PlaneCurve(P), PlaneCurve(Q)) == value, (str(P), str(Q))
        if _cone_mult(P, Q) is None and P.order() > 1 and Q.order() > 1:
            assert len(reached) > before, (str(P), str(Q))
        g = bipoly_gcd(P, Q)
        shared = not g.is_constant() and g.constant_term() == 0
        assert (value is INFINITE) == shared, (str(P), str(Q), value)
        if shared:
            infinite += 1
        else:
            values[str(P), str(Q)] = value
            assert value == shear_oracle(P, Q, sam), (str(P), str(Q), value)
    assert len(values) >= 300 and infinite >= 50
    assert len(set(values.values())) >= 6


def test_fulton_drops_terms_past_the_bezout_bound():
    """Fulton's reduction drops terms of degree above deg P * deg Q less its
    total.  On pairs of degree up to 8 that reach it, the values still equal
    the shear oracle's, and a shared component is still INFINITE."""
    rng = random.Random(6502)
    S = parse_poly("x^3 y + x^2 + y^2 + x y^3")  # lc_x vanishes at y = 0

    def rand_poly(d, low):
        return BiPoly({(i, j): rng.randint(-3, 3) for i in range(d + 1)
                       for j in range(d + 1 - i) if i + j >= low})

    sam = GenericSampler(6502)
    finite = infinite = 0
    for k in range(60):
        d = 3 + k % 4
        A, B = S * rand_poly(d - 3, 1), S * rand_poly(d - 3, 1)
        if k % 2:  # S stays a shared component through the origin
            P, Q = A * rand_poly(1, 0), B
        else:
            P, Q = (T + BiPoly.y() * rand_poly(d - 1, 1) for T in (A, B))
        if (P.is_zero() or Q.is_zero() or P.constant_term() or Q.constant_term()
                or _certified_pair(P, Q) is not None):
            continue
        value = local_mult(PlaneCurve(P), PlaneCurve(Q))
        g = bipoly_gcd(P, Q)
        if not g.is_constant() and g.constant_term() == 0:
            assert value is INFINITE, (str(P), str(Q))
            infinite += 1
        else:
            assert value == shear_oracle(P, Q, sam), (str(P), str(Q), value)
            finite += 1
    assert finite >= 12 and infinite >= 35


def certified_pair_branch(p: BiPoly, q: BiPoly) -> str:
    """Which rule decides a certified pair (a, b): a free of x, a linear
    divisor b (the pseudo-division is Horner's rule and leaves r free of x),
    the subresultant sequence on (b, a) when a has the lower x-degree, or,
    after one pseudo-division, the remainder r of a by b: zero, free of x,
    linear in x, or of x-degree >= 2."""
    a, b = _certified_pair(p, q)
    if not a.degree_x():
        return "x-free"
    a, b = _int_coeff_rows(a), _int_coeff_rows(b)
    if len(b) == 2:
        return "linear divisor"
    if len(a) < len(b):
        return "lower"
    r = _xprem(a, b)
    return {0: "zero", 1: "free", 2: "linear"}.get(len(r), "nonlinear")


def test_pseudo_division_matches_the_full_resultant(monkeypatch):
    """On pairs with both leading x-coefficients units at y = 0, a linear
    divisor and every branch after the one pseudo-division give ord_y of
    the Sylvester determinant.  Each pair is decided once more with the cone
    step switched off, so that the certificate decides the pairs whose
    tangent cones are coprime too."""
    rng = random.Random(8086)

    def weierstrass(d):  # c x^d + y-terms: lc_x a unit, P(x, 0) = c x^d
        terms = {(d, 0): rng.choice([1, -1, 2, 3])}
        for _ in range(rng.randint(2, 6)):
            terms[rng.randint(0, d), rng.randint(1, 3)] = rng.randint(-3, 3)
        terms[1, 1] = rng.choice([1, -2])  # neither curve is a graph
        terms[0, 2] = rng.choice([1, -1])
        return BiPoly(terms)

    counts = dict.fromkeys(("linear divisor", "zero", "free", "linear", "nonlinear"), 0)
    free_over_nonlinear = 0
    for k in range(400):
        dq = 1 + k % 4
        p, q = weierstrass(rng.randint(dq, 6)), weierstrass(dq)
        if k % 5 == 0:  # q divides p: the remainder is zero
            p = q * weierstrass(rng.randint(1, 2))
        elif k % 5 == 1:  # the remainder is a power of y
            p = q * weierstrass(rng.randint(1, 2)) + BiPoly.monomial(1, 0, rng.randint(1, 9))
        assert fiber_certificate(p, q)
        branch = certified_pair_branch(p, q)
        want = _ord_y(sylvester_resultant(_int_coeff_rows(p), _int_coeff_rows(q)))
        for a, b in ((p, q), (q, p)):
            assert local_mult(PlaneCurve(a), PlaneCurve(b)) == want, (str(p), str(q))
            with monkeypatch.context() as m:
                m.setattr(intersect, "_cone_mult", lambda p, q: None)
                assert local_mult(PlaneCurve(a), PlaneCurve(b)) == want, (str(p), str(q))
        counts[branch] += 1
        free_over_nonlinear += branch == "free" and min(p.degree_x(), q.degree_x()) >= 2
        if branch == "nonlinear":
            assert min(p.degree_x(), q.degree_x()) >= 3
    assert min(counts.values()) >= 50 and free_over_nonlinear >= 40, counts


def certificate_only(monkeypatch):
    """Switch off the cone and branch steps and make Fulton's reduction fail
    loudly, so that every local_mult call below is decided by the
    certificate."""
    def refuse(p, q):
        raise AssertionError("reached Fulton: %s, %s" % (p, q))
    monkeypatch.setattr(intersect, "_cone_mult", lambda p, q: None)
    monkeypatch.setattr(intersect, "_branch_mult", lambda p, q: None)
    monkeypatch.setattr(intersect, "_fulton", refuse)


def check_certified(P: BiPoly, Q: BiPoly, fulton, sam) -> object:
    """local_mult of a certified pair in both orders, checked against
    Fulton's reduction and, off a shared component, the shear oracle."""
    value = fulton(P, Q)
    for a, b in ((P, Q), (Q, P)):
        assert local_mult(PlaneCurve(a), PlaneCurve(b)) == value, (str(P), str(Q))
    g = bipoly_gcd(P, Q)
    if not g.is_constant() and g.constant_term() == 0:
        assert value is INFINITE, (str(P), str(Q), value)
    else:
        assert value == shear_oracle(P, Q, sam), (str(P), str(Q), value)
    return value


def test_one_sided_certificate(monkeypatch):
    """Pairs where only one leading x-coefficient is a unit at y = 0, which
    the two-sided certificate refuses: the one-sided certificate decides
    them, and its value equals Fulton's reduction and the shear oracle."""
    fulton = intersect._fulton
    certificate_only(monkeypatch)
    rng = random.Random(7007)
    sam = GenericSampler(7007)
    values, by_gcd = [], 0
    for k in range(300):
        d, e = rng.randint(1 + k % 2, 3), rng.randint(1 + k % 2, 3)
        # b = c x^d + ..., and a with a leading x-coefficient divisible by y;
        # on odd k, b(x, 0) is no monomial and a(x, 0) is nonzero
        b = {(d, 0): rng.choice([1, -1, 2])}
        a = {(e, rng.randint(1, 2)): rng.choice([1, -2])}
        for _ in range(rng.randint(1, 4)):
            b[rng.randint(0, d), rng.randint(1, 3)] = rng.randint(-3, 3)
            a[rng.randint(0, e - 1), rng.randint(0, 3)] = rng.randint(-3, 3)
        if k % 2:
            b[rng.randint(1, d - 1), 0] = rng.choice([-2, -1, 1, 2])
            a[rng.randint(1, e - 1), 0] = rng.choice([-2, -1, 1, 2])
        a.pop((0, 0), None)
        P, Q = BiPoly(a), BiPoly(b)
        pair = None if P.is_zero() or fiber_certificate(P, Q) else _certified_pair(P, Q)
        if pair is None:
            continue
        values.append(check_certified(P, Q, fulton, sam))
        by_gcd += sum(1 for _, j in pair[1].terms if not j) > 1
    assert len(values) >= 250 and len(set(values)) >= 8, values
    assert values.count(INFINITE) >= 40 and by_gcd >= 100, (values, by_gcd)


def test_y_graphs_need_no_swap(monkeypatch):
    """A graph c y - h(x) has a constant leading x-coefficient, so the
    certificate takes it, as b or as a, with no swap of x and y; the values
    equal Fulton's reduction and the shear oracle."""
    fulton = intersect._fulton
    certificate_only(monkeypatch)
    rng = random.Random(9119)
    sam = GenericSampler(9119)
    values, as_b = [], 0
    for k in range(300):
        low = 1 + k % 3  # the graph meets the x-axis with contact low
        h = {(i, 0): rng.randint(-3, 3) for i in range(low + 1, 5) if k % 5}
        h[low, 0] = rng.choice([1, -1, 2])
        G = BiPoly({(0, 1): rng.choice([1, -2, 3])}) - BiPoly(h)
        # on k = 0 mod 5, G = c y - d x^low is a shared component
        Q = G * rand_curve(rng).poly if k % 5 == 0 else rand_singular(rng).poly
        pair = None if Q.is_zero() else _certified_pair(G, Q)
        if pair is None:
            continue
        values.append(check_certified(G, Q, fulton, sam))
        as_b += pair[1] is G
    assert len(values) >= 200 and len(set(values)) >= 5, values
    assert values.count(INFINITE) >= 40, values
    assert 30 <= as_b <= len(values) - 30, (as_b, len(values))


def test_shared_component_with_a_unit_leading_coefficient():
    """S A against S B, S through the origin with lc_x(S) a unit at y = 0:
    INFINITE by Fulton's reduction and by local_mult.  The certificate takes
    many such pairs, and a zero resultant proves them INFINITE; it refuses
    every pair whose S(x, 0) has a root off the origin."""
    fulton = intersect._fulton
    rng = random.Random(3113)

    def weierstrass(low):  # c x^d + terms divisible by y
        d = rng.randint(low, 2)
        terms = {(d, 0): rng.choice([1, -1, 2])}
        for _ in range(rng.randint(1, 3)):
            terms[rng.randint(0, d), rng.randint(1, 2)] = rng.randint(-2, 2)
        return BiPoly(terms)

    certified = 0
    for k in range(150):
        S = weierstrass(1)
        if k % 3 == 0:  # S(x, 0) has a root off the origin
            S = S + BiPoly({(S.degree_x() + 1, 0): 1})
        A = weierstrass(0) + BiPoly.const(rng.randint(0, 1))
        B = weierstrass(0) + rand_curve(rng).poly * rng.randint(0, 1)
        P, Q = S * A, S * B
        if P.is_zero() or Q.is_zero():
            continue
        assert fulton(P, Q) is INFINITE, (str(P), str(Q))
        for a, b in ((P, Q), (Q, P)):
            assert local_mult(PlaneCurve(a), PlaneCurve(b)) is INFINITE, (str(P), str(Q))
        pair = _certified_pair(P, Q)
        assert pair is None or k % 3, (str(P), str(Q))
        certified += _cone_mult(P, Q) is None and pair is not None
    assert certified >= 80, certified


def test_astronomical_x_degrees_build_no_dense_rows():
    """An x-free curve is read off the terms whatever its partner's degree;
    two curves with x whose x-degree passes the term budget go to Fulton's
    sparse reduction instead of the resultant's dense rows."""
    N = 99999999999
    for p_text, q_text, want, certified in [
        ("x^%d + y^2" % N, "y", N, True),
        ("x^%d + y^3" % N, "y^2 + x y", N + 3, False),  # only lc_x(x^N + y^3) is a unit
        ("x^%d + y^2" % N, "y^2 + x^2 y + x^3", 6, False),  # both are
        # y divides q, and p(x, 0) = x^N + x^3 is not c x^d: no gcd of it
        ("x^%d + x^3 + y^2" % N, "y^2 + y^3", 6, False),
    ]:
        p, q = parse_poly(p_text), parse_poly(q_text)
        assert (_certified_pair(p, q) is not None) == certified, (p_text, q_text)
        for a, b in ((p, q), (q, p)):
            assert local_mult(PlaneCurve(a), PlaneCurve(b)) == want, (p_text, q_text)
    # the same shapes below the budget are certified, with the same values
    p, q = parse_poly("x^50 + y^2"), parse_poly("y^2 + x^2 y + x^3")
    assert _certified_pair(p, q) is not None
    assert local_mult(PlaneCurve(p), PlaneCurve(q)) == intersect._fulton(p, q) == 6


def test_astronomical_y_degrees_build_no_dense_rows():
    """The certificate declines a y-degree past the term budget too, and
    Fulton's reduction decides these pairs in a few passes."""
    N = 99999999999
    for p_text, q_text, want in [("x^2 + y^%d" % N, "x^2", 2 * N),
                                 ("x + y^%d" % N, "x", N)]:
        p, q = parse_poly(p_text), parse_poly(q_text)
        assert _certified_pair(p, q) is None and _certified_pair(q, p) is None
        for a, b in ((p, q), (q, p)):
            assert local_mult(PlaneCurve(a), PlaneCurve(b)) == want, (p_text, q_text)


def test_fulton_raises_on_a_pass_past_the_term_budget(monkeypatch):
    """x^N + x y^(N-1) against x^2 + y^3 takes about 2 N/3 passes, so at
    astronomical N the term budget, not the Bezout cap, ends the reduction.
    i_0 = i_0(x^2 + y^3, x) + i_0(x^2 + y^3, x^(N-1) + y^(N-1)) = 3 + 2 (N - 1)."""
    p, q = parse_poly("x^2 + y^3"), parse_poly("x^201 + x y^200")
    assert intersect._fulton(p, q) == local_mult(PlaneCurve(p), PlaneCurve(q)) == 403
    monkeypatch.setattr(intersect, "DEFAULT_BUDGET", 139)
    for a, b in ((p, q), (q, p)):
        with pytest.raises(BudgetExceeded):
            intersect._fulton(a, b)
    monkeypatch.setattr(intersect, "DEFAULT_BUDGET", 140)
    assert intersect._fulton(p, q) == intersect._fulton(q, p) == 403


def test_fulton_decides_infinite_by_the_bezout_cap(monkeypatch):
    """Fulton's reduction decides INFINITE itself on pairs that are not
    certified: y divides both, one curve divides the other, or a
    shared component through the origin pushes its total past deg P * deg Q.
    A component shared only away from the origin is a unit there and leaves
    i_0 finite.  local_mult agrees, and reaches Fulton on each pair whose
    tangent cones share a line."""
    reached = []
    fulton = intersect._fulton
    monkeypatch.setattr(intersect, "_fulton",
                        lambda p, q: reached.append(1) or fulton(p, q))
    cases = [
        # y divides both
        ("y (x^2 + y)", "y (x^3 + x y + y^2)", INFINITE),
        ("x^2 y + y^3", "x y^2 - 2 y^3 + x^3 y", INFINITE),
        # one curve is a multiple of the other
        ("x^2 y + y^2", "(x^2 y + y^2) (x - y)", INFINITE),
        ("x^2 y + y^2", "(x^2 y + y^2) (2 + x)", INFINITE),
        ("x^2 y + y^2 + x^3 - x^4", "(x^2 y + y^2 + x^3 - x^4) (y - x^2)", INFINITE),
        # a shared component through the origin, the rest coprime
        ("(y^2 - x^3) (x + y - x^2)", "(y^2 - x^3) (x - y^2 - x^2)", INFINITE),
        ("(x y + y^2 + x^3 y) x", "(x y + y^2 + x^3 y) (y^2 - x^2)", INFINITE),
        ("(x^3 y + x^2 + y^2) (x + y)", "(x^3 y + x^2 + y^2) (x - y^2)", INFINITE),
        # components shared only away from the origin
        ("(x + y) (1 + x)", "(x - y) (1 + x)", 1),
        ("(y^2 - x^3) (1 + x y)", "(y^2 + x^3 + x^4) (1 + x y)", 6),
    ]
    for p_text, q_text, want in cases:
        p, q = parse_poly(p_text), parse_poly(q_text)
        assert _certified_pair(p, q) is None, (p_text, q_text)
        for a, b in ((p, q), (q, p)):
            assert fulton(a, b) == want, (p_text, q_text)
            before = len(reached)
            assert local_mult(PlaneCurve(a), PlaneCurve(b)) == want, (p_text, q_text)
            if _cone_mult(a, b) is None:
                assert len(reached) > before, (p_text, q_text)


CONE_IDEALS = [parse_poly_list(t) for t in
               ("x^2, x y, y^2", "x^2, y^3", "x^3, x y, y^2", "x, y^2", "x^2, x y^2, y^3")]


def cone_pairs(rng):
    """Seeded pairs (P, Q) of every shape that reaches the cone step: conics
    with linear parts, products, scaled copies, graphs, generic members of
    monomial ideals, Fraction coefficients, higher-order cones, singular
    curves that often share a tangent, and pairs of curves of order >= 2."""
    def tail(low):  # random terms of degrees low, low + 1
        return BiPoly({(i, j): rng.randint(-2, 2) * (rng.random() < 0.4)
                       for i in range(low + 2) for j in range(low + 2 - i) if i + j >= low})

    def form(d):  # a homogeneous form of degree d, its lines often repeated
        return BiPoly({(i, d - i): rng.randint(-2, 2) for i in range(d + 1)})

    def member(gens):
        return sum((BiPoly.const(rng.choice([-3, -1, 1, 2, 5])) * g for g in gens),
                   BiPoly.zero())

    def rational(P):
        return BiPoly({ij: Fraction(c, rng.choice([1, 2, 3, 5]))
                       for ij, c in P.terms.items()})

    pairs = []
    for k in range(600):
        kind = k % 8
        if kind == 0:
            P, Q = rand_curve(rng).poly, rand_curve(rng).poly
        elif kind == 1:
            P, Q = rand_curve(rng).poly, rand_curve(rng).poly * rand_curve(rng).poly
        elif kind == 2:  # a scaled copy, half of them perturbed past the cone
            P = rand_curve(rng).poly
            Q = P * rng.choice([-3, 2]) + tail(rng.randint(2, 4)) * rng.randint(0, 1)
        elif kind == 3:  # c x - h(y) or c y - h(x) against a singular curve
            P = BiPoly({(1, 0): rng.choice([1, -2]), (0, 4): 1,
                        (0, rng.randint(1, 3)): rng.randint(-2, 2)})
            if rng.random() < 0.5:
                P = P.compose(BiPoly.y(), BiPoly.x())
            Q = rand_singular(rng).poly
        elif kind == 4:
            gens = rng.choice(CONE_IDEALS)
            P, Q = member(gens), member(gens)
        elif kind == 5:
            P, Q = rational(rand_singular(rng).poly), rational(rand_curve(rng).poly)
        elif kind == 6:
            P, Q = form(rng.randint(2, 3)) + tail(4), form(rng.randint(1, 3)) + tail(4)
        else:
            P, Q = rand_singular(rng).poly, rand_singular(rng).poly
        if not P.is_zero() and not Q.is_zero():
            pairs.append((P, Q))
    for _ in range(200):  # no curve smooth at the origin: past the branch step
        P, Q = (BiPoly({ij: c for ij, c in rand_singular(rng).poly.terms.items()
                        if sum(ij) > 1}) for _ in range(2))
        if not P.is_zero() and not Q.is_zero():
            pairs.append((P, Q))
    return pairs


@pytest.mark.parametrize("p_text, q_text, want", [
    ("x^2 - y^2", "x y", 4),
    ("x^2 - y^2 + x^3", "x^2 + y^2", 4),  # x = +-y against x = +-i y
    ("1/2 x^2 - 1/3 y^2", "2/3 x y + y^3", 4),
    ("x^2 y", "x^3 + y^3", 9),  # a monomial cone against one with no x or y
    ("x^3 + y^4", "y^2 - x^5", 6),  # monomial cones x^3 and y^2
    ("x^2 - y^2", "x^2 - x y + y^3", None),  # both contain x = y
    ("x^2 + 2 x y + y^2 + x^3", "x^2 - y^2", None),  # (x + y)^2 against x^2 - y^2
    ("x^2 y + x^4", "x y + y^3", None),  # x divides both cones
    ("y^2 - x^3", "y^2 + x^5", None),  # y divides both cones
    ("x y", "x y + x^3", None),
])
def test_cone_step_values(p_text, q_text, want):
    p, q = parse_poly(p_text), parse_poly(q_text)
    assert _cone_mult(p, q) == _cone_mult(q, p) == want
    if want is not None:
        assert intersect._fulton(p, q) == want


def test_cone_step_reads_monomial_cones_off_the_terms():
    # no dense list of 10^11 + 1 cone coefficients is built when one cone is
    # a monomial or x divides both
    assert _cone_mult(parse_poly("x^99999999999"), parse_poly("y")) == 99999999999
    N = 99999999999
    assert _cone_mult(parse_poly("x^%d + y^%d" % (N, N)), parse_poly("x y")) == 2 * N
    assert _cone_mult(parse_poly("x^%d y" % N), parse_poly("x y^2")) is None


def test_huge_cones_with_two_terms_each_exceed_the_budget():
    # no dense cone list and no 2^N: the evaluation at (2, -1) is never made
    N = 99999999999
    for p_text, q_text in [("x + 2 y", "x^%d + y^%d" % (N, N)),
                           ("x^2 - y^2", "x^%d + x y^%d" % (N, N - 1))]:
        p, q = parse_poly(p_text), parse_poly(q_text)
        for a, b in ((p, q), (q, p)):
            with pytest.raises(BudgetExceeded):
                _cone_mult(a, b)
    # at the budget the linear cone is still decided by its evaluation
    M = intersect.DEFAULT_BUDGET
    assert _cone_mult(parse_poly("x + 2 y"), parse_poly("x^%d + y^%d" % (M, M))) == M


def cone_mult_by_gcd(p: BiPoly, q: BiPoly):
    """The reference cone step: every pair of cones with more than one term
    each is compared by the gcd of their dense dehomogenizations at y = 1."""
    m, n = p.order(), q.order()
    cp = [(i, c) for (i, j), c in p.terms.items() if i + j == m]
    cq = [(i, c) for (i, j), c in q.terms.items() if i + j == n]
    if all(i for i, _ in cp) and all(i for i, _ in cq):
        return None
    if all(i < m for i, _ in cp) and all(i < n for i, _ in cq):
        return None
    if len(cp) > 1 and len(cq) > 1:
        a, b = [0] * (m + 1), [0] * (n + 1)
        for row, cone in ((a, cp), (b, cq)):
            for i, c in cone:
                row[i] = c
        if len(_ugcd(a, b)) > 1:
            return None
    return m * n


def linear_cone_pairs(rng):
    """Seeded pairs (P, Q): P has the cone u x + v y, u v != 0, often with
    Fraction coefficients; Q has a cone of degree 1 to 5, in half of the
    pairs a multiple of that line.  Both get random terms of higher degree."""
    def coeff():
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        return Fraction(c, rng.choice([2, 3, 5])) if rng.random() < 0.3 else c

    def form(d):
        return BiPoly({(i, d - i): rng.randint(-3, 3) for i in range(d + 1)})

    def tail(low):
        return BiPoly({(i, j): rng.randint(-2, 2) * (rng.random() < 0.4)
                       for i in range(low + 2) for j in range(low + 2 - i) if i + j >= low})

    pairs = []
    for k in range(400):
        line = BiPoly({(1, 0): coeff(), (0, 1): coeff()})
        d = rng.randint(1, 5)
        cone = line * form(d - 1) if k % 2 else form(d)
        P, Q = line + tail(2), cone + tail(d + 1)
        if not Q.is_zero() and Q.order() == d:
            pairs.append((P, Q))
    return pairs


def test_linear_cones_match_the_gcd_reference():
    """The one evaluation at (v, -u) agrees with the gcd of the dense cones
    in both orders, on linear cones and on every pair of cone_pairs."""
    pairs = linear_cone_pairs(random.Random(2718))
    shared = sum(cone_mult_by_gcd(P, Q) is None for P, Q in pairs)
    assert len(pairs) >= 350 and shared >= 150, (len(pairs), shared)
    for P, Q in pairs + cone_pairs(random.Random(1729)):
        for a, b in ((P, Q), (Q, P)):
            assert _cone_mult(a, b) == cone_mult_by_gcd(a, b), (str(a), str(b))


def cone_mult_two_pass(p: BiPoly, q: BiPoly):
    """The cone step as it read each cone twice: the orders by
    ``BiPoly.order``, x and y dividing both by a scan of every term, and the
    linear cone sorted apart."""
    m, n = p.order(), q.order()
    cp = [(i, c) for (i, j), c in p.terms.items() if i + j == m]
    cq = [(i, c) for (i, j), c in q.terms.items() if i + j == n]
    if all(i for i, _ in cp) and all(i for i, _ in cq):
        return None
    if all(i < m for i, _ in cp) and all(i < n for i, _ in cq):
        return None
    if len(cp) > 1 and len(cq) > 1:
        if max(m, n) > intersect.DEFAULT_BUDGET:
            raise BudgetExceeded("cone past the term budget")
        if n == 1:
            cp, cq, m, n = cq, cp, n, m
        if m == 1:
            (_, v), (_, u) = sorted(cp)
            if not sum(c * v**i * (-u)**(n - i) for i, c in cq):
                return None
        else:
            a, b = [0] * (m + 1), [0] * (n + 1)
            for row, cone in ((a, cp), (b, cq)):
                for i, c in cone:
                    row[i] = c
            if len(_ugcd(a, b)) > 1:
                return None
    return m * n


def cone_shape_pairs(rng):
    """Seeded (shape, P, Q) for every branch of the cone step: monomial
    cones, cones that x or y divides, a linear cone against a cone of degree
    1 to 4, two cones of degree >= 2 (the gcd), Fraction coefficients,
    two-term cones past the term budget, and smooth curves (a linear part in
    x only, in y only or in both) against a multiple of their linear part or
    an independent one (the determinant), with Fraction coefficients, and
    against curves of order 2 and 3."""
    def form(d):  # a form of degree d with at least one term
        f = BiPoly({(i, d - i): rng.randint(-2, 2) * (rng.random() < 0.6)
                    for i in range(d + 1)})
        return f if not f.is_zero() else BiPoly.monomial(1, d, 0)

    def tail(d):  # terms of degrees d + 1 and d + 2
        return BiPoly({(i, e - i): rng.randint(-2, 2) * (rng.random() < 0.4)
                       for e in (d + 1, d + 2) for i in range(e + 1)})

    def curve(cone):
        return cone + tail(cone.order())

    def rational(P):
        return BiPoly({ij: Fraction(c, rng.choice([1, 2, 3, 7]))
                       for ij, c in P.terms.items()})

    x, y = BiPoly.x(), BiPoly.y()
    pairs = []
    for _ in range(60):
        d, e = rng.randint(1, 4), rng.randint(1, 4)
        a = rng.randint(0, d)
        pairs.append(("monomial", curve(BiPoly.monomial(rng.choice([-2, 1, 3]), a, d - a)),
                      curve(form(e))))
        pairs.append(("x divides", curve(x * form(d - 1)) if d > 1 else curve(x),
                      curve(x * form(e))))
        pairs.append(("y divides", curve(y * form(d)), curve(y * form(e - 1)) if e > 1
                      else curve(y)))
        line = BiPoly({(1, 0): rng.choice([-2, 1, 3]), (0, 1): rng.choice([-1, 1, 2])})
        cone = line * form(e - 1) if rng.random() < 0.5 and e > 1 else form(e)
        pairs.append(("linear", curve(line), curve(cone)))
        d, e = rng.randint(2, 4), rng.randint(2, 4)
        common = form(1) if rng.random() < 0.5 else BiPoly.const(1)
        pairs.append(("gcd", curve(common * form(d - common.order())),
                      curve(common * form(e - common.order()))))
        pairs.append(("fraction", rational(curve(form(d))), rational(curve(form(e)))))
        u, v = rng.choice([-2, 1, 3]), rng.choice([-1, 1, 2])
        line = BiPoly({(1, 0): u, (0, 1): v} if rng.random() < 0.6 else
                      rng.choice([{(1, 0): u}, {(0, 1): v}]))
        lines = [line * BiPoly.const(rng.choice([-2, 1, 3])), form(1)]
        other = lines[rng.random() < 0.5]
        pairs.append(("smooth", curve(line), curve(other)))
        pairs.append(("smooth fraction", rational(curve(line)),
                      rational(curve(rng.choice(lines)))))
        e = rng.randint(2, 3)
        pairs.append(("smooth against order %d" % e, curve(line),
                      curve(line * form(e - 1) if rng.random() < 0.5 else form(e))))
    N = intersect.DEFAULT_BUDGET + rng.randint(1, 10)
    for p_text, q_text in [("x + 2 y", "x^%d + y^%d" % (N, N)),
                           ("x^2 - y^2", "x^%d + x y^%d" % (N, N - 1)),
                           ("x^%d + y^%d" % (N, N), "x^%d - 3 y^%d" % (N, N))]:
        pairs.append(("budget", parse_poly(p_text), parse_poly(q_text)))
    return pairs


def cone_outcome(step, p, q):
    try:
        return step(p, q)
    except BudgetExceeded:
        return BudgetExceeded


def test_one_pass_cone_step_matches_the_two_pass_reference():
    """Reading each cone in one sorted pass changes no decision: on every
    shape of cone_shape_pairs and on every pair of cone_pairs and
    linear_cone_pairs, in both orders, _cone_mult gives the reference's
    value or raises where it raises."""
    decided = Counter()
    shaped = cone_shape_pairs(random.Random(2205))
    rest = cone_pairs(random.Random(1729)) + linear_cone_pairs(random.Random(2718))
    for shape, P, Q in shaped + [("mixed", P, Q) for P, Q in rest]:
        for a, b in ((P, Q), (Q, P)):
            want = cone_outcome(cone_mult_two_pass, a, b)
            assert cone_outcome(_cone_mult, a, b) == want, (shape, str(a), str(b))
            decided[shape, "none" if want is None else "raise" if want is BudgetExceeded
                    else "value"] += 1
    # every shape both decides and declines some pairs, save the budget pairs
    # (which always raise) and x or y dividing both (which always decline)
    for shape in ("monomial", "linear", "gcd", "fraction", "mixed", "smooth",
                  "smooth fraction", "smooth against order 2", "smooth against order 3"):
        assert decided[shape, "value"] >= 10 and decided[shape, "none"] >= 10, decided
    assert decided["x divides", "none"] == decided["y divides", "none"] == 120
    assert decided["budget", "raise"] == 6


def test_cone_step_matches_fulton_and_the_shear_oracle():
    """Wherever the tangent cones decide, m(P) m(Q) equals Fulton's
    reduction, the shear oracle, and local_mult in either order; a pair with
    a shared component through the origin is never decided by its cones."""
    sam = GenericSampler(1729)
    decided = shared = 0
    for P, Q in cone_pairs(random.Random(1729)):
        value = _cone_mult(P, Q)
        g = bipoly_gcd(P, Q)
        if not g.is_constant() and g.constant_term() == 0:
            assert value is None, (str(P), str(Q))
            shared += 1
        elif value is not None:
            assert value == P.order() * Q.order() == _cone_mult(Q, P)
            assert intersect._fulton(P, Q) == value, (str(P), str(Q))
            assert shear_oracle(P, Q, sam) == value, (str(P), str(Q))
            for a, b in ((P, Q), (Q, P)):
                assert local_mult(PlaneCurve(a), PlaneCurve(b)) == value
            decided += 1
    assert decided >= 300 and shared >= 40, (decided, shared)


def test_cone_step_never_decides_a_shared_component():
    """S A against S B, S through the origin: the cone of S divides both
    cones, so the pair goes on to a later step, which finds it INFINITE."""
    rng = random.Random(1848)

    def factor():  # a curve through the origin, or a unit there
        k = rng.randint(0, 2)
        if k == 2:
            return BiPoly({(0, 0): rng.choice([1, -2]), (1, 0): rng.randint(-2, 2),
                           (1, 1): rng.randint(-2, 2)})
        return (rand_curve, rand_singular)[k](rng).poly

    checked = 0
    for _ in range(200):
        S = (rand_curve(rng) if rng.random() < 0.5 else rand_singular(rng)).poly
        P, Q = S * factor(), S * factor()
        if S.is_zero() or P.is_zero() or Q.is_zero():
            continue
        assert _cone_mult(P, Q) is None, (str(P), str(Q))
        assert local_mult(PlaneCurve(P), PlaneCurve(Q)) is INFINITE, (str(P), str(Q))
        checked += 1
    assert checked >= 150


def test_each_step_decides_some_pairs(monkeypatch):
    """No step shadows a later one: on the pairs of cone_pairs, the cones,
    the smooth branch, the fiber certificate and Fulton's reduction each
    decide some pairs.  The deciding step is the last one that local_mult
    calls."""
    steps = ("_cone_mult", "_branch_mult", "_certified_pair", "_fulton")
    log = []
    for name in steps:
        def recording(p, q, name=name, step=getattr(intersect, name)):
            log.append(name)
            return step(p, q)
        monkeypatch.setattr(intersect, name, recording)
    counts = dict.fromkeys(steps, 0)
    for P, Q in cone_pairs(random.Random(1729)):
        local_mult(PlaneCurve(P), PlaneCurve(Q))
        counts[log[-1]] += 1
    assert counts["_cone_mult"] >= 300 and min(counts.values()) >= 30, counts


def smooth_pairs(rng):
    """Seeded (kind, S, Q, want) with S smooth at the origin and want the
    known value or None: transversal pairs, tangencies of order 2 up to the
    Bezout cap deg S * deg Q, a smooth S with no y term, a partner with no
    y term, two smooth curves, shared smooth factors, and Fraction
    coefficients."""
    def poly(low, high):
        return BiPoly({(i, j): rng.randint(-2, 2) * (rng.random() < 0.5)
                       for i in range(high + 1) for j in range(high + 1 - i)
                       if low <= i + j})

    def smooth(tangent_x=False):
        # v y + h with v != 0; on tangent_x, S(x, 0) = c x^2 + ...
        S = BiPoly({(0, 1): rng.choice([1, -1, 2, -3]), (2, 0): rng.choice([1, -2])})
        if not tangent_x:
            S = S + BiPoly({(1, 0): rng.randint(-3, 3)})
        return S + BiPoly.y() * poly(1, 1) + poly(3, 3) * rng.randint(0, 1)

    def rational(P):
        return BiPoly({ij: Fraction(c, rng.choice([1, 2, 3, 7]))
                       for ij, c in P.terms.items()})

    out = []
    for k in range(360):
        kind = ("transversal", "tangent x^m", "tangent y^m", "x-free partner",
                "both smooth", "shared")[k % 6]
        S, want = smooth(kind == "tangent y^m"), None
        if k % 4 == 1:
            S = rational(S)
        if kind == "transversal":
            Q = poly(1, 3)
        elif kind == "tangent x^m":  # i_0(S, S A + c x^m) = m
            want = rng.randint(2, 6)
            Q = S * poly(0, want - 2) + BiPoly.monomial(rng.choice([1, -1, 3]), want, 0)
        elif kind == "tangent y^m":
            # S(x, 0) = a x^2 and deg S A <= m, so i_0(S, S A + c y^m) = 2 m,
            # which Bezout bounds by deg S * deg Q <= 2 m: the cap itself
            S = S - BiPoly({ij: c for ij, c in S.terms.items() if sum(ij) > 2})
            m = rng.randint(1, 4)
            Q = S * poly(0, m - 2) + BiPoly.monomial(rng.choice([1, -2]), 0, m)
            want = 2 * m
        elif kind == "x-free partner":  # i_0(S, c x^m + ...) = m, as S has a y term
            want = rng.randint(1, 5)
            Q = BiPoly({(want, 0): rng.choice([1, -1, 2]), (want + 1, 0): rng.randint(-2, 2)})
        elif kind == "both smooth":
            Q = smooth(rng.random() < 0.5) * rng.choice([1, -2])
        else:  # S divides Q, or S U divides both, U a unit at the origin
            Q = S * poly(0, 2)
            if rng.random() < 0.5:
                U = BiPoly.const(1) + poly(1, 1)
                S, Q = S * U, Q * U
        if k % 4 == 1:
            Q = Q * BiPoly.const(Fraction(rng.choice([1, -2, 5]), 3))
        if k % 3 == 2:  # exchange the axes: an S with no x term gets no y term
            S, Q = (P.compose(BiPoly.y(), BiPoly.x()) for P in (S, Q))
        if not Q.is_zero():
            out.append((kind, S, Q, want))
    return out


def test_branch_step_matches_fulton_and_the_shear_oracle():
    """On pairs with a curve smooth at the origin, the branch step decides,
    in either argument order, and its value equals the known one, Fulton's
    reduction, local_mult, and off a shared component the shear oracle;
    INFINITE comes exactly with a gcd through the origin."""
    sam = GenericSampler(4711)
    pairs = smooth_pairs(random.Random(4711))
    values: dict = {}
    exchanged = fractions = 0
    for kind, S, Q, want in pairs:
        value = intersect._branch_mult(S, Q)
        assert value is not None and intersect._branch_mult(Q, S) == value, (kind, str(S), str(Q))
        assert want is None or value == want, (kind, str(S), str(Q), value)
        assert intersect._fulton(S, Q) == value, (kind, str(S), str(Q), value)
        for a, b in ((S, Q), (Q, S)):
            assert local_mult(PlaneCurve(a), PlaneCurve(b)) == value
        g = bipoly_gcd(S, Q)
        shared = not g.is_constant() and g.constant_term() == 0
        assert (value is INFINITE) == shared, (kind, str(S), str(Q), value)
        if not shared:
            assert value == shear_oracle(S, Q, sam), (kind, str(S), str(Q), value)
        if kind == "tangent y^m":
            assert value == S.degree() * Q.degree(), (str(S), str(Q), value)
        values.setdefault(kind, set()).add(value)
        exchanged += (0, 1) not in S.terms
        fractions += any(type(c) is Fraction for c in S.terms.values())
    assert len(pairs) >= 300 and exchanged >= 50 and fractions >= 60, (exchanged, fractions)
    assert values["shared"] == {INFINITE}, values
    assert {2, 3, 4, 5, 6} <= values["tangent x^m"] and {2, 4, 6, 8} <= values["tangent y^m"]
    assert all(len(v) >= 2 for k, v in values.items() if k != "shared"), values


def test_branch_step_declines_without_a_smooth_curve_or_past_the_budget():
    N = 99999999999
    for p_text, q_text in [("x^2 + y^3", "y^2 + x^3"), ("x y", "x^2 - y^3"),
                           ("x + y^%d" % N, "x"), ("y - x^2", "y^%d + x^3" % N)]:
        p, q = parse_poly(p_text), parse_poly(q_text)
        assert intersect._branch_mult(p, q) is None and intersect._branch_mult(q, p) is None


def test_branch_step_work_does_not_grow_with_the_partner():
    """The power table holds only the Y^j that a term reads, each from
    t^(j e) on, e = ord_t Y, and skips the zero coefficients of Y, so these
    pairs take about J and N coefficients of a few products each:
    i_0(y, y^J + x^(J+1)) = J + 1 along Y = 0, i_0(y - x^2, (y - x^2)^2 +
    x^N) = N along Y = t^2, and i_0(y - x^2, y^J + x^(2J-1)) = 2 J - 1,
    where Y^J would join at t^(2J)."""
    J = N = 10**5
    for p_text, q_text, want in [("y", "y^%d + x^%d" % (J, J + 1), J + 1),
                                 ("y - x^2", "(y - x^2)^2 + x^%d" % N, N),
                                 ("y - x^2", "y^%d + x^%d" % (J, 2 * J - 1), 2 * J - 1)]:
        p, q = parse_poly(p_text), parse_poly(q_text)
        assert intersect._branch_mult(p, q) == intersect._branch_mult(q, p) == want
        assert local_mult(PlaneCurve(q), PlaneCurve(p)) == want


def test_branch_step_leaves_a_pair_past_the_term_budget_in_products(monkeypatch):
    """The step counts its products, the terms of both curves and the
    power table per coefficient, and leaves the pair to the later steps
    once they pass the term budget; the value does not change."""
    p, q = parse_poly("y - x + x^2"), parse_poly("(y - x)^30 + x^61")  # 2 * 30
    assert intersect._branch_mult(p, q) == intersect._branch_mult(q, p) == 60
    monkeypatch.setattr(intersect, "DEFAULT_BUDGET", 1000)
    assert intersect._branch_mult(p, q) is None and intersect._branch_mult(q, p) is None
    for a, b in ((p, q), (q, p)):
        assert local_mult(PlaneCurve(a), PlaneCurve(b)) == 60


def test_degenerate_input():
    sam = GenericSampler(3)
    with pytest.raises(DegenerateInput):
        local_mult(PlaneCurve(BiPoly.zero()), C("x"), sam)


def test_symmetry_seeded_sweep():
    rng = random.Random(60601)
    sam = GenericSampler(60601)
    checked = 0
    for _ in range(1000):
        P = rand_curve(rng)
        Q = rand_curve(rng)
        a = local_mult(P, Q, sam)
        b = local_mult(Q, P, sam)
        assert a == b
        checked += 1
    assert checked == 1000


def test_multiplicativity_seeded_sweep():
    rng = random.Random(31337)
    sam = GenericSampler(31337)
    checked = 0
    for _ in range(1000):
        P = rand_curve(rng)
        Q = rand_curve(rng)
        R = rand_curve(rng)
        iq = local_mult(P, Q, sam)
        ir = local_mult(P, R, sam)
        if iq is INFINITE or ir is INFINITE:
            continue
        prod = PlaneCurve(Q.poly * R.poly)
        assert local_mult(P, prod, sam) == iq + ir
        checked += 1
    assert checked > 900


def rand_curve(rng):
    """A small random curve with a nonzero linear part, so draws converge."""
    terms = {
        (1, 0): rng.randint(-3, 3),
        (0, 1): rng.randint(-3, 3),
        (2, 0): rng.randint(-2, 2),
        (1, 1): rng.randint(-2, 2),
        (0, 2): rng.randint(-2, 2),
    }
    if terms[(1, 0)] == 0 and terms[(0, 1)] == 0:
        terms[(1, 0)] = 1
    return PlaneCurve(BiPoly(terms))


def rand_singular(rng):
    """A small random curve through the origin, often singular there and
    often with a leading x-coefficient that vanishes at y = 0."""
    terms = {(i, j): rng.randint(-2, 2) * (rng.random() < 0.45)
             for i in range(4) for j in range(4) if 0 < i + j <= 4}
    return PlaneCurve(BiPoly(terms))


def test_map_germ_and_pullback():
    fx, fy = parse_map("(x^2 - y^4, y^4)")
    F = MapGerm(fx, fy)
    assert F.finiteness_certificate()
    bad = MapGerm(parse_poly("x y"), parse_poly("x y^2"))
    assert not bad.finiteness_certificate()
    P = pullback(F, C("x"))
    assert P.poly == parse_poly("x^2 - y^4")
    F2 = F.compose(F)
    assert F2.fy == parse_poly("y^16")


def test_mu_sequence_and_generic_samuel():
    sam = GenericSampler(0)
    fx, fy = parse_map("(x^2 - y^4, y^4)")
    F = MapGerm(fx, fy)
    gens = [parse_poly("x"), parse_poly("y")]
    mu = mu_sequence(F, gens, sam.draw_vector(2), sam.draw_vector(2), 4, sam)
    assert mu == [1, 2, 4, 8, 16]
    e = samuel_via_generic([parse_poly("x^2"), parse_poly("x y"), parse_poly("y^3")],
                           GenericSampler(11))
    assert e == 5


def test_mu_sequence_shared_component_raises():
    sam = GenericSampler(5)
    F = MapGerm.identity()
    gens = [parse_poly("x")]
    with pytest.raises(InfiniteMultiplicity):
        mu_sequence(F, gens, [1], [2], 2, sam)


def test_generic_member_matches_the_sum_of_products():
    """The one-dict sum equals the BiPoly sum of c_i g_i on seeded generator
    lists with int and Fraction coefficients, a member that cancels to zero
    included."""
    rng = random.Random(4242)

    def coeff():
        c = rng.randint(-4, 4)
        return Fraction(c, rng.choice([2, 3, 7])) if rng.random() < 0.3 else c

    monomials = [(i, j) for i in range(4) for j in range(4) if i + j]
    zero = 0
    for k in range(300):
        gens = [BiPoly({rng.choice(monomials): coeff() for _ in range(rng.randint(1, 4))})
                for _ in range(rng.randint(1, 4))]
        coeffs = [coeff() for _ in gens]
        if k % 10 == 0:  # 2 g_0 - 2 g_0: a member that cancels to zero
            gens, coeffs = [gens[0], gens[0]], [2, -2]
        want = sum((BiPoly.const(c) * g for c, g in zip(coeffs, gens)), BiPoly.zero())
        got = generic_member(gens, coeffs).poly
        assert got == want and all(type(c) is int or c.denominator > 1
                                   for c in got.terms.values()), (gens, coeffs)
        zero += got.is_zero()
    assert zero >= 30


def test_a_zero_member_is_degenerate():
    gens = [parse_poly("x + y"), parse_poly("2 x + 2 y"), parse_poly("y^2")]
    F = MapGerm(*parse_map("(x^2 - y^4, y^4)"))
    for z, w in (([2, -1, 0], [1, 1, 1]), ([1, 1, 1], [4, -2, 0])):
        with pytest.raises(DegenerateInput):
            mu_sequence(F, gens, z, w, 2, GenericSampler(0))


def test_detailed_is_exact_with_no_fallback():
    # both cones are y^2, so the fiber certificate decides, with b the cusp:
    # i_0(y^2 - x^3, x^4) = 4 i_0(y^2 - x^3, x) = 8
    assert local_mult_detailed(C("y^2 - x^3"), C("y^2 - x^3 + x^4")) == (8, False)


# the paper, cusp, swap and (y, x y) maps
ARC_MAPS = ["(x^2 - y^4, y^4)", "(x^2 + y^3, x y)", "(y^2, x^2 - y^3)", "(y, x y)"]
# ideals whose generic member has an integer parametrization: x-graphs (one
# with rational coefficients), a y-graph and coprime binomials; n_max stays
# where the exact loop is quick (at n = 4 the binomials take it a minute)
ARC_IDEALS = [("x, y", 4), ("x - 2 y, y^2", 4), ("y - x^2, x^3", 3),
              ("x^2, y^3", 3), ("x^3, y^2", 3), ("1/2 x - 2/3 y^2, 3/4 y^3", 4)]


def exact_mu(F, gens, z, w, n_max):
    """The oracle: mu(0..n_max) by the exact pullback and local_mult, or the
    message of the InfiniteMultiplicity that mu_sequence raises."""
    Dz, Dw = generic_member(gens, z), generic_member(gens, w)
    out, Fn = [], MapGerm.identity()
    for n in range(n_max + 1):
        v = local_mult(pullback(Fn, Dz), Dw)
        if v is INFINITE:
            return "shared component at iterate %d; sequence %r so far" % (n, out)
        out.append(v)
        Fn = F.compose(Fn)
    return out


def mu_or_message(F, gens, z, w, n_max):
    try:
        return mu_sequence(F, gens, z, w, n_max, None)
    except InfiniteMultiplicity as exc:
        return str(exc)


def test_parametrization_shapes():
    # c x^2 + d y^3 at (c d^2 t^3, -c d t^2), on its primitive multiple
    assert (_parametrization(parse_poly("10 x^2 + 14 y^3"), DEFAULT_BUDGET)
            == ([0, 0, 0, 245], [0, 0, -35]))
    for text in ["x", "y", "3 x - y^2 + 2 y^5", "1/2 x - 2/3 y", "2 y + x^3",
                 "5 x^2 + 7 y^3", "2 x^3 - 3 y^2", "x^5 - 4 y^3", "x^7 + y^2"]:
        D = parse_poly(text)
        gx, gy = _parametrization(D, DEFAULT_BUDGET)
        assert all(type(c) is int for c in gx + gy), text
        X, Y = (BiPoly({(0, k): c for k, c in enumerate(g)}) for g in (gx, gy))
        assert D.compose(X, Y).is_zero(), text
        # primitive: not an arc in a power of t
        assert gcd(*(k for g in (gx, gy) for k, c in enumerate(g) if c)) == 1, text
    for text in ["x^2 + x y + y^2", "x^2 + y^4", "x^2 - y^2", "x y", "x^2 + x y^3",
                 "x^3 + y^3"]:
        assert _parametrization(parse_poly(text), DEFAULT_BUDGET) is None, text


def test_arc_path_matches_the_exact_loop():
    rng = random.Random(2718)
    infinite = compared = 0
    for map_text in ARC_MAPS:
        F = MapGerm(*parse_map(map_text))
        for ideal, n_max in ARC_IDEALS:
            gens = parse_poly_list(ideal)
            for k in range(3):
                w = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in gens]
                # z == w is INFINITE at n = 0; z may put D_z on one generator
                z = list(w) if k == 0 else [rng.randint(-9, 9) for _ in gens]
                if not any(z):
                    continue
                D = generic_member(gens, w).poly
                assert _parametrization(D, DEFAULT_BUDGET) is not None
                want = exact_mu(F, gens, z, w, n_max)
                assert mu_or_message(F, gens, z, w, n_max) == want, (map_text, ideal, z, w)
                compared += 1
                infinite += isinstance(want, str)
    assert compared >= 70 and infinite >= 24


def test_rational_map_on_the_arc_path():
    F = MapGerm(*parse_map("(1/2 x^2 + y^3, 2/3 x y)"))
    for ideal, z, w in [("x - 2 y, y^2", [3, 1], [2, 5]), ("x^2, y^3", [1, 4], [-3, 2])]:
        gens = parse_poly_list(ideal)
        assert mu_sequence(F, gens, z, w, 3, None) == exact_mu(F, gens, z, w, 3)


def test_infinite_first_at_iterate_one():
    # mu(0) = i_0(x^2 - y, x - y) = 1, and (x^2 - y) o F = (x - y) (x + y)
    F = MapGerm(*parse_map("(x, y^2)"))
    gens = parse_poly_list("x^2 - y, x - y")
    message = "shared component at iterate 1; sequence [1] so far"
    assert exact_mu(F, gens, [1, 0], [0, 1], 3) == message
    with pytest.raises(InfiniteMultiplicity, match=re.escape(message)):
        mu_sequence(F, gens, [1, 0], [0, 1], 3, None)


def test_non_arc_ideal_takes_the_exact_loop():
    F = MapGerm(*parse_map("(x^2 + y^3, x y)"))
    for ideal, z, w in [("x^2, x y, y^2", [3, -1, 2], [1, 4, -2]),
                        ("x^2, y^4", [2, -3], [5, 1])]:
        gens = parse_poly_list(ideal)
        assert _parametrization(generic_member(gens, w).poly, DEFAULT_BUDGET) is None
        assert mu_sequence(F, gens, z, w, 3, None) == exact_mu(F, gens, z, w, 3)


def test_the_arc_holds_gamma_below_the_jet_budget_only():
    # mu(0) = 41 is read off gamma's t^40 entry; under budget=50 the
    # parametrization of the second ideal's member is cut below deg D_w
    F = MapGerm(*parse_map("(x^2 - y^4, y^4)"))
    for ideal, budget, want in (("x + y^40, y^41", DEFAULT_BUDGET, [41, 4, 8]),
                                ("x + y^100, y^2", 50, [2, 4, 8])):
        gens = parse_poly_list(ideal)
        z, w = [3, 5], [2, -7]
        gamma = _parametrization(generic_member(gens, w).poly, budget)
        assert max(map(len, gamma)) <= budget
        got = mu_sequence(F, gens, z, w, 2, None, budget=budget)
        assert got == exact_mu(F, gens, z, w, 2) == want
    # D_z = x - y^2 meets D_w = x - y^2 - y^40 to order 40: the gamma cut at
    # t^30 makes D_z vanish on the arc, and only that cut says it is not 0
    gens = parse_poly_list("x - y^2 - y^40, x - y^2")
    with pytest.raises(BudgetExceeded, match=re.escape("mu(0) is at least 30,")):
        mu_sequence(F, gens, [0, 1], [1, 0], 1, None, budget=30)
    assert mu_sequence(F, gens, [0, 1], [1, 0], 1, None, budget=50) == [40, 8]


def test_jets_stay_within_the_budget():
    # mu = 1, 2, 4, 8: mu(3) needs a jet of more than 8 coefficients
    F = MapGerm(*parse_map("(x^2 - y^4, y^4)"))
    gens = parse_poly_list("x, y")
    assert mu_sequence(F, gens, [3, 5], [2, -7], 3, None, budget=9) == [1, 2, 4, 8]
    with pytest.raises(BudgetExceeded):
        mu_sequence(F, gens, [3, 5], [2, -7], 3, None, budget=8)
    with pytest.raises(BudgetExceeded):
        mu_sequence(F, gens, [3, 5], [2, -7], 3, None, budget=0)
    # F^2(gamma)_x = -gamma_x^2 vanishes to order 80, past the ceiling 64:
    # the arc keeps it as AtLeast(64), and mu(2) = 81 is a budget failure
    F = MapGerm(*parse_map("(x - y, x - y + x^2)"))
    gens = parse_poly_list("x + y^40, y^41")
    with pytest.raises(BudgetExceeded, match=re.escape("mu(2) is at least 64,")):
        mu_sequence(F, gens, [5, 3], [1, 1], 2, None, budget=64)
    assert (mu_sequence(F, gens, [5, 3], [1, 1], 2, None, budget=200)
            == exact_mu(F, gens, [5, 3], [1, 1], 2) == [41, 1, 81])
    # gamma's x-list starts at t^2 and its y-list at t; with widths cut at
    # the ceiling, the limits would stall below mu(4) = 9 at every window
    F = MapGerm(*parse_map("(4 x - 4 y - x y^2, 4 x - 4 y)"))
    gens = parse_poly_list("x + y^2, y^5")
    with pytest.raises(BudgetExceeded, match=re.escape("mu(4) is at least 9,")):
        mu_sequence(F, gens, [-6, 7], [-5, -7], 4, None, budget=9)
    assert (mu_sequence(F, gens, [-6, 7], [-5, -7], 4, None, budget=10)
            == exact_mu(F, gens, [-6, 7], [-5, -7], 4) == [5, 1, 3, 3, 9])


@pytest.mark.parametrize("map_text", ARC_MAPS[:2])
def test_twelve_iterates_on_the_arc(map_text):
    # jets below t^(2 mu(n)) took minutes from n = 10 on, on the paper and
    # cusp maps; windows of the lowest terms take well under a second
    F = MapGerm(*parse_map(map_text))
    sam = GenericSampler(0)
    z, w = sam.draw_vector(2), sam.draw_vector(2)
    start = time.monotonic()
    mu = mu_sequence(F, parse_poly_list("x, y"), z, w, 12, sam)
    assert mu == [2**n for n in range(13)]
    assert time.monotonic() - start < 10


def test_arc_components_that_are_exactly_zero():
    # D_w = x gives gamma = (0, t): its x-list is 0 uncut, not AtLeast(budget),
    # so F^n(gamma) keeps a zero component and D_z = x vanishes on it
    F = MapGerm(*parse_map("(x^2, y^2)"))
    gens = parse_poly_list("x, y")
    assert _parametrization(parse_poly("x"), DEFAULT_BUDGET) == ([0, 0], [0, 1])
    for z, want in (([1, 1], [2**n for n in range(6)]),
                    ([1, 0], "shared component at iterate 0; sequence [] so far")):
        assert mu_or_message(F, gens, z, [1, 0], 5) == exact_mu(F, gens, z, [1, 0], 5) == want
    # an exact zero needs no jet: budget=1 cuts the y-list to [0] and no more
    with pytest.raises(InfiniteMultiplicity, match="at iterate 0;"):
        mu_sequence(F, gens, [1, 0], [1, 0], 5, None, budget=1)


def test_cancelled_lowest_terms_widen_the_arc_window(monkeypatch):
    windows = []
    arc_jets = intersect._arc_jets

    def recording(gamma, D, window, budget):
        windows.append(window)
        return arc_jets(gamma, D, window, budget)

    monkeypatch.setattr(intersect, "_arc_jets", recording)
    F = MapGerm(*parse_map("(x^2 - y^4, y^4)"))
    assert mu_sequence(F, parse_poly_list("x, y"), [3, 5], [2, -7], 8, None) == [
        2**n for n in range(9)]
    assert windows == [1]  # no cancellation: the narrowest window suffices
    # x - y vanishes to order 3 along the w-member's branch, so the lowest
    # terms of D_z(gamma) cancel below t^3, and the window widens twice
    windows.clear()
    gens = parse_poly_list("x - y, y^3")
    want = exact_mu(F, gens, [3, 5], [2, -7], 4)
    assert mu_sequence(F, gens, [3, 5], [2, -7], 4, None) == want
    assert windows == [1, 2, 4]
    # F's step drops x^2 from x + x^2 at W = 1, and 2 x - y then cancels on
    # the arc: only that cut keeps the cancellation from reading as a zero
    windows.clear()
    F, gens = MapGerm(*parse_map("(x + x^2, 2 y)")), parse_poly_list("x - y, 2 x - y")
    want = exact_mu(F, gens, [0, 1], [1, 0], 3)
    assert mu_sequence(F, gens, [0, 1], [1, 0], 3, None) == want
    assert windows == [1, 2]
    # reading D_z = x^2 + y^3 builds x^2 with a cut; F's x^2 - y^2 reuses it
    # and cancels, and only that cut keeps F(gamma)_x from reading as 0
    F = MapGerm(*parse_map("(x^2 - y^2, y^4)"))
    gens = parse_poly_list("x - y - y^2, x^2 + y^3")
    want = exact_mu(F, gens, [0, 1], [1, 0], 3)
    assert mu_sequence(F, gens, [0, 1], [1, 0], 3, None) == want == [2, 6, 12, 24]


def test_arc_path_on_random_maps_with_shared_linear_parts():
    # proportional linear parts make the lowest terms of F(gamma) cancel, so
    # the window widens on most of these; n <= 2 keeps the exact loop quick
    rng = random.Random(2919)
    compared = 0
    for _ in range(100):
        F = shared_linear_map(rng)
        ideal = rng.choice(["x, y", "x - y, y^3", "x - 2 y, y^2", "x^2, y^3"])
        gens = parse_poly_list(ideal)
        w = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in gens]
        z = [rng.randint(-9, 9) for _ in gens]
        try:
            want = exact_mu(F, gens, z, w, 2)
        except DegenerateInput:  # a pullback is zero: a component of F^n is
            continue
        assert mu_or_message(F, gens, z, w, 2) == want, (F, ideal, z, w)
        compared += 1
    assert compared >= 80
