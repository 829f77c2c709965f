import random

import pytest

from germdyn.bipoly import BiPoly, bipoly_gcd
from germdyn.intersect import (
    INFINITE,
    DegenerateInput,
    GenericSampler,
    InfiniteMultiplicity,
    MapGerm,
    PlaneCurve,
    _fiber_certificate,
    _graph_form,
    local_mult,
    local_mult_detailed,
    mu_sequence,
    pullback,
    samuel_via_generic,
)
from germdyn.polyparse import parse_map, parse_poly


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
    """The decision order (graph, fiber certificate, gcd, shears) gives
    INFINITE on exactly the pairs whose gcd is nonconstant and vanishes at
    the origin, whichever path the shared component reaches."""
    rng = random.Random(4242)
    sam = GenericSampler(4242)

    def small(j_max=2):
        return BiPoly({(0, j): rng.randint(-3, 3) for j in range(1, j_max + 1)})

    def graph():  # c x - h(y)
        return BiPoly({(1, 0): rng.choice([1, 2, -3])}) + small(3)

    def regular(a):  # leading x-coefficient a unit at y = 0
        return BiPoly({(2, 0): rng.choice([1, -2]), (1, 0): a,
                       (1, 1): rng.randint(-2, 2)}) + small()

    def singular():  # needs shears: leading x-coefficient vanishes at y = 0
        return BiPoly({(1, 1): rng.choice([1, -1]), (0, 1): 1,
                       (2, 1): rng.randint(-2, 2)}) + small()

    def unit():
        return BiPoly({(0, 0): 1, (1, 0): rng.randint(-2, 2),
                       (0, 1): rng.randint(-2, 2)})

    # "shear": the fiber certificate rejects the pair, so without the
    # shared component it would need shears
    paths = {"graph": 0, "fiber": 0, "shear": 0}
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
            if _graph_form(P) is not None and _graph_form(Q) is not None:
                paths["graph"] += 1
            elif (P.degree_x() >= 1 and Q.degree_x() >= 1
                  and _fiber_certificate(P, Q)):
                paths["fiber"] += 1
            else:
                paths["shear"] += 1
        else:
            assert isinstance(value, int) and value >= 1
            divided += not g.is_constant()
    assert infinite >= 150 and divided >= 10
    assert min(paths.values()) >= 30, paths


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


def test_detailed_warn_path_returns_min():
    # two coincident smooth curves in disguise never certify; equal curves
    # hit the INFINITE path instead, so use a pair needing draws
    sam = GenericSampler(8)
    P = C("y^2 - x^3")
    Q = C("y^2 - x^3 + x^4")
    value, warned = local_mult_detailed(P, Q, sam)
    assert isinstance(value, int) and value >= 4
