"""Local intersection multiplicities of exact plane curves at the origin.

The oracle is resultant-based: after ensuring both curves are regular in x
and meet the x-axis fiber only at the origin, the order of vanishing in y of
the resultant eliminating x is the local intersection number.  A cheap
certificate decides when the curves can be used as-is; only when it cannot
does a gcd look for a shared component, and then seeded random unimodular
coordinate changes are drawn and two independent draws must agree.
"""

from __future__ import annotations

import random

from .bipoly import (
    BiPoly,
    ZeroPolynomial,
    _div,
    _trim_z,
    _ugcd,
    bipoly_exact_div,
    bipoly_gcd,
    resultant_x,
)


class DegenerateInput(ValueError):
    """A zero polynomial was passed where a curve was expected."""


class GenericityFailure(RuntimeError):
    """Independent generic draws disagreed."""


class InfiniteMultiplicity(ArithmeticError):
    """Curves share a component through the origin."""


class _Infinite:
    __slots__ = ()

    def __repr__(self):
        return "INFINITE"

    def __bool__(self):
        return True


INFINITE = _Infinite()


class PlaneCurve:
    """A curve germ at the origin, given by a polynomial with no constant
    term."""

    __slots__ = ("poly",)

    def __init__(self, poly: BiPoly):
        if poly.constant_term() != 0:
            raise ValueError("curve must pass through the origin")
        self.poly = poly

    def is_zero(self):
        return self.poly.is_zero()

    def __repr__(self):
        return "PlaneCurve(%s)" % self.poly


class MapGerm:
    """A polynomial self-map fixing the origin, with a finiteness check."""

    __slots__ = ("fx", "fy")

    def __init__(self, fx: BiPoly, fy: BiPoly):
        if fx.constant_term() != 0 or fy.constant_term() != 0:
            raise ValueError("map must fix the origin")
        self.fx = fx
        self.fy = fy

    @classmethod
    def identity(cls):
        return cls(BiPoly.x(), BiPoly.y())

    def finiteness_certificate(self) -> bool:
        """Sufficient check for finite-to-one near the origin: the two
        components are coprime and their resultant in x is nonzero."""
        if self.fx.is_zero() or self.fy.is_zero():
            return False
        g = bipoly_gcd(self.fx, self.fy)
        if not g.is_constant():
            return False
        if self.fx.degree_x() < 1 or self.fy.degree_x() < 1:
            # one component is free of x; coprimality already certifies
            return True
        try:
            return bool(_trim_z(resultant_x(self.fx, self.fy)))
        except ZeroPolynomial:
            return False

    def compose(self, other: "MapGerm", budget: int | None = None) -> "MapGerm":
        """self after other: (self . other)(p) = self(other(p))."""
        return MapGerm(
            self.fx.compose(other.fx, other.fy, budget),
            self.fy.compose(other.fx, other.fy, budget),
        )

    def iterate(self, n: int, budget: int | None = None) -> "MapGerm":
        if n < 0:
            raise ValueError("negative iterate")
        out = MapGerm.identity()
        for _ in range(n):
            out = self.compose(out, budget)
        return out

    def __repr__(self):
        return "MapGerm(%s, %s)" % (self.fx, self.fy)


class GenericSampler:
    """Reproducible source of generic integer coefficients."""

    def __init__(self, seed: int, bound: int = 10**4):
        self.seed = seed
        self.bound = bound
        self._rng = random.Random(seed)

    def draw(self) -> int:
        v = 0
        while v == 0:
            v = self._rng.randint(-self.bound, self.bound)
        return v

    def draw_vector(self, n: int) -> list[int]:
        return [self.draw() for _ in range(n)]

    def unimodular(self):
        """A random determinant-one change of coordinates built from two
        shears, so the entries stay small."""
        a = self._rng.randint(-9, 9)
        b = self._rng.randint(-9, 9)
        # [[1, b], [a, a*b + 1]]
        return (1, b, a, a * b + 1)


def apply_linear(P: BiPoly, A) -> BiPoly:
    a, b, c, d = A
    fx = BiPoly({(1, 0): a, (0, 1): b})
    fy = BiPoly({(1, 0): c, (0, 1): d})
    return P.compose(fx, fy)


def _fiber_certificate(P: BiPoly, Q: BiPoly) -> bool:
    """True when ord_y Res_x(P, Q) is provably the local multiplicity:
    neither leading x-coefficient vanishes at y = 0, and the restrictions to
    y = 0 have no common root but x = 0."""
    # a leading x-coefficient is a unit at y = 0 iff it has a y^0 term
    if (P.degree_x(), 0) not in P.terms or (Q.degree_x(), 0) not in Q.terms:
        return False
    g = _ugcd(P.eval_y0_in_x(), Q.eval_y0_in_x())
    # common roots only at x = 0 means the gcd is a monomial c * x^k
    return sum(1 for c in g if c != 0) == 1


def _ord_y_resultant(P: BiPoly, Q: BiPoly):
    r = _trim_z(resultant_x(P, Q))
    if not r:
        return None  # identically zero resultant
    for k, c in enumerate(r):
        if c != 0:
            return k
    return None


def _graph_form(P: BiPoly):
    """If P = c*x - h(y) with constant c, return h/c, else None."""
    c = P.terms.get((1, 0))
    if c is None or any(i > 1 or (i == 1 and j) for i, j in P.terms):
        return None
    return BiPoly({(0, j): _div(-v, c) for (i, j), v in P.terms.items() if i == 0})


def local_mult(P: PlaneCurve, Q: PlaneCurve, sampler: GenericSampler,
               max_draws: int = 8):
    """i_0(P, Q): a nonnegative integer, or INFINITE for a shared component
    through the origin."""
    value, _ = local_mult_detailed(P, Q, sampler, max_draws)
    return value


def local_mult_detailed(P: PlaneCurve, Q: PlaneCurve, sampler: GenericSampler,
                        max_draws: int = 8):
    """(i_0(P, Q), fallback), where fallback is True when the shear draws
    gave no two agreeing values and their minimum is returned.

    Decides, in order: two graph curves; the fiber certificate with a
    nonvanishing resultant; a gcd, which finds a shared component or
    divides out a common factor that is a unit at the origin; shears.
    """
    if P.is_zero() or Q.is_zero():
        raise DegenerateInput("zero polynomial is not a curve")
    p, q = P.poly, Q.poly
    # graph fast path: x = g(y) against x = h(y); both are irreducible, so
    # they share a component exactly when they are equal
    hp, hq = _graph_form(p), _graph_form(q)
    if hp is not None and hq is not None:
        k = (hp - hq).ord_y()
        return (INFINITE if k is None else k), False
    # certified leading coefficients rule out a shared factor in y alone
    # through the origin, and a shared factor of positive x-degree makes
    # Res_x vanish
    if p.degree_x() >= 1 and q.degree_x() >= 1 and _fiber_certificate(p, q):
        k = _ord_y_resultant(p, q)
        if k is not None:
            return k, False
    g = bipoly_gcd(p, q)
    if not g.is_constant():
        if g.constant_term() == 0:
            return INFINITE, False
        # g is a unit in the local ring, so it does not change i_0
        return local_mult_detailed(PlaneCurve(bipoly_exact_div(p, g)),
                                   PlaneCurve(bipoly_exact_div(q, g)),
                                   sampler, max_draws)
    # randomized coordinate changes with cross-validation
    results = []
    draws = 0
    while draws < max_draws:
        A = sampler.unimodular()
        pa, qa = apply_linear(p, A), apply_linear(q, A)
        draws += 1
        if pa.degree_x() < 1 or qa.degree_x() < 1:
            continue
        if not _fiber_certificate(pa, qa):
            continue
        k = _ord_y_resultant(pa, qa)
        if k is None:
            continue
        results.append(k)
        if len(results) >= 2:
            if results[-1] == results[-2]:
                return results[-1], False
    if not results:
        raise GenericityFailure(
            "no regular coordinate change found in %d draws" % max_draws
        )
    return min(results), True


def pullback(F: MapGerm, C: PlaneCurve, budget: int | None = None) -> PlaneCurve:
    return PlaneCurve(C.poly.compose(F.fx, F.fy, budget))


DEFAULT_TERM_BUDGET = 10**6


def generic_member(generators: list[BiPoly], coeffs: list[int]) -> PlaneCurve:
    acc = BiPoly.zero()
    for c, g in zip(coeffs, generators):
        acc = acc + BiPoly.const(c) * g
    return PlaneCurve(acc)


def mu_sequence(F: MapGerm, generators: list[BiPoly], z: list[int],
                w: list[int], n_max: int, sampler: GenericSampler,
                budget: int = DEFAULT_TERM_BUDGET) -> list[int]:
    """mu(n) = i_0(pullback of the z-member by F^n, w-member), n = 0..n_max.

    Raises InfiniteMultiplicity (with the failing index in the message) when
    the two curves share a component through the origin.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    Dz = generic_member(generators, z)
    Dw = generic_member(generators, w)
    out = []
    Fn = MapGerm.identity()
    for n in range(n_max + 1):
        Pn = pullback(Fn, Dz, budget)
        val = local_mult(Pn, Dw, sampler)
        if val is INFINITE:
            raise InfiniteMultiplicity(
                "shared component at iterate %d; sequence %r so far" % (n, out)
            )
        out.append(val)
        if n < n_max:
            Fn = F.compose(Fn, budget)
    return out


def samuel_via_generic(generators: list[BiPoly], sampler: GenericSampler,
                       trials: int = 3) -> int:
    """Common intersection number of independent generic member pairs."""
    values = []
    for _ in range(trials):
        z = sampler.draw_vector(len(generators))
        w = sampler.draw_vector(len(generators))
        D1 = generic_member(generators, z)
        D2 = generic_member(generators, w)
        v = local_mult(D1, D2, sampler)
        if v is INFINITE:
            raise GenericityFailure("generic members shared a component")
        values.append(v)
    if len(set(values)) != 1:
        raise GenericityFailure("generic trials disagreed: %r" % values)
    return values[0]
