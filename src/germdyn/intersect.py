"""Local intersection multiplicities of exact plane curves at the origin.

``local_mult`` is deterministic: each step of its decision order (a graph
over either axis, the fiber certificate, a gcd, Fulton's reduction) is a
proof, and none draws a random number.  ``GenericSampler`` only draws the
generic coefficients of ideal members.
"""

from __future__ import annotations

import random

from .bipoly import (
    BiPoly,
    _resultant_linear,
    _ugcd,
    _uprimitive,
    _wrap,
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
        """True when i_0(fx, fy) is finite: F is finite-to-one near 0."""
        if self.fx.is_zero() or self.fy.is_zero():
            return False
        return local_mult(PlaneCurve(self.fx), PlaneCurve(self.fy)) is not INFINITE

    def compose(self, other: "MapGerm", budget: int | None = None) -> "MapGerm":
        """self after other: (self . other)(p) = self(other(p))."""
        return MapGerm(
            self.fx.compose(other.fx, other.fy, budget),
            self.fy.compose(other.fx, other.fy, budget),
        )

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


def _ord_y(coeffs: list):
    """Index of the first nonzero entry; INFINITE for an all-zero list."""
    return next((k for k, c in enumerate(coeffs) if c), INFINITE)


def _is_graph(P: BiPoly, k: int) -> bool:
    """True when P = c*x - h(y) (k = 0) or P = c*y - h(x) (k = 1), c constant."""
    lin = (1, 0) if k == 0 else (0, 1)
    return lin in P.terms and all(ij[k] == 0 or ij == lin for ij in P.terms)


def _graph_mult(p: BiPoly, q: BiPoly):
    """i_0(p, q) when p or q is a graph over either axis, else None.  For
    x = h(y)/c, i_0 = ord_y of the partner along the graph, which is
    ord_y Res_x (zero exactly when the graph is a component of the partner)."""
    for k in (0, 1):
        for g, other in ((p, q), (q, p)):
            if _is_graph(g, k):
                if k:  # swap x and y
                    g, other = (_wrap({(j, i): c for (i, j), c in t.terms.items()})
                                for t in (g, other))
                return _ord_y(_resultant_linear(other, g))
    return None


def _primitive(terms: dict) -> dict:
    """The coprime integer multiple of a nonzero coefficient dict."""
    return dict(zip(terms, _uprimitive(terms.values())))


def _fulton(p: BiPoly, q: BiPoly) -> int:
    """i_0(p, q) by Fulton's reduction over Z.  p and q must share no
    component through the origin: then every split lowers the finite i_0,
    and between splits the degrees of the restrictions to y = 0 drop."""
    f, g = _primitive(p.terms), _primitive(q.terms)
    total = 0
    # a curve that misses the origin meets nothing there
    while (0, 0) not in f and (0, 0) not in g:
        # degrees of the restrictions to y = 0; -1 when one vanishes
        r, s = (max((i for i, j in t if not j), default=-1) for t in (f, g))
        if r > s:
            f, g, r, s = g, f, s, r
        if r < 0:
            # f = y^k f1 and i_0(y, g) = ord_x g(x, 0)
            k = min(j for _, j in f)
            total += k * min(i for i, j in g if not j)
            f = {(i, j - k): c for (i, j), c in f.items()}
            continue
        # g -> lc(f0) g - lc(g0) x^(s-r) f cancels the top of g(x, 0)
        a, b, d = f[(r, 0)], g[(s, 0)], s - r
        h = {ij: a * c for ij, c in g.items()}
        for (i, j), c in f.items():
            h[i + d, j] = h.get((i + d, j), 0) - b * c
        g = _primitive({ij: c for ij, c in h.items() if c})
    return total


def local_mult(P: PlaneCurve, Q: PlaneCurve, sampler: GenericSampler | None = None):
    """i_0(P, Q): a nonnegative integer, or INFINITE for a shared component
    through the origin.  Deterministic: ``sampler`` is unused, and the first
    of these steps that decides gives the value, each by a proof:
    1. graph: when a curve is c*x - h(y), ord_y of the resultant eliminating
       x (Horner's rule); failing that, the same for c*y - h(x) with x and y
       swapped;
    2. fiber certificate: when both leading x-coefficients are units at
       y = 0 and the curves meet the x-axis only at the origin, ord_y Res_x
       unless it vanishes identically;
    3. gcd: INFINITE when the gcd is nonconstant and vanishes at the origin;
    4. Fulton's reduction (W. Fulton, *Algebraic Curves*, section 3.3) over
       Z, which needs no cap, since step 3 proved i_0 finite.
    """
    value, _ = local_mult_detailed(P, Q, sampler)
    return value


def local_mult_detailed(P: PlaneCurve, Q: PlaneCurve,
                        sampler: GenericSampler | None = None):
    """(local_mult(P, Q), False): no step falls back on an unproved value,
    so the second entry, kept for callers that unpack a pair, is False."""
    if P.is_zero() or Q.is_zero():
        raise DegenerateInput("zero polynomial is not a curve")
    p, q = P.poly, Q.poly
    value = _graph_mult(p, q)
    if value is not None:
        return value, False
    # certified leading coefficients rule out a shared factor in y alone
    # through the origin; one of positive x-degree makes Res_x vanish
    if p.degree_x() >= 1 and q.degree_x() >= 1 and _fiber_certificate(p, q):
        value = _ord_y(resultant_x(p, q))
        if value is not INFINITE:
            return value, False
    g = bipoly_gcd(p, q)
    if not g.is_constant() and g.constant_term() == 0:
        return INFINITE, False
    # a common factor that is a unit at the origin does not change i_0
    return _fulton(p, q), False


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
    the two curves share a component through the origin.  ``sampler`` is
    unused, since local_mult draws nothing.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    Dz = generic_member(generators, z)
    Dw = generic_member(generators, w)
    out = []
    Fn = MapGerm.identity()
    for n in range(n_max + 1):
        Pn = pullback(Fn, Dz, budget)
        val = local_mult(Pn, Dw)
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
        v = local_mult(D1, D2)
        if v is INFINITE:
            raise GenericityFailure("generic members shared a component")
        values.append(v)
    if len(set(values)) != 1:
        raise GenericityFailure("generic trials disagreed: %r" % values)
    return values[0]
