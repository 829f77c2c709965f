"""Monomial valuations and attraction rates under iteration.

A monomial valuation weights the two coordinates and evaluates a polynomial
as the minimal weighted degree over its support.  Pulling back along a map
germ and renormalizing gives the attraction rate; its growth along iterates
is summarized either by an exact rational asymptotic rate (when a detected
recursion has a rational dominant root) or by an algebraic certificate.
Only ``c_infinity`` detects a recursion, and it imports ``recurrence`` and
the Sturm chain's kernels itself, so ``c_sequence`` alone loads neither;
``growth_envelope_check`` reads a recursion its caller has already detected.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .bipoly import BiPoly, MapGerm, ZeroPolynomial, _guard_table, window_eval
from .bounds import DEFAULT_BUDGET, AtLeast, BudgetExceeded


class MonomialValuation:
    """Weights (s, t) on (x, y) with min(s, t) = 1.

    The weights are held once more as integers (a, b) over their common
    denominator L, (s, t) = (a, b) / L, so a valuation is one integer
    minimum over the support and a single Fraction."""

    __slots__ = ("sx", "ty", "_a", "_b", "_den")

    def __init__(self, sx, ty):
        sx, ty = Fraction(sx), Fraction(ty)
        if min(sx, ty) != 1:
            raise ValueError("weights must be normalized: min(s, t) = 1")
        self.sx = sx
        self.ty = ty
        self._den = lcm(sx.denominator, ty.denominator)
        self._a = sx.numerator * (self._den // sx.denominator)
        self._b = ty.numerator * (self._den // ty.denominator)

    @classmethod
    def order(cls):
        return cls(1, 1)

    def __call__(self, P: BiPoly) -> Fraction:
        if P.is_zero():
            raise ZeroPolynomial("valuation of the zero polynomial")
        a, b = self._a, self._b
        return Fraction(min(a * i + b * j for i, j in P.terms), self._den)

    def __repr__(self):
        return "MonomialValuation(%s, %s)" % (self.sx, self.ty)


def attraction_rate(F: MapGerm, nu: MonomialValuation) -> Fraction:
    """min of the valuation on the two pulled-back coordinates."""
    return min(nu(F.fx), nu(F.fy))


def c_sequence(F: MapGerm, nu: MonomialValuation, n_max: int,
               budget: int = DEFAULT_BUDGET) -> list[Fraction]:
    """Attraction rates c(F^n) = min(nu(F^n_x), nu(F^n_y)), n = 1..n_max,
    exact, read off weight windows; F^n itself is never built.  Under the
    integer weights (a, b) / L, each component of F is evaluated on jets of
    H = F^(n-1) by ``bipoly.window_eval``, the window rule.  The window W
    starts at 1, which keeps only the lowest forms, and the sequence is
    recomputed with W doubled when the lowest weights cancel past it.

    Raises ZeroPolynomial when a component of some F^n is zero (nothing
    dropped, nothing left), and BudgetExceeded when a power of F's
    coordinates, the window's width in weight units or a jet's term count
    would pass ``budget``."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max == 1:  # F itself: nothing is iterated, so nothing is bounded
        return [attraction_rate(F, nu)]
    polys = (F.fx.terms, F.fy.terms)
    if not all(polys):
        raise ZeroPolynomial("valuation of the zero polynomial")
    _guard_table(polys[0].keys() | polys[1].keys(), budget)
    window = 1
    while True:
        rates = _window_rates(polys, nu._a, nu._b, n_max, window, budget)
        if rates is not None:
            return [Fraction(r, nu._den) for r in rates]
        window *= 2
        if window > budget:
            raise BudgetExceeded("a weight window of %d exceeds the budget of %d"
                                 % (window, budget))


def _window_rates(polys, a: int, b: int, n_max: int, window: int, budget: int):
    """min(nu(F^n_x), nu(F^n_y)) in units of 1/L for n = 1..n_max, F's
    nonzero components given as term dicts and nu as the integer weights
    (a, b) / L; None when the lowest weights of some step cancel past the
    window.  Each component of H = F^(n-1) is a jet (terms, v, width), and
    H starts as the identity."""
    jets = ({(1, 0): 1}, a, window), ({(0, 1): 1}, b, window)
    cut, rates = False, []  # cut: whether any term was dropped
    for _ in range(n_max):
        powers, new = {}, []  # the powers of H serve both components
        for f in polys:
            jet, cut = window_eval(f, jets, a, b, powers, cut, budget)
            if jet is None:
                raise ZeroPolynomial("valuation of the zero polynomial")
            if type(jet) is AtLeast:
                return None  # the lowest weights cancelled past the window
            new.append(jet)
        jets = new
        rates.append(min(jets[0][1], jets[1][1]))
    return rates


class AsymptoticRate:
    """Result of the asymptotic-rate extraction.

    Either ``value`` is an exact rational, or ``certificate`` holds the
    recursion's characteristic polynomial together with an integer bracket
    for its dominant root and the n-th-root bound pair from the last
    computed rate.  Floats never enter; callers format as they wish.
    """

    __slots__ = ("value", "certificate", "model")

    def __init__(self, value=None, certificate=None, model=None):
        self.value = value
        self.certificate = certificate
        self.model = model

    @property
    def is_exact(self):
        return self.value is not None

    def to_json(self):
        out = {}
        if self.value is not None:
            out["value"] = str(self.value)
        if self.certificate is not None:
            out["certificate"] = {
                "char_poly": [str(c) for c in self.certificate["char_poly"]],
                "dominant_root_bracket": [
                    str(v) for v in self.certificate["dominant_root_bracket"]
                ],
                "nth_root_bound": {
                    "radicand": str(self.certificate["nth_root_bound"][0]),
                    "degree": self.certificate["nth_root_bound"][1],
                },
            }
        if self.model is not None:
            out["recursion"] = self.model.to_json()
        return out

    def __repr__(self):
        if self.value is not None:
            return "AsymptoticRate(%s)" % self.value
        return "AsymptoticRate(certificate=%r)" % (self.certificate,)


_RATE_MAX_ORDER = 3  # highest recursion order c_infinity fits
_RATE_HOLDOUT = 1  # terms c_infinity holds out to test the fit


def c_infinity(F: MapGerm, n_max: int, budget: int = DEFAULT_BUDGET) -> AsymptoticRate:
    """Asymptotic attraction rate from the rate sequence of the iterates.

    Detects an eventual integral recursion in c(F^n, ord), of order at most
    ``_RATE_MAX_ORDER`` = 3 with ``_RATE_HOLDOUT`` = 1 term held out; its
    dominant root is the rate.  A monic integer characteristic polynomial
    has only integer rational roots, so either the dominant root is an
    exact integer or an algebraic certificate with an integer bracket is
    returned.
    """
    from .recurrence import detect_recursion

    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    rates = c_sequence(F, MonomialValuation.order(), n_max, budget)
    ints = []
    for r in rates:
        if r.denominator != 1:
            raise AssertionError("order valuation rates must be integers")
        ints.append(int(r))
    model = detect_recursion(ints, _RATE_MAX_ORDER, _RATE_HOLDOUT)  # may raise
    cp = model.char_poly()
    lo, hi = _dominant_root_bracket(cp)
    if lo == hi:
        return AsymptoticRate(value=Fraction(lo), model=model)
    return AsymptoticRate(
        certificate={
            "char_poly": cp,
            "dominant_root_bracket": (lo, hi),
            "nth_root_bound": (ints[-1], n_max),
        },
        model=model,
    )


def growth_envelope_check(mu: list[int], model, c_inf: Fraction):
    """Exact (min, max) of mu(n) / c_inf^n over n from the onset of
    ``model``, a recursion the caller has detected on mu."""
    c_inf = Fraction(c_inf)
    if c_inf <= 1:
        raise ValueError("asymptotic rate must exceed 1")
    ratios = [
        Fraction(mu[n]) / c_inf**n for n in range(model.onset, len(mu))
    ]
    return min(ratios), max(ratios)


def _eval_int_poly(p: list[int], x: int) -> int:
    """p(x) for a coefficient list, low degree first."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _dominant_root_bracket(cp: list[int]):
    """Integers (a, b) with the largest real root of the monic polynomial in
    [a, b]: a == b exactly when that root is the integer a, else b = a + 1;
    (-B, B), B the Cauchy bound, when there is no real root.

    Real roots are counted exactly by a Sturm chain of the square-free part,
    so two roots between consecutive integers are not missed.  The
    recursions detected here come from positive growing sequences, whose
    dominant characteristic root is the largest real root.
    """
    from .intpoly import _uexact_div, _ugcd, _uprem

    bound = 1 + max(abs(c) for c in cp)  # every root lies in (-bound, bound)
    p = cp[::-1]
    q = _uexact_div(p, _ugcd(p, [i * c for i, c in enumerate(p)][1:]))
    chain = [q, [i * c for i, c in enumerate(q)][1:]]
    while len(chain[-1]) > 1:
        # with a positive leading divisor coefficient, _uprem returns a
        # positive multiple of the remainder, which a Sturm chain negates
        b = chain[-1] if chain[-1][-1] > 0 else [-c for c in chain[-1]]
        chain.append([-c for c in _uprem(chain[-2], b)])

    def sign_changes(values):
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_infinity = sign_changes([f[-1] for f in chain])

    def roots_above(x):
        return sign_changes([_eval_int_poly(f, x) for f in chain]) - at_infinity

    lo, hi = -bound, bound
    if not roots_above(lo):
        return lo, hi
    while hi - lo > 1:  # a root lies above lo and none above hi
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if roots_above(mid) else (lo, mid)
    return (hi, hi) if _eval_int_poly(q, hi) == 0 else (lo, hi)
