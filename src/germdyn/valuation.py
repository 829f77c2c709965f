"""Monomial valuations and attraction rates under iteration.

A monomial valuation weights the two coordinates and evaluates a polynomial
as the minimal weighted degree over its support.  Pulling back along a map
germ and renormalizing gives the attraction rate; its growth along iterates
is summarized either by an exact rational asymptotic rate (when a detected
recursion has a rational dominant root) or by an algebraic certificate.
Only ``c_infinity`` detects a recursion, and it imports ``recurrence`` and
the Sturm chain's kernels itself, so ``c_sequence`` alone loads neither;
``growth_envelope_check`` reads a recursion its caller has already detected.

``c_sequence`` reads c(F^n) off weight windows and never builds F^n.  With
the weights held as integers (a, b) over L, x^i y^j weighs a i + b j.  Each
component H_k of H = F^(n-1) is kept as a jet: its terms of weight below
v_k + w_k, where v_k = nu(H_k) is exact and the width w_k is at most the
window W.  Let w = min(w_x, w_y) and, for a component f of F, let m be the
least p v_x + q v_y over the terms x^p y^q of f.

*Exactness.*  H_k and its jet differ by terms of weight at least v_k + w,
and the lowest forms of nonzero polynomials multiply to a nonzero form, so
H_x^p H_y^q and the product of the jets' powers differ by terms of weight
at least p v_x + q v_y + w >= m + w.  Hence f evaluated on the jets, with
every product of weight m + w or more dropped (a term of f with
p v_x + q v_y >= m + w builds no power at all), equals f(H) below m + w.
If a term survives below m + w, the lowest one gives nu(F^n_k) = v
exactly, and the jet of F^n_k is exact with width m + w - v.

*Widening.*  When the lowest weights cancel so far that no term survives
below m + w, the whole sequence is recomputed with W doubled.  The first
window is W = 1, which keeps only the lowest forms; a window that started
wide would carry terms no rate reads.  When nothing was dropped anywhere
and nothing survives, F^n_k = 0 (ZeroPolynomial).  ``budget`` bounds W and
the terms of every jet.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .bipoly import BiPoly, MapGerm, ZeroPolynomial
from .bounds import DEFAULT_BUDGET, BudgetExceeded


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
    exact, read off weight windows of the iterates (see the module
    docstring); F^n itself is never built.

    Raises ZeroPolynomial when a component of some F^n is zero, and
    BudgetExceeded when a power of F's coordinates passes ``budget``, when
    the window would be wider than ``budget`` weight units, or when a jet
    would keep more than ``budget`` terms."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max == 1:  # F itself: nothing is iterated, so nothing is bounded
        return [attraction_rate(F, nu)]
    polys = (F.fx.terms, F.fy.terms)
    if not all(polys):
        raise ZeroPolynomial("valuation of the zero polynomial")
    top = max(max(ij) for f in polys for ij in f)
    if top > budget:
        raise BudgetExceeded("a power table of %d entries exceeds the budget of %d"
                             % (top, budget))
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
    cut = False  # whether any term was dropped: if none was, a zero is exact

    def mul(P, Q, limit):
        """The terms of P Q of weight below ``limit``."""
        nonlocal cut
        out = {}
        for (i, j), c in P.items():
            for (k, l), d in Q.items():
                if a * (i + k) + b * (j + l) < limit:
                    out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
                else:
                    cut = True
        out = {ij: c for ij, c in out.items() if c}
        if len(out) > budget:
            raise BudgetExceeded("term count %d exceeds budget %d" % (len(out), budget))
        return out

    one = {(0, 0): 1}
    jets = ({(1, 0): 1}, a, window), ({(0, 1): 1}, b, window)
    rates = []
    for _ in range(n_max):
        (X, vx, wx), (Y, vy, wy) = jets
        w = min(wx, wy)
        powers = ({0: one, 1: X}, {0: one, 1: Y})

        def power(k, e):
            """H_k^e below e v_k + w, by squaring."""
            if e not in powers[k]:
                v = jets[k][1]
                square = mul(power(k, e // 2), power(k, e // 2), (e - e % 2) * v + w)
                powers[k][e] = mul(square, powers[k][1], e * v + w) if e % 2 else square
            return powers[k][e]

        new = []
        for f in polys:
            # f(H) is exact below m + w: every term dropped weighs at least that
            limit = min(p * vx + q * vy for p, q in f) + w
            acc = {}
            for (p, q), c in f.items():
                if p * vx + q * vy >= limit:  # a dead term: no power of it is built
                    cut = True
                    continue
                for ij, d in mul(power(0, p), power(1, q), limit).items():
                    acc[ij] = acc.get(ij, 0) + c * d
            acc = mul(acc, one, limit)  # drops the cancelled terms
            if not acc:
                if not cut:
                    raise ZeroPolynomial("valuation of the zero polynomial")
                return None  # the lowest weights cancelled past the window
            v = min(a * i + b * j for i, j in acc)
            new.append((acc, v, limit - v))
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
