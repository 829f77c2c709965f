"""Exact sparse bivariate polynomials over the rationals.

Monomials x**i * y**j are stored as a dict (i, j) -> coefficient with no
zero entries.  Coefficients are integer-first: a stored coefficient is an
``int`` whenever it is integral and a ``Fraction`` (denominator > 1) only
when it is not.  A polynomial over Z is therefore computed on with ints
throughout, and rational inputs run through the same code by way of the
int/Fraction numeric tower.  This is the workhorse behind curve defining
equations, map germs and their iterates, resultants, and gcds.  ``MapGerm``,
a polynomial self-map of the plane fixing the origin, lives here beside
``BiPoly.compose``, and so does ``window_eval``, the window rule on which
c(F^n) and the arc of mu(n) iterate, so that iterating loads no
intersection code.

Eliminations run over Z on the integer-cleared x-coefficient rows, dense
polynomials in y, on one exact pseudo-remainder: the resultant by the
subresultant remainder sequence, and the gcd by primitive Euclid over
Z[y][x].  Their dense kernels live in ``intpoly``, which ``resultant_x``
and ``bipoly_gcd`` import in their bodies, so that iterating a map or
parsing a polynomial does not load them.  ``local_mult`` calls the
row-level pseudo-remainder and resultant directly; it runs no gcd, so
``bipoly_gcd`` is API and a test oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .bounds import DEFAULT_BUDGET, AtLeast, BudgetExceeded


class ZeroPolynomial(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


def _coef(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is not Fraction:
        if type(c) is int:
            return c
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class BiPoly:
    """A polynomial in x and y with exact coefficients: an int when
    integral, else a Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for ij, c in terms.items():
                if type(c) is not int:
                    c = _coef(c)
                if c:
                    clean[ij] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, c, i: int, j: int):
        return cls({(i, j): c})

    @classmethod
    def x(cls):
        return cls({(1, 0): 1})

    @classmethod
    def y(cls):
        return cls({(0, 1): 1})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(ij == (0, 0) for ij in self.terms)

    def constant_term(self):
        return self.terms.get((0, 0), 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def order(self):
        """Lowest total degree of a term; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(i + j for i, j in self.terms)

    def degree_x(self) -> int:
        if not self.terms:
            return -1
        return max(i for i, _ in self.terms)

    def term_count(self) -> int:
        return len(self.terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_bipoly(other)
        out = dict(self.terms)
        for ij, c in other.terms.items():
            s = out.get(ij, 0) + c
            if s:
                out[ij] = s if type(s) is int else _coef(s)
            else:
                del out[ij]
        return _wrap(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_bipoly(other))

    def __rsub__(self, other):
        return _as_bipoly(other) + (-self)

    def __neg__(self):
        return _wrap({ij: -c for ij, c in self.terms.items()})

    def __mul__(self, other):
        other = _as_bipoly(other)
        out = {}
        get = out.get
        right = list(other.terms.items())
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in right:
                ij = (i1 + i2, j1 + j2)
                out[ij] = get(ij, 0) + c1 * c2
        # cancelled terms are dropped once, after the accumulation
        return _wrap({ij: c if type(c) is int else _coef(c)
                      for ij, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return self.power(n)

    def power(self, n: int, budget: int = DEFAULT_BUDGET) -> "BiPoly":
        """self^n by repeated squaring, under a term budget on every
        product it forms."""
        if n < 0:
            raise ValueError("negative power")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
                _check_budget(result, budget)
            n >>= 1
            if n:
                base = base * base
                _check_budget(base, budget)
        return result

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- composition --------------------------------------------------------

    def compose(self, fx: "BiPoly", fy: "BiPoly", budget: int = DEFAULT_BUDGET) -> "BiPoly":
        """Substitute x -> fx, y -> fy.  Exact, under a term budget on every
        product and on self's largest exponent, the most entries a power
        table could need.  Only the powers that self's terms read are built."""
        _guard_table(self.terms, budget)
        by_i: dict[int, dict] = {}
        for (i, j), c in self.terms.items():
            by_i.setdefault(i, {})[j] = c
        xpow = _powers(fx, sorted(by_i), budget)
        ypow = _powers(fy, sorted({j for _, j in self.terms}), budget)
        result = BiPoly.zero()
        for i, js in sorted(by_i.items()):
            row = sum((BiPoly.const(c) * ypow[j] for j, c in js.items()), BiPoly())
            result = result + row * xpow[i]
            _check_budget(result, budget)
        return result

    def eval_y0_in_x(self) -> list:
        """Coefficient list of self(x, 0) as a univariate poly in x."""
        d = self.degree_x()
        out = [0] * (d + 1 if d >= 0 else 0)
        for (i, j), c in self.terms.items():
            if j == 0:
                out[i] = c
        while out and not out[-1]:
            out.pop()
        return out

    def ord_y(self):
        """Order of vanishing in y of self viewed along x = anything: the
        minimal j over the support.  None if zero."""
        if not self.terms:
            return None
        return min(j for _, j in self.terms)

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda ij: (ij[0] + ij[1], ij[0])):
            c = self.terms[(i, j)]
            body = _mono_str(i, j)
            if body:
                if c == 1:
                    parts.append(body)
                elif c == -1:
                    parts.append("-" + body)
                else:
                    parts.append("%s*%s" % (c, body))
            else:
                parts.append(str(c))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return "BiPoly(%s)" % str(self)


def _mono_str(i: int, j: int) -> str:
    """x^i*y^j as text, with exponents 1 left out; "" for (0, 0)."""
    mono = []
    if i:
        mono.append("x" if i == 1 else "x^%d" % i)
    if j:
        mono.append("y" if j == 1 else "y^%d" % j)
    return "*".join(mono)


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
        from .intersect import INFINITE, PlaneCurve, local_mult

        if self.fx.is_zero() or self.fy.is_zero():
            return False
        return local_mult(PlaneCurve(self.fx), PlaneCurve(self.fy)) is not INFINITE

    def compose(self, other: "MapGerm", budget: int = DEFAULT_BUDGET) -> "MapGerm":
        """self after other: (self . other)(p) = self(other(p))."""
        return MapGerm(*(f.compose(other.fx, other.fy, budget) for f in (self.fx, self.fy)))

    def __repr__(self):
        return "MapGerm(%s, %s)" % (self.fx, self.fy)


def _wrap(terms: dict) -> BiPoly:
    """A BiPoly over ``terms``, whose coefficients must be nonzero and
    normalized by _coef."""
    p = BiPoly.__new__(BiPoly)
    p.terms = terms
    return p


def _as_bipoly(x):
    if isinstance(x, BiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return BiPoly.const(x)
    raise TypeError("cannot coerce %r to BiPoly" % (x,))


def _guard_table(monomials, budget):
    """Refuses a power table up to the largest exponent past the budget."""
    top = max((max(ij) for ij in monomials), default=0)
    if top > budget:
        raise BudgetExceeded("a power table of %d entries exceeds the budget of %d"
                             % (top, budget))


def _powers(f: BiPoly, exponents, budget) -> dict:
    """{e: f^e} over the ascending ``exponents``: f^(e-1) f when f^(e-1) is
    there, so a dense run costs one product per power, else by squaring."""
    pows = {0: BiPoly.const(1)}
    for e in exponents:
        pows[e] = pows[e - 1] * f if e - 1 in pows else f.power(e, budget)
        _check_budget(pows[e], budget)
    return pows


def _check_budget(p: BiPoly, budget):
    if p.term_count() > budget:
        raise BudgetExceeded(
            "term count %d exceeds budget %d" % (p.term_count(), budget)
        )


def window_eval(f: dict, jets, a: int, b: int, powers: dict, cut: bool,
                budget: int, ceiling=None):
    """f(H_x, H_y) below its exact limit, read off jets of H: (value, cut).

    f has no constant term, and x^i y^j weighs a i + b j, a, b >= 0.  The
    jet of H_k is (terms, v, width): v = nu(H_k) and every term of H_k of
    weight below v + width and the ``ceiling``; None when H_k = 0; or
    AtLeast(v) when no term of H_k weighs below v.  ``cut`` says whether a
    term was dropped on the way to the jets, and comes back with this
    evaluation's drops; ``powers`` ({} for new jets) keeps the jets' powers
    for the next f.

    *Exactness.*  Let u = p v_x + q v_y for a term x^p y^q of f not on a
    zero jet (those vanish), and w the least width of the jets with terms.
    As lowest forms multiply to a nonzero form, H_x^p H_y^q and the product
    of the jets' powers differ by terms of weight at least u + w, or u on
    an AtLeast jet.  With E the least of these bounds and L = min(E,
    ceiling), f on the jets, dropping every product of weight L or more (a
    term with u >= L builds no power), equals f(H) below L.  So the lowest
    surviving term gives the value (terms, v, E - v), v = nu(f(H)), whose
    width the ceiling does not cut.  With no term left, the value is None
    when every term vanishes or nothing was cut (then f(H) = 0), else
    AtLeast(L).  No product keeps more than ``budget`` terms.
    """
    X, Y = jets
    v = [J[1] if type(J) is tuple else J.bound if J else 0 for J in jets]
    w = min((J[2] for J in jets if type(J) is tuple), default=0)
    one = {(0, 0): 1}

    def below(limit):
        return limit if ceiling is None else min(limit, ceiling)

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
        _check_budget(_wrap(out), budget)
        return out

    def power(k, e):
        """H_k^e below e v_k + w, squaring up d = e >> s: no recursive cycle."""
        for s in range(e.bit_length() - 2, -1, -1):
            d = e >> s
            if (k, d) not in powers:
                half = powers[k, d // 2] if d > 3 else jets[k][0]
                sq = mul(half, half, below((d - d % 2) * v[k] + w))
                powers[k, d] = mul(sq, jets[k][0], below(d * v[k] + w)) if d % 2 else sq
        return powers[k, e] if e > 1 else jets[k][0] if e else one

    terms = [(p * v[0] + q * v[1], p, q, c) for (p, q), c in f.items()
             if not (p and X is None or q and Y is None)]
    if not terms:  # every term vanishes
        return None, cut
    exact = min(u if p and type(X) is AtLeast or q and type(Y) is AtLeast else u + w
                for u, p, q, _ in terms)
    limit, acc = below(exact), {}
    for u, p, q, c in terms:
        if u >= limit:  # a dead term, as every term on an AtLeast jet is
            cut = True
            continue
        for ij, d in mul(power(0, p), power(1, q), limit).items():
            acc[ij] = acc.get(ij, 0) + c * d
    acc = mul(acc, one, limit)  # drops the cancelled terms
    if not acc:
        return (AtLeast(limit) if cut else None), cut
    low = min(a * i + b * j for i, j in acc)
    return (acc, low, exact - low), cut


# ---------------------------------------------------------------------------
# eliminations, on the kernels of ``intpoly``
# ---------------------------------------------------------------------------

def resultant_x(P: BiPoly, Q: BiPoly) -> list[int]:
    """Sylvester resultant of P and Q eliminating x, as a dense integer poly
    in y.

    Computed over the integer-cleared coefficient rows by ``_resultant_rows``.
    The result is exact up to sign and the rational factor introduced by
    denominator clearing, which is harmless for order-of-vanishing and
    zero-testing uses.
    """
    from .intpoly import _int_coeff_rows, _resultant_rows

    if P.is_zero() or Q.is_zero():
        raise ZeroPolynomial("resultant of a zero polynomial")
    if P.degree_x() < 1 or Q.degree_x() < 1:
        raise ValueError("both inputs must have positive degree in x")
    return _resultant_rows(_int_coeff_rows(P), _int_coeff_rows(Q))


def bipoly_gcd(P: BiPoly, Q: BiPoly) -> BiPoly:
    """A gcd over Q[x, y], primitive over Z with a positive coefficient at
    its lexicographically largest monomial.

    Primitive Euclid over Z[y][x] on the integer x-coefficient rows: the
    gcd of the contents in Z[y] times the last nonzero primitive
    pseudo-remainder, or times 1 once a remainder is free of x."""
    from .intpoly import _int_coeff_rows, _split_content, _ugcd, _umul, _xprem

    cp, a = _split_content(_int_coeff_rows(P))
    cq, b = _split_content(_int_coeff_rows(Q))
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _split_content(_xprem(a, b))[1]
    if b:  # the primitive parts are coprime
        a = [[1]]
    # both factors are primitive, so their product is (Gauss): fix the sign
    cont = _ugcd(cp, cq)
    if a and a[0][-1] < 0:
        cont = [-c for c in cont]
    d = len(a) - 1
    return _wrap({(d - i, j): c for i, row in enumerate(a)
                  for j, c in enumerate(_umul(row, cont)) if c})
