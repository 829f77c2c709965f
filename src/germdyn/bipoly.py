"""Exact sparse bivariate polynomials over the rationals.

Monomials x**i * y**j are stored as a dict (i, j) -> coefficient with no
zero entries.  Coefficients are integer-first: a stored coefficient is an
``int`` whenever it is integral and a ``Fraction`` (denominator > 1) only
when it is not.  A polynomial over Z is therefore computed on with ints
throughout, and rational inputs run through the same code by way of the
int/Fraction numeric tower.  This is the workhorse behind curve defining
equations, map germs and their iterates, resultants, and gcds.  ``MapGerm``,
a polynomial self-map of the plane fixing the origin, lives here beside
``BiPoly.compose``, so that iterating a map loads no intersection code.

Eliminations run over Z on the integer-cleared x-coefficient rows, dense
polynomials in y, on one exact pseudo-remainder: the resultant by the
subresultant remainder sequence, and the gcd by primitive Euclid over
Z[y][x].  ``local_mult`` calls the row-level pseudo-remainder and resultant
directly; it runs no gcd, so ``bipoly_gcd`` is API and a test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd as _igcd
from math import lcm as _ilcm

from .bounds import DEFAULT_BUDGET, BudgetExceeded


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
        if n < 0:
            raise ValueError("negative power")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- composition --------------------------------------------------------

    def compose(self, fx: "BiPoly", fy: "BiPoly", budget: int = DEFAULT_BUDGET) -> "BiPoly":
        """Substitute x -> fx, y -> fy.  Exact, under a term budget that
        also caps the entries of each power table."""
        top = max((max(ij) for ij in self.terms), default=0)
        if top > budget:
            raise BudgetExceeded("a power table of %d entries exceeds the budget of %d"
                                 % (top, budget))
        # Horner in x over coefficient polys in y keeps the power table small
        by_i: dict[int, dict] = {}
        for (i, j), c in self.terms.items():
            by_i.setdefault(i, {})[j] = c
        result = BiPoly.zero()
        ypows = [BiPoly.const(1)]

        def ypow(j):
            while len(ypows) <= j:  # a loop: y-degrees can be in the thousands
                ypows.append(ypows[-1] * fy)
                _check_budget(ypows[-1], budget)
            return ypows[j]

        xpow = BiPoly.const(1)
        for i in range(0, (max(by_i) if by_i else 0) + 1):
            if i > 0:
                xpow = xpow * fx
                _check_budget(xpow, budget)
            if i in by_i:
                row = BiPoly.zero()
                for j, c in by_i[i].items():
                    row = row + BiPoly.const(c) * ypow(j)
                result = result + row * xpow
                _check_budget(result, budget)
        return result

    def eval_y0_in_x(self) -> list:
        """Coefficient list of self(x, 0) as a univariate poly in x."""
        d = self.degree_x()
        out = [0] * (d + 1 if d >= 0 else 0)
        for (i, j), c in self.terms.items():
            if j == 0:
                out[i] = c
        return _trim_z(out)

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


def _check_budget(p: BiPoly, budget):
    if p.term_count() > budget:
        raise BudgetExceeded(
            "term count %d exceeds budget %d" % (p.term_count(), budget)
        )


# ---------------------------------------------------------------------------
# univariate helpers: dense lists, low degree first
# ---------------------------------------------------------------------------

def _trim_z(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _usub(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim_z(out)


def _umul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _trim_z(out)


def _upow(p, e):
    return reduce(_umul, [p] * (e - 1), p) if e else [1]


def _uexact_div(a, b):
    """Exact division in Z[y]; the quotient must exist."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if b == [1]:
        return list(a)
    a = list(a)
    q = [0] * (len(a) - len(b) + 1) if len(a) >= len(b) else []
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        lead, div = a[-1], b[-1]
        if lead % div != 0:
            raise ArithmeticError("inexact division in Z[y]")
        coef = lead // div
        q[shift] = coef
        for i, cb in enumerate(b):
            a[shift + i] -= coef * cb
        a = _trim_z(a)
    if a:
        raise ArithmeticError("nonzero remainder in exact division")
    return q


def _uprimitive(p) -> list[int]:
    """The primitive integer multiple of a coefficient list over Q, with a
    positive last (leading) coefficient; [] for the zero list."""
    p = _trim_z(list(p))
    if not p:
        return p
    try:
        g = _igcd(*p)
    except TypeError:  # a Fraction entry: clear the denominators first
        den = _ilcm(*(c.denominator for c in p))
        p = [c.numerator * (den // c.denominator) for c in p]
        g = _igcd(*p)
    if p[-1] < 0:
        g = -g
    return p if g == 1 else [c // g for c in p]


def _uprem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b in Q[t] times a nonzero integer: each step
    cancels the leading coefficient over Z, without division."""
    a = list(a)
    lb, db = b[-1], len(b)
    while len(a) >= db:
        la = a[-1]
        g = _igcd(la, lb)
        ma, mb = lb // g, la // g
        if ma != 1:
            a = [ma * c for c in a]
        shift = len(a) - db
        for i, cb in enumerate(b):
            a[shift + i] -= mb * cb
        _trim_z(a)
    return a


def _ugcd(a, b) -> list[int]:
    """gcd in Q[t] of two dense lists, as a primitive integer list with a
    positive leading coefficient (primitive Euclid over Z); [] when both
    are zero."""
    a, b = _uprimitive(a), _uprimitive(b)
    while b:
        a, b = b, _uprimitive(_uprem(a, b))
    return a


# ---------------------------------------------------------------------------
# resultant
# ---------------------------------------------------------------------------

def resultant_x(P: BiPoly, Q: BiPoly) -> list[int]:
    """Sylvester resultant of P and Q eliminating x, as a dense integer poly
    in y.

    Computed over the integer-cleared coefficient rows by ``_resultant_rows``.
    The result is exact up to sign and the rational factor introduced by
    denominator clearing, which is harmless for order-of-vanishing and
    zero-testing uses.
    """
    if P.is_zero() or Q.is_zero():
        raise ZeroPolynomial("resultant of a zero polynomial")
    if P.degree_x() < 1 or Q.degree_x() < 1:
        raise ValueError("both inputs must have positive degree in x")
    return _resultant_rows(_int_coeff_rows(P), _int_coeff_rows(Q))


def _resultant_rows(a, b) -> list[int]:
    """Res_x, up to sign, of two polynomials given as integer rows leading
    first, b of positive x-degree: the subresultant remainder sequence over
    Z[y], every division exact (G. E. Collins, JACM 14, 1967; H. Cohen, *A
    Course in Computational Algebraic Number Theory*, Algorithm 3.3.7)."""
    if len(a) < len(b):
        a, b = b, a
    g = h = [1]
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _xprem(a, b)
        d = _umul(g, _upow(h, delta))
        a, b = b, [_uexact_div(row, d) for row in r]
        g = a[0]
        if delta:
            h = _uexact_div(_upow(g, delta), _upow(h, delta - 1))
    # Res = lc(b)^deg a / h^(deg a - 1) for b free of x, 0 for b = 0
    return b and _uexact_div(_upow(b[0], len(a) - 1), _upow(h, len(a) - 2))


def _int_coeff_rows(P: BiPoly) -> list[list[int]]:
    """x-coefficients of P as integer-cleared dense polys in y, leading first."""
    denom = _ilcm(*(c.denominator for c in P.terms.values()))
    # each row is as long as its own y-degree needs, so none is trimmed
    width = [0] * (P.degree_x() + 1)
    for i, j in P.terms:
        if j >= width[i]:
            width[i] = j + 1
    rows = [[0] * w for w in width]
    for (i, j), c in P.terms.items():
        rows[i][j] = c if denom == 1 else c.numerator * (denom // c.denominator)
    return list(reversed(rows))  # leading coefficient first


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------

def bipoly_gcd(P: BiPoly, Q: BiPoly) -> BiPoly:
    """A gcd over Q[x, y], primitive over Z with a positive coefficient at
    its lexicographically largest monomial.

    Primitive Euclid over Z[y][x] on the integer x-coefficient rows: the
    gcd of the contents in Z[y] times the last nonzero primitive
    pseudo-remainder, or times 1 once a remainder is free of x."""
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


def _split_content(rows):
    """(content, primitive part) of a polynomial in Z[y][x] given as rows
    leading first: the content is the gcd of the rows in Z[y] with a
    positive leading coefficient; ([], []) for the zero polynomial."""
    cont: list[int] = []
    for r in rows:
        cont = _ugcd(cont, r)
    if not cont:
        return cont, []
    # the integer content of the quotients equals that of the rows (Gauss)
    cont = [_igcd(*(c for r in rows for c in r)) * c for c in cont]
    return cont, [_uexact_div(r, cont) for r in rows]


def _xprem(a, b):
    """lc(b)^(deg a - deg b + 1) (a mod b) for rows leading first, deg a >=
    deg b >= 1, leading zero rows stripped: Horner's rule over a running
    remainder of deg b rows.  A zero top row only scales, so its power of
    lc(b) is applied once at the end."""
    lb, tail = b[0], b[1:]
    # lb_k: lc(b) to the number of steps so far that cancelled a top row
    r, lb_k, skipped = a[:len(tail)], [1], 0
    for row in a[len(tail):]:
        top, r = r[0], r[1:] + [row if lb_k == [1] else _umul(lb_k, row)]
        if not top:
            skipped += 1
        elif lb == [1]:
            r = [_usub(c, _umul(top, t)) for c, t in zip(r, tail)]
        else:
            r = [_usub(_umul(lb, c), _umul(top, t)) for c, t in zip(r, tail)]
            lb_k = _umul(lb_k, lb)
    if skipped and lb != [1]:
        scale = _upow(lb, skipped)
        r = [_umul(scale, c) for c in r]
    while r and not r[0]:
        del r[0]
    return r
