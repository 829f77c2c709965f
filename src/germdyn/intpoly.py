"""Dense integer polynomial kernels of the eliminations.

Univariate polynomials are coefficient lists, low degree first, with no
trailing zero; a polynomial in Z[y][x] is a list of such rows, leading
x-coefficient first.  On them run one exact pseudo-remainder ``_xprem``,
the subresultant resultant ``_resultant_rows`` and the primitive Euclid
of ``_ugcd`` and ``_split_content``.  ``bipoly.resultant_x`` and
``bipoly.bipoly_gcd`` import them in their bodies, ``intersect`` at its
top, and ``valuation`` only for the Sturm chain of ``c_infinity``.
"""

from __future__ import annotations

from functools import reduce
from math import gcd as _igcd
from math import lcm as _ilcm


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


def _int_coeff_rows(P) -> list[list[int]]:
    """x-coefficients of the BiPoly P as integer-cleared dense polys in y,
    leading first."""
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
