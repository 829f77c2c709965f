"""Truncated univariate power series with exact coefficients.

A series carries its coefficients for y**k, k < trunc, all exact.  The
truncation bookkeeping follows the rule that multiplying series with
truncations N1, N2 and orders o1, o2 yields truncation min(N1 + o2, N2 + o1):
every emitted coefficient is provably correct, nothing more is claimed.
Coefficients may be Dyadic, Fraction, or int; they only need ring operators.
``truncated_product`` is the one dense product, shared by USeries and the
jets of intersect.
"""

from __future__ import annotations

from operator import mul

from .bounds import AtLeast, BudgetExceeded  # noqa: F401  (re-exported)


def truncated_product(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product of coefficient lists a, b.

    Each is one dot product over the nonzero spans of a and b only, and a
    square (``a is b``) takes each pair i < k - i once, doubled, and the
    middle term."""
    out = [0] * n
    sa, sb = ([k for k, c in enumerate(v) if c] for v in (a, b))
    if not sa or not sb:
        return out
    (oa, la), (ob, lb) = (sa[0], sa[-1]), (sb[0], sb[-1])
    rb, top = b[::-1], len(b) - 1
    # out[k] sums a[i] b[k - i] over oa <= i <= la, ob <= k - i <= lb
    for k in range(oa + ob, min(n, la + lb + 1)):
        lo, hi = max(oa, k - lb), min(la, k - ob)
        if a is b:
            hi = min(hi, (k - 1) // 2)
        s = sum(map(mul, a[lo:hi + 1], rb[top - k + lo:top + 1 - k + hi]))
        if a is b:
            s = 2 * s + (a[k // 2] * a[k // 2] if k % 2 == 0 else 0)
        out[k] = s
    return out


class USeries:
    """A truncated power series sum(c[k] * y**k for k < trunc)."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc=None):
        coeffs = list(coeffs)
        if trunc is None:
            trunc = len(coeffs)
        if trunc < len(coeffs):
            coeffs = coeffs[:trunc]
        elif trunc > len(coeffs):
            coeffs = coeffs + [0] * (trunc - len(coeffs))
        self.coeffs = coeffs
        self.trunc = trunc

    @classmethod
    def zero(cls, trunc: int) -> "USeries":
        return cls([], trunc)

    @classmethod
    def monomial(cls, coeff, k: int, trunc: int) -> "USeries":
        s = cls([], trunc)
        if k < trunc:
            s.coeffs[k] = coeff
        return s

    def ord(self):
        """Index of the first nonzero coefficient, or AtLeast(trunc)."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return AtLeast(self.trunc)

    def __add__(self, other):
        n = min(self.trunc, other.trunc)
        return USeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n)], n
        )

    def __sub__(self, other):
        n = min(self.trunc, other.trunc)
        return USeries(
            [self.coeffs[k] - other.coeffs[k] for k in range(n)], n
        )

    def __mul__(self, other):
        o1, o2 = self.ord(), other.ord()
        b1 = o1.bound if isinstance(o1, AtLeast) else o1
        b2 = o2.bound if isinstance(o2, AtLeast) else o2
        n = min(self.trunc + b2, other.trunc + b1)
        return USeries(truncated_product(self.coeffs, other.coeffs, n), n)

    def __repr__(self):
        return "USeries(%r, trunc=%d)" % (self.coeffs, self.trunc)
