"""Truncated univariate power series with exact coefficients.

A series carries its coefficients for y**k, k < trunc, all exact.  The
truncation bookkeeping follows the rule that multiplying series with
truncations N1, N2 and orders o1, o2 yields truncation min(N1 + o2, N2 + o1):
every emitted coefficient is provably correct, nothing more is claimed.
Coefficients may be Dyadic, Fraction, or int; they only need ring operators.
"""

from __future__ import annotations

from .bounds import AtLeast, BudgetExceeded  # noqa: F401  (re-exported)


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

    def __getitem__(self, k: int):
        if k >= self.trunc:
            raise IndexError("coefficient %d beyond truncation %d" % (k, self.trunc))
        return self.coeffs[k]

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

    def __neg__(self):
        return USeries([-c for c in self.coeffs], self.trunc)

    def __mul__(self, other):
        o1, o2 = self.ord(), other.ord()
        b1 = o1.bound if isinstance(o1, AtLeast) else o1
        b2 = o2.bound if isinstance(o2, AtLeast) else o2
        n = min(self.trunc + b2, other.trunc + b1)
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            jmax = min(other.trunc, n - i)
            for j in range(jmax):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] = out[i + j] + a * b
        return USeries(out, n)

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(n)) and (
            self.trunc == other.trunc
        )

    def __repr__(self):
        return "USeries(%r, trunc=%d)" % (self.coeffs, self.trunc)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                parts.append("(%s)*y^%d" % (c, k))
        body = " + ".join(parts) if parts else "0"
        return "%s + O(y^%d)" % (body, self.trunc)

    def to_json(self) -> list:
        out = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if hasattr(c, "to_json"):
                val = c.to_json()
            else:
                val = str(c)
            out.append({"index": k, "coefficient": val})
        return out
