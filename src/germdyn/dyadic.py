"""Exact dyadic rationals n / 2**k.

Every coefficient produced by the curve recursion lives here: the only
divisions that ever occur are by +-2, so the dyadics are closed under all
the arithmetic we need and equality is a cheap integer comparison.
"""

from __future__ import annotations


class Dyadic:
    """An exact rational of the form num / 2**exp, kept normalized.

    Normalized means ``num`` is odd or zero, and ``exp == 0`` when
    ``num == 0``.  Instances are immutable.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif num % 2 == 0:
            # strip shared factors of 2
            shift = (num & -num).bit_length() - 1
            if shift > exp:
                shift = exp
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = self.exp if self.exp >= other.exp else other.exp
        return Dyadic(
            (self.num << (k - self.exp)) + (other.num << (k - other.exp)), k
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = self.exp if self.exp >= other.exp else other.exp
        return Dyadic(
            (self.num << (k - self.exp)) - (other.num << (k - other.exp)), k
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # odd * odd is odd, so the product is already normalized unless zero
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __abs__(self):
        return Dyadic(abs(self.num), self.exp)

    def halve(self, sign: int = 1) -> "Dyadic":
        """Return sign * self / 2 exactly; sign must be +-1."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return Dyadic(sign * self.num, self.exp + 1)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        from fractions import Fraction  # equal numbers hash alike

        return hash(Fraction(self.num, 1 << self.exp))

    def __bool__(self):
        return self.num != 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def _cmp(self, other):
        d = _coerce(other)
        if d is not NotImplemented:
            k = max(self.exp, d.exp)
            lhs = self.num << (k - self.exp)
            rhs = d.num << (k - d.exp)
        elif hasattr(other, "denominator"):  # a rational, such as a Fraction
            lhs = self.num * other.denominator
            rhs = other.numerator << self.exp
        else:
            raise TypeError("cannot compare Dyadic with %r" % (other,))
        return (lhs > rhs) - (lhs < rhs)

    def abs_leq(self, q: Fraction) -> bool:
        """Exact test |self| <= q by integer cross-multiplication."""
        if q < 0:
            raise ValueError("bound must be nonnegative")
        return abs(self.num) * q.denominator <= q.numerator << self.exp

    # -- conversions --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num, 1 << self.exp)

    def to_json(self) -> dict:
        return {"num": str(self.num), "exp2": self.exp}

    def __str__(self):
        if self.exp == 0:
            return str(self.num)
        return "%d/2^%d" % (self.num, self.exp)

    def __repr__(self):
        return "Dyadic(%d, %d)" % (self.num, self.exp)


def _coerce(x):
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic(x, 0)
    return NotImplemented

