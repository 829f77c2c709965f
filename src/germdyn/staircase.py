"""Newton staircases of monomial ideals in two variables.

Multiplicities of ideals cutting out the origin are pure lattice geometry
here: the Samuel multiplicity is twice the area between the staircase and
the axes, colengths of powers come from a small dynamic program that gets
the staircase of I^(n+1) from that of I^n by one round over the generators,
and mixed multiplicities are defined by polarization.  Everything is an
exact integer or rational computation.
"""

from __future__ import annotations

from .bipoly import _mono_str


class NotPrimary(ValueError):
    """The generators do not cut out the origin (no pure power of each
    variable)."""


class NotStabilized(RuntimeError):
    """Second differences of the colength sequence did not stabilize."""


class NonIntegralPolarization(ArithmeticError):
    """Polarization produced a non-integer; signals an implementation bug."""


class MonomialIdeal2:
    """An ideal generated by monomials x^i y^j, kept as the minimal antichain.
    The generators fix every power, so an ideal keeps the staircase of the
    highest power built so far and the colengths up to it (see
    ``colength_power``)."""

    __slots__ = ("gens", "_stairs", "_colengths")

    def __init__(self, gens):
        pts = {(int(i), int(j)) for i, j in gens}
        if any(i < 0 or j < 0 for i, j in pts):
            raise ValueError("exponents must be nonnegative")
        minimal = [
            p
            for p in pts
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
        ]
        minimal.sort()
        if not any(j == 0 for _, j in minimal) or not any(i == 0 for i, _ in minimal):
            raise NotPrimary(
                "need a pure power of each variable to cut out the origin"
            )
        self.gens = tuple(minimal)
        self._stairs = []  # the staircase of I^0 = (1): y-height 0 everywhere
        self._colengths = []  # _colengths[k - 1]: colength of I^k

    @property
    def x_power(self) -> int:
        return next(i for i, j in self.gens if j == 0)

    @property
    def y_power(self) -> int:
        return next(j for i, j in self.gens if i == 0)

    def contains(self, i: int, j: int) -> bool:
        return any(i >= a and j >= b for a, b in self.gens)

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal2) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return "MonomialIdeal2(%r)" % (list(self.gens),)

    def __str__(self):
        return ", ".join(_mono_str(i, j) or "1" for i, j in self.gens)


def _lower_hull(points):
    """Vertices of the lower-left convex hull from (0, y_power) to
    (x_power, 0), ordered by increasing x."""
    pts = sorted(points, key=lambda p: (p[0], p[1]))
    hull = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def samuel(I: MonomialIdeal2) -> int:
    """Twice the staircase covolume, by the shoelace formula on integer
    vertices; always a nonnegative integer."""
    hull = _lower_hull(I.gens)
    # polygon (0,0) -> (0, y_power) -> hull vertices -> (x_power, 0) -> close
    verts = [(0, 0)] + hull
    area2 = 0
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        area2 += x1 * y2 - x2 * y1
    return abs(area2)


def colength_power(I: MonomialIdeal2, n: int) -> int:
    """Number of monomials outside the n-th power of I.

    The staircase of I^k is the row S_k[u] = the least y-sum of k
    generators with x-sum at most u, so that (u, v) lies in I^k iff
    v >= S_k[u].  S_k[u] = 0 from u = k x_power on (x_power is the largest
    x-exponent of a minimal generator), so the row stops there, and one
    round over the generators gives the next power:
    S_(k+1)[u] = min over generators (a, b) with a <= u of S_k[u - a] + b.
    The colength of I^k is the sum of S_k.  The ideal keeps its last row
    and the colengths so far, so each power costs one round, once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cols = I._colengths
    if len(cols) < n:
        (_, q), *rest = I.gens  # gens sorted by a ascending: (0, y_power) first
        row = I._stairs
        for _ in range(n - len(cols)):
            ext = row + [0] * I.x_power
            row = [v + q for v in ext]
            for a, b in rest:
                row[a:] = [c if c < v + b else v + b for c, v in zip(row[a:], ext)]
            cols.append(sum(row))
        I._stairs = row
    return cols[n - 1]


def hilbert_samuel_fit(I: MonomialIdeal2, n_lo: int, n_hi: int) -> int:
    """Leading quadratic behavior of the colength sequence, via exact second
    differences, which must stabilize at the multiplicity."""
    if n_hi - n_lo < 3:
        raise ValueError("need n_hi - n_lo >= 3")
    vals = [colength_power(I, n) for n in range(n_lo, n_hi + 1)]
    second = [
        vals[k + 2] - 2 * vals[k + 1] + vals[k] for k in range(len(vals) - 2)
    ]
    if len(set(second[-2:])) != 1:
        raise NotStabilized("second differences still moving: %r" % second)
    return second[-1]


def product(I: MonomialIdeal2, J: MonomialIdeal2) -> MonomialIdeal2:
    return MonomialIdeal2(
        {(a + c, b + d) for a, b in I.gens for c, d in J.gens}
    )


def mixed(I: MonomialIdeal2, J: MonomialIdeal2) -> int:
    """Mixed multiplicity by polarization: (e(IJ) - e(I) - e(J)) / 2."""
    num = samuel(product(I, J)) - samuel(I) - samuel(J)
    if num % 2 != 0:
        raise NonIntegralPolarization("polarization gave odd value %d" % num)
    return num // 2


def minkowski_check(I: MonomialIdeal2, J: MonomialIdeal2) -> bool:
    """mixed(I, J)^2 <= samuel(I) * samuel(J), in squared form (no roots)."""
    return mixed(I, J) ** 2 <= samuel(I) * samuel(J)


def containment_index(I: MonomialIdeal2) -> int:
    """Least s >= 1 such that every monomial of total degree s lies in I."""
    bound = I.x_power + I.y_power
    for s in range(1, bound + 1):
        if all(I.contains(u, s - u) for u in range(s + 1)):
            return s
    raise AssertionError("an origin-cutting ideal absorbs some power")
