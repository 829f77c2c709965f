"""Blowup combinatorics: chains of infinitely near points.

A chart records, for each point after the first, which earlier points it is
proximate to.  The proximity matrix P (unit lower triangular with -1 at each
proximity) determines everything: the intersection matrix of the exceptional
components is N = -P^T P, the dual basis is the integer matrix
N^{-1} = -P^{-1} P^{-T}, and the generic multiplicities are the first column
of P^{-1}.  All of it is integral.  Skewness values, the one rational
output, are negative intersection numbers of the normalized dual divisors.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from operator import add, mul


class NotNegativeDefinite(ValueError):
    """The intersection form failed the sign test; the chart is malformed."""


class ProximityChart:
    """r infinitely near points; point i > 1 is proximate to its predecessor
    and to at most one other earlier point.  ``axis`` names the coordinate
    whose zero curve the chain of free points follows.  A chart is immutable,
    so it builds its lattice once, on first use."""

    __slots__ = ("r", "proximities", "axis", "_lattice")

    def __init__(self, r: int, proximities, axis: str = "y"):
        if r < 1:
            raise ValueError("need at least one point")
        if axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        prox = {(int(i), int(j)) for i, j in proximities}
        for i, j in prox:
            if not (1 <= j < i <= r):
                raise ValueError("proximity (%d, %d) out of range" % (i, j))
        counts = Counter(i for i, _ in prox)
        for i in range(2, r + 1):
            if (i, i - 1) not in prox:
                raise ValueError("point %d must be proximate to point %d" % (i, i - 1))
            if counts[i] > 2:
                raise ValueError("point %d proximate to more than two points" % i)
        self.r = r
        self.proximities = frozenset(prox)
        self.axis = axis
        self._lattice = None

    def lattice(self) -> "ExceptionalLattice":
        if self._lattice is None:
            self._lattice = intersection_matrix(self)
        return self._lattice

    @classmethod
    def from_json(cls, text: str) -> "ProximityChart":
        data = json.loads(text)
        try:
            return cls(data["points"], data["proximate"], data.get("axis", "y"))
        except (KeyError, TypeError, AttributeError) as exc:
            # a missing field, a field of the wrong type, or not an object
            raise ValueError("malformed chart JSON: %r" % exc) from None

    def to_json(self) -> dict:
        return {
            "points": self.r,
            "proximate": sorted([i, j] for i, j in self.proximities),
            "axis": self.axis,
        }

    def __repr__(self):
        return "ProximityChart(r=%d, proximities=%r, axis=%r)" % (
            self.r,
            sorted(self.proximities),
            self.axis,
        )


class ExceptionalLattice:
    """Intersection matrix, integer dual-basis coefficients, and generic
    multiplicities of the exceptional components of a chart."""

    __slots__ = ("N", "dual", "b", "ord_x", "ord_y")

    def __init__(self, N, dual, b, ord_x, ord_y):
        self.N = N
        self.dual = dual  # dual[i][j]: coefficient of E_(i+1) in dual of E_(j+1)
        self.b = b
        self.ord_x = ord_x
        self.ord_y = ord_y

    def dual_pairing(self, i: int, j: int) -> int:
        """Intersection of the i-th and j-th dual divisors (1-based)."""
        # dual_i . dual_j = (N^{-1})_{ij}; dual holds exactly N^{-1}
        return self.dual[i - 1][j - 1]


def intersection_matrix(chart: ProximityChart) -> ExceptionalLattice:
    """Build the lattice: N = -P^T P, dual coefficients
    N^{-1} = -P^{-1} P^{-T} (P is unimodular, so N^{-1} is integral), generic
    multiplicities from the first column of P^{-1}, and coordinate orders
    from the chain membership of the followed axis.  Everything is read off
    the lists of the points each point is proximate to (at most two, all
    earlier): P = I - E with E the 0/1 proximity matrix, so
    N = -I + E + E^T - E^T E, where (E^T E)_jk counts the points proximate
    to both j and k, and P^{-1} = I + E P^{-1}, so row i of P^{-1} is e_i
    plus the rows of the points that point i is proximate to.  That is
    O(r^2) in all, the dual's products aside."""
    r = chart.r
    near = [[] for _ in range(r)]  # near[i]: the points point i + 1 is proximate to
    for i, j in chart.proximities:
        near[i - 1].append(j - 1)
    N = [[0] * r for _ in range(r)]
    for i, js in enumerate(near):
        N[i][i] -= 1
        for j in js:
            N[i][j] += 1
            N[j][i] += 1
            for k in js:
                N[j][k] -= 1
    _check_negative_definite(N)
    Pinv = []
    for i, js in enumerate(near):
        row = [0] * r
        for j in js:
            row = list(map(add, row, Pinv[j]))
        row[i] = 1
        Pinv.append(row)
    dual = [[-sum(map(mul, u, v)) for v in Pinv] for u in Pinv]
    b = [row[0] for row in Pinv]
    # a point is free when proximate to at most one earlier point; the axis
    # curve passes through the first point and every later free point of
    # the chain, and the other coordinate is in generic position
    axis_mult = [1 if len(js) <= 1 else 0 for js in near]
    v_axis = [sum(map(mul, row, axis_mult)) for row in Pinv]
    v_generic = b
    if chart.axis == "y":
        ord_x, ord_y = v_generic, v_axis
    else:
        ord_x, ord_y = v_axis, v_generic
    if any(m < 1 for m in b):
        raise AssertionError("generic multiplicities must be positive")
    return ExceptionalLattice(N, dual, b, ord_x, ord_y)


def _check_negative_definite(N):
    """Sylvester's criterion, (-1)^k det_k > 0 for every leading principal
    minor det_k.  The minors are the pivots of one fraction-free (Bareiss)
    elimination over Z with no row exchanges; a zero minor fails too."""
    r = len(N)
    mat = [list(row) for row in N]
    prev = 1
    for k in range(r):
        det = mat[k][k]  # the leading minor of size k + 1
        if det == 0 or (det < 0) != (k % 2 == 0):
            raise NotNegativeDefinite("leading minor %d has the wrong sign" % (k + 1))
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                mat[i][j] = (det * mat[i][j] - mat[i][k] * mat[k][j]) // prev
        prev = det


def skewness(chart: ProximityChart, i: int, j: int) -> Fraction:
    """Tree height of the meet of the i-th and j-th divisorial valuations:
    -(b_i^{-1} dual_i) . (b_j^{-1} dual_j), a rational >= 1."""
    for k in (i, j):
        if not 1 <= k <= chart.r:
            raise ValueError("point %d outside 1..%d" % (k, chart.r))
    lat = chart.lattice()
    return Fraction(-lat.dual_pairing(i, j), lat.b[i - 1] * lat.b[j - 1])
