import json
import random
from fractions import Fraction

import pytest

from germdyn.proximity import (
    ExceptionalLattice,
    NotNegativeDefinite,
    ProximityChart,
    intersection_matrix,
    skewness,
)


def free_chain(r: int, axis: str = "y") -> ProximityChart:
    return ProximityChart(r, [(i, i - 1) for i in range(2, r + 1)], axis)


def random_chart(rng, max_points: int = 6) -> ProximityChart:
    """A seeded random well-formed chart: predecessor proximities always,
    plus occasional satellite proximities one step further back."""
    r = rng.randint(1, max_points)
    prox = [(i, i - 1) for i in range(2, r + 1)]
    for i in range(3, r + 1):
        if rng.random() < 0.4:
            prox.append((i, i - 2))
    axis = rng.choice(["x", "y"])
    return ProximityChart(r, prox, axis)


def proximity_matrix(chart: ProximityChart) -> list[list[int]]:
    """The dense P: 1 on the diagonal, -1 at each proximity."""
    P = [[int(i == j) for j in range(chart.r)] for i in range(chart.r)]
    for i, j in chart.proximities:
        P[i - 1][j - 1] = -1
    return P


def invert_unit_lower(P):
    """Inverse of a unit lower-triangular integer matrix, exactly, column by
    column."""
    r = len(P)
    inv = [[0] * r for _ in range(r)]
    for j in range(r):
        inv[j][j] = 1
        for i in range(j + 1, r):
            inv[i][j] = -sum(P[i][k] * inv[k][j] for k in range(j, i))
    return inv


def dense_lattice(chart: ProximityChart):
    """(N, dual, b, ord_x, ord_y) from the dense matrices: N = -P^T P,
    dual = -P^{-1} P^{-T}, b the first column of P^{-1}, and the axis orders
    P^{-1} times the indicator of the free points."""
    r = chart.r
    P = proximity_matrix(chart)
    Pinv = invert_unit_lower(P)
    N = [[-sum(P[k][i] * P[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    dual = [[-sum(Pinv[i][k] * Pinv[j][k] for k in range(r)) for j in range(r)]
            for i in range(r)]
    b = [Pinv[i][0] for i in range(r)]
    free = [int(sum(1 for a, _ in chart.proximities if a == i) <= 1)
            for i in range(1, r + 1)]
    v_axis = [sum(Pinv[i][j] * free[j] for j in range(r)) for i in range(r)]
    ord_x, ord_y = (b, v_axis) if chart.axis == "y" else (v_axis, b)
    return N, dual, b, ord_x, ord_y


def test_lattice_matches_the_dense_inverse():
    """P^{-1} by forward substitution and N from the proximity lists agree
    with the dense inverse and the dense Gram product on seeded charts of up
    to 12 points on both axes, including satellite points proximate to any
    earlier point."""
    rng = random.Random(2204)
    charts = [free_chain(1), free_chain(12, "x"), free_chain(12, "y")]
    for _ in range(150):
        chart = random_chart(rng, 12)
        r = chart.r
        prox = set(chart.proximities)
        for i in range(3, r + 1):
            if rng.random() < 0.3 and not any(a == i and b < i - 1 for a, b in prox):
                prox.add((i, rng.randint(1, i - 2)))
        for axis in ("x", "y"):
            charts.append(ProximityChart(r, prox, axis))
    assert sum(c.r >= 10 for c in charts) >= 40
    for chart in charts:
        lat = intersection_matrix(chart)
        assert (lat.N, lat.dual, lat.b, lat.ord_x, lat.ord_y) == dense_lattice(chart), chart


def test_chart_validation():
    with pytest.raises(ValueError):
        ProximityChart(3, [(3, 2)])  # point 2 not proximate to point 1
    with pytest.raises(ValueError):
        ProximityChart(2, [(2, 1)], axis="z")
    ProximityChart(3, [(2, 1), (3, 2), (3, 1)])  # satellite: fine


def test_two_point_chain_frozen_values():
    chart = free_chain(2)
    lat = intersection_matrix(chart)
    assert lat.N == [[-2, 1], [1, -1]]
    assert lat.b == [1, 1]
    # dual coefficients: N^{-1} = [[-1, -1], [-1, -2]]
    assert lat.dual == [
        [Fraction(-1), Fraction(-1)],
        [Fraction(-1), Fraction(-2)],
    ]
    assert skewness(chart, 2, 2) == 2
    assert skewness(chart, 1, 2) == 1
    assert skewness(chart, 1, 1) == 1


def test_three_point_chain():
    chart = free_chain(3)
    lat = intersection_matrix(chart)
    assert lat.b == [1, 1, 1]
    assert skewness(chart, 3, 3) == 3
    assert skewness(chart, 1, 3) == 1


def test_satellite_chart():
    chart = ProximityChart(3, [(2, 1), (3, 2), (3, 1)])
    lat = intersection_matrix(chart)
    # third point lies on both earlier divisors: generic multiplicity 2
    assert lat.b == [1, 1, 2]
    # hand inversion: N^{-1} = -P^{-1} P^{-T} has (3,3) entry -6
    assert skewness(chart, 3, 3) == Fraction(3, 2)


def test_orders_follow_axis():
    chart = free_chain(3, axis="y")
    lat = intersection_matrix(chart)
    # y = 0 follows the whole free chain, x = 0 only the first point
    assert lat.ord_y == [1, 2, 3]
    assert lat.ord_x == [1, 1, 1]
    flipped = free_chain(3, axis="x")
    lat2 = intersection_matrix(flipped)
    assert lat2.ord_x == [1, 2, 3] and lat2.ord_y == [1, 1, 1]


def test_negative_definite_sweep():
    rng = random.Random(880)
    for _ in range(200):
        chart = random_chart(rng)
        lat = intersection_matrix(chart)  # raises if not negative definite
        r = chart.r
        assert all(lat.N[i][j] == lat.N[j][i] for i in range(r) for j in range(r))
        assert all(b >= 1 for b in lat.b)
        # the dual lattice is the integer inverse of N, and symmetric
        assert all(type(v) is int for row in lat.dual for v in row)
        assert all(lat.dual[i][j] == lat.dual[j][i] for i in range(r) for j in range(r))
        assert all(
            sum(lat.N[i][k] * lat.dual[k][j] for k in range(r)) == (i == j)
            for i in range(r) for j in range(r)
        )


def test_not_negative_definite_detection():
    from germdyn.proximity import _check_negative_definite

    with pytest.raises(NotNegativeDefinite):
        _check_negative_definite([[1, 0], [0, -1]])
    with pytest.raises(NotNegativeDefinite):
        _check_negative_definite([[-1, 2], [2, -1]])
    with pytest.raises(NotNegativeDefinite):
        _check_negative_definite([[0, 1], [1, 0]])  # a zero leading minor
    # not the form of any chart, but negative definite: minors -2, 3, -4
    _check_negative_definite([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])


def test_json_round_trip():
    chart = ProximityChart(3, [(2, 1), (3, 2), (3, 1)], axis="x")
    text = json.dumps(chart.to_json())
    back = ProximityChart.from_json(text)
    assert back.r == chart.r
    assert back.proximities == chart.proximities
    assert back.axis == "x"


def test_chart_builds_its_lattice_once():
    rng = random.Random(11)
    for _ in range(50):
        chart = random_chart(rng, 8)
        lat = chart.lattice()
        assert chart.lattice() is lat
        fresh = intersection_matrix(chart)
        assert fresh is not lat and (fresh.N, fresh.dual, fresh.b) == (lat.N, lat.dual, lat.b)
        for i in range(1, chart.r + 1):
            for j in range(1, chart.r + 1):
                assert skewness(chart, i, j) == Fraction(
                    -fresh.dual_pairing(i, j), fresh.b[i - 1] * fresh.b[j - 1])
        assert chart.lattice() is lat
