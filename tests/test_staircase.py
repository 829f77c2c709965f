import random
from fractions import Fraction

import pytest

from germdyn.staircase import (
    MonomialIdeal2,
    NotPrimary,
    colength_power,
    containment_index,
    hilbert_samuel_fit,
    minkowski_check,
    mixed,
    product,
    samuel,
)


def staircase_covolume(I: MonomialIdeal2) -> Fraction:
    """Area of the first-quadrant region outside the Newton polyhedron."""
    return Fraction(samuel(I), 2)


def random_primary_ideal(rng, max_power: int = 8, extra: int = 3) -> MonomialIdeal2:
    """A seeded random origin-cutting monomial ideal, for consistency sweeps."""
    p = rng.randint(1, max_power)
    q = rng.randint(1, max_power)
    gens = {(p, 0), (0, q)}
    for _ in range(rng.randint(0, extra)):
        if p > 1 and q > 1:
            gens.add((rng.randint(1, p - 1), rng.randint(1, q - 1)))
    return MonomialIdeal2(gens)

M = MonomialIdeal2([(1, 0), (0, 1)])
I23 = MonomialIdeal2([(2, 0), (0, 3)])


def brute_colength_power(I, n):
    """Lattice-count oracle: monomials not expressible as a product of n
    generators times anything."""
    U = n * I.x_power
    V = n * I.y_power
    inside = set()
    frontier = {(0, 0)}
    for _ in range(n):
        nxt = set()
        for (u, v) in frontier:
            for a, b in I.gens:
                if u + a <= U and v + b <= V:
                    nxt.add((u + a, v + b))
        frontier = nxt
    for (u, v) in frontier:
        inside.add((u, v))
    count = 0
    for u in range(U + 1):
        for v in range(V + 1):
            member = any(u >= a and v >= b for a, b in inside)
            if not member:
                if u >= U or v >= V:
                    raise AssertionError("oracle box too small")
                count += 1
    return count


def per_power_colength(I: MonomialIdeal2, n: int) -> int:
    """The reference DP, restarted for each power: best[u] is the least
    y-sum of n generators with x-sum exactly u <= n x_power, and a monomial
    (u, v) lies in I^n when v is at least the prefix minimum of best up to
    u."""
    U = n * I.x_power
    INF = n * I.y_power + 1
    best = [0] + [INF] * U
    for _ in range(n):
        nxt = [INF] * (U + 1)
        for u in range(U + 1):
            if best[u] == INF:
                continue
            for a, b in I.gens:
                if u + a > U:
                    break
                nxt[u + a] = min(nxt[u + a], best[u] + b)
        best = nxt
    total = 0
    running = INF
    for u in range(U):
        running = min(running, best[u])
        total += running
    return total


def test_colength_power_matches_the_per_power_dp_in_any_order():
    """Each power is one more round on the staircase the ideal keeps, so a
    power asked for below, at or above the highest one built so far must
    still agree with the DP restarted from I^1."""
    rng = random.Random(2203)
    ideals = [M, I23, MonomialIdeal2([(3, 0), (1, 1), (0, 4)])]
    ideals += [random_primary_ideal(rng, max_power=7, extra=4) for _ in range(40)]
    for I in ideals:
        want = {n: per_power_colength(I, n) for n in range(1, 13)}
        fresh = MonomialIdeal2(I.gens)
        assert [colength_power(fresh, n) for n in (8, 3, 11, 1, 12, 8)] == [
            want[n] for n in (8, 3, 11, 1, 12, 8)]
        order = list(range(1, 13))
        rng.shuffle(order)
        fresh = MonomialIdeal2(I.gens)
        assert [colength_power(fresh, n) for n in order] == [want[n] for n in order]
        # an equal ideal built apart shares no state with the one above
        assert [colength_power(MonomialIdeal2(I.gens), n) for n in range(1, 13)] == [
            want[n] for n in range(1, 13)]


def test_powers_below_one_are_refused():
    I = MonomialIdeal2(I23.gens)
    for n in (0, -1):
        with pytest.raises(ValueError):
            colength_power(I, n)
    # the fit asks for every power from n_lo on, so n_lo = 0 is refused
    # rather than read as a slice from the end of the colengths kept so far
    colength_power(I, 8)
    with pytest.raises(ValueError):
        hilbert_samuel_fit(I, 0, 8)
    assert hilbert_samuel_fit(I, 1, 8) == samuel(I)


def test_minimal_antichain_and_validation():
    I = MonomialIdeal2([(2, 0), (0, 3), (2, 1), (4, 4)])
    assert I.gens == ((0, 3), (2, 0))
    with pytest.raises(NotPrimary):
        MonomialIdeal2([(1, 1), (2, 0)])


def test_frozen_multiplicities():
    assert samuel(M) == 1
    assert samuel(I23) == 6
    assert samuel(product(M, I23)) == 11
    assert mixed(M, I23) == 2
    assert minkowski_check(M, I23)  # 2^2 = 4 <= 1 * 6
    assert staircase_covolume(I23) == Fraction(3)


def test_colength_values():
    assert colength_power(M, 1) == 1
    assert colength_power(I23, 1) == 6
    # outside (x^2, x y, y^3): 1, y, y^2, x
    assert colength_power(MonomialIdeal2([(2, 0), (1, 1), (0, 3)]), 1) == 4


def test_colength_power_matches_brute_force():
    rng = random.Random(311)
    ideals = [M, I23, MonomialIdeal2([(3, 0), (1, 1), (0, 4)])]
    ideals += [random_primary_ideal(rng, max_power=4) for _ in range(5)]
    for I in ideals:
        for n in range(1, 4):
            assert colength_power(I, n) == brute_colength_power(I, n)


def test_hilbert_samuel_fit_equals_staircase():
    rng = random.Random(1900)
    for _ in range(10):
        I = random_primary_ideal(rng, max_power=5)
        assert hilbert_samuel_fit(I, 1, 8) == samuel(I)


def test_mixed_symmetry_and_linearity():
    rng = random.Random(77)
    for _ in range(20):
        I = random_primary_ideal(rng, max_power=5)
        J = random_primary_ideal(rng, max_power=5)
        assert mixed(I, J) == mixed(J, I)
        assert mixed(I, I) == samuel(I)
        assert minkowski_check(I, J)


def test_containment_index():
    assert containment_index(M) == 1
    assert containment_index(I23) == 4  # x^4, x^3 y, ..., y^4 all inside


def test_contains():
    assert I23.contains(2, 5) and I23.contains(0, 3)
    assert not I23.contains(1, 2)
