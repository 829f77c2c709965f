import random
from fractions import Fraction

from germdyn.dyadic import Dyadic
from germdyn.series import AtLeast, USeries, truncated_product


def compose_monomial(f: USeries, k: int) -> USeries:
    """f with y -> y**k substituted; the truncation scales accordingly."""
    out = [0] * (k * f.trunc)
    out[::k] = f.coeffs
    return USeries(out, k * f.trunc)


def rand_series(rng, max_trunc=9):
    trunc = rng.randint(1, max_trunc)
    return USeries(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(trunc)],
        trunc,
    )


def test_ord():
    assert USeries([0, 0, 3], 5).ord() == 2
    assert USeries([], 4).ord() == AtLeast(4)
    assert USeries([7], 1).ord() == 0


def test_mul_truncation_rule():
    # trunc = min(N1 + ord2, N2 + ord1)
    f = USeries([0, 1], 5)       # ord 1, trunc 5
    g = USeries([0, 0, 1], 7)    # ord 2, trunc 7
    assert (f * g).trunc == min(5 + 2, 7 + 1)
    assert (f * g).coeffs[3] == 1


def test_monomial_and_compose():
    m = USeries.monomial(3, 2, 6)
    assert m.coeffs[2] == 3 and m.trunc == 6
    c = compose_monomial(m, 4)
    assert c.trunc == 24 and c.coeffs[8] == 3
    assert sum(1 for v in c.coeffs if v != 0) == 1


def test_known_product():
    # (1 + y)^2 = 1 + 2y + y^2
    f = USeries([1, 1], 6)
    assert (f * f).coeffs[:3] == [1, 2, 1]


def test_ring_laws_seeded_sweep():
    rng = random.Random(99173)
    for _ in range(1000):
        f, g, h = (rand_series(rng) for _ in range(3))
        lhs = (f + g) * h
        rhs = f * h + g * h
        n = min(lhs.trunc, rhs.trunc)
        assert lhs.coeffs[:n] == rhs.coeffs[:n]
        lhs2 = (f * g) * h
        rhs2 = f * (g * h)
        n2 = min(lhs2.trunc, rhs2.trunc)
        assert lhs2.coeffs[:n2] == rhs2.coeffs[:n2]
        n3 = min(f.trunc, g.trunc)
        assert (f + g).coeffs[:n3] == (g + f).coeffs[:n3]
        assert (f - f).ord() == AtLeast(f.trunc)


def naive_product(a, b, n):
    """Schoolbook convolution; test oracle for truncated_product."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


def test_truncated_product_matches_naive_convolution():
    rng = random.Random(4455)
    makers = (lambda: rng.randint(-9, 9),
              lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
              lambda: Dyadic(rng.randint(-9, 9), rng.randint(0, 5)))
    for _ in range(200):
        make = rng.choice(makers)
        a, b = ([make() if rng.random() < 0.6 else 0 for _ in range(rng.randint(0, 9))]
                for _ in range(2))
        # zero-padded spans, so n falls below, inside and past la + lb + 1
        for v in (a, b):
            v[:0] = [0] * rng.randint(0, 3)
        for x, y in ((a, b), (a, a), (b, b)):
            for n in range(len(x) + len(y) + 3):
                assert truncated_product(x, y, n) == naive_product(x, y, n), (x, y, n)
    dyadic = [0, 0, Dyadic(3, 1), Dyadic(-1, 2), 0, Dyadic(5)]
    assert truncated_product(dyadic, dyadic, 12) == naive_product(dyadic, dyadic, 12)
    assert truncated_product([0, 0, 0], [0, 0], 5) == [0] * 5
    assert truncated_product([0, 0, 1], [0, 0, 0, 2], 4) == [0] * 4
