import random
from fractions import Fraction

import pytest

from germdyn.recurrence import (
    NoRecurrenceFound,
    RecurrenceModel,
    _solve_exact,
    detect_recursion,
)


def extend(model, seq, extra: int) -> list:
    """seq continued by ``extra`` terms of the model's recursion."""
    out = list(seq)
    for _ in range(extra):
        out.append(sum(c * out[-1 - i] for i, c in enumerate(model.coeffs)))
    return out


def _solve_fraction(rows, rhs):
    """Gaussian elimination over the rationals; None when singular.  The
    oracle for the fraction-free solver."""
    k = len(rhs)
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(rhs[i])] for i in range(k)]
    for col in range(k):
        piv = None
        for r in range(col, k):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][k] for i in range(k)]


def test_fraction_free_solve_matches_rational_oracle():
    rng = random.Random(1968)
    singular = 0
    for trial in range(2000):
        k = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        if trial % 3 == 0 and k > 1:  # an integer combination of two rows
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
        rhs = [rng.randint(-9, 9) for _ in range(k)]
        expected = _solve_fraction(rows, rhs)
        got = _solve_exact(rows, rhs)
        if expected is None:
            assert got is None
            singular += 1
            continue
        d, x = got
        assert d != 0 and all(type(c) is int for c in x)
        assert [Fraction(c, d) for c in x] == expected
        assert all(sum(a * c for a, c in zip(row, x)) == d * h
                   for row, h in zip(rows, rhs))
    assert 200 <= singular <= 1500


def test_fibonacci():
    seq = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    m = detect_recursion(seq, 3, 2)
    assert m.order == 2 and m.coeffs == [1, 1] and m.onset == 0
    assert m.char_poly() == [1, -1, -1]


def test_geometric():
    seq = [3 * 2**n for n in range(8)]
    m = detect_recursion(seq, 3, 2)
    assert m.order == 1 and m.coeffs == [2] and m.onset == 0


def test_eventual_recursion_has_onset():
    seq = [17, 5, 4, 8, 16, 32, 64, 128, 256]
    m = detect_recursion(seq, 2, 2)
    assert m.order == 1 and m.coeffs == [2]
    assert m.onset == 2  # 4 -> 8 is the first doubling step


def test_zero_sequence():
    m = detect_recursion([0] * 8, 3, 2)
    assert m.order == 1 and m.coeffs == [0]


def test_holdout_rejects_corrupted_tail():
    seq = [2**n for n in range(9)] + [999]
    with pytest.raises(NoRecurrenceFound):
        detect_recursion(seq, 1, 1)


def test_non_integer_relations_rejected():
    # u(n) = 256 * (3/2)^n: integer terms, but the ratio is not an integer
    seq = [2 ** (8 - n) * 3**n for n in range(8)]
    with pytest.raises(NoRecurrenceFound):
        detect_recursion(seq, 1, 1)


def test_too_short_sequence():
    with pytest.raises(ValueError):
        detect_recursion([1, 2, 3], 3, 2)


def test_the_order_is_capped_at_half_the_fitted_terms():
    # 7 terms before the holdout fit orders up to 3, so 5 is capped to 3
    m = detect_recursion(list(range(1, 9)), 5, 1)
    assert m.order == 2 and m.coeffs == [2, -1] and m.onset == 0
    with pytest.raises(NoRecurrenceFound, match="order <= 3"):
        detect_recursion([2**n for n in range(7)] + [0], 5, 1)


def test_extend_and_predicts():
    m = RecurrenceModel(2, [1, 1], 0)
    assert extend(m, [1, 1], 4) == [1, 1, 2, 3, 5, 8]
    assert m.predicts([1, 1, 2, 3], 0) and m.predicts([1, 1, 2, 3], 1)
    assert not m.predicts([1, 1, 2, 4], 1)


def test_random_recursions_seeded_sweep():
    rng = random.Random(271828)
    found = 0
    for _ in range(1000):
        order = rng.randint(1, 3)
        coeffs = [rng.randint(-3, 3) for _ in range(order)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        init = [rng.randint(1, 9) for _ in range(order)]
        true = RecurrenceModel(order, coeffs, 0)
        seq = extend(true, init, 12)
        if all(v == 0 for v in seq[-6:]):
            continue  # degenerate collapse; the zero model wins legitimately
        model = detect_recursion(seq, 3, 2)
        # the detected model must reproduce the whole sequence from its onset
        for n in range(model.onset, len(seq) - model.order):
            assert model.predicts(seq, n)
        assert model.order <= order
        found += 1
    assert found > 900
