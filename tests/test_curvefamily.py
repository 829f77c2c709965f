from fractions import Fraction

import pytest

from germdyn.bitseq import BitSeq, parse_bitseq
from germdyn.curvefamily import (
    CoeffTable,
    GrowthSpec,
    InfiniteAbove,
    build_theoremA_pair,
    certify_finite_contacts,
    curve,
    lemma_sum_check,
    lemma_sum_check_range,
    lemma_sum_direct,
    mu_digit_count,
    mu_theoremA,
    mult_coeffwise,
    mult_formula,
    mult_formula_exceeds,
    mult_formula_from_m,
    section3_recursion_check,
    verify_bound,
    verify_functoriality,
)
from germdyn.dyadic import Dyadic


def test_frozen_coefficients_zeros():
    t = CoeffTable()
    row = t.row(parse_bitseq("0"), 6)
    assert [a.as_fraction() for a in row] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(-1, 8),
        Fraction(-1, 16),
        Fraction(-5, 128),
        Fraction(57, 256),
    ]


def test_leading_coefficient_follows_first_bit():
    t = CoeffTable()
    assert t.coeff(parse_bitseq("0"), 0) == Dyadic(1)
    assert t.coeff(parse_bitseq("1"), 0) == Dyadic(-1)


def test_a1_has_absolute_value_half_for_all_bits():
    t = CoeffTable()
    for spec in ("0", "1", "01", "10", ":(01)"):
        a1 = t.coeff(parse_bitseq(spec), 1)
        assert abs(a1.as_fraction()) == Fraction(1, 2)


def test_curve_support():
    g = curve(parse_bitseq("0"), 20)
    nz = [k for k, c in enumerate(g.coeffs) if c != 0]
    assert nz == [2, 6, 10, 14, 18]


def test_contact_formula_values():
    assert [mult_formula_from_m(m) for m in range(6)] == [2, 6, 22, 86, 342, 1366]


def test_formula_vs_coeffwise_small():
    t = CoeffTable()
    a = parse_bitseq("0")
    for m in range(4):
        b = parse_bitseq("0" * m + "1")
        assert mult_formula(a, b, 64) == mult_formula_from_m(m)
        assert mult_coeffwise(a, b, 100, t) == mult_formula_from_m(m)


def test_coeffwise_certified_lower_bound():
    t = CoeffTable()
    out = mult_coeffwise(parse_bitseq("0"), parse_bitseq("0"), 10, t)
    assert out == InfiniteAbove(42)


def test_functoriality_small_and_negative_control():
    t = CoeffTable()
    s = parse_bitseq("01:(10)")
    ok, witness = verify_functoriality(s, 120, t)
    assert ok and witness is None
    # corrupt one cached coefficient: the identity must now fail with a witness
    t.row(s, 40)
    key = s.canonical_key()
    t._rows[key][7] = Dyadic(12345, 3)
    ok2, witness2 = verify_functoriality(s, 120, t)
    assert not ok2 and witness2 is not None


def test_bound_and_negative_control():
    t = CoeffTable()
    s = parse_bitseq("0")
    ok, witness = verify_bound(s, 200, t)
    assert ok and witness is None
    # shrinking the growth radius to 1 must produce a concrete witness
    ok2, witness2 = verify_bound(s, 200, t, R=1)
    assert not ok2
    n, a, q = witness2
    assert not a.abs_leq(q)


def test_bound_equality_exactly_at_one():
    t = CoeffTable()
    s = parse_bitseq("1")
    row = t.row(s, 60)
    for n in range(1, 60):
        q = Fraction(1, 20) * Fraction(10**n, n * n)
        if n == 1:
            assert abs(row[n].as_fraction()) == q
        else:
            assert abs(row[n].as_fraction()) < q


def test_lemma_identity_matches_direct_sum():
    for n in (1, 2, 3, 7, 19, 40):
        direct_ok = lemma_sum_direct(n) <= Fraction(20, (n + 1) ** 2)
        assert lemma_sum_check(n) == direct_ok
        assert direct_ok
    ok, bad = lemma_sum_check_range(120)
    assert ok and bad is None


def test_section3_recursion():
    a, b = parse_bitseq("0"), parse_bitseq("1")
    assert section3_recursion_check(a, b, 64)
    a2, b2 = parse_bitseq("00"), parse_bitseq("001")
    assert section3_recursion_check(a2, b2, 64)


def test_growth_specs():
    assert GrowthSpec.parse("pow:10")(3) == 1000
    assert GrowthSpec.parse("factorial")(5) == 120
    assert GrowthSpec.parse("tower:2")(3) == 16
    with pytest.raises(ValueError):
        GrowthSpec.parse("bogus")


def test_theoremA_pair_structure():
    nu = GrowthSpec.parse("pow:2")
    s, t, wit = build_theoremA_pair(nu, 3)
    assert s.same_sequence(BitSeq.zeros())
    for n_k, M, nu_val in wit:
        assert M == nu_val + 1
        assert mult_formula_exceeds(M, nu_val)
    assert certify_finite_contacts(s, t, wit[-1][0])
    # the contact order at a witness shift is finite and exceeds nu
    n0, M0, nu0 = wit[0]
    mu0 = mu_theoremA(s, t, n0)
    assert isinstance(mu0, int) and mu0 > nu0


def test_mult_formula_exceeds_regimes():
    assert mult_formula_exceeds(5, 1000)
    assert not mult_formula_exceeds(5, 10**6)
    # astronomically large first-difference index: bit-length certificate
    huge = 10**500
    assert mult_formula_exceeds(huge, 10**299)


def test_mult_formula_exceeds_is_exact():
    # past the old m <= 4096 cap the value is still computed when it fits
    assert mult_formula_exceeds(5000, 4**5000)
    assert not mult_formula_exceeds(5000, mult_formula_from_m(5000))
    for m in range(65):
        v = (4 ** (m + 1) + 2) // 3
        bounds = {-1, 0, 1, v - 2, v - 1, v, v + 1, v + 2,
                  4**m - 1, 4**m, 4**m + 1, 2 * 4**m, 4 ** (m + 1)}
        for bound in bounds:
            assert mult_formula_exceeds(m, bound) == (v > bound), (m, bound)


def test_mu_digit_count():
    assert mu_digit_count(0) == 1      # value 2
    assert mu_digit_count(5) == 4      # value 1366
    # cross-check the high-precision log branch against exact arithmetic
    big = 10**5 + 10
    d = mu_digit_count(big)
    v = mult_formula_from_m(big)
    assert 10 ** (d - 1) <= v < 10**d
