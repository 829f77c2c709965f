import random
from fractions import Fraction
from operator import mul

import pytest

from germdyn import curvefamily
from germdyn.bipoly import BudgetExceeded
from germdyn.bitseq import BitSeq, first_difference, parse_bitseq
from germdyn.bounds import DEFAULT_BUDGET
from germdyn.curvefamily import (
    CoeffTable,
    GrowthSpec,
    UndeterminedDifference,
    build_theoremA_pair,
    certify_finite_contacts,
    curve,
    lemma_sum_check,
    lemma_sum_check_range,
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
from germdyn.series import AtLeast, USeries
from test_bitseq import expand, rand_seq
from test_series import compose_monomial


def lemma_sum_direct(n: int) -> Fraction:
    """Brute-force left-hand side; test oracle for lemma_sum_check."""
    return sum(Fraction(1, k * k * (n - k + 1) ** 2) for k in range(1, n + 1))


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
    assert out == AtLeast(42)


def test_functoriality_small_and_negative_control():
    t = CoeffTable()
    s = parse_bitseq("01:(10)")
    ok, witness = verify_functoriality(s, 120, t)
    assert ok and witness is None
    # corrupt one cached coefficient: the identity must now fail with a witness
    t.row(s, 40)
    key = s.canonical_key()
    t._irows[key][7] = 12345 << 11  # a_7 = 12345/2^3, scaled by 4^7
    ok2, witness2 = verify_functoriality(s, 120, t)
    assert not ok2 and witness2 is not None
    assert witness2[0] == 4 + 4 * 7


def test_bound_and_negative_control(monkeypatch):
    t = CoeffTable()
    s = parse_bitseq("0")
    ok, witness = verify_bound(s, 200, t)
    assert ok and witness is None
    # shrinking the growth radius to 1 must produce a concrete witness
    monkeypatch.setattr(curvefamily, "_BOUND_R", 1)
    ok2, witness2 = verify_bound(s, 200, t)
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


def contact_oracle(m):
    """(4^(m+1) + 2) / 3 by the section 3 recursion: 2 at m = 0, then 4v - 2."""
    v = 2
    for _ in range(m):
        v = 4 * v - 2
    return v


# rand_seq pairs have preperiods below 40 and periods at most 5, so two of
# them that agree on SCAN bits agree forever
SCAN = 200


def seeded_pairs(seed, count):
    rng = random.Random(seed)
    pairs = [(rand_seq(rng), rand_seq(rng)) for _ in range(count)]
    # one sequence written twice, which no horizon separates: from the same
    # parts, a cycle rotated into the prefix, a last run as a cycle
    pairs += [(s, BitSeq(s.prefix, s.tail, s.param)) for s, _ in pairs[:count // 4]]
    pairs += [(BitSeq.periodic(s.prefix, s.param),
               BitSeq.periodic(s.prefix + s.param[:1], s.param[1:] + s.param[:1]))
              for s, _ in pairs[:count // 2] if s.tail == "periodic"]
    pairs += [(BitSeq.blocks((L,)), BitSeq.periodic((), (0,) * L + (1,))) for L in (0, 2)]
    return rng, pairs


def test_mu_theoremA_matches_a_bitwise_first_difference():
    rng, pairs = seeded_pairs(3109, 200)
    undetermined = 0
    for s, t in pairs:
        n = rng.randint(0, 12)
        a, b = expand(s, SCAN), expand(t, SCAN + n)[n:]
        m = next((m for m in range(SCAN) if a[m] != b[m]), None)
        got = mu_theoremA(s, t, n)
        if m is None:
            undetermined += 1
            assert got == AtLeast((4 ** (10**6 + 1) + 2) // 3), (s, t, n)
        else:
            assert got == contact_oracle(m), (s, t, n)
    assert undetermined >= 20, undetermined
    # a huge shift lands in the repeating run of t
    t = BitSeq.blocks([10**30, 4])
    assert mu_theoremA(BitSeq.zeros(), t, 10**30 + 1 + 5 * 10**40 + 2) == contact_oracle(2)


def test_mu_theoremA_on_two_spellings_of_one_sequence_reads_no_bit(monkeypatch):
    """blocks((2,)) and the cycle (001) are one sequence: equal keys answer
    AtLeast before any bit is read, where a scan would read 10^6 of each."""
    reads = []
    real_bit = BitSeq.bit
    monkeypatch.setattr(BitSeq, "bit", lambda s, n: reads.append(n) or real_bit(s, n))
    got = mu_theoremA(BitSeq.blocks((2,)), BitSeq.periodic((), (0, 0, 1)), 0)
    assert got == AtLeast((4 ** (10**6 + 1) + 2) // 3)
    assert reads == []


def test_coeff_table_keeps_one_row_per_sequence():
    """Both spellings of blocks((2,)) and (001) fill the three rows of its
    three shifts, and read the same coefficients."""
    table = CoeffTable()
    a = table.irow(BitSeq.blocks((2,)), 40)
    b = table.irow(BitSeq.periodic((), (0, 0, 1)), 40)
    assert a == b and len(table._irows) == 3


def test_section3_recursion_check_matches_a_bitwise_first_difference():
    rng, pairs = seeded_pairs(4421, 200)
    raised = 0
    for s, t in pairs:
        horizon = rng.randint(1, 12)
        a, b = expand(s, horizon), expand(t, horizon)
        if a == b:
            raised += 1
            with pytest.raises(UndeterminedDifference,
                               match="^no bit disagreement below horizon %d$" % horizon):
                section3_recursion_check(s, t, horizon)
        else:
            assert section3_recursion_check(s, t, horizon) is True, (s, t, horizon)
    assert 20 <= raised <= len(pairs) - 20, raised


def test_growth_specs():
    assert GrowthSpec.parse("pow:10")(3) == 1000
    assert GrowthSpec.parse("factorial")(5) == 120
    assert GrowthSpec.parse("tower:2")(3) == 16
    with pytest.raises(ValueError):
        GrowthSpec.parse("bogus")


def test_growth_spec_bit_budget():
    # a value of exactly `budget` bits passes; one more bit does not
    assert GrowthSpec.parse("pow:2")(9, budget=10) == 512
    assert GrowthSpec.parse("tower:2")(4, budget=17) == 65536
    assert GrowthSpec.parse("factorial")(20, budget=62) == 2432902008176640000
    for text, n, budget in (("pow:2", 10, 10), ("pow:3", 10, 15),
                            ("tower:2", 4, 16), ("factorial", 20, 61),
                            ("tower:2", 6, 10**6), ("pow:10", 10**1005, 10**6),
                            ("factorial", 10**100, 10**6)):
        with pytest.raises(BudgetExceeded):
            GrowthSpec.parse(text)(n, budget)


def test_budgets_default_to_the_one_bound():
    # a growth value of 10^6 + 1 bits is one past DEFAULT_BUDGET
    with pytest.raises(BudgetExceeded):
        GrowthSpec.parse("pow:2")(10**6 + 1)
    assert CoeffTable().budget == DEFAULT_BUDGET


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


def test_finite_contacts_match_shifts_from_the_start():
    """certify_finite_contacts shifts its previous shift once per n; it
    agrees with shifting t from the start by each n <= horizon (s all
    zeros, as in build_theoremA_pair, so each query is structural)."""
    rng = random.Random(2207)
    s, verdicts = BitSeq.zeros(), []
    for _ in range(300):
        t, horizon = rand_seq(rng), rng.randint(0, 12)
        want = not any(isinstance(first_difference(s, t.shift_by(n), float("inf")), AtLeast)
                       for n in range(horizon + 1))
        assert certify_finite_contacts(s, t, horizon) == want, (s, t, horizon)
        verdicts.append(want)
    assert 30 <= sum(verdicts) <= len(verdicts) - 30, sum(verdicts)


def test_theoremA_witnesses_match_shifts_from_the_start():
    """build_theoremA_pair moves its shift of t on by one run per witness;
    each witness agrees with shifting t from the start to the start of its
    run and reading the first one there."""
    rng = random.Random(2603)
    specs = [(GrowthSpec("pow", 1), rng.randint(1, 40)), (GrowthSpec("pow", 2), 4),
             (GrowthSpec("pow", 3), 3), (GrowthSpec("factorial"), 3)]
    specs += [(GrowthSpec("table", [rng.randint(0, 5) for _ in range(200)]),
               rng.randint(1, 25)) for _ in range(6)]
    for nu, K in specs:
        s, t, witnesses = build_theoremA_pair(nu, K)
        want, start = [], 0
        for L in t.param:
            want.append((start, t.shift_by(start).first_one(L + 2), L - 1))
            start += L + 1
        assert len(witnesses) == K and witnesses == want, (nu, K)
        assert all(nu_val == nu(n) for n, _, nu_val in witnesses)


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


def decimal_digits(n: int) -> int:
    """Exact decimal digit count of a positive integer, without string
    conversion (which interpreters may cap for big values); test oracle
    for mu_digit_count."""
    if n <= 0:
        raise ValueError("need a positive integer")
    # bit_length * log10(2) estimate, then exact adjustment by comparison
    d = max(1, (n.bit_length() * 30103) // 100000)
    while 10**d <= n:
        d += 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


def test_mu_digit_count():
    assert mu_digit_count(0) == 1      # value 2
    assert mu_digit_count(5) == 4      # value 1366
    # the logarithm path against exact arithmetic, for small m as well
    rng = random.Random(2026)
    large = [10**5 + 1] + [rng.randint(10**5 + 1, 3 * 10**5) for _ in range(29)]
    small = list(range(301)) + [rng.randint(301, 10**5) for _ in range(40)] + [10**5]
    for m in small + large:
        assert mu_digit_count(m) == decimal_digits(mult_formula_from_m(m)), m


def mpmath_digit_count(m):
    """Digit count by mpmath at 30 guard digits; test-only oracle."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(decimal_digits(m) + 30):
        val = (mpmath.mpf(m) + 1) * mpmath.log10(4) - mpmath.log10(3)
        return int(mpmath.floor(val)) + 1


def witness_ms():
    """The first-one positions M of the arnold witnesses, up to ~1900 digits."""
    specs = ["pow:%d" % k for k in range(2, 13)] + ["factorial"]
    return [M for spec in specs
            for _, M, _ in build_theoremA_pair(GrowthSpec.parse(spec), 3)[2]]


def test_mu_digit_count_matches_mpmath_on_the_witnesses():
    for m in witness_ms() + [2**8207]:
        assert mu_digit_count(m) == mpmath_digit_count(m), m
    mpmath = pytest.importorskip("mpmath")
    for k in (3, 5, 9):
        for bits in (8, 64, 1000):
            s, e = curvefamily._atanh_inv(k, bits)
            with mpmath.workdps(bits // 3 + 30):
                scaled = mpmath.atanh(mpmath.mpf(1) / k) * 2**bits
                assert s <= scaled < s + e, (k, bits)


def test_mu_digit_count_widens_until_the_floors_agree(monkeypatch):
    exact = curvefamily._atanh_inv
    calls = []

    def recording(k, bits):
        calls.append(bits)
        return exact(k, bits)

    big = 2**8207
    expected = {m: decimal_digits(mult_formula_from_m(m))
                for m in (10**5 + 1, 123457, 3 * 10**5)}
    expected[big] = mu_digit_count(big)  # checked against mpmath above
    monkeypatch.setattr(curvefamily, "_atanh_inv", recording)
    for m, digits in expected.items():
        calls.clear()
        assert mu_digit_count(m) == digits
        assert len(calls) == 3, m  # the guard bits decide at once
    # with no guard bits the first bracket straddles an integer
    monkeypatch.setattr(curvefamily, "_LOG_GUARD_BITS", 0)
    for m, digits in expected.items():
        calls.clear()
        assert mu_digit_count(m) == digits
        assert len(calls) > 3, m
        assert calls[3] == 2 * calls[0]


# -- the integer-row checks against the Dyadic / Fraction formulations -------

ORACLE_SPECS = ("0", "1", "01:(10)", "0110:(10)", ":(0011)", "11:(01)")


def functoriality_oracle(s, N, table):
    """g_s(y)^2 = y^4 - g_{sigma(s)}(y^4) as Dyadic series in y, every
    exponent < N compared."""
    g = curve(s, N, table)
    lhs = g * g
    rhs = USeries.monomial(Dyadic(1), 4, N) - compose_monomial(curve(s.shift(), N, table), 4)
    for k in range(N):
        if lhs.coeffs[k] != rhs.coeffs[k]:
            return False, (k, lhs.coeffs[k], rhs.coeffs[k])
    return True, None


def bound_oracle(s, N, table, R):
    row = table.row(s, N)
    for n in range(1, N):
        q = Fraction(1, 20) * Fraction(R**n, n * n)
        if abs(row[n].as_fraction()) > q:
            return False, (n, row[n], q)
    return True, None


def coeffwise_oracle(s, t, N, table):
    row_s, row_t = table.row(s, N), table.row(t, N)
    for n in range(N):
        if row_s[n] != row_t[n]:
            return 2 + 4 * n
    return AtLeast(2 + 4 * N)


def test_rows_are_scaled_dyadic_views():
    t = CoeffTable()
    s = parse_bitseq("0110:(10)")
    irow = t.irow(s, 50)
    row = t.row(s, 50)
    assert [a.as_fraction() * 4**n for n, a in enumerate(row)] == irow
    assert t.coeff(s, 49) == row[49]
    for upto in (0, -1, -7):
        assert t.row(s, upto) == [] and t.irow(s, upto) == []


def test_functoriality_witness_matches_dyadic_oracle():
    rng = random.Random(4041)
    for spec in ORACLE_SPECS:
        s = parse_bitseq(spec)
        for N in (8, 9, 12, 13, 61, 160):
            t = CoeffTable()
            assert verify_functoriality(s, N, t) == functoriality_oracle(s, N, t) == (True, None)
        for _ in range(6):
            N = rng.randint(8, 200)
            t = CoeffTable()
            t.irow(s, N)  # every row either check reads, computed before tampering
            # tamper at or just past the last index the identity reads
            T = (N - 5) // 4 + 1
            target, reach = rng.choice(((s, T + 1), (s.shift(), (T + 2) // 4 + 1)))
            row = t._irows[target.canonical_key()]
            row[rng.randrange(reach)] += rng.choice((-3, -1, 1, 2 << 40))
            got = verify_functoriality(s, N, t)
            want = functoriality_oracle(s, N, t)
            assert got == want, (spec, N)
            if not got[0]:
                assert [str(v) for v in got[1]] == [str(v) for v in want[1]]


def test_bound_witness_matches_fraction_oracle(monkeypatch):
    t = CoeffTable()
    for spec in ORACLE_SPECS:
        s = parse_bitseq(spec)
        for R in range(1, 11):
            monkeypatch.setattr(curvefamily, "_BOUND_R", R)
            got = verify_bound(s, 120, t)
            assert got == bound_oracle(s, 120, t, R), (spec, R)
            assert got[0] == (R == 10)


def test_lemma_fixed_point_bound_and_exact_fallback(monkeypatch):
    exact = curvefamily.lemma_sum_check
    calls = {}

    def recording(n):
        calls[n] = exact(n)
        return calls[n]

    monkeypatch.setattr(curvefamily, "lemma_sum_check", recording)
    # at full precision the fixed-point bound decides every n alone
    assert lemma_sum_check_range(3000) == (True, None)
    assert calls == {}
    # a few fractional bits leave the bound inconclusive from n ~ 40 on
    monkeypatch.setattr(curvefamily, "_LEMMA_BITS", 2)
    assert lemma_sum_check_range(200) == (True, None)
    assert len(calls) > 100
    for n, verdict in calls.items():
        assert verdict == (lemma_sum_direct(n) <= Fraction(20, (n + 1) ** 2)), n
    # the exact verdict of the fallback is the one reported
    monkeypatch.setattr(curvefamily, "lemma_sum_check", lambda n: n != 150)
    assert lemma_sum_check_range(200) == (False, 150)


def test_coeffwise_widening_matches_full_horizon():
    rng = random.Random(77)
    t = CoeffTable()
    for m in range(6):
        for tail in ("", ":1...", ":(01)"):
            prefix = "".join(rng.choice("01") for _ in range(m))
            a = parse_bitseq(prefix + "0" + tail)
            b = parse_bitseq(prefix + "1" + tail)
            for N in (1, 2, 5, 8, 9, 33, 129, 345):
                got = mult_coeffwise(a, b, N, t)
                assert got == coeffwise_oracle(a, b, N, t), (m, tail, N)
            assert mult_coeffwise(a, b, 345, t) == mult_formula_from_m(m)
    # equal prefixes up to the horizon: a certified lower bound
    a, b = parse_bitseq("0"), parse_bitseq("0" * 6 + "1")
    for N in (1, 8, 100, 341):
        assert mult_coeffwise(a, b, N, t) == AtLeast(2 + 4 * N)
        assert mult_coeffwise(a, a, N, t) == AtLeast(2 + 4 * N)


# -- the row engine against the convolution it replaced ----------------------

def convolution_irow(s, upto):
    """A_0 .. A_(upto-1) by the folded convolution of g_s^2, one balanced
    product per pair of indices; the oracle of CoeffTable's recurrence."""
    if upto <= 0:
        return []
    row = [-1 if s.bit(0) else 1]
    shift_row = convolution_irow(s.shift(), (upto - 2) // 4 + 1)
    sign = -row[0]  # a_0 = +-1, so -X/(2 a_0) = sign * X / 2
    while len(row) < upto:
        n = len(row) - 1  # defining a_(n+1)
        m = n // 2
        acc = sum(map(mul, row[1:m + 1], row[n:n - m:-1]))
        total = acc + acc
        if n % 2:
            total += row[m + 1] * row[m + 1]
        if n % 4 == 0:
            k = n // 4
            total += shift_row[k] << (2 * (n + 1) - 2 * k)
        assert total % 2 == 0
        row.append(sign * (total // 2))
    return row


def fraction_row(s, upto):
    """a_0 .. a_(upto-1) solved from g_s(y)^2 = y^4 - g_{sigma(s)}(y^4) in
    Fractions: the coefficient of y^(4+4t) reads
    sum_(i+j=t) a_i a_j = -b_((t-1)/4) when t = 1 mod 4, else 0."""
    a0 = Fraction(-1 if s.bit(0) else 1)
    if upto <= 1:
        return [a0][:upto]
    b = fraction_row(s.shift(), (upto - 2) // 4 + 1)
    a = [a0]
    for t in range(1, upto):
        rhs = -b[(t - 1) // 4] if t % 4 == 1 else 0
        a.append((rhs - sum(a[i] * a[t - i] for i in range(1, t))) / (2 * a0))
    return a


def random_specs(rng, count):
    """Literals of seeded sequences: a prefix of at most 6 bits, then a tail
    of zeros, of ones, or a cycle with both bits."""
    specs = []
    for i in range(count):
        prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        if i % 3 < 2:
            specs.append("%s:%d..." % (prefix, i % 3))
            continue
        cycle = "0"
        while len(set(cycle)) < 2:
            cycle = "".join(rng.choice("01") for _ in range(rng.randint(2, 4)))
        specs.append("%s:(%s)" % (prefix, cycle))
    return specs


ROW_SPECS = ORACLE_SPECS + tuple(random_specs(random.Random(1212), 30))


@pytest.mark.parametrize("spec", ROW_SPECS)
def test_rows_match_the_convolution_oracle(spec):
    s = parse_bitseq(spec)
    assert CoeffTable().irow(s, 300) == convolution_irow(s, 300)


def test_rows_match_a_fraction_solution_of_the_identity():
    for spec in ROW_SPECS:
        s = parse_bitseq(spec)
        row = CoeffTable().row(s, 61)
        assert [a.as_fraction() for a in row] == fraction_row(s, 61), spec


def test_self_shifting_rows_and_stepwise_extension():
    for spec in ("0", ":1..."):  # all zeros, all ones
        s = parse_bitseq(spec)
        assert s.shift().canonical_key() == s.canonical_key()
        assert CoeffTable().irow(s, 300) == convolution_irow(s, 300)
    for spec in ("0", ":1...", "0110:(10)", "11:(01)"):
        s = parse_bitseq(spec)
        t = CoeffTable()
        for upto in (7, 50, 300):
            step = t.irow(s, upto)
        assert step == CoeffTable().irow(s, 300), spec


def recurrence_numerator(row, shift_row, n):
    """2n A_n by the recurrence, read from A_0 .. A_(n-1) and the shift row."""
    return sum((2 * n - 3 - 12 * k) * shift_row[k] * row[n - 1 - 4 * k] << (6 * k + 2)
               for k in range((n - 1) // 4 + 1))


def test_an_inexact_division_raises_instead_of_returning_a_row():
    s = parse_bitseq("0110:(10)")
    n = 40
    t = CoeffTable()
    t.irow(s, n)
    row = t._irows[s.canonical_key()]
    shift_row = t._irows[s.shift().canonical_key()]
    exact = recurrence_numerator(row, shift_row, n)
    assert exact == 2 * n * convolution_irow(s, n + 1)[n]
    # search for a tampered entry that leaves 2n A_n indivisible by 2n
    i, delta = next(
        (i, delta) for i in range(n) for delta in (1, 2, 3)
        if recurrence_numerator(row[:i] + [row[i] + delta] + row[i + 1:], shift_row, n)
        % (2 * n))
    row[i] += delta
    with pytest.raises(AssertionError):
        t.irow(s, n + 1)
    assert len(row) == n
