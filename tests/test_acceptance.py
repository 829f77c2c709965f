"""The nine acceptance checks, one test each, every one printing a single
PASS/FAIL line.  All comparisons are exact."""

import itertools
import random
from fractions import Fraction

import pytest

from germdyn.bipoly import BiPoly
from germdyn.bitseq import first_difference, parse_bitseq
from germdyn.curvefamily import (
    GrowthSpec,
    build_theoremA_pair,
    certify_finite_contacts,
    lemma_sum_check_range,
    mult_coeffwise,
    mult_formula,
    mult_formula_exceeds,
    verify_bound,
    verify_functoriality,
)
from germdyn.dyadic import Dyadic
from germdyn.intersect import (
    INFINITE,
    GenericSampler,
    MapGerm,
    PlaneCurve,
    local_mult,
    mu_sequence,
    samuel_via_generic,
)
from germdyn.polyparse import parse_map, parse_poly
from germdyn.proximity import intersection_matrix, skewness
from germdyn.recurrence import RecurrenceModel, detect_recursion
from germdyn.series import AtLeast, USeries
from germdyn.staircase import (
    MonomialIdeal2,
    hilbert_samuel_fit,
    minkowski_check,
    mixed,
    product,
    samuel,
)
from germdyn.valuation import c_infinity, growth_envelope_check
from test_proximity import free_chain, random_chart
from test_recurrence import extend
from test_staircase import random_primary_ideal


def report(name, ok):
    print("ACCEPTANCE %s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok


def test_acceptance_1_contact_formula_vs_coefficients(pool, table):
    expected = {m: (4 ** (m + 1) + 2) // 3 for m in range(6)}
    seen = set()
    ok = True
    for a, b in itertools.combinations(pool, 2):
        m = first_difference(a, b, 64)
        if isinstance(m, AtLeast) or m > 5:
            continue
        seen.add(m)
        f = mult_formula(a, b, 64)
        c = mult_coeffwise(a, b, 345, table)
        ok = ok and (f == c == expected[m])
    ok = ok and seen == set(range(6))
    report("1 contact formula vs coefficients (2,6,22,86,342,1366)", ok)


def test_acceptance_2_functoriality_n2000(pool, table):
    ok = all(verify_functoriality(s, 2000, table)[0] for s in pool)
    report("2 functoriality identity at N=2000 for 20 sequences", ok)


def test_acceptance_3_coefficient_bound_n2000(pool, table):
    ok = True
    for s in pool:
        passed, _ = verify_bound(s, 2000, table)
        ok = ok and passed
        row = table.row(s, 2000)
        # equality holds exactly at n = 1 and nowhere else
        ok = ok and abs(row[1].as_fraction()) == Fraction(1, 2)
        for n in (2, 3, 5, 17, 100, 999, 1999):
            q = Fraction(10**n, 20 * n * n)
            ok = ok and abs(row[n].as_fraction()) < q
    report("3 coefficient bound at N=2000 with equality only at n=1", ok)


def test_acceptance_4_summation_lemma_to_1e4():
    ok, witness = lemma_sum_check_range(10**4)
    report("4 summation lemma exact for all n <= 10^4", ok and witness is None)


def test_acceptance_5_fast_growth_witnesses():
    nu = GrowthSpec.parse("pow:10")
    s, t, witnesses = build_theoremA_pair(nu, 3)
    ok = len(witnesses) == 3
    for n_k, M, nu_val in witnesses:
        # contact order (4^(M+1)+2)/3 at the witness shift exceeds nu(n_k)
        ok = ok and mult_formula_exceeds(M, nu_val)
    horizon = witnesses[-1][0]
    ok = ok and certify_finite_contacts(s, t, horizon)
    report("5 growth witnesses beat nu(n)=10^n with finite contacts", ok)


def test_acceptance_6_pipeline_mu_recursion_rate():
    sampler = GenericSampler(0)
    F = MapGerm(*parse_map("(x^2 - y^4, y^4)"))
    gens = [parse_poly("x"), parse_poly("y")]
    z = sampler.draw_vector(2)
    w = sampler.draw_vector(2)
    mu = mu_sequence(F, gens, z, w, 5, sampler)
    ok = mu == [1, 2, 4, 8, 16, 32]
    model = detect_recursion(mu, 2, 1)
    ok = ok and model.order == 1 and model.coeffs == [2]
    rate = c_infinity(F, 5)
    ok = ok and rate.is_exact and rate.value == 2
    ok = ok and model.onset == 0
    ok = ok and growth_envelope_check(mu, model, rate.value) == (1, 1)
    report("6 pipeline: mu=1,2,4,8,16,32, ratio-2 recursion, c_inf=2, A1=A2=1", ok)


def test_acceptance_7_mixed_multiplicities_and_consistency():
    m = MonomialIdeal2([(1, 0), (0, 1)])
    I = MonomialIdeal2([(2, 0), (0, 3)])
    ok = samuel(m) == 1 and samuel(I) == 6
    ok = ok and samuel(product(m, I)) == 11
    ok = ok and mixed(m, I) == 2
    ok = ok and minkowski_check(m, I)  # 4 <= 6
    rng = random.Random(20260824)
    for _ in range(20):
        J = random_primary_ideal(rng, max_power=5)
        e = samuel(J)
        ok = ok and hilbert_samuel_fit(J, 1, 8) == e
        gens = [BiPoly.monomial(1, i, j) for i, j in J.gens]
        ok = ok and samuel_via_generic(gens, GenericSampler(rng.randint(0, 10**6))) == e
    report("7 mixed multiplicities and 20-ideal Samuel consistency", ok)


def test_acceptance_8_proximity_charts():
    rng = random.Random(4711)
    ok = True
    for _ in range(50):
        chart = random_chart(rng)
        try:
            intersection_matrix(chart)
        except Exception:
            ok = False
    two = free_chain(2)
    ok = ok and skewness(two, 2, 2) == 2
    ok = ok and skewness(two, 1, 2) == 1
    report("8 proximity charts negative definite; alpha = 2 and 1", ok)


def test_acceptance_9_property_suites():
    ok = _arith_laws() and _series_laws() and _local_mult_laws() and _recursion_laws()
    report("9 randomized property suites (4 laws x 10^3 cases)", ok)


def _arith_laws():
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = (
            Dyadic(rng.randint(-999, 999), rng.randint(0, 10)) for _ in range(3)
        )
        if (a + b) + c != a + (b + c):
            return False
        if a * (b + c) != a * b + a * c:
            return False
        fa, fb = a.as_fraction(), b.as_fraction()
        if (a < b) != (fa < fb) or (a * b).as_fraction() != fa * fb:
            return False
    return True


def _series_laws():
    rng = random.Random(202)

    def rand_series():
        trunc = rng.randint(1, 8)
        return USeries(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(trunc)],
            trunc,
        )

    for _ in range(1000):
        f, g, h = rand_series(), rand_series(), rand_series()
        lhs, rhs = (f + g) * h, f * h + g * h
        n = min(lhs.trunc, rhs.trunc)
        if lhs.coeffs[:n] != rhs.coeffs[:n]:
            return False
        lhs2, rhs2 = (f * g) * h, f * (g * h)
        n2 = min(lhs2.trunc, rhs2.trunc)
        if lhs2.coeffs[:n2] != rhs2.coeffs[:n2]:
            return False
    return True


def _rand_curve(rng):
    terms = {
        (1, 0): rng.randint(-3, 3),
        (0, 1): rng.randint(-3, 3),
        (2, 0): rng.randint(-2, 2),
        (1, 1): rng.randint(-2, 2),
        (0, 2): rng.randint(-2, 2),
    }
    if terms[(1, 0)] == 0 and terms[(0, 1)] == 0:
        terms[(1, 0)] = 1
    return PlaneCurve(BiPoly(terms))


def _local_mult_laws():
    rng = random.Random(303)
    sam = GenericSampler(303)
    checked = 0
    for _ in range(1000):
        P, Q, R = _rand_curve(rng), _rand_curve(rng), _rand_curve(rng)
        if local_mult(P, Q, sam) != local_mult(Q, P, sam):
            return False
        iq, ir = local_mult(P, Q, sam), local_mult(P, R, sam)
        if iq is INFINITE or ir is INFINITE:
            continue
        if local_mult(P, PlaneCurve(Q.poly * R.poly), sam) != iq + ir:
            return False
        checked += 1
    return checked > 900


def _recursion_laws():
    rng = random.Random(404)
    for _ in range(1000):
        order = rng.randint(1, 3)
        coeffs = [rng.randint(-3, 3) for _ in range(order)]
        if all(v == 0 for v in coeffs):
            coeffs[0] = 2
        init = [rng.randint(1, 9) for _ in range(order)]
        seq = extend(RecurrenceModel(order, coeffs, 0), init, 12)
        if all(v == 0 for v in seq[-6:]):
            continue
        model = detect_recursion(seq, 3, 2)
        for n in range(model.onset, len(seq) - model.order):
            if not model.predicts(seq, n):
                return False
    return True
