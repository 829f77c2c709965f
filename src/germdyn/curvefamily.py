"""The invariant family of curve germs indexed by binary sequences.

Each sequence s gets a series g_s(y) = sum a_n y^(2+4n) with dyadic
coefficients: the square root of g_s(y)^2 = y^4 - g_{sigma(s)}(y^4) whose
leading sign is set by the first bit of s.  The coefficients come from
Miller's recurrence for a power of a power series (Knuth, TAOCP Vol. 2,
section 4.7), linear in the row and driven by the row of the shifted
sequence (see CoeffTable).  The curve x + g_s(y) = 0 maps onto the curve of
the shifted sequence under (x, y) -> (x^2 - y^4, y^4), and the pairwise
contact orders follow the closed formula (4^(m+1) + 2) / 3 in the first bit
disagreement m.  This module computes the coefficients exactly, re-verifies
the defining identities and the coefficient growth bound, and builds the
fast-growth witness pairs.
"""

from __future__ import annotations

from operator import mul

from .bitseq import BitSeq, first_difference
from .bounds import DEFAULT_BUDGET, AtLeast, BudgetExceeded


class UndeterminedDifference(ValueError):
    """The first bit disagreement was not found below the horizon."""


class CoeffTable:
    """Memoized coefficient rows, one per distinct shifted sequence.

    A row is stored as the integers A_n = a_n * 4**n, and every check in
    this module runs on them.  ``row`` builds Dyadic views of a row on each
    call.  In u = y^4/4, G(u) = sum A_n u^n is the square root of
    H(u) = 1 - 4u B(64 u^4) with G(0) = +-1 by the first bit, where
    B(u) = sum B_k u^k is the row of the shifted sequence.  Differentiating
    G^2 = H gives 2 H G' = H' G, Miller's recurrence for a power of a power
    series (Knuth, TAOCP Vol. 2, section 4.7).  It is linear in the row, and
    H is nonzero only at u^0 and u^(1+4k), so

        2n A_n = sum_k (2n - 3(1 + 4k)) B_k A_(n-1-4k) 2^(6k+2)

    over 0 <= k <= (n-1)/4: A_n costs about n/4 products whose small factor
    is a shift coefficient.  The A_n are integers, so every division is
    exact, and that is asserted.  ``irow`` calls itself for the n/4 shift
    coefficients a row of n reads, so a row of 10^6 recurses 11 levels
    deep.  A row of more than ``budget`` coefficients raises BudgetExceeded
    before any work.
    """

    def __init__(self, budget: int = DEFAULT_BUDGET):
        self._irows: dict[tuple, list[int]] = {}
        self.budget = budget

    def coeff(self, s: BitSeq, n: int) -> Dyadic:
        from .dyadic import Dyadic  # only a job that prints coefficients needs it

        return Dyadic(self.irow(s, n + 1)[n], 2 * n)

    def row(self, s: BitSeq, upto: int) -> list[Dyadic]:
        """Coefficients a_0 .. a_(upto-1) for sequence s."""
        from .dyadic import Dyadic  # only a job that prints coefficients needs it

        return [Dyadic(a, 2 * n) for n, a in enumerate(self.irow(s, upto))]

    def irow(self, s: BitSeq, upto: int) -> list[int]:
        """Scaled coefficients A_n = a_n * 4**n for 0 <= n < upto."""
        if upto <= 0:
            return []
        if upto > self.budget:
            raise BudgetExceeded("a row of %d coefficients exceeds the budget of %d"
                                 % (upto, self.budget))
        key = s.canonical_key()
        row = self._irows.get(key)
        if row is None:
            row = self._irows[key] = [-1 if s.bit(0) else 1]
        if len(row) >= upto:
            return row[:upto]
        # A_n with n < upto reads B_k for k <= (n-1)/4; a sequence that is
        # its own shift reads its own shorter prefix
        shift_row = self.irow(s.shift(), (upto - 2) // 4 + 1)
        while len(row) < upto:
            n = len(row)
            top = (n - 1) // 4
            # Horner's rule over the factor 2^6 between consecutive k,
            # from k = top down to 0
            acc = 0
            c = 2 * n - 3 - 12 * top
            for b, a in zip(shift_row[top::-1], row[n - 1 - 4 * top::4]):
                acc = (acc << 6) + c * b * a
                c += 12
            value, rest = divmod(acc << 2, 2 * n)
            if rest:
                raise AssertionError("recurrence left a remainder at n = %d" % n)
            row.append(value)
        return row[:upto]


_DEFAULT_TABLE = CoeffTable()


def coeff(s: BitSeq, n: int, table: CoeffTable | None = None) -> Dyadic:
    """The exact coefficient a_n for sequence s."""
    return (table or _DEFAULT_TABLE).coeff(s, n)


def curve(s: BitSeq, N: int, table: CoeffTable | None = None) -> USeries:
    """g_s truncated to order N; support is contained in {2, 6, 10, ...}."""
    from .series import USeries  # no CLI command builds a series here

    if N < 2:
        return USeries.zero(max(N, 0))
    nmax = (N - 3) // 4 + 1  # indices n with 2 + 4n < N
    row = (table or _DEFAULT_TABLE).row(s, nmax)
    out = USeries.zero(N)
    for n, a in enumerate(row):
        out.coeffs[2 + 4 * n] = a
    return out


def mult_formula(s: BitSeq, t: BitSeq, horizon: int):
    """Contact order (4^(m+1) + 2) / 3 from the first bit disagreement m,
    or a certified lower bound when no disagreement is found."""
    m = first_difference(s, t, horizon)
    if isinstance(m, AtLeast):
        return AtLeast(mult_formula_from_m(horizon))
    return mult_formula_from_m(m)


def mult_formula_from_m(m: int) -> int:
    return (4 ** (m + 1) + 2) // 3


def mult_formula_exceeds(m: int, bound: int) -> bool:
    """Exact test (4^(m+1) + 2)/3 > bound, materializing the value only when
    it is no bigger than bound.

    Needed when m itself is astronomically large: 4^(m+1)/3 > 2^(2m) holds
    for m >= 1, so a bit-length comparison settles every m with
    2m >= bound.bit_length().  Otherwise the value has at most about as
    many bits as bound and is computed exactly.
    """
    if bound < 0:
        return True
    if m >= 1 and 2 * m >= bound.bit_length():
        return True
    return mult_formula_from_m(m) > bound


def mult_coeffwise(s: BitSeq, t: BitSeq, N: int, table: CoeffTable | None = None):
    """Contact order 2 + 4n from the first differing coefficient index n < N,
    else AtLeast(2 + 4*N) as a certified lower bound.

    The compared prefix widens 8 -> 32 -> 128 -> ... -> N, so a pair that
    disagrees early never pays for rows up to N.  The scaled rows A_n =
    a_n 4^n are compared: both sides carry the same 4^n."""
    if N < 1:
        raise ValueError("N must be >= 1")
    tb = table or _DEFAULT_TABLE
    lo, width = 0, min(8, N)
    while True:
        row_s = tb.irow(s, width)
        row_t = tb.irow(t, width)
        for n in range(lo, width):
            if row_s[n] != row_t[n]:
                return 2 + 4 * n
        if width == N:
            return AtLeast(2 + 4 * N)
        lo, width = width, min(4 * width, N)


def verify_functoriality(s: BitSeq, N: int, table: CoeffTable | None = None):
    """Check g_s(y)^2 = y^4 - g_{sigma(s)}(y^4) for all exponents < N.

    Both sides are supported on exponents 4 + 4t, so in u = y^4/4 and the
    scaled rows G_s(u) = sum A_n u^n the identity reads
    G_s(u)^2 = 1 - 4u G_{sigma(s)}(64 u^4), checked over the integers for
    4 + 4t < N.  Returns (True, None) or (False, (exponent, lhs, rhs)), the
    witness sides being the coefficients of y^exponent.
    """
    if N < 8:
        raise ValueError("N must be >= 8")
    tb = table or _DEFAULT_TABLE
    T = (N - 5) // 4 + 1
    g = tb.irow(s, T)
    rhs = [0] * T
    rhs[0] = 1
    # 4u * (64 u^4)^n = 2^(6n+2) u^(1+4n)
    for n, b in enumerate(tb.irow(s.shift(), (T + 2) // 4)):
        rhs[1 + 4 * n] -= b << (6 * n + 2)
    for t in range(T):
        # the square's coefficient folded by symmetry: pairs i < t - i, twice
        h = (t + 1) // 2
        lhs = 2 * sum(map(mul, g[:h], g[t:t - h:-1]))
        if t % 2 == 0:
            lhs += g[t // 2] ** 2
        if lhs != rhs[t]:
            from .dyadic import Dyadic  # only a failure witness needs it

            return False, (4 + 4 * t, Dyadic(lhs, 2 * t), Dyadic(rhs[t], 2 * t))
    return True, None


_BOUND_R = 10  # the growth radius R of verify_bound


def verify_bound(s: BitSeq, N: int, table: CoeffTable | None = None):
    """Exact check |a_n| <= (1/20) R^n / n^2 for 1 <= n < N, with R =
    ``_BOUND_R`` = 10, tested on the scaled rows as 20 n^2 |A_n| <= (4R)^n.

    Returns (True, None) or (False, (n, a_n, bound)).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    row = (table or _DEFAULT_TABLE).irow(s, N)
    base, power = 4 * _BOUND_R, 1
    for n in range(1, N):
        power *= base
        if 20 * n * n * abs(row[n]) > power:
            from fractions import Fraction  # only a failure witness needs them

            from .dyadic import Dyadic

            return False, (n, Dyadic(row[n], 2 * n), Fraction(_BOUND_R**n, 20 * n * n))
    return True, None


def lemma_sum_check(n: int) -> bool:
    """Exact rational test sum 1/(k^2 (n-k+1)^2) <= 20/(n+1)^2.

    Uses the partial-fraction identity
    sum = (2*H2(n) + 4*H1(n)/(n+1)) / (n+1)^2 with harmonic sums H1, H2;
    the direct term-by-term sum is kept in the tests as an oracle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    from fractions import Fraction  # imported here: no other family job needs it

    h1 = sum(Fraction(1, k) for k in range(1, n + 1))
    h2 = sum(Fraction(1, k * k) for k in range(1, n + 1))
    return 2 * h2 + 4 * h1 / (n + 1) <= 20


_LEMMA_BITS = 64  # fractional bits of the fixed-point harmonic sums


def lemma_sum_check_range(n_max: int):
    """lemma_sum_check for every 1 <= n <= n_max; returns (True, None) or
    (False, first failing n).

    H1 and H2 are carried as fixed-point upper bounds with _LEMMA_BITS
    fractional bits, every division rounded up, so a bound within 20 proves
    the inequality; only an inconclusive bound falls back to the exact
    lemma_sum_check(n).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    one = 1 << _LEMMA_BITS
    h1 = h2 = 0
    for n in range(1, n_max + 1):
        h1 += -(-one // n)
        h2 += -(-one // (n * n))
        if 2 * h2 - (-4 * h1 // (n + 1)) > 20 * one and not lemma_sum_check(n):
            return False, n
    return True, None


def section3_recursion_check(s: BitSeq, t: BitSeq, horizon: int) -> bool:
    """Check the contact orders satisfy: value 2 when the first bits differ,
    else 4 * (value of the shifted pair) - 2."""
    value = mult_formula(s, t, horizon)
    if isinstance(value, AtLeast):
        raise UndeterminedDifference(
            "no bit disagreement below horizon %d" % horizon
        )
    if s.bit(0) != t.bit(0):
        return value == 2
    shifted = mult_formula(s.shift(), t.shift(), horizon)
    if isinstance(shifted, AtLeast):
        raise UndeterminedDifference("shifted pair undetermined")
    return value == 4 * shifted - 2


# ---------------------------------------------------------------------------
# growth specifications and the fast-growth witness construction
# ---------------------------------------------------------------------------

class GrowthSpec:
    """A named integer growth function n -> nu(n), exactly evaluable."""

    def __init__(self, kind: str, arg=None):
        self.kind = kind
        self.arg = arg
        if kind in ("pow", "tower"):
            least = 1 if kind == "pow" else 2
            if arg is None or int(arg) < least:
                raise ValueError("%s base must be >= %d" % (kind, least))
            self.arg = int(arg)
        elif kind == "factorial":
            pass
        elif kind == "table":
            self.arg = [int(v) for v in arg]
            if not self.arg:
                raise ValueError("empty growth table")
        else:
            raise ValueError("unknown growth kind %r" % kind)

    def __call__(self, n: int, budget: int = DEFAULT_BUDGET) -> int:
        """nu(n), or BudgetExceeded past ``budget`` bits.  A lower bound on
        the size is checked before any power or factorial is built, so
        nothing of more than about twice the budget is ever computed."""
        if n < 0:
            raise ValueError("negative argument")
        if self.kind == "pow":
            v = self._power(n, budget)
        elif self.kind == "factorial":
            import math

            h = n // 2  # n! >= h^h
            self._check_bits(h * (h.bit_length() - 1) + 1, budget)
            v = math.factorial(n)
        elif self.kind == "tower":
            v = 1
            for _ in range(n):
                v = self._power(v, budget)
        elif n >= len(self.arg):
            raise IndexError("growth table has no entry for n = %d" % n)
        else:
            v = self.arg[n]
        self._check_bits(v.bit_length(), budget)
        return v

    def _power(self, e: int, budget):
        # arg^e >= 2^(e * (bit_length(arg) - 1))
        self._check_bits(e * (self.arg.bit_length() - 1) + 1, budget)
        return self.arg**e

    def _check_bits(self, bits: int, budget):
        if bits > budget:
            raise BudgetExceeded("%s value exceeds %d bits" % (self, budget))

    @classmethod
    def parse(cls, text: str) -> "GrowthSpec":
        text = text.strip()
        if text == "factorial":
            return cls("factorial")
        kind, colon, arg = text.partition(":")
        if colon and kind in ("pow", "tower"):
            return cls(kind, int(arg))
        if colon and kind == "table":
            with open(arg) as fh:
                vals = [int(line) for line in fh if line.strip()]
            return cls("table", vals)
        raise ValueError("unrecognized growth spec %r" % text)

    def __str__(self):
        if self.kind in ("pow", "tower"):
            return "%s:%d" % (self.kind, self.arg)
        if self.kind == "table":
            return "table[%d entries]" % len(self.arg)
        return self.kind


def build_theoremA_pair(nu: GrowthSpec, K: int, budget: int = DEFAULT_BUDGET):
    """Construct (s, t, witnesses): s all zeros, t runs of zeros separated by
    single ones, run lengths chosen minimally so each witness shift beats nu.
    ``budget`` bounds the bit size of each nu value (see GrowthSpec).

    Witness k is (n_k, M_k, nu(n_k)) with M_k = nu(n_k) + 1 > nu(n_k), where
    n_k is the start of the k-th run and M_k the first-one position of the
    shifted t.  Every window of t up to the last witness contains a one, so
    all contact orders below that horizon are finite.
    """
    if K < 1:
        raise ValueError("need at least one witness")
    s = BitSeq.zeros()
    lengths = []
    starts = []
    pos = 0
    for _ in range(K):
        starts.append(pos)
        L = nu(pos, budget) + 1
        lengths.append(L)
        pos += L + 1
    t = BitSeq.blocks(lengths)
    witnesses = []
    shifted = t  # sigma^start(t), moved on by one run on each pass
    for start, L in zip(starts, lengths):
        M = shifted.first_one(L + 2)
        if isinstance(M, AtLeast) or M != L:
            raise AssertionError("witness construction out of sync")
        witnesses.append((start, M, L - 1))
        shifted = shifted.shift_by(L + 1)
    return s, t, witnesses


def certify_finite_contacts(s: BitSeq, t: BitSeq, horizon: int) -> bool:
    """True iff every shift sigma^n(t), n <= horizon, differs from s at some
    finite index (each window of t contains a one when s is all zeros).

    The difference index may be astronomically large, so the query runs with
    an unbounded structural horizon rather than a bit scan."""
    import math

    shifted = t  # sigma^n(t), shifted once more on each pass
    for _ in range(horizon + 1):
        m = first_difference(s, shifted, math.inf)
        if isinstance(m, AtLeast):
            return False
        shifted = shifted.shift_by(1)
    return True


_MU_HORIZON = 10**6  # bits mu_theoremA compares before it answers AtLeast


def mu_theoremA(s: BitSeq, t: BitSeq, n: int):
    """Contact order of the curve of s with the curve of sigma^n(t):
    mult_formula(s, sigma^n(t), ``_MU_HORIZON``).

    Exact when the two sequences first differ at an index m below
    ``_MU_HORIZON`` = 10^6, so the value has at most 602060 digits;
    else AtLeast the order at m = 10^6 (use mult_formula_exceeds for
    inequality certificates past it).
    """
    return mult_formula(s, t.shift_by(n), _MU_HORIZON)


_LOG_GUARD_BITS = 64  # fractional bits of mu_digit_count beyond m's own size


def _atanh_inv(k: int, bits: int) -> tuple[int, int]:
    """(s, e) with s <= 2^bits * atanh(1/k) < s + e, for an integer k >= 3.

    The terms 2^bits / ((2j+1) k^(2j+1)) are summed over Z.  Nested floor
    divisions by integers equal one floor division, so each summed term is
    the floor of its true value and lags it by less than 1, and the tail
    after the first zero power is below k^2 / (k^2 - 1) <= 9/8."""
    power = (1 << bits) // k
    k2 = k * k
    total = terms = 0
    while power:
        total += power // (2 * terms + 1)
        terms += 1
        power //= k2
    return total, terms + 2


def mu_digit_count(m: int) -> int:
    """Decimal digit count of (4^(m+1) + 2)/3 for m >= 0, as
    floor((m+1) log10 4 - log10 3) + 1 from a certified interval.

    The value is 2 mod 4, so it is no power of 10, and 4^(m+1) + 1 is not
    divisible by 3: no integer lies in (log10(4^(m+1)/3), log10 of the
    value], so the two floors agree for every m >= 0.  ln 2 = 2 atanh(1/3),
    ln 3 = ln 2 + 2 atanh(1/5) and ln 10 = 3 ln 2 + 2 atanh(1/9) are
    bracketed in fixed point, and the precision doubles until both ends of
    the bracket of the logarithm have the same floor (it is irrational, so
    this ends)."""
    bits = m.bit_length() + _LOG_GUARD_BITS
    while True:
        a, ea = _atanh_inv(3, bits)
        b, eb = _atanh_inv(5, bits)
        c, ec = _atanh_inv(9, bits)
        ln2, ln2_hi = 2 * a, 2 * (a + ea)
        ln3, ln3_hi = ln2 + 2 * b, ln2_hi + 2 * (b + eb)
        ln10, ln10_hi = 3 * ln2 + 2 * c, 3 * ln2_hi + 2 * (c + ec)
        lo = (2 * (m + 1) * ln2 - ln3_hi) // ln10_hi
        hi = (2 * (m + 1) * ln2_hi - ln3) // ln10
        if lo == hi:
            return lo + 1
        bits *= 2
