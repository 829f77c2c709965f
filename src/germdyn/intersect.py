"""Local intersection multiplicities of exact plane curves at the origin.

``local_mult`` is deterministic: each of its four steps (coprime tangent
cones, the order of one curve along the branch of a smooth one, a resultant
under a one-sided fiber certificate, Fulton's reduction capped by Bezout)
is a proof, and none draws a random number or runs a gcd of curves.
``GenericSampler`` only draws the generic coefficients of ideal members.

``mu_sequence`` reads mu(n) = i_0((F^n)^* D_z, D_w) off the arc formula
i_0(P, C) = ord_t P(gamma(t)), for a primitive parametrization gamma of an
irreducible germ C (E. Casas-Alvero, *Singularities of Plane Curves*, LMS
LN 276, ch. 2), on ``c_sequence``'s window rule, whenever the w-member has
an integer one; every other w-member goes through ``local_mult``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import gcd

# MapGerm is re-exported: callers import it from here too
from .bipoly import BiPoly, MapGerm, _guard_table, window_eval
from .bounds import DEFAULT_BUDGET, AtLeast, BudgetExceeded
from .intpoly import _int_coeff_rows, _resultant_rows, _ugcd, _uprimitive, _xprem


class DegenerateInput(ValueError):
    """A zero polynomial was passed where a curve was expected."""


class GenericityFailure(RuntimeError):
    """Independent generic draws disagreed."""


class InfiniteMultiplicity(ArithmeticError):
    """Curves share a component through the origin."""


class _Infinite:
    __slots__ = ()

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


class PlaneCurve:
    """A curve germ at the origin, given by a polynomial with no constant
    term."""

    __slots__ = ("poly",)

    def __init__(self, poly: BiPoly):
        if poly.constant_term() != 0:
            raise ValueError("curve must pass through the origin")
        self.poly = poly

    def is_zero(self):
        return self.poly.is_zero()

    def __repr__(self):
        return "PlaneCurve(%s)" % self.poly


_DRAW_BOUND = 10**4  # GenericSampler draws nonzero integers in [-B, B]


class GenericSampler:
    """Reproducible source of generic integer coefficients: nonzero
    integers of absolute value at most ``_DRAW_BOUND`` = 10^4."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def draw(self) -> int:
        v = 0
        while v == 0:
            v = self._rng.randint(-_DRAW_BOUND, _DRAW_BOUND)
        return v

    def draw_vector(self, n: int) -> list[int]:
        return [self.draw() for _ in range(n)]

    def unimodular(self):
        """A random determinant-one change of coordinates built from two
        shears, so the entries stay small."""
        a = self._rng.randint(-9, 9)
        b = self._rng.randint(-9, 9)
        # [[1, b], [a, a*b + 1]]
        return (1, b, a, a * b + 1)


def _cone(terms: dict, u, v):
    """(order, tangent cone) of a curve through the origin whose coefficients
    of x and y are u and v, the cone as (i, c) pairs by ascending i: a curve
    with a linear term has order 1, and its cone is its linear part."""
    if u or v:
        return 1, [(0, v), (1, u)] if u and v else [(1, u)] if u else [(0, v)]
    m = min(map(sum, terms))
    return m, sorted([(i, c) for (i, j), c in terms.items() if i + j == m])


def _cone_mult(p: BiPoly, q: BiPoly):
    """m(p) * m(q) when the tangent cones of p and q, curves through the
    origin (their terms of lowest total degree), share no line, else None:
    then i_0(p, q) = m(p) m(q), and no component through the origin is shared
    (Fulton, *Algebraic Curves*, section 3.3, property (5)).  A smooth
    curve's cone is read off its two linear coefficients, and two linear
    cones are compared by one determinant; a linear cone u x + v y is tested
    against a higher one by one evaluation of it, other cones by a gcd; two
    cones with more than one term past the term budget raise
    BudgetExceeded."""
    pt, qt = p.terms, q.terms
    u, v = pt.get((1, 0), 0), pt.get((0, 1), 0)
    s, t = qt.get((1, 0), 0), qt.get((0, 1), 0)
    if (u or v) and (s or t):
        # the lines u x + v y and s x + t y differ iff u t - v s != 0
        return 1 if u * t != v * s else None
    m, cp = _cone(pt, u, v)
    n, cq = _cone(qt, s, t)
    # by ascending i: x divides a cone when its first term has i >= 1, y when
    # its last term has j >= 1
    if cp[0][0] and cq[0][0]:
        return None
    if cp[-1][0] < m and cq[-1][0] < n:
        return None
    # a monomial cone's only lines are x and y, and neither divides both
    if len(cp) > 1 and len(cq) > 1:
        if max(m, n) > DEFAULT_BUDGET:
            raise BudgetExceeded("a tangent cone of degree %d exceeds the term budget of %d"
                                 % (max(m, n), DEFAULT_BUDGET))
        if n == 1:
            cp, cq, m, n = cq, cp, n, m
        if m == 1:
            # the line u x + v y (u v != 0) divides the cone iff it vanishes
            # at (v, -u)
            (_, v), (_, u) = cp
            if not sum(c * v**i * (-u)**(n - i) for i, c in cq):
                return None
        else:
            # y divides at most one cone, so setting y = 1 loses no shared line
            a, b = [0] * (m + 1), [0] * (n + 1)
            for row, cone in ((a, cp), (b, cq)):
                for i, c in cone:
                    row[i] = c
            if len(_ugcd(a, b)) > 1:
                return None
    return m * n


def _branch_mult(p: BiPoly, q: BiPoly):
    """i_0(p, q) when p or q, curves through the origin, is smooth there (has
    a linear term), else None: the order ord_t g(gamma(t)) of the other
    curve g along the branch gamma of the smooth one f (Fulton, *Algebraic
    Curves*, section 3.3: at a simple point, I(P, F n G) = ord_P^F(G)).
    The denominators of f are cleared, and x and y are exchanged in both
    curves when f has no y term, so f = u x + v y + h with v != 0 and h of
    order >= 2.  Then gamma = (v^2 t, Y(t)) with v Y_k = -[t^k] (u x +
    h)(gamma); by induction every Y_k is a multiple of v, so each division
    is exact.  A finite i_0 is at most cap = deg p * deg q (Bezout, after
    dividing out a common unit factor), so the value is INFINITE once the
    coefficients of t^1..t^cap all vanish.  None, too, when cap passes the
    term budget, or when the products spent so far (over the terms of f and
    g and the power table, per coefficient) pass it: the later steps decide
    then.  The table holds only the powers Y^j that a term reads, each from
    t^(j e) on, e = ord_t Y, by Miller's recurrence over the nonzero
    coefficients of Y, so a partner's y-degree past k / e costs nothing at
    t^k."""
    if (1, 0) not in p.terms and (0, 1) not in p.terms:
        p, q = q, p
        if (1, 0) not in p.terms and (0, 1) not in p.terms:
            return None
    cap = p.degree() * q.degree()
    if cap > DEFAULT_BUDGET:
        return None
    # g(gamma) is exact over Q, so only f needs integer coefficients
    f, g = _primitive(p.terms), q.terms
    if (0, 1) not in f:
        f = {(j, i): c for (i, j), c in f.items()}
        g = {(j, i): c for (i, j), c in g.items()}
    v = f.pop((0, 1))
    # c x^i y^j at gamma is c v^(2i) t^i Y(t)^j; (j, i, c v^(2i)) in order
    h = sorted([(j, i, c * v ** (2 * i)) for (i, j), c in f.items()])
    g = sorted([(j, i, c * v ** (2 * i)) for (i, j), c in g.items()])
    # powers[j][m] = [t^m] Y^j, extended one coefficient m at a time, for
    # j = 0, 1 and the j >= 2 that a term reads.  With Y = t^e Z, Y^j joins
    # at t^(j e) as Y_e^j, and then m Z_0 W_m = sum_(i=1..m) ((j + 1) i - m)
    # Z_i W_(m-i) for W = Z^j (J. C. P. Miller), over the nonzero Z_i; W is
    # integral, so the division is exact.  nz lists the k with Y_k != 0,
    # and the first hn, gn terms read a power in the table.
    used = sorted({j for j, _, _ in h + g if j > 1})
    powers, e, work, nz, joined = {0: [1], 1: [0]}, 0, 0, [], []
    hn, gn = bisect_left(h, (2,)), bisect_left(g, (2,))
    Y = powers[1]
    for k in range(1, cap + 1):
        powers[0].append(0)
        while e and len(joined) < len(used) and used[len(joined)] * e <= k:
            j = used[len(joined)]
            powers[j] = [0] * k
            joined.append(j)
            hn, gn = bisect_left(h, (j + 1,)), bisect_left(g, (j + 1,))
        for j in joined:
            P, m, acc = powers[j], k - j * e, 0
            if not m:
                P.append(Y[e] ** j)
                continue
            P.append(0)  # the i = 0 term reads it
            for s in nz:
                i = s - e
                if i > m:
                    break
                acc += ((j + 1) * i - m) * Y[s] * P[k - i]
            P[k], rest = divmod(acc, m * Y[e])
            if rest:
                raise AssertionError("Y^%d left a remainder at t^%d" % (j, k))
        # past the term budget in products, the later steps decide
        work += hn + gn + len(joined) * len(nz)
        if work > DEFAULT_BUDGET:
            return None
        acc = 0
        for j, i, c in h[:hn]:
            if i <= k - j * e:
                acc -= c * powers[j][k - i]
        Yk, rest = divmod(acc, v)
        if rest:
            raise AssertionError("the branch left a remainder at t^%d" % k)
        Y.append(Yk)
        if Yk:
            nz.append(k)
            if not e:
                e = k
        acc = 0
        for j, i, c in g[:gn]:
            if i <= k - j * e:
                acc += c * powers[j][k - i]
        if acc:
            return k
    return INFINITE


def _ord_y(coeffs: list):
    """Index of the first nonzero entry; INFINITE for an all-zero list."""
    return next((k for k, c in enumerate(coeffs) if c), INFINITE)


def _certified_pair(p: BiPoly, q: BiPoly):
    """(a, b), p and q in an order with i_0 = ord_y Res_x(a, b), or None; the
    curve of lower x-degree is tried as b first.  An order is certified when
    lc_x(b) is a unit at y = 0 and a(x, 0), b(x, 0) share no root but x = 0:
    Res_x(a, b) is then, up to a unit, the product of a(beta, y) over the
    roots beta of b, and a root that meets a near y = 0 lies on a branch of
    b at the origin (Fulton, *Algebraic Curves*, sections 1.6 and 3.3).
    Fulton decides past the term budget (no dense rows, whose lengths are
    the x- and y-degrees) unless a is x-free."""
    dp, dq = p.degree_x(), q.degree_x()
    if min(dp, dq) and max(p.degree(), q.degree()) > DEFAULT_BUDGET:
        return None
    for a, b in ((p, q), (q, p)) if dq <= dp else ((q, p), (p, q)):
        # lc_x(b) is a unit at y = 0 iff it has a y^0 term (of x-degree >= 1)
        if (b.degree_x(), 0) in b.terms:
            # b(x, 0) = c x^d is read off the terms, with no dense list
            if sum(1 for _, j in b.terms if not j) == 1:
                return a, b
            # else a monomial gcd c x^k (if not, no order passes); an x-free a
            # has a(x, 0) = 0, and its gcd b(x, 0) is no c x^d: no dense list
            g = a.degree_x() and _ugcd(a.eval_y0_in_x(), b.eval_y0_in_x())
            return (a, b) if g and not any(g[:-1]) else None
    return None


def _primitive(terms: dict) -> dict:
    """The coprime integer multiple of a nonzero coefficient dict."""
    return dict(zip(terms, _uprimitive(terms.values())))


def _fulton(p: BiPoly, q: BiPoly):
    """i_0(p, q) by Fulton's reduction over Z, or INFINITE.  The total plus
    i_0 of the current pair stays i_0(p, q), and each split adds >= 1; a
    finite i_0(p, q) is at most cap = deg p * deg q (Bezout, after dividing
    out a common unit factor).  As m^n lies in an ideal of finite i_0 = n,
    terms of degree > cap - total change no verdict and are dropped.  The
    passes may number about cap, so a pass past the term budget raises
    BudgetExceeded."""
    cap, total, passes = p.degree() * q.degree(), 0, 0
    f, g = _primitive(p.terms), _primitive(q.terms)
    # a curve that misses the origin meets nothing there
    while (0, 0) not in f and (0, 0) not in g:
        passes += 1
        if passes > DEFAULT_BUDGET:
            raise BudgetExceeded("Fulton's reduction takes more passes than the term "
                                 "budget of %d" % DEFAULT_BUDGET)
        # degrees of the restrictions to y = 0; -1 when one vanishes
        r, s = (max((i for i, j in t if not j), default=-1) for t in (f, g))
        if r > s:
            f, g, r, s = g, f, s, r
        if s < 0:  # y divides both
            return INFINITE
        if r < 0:
            # f = y^k f1 and i_0(y, g) = ord_x g(x, 0) >= 1
            k = min(j for _, j in f)
            total += k * min(i for i, j in g if not j)
            if total > cap:
                return INFINITE
            f = {(i, j - k): c for (i, j), c in f.items()}
            continue
        # g -> lc(f0) g - lc(g0) x^(s-r) f cancels the top of g(x, 0)
        a, b, d = f[(r, 0)], g[(s, 0)], s - r
        h = {ij: a * c for ij, c in g.items()}
        for (i, j), c in f.items():
            h[i + d, j] = h.get((i + d, j), 0) - b * c
        h = {(i, j): c for (i, j), c in h.items() if c and i + j <= cap - total}
        if not h:  # h lies in m^(cap - total + 1) and f(0, 0) = 0
            return INFINITE
        g = _primitive(h)
    return total


def local_mult(P: PlaneCurve, Q: PlaneCurve, sampler: GenericSampler | None = None):
    """i_0(P, Q): a nonnegative integer, or INFINITE for a shared component
    through the origin.  Deterministic: ``sampler`` is unused, and the first
    of these steps that decides gives the value, each by a proof:
    1. tangent cones: when the cones (the terms of lowest degree) share no
       line, i_0 = m(P) m(Q), the product of the orders (W. Fulton,
       *Algebraic Curves*, section 3.3, property (5)); a smooth curve's
       cone is read off its coefficients of x and y, and two linear cones
       u x + v y and s x + t y share their line iff u t - v s = 0; else a
       monomial cone shares none unless x or y divides both, a linear cone
       u x + v y shares one iff the other cone vanishes at (v, -u), and
       other cones are tested by a gcd of the dehomogenized cones;
    2. a smooth branch: when P or Q has order 1 at the origin, ord_t of the
       other curve along its integer branch (v^2 t, Y(t)), one coefficient
       at a time (Fulton, section 3.3: I(P, F n G) = ord_P^F(G) at a simple
       point of F); INFINITE once the first deg P * deg Q coefficients
       vanish;
    3. one certificate: in an order (a, b) of the pair with lc_x(b) a unit at
       y = 0 and a(x, 0), b(x, 0) sharing no root but x = 0, ord_y Res_x(a, b),
       read off the terms when a is free of x, else after one
       pseudo-division by the subresultant sequence;
    4. Fulton's reduction (W. Fulton, *Algebraic Curves*, section 3.3) over
       Z, capped by Bezout: INFINITE once its total passes deg P * deg Q.
    Steps 2 and 3 leave the pair to the next step past the term budget, and
    Fulton's reduction raises BudgetExceeded on a pass past it.
    """
    value, _ = local_mult_detailed(P, Q, sampler)
    return value


def local_mult_detailed(P: PlaneCurve, Q: PlaneCurve,
                        sampler: GenericSampler | None = None):
    """(local_mult(P, Q), False): no step falls back on an unproved value,
    so the second entry, kept for callers that unpack a pair, is False."""
    if P.is_zero() or Q.is_zero():
        raise DegenerateInput("zero polynomial is not a curve")
    p, q = P.poly, Q.poly
    value = _cone_mult(p, q)
    if value is None:
        value = _branch_mult(p, q)
    if value is not None:
        return value, False
    pair = _certified_pair(p, q)
    if pair is None:
        return _fulton(p, q), False
    a, b = pair
    if not a.degree_x():  # Res_x(a, b) = a^deg_x(b)
        return b.degree_x() * a.ord_y(), False
    # A zero resultant is INFINITE: a common factor of positive x-degree has
    # a leading x-coefficient dividing lc_x(b), a unit at y = 0, so its
    # restriction to y = 0 has positive degree and divides the certified
    # c x^k (or b(x, 0) = c x^d); the factor passes through the origin.
    a, b = _int_coeff_rows(a), _int_coeff_rows(b)
    # when x-degrees dA >= dB, r = lc(b)^e a mod b (Horner's rule for a
    # linear b), and lc(b) is a unit at y = 0, so ord_y Res_x(a, b) =
    # ord_y Res_x(b, r); Res_x(b, r) is r^deg_x(b) when r is free of x
    r = _xprem(a, b) if len(a) >= len(b) else a
    value = (_ord_y(_resultant_rows(b, r)) if len(r) > 1
             else (len(b) - 1) * _ord_y(r[0]) if r else INFINITE)
    return value, False


def pullback(F: MapGerm, C: PlaneCurve, budget: int = DEFAULT_BUDGET) -> PlaneCurve:
    return PlaneCurve(C.poly.compose(F.fx, F.fy, budget))


def generic_member(generators: list[BiPoly], coeffs: list[int]) -> PlaneCurve:
    """The curve sum_i coeffs[i] * generators[i], summed in one dict."""
    acc: dict = {}
    for c, g in zip(coeffs, generators):
        for ij, e in g.terms.items():
            acc[ij] = acc.get(ij, 0) + c * e
    return PlaneCurve(BiPoly(acc))


def _parametrization(D: BiPoly, T: int):
    """An integer primitive parametrization (x(t), y(t)) of the germ D = 0
    when D is a graph c x - h(y) or c y - h(x) (c constant) or a coprime
    binomial c x^p + e y^q, read after clearing denominators; else None.
    Uncut, max(deg_t x, deg_t y) = deg D; the two coefficient lists are cut
    below t^T, and no coefficient past them is computed."""
    d = _primitive(D.terms)
    for k, lin in ((0, (1, 0)), (1, (0, 1))):
        if lin in d and all(ij[k] == 0 or ij == lin for ij in d):
            # c u = h(v): v = c t and u = h(c t) / c, integral since h(0) = 0
            c = d.pop(lin)
            u = [0] * min(max(map(sum, d), default=1) + 1, T)
            for ij, e in d.items():
                if sum(ij) < T:
                    u[sum(ij)] = -e * c ** (sum(ij) - 1)
            return (u, [0, c][:T]) if k == 0 else ([0, c][:T], u)
    if len(d) != 2:
        return None
    ((p, py), c), ((qx, q), e) = sorted(d.items(), reverse=True)
    if py or qx or gcd(p, q) != 1:
        return None
    # c x^p + e y^q vanishes at (s c^i e^j t^q, r c^g e^f t^p) when
    # 1 + i p = g q, j p = 1 + f q and s^p = -r^q; p, q >= 2 here, since a
    # binomial with an exponent 1 is a graph
    g, j = pow(q, -1, p), pow(p, -1, q)
    i, f = (g * q - 1) // p, (j * p - 1) // q
    s, r = (1, -1) if q % 2 else (-1, 1)
    return ([0] * q + [s * c**i * e**j] if q < T else [],
            [0] * p + [r * c**g * e**f] if p < T else [])


def _arc_jets(gamma, D: BiPoly, window: int, budget: int):
    """(jets, cut): gamma = _parametrization(D, budget) as t-jets (t^k kept
    as x^k, under the weights (1, 0)) of width ``window`` below the ceiling
    ``budget``, and whether the ceiling cut gamma.  A list the cut left
    all-zero is AtLeast(budget), unless its uncut value is 0: the x-list
    when D = c x, the y-list when D = c y."""
    jets = []
    for lin, u in zip(((1, 0), (0, 1)), gamma):
        terms = {(k, 0): c for k, c in enumerate(u) if c}
        zero = None if D.terms.keys() == {lin} else AtLeast(budget)
        jets.append((terms, min(terms)[0], window) if terms else zero)
    return jets, D.degree() >= budget  # gamma's t-degree is deg D


def mu_sequence(F: MapGerm, generators: list[BiPoly], z: list[int],
                w: list[int], n_max: int, sampler: GenericSampler,
                budget: int = DEFAULT_BUDGET) -> list[int]:
    """mu(n) = i_0(pullback of the z-member by F^n, w-member), n = 0..n_max.

    When the w-member D_w has an integer primitive parametrization gamma (a
    graph c x - h(y) or c y - h(x), or a coprime binomial c x^p + d y^q),
    mu(n) = ord_t D_z(F^n(gamma(t))), read off F^n(gamma) as t-jets of width
    W below the ceiling t^budget by ``bipoly.window_eval``.  W starts at 1
    and doubles, from gamma, when the lowest terms of D_z cancel past it;
    as a step lowers an exact limit by less than the ceiling, it ends below
    2 (n_max + 2) budget.  With no term left, D_z(F^n(gamma)) = 0 when
    nothing was cut or the limit is past Bezout's bound deg(D_z) deg(F)^n
    deg(D_w); a limit at ``budget`` is a budget failure.  Any other D_w goes
    through the pullbacks P_(n+1) = P_n(F), P_0 = D_z, and ``local_mult``.

    Raises InfiniteMultiplicity (with the failing index in the message) when
    the two curves share a component through the origin, and BudgetExceeded
    when mu(n) is not decided below t^budget.  ``sampler`` is unused, since
    local_mult draws nothing.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    Dz = generic_member(generators, z)
    Dw = generic_member(generators, w)
    if Dz.is_zero() or Dw.is_zero():
        raise DegenerateInput("zero polynomial is not a curve")
    out = []

    def shared(n):
        return InfiniteMultiplicity(
            "shared component at iterate %d; sequence %r so far" % (n, out))

    gamma = _parametrization(Dw.poly, budget)
    if gamma is None:
        P = Dz.poly
        for n in range(n_max + 1):
            if n:  # F's exponents meet the budget before any power of F is built
                for f in (F.fx, F.fy):
                    _guard_table(f.terms, budget)
                P = P.compose(F.fx, F.fy, budget)
            val = local_mult(PlaneCurve(P), Dw)
            if val is INFINITE:
                raise shared(n)
            out.append(val)
        return out
    deg_f = max(F.fx.degree(), F.fy.degree())
    window = 1
    while len(out) <= n_max:
        arc, cut = _arc_jets(gamma, Dw.poly, window, budget)
        for n in range(n_max + 1):
            powers = {}  # the powers of F^n(gamma) serve D_z and F
            if n == len(out):
                jet, cut = window_eval(Dz.poly.terms, arc, 1, 0, powers, cut,
                                       budget, budget)
                if type(jet) is tuple:
                    out.append(jet[1])
                elif jet is None or jet.bound > (Dz.poly.degree() * deg_f ** n
                                                 * Dw.poly.degree()):
                    raise shared(n)
                elif jet.bound >= budget:
                    raise BudgetExceeded(
                        "mu(%d) is at least %d, the jet budget" % (n, budget))
                else:  # recompute the arc from gamma in a wider window
                    window *= 2
                    break
            if n < n_max:  # F on the arc, the cut threaded through
                fx, cut = window_eval(F.fx.terms, arc, 1, 0, powers, cut, budget, budget)
                fy, cut = window_eval(F.fy.terms, arc, 1, 0, powers, cut, budget, budget)
                arc = [fx, fy]
    return out


_TRIALS = 3  # generic member pairs samuel_via_generic compares


def samuel_via_generic(generators: list[BiPoly], sampler: GenericSampler) -> int:
    """Common intersection number of ``_TRIALS`` = 3 independent generic
    member pairs."""
    values = []
    for _ in range(_TRIALS):
        z = sampler.draw_vector(len(generators))
        w = sampler.draw_vector(len(generators))
        D1 = generic_member(generators, z)
        D2 = generic_member(generators, w)
        v = local_mult(D1, D2)
        if v is INFINITE:
            raise GenericityFailure("generic members shared a component")
        values.append(v)
    if len(set(values)) != 1:
        raise GenericityFailure("generic trials disagreed: %r" % values)
    return values[0]
