"""Seeded inputs and correctness checks for the three workloads.

This module runs in the benchmark's own process and does not import germdyn:
the checks are independent of the code under test.  Each generator gives the
same inputs for the same seed, and the same number of operations for every
seed, so the tail percentile is fixed per workload.

  family        curve-family certification through the CLI
  iterate       dynamics of iterates through the CLI
  multiplicity  a library batch of intersection multiplicities
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

PAPER_MAP = "(x^2 - y^4, y^4)"
CUSP_MAP = "(x^2 + y^3, x y)"
SWAP_MAP = "(y^2, x^2 - y^3)"
FIBONACCI_MAP = "(y, x y)"  # rate sequence has an irrational dominant root

# c-seq weights (wx, wy), normalized so that min(wx, wy) = 1
WEIGHTS = [("1", "1"), ("2", "1"), ("1", "2"), ("3/2", "1"), ("1", "3/2"),
           ("5/2", "1"), ("1", "7/3"), ("3", "1")]
# c-seq scaling ladders (map, nmax, jobs per pass); the next rung of each
# takes seconds or is a cliff (see NOTES.md)
CSEQ_LADDER = [(PAPER_MAP, 3, 2), (PAPER_MAP, 4, 2), (PAPER_MAP, 5, 2), (PAPER_MAP, 6, 2),
               (CUSP_MAP, 3, 2), (CUSP_MAP, 4, 2), (CUSP_MAP, 5, 3),
               (SWAP_MAP, 3, 2), (SWAP_MAP, 4, 3),
               (FIBONACCI_MAP, 6, 2), (FIBONACCI_MAP, 10, 2), (FIBONACCI_MAP, 14, 2)]
CINF_JOBS = [(PAPER_MAP, 5), (PAPER_MAP, 6), (CUSP_MAP, 5), (SWAP_MAP, 4),
             (FIBONACCI_MAP, 8), (FIBONACCI_MAP, 10)]
LINEAR_COEFFS = (-3, -2, 2, 3)  # x - y fails on SWAP_MAP at nmax 3: mu = 2, 3, 5, 9
# pipeline jobs: (map, ideal template, nmax); "{l}" is a seeded x + a*y
PIPELINE_JOBS = [(PAPER_MAP, "x, y", 4), (PAPER_MAP, "x, y", 5),
                 (PAPER_MAP, "{l}, y^2", 4), (PAPER_MAP, "{l}, y^2", 5),
                 (PAPER_MAP, "{l}, y^3", 4), (CUSP_MAP, "x, y", 3),
                 (CUSP_MAP, "x, y", 4), (SWAP_MAP, "x, y", 3),
                 (SWAP_MAP, "{l}, y^2", 3)]
MU_IDEAL = "x^2, y^3"  # non-smooth generic member: resultant path only
MU_NMAX = 3


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def argv_key(argv) -> str:
    return json.dumps(list(argv))


def mu_key(map_text: str, ideal: str, nmax: int) -> str:
    return "%s|%s|%d" % (map_text, ideal, nmax)


def linear_form(a: int) -> str:
    return "x %s %d y" % ("+" if a > 0 else "-", abs(a))


class Job:
    """One CLI invocation and the check its output must pass."""

    __slots__ = ("argv", "kind", "data")

    def __init__(self, argv, kind, data=None):
        self.argv = argv
        self.kind = kind
        self.data = data


# -- binary sequences, as the orchestrator models them ------------------------

class Seq:
    """prefix + tail, tail one of "0", "1" or a repeating cycle."""

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: str, tail: str):
        self.prefix = prefix
        self.tail = tail

    def literal(self) -> str:
        if self.tail in ("0", "1"):
            return "%s:%s..." % (self.prefix, self.tail)
        return "%s:(%s)" % (self.prefix, self.tail)

    def bit(self, i: int) -> int:
        if i < len(self.prefix):
            return int(self.prefix[i])
        i -= len(self.prefix)
        return int(self.tail[i % len(self.tail)])

    def shift(self) -> "Seq":
        if self.prefix:
            return Seq(self.prefix[1:], self.tail)
        return Seq("", self.tail[1:] + self.tail[:1])


def _bits(rng, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _random_seq(rng, kind: str) -> Seq:
    prefix = _bits(rng, rng.randint(0, 6))
    if kind != "periodic":
        return Seq(prefix, kind)
    cycle = "0"
    while len(set(cycle)) < 2:
        cycle = _bits(rng, rng.randint(2, 4))
    return Seq(prefix, cycle)


def _pair_differing_at(rng, m: int) -> tuple[Seq, Seq]:
    """Two sequences whose first disagreement is exactly at index m."""
    a = _random_seq(rng, rng.choice(["0", "1", "periodic"]))
    head = "".join(str(a.bit(i)) for i in range(m)) + str(1 - a.bit(m))
    b = _random_seq(rng, rng.choice(["0", "1", "periodic"]))
    return a, Seq(head + b.prefix, b.tail)


def coefficient_oracle(seq: Seq, n: int) -> list[Fraction]:
    """a_0 .. a_(n-1) of g_s straight from g_s(y)^2 = y^4 - g_(shift s)(y^4),
    in plain Fractions: coefficient of y^(4+4t) gives
    sum_(i+j=t) a_i a_j = -b_((t-1)/4) when t = 1 mod 4, else 0."""
    a0 = Fraction(-1 if seq.bit(0) else 1)
    if n <= 1:
        return [a0][:n]
    b = coefficient_oracle(seq.shift(), (n - 2) // 4 + 1)
    a = [a0]
    for t in range(1, n):
        conv = sum(a[i] * a[t - i] for i in range(1, t))
        rhs = -b[(t - 1) // 4] if t % 4 == 1 else 0
        a.append((rhs - conv) / (2 * a0))
    return a


def contact_order(m: int) -> int:
    return (4 ** (m + 1) + 2) // 3


def arnold_witnesses(nu, count: int):
    """(n_k, M_k, nu(n_k)) of the run-length construction."""
    out, pos = [], 0
    for _ in range(count):
        value = nu(pos)
        out.append((pos, value + 1, value))
        pos += value + 2
    return out


# -- workload generators ------------------------------------------------------

def family_jobs(seed: int) -> list[Job]:
    rng = _rng("family", seed)
    kinds = ["0", "1", "periodic"]
    pool = [_random_seq(rng, kinds[i % 3]) for i in range(12)]
    jobs = []
    for check, sizes in (("bound", (600, 800, 800, 1000, 1200)),
                         ("functoriality", (800, 1000, 1500, 1500, 2000))):
        for n in sizes:
            s = rng.choice(pool)
            jobs.append(Job(["verify", check, "--seq", s.literal(), "--n", str(n)],
                            "verdict"))
    for n in (1500, 2500, 3500):
        jobs.append(Job(["verify", "lemma", "--n", str(n)], "verdict"))
    for _ in range(7):
        s = rng.choice(pool)
        n = rng.randint(20, 200)
        jobs.append(Job(["curve", "coeffs", "--seq", s.literal(), "--n", str(n)],
                        "coeffs", (s, n)))
    for i in range(8):
        a, b = _pair_differing_at(rng, i % 6)
        jobs.append(Job(["curve", "mult", "--a", a.literal(), "--b", b.literal()],
                        "mult", i % 6))
    for _ in range(6):
        a, b = _pair_differing_at(rng, rng.randint(0, 5))
        jobs.append(Job(["verify", "section3", "--a", a.literal(), "--b", b.literal()],
                        "verdict"))
    # the run-length ("blocks") sequences are reachable only through arnold
    for i in range(6):
        if i < 4:
            k = rng.randint(2, 12)
            spec, nu = "pow:%d" % k, (lambda n, k=k: k ** n)
        else:
            spec, nu = "factorial", math.factorial
        jobs.append(Job(["arnold", "--nu", spec, "--witnesses", "3"], "arnold",
                        arnold_witnesses(nu, 3)))
    return jobs


def iterate_jobs(seed: int) -> list[Job]:
    rng = _rng("iterate", seed)
    jobs = []
    for map_text, nmax, count in CSEQ_LADDER:
        for wx, wy in rng.sample(WEIGHTS, count):
            jobs.append(Job(["c-seq", "--map", map_text, "--wx", wx, "--wy", wy,
                             "--nmax", str(nmax)], "catalogue"))
    for map_text, nmax in CINF_JOBS:
        jobs.append(Job(["c-inf", "--map", map_text, "--nmax", str(nmax)], "catalogue"))
    for map_text, template, nmax in PIPELINE_JOBS:
        ideal = template.format(l=linear_form(rng.choice(LINEAR_COEFFS)))
        jobs.append(Job(["pipeline", "--map", map_text, "--ideal", ideal,
                         "--nmax", str(nmax), "--seed", str(rng.randrange(10**6))],
                        "pipeline", mu_key(map_text, ideal, nmax)))
    return jobs


def iterate_catalogue() -> tuple[list[list[str]], list[list[str]]]:
    """Every seed-independent iterate job (c-seq, c-inf) any seed can draw,
    and one pipeline per (map, ideal, nmax) any seed can draw."""
    fixed = []
    for map_text, nmax, _ in CSEQ_LADDER:
        for wx, wy in WEIGHTS:
            fixed.append(["c-seq", "--map", map_text, "--wx", wx, "--wy", wy,
                          "--nmax", str(nmax)])
    for map_text, nmax in CINF_JOBS:
        fixed.append(["c-inf", "--map", map_text, "--nmax", str(nmax)])
    pipelines = []
    for map_text, template, nmax in PIPELINE_JOBS:
        ideals = sorted({template.format(l=linear_form(a)) for a in LINEAR_COEFFS})
        for ideal in ideals:
            pipelines.append(["pipeline", "--map", map_text, "--ideal", ideal,
                              "--nmax", str(nmax), "--seed", "0"])
    return fixed, pipelines


def _random_curve(rng) -> list[list[int]]:
    """c x + d y + quadratic part q, with (c, d) != 0 and q not a multiple of
    the linear part: such a curve is irreducible, so two of them share a
    component only when one is a multiple of the other, and never a
    component missing the origin."""
    while True:
        c, d = rng.randint(-3, 3), rng.randint(-3, 3)
        q20, q11, q02 = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        if (c, d) == (0, 0):
            continue
        if (q20, q11, q02) != (0, 0, 0) and q20 * d * d - q11 * c * d + q02 * c * c == 0:
            continue
        return [[1, 0, c], [0, 1, d], [2, 0, q20], [1, 1, q11], [0, 2, q02]]


def _graph_curve(rng) -> list[list[int]]:
    """x - h(y), which takes the graph fast path against another graph."""
    return [[1, 0, 1], [0, 1, rng.randint(-3, 3)], [0, 2, rng.choice([-2, -1, 1, 2])]]


def _scaled(terms, k: int) -> list[list[int]]:
    return [[i, j, k * c] for i, j, c in terms]


def multiplicity_spec(seed: int) -> dict:
    rng = _rng("multiplicity", seed)
    triples = []
    for _ in range(450):
        roll = rng.random()
        if roll < 0.15:
            p, q, r = _graph_curve(rng), _graph_curve(rng), _random_curve(rng)
        else:
            p, q, r = _random_curve(rng), _random_curve(rng), _random_curve(rng)
            if roll < 0.25:
                r = _scaled(p, -1)  # shared component: i_0 is infinite
            elif roll < 0.30:
                q = _scaled(p, 2)
        triples.append([p, q, r])
    mu = [{"map": PAPER_MAP, "ideal": MU_IDEAL, "nmax": MU_NMAX,
           "seed": rng.randrange(10**6)} for _ in range(3)]
    ideals = []
    for _ in range(25):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        gens = {(p, 0), (0, q)}
        for _ in range(rng.randint(0, 3)):
            if p > 1 and q > 1:
                gens.add((rng.randint(1, p - 1), rng.randint(1, q - 1)))
        ideals.append({"gens": sorted(gens), "fit_hi": 8,
                       "seed": rng.randrange(10**6)})
    charts = []
    for _ in range(40):
        r = rng.randint(1, 6)
        prox = [[i, i - 1] for i in range(2, r + 1)]
        prox += [[i, i - 2] for i in range(3, r + 1) if rng.random() < 0.4]
        i, j = rng.randint(1, r), rng.randint(1, r)
        charts.append({"r": r, "prox": prox, "axis": rng.choice(["x", "y"]),
                       "pairs": [[i, j], [j, i]]})
    return {"sampler_seed": rng.randrange(10**6), "triples": triples, "mu": mu,
            "ideals": ideals, "charts": charts}


# -- checks -------------------------------------------------------------------

def check_cli(job: Job, code: int, out: bytes, golden: dict):
    """None when the job's output is right, else the reason it is not."""
    recorded = golden["sha256"].get(argv_key(job.argv))
    if recorded is not None:
        digest = hashlib.sha256(out).hexdigest()
        if [digest, code] != recorded:
            return "stdout/exit differ from the recorded run"
    if job.kind == "catalogue":
        return None if recorded is not None else "no recorded output"
    if code != 0:
        return "exit code %d" % code
    try:
        data = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if job.kind == "verdict":
        return None if data.get("result") == "PASS" else "verdict not PASS"
    if job.kind == "coeffs":
        seq, n = job.data
        want = coefficient_oracle(seq, n + 1)
        got = [Fraction(int(c["num"]), 1 << c["exp2"]) for c in data["coefficients"]]
        return None if got == want else "coefficients differ from the oracle"
    if job.kind == "mult":
        want = str(contact_order(job.data))
        ok = data["formula"] == data["coefficientwise"] == want and data["agree"] is True
        return None if ok else "contact order differs from (4^(m+1)+2)/3"
    if job.kind == "arnold":
        got = [(int(w["n"]), int(w["M"]), int(w["nu"])) for w in data["witnesses"]]
        ok = (data["result"] == "PASS" and data["finite_contacts_certified"] is True
              and got == job.data)
        return None if ok else "witnesses differ from the construction"
    if job.kind == "pipeline":
        want = golden["mu"].get(job.data)
        ok = data.get("result") == "PASS" and data["mu"] == want
        return None if ok else "pipeline verdict or mu differs"
    raise ValueError("unknown check %r" % job.kind)


def check_multiplicity(spec: dict, results: list, golden: dict) -> set[int]:
    """Indices of failed operations.  Each law covers a group of operations;
    an error in any of them or a broken law fails the whole group."""
    failed: set[int] = set()
    pos = 0

    def group(size, law):
        nonlocal pos
        vals = results[pos:pos + size]
        ok = not any(isinstance(v, dict) and "error" in v for v in vals)
        if ok:
            try:
                ok = law(vals)
            except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError):
                ok = False
        if not ok:
            failed.update(range(pos, pos + size))
        pos += size

    def local_mult_laws(v):
        pq, qp, pr, pqr = v
        if pq != qp:
            return False
        if "inf" in (pq, pr):
            return pqr == "inf"
        return pqr == pq + pr

    for _ in spec["triples"]:
        group(4, local_mult_laws)
    for job in spec["mu"]:
        want = golden["mu"].get(mu_key(job["map"], job["ideal"], job["nmax"]))
        group(1, lambda v: [str(m) for m in v[0]] == want)
    for _ in spec["ideals"]:
        group(3, lambda v: v[0] == v[1] == v[2])
    for chart in spec["charts"]:
        group(1 + len(chart["pairs"]), lambda v, c=chart: _chart_laws(c, v))
    if pos != len(results):
        failed.update(range(len(results)))
    return failed


def _chart_laws(chart, vals) -> bool:
    """N = -P^T P, N times dual is the identity, generic multiplicities
    start at 1 and stay positive, and skewness is the symmetric normalized
    dual pairing."""
    r = chart["r"]
    P = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j in chart["prox"]:
        P[i - 1][j - 1] = -1
    N = [[-sum(P[k][i] * P[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    lat = vals[0]
    dual = [[Fraction(v) for v in row] for row in lat["dual"]]
    b = lat["b"]
    if lat["N"] != N or b[0] != 1 or min(b) < 1:
        return False
    for i in range(r):
        for j in range(r):
            if sum(N[i][k] * dual[k][j] for k in range(r)) != (1 if i == j else 0):
                return False
    skews = [Fraction(v) for v in vals[1:]]
    (i, j), _ = chart["pairs"]
    want = -dual[i - 1][j - 1] / (b[i - 1] * b[j - 1])
    return all(s == want for s in skews)


WORKLOADS = {
    "family": "cli",
    "iterate": "cli",
    "multiplicity": "lib",
}
