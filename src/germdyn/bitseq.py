"""Infinite binary sequences with effective tails.

A sequence is a finite prefix plus a tail rule: all zeros, all ones, a
repeating cycle, or runs of zeros separated by single ones (given by a list
of run lengths whose last entry repeats forever).  All four forms are closed
under the left shift, and every bit is computable, so shifts and
first-difference queries are total operations.
"""

from __future__ import annotations

from .bounds import AtLeast

ZEROS = "zeros"
ONES = "ones"
PERIODIC = "periodic"
BLOCKS = "blocks"

_SCAN_CAP = 10**6


class BitSeq:
    """A prefix of bits, then a tail.  A constant tail is kept as the cycle
    (0,) or (1,), so zeros, ones and periodic tails share one code path.  A
    blocks tail keeps its run lengths as one tuple that every shift of it
    shares, with the index of its current run and the zeros left in that
    run, so a shift copies nothing; ``param`` spells the remaining runs out."""

    __slots__ = ("prefix", "tail", "_param", "_run", "_head")

    def __init__(self, prefix, tail: str, param=None):
        prefix = tuple(int(b) for b in prefix)
        if any(b not in (0, 1) for b in prefix):
            raise ValueError("bits must be 0 or 1")
        if tail == PERIODIC:
            param = tuple(int(b) for b in param)
            if not param:
                raise ValueError("empty cycle")
        elif tail == BLOCKS:
            param = tuple(int(x) for x in param)
            if not param or any(x < 0 for x in param):
                raise ValueError("block lengths must be nonnegative and nonempty")
        elif tail in (ZEROS, ONES):
            param = (int(tail == ONES),)
        else:
            raise ValueError("unknown tail kind %r" % tail)
        self.prefix = prefix
        self.tail = tail
        self._param = param
        self._run, self._head = (0, param[0]) if tail == BLOCKS else (None, None)

    @property
    def param(self):
        """None for a constant tail, the cycle of a periodic one, and for a
        blocks tail the run lengths from the current run on, the last one
        repeating."""
        if self.tail != BLOCKS:
            return self._param if self.tail == PERIODIC else None
        runs, i, head = self._param, self._run, self._head
        last = len(runs) - 1
        if i == last and head == runs[last]:
            return (head,)
        return (head,) + runs[min(i + 1, last):]

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, prefix=()):
        return cls(prefix, ZEROS)

    @classmethod
    def ones(cls, prefix=()):
        return cls(prefix, ONES)

    @classmethod
    def periodic(cls, prefix, cycle):
        return cls(prefix, PERIODIC, cycle)

    @classmethod
    def blocks(cls, lengths, prefix=()):
        return cls(prefix, BLOCKS, lengths)

    # -- bit access ---------------------------------------------------------

    def bit(self, n: int) -> int:
        if n < 0:
            raise IndexError("negative index")
        if n < len(self.prefix):
            return self.prefix[n]
        k = n - len(self.prefix)
        if self.tail == BLOCKS:
            return 0 if _run_at(self, k)[1] else 1
        return self._param[k % len(self._param)]

    # -- shift --------------------------------------------------------------

    def shift(self) -> "BitSeq":
        return self.shift_by(1)

    def shift_by(self, n: int) -> "BitSeq":
        """sigma**n, with jumps over long zero runs instead of n single steps:
        a cycle is rotated by n mod its length, and a blocks tail restarts
        inside the run that ``_run_at`` places n in, on the same run lengths."""
        if n < 0:
            raise ValueError("negative shift")
        s = self
        if n and s.prefix:
            drop = min(n, len(s.prefix))
            s = _bitseq(s.prefix[drop:], s.tail, s._param, s._run, s._head)
            n -= drop
        if n == 0:
            return s
        if s.tail == BLOCKS:
            return _bitseq((), BLOCKS, s._param, *_run_at(s, n))
        c = s._param
        r = n % len(c)
        return _bitseq((), s.tail, c[r:] + c[:r]) if r else s

    # -- structure queries --------------------------------------------------

    def first_one(self, horizon):
        """Index of the first 1 bit below ``horizon`` (may be a huge int), else
        AtLeast(horizon)."""
        p, c = self.prefix, self._param
        if 1 in p:
            pos = p.index(1)
        elif self.tail == BLOCKS:
            pos = len(p) + self._head
        elif 1 in c:
            pos = len(p) + c.index(1)
        else:
            return AtLeast(horizon)
        return pos if pos < horizon else AtLeast(horizon)

    def canonical_key(self):
        """Hashable form of the sequence's bits: two BitSeqs have one key iff
        they agree at every index.  A tail that ends in one run of zeros and
        a one, repeated (every blocks tail, and every cycle with a single 1),
        is keyed by all its run lengths, the prefix's folded in front and
        repeats of the last one dropped.  Any other tail is keyed by its
        primitive cycle after the shortest prefix."""
        if self.tail == BLOCKS:
            runs = self.param
        else:
            c = _primitive_cycle(self._param)
            if c.count(1) == 1:
                runs = (c.index(1), len(c) - 1)
            else:
                prefix = list(self.prefix)
                while prefix and prefix[-1] == c[-1]:
                    prefix.pop()
                    c = c[-1:] + c[:-1]
                return (tuple(prefix), PERIODIC, c)
        zeros = [len(z) for z in bytes(self.prefix).split(b"\x01")]  # runs of the prefix
        folded = zeros[:-1] + [zeros[-1] + runs[0], *runs[1:], runs[-1]]
        while len(folded) > 1 and folded[-1] == folded[-2]:
            folded.pop()
        return ((), BLOCKS, tuple(folded))

    def same_sequence(self, other: "BitSeq") -> bool:
        return self.canonical_key() == other.canonical_key()

    def __repr__(self):
        return "BitSeq(%r, %s, %r)" % (list(self.prefix), self.tail, self.param)

    def __str__(self):
        p = "".join(str(b) for b in self.prefix)
        if self.tail == BLOCKS:
            return "%s:blocks%r" % (p, list(self.param))
        c = "".join(str(b) for b in self._param)
        if self.tail == PERIODIC:
            return "%s:(%s)" % (p, c)
        return "%s:%s..." % (p, c) if p else c + "..."


def _bitseq(prefix: tuple, tail: str, param, run=None, head=None) -> BitSeq:
    """A BitSeq over parts that ``BitSeq.__init__`` has already checked."""
    s = BitSeq.__new__(BitSeq)
    s.prefix, s.tail, s._param, s._run, s._head = prefix, tail, param, run, head
    return s


def _run_at(s: BitSeq, k: int) -> tuple[int, int]:
    """(j, z): bit k of the blocks tail of s lies in run j of its lengths,
    with z zeros of that run left from it on, so it is 1 iff z == 0.  The
    tail is ``s._head`` zeros and a one, then runs L_j zeros and a one from
    the next run on; the last run repeats, so there k is taken mod L + 1."""
    i, head = s._run, s._head
    if k <= head:
        return i, head - k
    k -= head + 1
    runs = s._param
    last = len(runs) - 1
    j = min(i + 1, last)
    while j < last and k > runs[j]:
        k -= runs[j] + 1
        j += 1
    if j == last:
        k %= runs[j] + 1
    return j, runs[j] - k


def _primitive_cycle(c):
    return next(c[:d] for d in range(1, len(c) + 1) if c[:d] * (len(c) // d) == c)


def _all_zeros(s: BitSeq) -> bool:
    """Whether s is 0 0 0 ..., read off its parts without a canonical key."""
    return not any(s.prefix) and s.tail != BLOCKS and not any(s._param)


def first_difference(s: BitSeq, t: BitSeq, horizon):
    """Least index m < horizon with s_m != t_m, else AtLeast(horizon).

    An all-zeros side reduces to a structural first-one query, which handles
    astronomically long zero runs and builds no key.  Otherwise equal keys
    mean equal sequences, and a bit scan up to ``_SCAN_CAP`` finds the rest."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if _all_zeros(s):
        return t.first_one(horizon)
    if _all_zeros(t):
        return s.first_one(horizon)
    if s.canonical_key() == t.canonical_key():
        return AtLeast(horizon)
    cap = min(horizon, _SCAN_CAP)
    for m in range(cap):
        if s.bit(m) != t.bit(m):
            return m
    if horizon > _SCAN_CAP:
        raise OverflowError(
            "bitwise scan capped at %d; no difference found" % _SCAN_CAP
        )
    return AtLeast(horizon)


def parse_bitseq(text: str) -> BitSeq:
    """Parse sequence literals: "0110", "0110:(10)", "01:0...", "01:1..."."""
    text = text.strip().replace("…", "...")
    if ":" not in text:
        prefix, tail = text, "0..."
    else:
        prefix, tail = text.split(":", 1)
    if any(ch not in "01" for ch in prefix):
        raise ValueError("bad prefix %r: bits must be 0/1" % prefix)
    bits = [int(ch) for ch in prefix]
    tail = tail.strip()
    if tail == "0...":
        return BitSeq.zeros(bits)
    if tail == "1...":
        return BitSeq.ones(bits)
    if tail.startswith("(") and tail.endswith(")"):
        cycle = tail[1:-1]
        if not cycle or any(ch not in "01" for ch in cycle):
            raise ValueError("bad cycle %r" % cycle)
        return BitSeq.periodic(bits, [int(ch) for ch in cycle])
    raise ValueError("unrecognized tail %r" % tail)
