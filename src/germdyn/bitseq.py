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
    """A prefix of bits, then a tail.  A blocks tail keeps its run lengths
    as one tuple that every shift of it shares, with the index of its
    current run and the zeros left in that run, so a shift copies nothing;
    ``param`` spells the remaining runs out."""

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
            param = None
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
            return self._param
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
        if self.tail == ZEROS:
            return 0
        if self.tail == ONES:
            return 1
        if self.tail == PERIODIC:
            return self._param[k % len(self._param)]
        return 0 if _run_at(self, k)[1] else 1

    # -- shift --------------------------------------------------------------

    def shift(self) -> "BitSeq":
        return self.shift_by(1)

    def shift_by(self, n: int) -> "BitSeq":
        """sigma**n, with jumps over long zero runs instead of n single steps:
        a blocks tail restarts inside the run that ``_run_at`` places n in,
        on the same run lengths."""
        if n < 0:
            raise ValueError("negative shift")
        s = self
        if n and s.prefix:
            drop = min(n, len(s.prefix))
            s = _bitseq(s.prefix[drop:], s.tail, s._param, s._run, s._head)
            n -= drop
        if n == 0:
            return s
        if s.tail in (ZEROS, ONES):
            return s
        if s.tail == PERIODIC:
            c = s._param
            r = n % len(c)
            return _bitseq((), PERIODIC, c[r:] + c[:r])
        return _bitseq((), BLOCKS, s._param, *_run_at(s, n))

    # -- structure queries --------------------------------------------------

    def first_one(self, horizon):
        """Index of the first 1 bit below ``horizon`` (may be a huge int), else
        AtLeast(horizon)."""
        for i, b in enumerate(self.prefix):
            if i >= horizon:
                return AtLeast(horizon)
            if b:
                return i
        base = len(self.prefix)
        if base >= horizon:
            return AtLeast(horizon)
        if self.tail == ZEROS:
            return AtLeast(horizon)
        if self.tail == ONES:
            return base
        if self.tail == PERIODIC:
            for i, b in enumerate(self.param):
                if b and base + i < horizon:
                    return base + i
            return AtLeast(horizon)
        pos = base + self._head
        return pos if pos < horizon else AtLeast(horizon)

    def canonical_key(self):
        """Hashable form identifying the sequence; shifts of periodic
        sequences collapse onto finitely many keys."""
        prefix = list(self.prefix)
        tail, param = self.tail, self.param
        if tail == PERIODIC:
            param = _primitive_cycle(param)
            if all(b == 0 for b in param):
                tail, param = ZEROS, None
            elif all(b == 1 for b in param):
                tail, param = ONES, None
        while prefix:
            b = prefix[-1]
            if tail == ZEROS and b == 0:
                prefix.pop()
            elif tail == ONES and b == 1:
                prefix.pop()
            elif tail == PERIODIC and b == param[-1]:
                prefix.pop()
                param = param[-1:] + param[:-1]
            else:
                break
        return (tuple(prefix), tail, param)

    def same_sequence(self, other: "BitSeq") -> bool:
        return self.canonical_key() == other.canonical_key()

    def __repr__(self):
        return "BitSeq(%r, %s, %r)" % (list(self.prefix), self.tail, self.param)

    def __str__(self):
        p = "".join(str(b) for b in self.prefix)
        if self.tail == ZEROS:
            return p + ":0..." if p else "0..."
        if self.tail == ONES:
            return p + ":1..." if p else "1..."
        if self.tail == PERIODIC:
            return "%s:(%s)" % (p, "".join(str(b) for b in self.param))
        return "%s:blocks%r" % (p, list(self.param))


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
    n = len(c)
    for d in range(1, n + 1):
        if n % d == 0 and c == c[:d] * (n // d):
            return c[:d]
    return c


def _all_zeros(s: BitSeq) -> bool:
    """Whether s is 0 0 0 ..., read off its parts without a canonical key."""
    if any(s.prefix):
        return False
    return s.tail == ZEROS or s.tail == PERIODIC and not any(s._param)


def first_difference(s: BitSeq, t: BitSeq, horizon):
    """Least index m < horizon with s_m != t_m, else AtLeast(horizon)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    # a blocks tail holds ones, so its key is never a key of another kind
    # and it is never all zeros: it needs no key unless both are blocks
    if (s.tail == BLOCKS) == (t.tail == BLOCKS) and s.canonical_key() == t.canonical_key():
        return AtLeast(horizon)
    # an all-zeros side reduces to a structural first-one query, which
    # handles astronomically long zero runs
    if _all_zeros(s):
        return t.first_one(horizon)
    if _all_zeros(t):
        return s.first_one(horizon)
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
