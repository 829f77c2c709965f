import math
import random

import pytest

from germdyn.bitseq import (
    BLOCKS,
    ONES,
    PERIODIC,
    ZEROS,
    BitSeq,
    first_difference,
    parse_bitseq,
)
from germdyn.series import AtLeast


def rand_seq(rng):
    prefix = [rng.randint(0, 1) for _ in range(rng.randint(0, 5))]
    kind = rng.randrange(4)
    if kind == 0:
        return BitSeq.zeros(prefix)
    if kind == 1:
        return BitSeq.ones(prefix)
    if kind == 2:
        cycle = [rng.randint(0, 1) for _ in range(rng.randint(1, 4))]
        return BitSeq.periodic(prefix, cycle)
    lengths = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
    return BitSeq.blocks(lengths, prefix)


def test_bit_access():
    s = BitSeq.periodic([1, 1], [0, 1])
    assert [s.bit(n) for n in range(8)] == [1, 1, 0, 1, 0, 1, 0, 1]
    z = BitSeq.zeros([1])
    assert [z.bit(n) for n in range(4)] == [1, 0, 0, 0]
    b = BitSeq.blocks([2, 1])
    # 0 0 1 | 0 1 | 0 1 ... (last run length repeats)
    assert [b.bit(n) for n in range(9)] == [0, 0, 1, 0, 1, 0, 1, 0, 1]


def test_shift_matches_bits():
    rng = random.Random(4242)
    for _ in range(300):
        s = rand_seq(rng)
        t = s.shift()
        assert [t.bit(n) for n in range(20)] == [s.bit(n + 1) for n in range(20)]


def test_shift_by_matches_bit_access():
    rng = random.Random(9899)
    seqs = [rand_seq(rng) for _ in range(300)]
    # 1 to 40 runs: jumps across several runs and into the repeating last run
    seqs += [BitSeq.blocks([rng.randint(0, 6) for _ in range(rng.randint(1, 40))],
                           [rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
             for _ in range(200)]
    for s in seqs:
        reach = len(s.prefix) + (sum(s.param) + len(s.param) if s.tail == BLOCKS else 4)
        for k in [0, 1, reach] + [rng.randint(0, reach + 10) for _ in range(6)]:
            u = s.shift_by(k)
            assert [u.bit(n) for n in range(20)] == [s.bit(k + n) for n in range(20)], (s, k)


def expand(s, upto):
    """The first ``upto`` bits of s, written out from its parts: the prefix,
    then the tail (a blocks run i is L_i zeros and a one, the last run
    repeated); an oracle that shares no code with BitSeq.bit."""
    bits = list(s.prefix)
    i = 0
    while len(bits) < upto:
        if s.tail == BLOCKS:
            bits += [0] * s.param[min(i, len(s.param) - 1)] + [1]
            i += 1
        elif s.tail == PERIODIC:
            bits += s.param
        else:
            bits.append(1 if s.tail == ONES else 0)
    return bits[:upto]


def test_blocks_bits_and_shifts_match_an_expansion_of_the_runs():
    """bit and shift_by on blocks tails against the written-out runs, at every
    offset, including zero-length runs, offsets on a run's one and the
    repeating last run; a shift is also checked by expanding its parts."""
    rng = random.Random(5113)
    cases = [((0,), ()), ((0, 0, 3), (1,)), ((2, 0), ()), ((3, 0, 0, 1, 0), (0, 1)),
             ((4,), (1, 1, 0))]
    cases += [(tuple(rng.choice((0, 0, 1, 2, 5)) for _ in range(rng.randint(1, 6))),
               tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3))))
              for _ in range(60)]
    for lengths, prefix in cases:
        s = BitSeq.blocks(lengths, prefix)
        reach = len(prefix) + sum(lengths) + len(lengths) + 3 * (lengths[-1] + 1)
        want = expand(s, reach + 30)
        assert [s.bit(n) for n in range(reach + 30)] == want, (lengths, prefix)
        for k in range(reach):
            u = s.shift_by(k)
            assert u.tail == BLOCKS and expand(u, 30) == want[k:k + 30], (s, k)
            assert [u.bit(n) for n in range(30)] == want[k:k + 30], (s, k)


def test_blocks_bit_and_shift_by_at_huge_indices():
    A, B, P = 10**30, 10**20, 3 * 10**40
    s = BitSeq.blocks([A, 3, B, 2])
    tail = A + 6 + B  # the repeating run 0 0 1 starts here
    ones = {A, A + 4, A + 5 + B, tail + 2, tail + P + 2}
    for k in (0, A - 1, A, A + 1, A + 3, A + 4, A + 5, A + 4 + B, A + 5 + B,
              tail, tail + 2, tail + P, tail + P + 1, tail + P + 2, tail + P + 3):
        assert s.bit(k) == (k in ones), k
    for k, param in ((A, (0, 3, B, 2)), (A + 1, (3, B, 2)), (A + 2, (2, B, 2)),
                     (A + 4, (0, B, 2)), (A + 5 + B, (0, 2)), (tail, (2,)),
                     (tail + P, (2,)), (tail + P + 1, (1, 2)), (tail + P + 2, (0, 2))):
        u = s.shift_by(k)
        assert (u.prefix, u.param) == ((), param), k


def test_shift_by_huge_jump():
    b = BitSeq.blocks([10**30, 5])
    t = b.shift_by(10**30 + 1)  # past the first run and its separating one
    assert [t.bit(n) for n in range(7)] == [0, 0, 0, 0, 0, 1, 0]
    big = BitSeq.blocks([7])
    u = big.shift_by(8 * 10**50)  # whole periods of length 8
    assert [u.bit(n) for n in range(9)] == [0] * 7 + [1, 0]


def test_walking_a_blocks_tail_copies_no_runs_and_builds_no_key(monkeypatch):
    """Every shift of a blocks tail reads the one run-length tuple it was
    built on, and a first difference against zeros takes no canonical key of
    it, so walking K runs one step at a time is linear in K."""
    lengths = tuple(range(3, 203))
    t = BitSeq.blocks(lengths, (1, 0))
    keys = []
    real_key = BitSeq.canonical_key
    monkeypatch.setattr(BitSeq, "canonical_key",
                        lambda s: keys.append(s.tail) or real_key(s))
    u, pos = t, 0
    for step in (1, 1, 2, 3, 5, 1, 40, 1, 999, 1):
        u, pos = u.shift_by(step), pos + step
        assert u._param is t._param, step
        want = next(k for k in range(10**4) if t.bit(pos + k))
        assert first_difference(BitSeq.zeros(), u, math.inf) == want, pos
    assert BLOCKS not in keys


def test_canonical_key_identifies_equal_sequences():
    a = parse_bitseq(":(01)")
    b = parse_bitseq("0:(10)")
    c = parse_bitseq("01:(01)")
    assert a.same_sequence(b)
    assert a.same_sequence(c)
    assert not a.same_sequence(parse_bitseq(":(10)"))
    assert parse_bitseq("0:0...").same_sequence(parse_bitseq("00"))
    assert parse_bitseq(":(0)").same_sequence(parse_bitseq("0"))


def test_spellings_of_one_sequence_share_a_key():
    groups = [
        [BitSeq.blocks((2,)), BitSeq.periodic((), (0, 0, 1))],
        [BitSeq.blocks((2, 2)), BitSeq.blocks((2,))],
        [BitSeq.ones(), BitSeq.blocks((0,)), BitSeq.periodic((), (1,))],
        [BitSeq.blocks((3, 2), (1, 0)), BitSeq.periodic((1, 0, 0, 0, 0, 1), (0, 0, 1))],
    ]
    for group in groups:
        for s in group[1:]:
            assert s.same_sequence(group[0]), (s, group[0])
            assert s.canonical_key() == group[0].canonical_key()


def respell(s, rng):
    """Another spelling of s, built from ``expand``: bits moved from the tail
    into the prefix, a blocks prefix folded into its runs, a blocks tail as
    its cycle, a cycle with one 1 as blocks, or a cycle rotated and doubled."""
    how = rng.randrange(3)
    if how and s.tail == BLOCKS:
        # the explicit runs end at this index; the last run repeats after it
        reach = len(s.prefix) + sum(s.param) + len(s.param)
        bits, last = expand(s, reach), s.param[-1]
        if how == 1:
            runs = [len(z) for z in "".join(map(str, bits)).split("1")[:-1]]
            return BitSeq.blocks(runs + [last])
        return BitSeq.periodic(bits, (0,) * last + (1,))
    if how:
        cycle = s.param or ((1,) if s.tail == ONES else (0,))  # None for a constant
        if how == 1 and cycle.count(1) == 1:
            n = len(s.prefix) + cycle.index(1) + 1
            return BitSeq.blocks((len(cycle) - 1,), expand(s, n))
        c = cycle[1:] + cycle[:1]
        return BitSeq.periodic(s.prefix + cycle[:1], c + c)
    n = len(s.prefix) + rng.randint(0, 6)
    u = s.shift_by(n)
    return BitSeq(expand(s, n), u.tail, u.param)


def test_canonical_key_is_a_function_of_the_bits():
    """Two spellings of one sequence share a key, and sequences whose first
    300 bits differ (enough for these small parts) have distinct keys."""
    rng = random.Random(7707)
    seqs = [rand_seq(rng) for _ in range(400)]
    for s in seqs:
        t = respell(s, rng)
        assert expand(t, 300) == expand(s, 300), (s, t)
        assert t.canonical_key() == s.canonical_key(), (s, t)
    seqs += [s.shift_by(rng.randint(0, 9)) for s in seqs]
    for _ in range(3000):
        a, b = rng.choice(seqs), rng.choice(seqs)
        assert (a.canonical_key() == b.canonical_key()) == (expand(a, 300) == expand(b, 300))


def test_constructor_rejects_bad_parts():
    for args, message in ((((0, 2), ZEROS), "bits must be 0 or 1"),
                          (((), PERIODIC, ()), "empty cycle"),
                          (((), BLOCKS, (1, -1)), "block lengths must be nonnegative"),
                          (((), BLOCKS, ()), "block lengths must be nonnegative"),
                          (((), "spiral"), "unknown tail kind 'spiral'")):
        with pytest.raises(ValueError, match=message):
            BitSeq(*args)


def test_first_one():
    assert BitSeq.zeros([0, 0, 1]).first_one(10) == 2
    assert BitSeq.zeros().first_one(10**9) == AtLeast(10**9)
    assert BitSeq.blocks([10**40]).first_one(10**41) == 10**40
    assert BitSeq.blocks([10**40]).first_one(100) == AtLeast(100)
    assert BitSeq.ones().first_one(5) == 0
    # the horizon ends inside the prefix, before its first 1
    assert BitSeq.ones([0, 0, 0, 1]).first_one(2) == AtLeast(2)
    assert BitSeq.zeros([0, 1]).first_one(1) == AtLeast(1)
    # a cycle whose first 1 lies at or past the horizon, or that has none
    assert BitSeq.periodic([0], [0, 0, 1]).first_one(3) == AtLeast(3)
    assert BitSeq.periodic([0], [0, 0, 1]).first_one(4) == 3
    assert BitSeq.periodic([0, 0], [0, 0]).first_one(10**30) == AtLeast(10**30)


def test_first_difference():
    s = parse_bitseq("0")
    assert first_difference(s, parse_bitseq("0001"), 64) == 3
    assert first_difference(parse_bitseq(":(01)"), parse_bitseq(":(01)"), 64) == AtLeast(64)
    # huge structural query against zeros
    t = BitSeq.blocks([10**30])
    assert first_difference(s, t, 10**31) == 10**30
    # an unbounded horizon gives a sentinel that can still be printed
    assert repr(first_difference(s, s, math.inf)) == "AtLeast(inf)"
    # neither side is all-zeros and the first disagreement is beyond the
    # bitwise scan cap: the query must refuse rather than run forever
    with pytest.raises(OverflowError):
        first_difference(
            BitSeq.blocks([10**7]), BitSeq.blocks([10**7, 5]), 10**8
        )


def test_first_difference_matches_bit_scan():
    rng = random.Random(1123)
    for _ in range(300):
        a, b = rand_seq(rng), rand_seq(rng)
        got = first_difference(a, b, 60)
        want = next(
            (m for m in range(60) if a.bit(m) != b.bit(m)), AtLeast(60)
        )
        assert got == want


def test_parse_bitseq():
    assert str(parse_bitseq("0110")) == "0110:0..."
    assert str(parse_bitseq("01:(10)")) == "01:(10)"
    assert str(parse_bitseq(":1...")) == "1..."
    with pytest.raises(ValueError):
        parse_bitseq("012")
    with pytest.raises(ValueError):
        parse_bitseq("01:()")
