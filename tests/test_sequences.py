import random
import sys
from itertools import product

import pytest
from test_graphs import anchor, window

from cpgraphs.errors import InputError
from cpgraphs.sequences import (
    CliquePathSpec,
    HeadMismatch,
    IndexOutOfRange,
    LeapViolation,
    LengthTooShort,
    NeighborhoodSequence,
    NonLeapingSequence,
    PartTooSmall,
    admissible_anchors,
    count_neighborhood_sequences,
    enumerate_neighborhood_sequences,
    expand_clique_path_spec,
    iter_nonleaping_sequences,
    minimal_anchors,
    parse_anchor_literal,
    parse_sequence_literal,
    parse_spec_literal,
)


def brute_nonleaping(n):
    """Oracle: filter all integer vectors instead of DFS construction."""
    if n == 2:
        return [(0, 1)]
    out = []
    for tail in product(*(range(2, n + 1) for _ in range(n - 2))):
        q = (0, 1) + tail
        if all(2 <= q[k] <= q[k - 1] + 1 for k in range(2, n)):
            out.append(q)
    return out


def catalan(m):
    c = 1
    for i in range(m):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def test_validation_head_and_length():
    with pytest.raises(LengthTooShort):
        NonLeapingSequence((0,))
    with pytest.raises(HeadMismatch):
        NonLeapingSequence((1, 1))
    with pytest.raises(HeadMismatch):
        NonLeapingSequence((0, 2))


def test_leap_violation_reports_position():
    with pytest.raises(LeapViolation) as e:
        NonLeapingSequence((0, 1, 2, 4))
    assert e.value.index == 4
    with pytest.raises(LeapViolation):
        NonLeapingSequence((0, 1, 1))
    with pytest.raises(LeapViolation):
        NonLeapingSequence((0, 1, 2, 2, 5))


def test_b_values():
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    assert s.b == (2, 2, 2, 3, 4, 5, 5, 6)
    assert s.bk(8) == 6 and s.qk(8) == 3


def test_enumeration_matches_bruteforce():
    for n in range(2, 8):
        assert list(iter_nonleaping_sequences(n)) == [
            NonLeapingSequence(q) for q in brute_nonleaping(n)
        ]


def test_sequence_counts_are_catalan():
    # number of sequences of length n is the (n-2)nd Catalan number
    for n in range(2, 10):
        got = sum(1 for _ in iter_nonleaping_sequences(n))
        assert got == catalan(n - 2)
    assert catalan(6) == 132


def test_spec_expansion():
    spec = CliquePathSpec((3, 4, 3, 4))
    s = expand_clique_path_spec(spec)
    assert s.q == (0, 1, 2, 2, 3, 2, 2, 3)
    assert spec.n == s.n == 8
    assert expand_clique_path_spec(CliquePathSpec(())).q == (0, 1)
    with pytest.raises(PartTooSmall):
        CliquePathSpec((3, 2))


def test_admissible_anchor_sets():
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    assert admissible_anchors(s, 3, ()) == frozenset({1})
    assert admissible_anchors(s, 4, (1,)) == frozenset({1, 2})
    # admissible set = previous anchor plus the window slots below the new cutoff
    for prior in product((1,), (1, 2), (1, 2, 3)):
        got = admissible_anchors(s, 6, prior)
        assert got == frozenset({prior[-1]}) | frozenset(range(s.bk(5), s.bk(6)))
    with pytest.raises(IndexOutOfRange):
        admissible_anchors(s, 9, (1,) * 6)
    with pytest.raises(InputError):
        admissible_anchors(s, 4, ())


def test_admissible_set_size_is_choice_free():
    rng = random.Random(5)
    for _ in range(50):
        q = [0, 1]
        for _ in range(8):
            q.append(rng.randint(2, q[-1] + 1))
        s = NonLeapingSequence(tuple(q))
        # walk two different random anchor histories; sizes must agree step by step
        hist_a, hist_b = [], []
        for k in range(3, s.n + 1):
            opts_a = sorted(admissible_anchors(s, k, hist_a))
            opts_b = sorted(admissible_anchors(s, k, hist_b))
            assert len(opts_a) == len(opts_b) == 1 + s.bk(k) - s.bk(k - 1)
            hist_a.append(opts_a[0])
            hist_b.append(opts_b[-1])


def test_member_enumeration_and_count_agree():
    for n in range(2, 8):
        for s in iter_nonleaping_sequences(n):
            members = list(enumerate_neighborhood_sequences(s))
            assert len(members) == count_neighborhood_sequences(s)
            assert len(set(members)) == len(members)
            # lexicographic order on anchor vectors
            anchor_lists = [m.anchors for m in members]
            assert anchor_lists == sorted(anchor_lists)


def test_enumeration_limit():
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    assert count_neighborhood_sequences(s) == 16
    assert len(list(enumerate_neighborhood_sequences(s, limit=5))) == 5


def test_enumeration_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 500
    assert next(iter_nonleaping_sequences(n)).q == (0, 1) + (2,) * (n - 2)
    s = NonLeapingSequence((0, 1) + (2,) * (n - 2))
    first, second = enumerate_neighborhood_sequences(s, limit=2)
    # b_k = k - 1, so only the last step has a second choice below b_n = n - 1
    assert first.anchors == (1,) * (n - 2)
    assert second == NeighborhoodSequence(s, (1,) * (n - 3) + (n - 2,))


def test_anchor_validation():
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    NeighborhoodSequence(s, (1, 2, 3, 4, 4, 5))
    NeighborhoodSequence(s, (1, 1, 1, 1, 1, 1))
    with pytest.raises(InputError):
        NeighborhoodSequence(s, (2, 1, 1, 1, 1, 1))
    with pytest.raises(InputError):
        NeighborhoodSequence(s, (1, 1, 1))


def test_windows():
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    ns = NeighborhoodSequence(s, (1, 2, 3, 4, 4, 5))
    assert window(ns, 2) == frozenset({1})
    assert window(ns, 3) == frozenset({1, 2})
    assert window(ns, 8) == frozenset({5, 6, 7})
    assert anchor(ns, 2) == 1 and anchor(ns, 5) == 3


def test_minimal_anchors():
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    m = minimal_anchors(s)
    assert m == tuple(min(admissible_anchors(s, k, m[: k - 3])) for k in range(3, 9))
    for n in range(2, 10):
        for s in iter_nonleaping_sequences(n):
            m = minimal_anchors(s)
            assert m == (1,) * (n - 2)
            assert m == tuple(min(admissible_anchors(s, k, m[: k - 3])) for k in range(3, n + 1))


def test_parse_literals():
    assert parse_sequence_literal("0, 1, 2, 2").q == (0, 1, 2, 2)
    assert parse_sequence_literal("2:3,4").q == (0, 1, 2, 2, 3)
    assert parse_spec_literal("2:3,4,3").p == (3, 4, 3)
    assert parse_spec_literal("3,4,3").p == (3, 4, 3)
    assert parse_spec_literal("2:").p == ()
    assert parse_anchor_literal("") == ()
    assert parse_anchor_literal("1,2,2") == (1, 2, 2)
    with pytest.raises(InputError):
        parse_sequence_literal("0,1,x")
    with pytest.raises(InputError):
        parse_sequence_literal("")
