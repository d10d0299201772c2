import random
import sys
from dataclasses import replace
from itertools import islice, product
from unittest import mock

import pytest
from test_graphs import anchor, window

from cpgraphs import sequences
from cpgraphs.errors import InputError
from cpgraphs.graphs import build_cp_graph
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
from cpgraphs.suites import random_member, random_nonleaping


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
    assert s.bk(8) == 6


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
    # admissible set = previous anchor plus the window slots below the new
    # cutoff; a_5 lies in {a_4, 3}, and a prior anchor outside its own step's
    # set is refused, by name
    for prior in product((1,), (1, 2), (1, 2, 3)):
        if prior[2] in (prior[1], 3):
            got = admissible_anchors(s, 6, prior)
            assert got == frozenset({prior[-1]}) | frozenset(range(s.bk(5), s.bk(6)))
        else:
            with pytest.raises(InputError, match=f"^anchor a_5 = {prior[2]} is not admissible$"):
                admissible_anchors(s, 6, prior)
    with pytest.raises(IndexOutOfRange):
        admissible_anchors(s, 9, (1,) * 6)
    with pytest.raises(InputError):
        admissible_anchors(s, 4, ())
    # vertex 0 does not exist, and step 4's choices are {1, 2}: a_4 = 3 would
    # leave step 5 one choice, {3}, not 1 + b_5 - b_4 = 2
    t = NonLeapingSequence((0, 1, 2, 2, 2))
    with pytest.raises(InputError, match="^anchor a_3 = 0 is not admissible$"):
        admissible_anchors(t, 4, (0,))
    with pytest.raises(InputError, match="^anchor a_4 = 3 is not admissible$"):
        admissible_anchors(t, 5, (1, 3))


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
    # the enumerator is lazy, so a prefix of it costs only its members
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    assert count_neighborhood_sequences(s) == 16
    members = list(enumerate_neighborhood_sequences(s))
    assert list(islice(enumerate_neighborhood_sequences(s), 5)) == members[:5]


def test_enumeration_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 500
    assert next(iter_nonleaping_sequences(n)).q == (0, 1) + (2,) * (n - 2)
    s = NonLeapingSequence((0, 1) + (2,) * (n - 2))
    first, second = islice(enumerate_neighborhood_sequences(s), 2)
    # b_k = k - 1, so only the last step has a second choice below b_n = n - 1
    assert first.anchors == (1,) * (n - 2)
    assert second == NeighborhoodSequence(s, (1,) * (n - 3) + (n - 2,))


def ascending_members(s):
    """Oracle: the anchor vectors a_3..a_n of the family s, ascending, grown
    one step at a time from the rule: a_k lies in W_(k-1) and below b_k."""
    vecs = [(1,)]  # a_2 = 1
    for k in range(3, s.n + 1):
        lo, hi = s.bk(k - 1), s.bk(k)
        # W_(k-1) = {a_(k-1)} + [b_(k-1), k - 2]
        vecs = [v + (a,) for v in vecs for a in sorted({v[-1], *range(lo, k - 1)}) if a < hi]
    return [v[1:] for v in vecs]


def test_member_order_up_to_twelve():
    members = 0
    for n in range(2, 13):
        for s in iter_nonleaping_sequences(n):
            got = [ns.anchors for ns in enumerate_neighborhood_sequences(s)]
            assert got == ascending_members(s), s.q
            members += len(got)
    assert members == 1730178  # the ternary numbers C(3m, m) / (2m + 1), m = 0..10


def test_members_built_otherwise_carry_no_record():
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    walked = next(enumerate_neighborhood_sequences(s))
    assert "_prefix" in vars(walked) and "_member" in vars(build_cp_graph(walked))
    for ns in (
        NeighborhoodSequence(s, walked.anchors),
        random_member(random.Random(3), s),
        replace(walked),
        replace(walked, anchors=(1, 2, 3, 4, 4, 5)),
    ):
        assert "_prefix" not in vars(ns) and "_member" not in vars(build_cp_graph(ns))
    assert replace(walked) == walked


def test_enumeration_builds_no_rows():
    # yielding a member, or building its graph, costs O(1) in the shared rows:
    # only a D asked for grows them
    s = NonLeapingSequence((0, 1) + (2,) * 998)
    with mock.patch.object(sequences, "_next_row", side_effect=AssertionError("row built")):
        members = list(islice(enumerate_neighborhood_sequences(s), 3))
        graphs = [build_cp_graph(ns) for ns in members]
    assert [ns.anchors[-2:] for ns in members] == [(1, 1), (1, 998), (997, 997)]
    assert all(g.n == 1000 for g in graphs)


def test_anchor_validation():
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    NeighborhoodSequence(s, (1, 2, 3, 4, 4, 5))
    NeighborhoodSequence(s, (1, 1, 1, 1, 1, 1))
    with pytest.raises(InputError):
        NeighborhoodSequence(s, (2, 1, 1, 1, 1, 1))
    with pytest.raises(InputError):
        NeighborhoodSequence(s, (1, 1, 1))


def per_step_sets(s, anchors):
    """Oracle: the admissible set of each step k = 3..n, rebuilt from the
    slice of the anchors before it, as NeighborhoodSequence checked them
    before the rule became one O(n) pass: {a_(k-1)} and [b_(k-1), k - 1)
    (W_2 = {1} at k = 3), each below b_k."""
    for k in range(3, s.n + 1):
        prior = anchors[: k - 3]
        window_prev = {1} if k == 3 else {prior[-1], *range(s.bk(k - 1), k - 1)}
        yield k, frozenset(x for x in window_prev if x < s.bk(k))


def per_step_error(s, anchors):
    """The text NeighborhoodSequence(s, anchors) refused with under the
    per-step rule, or None where it accepted."""
    if len(anchors) != s.n - 2:
        return f"need {s.n - 2} anchors for n = {s.n}, got {len(anchors)}"
    for k, allowed in per_step_sets(s, anchors):
        if anchors[k - 3] not in allowed:
            return f"anchor a_{k} = {anchors[k - 3]} is not admissible"
    return None


def anchor_vectors(rng, s, members):
    """Members, each first three changed by -1 or +1 at every step, seeded
    random vectors over 0..n+1 and vectors one too short and one too long."""
    m = s.n - 2
    yield from members
    for a in members[:3]:
        for i in range(m):
            for d in (-1, 1):
                yield a[:i] + (a[i] + d,) + a[i + 1 :]
    for _ in range(20):
        yield tuple(rng.randint(0, s.n + 1) for _ in range(m))
    yield (1,) * (m + 1)
    if m:
        yield (1,) * (m - 1)


def per_step_mismatches(module, n_max):
    """(mismatches, refusals) of NeighborhoodSequence and admissible_anchors
    of `module`, a sequences module, against the per-step oracle: each
    (q, anchors) of anchor_vectors, over every family with n <= n_max, that
    is accepted or refused otherwise or with another text, or one of whose
    steps gets another admissible set; and how many vectors were refused."""
    rng = random.Random(29)
    mismatches, refused = [], 0
    for n in range(2, n_max + 1):
        for s in iter_nonleaping_sequences(n):
            members = [ns.anchors for ns in enumerate_neighborhood_sequences(s)]
            for a in anchor_vectors(rng, s, members):
                want = per_step_error(s, a)
                try:
                    module.NeighborhoodSequence(s, a)
                    got = None
                except InputError as e:
                    got = str(e)
                refused += want is not None
                if got != want:
                    mismatches.append((s.q, a))
            for a in members:
                if any(module.admissible_anchors(s, k, a[: k - 3]) != allowed
                       for k, allowed in per_step_sets(s, a)):
                    mismatches.append((s.q, a))
    return mismatches, refused


def test_anchor_rule_matches_the_per_step_sets():
    mismatches, refused = per_step_mismatches(sequences, 8)
    assert not mismatches and refused > 4000


def per_step_draws(rng, s):
    """Oracle: the anchors random_member drew with `rng` when it chose each
    step's anchor as rng.choice(sorted(per-step set))."""
    anchors = []
    for _, allowed in per_step_sets(s, anchors):  # it slices `anchors` as it grows
        anchors.append(rng.choice(sorted(allowed)))
    return tuple(anchors)


def random_draws_match(random_member, count):
    """random_member draws per_step_draws's anchors on `count` seeded families."""
    rng = random.Random(31)
    for _ in range(count):
        s = random_nonleaping(rng, rng.randint(2, 14))
        seed = rng.random()
        if random_member(random.Random(seed), s).anchors != per_step_draws(random.Random(seed), s):
            return False
    return True


def test_random_member_draws_from_the_sorted_sets():
    assert random_draws_match(random_member, 200)


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
