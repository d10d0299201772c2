import random
import sys
from dataclasses import replace
from functools import cache
from heapq import heappop, heappush
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graphs import degree, neighbors

from cpgraphs import cli, linalg, sequences, suites
from cpgraphs.errors import InputError, ResourceLimit
from cpgraphs.formulas import (
    GraphInvariants,
    distance_invariants,
    family_invariants,
    tree_invariants,
)
from cpgraphs.linalg import Inertia, cofactor_sum, det_and_inertia, determinant
from cpgraphs.reduction import reduced_graph
from cpgraphs.sequences import (
    CliquePathSpec,
    NeighborhoodSequence,
    NonLeapingSequence,
    count_neighborhood_sequences,
    enumerate_neighborhood_sequences,
    expand_clique_path_spec,
    iter_nonleaping_sequences,
)
from cpgraphs.suites import (
    Recorder,
    Report,
    UnknownSuite,
    available_suites,
    member_reduces,
    pruefer_growth,
    random_nonleaping,
    run_suite,
    tree_from_pruefer,
)
from cpgraphs.graphs import LabeledGraph, all_pairs_distances, build_cp_graph, path_graph
from cpgraphs.matrices import IntMatrix


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nosuch")


def test_available_suites():
    names = available_suites()
    assert "all" in names and "congruence" in names and "addressing" in names
    assert len(names) == 12


def test_report_shape():
    r = run_suite("fixtures")
    assert isinstance(r, Report)
    assert r.failed == 0 and r.passed > 0
    assert r.ok
    obj = r.to_json_obj()
    assert obj["suite"] == "fixtures"
    assert obj["failures"] == []
    assert isinstance(obj["wall_time_s"], float)


def test_seeded_suites_are_deterministic():
    a = run_suite("attach", seed=7)
    b = run_suite("attach", seed=7)
    assert (a.results, a.passed, a.failed, a.failures) == (
        b.results,
        b.passed,
        b.failed,
        b.failures,
    )


def test_alternate_seed_still_passes():
    assert run_suite("attach", seed=123).ok
    assert run_suite("block-inertia", seed=99).ok


def test_scale_caps_work():
    small = run_suite("congruence", scale=4)
    assert small.ok
    assert small.results["families"] == 1 + 1 + 2  # orders 2, 3, 4
    tiny = run_suite("linalg-crossval", scale=20)
    assert tiny.ok and tiny.results["matrices"] == 20


def test_recorder_caps_failure_list():
    rec = Recorder()
    for i in range(30):
        rec.check(False, f"boom {i}")
    assert rec.failed == 30
    assert len(rec.failures) == 20


def test_recorder_renders_callable_labels_on_failure_only():
    rec = Recorder()
    rec.check(True, lambda: pytest.fail("a passing check rendered its label"))
    rec.check(False, lambda: "boom")
    assert (rec.passed, rec.failed, rec.failures) == (1, 1, ["boom"])


WRONG = GraphInvariants(0, Inertia(0, 0, 0), 0)
WRONG_TEXT = "GraphInvariants(det=0, inertia=Inertia(n_plus=0, n_minus=0, n_zero=0), cof=0)"
EDGE_TEXT = "GraphInvariants(det=-1, inertia=Inertia(n_plus=1, n_minus=1, n_zero=0), cof=-2)"
PATH3_TEXT = "GraphInvariants(det=4, inertia=Inertia(n_plus=1, n_minus=2, n_zero=0), cof=4)"


def test_tree_failure_labels(monkeypatch):
    monkeypatch.setattr(suites, "distance_invariants", lambda g: WRONG)
    r = run_suite("trees", scale=3)
    assert (r.passed, r.failed) == (2, 4)
    assert r.failures == [
        f"tree code=(): {WRONG_TEXT} != {EDGE_TEXT}",
        f"tree code=(1,): {WRONG_TEXT} != {PATH3_TEXT}",
        f"tree code=(2,): {WRONG_TEXT} != {PATH3_TEXT}",
        f"tree code=(3,): {WRONG_TEXT} != {PATH3_TEXT}",
    ]


@pytest.mark.parametrize(
    "suite, scale, counts, first",
    [
        (
            "constancy",
            3,
            (0, 2),
            f"invariants vary within q=(0, 1): anchors=() give {WRONG_TEXT},"
            f" family says {EDGE_TEXT}",
        ),
        (
            "cp2-formulas",
            0,
            (1, 1),
            f"2:() anchors=(): {WRONG_TEXT} differs from closed form {EDGE_TEXT}",
        ),
        (
            "linear-2tree",
            4,
            (1, 2),
            f"linear 2-tree n=4 anchors=(1, 1): {WRONG_TEXT} differs from GraphInvariants("
            "det=-4, inertia=Inertia(n_plus=1, n_minus=3, n_zero=0), cof=-4)",
        ),
    ],
)
def test_member_loop_failure_labels(monkeypatch, suite, scale, counts, first):
    real = suites._grow
    monkeypatch.setattr(
        suites, "_grow", lambda *args: ((q, a, d, WRONG) for q, a, d, _ in real(*args))
    )
    r = run_suite(suite, scale=scale)
    assert (r.passed, r.failed) == counts
    assert r.failures[0] == first


def test_congruence_failure_labels(monkeypatch):
    real = suites._grow
    # the exhaustive members go through the walk, the random ones through congruence_reduce
    monkeypatch.setattr(
        suites, "_grow", lambda *args, **kw: ((q, a, d, False) for q, a, d, _ in real(*args, **kw))
    )
    monkeypatch.setattr(suites, "congruence_reduce", lambda d, e: None)
    r = run_suite("congruence", scale=3)
    assert (r.passed, r.failed) == (0, 102)
    assert r.failures[:2] == [
        "congruence broken for q=(0, 1) anchors=()",
        "congruence broken for q=(0, 1, 2) anchors=(1,)",
    ]


@pytest.mark.parametrize(
    "suite, scale, results, passed",
    [
        ("trees", 5, {"orders": [2, 3, 4, 5], "trees": 145}, 149),
        ("constancy", 5, {"families": 9, "members": 17}, 17),
        ("cp2-formulas", 2, {"specs": 13, "members": 31}, 44),
        ("linear-2tree", 6, {"orders": [4, 5, 6], "members": 14}, 17),
        ("congruence", 5, {"families": 9, "members": 17, "random_members": 100}, 117),
    ],
)
def test_member_counts_at_reduced_scale(suite, scale, results, passed):
    r = run_suite(suite, scale=scale)
    assert (r.results, r.passed, r.failed) == (results, passed, 0)


def test_all_aggregates_suites_in_order(monkeypatch):
    calls = []

    def fake(tag, passes, fails):
        def suite(rec, rng, scale):
            calls.append((tag, rng.random(), scale))
            for _ in range(passes):
                rec.check(True, "unused")
            for i in range(fails):
                rec.check(False, f"{tag}{i}")
            return {"tag": tag}

        return suite

    # (suite, default scale, cap)
    monkeypatch.setattr(
        suites, "SUITES", {"a": (fake("a", 3, 15), 1, None), "b": (fake("b", 2, 10), 2, 5)}
    )
    r = run_suite("all", seed=5, scale=4)
    assert (r.suite, r.seed, r.scale) == ("all", 5, 4)
    assert r.results == {"a": {"passed": 3, "failed": 15}, "b": {"passed": 2, "failed": 10}}
    assert (r.passed, r.failed) == (5, 25)
    assert r.failures == [f"a{i}" for i in range(15)] + [f"b{i}" for i in range(5)]
    # each suite gets its own rng seeded from the one seed, and the one scale
    first = random.Random(5).random()
    assert calls == [("a", first, 4), ("b", first, 4)]
    # or, given none, its own default; the report keeps the scale asked for
    calls.clear()
    assert run_suite("all", seed=5).scale is None
    assert calls == [("a", first, 1), ("b", first, 2)]
    # a scale above b's cap runs neither suite
    calls.clear()
    with pytest.raises(ResourceLimit, match="^scale 6 is above the cap 5 of suite b$"):
        run_suite("all", seed=5, scale=6)
    assert run_suite("a", seed=5, scale=6).results == {"tag": "a"} and calls == [("a", first, 6)]


def test_all_counts_each_suite_as_if_run_alone(monkeypatch):
    real = linalg._symmetric_bareiss

    def wrong(rows):  # det off by one above order 3
        plus, minus, zero, det = real(rows)
        return plus, minus, zero, det + (len(rows) > 3)

    monkeypatch.setattr(linalg, "_symmetric_bareiss", wrong)
    alone = [run_suite(name, seed=0, scale=3) for name in suites.SUITES]
    r = run_suite("all", seed=0, scale=3)
    assert r.results == {a.suite: {"passed": a.passed, "failed": a.failed} for a in alone}
    assert (r.passed, r.failed) == (sum(a.passed for a in alone), sum(a.failed for a in alone))
    # the failure list runs on from the first suite's failures into the next ones
    assert 0 < alone[0].failed < 20 < r.failed
    assert r.failures == [f for a in alone for f in a.failures][:20]


def test_pruefer_decoder():
    # code (v,) on 3 vertices joins both leaves to v
    assert tree_from_pruefer(3, (2,)) == path_graph(3)
    t = tree_from_pruefer(6, (1, 1, 1, 1))
    assert sorted(degree(t, v) for v in range(1, 7)) == [1, 1, 1, 1, 1, 5]
    assert tree_from_pruefer(2, ()) == path_graph(2)
    assert tree_from_pruefer(1, ()) == LabeledGraph(1, ())


@pytest.mark.parametrize("n, code", [(3, (0,)), (4, (1,)), (3, (4,)), (0, ())])
def test_pruefer_decoder_rejects_what_is_not_a_code(n, code):
    with pytest.raises(InputError):
        tree_from_pruefer(n, code)


def pruefer_encode(g):
    """Oracle: strip the smallest leaf and write down its neighbour until two
    vertices remain."""
    nbrs = {v: set(neighbors(g, v)) for v in range(1, g.n + 1)}
    code = []
    while len(nbrs) > 2:
        leaf = min(v for v, adj in nbrs.items() if len(adj) == 1)
        (v,) = nbrs.pop(leaf)
        nbrs[v].discard(leaf)
        code.append(v)
    return tuple(code)


def all_codes(n_max):
    for n in range(2, n_max + 1):
        for code in product(range(1, n + 1), repeat=n - 2):
            yield n, code


def test_pruefer_encoder_inverts_decoder():
    for n, code in all_codes(7):
        assert pruefer_encode(tree_from_pruefer(n, code)) == code


def test_growth_positions_relabel_the_tree():
    for n, code in all_codes(7):
        order, parents = pruefer_growth(n, code)
        assert order[0] == n and sorted(order) == list(range(1, n + 1))
        assert all(p < j for j, p in enumerate(parents, 1))  # each vertex hangs from an earlier one
        pos = {v: i for i, v in enumerate(order)}
        edges = {frozenset((pos[u], pos[v])) for u, v in tree_from_pruefer(n, code).edges}
        assert edges == {frozenset(e) for e in enumerate(parents, 1)}


def test_growth_shapes_of_small_trees():
    shapes = {n: set() for n in range(2, 8)}
    for n, code in all_codes(7):
        shapes[n].add(pruefer_growth(n, code)[1])
    # vertex j of the growth order hangs from one of 0..j-1, and every choice occurs
    assert {n: len(s) for n, s in shapes.items()} == {2: 1, 3: 2, 4: 6, 5: 24, 6: 120, 7: 720}
    assert pruefer_growth(1, ()) == ((1,), ())


def heap_growth(n, code):
    """Oracle for pruefer_growth: pop the smallest leaf from a heap at each
    step, then list n, the other survivor and the removed leaves backwards."""
    if n == 1:
        return (1,), ()
    deg = [1] * (n + 1)
    for v in code:
        deg[v] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]  # ascending, so a heap
    removed = []
    for v in code:
        removed.append(heappop(leaves))
        deg[v] -= 1
        if deg[v] == 1:
            heappush(leaves, v)
    order = (n, leaves[0], *reversed(removed))
    pos = dict(zip(order, range(n)))
    return order, tuple(map(pos.__getitem__, (n, *reversed(code))))


def test_growth_matches_the_heap_decoder():
    assert pruefer_growth(1, ()) == heap_growth(1, ())
    for n, code in all_codes(8):
        assert pruefer_growth(n, code) == heap_growth(n, code)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(2, 14).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
))
def test_growth_matches_the_heap_decoder_on_random_codes(case):
    n, code = case
    assert pruefer_growth(n, tuple(code)) == heap_growth(n, tuple(code))


# rooted trees on n = 1..8 vertices up to isomorphism (OEIS A000081)
ROOTED_TREES = (1, 1, 2, 4, 9, 20, 48, 115)


def class_counts(key):
    """The number of distinct `key`s of the growth shapes on n = 1..8 vertices,
    where vertex j hangs from any of 0..j-1, so every rooted tree occurs."""
    return tuple(
        len(set(map(key, product(*(range(j) for j in range(1, n)))))) for n in range(1, 9)
    )


def test_rooted_classes_count_the_rooted_trees():
    # the key is an isomorphism invariant, so matching counts mean it merges
    # exactly the shapes that are isomorphic as trees rooted at position 0
    assert class_counts(suites._rooted_class) == ROOTED_TREES


def test_trees_suite_eliminates_one_tree_per_rooted_class(monkeypatch):
    calls = []
    monkeypatch.setattr(
        suites, "distance_invariants", lambda g: calls.append(g.n) or distance_invariants(g)
    )
    r = run_suite("trees")
    assert (r.passed, r.failed, r.results["trees"]) == (18254, 0, 18248)
    assert len(calls) == sum(ROOTED_TREES[1:7]) == 84
    assert [calls.count(n) for n in range(2, 8)] == list(ROOTED_TREES[1:7])


def shape_twin(n, parents):
    """A code of shape `parents`: label growth position j with n - j, so that
    each re-attached leaf is the smallest leaf when the encoder strips it."""
    return pruefer_encode(LabeledGraph(n, tuple((n - j, n - p) for j, p in enumerate(parents, 1))))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(2, 14).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
))
def test_equal_shapes_have_equal_invariants(case):
    n, code = case
    code = tuple(code)
    order, shape = pruefer_growth(n, code)
    twin = shape_twin(n, shape)
    twin_order, twin_shape = pruefer_growth(n, twin)
    assert twin_shape == shape
    t, u = tree_from_pruefer(n, code), tree_from_pruefer(n, twin)
    # listed in growth order, the two distance matrices agree entry by entry
    d, e = all_pairs_distances(t), all_pairs_distances(u)
    assert [[d.rows[i - 1][j - 1] for j in order] for i in order] == [
        [e.rows[i - 1][j - 1] for j in twin_order] for i in twin_order
    ]
    assert distance_invariants(t) == distance_invariants(u)


def test_tree_shapes_mask_no_fault_and_end_with_the_call(monkeypatch):
    def wrong_on_order_5(g):
        inv = distance_invariants(g)
        return replace(inv, det=inv.det + 1) if g.n == 5 else inv

    monkeypatch.setattr(suites, "distance_invariants", wrong_on_order_5)
    r = run_suite("trees")
    # the per-code path: every tree eliminated, none looked up by shape
    failures = []
    for n, code in all_codes(7):
        got, want = wrong_on_order_5(tree_from_pruefer(n, code)), tree_invariants(n)
        if got != want:
            failures.append(f"tree code={code}: {got} != {want}")
    assert len(failures) == 5 ** 3
    assert (r.passed, r.failed, r.failures) == (18254 - len(failures), len(failures), failures[:20])
    monkeypatch.undo()
    again = run_suite("trees")
    assert (again.passed, again.failed) == (18254, 0)


@pytest.mark.parametrize(
    "suite, scale", [("congruence", 4), ("constancy", 4), ("cp2-formulas", 2), ("linear-2tree", 4)]
)
def test_lossy_enumeration_fails_the_member_suites(monkeypatch, suite, scale):
    real = suites._grow

    def lossy(*args, **kw):
        # drop the last member of every family that has more than one
        members = list(real(*args, **kw))
        last = {q: i for i, (q, *_) in enumerate(members)}
        return (
            (q, a, d, got)
            for i, (q, a, d, got) in enumerate(members)
            if i != last[q] or count_neighborhood_sequences(NonLeapingSequence(q)) == 1
        )

    monkeypatch.setattr(suites, "_grow", lossy)
    r = run_suite(suite, scale=scale)
    assert not r.ok and "q=(0, 1, 2, 2): enumerated 1 members, expected 2" in r.failures


def faulty_walk(fault):
    """sequences._Prefix.walk with a planted fault at the first member of
    order 8 it reaches: that member dropped, or yielded twice."""
    real = sequences._Prefix.walk

    def walk(self, families):
        planted = False
        for k, f, listed in real(self, families):
            if listed and k == 7 and not planted:
                planted = True
                if fault == "dropped":
                    continue
                yield k, f, listed
            yield k, f, listed

    return walk


@pytest.mark.parametrize("suite", ["congruence", "constancy"])
@pytest.mark.parametrize("fault, count", [("dropped", 31), ("doubled", 33)])
def test_a_fault_in_the_shared_walk_fails_the_member_suites(monkeypatch, suite, fault, count):
    # the suites and the enumerator take one walk, so a fault in it moves a
    # member count, which the suites check against the product formula
    q = (0, 1, 2, 2, 2, 2, 2, 2)  # the first family of order 8, 32 members
    monkeypatch.setattr(sequences._Prefix, "walk", faulty_walk(fault))
    assert len(list(enumerate_neighborhood_sequences(NonLeapingSequence(q)))) == count
    r = run_suite(suite, scale=8)
    assert r.failures == [f"q={q}: enumerated {count} members, expected 32"]


@pytest.mark.parametrize("suite, passed", [("congruence", 105), ("constancy", 5)])
def test_missing_family_fails_the_order_total(monkeypatch, suite, passed):
    # the list still holds the family, so its count of 0 fails, not the order total
    assert run_suite(suite, scale=4).passed == passed
    real = suites._grow
    monkeypatch.setattr(
        suites, "_grow", lambda *args, **kw: (m for m in real(*args, **kw) if m[0] != (0, 1, 2, 2))
    )
    r = run_suite(suite, scale=4)
    # the family's two members are neither checked nor counted
    assert r.passed == passed - 2
    assert r.failures == ["q=(0, 1, 2, 2): enumerated 0 members, expected 2"]


@pytest.mark.parametrize("suite, passed", [("congruence", 105), ("constancy", 5)])
def test_family_missing_from_the_list_fails_the_order_total(monkeypatch, suite, passed):
    real = suites.iter_nonleaping_sequences
    monkeypatch.setattr(
        suites,
        "iter_nonleaping_sequences",
        lambda n: (s for s in real(n) if s.q != (0, 1, 2, 2)),
    )
    r = run_suite(suite, scale=4)
    # its children are still listed, so the walk passes through it unchecked
    assert r.passed == passed - 2
    assert r.failures == ["order 4: 1 members in all families, expected 3"]


def every_family(n_max):
    return [s for n in range(2, n_max + 1) for s in iter_nonleaping_sequences(n)]


def walk_matches_members(families, limit=None):
    """The walk `_grow(families)` against the per-member path on its first
    `limit` members: each family's members in the enumerator's order, same
    D, same invariants, same congruence verdict. Returns the number of
    members compared."""
    h = cache(lambda s: reduced_graph(s).adjacency_matrix())
    by_family = {}
    walks = islice(zip(suites._grow(families), suites._grow(families, h)), limit)
    for (q1, a1, d1, inv), (q2, a2, d2, ok) in walks:
        ns = NeighborhoodSequence(NonLeapingSequence(q1), a1)
        g = build_cp_graph(ns)
        d = all_pairs_distances(g).rows
        assert (q1, a1) == (q2, a2)
        assert tuple(map(tuple, d1)) == tuple(map(tuple, d2)) == d
        assert inv == distance_invariants(g)
        assert ok == member_reduces(ns, h(ns.base))
        by_family.setdefault(q1, []).append(ns)
    for members in by_family.values():
        assert members == list(islice(enumerate_neighborhood_sequences(members[0].base), limit))
    return sum(map(len, by_family.values()))


def test_walk_matches_every_member_up_to_order_8():
    assert walk_matches_members(every_family(8)) == 1773
    assert list(suites._grow([])) == []


def test_walk_yields_the_listed_families_only():
    cp2 = [
        expand_clique_path_spec(CliquePathSpec(p))
        for m in range(5)
        for p in product((3, 4, 5), repeat=m)
    ]
    # no prefix of either is listed
    loose = [NonLeapingSequence((0, 1, 2, 2, 3)), NonLeapingSequence((0, 1, 2, 3, 3, 2))]
    loose_members = sum(map(count_neighborhood_sequences, loose))
    for families, members in ((cp2, 2461), (loose, loose_members)):
        walked = [(q, a) for q, a, _, _ in suites._grow(families)]
        assert len(walked) == len(set(walked)) == members
        by_family = {}
        for q, a in walked:
            by_family.setdefault(q, []).append(a)
        assert sorted(by_family) == sorted(s.q for s in families)
        for q, anchors in by_family.items():
            family = enumerate_neighborhood_sequences(NonLeapingSequence(q))
            assert anchors == [ns.anchors for ns in family]


def test_walk_calls_h_once_per_listed_family(monkeypatch, capsys):
    calls = []

    def counting(real):
        def grow(families, h=None):
            return real(families, lambda s: calls.append(s.q) or h(s))
        return grow

    monkeypatch.setattr(suites, "_grow", counting(suites._grow))
    assert run_suite("congruence", scale=8).ok
    assert sorted(calls) == sorted(s.q for s in every_family(8))
    calls.clear()
    monkeypatch.setattr(cli, "_grow", counting(cli._grow))
    assert cli.main(["reduce", "verify", "0,1,2,2,2,2,3,3"]) == 0
    assert calls == [(0, 1, 2, 2, 2, 2, 3, 3)]
    capsys.readouterr()


def test_walk_is_not_bounded_by_the_recursion_limit():
    s = NonLeapingSequence((0, 1) + (2,) * sys.getrecursionlimit())
    h = reduced_graph(s).adjacency_matrix()
    q, a, d, ok = next(suites._grow([s], lambda _: h))
    assert (q, a, len(d), ok) == (s.q, (1,) * (s.n - 2), s.n, True)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(2, 40), st.integers(0, 2**32))
def test_walk_matches_random_families(n, seed):
    s = random_nonleaping(random.Random(seed), n)
    assert walk_matches_members([s], 64) == min(64, count_neighborhood_sequences(s))


def dense_invariants(d):
    """det, inertia and cofactor sum from two eliminations of D itself, which
    shares no BFS-tree differences with the walk's fallback."""
    m = IntMatrix.from_rows(d)
    return GraphInvariants(*det_and_inertia(m), cofactor_sum(m))


@pytest.mark.parametrize("last", [2, 3, 4])
def test_walk_falls_back_below_a_zero_leading_minor(last):
    # D_7 = 0 in every member, so pivot 6 is zero before the last one; with
    # last = 3, det = D_8 = 0 as well
    s = NonLeapingSequence((0, 1, 2, 3, 3, 4, 3, last))
    for _, _, d, inv in suites._grow([s]):
        assert determinant(IntMatrix.from_rows(d).leading(7)) == 0
        assert (inv.det == 0) == (last == 3)
        assert inv == dense_invariants(d)
    assert walk_matches_members([s]) == count_neighborhood_sequences(s)


def test_walk_fallback_matches_the_dense_route_up_to_order_9(monkeypatch):
    # every member below a zero interior pivot, which walk_matches_members
    # compares with its own route, against D itself and its reduced graph
    calls = []
    real = suites._distance_matrix_invariants
    monkeypatch.setattr(suites, "_distance_matrix_invariants", lambda d: calls.append(d) or real(d))
    reduced = cache(lambda q: family_invariants(NonLeapingSequence(q)))
    checked = 0
    for q, _, d, inv in suites._grow(every_family(9)):
        if len(calls) > checked:  # this member took the fallback
            checked += 1
            assert inv == dense_invariants(d) == reduced(q), (q, d)
    assert checked == len(calls) == 722


def test_walk_verdict_on_wrong_targets():
    s = NonLeapingSequence((0, 1, 2, 2, 3, 3))
    h = reduced_graph(s).adjacency_matrix().rows
    lower = [list(r) for r in h]
    lower[5][1] += 1  # below the diagonal only: no longer symmetric
    corner = [list(r) for r in h]
    corner[5][5] += 1
    first = [list(r) for r in h]
    first[0][0] += 1  # column 0, which no vertex's step compares
    for rows in (lower, corner, first, [r[:5] for r in h[:5]]):
        wrong = IntMatrix.from_rows(rows)
        verdicts = [ok for *_, ok in suites._grow([s], lambda _: wrong)]
        assert verdicts == [member_reduces(ns, wrong) for ns in enumerate_neighborhood_sequences(s)]
        assert not any(verdicts)
