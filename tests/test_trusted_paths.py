"""Values the package builds without re-validation equal their validated forms.

IntMatrix._of, LabeledGraph._of, NeighborhoodSequence._of and
WeightedGraph._of skip the constructor checks; these tests rebuild every such
value through the public constructor and require the same fields, equality
and hash.
"""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from cpgraphs.graphs import LabeledGraph, all_pairs_distances, build_cp_graph
from cpgraphs.linalg import _bordered
from cpgraphs.matrices import IntMatrix
from cpgraphs.reduction import (
    WeightedGraph,
    congruence_reduce,
    reduced_graph,
    reducing_matrix,
    weighted_path_matrix,
)
from cpgraphs.sequences import (
    NeighborhoodSequence,
    NonLeapingSequence,
    admissible_anchors,
    enumerate_neighborhood_sequences,
    iter_nonleaping_sequences,
)
from cpgraphs.suites import tree_from_pruefer


def assert_valid_matrix(m):
    rows = m.rows
    assert type(rows) is tuple
    assert all(type(r) is tuple and len(r) == len(rows) for r in rows)
    assert all(type(x) is int for r in rows for x in r)
    checked = IntMatrix(rows)
    assert checked == m and hash(checked) == hash(m)
    n = len(rows)
    assert m.is_symmetric() == all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))


def assert_valid_graph(g):
    checked = LabeledGraph(g.n, g.edges)
    assert checked.edges == g.edges
    assert checked == g and hash(checked) == hash(g)


def assert_valid_weighted_graph(h):
    checked = WeightedGraph(h.n, h.vertex_weights, h.edges)
    assert checked.vertex_weights == h.vertex_weights and checked.edges == h.edges
    assert checked == h and hash(checked) == hash(h)


def package_built_matrices(ns):
    """Every kind of matrix the package derives without the constructor checks."""
    n = ns.n
    d = all_pairs_distances(build_cp_graph(ns))
    e = reducing_matrix(ns)
    r = congruence_reduce(d, e)
    h = reduced_graph(ns.base).adjacency_matrix()
    assert r == h
    return [
        d, e, r, h, d.t, e.t, e @ d, e.t @ d,
        d.leading(0), d.leading(n // 2), d.leading(n),
        _bordered(d, (1,) * n),
        _bordered(r, (1, 1) + (0,) * (n - 2)),
        weighted_path_matrix(n - 2),
    ]


@st.composite
def members(draw, n_max=14):
    n = draw(st.integers(2, n_max))
    q = [0, 1]
    for _ in range(n - 2):
        q.append(draw(st.integers(2, q[-1] + 1)))
    s = NonLeapingSequence(tuple(q))
    anchors = []
    for k in range(3, n + 1):
        anchors.append(draw(st.sampled_from(sorted(admissible_anchors(s, k, anchors)))))
    return NeighborhoodSequence(s, tuple(anchors))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(members())
def test_random_members_build_valid_values(ns):
    assert_valid_graph(build_cp_graph(ns))
    assert_valid_weighted_graph(reduced_graph(ns.base))
    for m in package_built_matrices(ns):
        assert_valid_matrix(m)
    for member in islice(enumerate_neighborhood_sequences(ns.base), 50):
        assert type(member.anchors) is tuple
        checked = NeighborhoodSequence(ns.base, member.anchors)
        assert checked == member and hash(checked) == hash(member)


def test_every_small_family_builds_valid_values():
    for n in range(2, 9):
        for s in iter_nonleaping_sequences(n):
            assert_valid_weighted_graph(reduced_graph(s))
            for ns in enumerate_neighborhood_sequences(s):
                assert ns == NeighborhoodSequence(s, ns.anchors)
                assert_valid_graph(build_cp_graph(ns))
                for m in package_built_matrices(ns):
                    assert_valid_matrix(m)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(2, 14).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
))
def test_pruefer_trees_are_valid_graphs(case):
    n, code = case
    g = tree_from_pruefer(n, tuple(code))
    assert_valid_graph(g)
    assert len(g.edges) == n - 1
