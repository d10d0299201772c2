import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgraphs import fixtures as fx
from cpgraphs.errors import InputError
from cpgraphs.graphs import all_pairs_distances, build_cp_graph
from cpgraphs.linalg import Inertia, determinant, inertia_congruence
from cpgraphs.matrices import DimensionMismatch, IntMatrix
from cpgraphs.reduction import (
    SeesawParams,
    WeightedGraph,
    congruence_reduce,
    reduced_graph,
    reducing_matrix,
    seesaw_graph,
    seesaw_params,
    seesaw_vertex_map,
    weighted_graph_from_json_obj,
    weighted_graph_to_dot,
    weighted_graph_to_json_obj,
    weighted_path_matrix,
)
from cpgraphs.sequences import (
    CliquePathSpec,
    NeighborhoodSequence,
    NonLeapingSequence,
    enumerate_neighborhood_sequences,
    expand_clique_path_spec,
    iter_nonleaping_sequences,
)
from cpgraphs.suites import random_member


def test_weighted_graph_validation():
    WeightedGraph(3, (0, 0, -2), ((1, 2, 1), (2, 3, 1)))
    with pytest.raises(InputError):
        WeightedGraph(3, (0, 0, -2), ((1, 1, 1),))
    with pytest.raises(InputError):
        WeightedGraph(3, (0, 0, -2), ((1, 2, 0),))
    with pytest.raises(InputError):
        WeightedGraph(3, (0, 0, -2), ((1, 2, 1), (2, 1, 1)))
    with pytest.raises(InputError):
        WeightedGraph(3, (0, 0), ((1, 2, 1),))


def test_weighted_graph_weights_must_be_int():
    # adjacency_matrix() builds its IntMatrix unchecked, so the weights are
    # checked when the graph is made
    for vw, ew in (((0.5, 0), ((1, 2, 1),)), ((0, 0), ((1, 2, 1.5),))):
        with pytest.raises(TypeError):
            WeightedGraph(2, vw, ew).adjacency_matrix()


def test_adjacency_matrix():
    h = WeightedGraph(3, (5, 0, -2), ((1, 2, 1), (2, 3, -1)))
    assert h.adjacency_matrix() == IntMatrix.from_rows([[5, 1, 0], [1, 0, -1], [0, -1, -2]])


def test_reduced_graph_triangle():
    h = reduced_graph(NonLeapingSequence((0, 1, 2)))
    assert h.vertex_weights == (0, 0, -2)
    assert sorted(h.edges) == [(1, 2, 1), (2, 3, 1)]


def test_reduced_graph_edge_only():
    h = reduced_graph(NonLeapingSequence((0, 1)))
    assert h.vertex_weights == (0, 0)
    assert h.edges == ((1, 2, 1),)


def test_reduced_graph_recorded_example():
    s = NonLeapingSequence(fx.CP8_SEQ)
    assert reduced_graph(s).adjacency_matrix() == fx.CP8_REDUCED_ADJACENCY


def test_reduced_graph_back_neighbor_rule():
    # below each vertex k >= 4 the reduced graph keeps one of three patterns,
    # decided purely by how q moves
    for n in range(4, 9):
        for s in iter_nonleaping_sequences(n):
            h = reduced_graph(s)
            below = {k: [] for k in range(1, n + 1)}
            for u, v, w in h.edges:
                below[v].append((u, w))
            for k in range(4, n + 1):
                got = sorted(below[k])
                if s.qk(k) == 2:
                    assert got == [(s.bk(k - 1), 1)]
                elif s.qk(k) == s.qk(k - 1) + 1:
                    assert got == [(k - 1, 1)]
                else:
                    assert got == sorted(
                        [(s.bk(k - 1), 1), (s.bk(k), -1), (k - 1, 1)]
                    )


def test_reduced_vertex_weights():
    for s in iter_nonleaping_sequences(6):
        h = reduced_graph(s)
        assert h.vertex_weights == (0, 0) + (-2,) * (s.n - 2)


def test_reducing_matrix_recorded_examples():
    s = NonLeapingSequence(fx.CP8_SEQ)
    chain = NeighborhoodSequence(s, fx.CP8_CHAIN_ANCHORS)
    hub = NeighborhoodSequence(s, fx.CP8_HUB_ANCHORS)
    assert reducing_matrix(chain) == fx.CP8_CHAIN_REDUCER
    assert reducing_matrix(hub) == fx.CP8_HUB_REDUCER


def test_reducing_matrix_shape():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 9)
        q = [0, 1]
        for _ in range(n - 2):
            q.append(rng.randint(2, q[-1] + 1))
        s = NonLeapingSequence(tuple(q))
        members = list(enumerate_neighborhood_sequences(s))
        ns = members[rng.randrange(len(members))]
        e = reducing_matrix(ns)
        assert determinant(e) == 1  # unit upper triangular
        for i in range(n):
            assert e.rows[i][i] == 1
            for j in range(i):
                assert e.rows[i][j] == 0
        cols = list(zip(*e.rows))
        assert sum(cols[0]) == 1 and sum(cols[1]) == 1
        for j in range(2, n):
            assert sum(cols[j]) == 0


def test_congruence_on_recorded_member():
    s = NonLeapingSequence(fx.CP8_SEQ)
    ns = NeighborhoodSequence(s, fx.CP8_CHAIN_ANCHORS)
    d = all_pairs_distances(build_cp_graph(ns))
    assert d == fx.CP8_CHAIN_DISTANCES
    assert congruence_reduce(d, reducing_matrix(ns)) == fx.CP8_REDUCED_ADJACENCY


def test_congruence_random_members():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(2, 9)
        q = [0, 1]
        for _ in range(n - 2):
            q.append(rng.randint(2, q[-1] + 1))
        s = NonLeapingSequence(tuple(q))
        h = reduced_graph(s).adjacency_matrix()
        for ns in enumerate_neighborhood_sequences(s, limit=6):
            d = all_pairs_distances(build_cp_graph(ns))
            assert congruence_reduce(d, reducing_matrix(ns)) == h


def brute_congruence(d, e):
    # (E^T D E)_ij = sum_kl e_ki d_kl e_lj, with no intermediate product
    n = d.n
    pairs = [(k, l) for k in range(n) for l in range(n)]
    return [
        [sum(e.rows[k][i] * d.rows[k][l] * e.rows[l][j] for k, l in pairs) for j in range(n)]
        for i in range(n)
    ]


@st.composite
def square_pairs(draw):
    n = draw(st.integers(0, 6))
    square = st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
    return IntMatrix.from_rows(draw(square)), IntMatrix.from_rows(draw(square))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(square_pairs())
def test_congruence_reduce_any_square_pair(pair):
    # D need not be symmetric and E need not be a reducing matrix
    d, e = pair
    assert congruence_reduce(d, e).rows == tuple(tuple(r) for r in brute_congruence(d, e))


def test_congruence_reduce_real_pairs_against_brute():
    # random members' own (D, E) up to n = 40, where E^T is +-1 with at most
    # 4 nonzeros per row
    rng = random.Random(40)
    for n in (2, 3, 7, 12, 19, 26, 33, 40):
        q = [0, 1]
        for _ in range(n - 2):
            q.append(rng.randint(2, q[-1] + 1))
        ns = random_member(rng, NonLeapingSequence(tuple(q)))
        d, e = all_pairs_distances(build_cp_graph(ns)), reducing_matrix(ns)
        assert congruence_reduce(d, e).rows == tuple(tuple(r) for r in brute_congruence(d, e))


def test_congruence_reduce_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        congruence_reduce(IntMatrix.identity(2), IntMatrix.identity(3))


def test_weighted_path_matrix():
    assert weighted_path_matrix(0).n == 0
    assert weighted_path_matrix(1) == IntMatrix.from_rows([[-2]])
    a = weighted_path_matrix(4)
    assert a == IntMatrix.from_rows(
        [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
    )
    for n in range(1, 9):
        m = weighted_path_matrix(n)
        assert determinant(m) == (-1) ** n * (n + 1)
        assert inertia_congruence(m) == Inertia(0, n, 0)


def test_seesaw_params():
    assert seesaw_params(CliquePathSpec((3, 4, 3, 4))) == SeesawParams(2, 4)
    assert seesaw_params(CliquePathSpec(())) == SeesawParams(0, 0)
    assert seesaw_params(CliquePathSpec((5,))) == SeesawParams(3, 0)


def test_seesaw_graph_shape():
    h = seesaw_graph(SeesawParams(2, 3))
    assert h.n == 7
    assert h.vertex_weights == (0, 0) + (-2,) * 5
    assert sorted(h.edges) == [
        (1, 2, 1),
        (2, 3, 1),
        (2, 5, 1),
        (3, 4, 1),
        (5, 6, 1),
        (6, 7, 1),
    ]


def test_seesaw_matches_reduced_graph():
    # the explicit relabeling carries every reduced 2-clique-path graph onto
    # its seesaw, including vertex weights
    for m in range(0, 4):
        for p in product((3, 4, 5, 6), repeat=m):
            spec = CliquePathSpec(p)
            red = reduced_graph(expand_clique_path_spec(spec))
            want = seesaw_graph(seesaw_params(spec))
            vm = seesaw_vertex_map(spec)
            assert sorted(vm) == list(range(1, red.n + 1))
            assert sorted(vm.values()) == list(range(1, want.n + 1))
            assert red.relabeled(vm) == want


def test_relabeled_identity():
    h = reduced_graph(NonLeapingSequence((0, 1, 2, 2)))
    assert h.relabeled({v: v for v in range(1, 5)}) == h


def test_weighted_json_round_trip():
    h = reduced_graph(NonLeapingSequence(fx.CP8_SEQ))
    assert weighted_graph_from_json_obj(weighted_graph_to_json_obj(h)) == h


def test_weighted_dot():
    dot = weighted_graph_to_dot(seesaw_graph(SeesawParams(1, 1)))
    assert "label" in dot and dot.startswith("graph")
