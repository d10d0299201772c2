import copy
import pickle
import random
from dataclasses import replace
from itertools import islice, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_matrices import identity

from cpgraphs import fixtures as fx
from cpgraphs import graphs, reduction, sequences
from cpgraphs.crosschecks import det_by_cofactor_expansion
from cpgraphs.errors import InputError
from cpgraphs.formulas import distance_invariants, family_invariants
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
    minimal_anchors,
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
                if s.q[k - 1] == 2:
                    assert got == [(s.bk(k - 1), 1)]
                elif s.q[k - 1] == s.q[k - 2] + 1:
                    assert got == [(k - 1, 1)]
                else:
                    assert got == sorted(
                        [(s.bk(k - 1), 1), (s.bk(k), -1), (k - 1, 1)]
                    )


def test_reduced_vertex_weights():
    for s in iter_nonleaping_sequences(6):
        h = reduced_graph(s)
        assert h.vertex_weights == (0, 0) + (-2,) * (s.n - 2)


def test_reduced_graph_of_a_prefix_is_the_leading_block():
    # the congruence suite's walk checks column k once, against the A(H) of
    # the family q[:k + 1], for every family that extends it
    adjacency = {
        s.q: reduced_graph(s).adjacency_matrix()
        for n in range(2, 11)
        for s in iter_nonleaping_sequences(n)
    }
    assert len(adjacency) == 2056
    for q, a in adjacency.items():
        for k in range(2, len(q)):
            assert adjacency[q[:k]] == a.leading(k)


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
        assert det_by_cofactor_expansion(e) == 1  # unit upper triangular
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
        for ns in islice(enumerate_neighborhood_sequences(s), 6):
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


def seeded_members(rng, orders):
    """One random member per order, of a random family of that order."""
    for n in orders:
        q = [0, 1]
        for _ in range(n - 2):
            q.append(rng.randint(2, q[-1] + 1))
        yield random_member(rng, NonLeapingSequence(tuple(q)))


def with_upper_noise(d, rng):
    """d plus seeded integers strictly above the diagonal: a D that is not
    symmetric, so E^T D E and its transpose differ."""
    return IntMatrix(tuple(
        tuple(x + rng.randint(-9, 9) * (j > i) for j, x in enumerate(r)) for i, r in enumerate(d.rows)
    ))


def test_congruence_reduce_real_pairs_against_brute():
    # random members' own (D, E) up to n = 40, where E^T is +-1 with at most
    # 4 nonzeros per row: E as reducing_matrix records it takes the anchor
    # route, the same rows as IntMatrix(rows) the general one, and a D' that
    # is not symmetric tells E^T D' E from its transpose
    noise = random.Random(41)
    for ns in seeded_members(random.Random(40), (2, 3, 7, 12, 19, 26, 33, 40)):
        d, e = all_pairs_distances(build_cp_graph(ns)), reducing_matrix(ns)
        want = tuple(tuple(r) for r in brute_congruence(d, e))
        assert congruence_reduce(d, e).rows == want
        assert congruence_reduce(d, IntMatrix(e.rows)).rows == want
        skew = with_upper_noise(d, noise)
        assert congruence_reduce(skew, e).rows == tuple(tuple(r) for r in brute_congruence(skew, e))


def e_by_columns(ns):
    """E's rows from its column definition: e_1, e_2, then column k is
    e_k - e_(a_k) - e_(k-1) + e_(a_(k-1)), with a_2 = 1."""
    n = ns.n
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for k, a, prev in zip(range(3, n + 1), ns.anchors, (1, *ns.anchors)):
        for i, x in ((a, -1), (k - 1, -1), (prev, 1)):
            cols[k - 1][i - 1] += x
    return tuple(zip(*cols))


def test_every_member_up_to_order_8_reduces_both_ways():
    # the anchor route, the @ route on E's bare rows and A(H) agree on all
    # 1773 members with n <= 8, and E's rows follow its column definition
    members = 0
    for n in range(2, 9):
        for s in iter_nonleaping_sequences(n):
            h = reduced_graph(s).adjacency_matrix()
            for ns in enumerate_neighborhood_sequences(s):
                d, e = all_pairs_distances(build_cp_graph(ns)), reducing_matrix(ns)
                assert e.rows == e_by_columns(ns)
                assert congruence_reduce(d, e) == congruence_reduce(d, IntMatrix(e.rows)) == h
                members += 1
    assert members == 1773


def test_non_symmetric_d_where_anchors_all_repeat_or_all_move():
    # minimal_anchors takes only two-term columns; on q = 0, 1, 2, ..., 2 the
    # anchors a_k = k - 2 move at every k >= 4 (a_3 = 1 always repeats a_2)
    s = NonLeapingSequence((0, 1) + (2,) * 8)
    rng = random.Random(43)
    for anchors in (minimal_anchors(s), tuple(range(1, 9))):
        ns = NeighborhoodSequence(s, anchors)
        e = reducing_matrix(ns)
        assert e.rows == e_by_columns(ns)
        d = with_upper_noise(all_pairs_distances(build_cp_graph(ns)), rng)
        want = tuple(tuple(r) for r in brute_congruence(d, e))
        assert congruence_reduce(d, e).rows == want
        assert congruence_reduce(d, IntMatrix(e.rows)).rows == want


def test_recorded_reducing_matrix_is_its_rows():
    # the anchors E keeps are no part of its value
    e = reducing_matrix(NeighborhoodSequence(NonLeapingSequence(fx.CP8_SEQ), fx.CP8_HUB_ANCHORS))
    plain = IntMatrix(e.rows)
    assert e == plain and hash(e) == hash(plain) and repr(e) == repr(plain)
    assert {plain: "found"}[e] == "found"


def test_recorded_reducing_matrix_takes_no_product():
    ns = NeighborhoodSequence(NonLeapingSequence(fx.CP8_SEQ), fx.CP8_CHAIN_ANCHORS)
    d = all_pairs_distances(build_cp_graph(ns))
    with mock.patch.object(IntMatrix, "__matmul__", side_effect=AssertionError("@ called")):
        assert congruence_reduce(d, reducing_matrix(ns)) == fx.CP8_REDUCED_ADJACENCY


def test_congruence_reduce_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        congruence_reduce(identity(2), identity(3))
    # the anchor route would return a matrix of E's order without the check;
    # an enumerated member's E is refused by its anchors' order, rows unbuilt
    s = NonLeapingSequence(fx.CP8_SEQ)
    walked = reducing_matrix(next(enumerate_neighborhood_sequences(s)))
    for e in (reducing_matrix(NeighborhoodSequence(s, fx.CP8_HUB_ANCHORS)), walked):
        for n in (7, 9):
            with pytest.raises(DimensionMismatch, match=f"^orders differ: {n} vs 8$"):
                congruence_reduce(identity(n), e)
    assert "rows" not in vars(walked)


def read_like_eager(x, eager, field, pickled=True):
    """x was built with `field` unbuilt; x, and its copy.copy and (unless
    not `pickled`) pickle round trips taken before any read, then equal, hash
    like and repr like the eagerly built `eager`, as does
    dataclasses.replace(x)."""
    if field in vars(x):
        return False
    twins = [copy.copy(x), x]
    if pickled:
        twins.append(pickle.loads(pickle.dumps(x)))
    twins.append(replace(x))
    return all(
        y == eager and hash(y) == hash(eager) and repr(y) == repr(eager) and field in vars(y)
        for y in twins
    )


def lazy_reads_match_eager(n_max, build=build_cp_graph, reducing=reducing_matrix, pickled=True):
    """Each member of the families with n <= n_max gives, through `build` and
    `reducing`, a graph and an E that read_like_eager the ones built eagerly
    from an equal member with no record: built and read while the walk
    stands on the member; built then and read once the walk is done; and
    built and read, last to first, from a list() of the members."""
    def like_eager(ns, g, e):
        plain = NeighborhoodSequence(ns.base, ns.anchors)
        return read_like_eager(g, build_cp_graph(plain), "edges", pickled) and read_like_eager(
            e, reducing_matrix(plain), "rows", pickled
        )

    for s in (s for n in range(2, n_max + 1) for s in iter_nonleaping_sequences(n)):
        kept = []
        for ns in enumerate_neighborhood_sequences(s):
            kept.append((ns, build(ns), reducing(ns)))
            if not like_eager(ns, build(ns), reducing(ns)):
                return False
        listed = [(ns, build(ns), reducing(ns)) for ns in list(enumerate_neighborhood_sequences(s))]
        if not all(like_eager(*member) for member in kept + listed[::-1]):
            return False
    return True


def test_enumerated_edges_and_e_rows_are_built_on_first_read():
    # the edges and E's rows of all 1773 members with n <= 8, built from the
    # member's own anchors whenever they are read
    assert lazy_reads_match_eager(8)
    # the walk's shared rows keep no reference to them: a graph read after
    # its D was taken, with no rows grown since
    ns = next(enumerate_neighborhood_sequences(NonLeapingSequence(fx.CP8_SEQ)))
    g, e = build_cp_graph(ns), reducing_matrix(ns)
    congruence_reduce(all_pairs_distances(g), e)
    assert "edges" not in vars(g) and "rows" not in vars(e)
    assert g.edges == build_cp_graph(NeighborhoodSequence(ns.base, ns.anchors)).edges
    with pytest.raises(AttributeError, match="^'LabeledGraph' object has no attribute 'rows'$"):
        g.rows
    with pytest.raises(AttributeError, match="^'IntMatrix' object has no attribute 'edges'$"):
        e.edges


def test_family_sweep_loop_builds_no_edges_and_no_e_rows():
    # the benchmark's family-sweep loop over every family with n <= 8 reads
    # neither a member's edges nor E's rows, and every E^T D E comes off the
    # shared rows: the builders and the anchor route are patched to raise
    members = 0
    with (
        mock.patch.object(graphs, "_cp_edges", side_effect=AssertionError("edges built")),
        mock.patch.object(reduction, "_reducing_rows", side_effect=AssertionError("E built")),
        mock.patch.object(reduction, "_anchor_differences", side_effect=AssertionError("anchors")),
    ):
        for s in (s for n in range(2, 9) for s in iter_nonleaping_sequences(n)):
            h = reduced_graph(s).adjacency_matrix()
            first = None
            for ns in enumerate_neighborhood_sequences(s):
                g = build_cp_graph(ns)
                d = all_pairs_distances(g)
                assert congruence_reduce(d, reducing_matrix(ns)) == h
                first = g if first is None else first
                members += 1
            assert distance_invariants(first) == family_invariants(s)
    assert members == 1773


def test_mixed_records_take_the_anchor_route():
    # a D and an E of different members of one walk, or a walked D with an E
    # built from an equal member with no record, or a D with seeded noise
    # above the diagonal: none may read the shared rows, and each equals the
    # brute sum
    rng = random.Random(34)
    s = NonLeapingSequence((0, 1, 2, 3, 3, 2, 3, 3))
    walked = []
    with mock.patch.object(sequences._Prefix, "reduced_at", side_effect=AssertionError("shared")):
        for ns in enumerate_neighborhood_sequences(s):
            d = all_pairs_distances(build_cp_graph(ns))
            pairs = [
                (d, reducing_matrix(NeighborhoodSequence(s, ns.anchors))),
                (with_upper_noise(d, rng), reducing_matrix(ns)),
            ]
            if walked:
                pairs.append((walked[-1][0], reducing_matrix(ns)))
                pairs.append((d, walked[0][1]))
            walked.append((d, reducing_matrix(ns)))
            for x, e in pairs:
                assert congruence_reduce(x, e).rows == tuple(map(tuple, brute_congruence(x, e)))
    assert len(walked) == 12
    # once the walk has moved on, a member's own D and E read as they should
    for d, e in walked:
        assert congruence_reduce(d, e).rows == tuple(map(tuple, brute_congruence(d, e)))


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


def seesaw_vertex_map(spec):
    """Vertex bijection sending reduced_graph(expand(spec)) onto the seesaw.

    Within the reduced graph, clique i's fresh vertices occupy a contiguous
    label block; odd-position blocks chain down the left arm in order, even
    ones down the right.
    """
    params = seesaw_params(spec)
    odd, even = [], []
    c = 2
    for i, p in enumerate(spec.p, start=1):
        (odd if i % 2 == 1 else even).extend(range(c + 1, c + p - 1))
        c += p - 2
    mapping = {1: 1, 2: 2}
    mapping.update((v, 3 + i) for i, v in enumerate(odd))
    mapping.update((v, 3 + params.left + i) for i, v in enumerate(even))
    return mapping


def relabeled(h, mapping):
    """h with every vertex v renamed mapping[v]."""
    vw = [0] * h.n
    for v, t in mapping.items():
        vw[t - 1] = h.vertex_weights[v - 1]
    edges = tuple((mapping[u], mapping[v], w) for u, v, w in h.edges)
    return WeightedGraph(h.n, tuple(vw), edges)


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
            assert relabeled(red, vm) == want


def test_weighted_json_round_trip():
    h = reduced_graph(NonLeapingSequence(fx.CP8_SEQ))
    obj = weighted_graph_to_json_obj(h)
    assert WeightedGraph(obj["n"], tuple(obj["vw"]), tuple(map(tuple, obj["ew"]))) == h


def test_weighted_dot():
    dot = weighted_graph_to_dot(seesaw_graph(SeesawParams(1, 1)))
    assert "label" in dot and dot.startswith("graph")


def test_derived_objects_keep_only_their_member():
    # an enumerated member's graph, D and E keep one record, the member
    # itself, and the graph its D (a cache); the walk's record stays on the
    # member. Any other member's E keeps it too, for its anchors; its graph
    # and D keep none
    s = NonLeapingSequence(fx.CP8_SEQ)
    for ns in islice(enumerate_neighborhood_sequences(s), 3):
        g = build_cp_graph(ns)
        d, e = all_pairs_distances(g), reducing_matrix(ns)
        assert vars(ns).keys() == {"base", "anchors", "_prefix"}
        assert vars(g).keys() == {"n", "_member", "_distances"}
        assert vars(d).keys() == {"rows", "_member"}
        assert vars(e).keys() == {"_member"}
        assert g._member is d._member is e._member is ns
        assert g.edges and e.rows  # built on first read, beside the member
        assert vars(g).keys() == {"n", "edges", "_member", "_distances"}
        assert vars(e).keys() == {"rows", "_member"}
    plain = NeighborhoodSequence(s, fx.CP8_HUB_ANCHORS)
    g = build_cp_graph(plain)
    d, e = all_pairs_distances(g), reducing_matrix(plain)
    assert vars(g).keys() == {"n", "edges", "_distances"}
    assert vars(d).keys() == {"rows"}
    assert vars(e).keys() == {"rows", "_member"} and e._member is plain


def members_d_and_e_told_apart(congruence=congruence_reduce):
    """Whether `congruence`, given an enumerated member's D and E in any
    order, twice the same one included, and one E as both, while the walk
    stands on the member, forms E^T D E of the matrices it is given: a
    member's D and E both keep the member."""
    s = NonLeapingSequence((0, 1, 2, 2, 3, 3))
    for ns in enumerate_neighborhood_sequences(s):
        d = all_pairs_distances(build_cp_graph(ns))
        plain = {"d": d, "e": reducing_matrix(NeighborhoodSequence(ns.base, ns.anchors))}
        for x, y in product("de", repeat=2):
            args = [d if v == "d" else reducing_matrix(ns) for v in (x, y)]
            if congruence(*args).rows != tuple(map(tuple, brute_congruence(plain[x], plain[y]))):
                return False
        e = reducing_matrix(ns)
        if congruence(e, e).rows != tuple(map(tuple, brute_congruence(e, e))):
            return False
    return True


def test_a_members_d_and_e_are_told_apart():
    assert members_d_and_e_told_apart()
