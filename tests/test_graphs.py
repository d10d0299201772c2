import random
import re
import sys
from collections import Counter
from itertools import combinations

import pytest

from cpgraphs.crosschecks import bfs_distances, is_connected
from cpgraphs.errors import InputError
from cpgraphs.fixtures import FIXTURE_NAMES, fixture_graph
from cpgraphs.formulas import distance_invariants
from cpgraphs.graphs import (
    Disconnected,
    DuplicateEdge,
    EdgeNotInBase,
    LabeledGraph,
    ParseError,
    SelfLoop,
    all_pairs_distances,
    attach,
    blocks,
    build_cp_graph,
    complete_graph,
    cycle_graph,
    graph_from_json_obj,
    graph_to_dot,
    graph_to_json_obj,
    parse_edge_list,
    path_graph,
)
from cpgraphs.sequences import (
    NeighborhoodSequence,
    NonLeapingSequence,
    enumerate_neighborhood_sequences,
    iter_nonleaping_sequences,
)


def neighbors(g, v):
    """The vertices joined to v, ascending."""
    return tuple(sorted(w for e in g.edges if v in e for w in e if w != v))


def degree(g, v):
    return len(neighbors(g, v))


def anchor(ns, k):
    """a_k of the member `ns`, with a_2 = 1."""
    return 1 if k == 2 else ns.anchors[k - 3]


def window(ns, k):
    """W_k, the set of earlier vertices joined to vertex k of the member `ns`."""
    if k == 1:
        return frozenset()
    return frozenset({anchor(ns, k), *range(ns.base.bk(k), k)})


def random_member(rng, n):
    q = [0, 1]
    for _ in range(n - 2):
        q.append(rng.randint(2, q[-1] + 1))
    s = NonLeapingSequence(tuple(q))
    from cpgraphs.sequences import admissible_anchors

    anchors = []
    for k in range(3, n + 1):
        anchors.append(rng.choice(sorted(admissible_anchors(s, k, anchors))))
    return NeighborhoodSequence(s, tuple(anchors))


def test_constructors():
    assert path_graph(4).edges == ((1, 2), (2, 3), (3, 4))
    assert cycle_graph(4).edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert len(complete_graph(5).edges) == 10
    assert path_graph(1).edges == ()


def test_edge_normalization_and_validation():
    g = LabeledGraph(3, ((3, 1), (2, 1)))
    assert g.edges == ((1, 2), (1, 3))
    with pytest.raises(SelfLoop):
        LabeledGraph(2, ((1, 1),))
    with pytest.raises(DuplicateEdge):
        LabeledGraph(2, ((1, 2), (2, 1)))
    with pytest.raises(InputError):
        LabeledGraph(2, ((1, 3),))


def test_neighbors_and_degree():
    g = cycle_graph(5)
    assert neighbors(g, 1) == (2, 5)
    assert degree(g, 3) == 2
    # edges are sorted (u, v) pairs with u < v
    assert (1, 5) in g.edges and (5, 1) not in g.edges and (1, 3) not in g.edges


def test_distance_matrix():
    d = all_pairs_distances(path_graph(5))
    assert d.rows[0] == (0, 1, 2, 3, 4)
    assert d.is_symmetric()
    with pytest.raises(Disconnected):
        all_pairs_distances(LabeledGraph(4, ((1, 2), (3, 4))))


def test_distance_matrix_is_metric():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = {(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < 0.6}
        for v in range(2, n + 1):
            edges.add((rng.randint(1, v - 1), v))
        d = all_pairs_distances(LabeledGraph(n, tuple(sorted(edges))))
        for i in range(n):
            assert d.rows[i][i] == 0
            for j in range(n):
                for k in range(n):
                    assert d.rows[i][j] <= d.rows[i][k] + d.rows[k][j]


def bfs_rows(g):
    """The distance matrix's rows by one single-source BFS per vertex."""
    return tuple(tuple(bfs_distances(g, s)[1:]) for s in range(1, g.n + 1))


def random_graph(rng):
    """A graph on 0..40 vertices whose edges each occur with one drawn
    probability below 0.3; about half of them are disconnected."""
    n = rng.randint(0, 40)
    p = rng.random() * 0.3
    return LabeledGraph(n, tuple(e for e in combinations(range(1, n + 1), 2) if rng.random() < p))


def test_distances_match_per_source_bfs():
    rng = random.Random(5)
    disconnected = 0
    for _ in range(300):
        g = random_graph(rng)
        if is_connected(g):
            rows = all_pairs_distances(g).rows
            assert rows == bfs_rows(g), g
            assert all(type(x) is int for row in rows for x in row)
        else:
            disconnected += 1
            with pytest.raises(Disconnected, match="^vertex 1 cannot reach every vertex$"):
                all_pairs_distances(g)
    assert 100 < disconnected < 200


@pytest.mark.parametrize("n", [255, 256, 257, 300])
def test_distances_across_the_lane_width(n):
    # P_256's diameter 255 is the most a one-byte lane holds
    g = path_graph(n)
    assert all_pairs_distances(g).rows == bfs_rows(g)


def test_diameter_above_a_byte():
    # the only graph on 257 vertices with diameter 256 is a path; shuffled
    # labels put its ends in arbitrary lanes
    order = list(range(1, 258))
    random.Random(6).shuffle(order)
    g = LabeledGraph(257, tuple(zip(order, order[1:])))
    d = all_pairs_distances(g)
    assert d.rows == bfs_rows(g)
    assert max(map(max, d.rows)) == 256


def test_distances_kept_per_graph_object():
    g = cycle_graph(6)
    d = all_pairs_distances(g)
    assert all_pairs_distances(g) is d
    # an equal graph built anew computes its own D: nothing is keyed by equality
    fresh = LabeledGraph(6, g.edges)
    assert all_pairs_distances(fresh) == d and all_pairs_distances(fresh) is not d
    assert fresh == g and hash(fresh) == hash(g)
    other = path_graph(6)
    assert all_pairs_distances(other).rows == bfs_rows(other)
    assert all_pairs_distances(g) is d
    split = LabeledGraph(4, ((1, 2), (3, 4)))
    for _ in range(2):
        with pytest.raises(Disconnected, match="^vertex 1 cannot reach every vertex$"):
            all_pairs_distances(split)


def enumerated_distances_hold(
    n_max, members=enumerate_neighborhood_sequences, build=build_cp_graph,
    distances=all_pairs_distances,
):
    """D of each member of the families with n <= n_max, read through
    `members` (an enumerator), `build` and `distances`, equals bfs_rows of a
    fresh equal graph: asked for while the walk stands on the member, and
    again for every member collected with list() first, last to first and
    then first to last. Every D taken during a walk is read again once its
    family is done, so a D that changes as the walk advances shows."""
    for s in (s for n in range(2, n_max + 1) for s in iter_nonleaping_sequences(n)):
        taken = []
        for ns in members(s):
            g = build(ns)
            want = bfs_rows(LabeledGraph(g.n, g.edges))
            taken.append((distances(g), want))
            if tuple(map(tuple, taken[-1][0].rows)) != want:
                return False
        collected = [build(ns) for ns in members(s)]
        for g in collected[::-1] + [build(ns) for ns in list(members(s))]:
            if tuple(map(tuple, distances(g).rows)) != bfs_rows(LabeledGraph(g.n, g.edges)):
                return False
        if any(tuple(map(tuple, d.rows)) != want for d, want in taken):
            return False
    return True


def test_enumerated_members_read_the_shared_rows():
    # 9525 members with n <= 9, each read during the walk against both a
    # fresh equal graph's BFS and the per-source oracle
    members = 0
    for n in range(2, 10):
        for s in iter_nonleaping_sequences(n):
            for ns in enumerate_neighborhood_sequences(s):
                g = build_cp_graph(ns)
                d = all_pairs_distances(g)
                fresh = LabeledGraph(g.n, g.edges)
                assert d == all_pairs_distances(fresh) and d.rows == bfs_rows(fresh), ns
                assert all(type(row) is tuple for row in d.rows)
                members += 1
    assert members == 9525
    assert enumerated_distances_hold(7)


def test_distances_taken_from_the_walk_stay_put():
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    walk = enumerate_neighborhood_sequences(s)
    first = next(walk)
    g = build_cp_graph(first)
    d = all_pairs_distances(g)
    rows = d.rows
    later = [all_pairs_distances(build_cp_graph(ns)) for ns in walk]
    # the walk's rows moved on: 15 more members, not all with the first's D
    assert len(later) == 15 and any(x != d for x in later)
    assert d.rows == rows == bfs_rows(LabeledGraph(g.n, g.edges))
    assert all_pairs_distances(g) is d
    # a member asked for after the walk moved on: the BFS, on its own graph object
    stale = build_cp_graph(first)
    assert all_pairs_distances(stale) == d and all_pairs_distances(stale) is not d


@pytest.mark.parametrize("g", [*map(fixture_graph, FIXTURE_NAMES), path_graph(256)])
def test_invariants_read_the_stored_distances(g):
    all_pairs_distances(g)
    assert distance_invariants(g) == distance_invariants(LabeledGraph(g.n, g.edges))


def test_build_cp_graph_smallest():
    s = NonLeapingSequence((0, 1, 2))
    (ns,) = list(enumerate_neighborhood_sequences(s))
    assert build_cp_graph(ns) == complete_graph(3)


def test_window_cliques():
    # every window plus its new vertex induces a clique
    rng = random.Random(1)
    for _ in range(25):
        ns = random_member(rng, rng.randint(2, 8))
        g = build_cp_graph(ns)
        for k in range(2, ns.n + 1):
            members = sorted(window(ns, k) | {k})
            for u, v in combinations(members, 2):
                assert (u, v) in g.edges, (ns, k)


def test_cp_edge_count():
    # vertex k brings |W_k| new edges
    rng = random.Random(2)
    for _ in range(25):
        ns = random_member(rng, rng.randint(2, 9))
        g = build_cp_graph(ns)
        assert len(g.edges) == sum(len(window(ns, k)) for k in range(2, ns.n + 1))


def test_column_difference_single_anchor():
    # subtracting the anchor column from column k leaves 1s strictly below the
    # window, 0s across it, and -1 at k itself
    rng = random.Random(3)
    for _ in range(40):
        ns = random_member(rng, rng.randint(2, 9))
        d = all_pairs_distances(build_cp_graph(ns))
        for k in range(2, ns.n + 1):
            a = anchor(ns, k)
            b = ns.base.bk(k)
            for h in range(1, k + 1):
                diff = d.rows[h - 1][k - 1] - d.rows[h - 1][a - 1]
                if h < b:
                    assert diff == 1
                elif h < k:
                    assert diff == 0
                else:
                    assert diff == -1


def test_column_difference_consecutive_anchors():
    # the length-four combination (col k - anchor k) - (col k-1 - anchor k-1)
    rng = random.Random(4)
    for _ in range(40):
        ns = random_member(rng, rng.randint(3, 9))
        d = all_pairs_distances(build_cp_graph(ns))
        for k in range(3, ns.n + 1):
            ak, ak1 = anchor(ns, k), anchor(ns, k - 1)
            bk, bk1 = ns.base.bk(k), ns.base.bk(k - 1)
            for h in range(1, k + 1):
                r = d.rows[h - 1]
                val = r[k - 1] - r[ak - 1] - r[k - 2] + r[ak1 - 1]
                if h < bk1:
                    want = 0
                elif h < bk:
                    want = 1
                elif h < k - 1:
                    want = 0
                elif h == k - 1:
                    want = 1
                else:
                    want = -1 if ak1 == ak else 0
                assert val == want, (ns, k, h)


def test_attach_requires_base_edge_and_shared_edge():
    base = cycle_graph(5)
    tri = complete_graph(3)
    for edge in ((1, 3), (5, 9), (0, 1)):
        text = re.escape(f"{edge} is not an edge of the base graph")
        with pytest.raises(EdgeNotInBase, match=f"^{text}$"):
            attach(base, edge, tri)
    with pytest.raises(InputError, match=r"^attached graph must contain the edge \{1, 2\}$"):
        attach(base, (1, 2), LabeledGraph(3, ((1, 3), (2, 3))))
    with pytest.raises(SelfLoop, match=r"^attachment edge \(2, 2\) is degenerate$"):
        attach(base, (2, 2), tri)


def test_attach_labels_and_edges():
    base = cycle_graph(5)
    tri = complete_graph(3)
    res = attach(base, (2, 3), tri)
    assert res.graph.n == 6
    assert res.cp_map == {1: 2, 2: 3, 3: 6}
    assert (2, 6) in res.graph.edges and (3, 6) in res.graph.edges
    assert set(base.edges) <= set(res.graph.edges)
    # flipping the receiving edge swaps the roles of its two ends
    res2 = attach(base, (3, 2), tri)
    assert res2.cp_map == {1: 3, 2: 2, 3: 6}


def test_attach_preserves_distances():
    # base-to-base distances survive, and new-vertex distances route through
    # the shared edge
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(3, 6)
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        edges |= {(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < 0.4}
        base = LabeledGraph(n, tuple(sorted(edges)))
        u, v = base.edges[rng.randrange(len(base.edges))]
        cp = build_cp_graph(random_member(rng, rng.randint(3, 6)))
        both = attach(base, (u, v), cp).graph
        db, dcp, dall = (
            all_pairs_distances(base),
            all_pairs_distances(cp),
            all_pairs_distances(both),
        )
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                assert dall.rows[x - 1][y - 1] == db.rows[x - 1][y - 1]
        for j in range(3, cp.n + 1):
            glued = n + j - 2
            for w in range(1, n + 1):
                want = min(
                    dcp.rows[j - 1][0] + db.rows[u - 1][w - 1],
                    dcp.rows[j - 1][1] + db.rows[v - 1][w - 1],
                )
                assert dall.rows[glued - 1][w - 1] == want
            for j2 in range(3, cp.n + 1):
                glued2 = n + j2 - 2
                assert dall.rows[glued - 1][glued2 - 1] == dcp.rows[j - 1][j2 - 1]


def brute_cut_vertices(g):
    out = []
    for v in range(1, g.n + 1):
        if g.n < 3:
            continue
        # g - v, with the labels above v moved down by one
        rest = tuple((a - (a > v), b - (b > v)) for a, b in g.edges if v not in (a, b))
        if not is_connected(LabeledGraph(g.n - 1, rest)):
            out.append(v)
    return out


def test_blocks_examples():
    tri_pendant = LabeledGraph(4, ((1, 2), (1, 3), (2, 3), (3, 4)))
    bs = blocks(tri_pendant)
    assert [b.vertices for b in bs] == [(1, 2, 3), (3, 4)]
    assert [b.vertices for b in blocks(path_graph(4))] == [(1, 2), (2, 3), (3, 4)]
    assert [b.vertices for b in blocks(cycle_graph(5))] == [(1, 2, 3, 4, 5)]


def blocks_split_at_cut_vertices(g, bs):
    """Each edge of g lies in exactly one of the blocks bs, and the vertices
    in more than one block are g's cut vertices."""
    seen = sorted((b.vertices[x - 1], b.vertices[y - 1]) for b in bs for x, y in b.graph.edges)
    membership = Counter(v for b in bs for v in b.vertices)
    cuts = sorted(v for v, c in membership.items() if c > 1)
    return seen == list(g.edges) and cuts == brute_cut_vertices(g)


def test_blocks_partition_edges_and_cut_vertices():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        edges |= {(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < 0.25}
        g = LabeledGraph(n, tuple(sorted(edges)))
        assert blocks_split_at_cut_vertices(g, blocks(g)), g


def test_blocks_deeper_than_recursion_limit():
    bs = blocks(path_graph(3000))
    assert len(bs) == 2999
    assert all(b.vertices == (i, i + 1) for i, b in enumerate(bs, start=1))
    # triangle i is {2i-1, 2i, 2i+1}; the depth-first search walks all 2k+1
    # vertices in one branch
    k = sys.getrecursionlimit()
    edges = []
    for i in range(1, k + 1):
        edges += [(2 * i - 1, 2 * i), (2 * i, 2 * i + 1), (2 * i - 1, 2 * i + 1)]
    bs = blocks(LabeledGraph(2 * k + 1, tuple(edges)))
    assert [b.vertices for b in bs] == [(2 * i - 1, 2 * i, 2 * i + 1) for i in range(1, k + 1)]
    assert all(b.graph == cycle_graph(3) for b in bs)


def test_parse_edge_list():
    g = parse_edge_list("# header\nn 4\n1 2\n2 3\n\n3 4\n")
    assert g == path_graph(4)
    assert parse_edge_list("1 2\n2 3").n == 3  # n inferred from labels
    with pytest.raises(ParseError) as e:
        parse_edge_list("1 2\nbogus\n")
    assert e.value.lineno == 2
    with pytest.raises(SelfLoop):
        parse_edge_list("1 1\n")
    with pytest.raises(DuplicateEdge):
        parse_edge_list("1 2\n2 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("n 2\n1 3\n")
    with pytest.raises(ParseError):
        parse_edge_list("")


def test_edge_list_round_trip():
    g = cycle_graph(6)
    assert parse_edge_list(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)) == g


def test_json_round_trip():
    g = build_cp_graph(random_member(random.Random(8), 7))
    assert graph_from_json_obj(graph_to_json_obj(g)) == g
    with pytest.raises(InputError):
        graph_from_json_obj({"n": 2})


def test_dot_output():
    dot = graph_to_dot(path_graph(3))
    assert "1 -- 2;" in dot and "2 -- 3;" in dot
    assert dot.startswith("graph")
