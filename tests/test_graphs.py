import random
import sys
from itertools import combinations

import pytest

from cpgraphs.errors import InputError
from cpgraphs.graphs import (
    Disconnected,
    DuplicateEdge,
    EdgeNotInBase,
    LabeledGraph,
    ParseError,
    SelfLoop,
    all_pairs_distances,
    attach,
    bfs_distances,
    blocks,
    build_cp_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    graph_from_json_obj,
    graph_to_dot,
    graph_to_json_obj,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    path_graph,
)
from cpgraphs.sequences import (
    NeighborhoodSequence,
    NonLeapingSequence,
    enumerate_neighborhood_sequences,
    iter_nonleaping_sequences,
)
from cpgraphs.suites import tree_from_pruefer


def degree(g, v):
    return len(g.neighbors(v))


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
    assert g.neighbors(1) == (2, 5)
    assert degree(g, 3) == 2
    assert g.has_edge(5, 1) and not g.has_edge(1, 3)


def test_adjacency_lists_ascending():
    # _adj relies on sorted edges instead of sorting each neighbour list
    rng = random.Random(12)
    graphs = []
    for _ in range(20):
        n = rng.randint(2, 9)
        edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(edges)
        graphs.append(LabeledGraph(n, tuple(edges)))
        cp = build_cp_graph(random_member(rng, rng.randint(3, 9)))
        graphs.append(cp)
        graphs.append(tree_from_pruefer(n, tuple(rng.randint(1, n) for _ in range(n - 2))))
        base = graphs[-1]
        graphs.append(attach(base, base.edges[rng.randrange(len(base.edges))], cp).graph)
        graphs += [b.graph for b in blocks(cp)]
    for g in graphs:
        for v in range(g.n + 1):
            assert g._adj[v] == tuple(sorted(g._adj[v]))


def test_bfs_and_distance_matrix():
    g = path_graph(5)
    # slot 0 of the 1-indexed bfs list is unused and stays -1
    assert bfs_distances(g, 1) == [-1, 0, 1, 2, 3, 4]
    d = all_pairs_distances(g)
    assert d.rows[0] == (0, 1, 2, 3, 4)
    assert d.is_symmetric()
    g2 = LabeledGraph(4, ((1, 2), (3, 4)))
    assert not is_connected(g2)
    assert bfs_distances(g2, 1)[3] == -1
    with pytest.raises(Disconnected):
        all_pairs_distances(g2)
    for bad in (0, 6):
        with pytest.raises(InputError):
            bfs_distances(g, bad)


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
                assert g.has_edge(u, v), (ns, k)


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
    with pytest.raises(EdgeNotInBase):
        attach(base, (1, 3), tri)
    with pytest.raises(InputError):
        attach(base, (1, 2), LabeledGraph(3, ((1, 3), (2, 3))))


def test_attach_labels_and_edges():
    base = cycle_graph(5)
    tri = complete_graph(3)
    res = attach(base, (2, 3), tri)
    assert res.graph.n == 6
    assert res.cp_map == {1: 2, 2: 3, 3: 6}
    assert res.graph.has_edge(2, 6) and res.graph.has_edge(3, 6)
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
        keep = [u for u in range(1, g.n + 1) if u != v]
        if len(keep) < 2:
            continue
        sub, _ = induced_subgraph(g, keep)
        if not is_connected(sub):
            out.append(v)
    return out


def test_blocks_examples():
    tri_pendant = LabeledGraph(4, ((1, 2), (1, 3), (2, 3), (3, 4)))
    bs = blocks(tri_pendant)
    assert [b.vertices for b in bs] == [(1, 2, 3), (3, 4)]
    assert [b.vertices for b in blocks(path_graph(4))] == [(1, 2), (2, 3), (3, 4)]
    assert [b.vertices for b in blocks(cycle_graph(5))] == [(1, 2, 3, 4, 5)]


def test_blocks_partition_edges_and_cut_vertices():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        edges |= {(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < 0.25}
        g = LabeledGraph(n, tuple(sorted(edges)))
        bs = blocks(g)
        seen = []
        for b in bs:
            for x, y in b.graph.edges:
                seen.append((b.vertices[x - 1], b.vertices[y - 1]))
        assert sorted(seen) == list(g.edges)  # each edge in exactly one block
        membership = {}
        for b in bs:
            for v in b.vertices:
                membership.setdefault(v, 0)
                membership[v] += 1
        cuts = sorted(v for v, c in membership.items() if c > 1)
        assert cuts == brute_cut_vertices(g)


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
    assert parse_edge_list(format_edge_list(g)) == g


def test_json_round_trip():
    g = build_cp_graph(random_member(random.Random(8), 7))
    assert graph_from_json_obj(graph_to_json_obj(g)) == g
    with pytest.raises(InputError):
        graph_from_json_obj({"n": 2})


def test_dot_output():
    dot = graph_to_dot(path_graph(3))
    assert "1 -- 2;" in dot and "2 -- 3;" in dot
    assert dot.startswith("graph")


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, labels = induced_subgraph(g, [2, 3, 5])
    assert labels == (2, 3, 5)
    assert sub.edges == ((1, 2),)  # only 2-3 survives among {2,3,5}
