import random
from itertools import islice, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graphs import degree, neighbors
from test_linalg import symmetric_matrices
from test_suites import all_codes, dense_invariants

from cpgraphs import formulas
from cpgraphs.cli import MAX_VERTICES
from cpgraphs.crosschecks import det_by_cofactor_expansion, is_connected
from cpgraphs.formulas import (
    BlockCliquePathRecipe,
    BlockPart,
    EmptyList,
    GraphInvariants,
    CrossCheckFailed,
    InvalidRecipe,
    _difference_congruence,
    addressing_lower_bound,
    block_2cp_inertia,
    compose_blocks,
    cp2_invariants,
    distance_invariants,
    family_invariants,
    invariants_to_json_obj,
    linear_2tree_invariants,
    realize_recipe,
    tree_invariants,
)
from cpgraphs.graphs import (
    LabeledGraph,
    all_pairs_distances,
    attach,
    blocks,
    build_cp_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from cpgraphs.linalg import (
    Inertia,
    _bordered,
    cofactor_sum,
    det_and_inertia,
    determinant,
    inertia_congruence,
)
from cpgraphs.matrices import IntMatrix
from cpgraphs.sequences import (
    CliquePathSpec,
    NeighborhoodSequence,
    NonLeapingSequence,
    admissible_anchors,
    enumerate_neighborhood_sequences,
    expand_clique_path_spec,
)
from cpgraphs.suites import (
    random_connected_graph,
    random_member,
    random_nonleaping,
    tree_from_pruefer,
)

EDGE = CliquePathSpec(())


def random_member_anchors(rng, spec):
    s = expand_clique_path_spec(spec)
    anchors = []
    for k in range(3, s.n + 1):
        anchors.append(rng.choice(sorted(admissible_anchors(s, k, anchors))))
    return tuple(anchors)


# blocks of size <= 5 whose every 2-connected shape is pinned down by
# (order, size, degree multiset); used as the 2-clique-path catalog oracle
CATALOG = {
    (2, 1): (1, 1),
    (3, 3): (2, 2, 2),
    (4, 5): (2, 2, 3, 3),
    (4, 6): (3, 3, 3, 3),
    (5, 7): (2, 2, 3, 3, 4),
    (5, 8): (2, 3, 3, 4, 4),
    (5, 10): (4, 4, 4, 4, 4),
}


def looks_like_2cp(g):
    key = (g.n, len(g.edges))
    if key not in CATALOG:
        return False
    return tuple(sorted(degree(g, v) for v in range(1, g.n + 1))) == CATALOG[key]


def test_invariants_json_round_trip():
    inv = GraphInvariants(-(10**30), Inertia(1, 6, 0), 10**31)
    obj = invariants_to_json_obj(inv)
    # decimal strings, not floats
    assert obj == {"det": str(-(10**30)), "inertia": [1, 6, 0], "cof": str(10**31)}


def test_distance_invariants_edge():
    inv = distance_invariants(path_graph(2))
    assert inv == GraphInvariants(-1, Inertia(1, 1, 0), -2)


def test_family_matches_members():
    rng = random.Random(30)
    for _ in range(15):
        q = [0, 1]
        for _ in range(rng.randint(0, 6)):
            q.append(rng.randint(2, q[-1] + 1))
        s = NonLeapingSequence(tuple(q))
        want = family_invariants(s)
        for ns in islice(enumerate_neighborhood_sequences(s), 4):
            assert distance_invariants(build_cp_graph(ns)) == want


def test_cp2_closed_form_values():
    # det carries the two arm lengths, inertia only the order, cof the order
    inv = cp2_invariants(CliquePathSpec((3, 4, 3, 4)))
    assert inv == GraphInvariants(-15, Inertia(1, 7, 0), -8)
    inv = cp2_invariants(CliquePathSpec((4,)))  # K_4
    assert inv == GraphInvariants(-3, Inertia(1, 3, 0), -4)
    inv = cp2_invariants(CliquePathSpec(()))  # bare edge
    assert inv == GraphInvariants(-1, Inertia(1, 1, 0), -2)


def test_cp2_against_bruteforce():
    rng = random.Random(31)
    for m in range(0, 4):
        for _ in range(4):
            spec = CliquePathSpec(tuple(rng.randint(3, 5) for _ in range(m)))
            anchors = random_member_anchors(rng, spec)
            g = build_cp_graph(
                NeighborhoodSequence(expand_clique_path_spec(spec), anchors)
            )
            assert distance_invariants(g) == cp2_invariants(spec)


def test_linear_2tree_closed_form():
    for n in range(2, 11):
        spec = CliquePathSpec((3,) * (n - 2))
        assert linear_2tree_invariants(n) == cp2_invariants(spec)
    assert linear_2tree_invariants(7).det == 12
    assert linear_2tree_invariants(6).det == -9


def test_tree_invariants():
    assert tree_invariants(2) == GraphInvariants(-1, Inertia(1, 1, 0), -2)
    assert tree_invariants(3) == GraphInvariants(4, Inertia(1, 2, 0), 4)
    assert tree_invariants(5).det == 32
    # paths and stars really hit these numbers
    for n in range(2, 8):
        want = tree_invariants(n)
        for t in (path_graph(n), None):
            if t is None:
                t = LabeledGraph(n, tuple((1, v) for v in range(2, n + 1)))
            d = all_pairs_distances(t)
            assert determinant(d) == want.det
            assert cofactor_sum(d) == want.cof
            assert inertia_congruence(d) == want.inertia


def test_compose_blocks():
    assert compose_blocks([(-1, -2)]) == (-1, -2)
    assert compose_blocks([(-1, -2), (-1, -2)]) == (4, 4)
    with pytest.raises(EmptyList):
        compose_blocks([])


def test_compose_blocks_matches_cut_vertex_gluing():
    # glue random block-2CP pieces at cut vertices; det and cof of the whole
    # must come from the per-block values by the two composition rules
    rng = random.Random(32)
    specs = [EDGE, CliquePathSpec((3,)), CliquePathSpec((4,)), CliquePathSpec((3, 3))]
    for _ in range(20):
        parts = [BlockPart(rng.choice(specs))]
        total = parts[0].spec.n
        for _ in range(rng.randint(1, 3)):
            spec = rng.choice(specs)
            parts.append(BlockPart(spec, at=rng.randint(1, total)))
            total += spec.n - 1
        g = realize_recipe(BlockCliquePathRecipe(tuple(parts)))
        pieces = []
        for b in blocks(g):
            d = all_pairs_distances(b.graph)
            pieces.append((determinant(d), cofactor_sum(d)))
        d_all = all_pairs_distances(g)
        assert compose_blocks(pieces) == (determinant(d_all), cofactor_sum(d_all))


def test_recipe_validation():
    with pytest.raises(InvalidRecipe):
        realize_recipe(BlockCliquePathRecipe(()))
    with pytest.raises(InvalidRecipe):
        realize_recipe(BlockCliquePathRecipe((BlockPart(EDGE, at=1),)))
    with pytest.raises(InvalidRecipe):
        realize_recipe(BlockCliquePathRecipe((BlockPart(EDGE), BlockPart(EDGE))))
    with pytest.raises(InvalidRecipe):
        realize_recipe(BlockCliquePathRecipe((BlockPart(EDGE), BlockPart(EDGE, at=5))))
    with pytest.raises(InvalidRecipe):
        # 2 is not an available anchor when vertex 3 arrives
        realize_recipe(
            BlockCliquePathRecipe((BlockPart(CliquePathSpec((3,)), anchors=(2,)),))
        )


def test_realize_recipe_layout():
    r = BlockCliquePathRecipe(
        (BlockPart(CliquePathSpec((3,))), BlockPart(EDGE, at=3), BlockPart(EDGE, at=1))
    )
    g = realize_recipe(r)
    assert g.n == r.n == 5
    # part 0 owns 1, 2, 3; later parts take their glue vertex, then fresh labels
    assert g.edges == ((1, 2), (1, 3), (1, 5), (2, 3), (3, 4))
    assert len(blocks(g)) == 3


def assert_label_prefixes(g, context):
    """Each prefix 1..k is connected, isometric and has 2-clique-path blocks."""
    d = all_pairs_distances(g)
    for k in range(2, g.n + 1):
        sub = LabeledGraph(k, tuple(e for e in g.edges if e[1] <= k))
        assert is_connected(sub)
        assert all_pairs_distances(sub).rows == tuple(row[:k] for row in d.rows[:k]), (context, k)
        for b in blocks(sub):
            assert looks_like_2cp(b.graph), (context, k, b)


def test_label_order_examples():
    tri_pendants = BlockCliquePathRecipe(
        (
            BlockPart(CliquePathSpec((3,))),
            BlockPart(EDGE, at=1),
            BlockPart(EDGE, at=2),
            BlockPart(EDGE, at=3),
        )
    )
    assert_label_prefixes(realize_recipe(tri_pendants), tri_pendants)


def test_label_order_random_recipes():
    rng = random.Random(33)
    specs = [EDGE, CliquePathSpec((3,)), CliquePathSpec((4,)), CliquePathSpec((5,)), CliquePathSpec((3, 3))]
    for _ in range(25):
        parts = [BlockPart(rng.choice(specs))]
        total = parts[0].spec.n
        while total < 10 and rng.random() < 0.6:
            spec = rng.choice(specs)
            parts.append(
                BlockPart(spec, random_member_anchors(rng, spec), at=rng.randint(1, total))
            )
            total += spec.n - 1
        recipe = BlockCliquePathRecipe(tuple(parts))
        assert_label_prefixes(realize_recipe(recipe), recipe)


def recipe_distances(recipe):
    return all_pairs_distances(realize_recipe(recipe))


def test_block_2cp_inertia_examples():
    single = BlockCliquePathRecipe((BlockPart(CliquePathSpec((3, 4))),))
    assert block_2cp_inertia(recipe_distances(single)) == Inertia(1, 4, 0)
    tri_pendant = BlockCliquePathRecipe(
        (BlockPart(CliquePathSpec((3,))), BlockPart(EDGE, at=3))
    )
    assert block_2cp_inertia(recipe_distances(tri_pendant)) == Inertia(1, 3, 0)
    star = BlockCliquePathRecipe(
        (BlockPart(EDGE),) + tuple(BlockPart(EDGE, at=1) for _ in range(4))
    )
    assert block_2cp_inertia(recipe_distances(star)) == Inertia(1, 5, 0)
    # C4 is no block-2CP graph: its fourth leading minor, det D, is 0
    with pytest.raises(CrossCheckFailed, match="leading minor 4 is 0"):
        block_2cp_inertia(all_pairs_distances(cycle_graph(4)))


def test_block_2cp_inertia_matches_direct():
    rng = random.Random(34)
    specs = [EDGE, CliquePathSpec((3,)), CliquePathSpec((4,)), CliquePathSpec((3, 3))]
    for _ in range(15):
        parts = [BlockPart(rng.choice(specs))]
        total = parts[0].spec.n
        while total < 9 and rng.random() < 0.6:
            spec = rng.choice(specs)
            parts.append(BlockPart(spec, at=rng.randint(1, total)))
            total += spec.n - 1
        recipe = BlockCliquePathRecipe(tuple(parts))
        d = recipe_distances(recipe)
        got = block_2cp_inertia(d)
        assert got == Inertia(1, d.n - 1, 0)
        assert inertia_congruence(d) == got


def test_addressing_lower_bound():
    assert addressing_lower_bound(Inertia(1, 4, 0)) == 4
    assert addressing_lower_bound(Inertia(3, 2, 1)) == 3
    assert addressing_lower_bound(Inertia(0, 0, 0)) == 0


@st.composite
def clique_path_specs(draw, min_n, max_n):
    """A 2-clique path on min_n..max_n vertices, cliques of 3 to 8 vertices."""
    left = draw(st.integers(min_n, max_n)) - 2
    p = []
    while left:
        p.append(draw(st.integers(3, min(8, left + 2))))
        left -= p[-1] - 2
    return CliquePathSpec(tuple(p))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(9, 24), st.randoms(use_true_random=False))
def test_random_family_members_match_family_invariants(n, rng):
    # orders beyond every suite's, so the elimination kernels see long runs
    s = random_nonleaping(rng, n)
    assert distance_invariants(build_cp_graph(random_member(rng, s))) == family_invariants(s)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(clique_path_specs(9, 24), st.randoms(use_true_random=False))
def test_random_2cp_members_match_closed_forms(spec, rng):
    s = expand_clique_path_spec(spec)
    inv = distance_invariants(build_cp_graph(random_member(rng, s)))
    assert inv == family_invariants(s) == cp2_invariants(spec)


# -- distance_invariants eliminates M = U^T D U, the BFS-tree differences of D


def hypercube(d):
    """Q_d on 1..2^d: two labels are adjacent when v - 1 and w - 1 differ in one bit."""
    return LabeledGraph(
        2**d, tuple((v + 1, (v | 1 << b) + 1) for v in range(2**d) for b in range(d) if not v >> b & 1)
    )


def relabelled(rng, g):
    """g with its labels shuffled, so that vertex n, the BFS root, is any vertex."""
    perm = rng.sample(range(1, g.n + 1), g.n)
    return LabeledGraph(g.n, tuple((perm[u - 1], perm[v - 1]) for u, v in g.edges))


def raw_invariants(g):
    """det, inertia and cofactor sum of the distance matrix itself."""
    return dense_invariants(all_pairs_distances(g).rows)


def eliminated_matrix(formulas_module, g):
    """The rows that distance_invariants of `formulas_module` hands the
    kernel for g: M, not D, whose values are the same."""
    kernel = formulas_module._symmetric_bareiss
    with mock.patch.object(formulas_module, "_symmetric_bareiss", wraps=kernel) as spy:
        formulas_module.distance_invariants(g)
    return spy.call_args.args[0]


def has_difference_shape(m):
    """The root's row (1, ..., 1, 0) last, -2 on the rest of the diagonal and
    every entry in [-2, 2]: the shape that makes M cheap to eliminate."""
    n = len(m)
    return (
        m[-1] == (1,) * (n - 1) + (0,)
        and all(m[i][i] == -2 for i in range(n - 1))
        and all(-2 <= x <= 2 for row in m for x in row)
    )


def tree_difference_matrix(n):
    """[[-2I, 1], [1^T, 0]] of order n."""
    rows = [tuple(-2 if j == i else 0 for j in range(n - 1)) + (1,) for i in range(n - 1)]
    return tuple(rows) + ((1,) * (n - 1) + (0,),)


@st.composite
def matrices_and_forests(draw):
    """A symmetric matrix and an acyclic parent map on its indices: each index
    in a random order is a root or takes an earlier index as its parent."""
    m = draw(symmetric_matrices())
    order = draw(st.permutations(range(m.n)))
    parents = [None] * m.n
    for k in range(1, m.n):
        parents[order[k]] = draw(st.none() | st.sampled_from(order[:k]))
    return m, parents


@settings(derandomize=True, deadline=None, max_examples=300)
@given(matrices_and_forests())
def test_difference_congruence_keeps_det_inertia_and_cofactor_sum(case):
    m, parents = case
    t = IntMatrix.from_rows(_difference_congruence(m.rows, parents))
    u = tuple(int(p is None) for p in parents)  # U^T 1
    assert t.is_symmetric()
    assert det_and_inertia(t) == det_and_inertia(m)
    assert -determinant(_bordered(t, u)) == cofactor_sum(m)


def invariant_graphs(rng):
    """Trees, random connected graphs, graphs combined by attach, K_n, cycles
    and Q_3, each with its labels shuffled."""
    out = [complete_graph(n) for n in range(1, 8)] + [cycle_graph(n) for n in range(3, 10)]
    out.append(hypercube(3))
    for n in range(2, 13):
        out.append(tree_from_pruefer(n, tuple(rng.randint(1, n) for _ in range(n - 2))))
        out.append(random_connected_graph(rng, n))
    for _ in range(8):
        base = random_connected_graph(rng, rng.randint(2, 7))
        cp = build_cp_graph(random_member(rng, random_nonleaping(rng, rng.randint(2, 6))))
        out.append(attach(base, rng.choice(base.edges), cp).graph)
    return [relabelled(rng, g) for g in out]


def test_distance_invariants_match_the_raw_matrix():
    rng = random.Random(35)
    for g in invariant_graphs(rng):
        inv = distance_invariants(g)
        assert inv == raw_invariants(g), g
        if g.n <= 7:
            d = all_pairs_distances(g)
            assert inv.det == det_by_cofactor_expansion(d)
            assert inv.cof == -det_by_cofactor_expansion(_bordered(d, (1,) * g.n))


def test_difference_matrix_shape():
    rng = random.Random(36)
    graphs = invariant_graphs(rng)
    for n in range(2, 25):
        graphs.append(build_cp_graph(random_member(rng, random_nonleaping(rng, n))))
    for g in graphs:
        assert has_difference_shape(eliminated_matrix(formulas, g)), g


def test_difference_matrix_of_every_tree():
    rng = random.Random(37)
    trees = [tree_from_pruefer(n, code) for n, code in all_codes(6)]
    trees += [relabelled(rng, path_graph(n)) for n in range(2, 40)]
    for n in range(7, 40):
        trees.append(tree_from_pruefer(n, tuple(rng.randint(1, n) for _ in range(n - 2))))
    for t in trees:
        assert eliminated_matrix(formulas, t) == tree_difference_matrix(t.n), t


def adjacency_parents(g):
    """Each vertex's smallest neighbour one level closer to vertex n, as
    0-based indices, and None for n: the BFS tree read from the adjacency lists."""
    level = all_pairs_distances(g).rows[-1]
    return [
        next((w - 1 for w in neighbors(g, v) if level[w - 1] < level[v - 1]), None)
        for v in range(1, g.n + 1)
    ]


def path_square(n):
    """The square of the path on n vertices: the linear 2-tree with every clique K_3."""
    edges = tuple((v, v + 1) for v in range(1, n)) + tuple((v, v + 2) for v in range(1, n - 1))
    return LabeledGraph(n, edges)


def test_difference_matrix_follows_the_adjacency_bfs_tree():
    # the parents read from D's rows are those of the adjacency lists, so M is
    # the same matrix as when the tree was read from them
    graphs = invariant_graphs(random.Random(38))
    graphs += [path_graph(MAX_VERTICES), path_square(MAX_VERTICES)]
    for g in graphs:
        d = all_pairs_distances(g).rows
        assert eliminated_matrix(formulas, g) == _difference_congruence(d, adjacency_parents(g)), g


def test_distance_invariants_at_the_vertex_cap():
    n = MAX_VERTICES
    assert distance_invariants(path_graph(n)) == tree_invariants(n)
    assert distance_invariants(path_square(n)) == linear_2tree_invariants(n)
