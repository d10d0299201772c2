import random
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graphs import degree

from cpgraphs.formulas import (
    BlockCliquePathRecipe,
    BlockPart,
    EmptyList,
    GraphInvariants,
    CrossCheckFailed,
    InvalidRecipe,
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
    blocks,
    build_cp_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
)
from cpgraphs.linalg import Inertia, cofactor_sum, determinant, inertia_congruence
from cpgraphs.sequences import (
    CliquePathSpec,
    NeighborhoodSequence,
    NonLeapingSequence,
    admissible_anchors,
    enumerate_neighborhood_sequences,
    expand_clique_path_spec,
)
from cpgraphs.suites import random_member, random_nonleaping

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
