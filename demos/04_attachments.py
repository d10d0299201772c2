"""Gluing and cutting without changing the answer.

Two constructions leave distance-matrix invariants predictable:

* attach any member of a CP family to a fixed edge of a fixed base graph;
  the determinant of the combined graph ignores which member was used, and
* glue graphs at cut vertices; determinant and cofactor sum of the whole
  follow from the blocks by two composition rules.

Run: python3 demos/04_attachments.py
"""

from cpgraphs import (
    BlockCliquePathRecipe,
    BlockPart,
    CliquePathSpec,
    LabeledGraph,
    NonLeapingSequence,
    all_pairs_distances,
    attach,
    block_2cp_inertia,
    blocks,
    build_cp_graph,
    cofactor_sum,
    compose_blocks,
    determinant,
    enumerate_neighborhood_sequences,
    inertia_congruence,
    realize_recipe,
)
from cpgraphs.graphs import induced_subgraph

c5 = LabeledGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
print(f"attaching every member of family {s.q} to edge (1, 2) of a 5-cycle:")
dets = set()
for ns in enumerate_neighborhood_sequences(s):
    combined = attach(c5, (1, 2), build_cp_graph(ns)).graph
    dets.add(determinant(all_pairs_distances(combined)))
print(f"  16 members -> determinant values {sorted(dets)}")
print()

recipe = BlockCliquePathRecipe(
    (
        BlockPart(CliquePathSpec((3,))),          # a triangle
        BlockPart(CliquePathSpec((3, 3)), at=1),  # a 4-vertex strip on vertex 1
        BlockPart(CliquePathSpec(()), at=2),      # a pendant edge on vertex 2
        BlockPart(CliquePathSpec((4,)), at=3),    # a K4 on vertex 3
    )
)
g = realize_recipe(recipe)
print(f"a block graph on {g.n} vertices built from 4 glued pieces:")
d = all_pairs_distances(g)

pieces = []
for b in blocks(g):
    sub, _ = induced_subgraph(g, b.vertices)
    ds = all_pairs_distances(sub)
    pieces.append((determinant(ds), cofactor_sum(ds)))
    print(f"  block {b.vertices}: det {pieces[-1][0]}, cof {pieces[-1][1]}")

composed = compose_blocks(pieces)
print(f"composition rules give  det {composed[0]}, cof {composed[1]}")
print(f"direct computation gives det {determinant(d)}, cof {cofactor_sum(d)}")
print()

order = tuple(range(1, g.n + 1))
print(f"label order (every prefix stays connected with 2-clique-path blocks): {order}")
print(f"inertia via leading minors: {block_2cp_inertia(recipe)}")
print(f"inertia directly:           {inertia_congruence(d)}")
