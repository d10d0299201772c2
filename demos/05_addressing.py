"""Squashed-cube addresses at desk scale.

Label each vertex with a word over {0, 1, *} so that the graph distance
between two vertices equals the number of positions where one word has 0
and the other has 1. The negative inertia of the distance matrix bounds
the word length from below; an exhaustive search certifies what length is
actually achievable. For graphs whose blocks are 2-clique paths the two
meet at n - 1.

Run: python3 demos/05_addressing.py
"""

from cpgraphs import (
    CliquePathSpec,
    NeighborhoodSequence,
    all_pairs_distances,
    build_cp_graph,
    complete_graph,
    cycle_graph,
    exact_n,
    expand_clique_path_spec,
    inertia_congruence,
    path_graph,
)

two_tree5 = build_cp_graph(
    NeighborhoodSequence(expand_clique_path_spec(CliquePathSpec((3, 3, 3))), (1, 1, 1))
)

cases = [
    ("K2", path_graph(2)),
    ("P3", path_graph(3)),
    ("K3", complete_graph(3)),
    ("P4", path_graph(4)),
    ("K4", complete_graph(4)),
    ("linear 2-tree on 5", two_tree5),
]

def show(name, g):
    """The inertia, exact_n's lower bound and minimum length, and its scheme."""
    lb, scheme = exact_n(g)
    inertia = inertia_congruence(all_pairs_distances(g))
    print(f"{name}: inertia {inertia}, lower bound {lb}, minimum length {scheme.d}")
    for v, word in enumerate(scheme.addresses, start=1):
        print(f"    vertex {v}: {word}")


for name, g in cases:
    show(name, g)
    print()

# not every graph needs n - 1 symbols: the 4-cycle fits in 2
show("C4", cycle_graph(4))
