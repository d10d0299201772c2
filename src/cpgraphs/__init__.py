"""Exact-arithmetic toolkit for CP graphs, 2-clique paths, and their
distance-matrix invariants, with a small addressing-scheme searcher.

The useful entry points are re-exported here; the submodules stay importable
for the long tail (crosschecks, fixtures, suites).
"""

from .errors import InputError, ResourceLimit
from .matrices import IntMatrix
from .sequences import (
    CliquePathSpec,
    NeighborhoodSequence,
    NonLeapingSequence,
    admissible_anchors,
    count_neighborhood_sequences,
    enumerate_neighborhood_sequences,
    expand_clique_path_spec,
    iter_nonleaping_sequences,
    minimal_anchors,
)
from .graphs import (
    LabeledGraph,
    all_pairs_distances,
    attach,
    blocks,
    build_cp_graph,
    complete_graph,
    cycle_graph,
    parse_edge_list,
    path_graph,
)
from .reduction import (
    WeightedGraph,
    congruence_reduce,
    reduced_graph,
    reducing_matrix,
    seesaw_graph,
    seesaw_params,
    weighted_path_matrix,
)
from .linalg import (
    Inertia,
    cofactor_sum,
    det_and_inertia,
    determinant,
    inertia_congruence,
    inertia_leading_minors,
    reduced_cofactor_sum,
)
from .formulas import (
    BlockCliquePathRecipe,
    BlockPart,
    GraphInvariants,
    addressing_lower_bound,
    block_2cp_inertia,
    compose_blocks,
    cp2_invariants,
    distance_invariants,
    family_invariants,
    linear_2tree_invariants,
    realize_recipe,
    tree_invariants,
)
from .addressing import AddressScheme, address_distance, exact_n, search_scheme, verify_scheme
from .suites import Report, available_suites, run_suite

__version__ = "0.1.0"

__all__ = [
    "AddressScheme",
    "BlockCliquePathRecipe",
    "BlockPart",
    "CliquePathSpec",
    "GraphInvariants",
    "Inertia",
    "InputError",
    "IntMatrix",
    "LabeledGraph",
    "NeighborhoodSequence",
    "NonLeapingSequence",
    "Report",
    "ResourceLimit",
    "WeightedGraph",
    "address_distance",
    "addressing_lower_bound",
    "admissible_anchors",
    "all_pairs_distances",
    "attach",
    "available_suites",
    "block_2cp_inertia",
    "blocks",
    "build_cp_graph",
    "cofactor_sum",
    "complete_graph",
    "compose_blocks",
    "congruence_reduce",
    "count_neighborhood_sequences",
    "cp2_invariants",
    "cycle_graph",
    "det_and_inertia",
    "determinant",
    "distance_invariants",
    "enumerate_neighborhood_sequences",
    "exact_n",
    "expand_clique_path_spec",
    "family_invariants",
    "inertia_congruence",
    "inertia_leading_minors",
    "iter_nonleaping_sequences",
    "linear_2tree_invariants",
    "minimal_anchors",
    "parse_edge_list",
    "path_graph",
    "realize_recipe",
    "reduced_cofactor_sum",
    "reduced_graph",
    "reducing_matrix",
    "run_suite",
    "search_scheme",
    "seesaw_graph",
    "seesaw_params",
    "tree_invariants",
    "verify_scheme",
    "weighted_path_matrix",
]
