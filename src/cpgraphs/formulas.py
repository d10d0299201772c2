"""Closed-form distance invariants and block composition.

For 2-clique paths the family-constant invariants collapse to closed forms
in the clique sizes; for arbitrary connected graphs the block decomposition
composes them. A recipe type describes graphs assembled by gluing 2-clique
paths at cut vertices, for which the distance inertia is pinned to
(1, n-1, 0) and double-checked through the leading-minor sign pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .graphs import LabeledGraph, all_pairs_distances, build_cp_graph
from .linalg import (
    Inertia,
    cofactor_sum,
    det_and_inertia,
    inertia_leading_minors,
    leading_principal_minors,
    reduced_cofactor_sum,
)
from .reduction import reduced_graph, seesaw_params
from .sequences import (
    CliquePathSpec,
    NeighborhoodSequence,
    NonLeapingSequence,
    expand_clique_path_spec,
    minimal_anchors,
)


class EmptyList(InputError):
    """Block composition needs at least one block."""


class InvalidRecipe(InputError):
    """A block recipe references a missing vertex or an inadmissible member."""


class CrossCheckFailed(RuntimeError):
    """Two independent computations of the same quantity disagree."""


@dataclass(frozen=True)
class GraphInvariants:
    """The three family-constant distance invariants."""

    det: int
    inertia: Inertia
    cof: int


def invariants_to_json_obj(inv: GraphInvariants) -> dict:
    return {
        "det": str(inv.det),
        "inertia": list(inv.inertia.as_tuple()),
        "cof": str(inv.cof),
    }


def invariants_from_json_obj(obj: dict) -> GraphInvariants:
    try:
        det = int(obj["det"])
        p, m, z = (int(x) for x in obj["inertia"])
        cof = int(obj["cof"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad invariants object: {e}") from None
    return GraphInvariants(det, Inertia(p, m, z), cof)


def distance_invariants(g: LabeledGraph) -> GraphInvariants:
    """Brute force on the distance matrix itself."""
    d = all_pairs_distances(g)
    det, inertia = det_and_inertia(d)
    return GraphInvariants(det, inertia, cofactor_sum(d))


def family_invariants(s: NonLeapingSequence) -> GraphInvariants:
    """Shared invariants of every member, from the reduced graph alone."""
    a = reduced_graph(s).adjacency_matrix()
    det, inertia = det_and_inertia(a)
    return GraphInvariants(det, inertia, reduced_cofactor_sum(a))


def cp2_invariants(spec: CliquePathSpec) -> GraphInvariants:
    """Closed forms for a 2-clique path with cliques p_1..p_m.

    With left = sum of p_k - 2 over odd k and right over even k:
    det = (-1)^(n-1) (1 + left)(1 + right), inertia = (1, n-1, 0),
    cof = (-1)^(n-1) n.
    """
    arms = seesaw_params(spec)
    n = spec.n
    sign = (-1) ** (n - 1)
    return GraphInvariants(
        sign * (1 + arms.left) * (1 + arms.right), Inertia(1, n - 1, 0), sign * n
    )


def linear_2tree_invariants(n: int) -> GraphInvariants:
    """Closed forms for linear 2-trees: 2-clique paths with all cliques K_3."""
    if n < 2:
        raise InputError("need at least two vertices")
    sign = (-1) ** (n - 1)
    det = sign * (1 + (n - 2) // 2) * (1 + (n - 1) // 2)
    return GraphInvariants(det, Inertia(1, n - 1, 0), sign * n)


def tree_invariants(n: int) -> GraphInvariants:
    """Classic tree values: det = (-1)^(n-1) (n-1) 2^(n-2), cof = (-2)^(n-1).

    Every tree is covered by n-1 edge blocks, so the cofactor value is the
    block product of n-1 copies of cof(K_2) = -2.
    """
    if n < 2:
        raise InputError("need at least two vertices")
    sign = (-1) ** (n - 1)
    return GraphInvariants(sign * (n - 1) * 2 ** (n - 2), Inertia(1, n - 1, 0), (-2) ** (n - 1))


def compose_blocks(parts: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Combine per-block (det, cof) pairs into the whole graph's pair:
    cof multiplies across blocks, det is the cof-weighted sum of block dets."""
    if not parts:
        raise EmptyList("need at least one block")
    cof = 1
    for _, c in parts:
        cof *= c
    det = 0
    for i, (d, _) in enumerate(parts):
        term = d
        for j, (_, c) in enumerate(parts):
            if j != i:
                term *= c
        det += term
    return det, cof


@dataclass(frozen=True)
class BlockPart:
    """One 2-clique-path block of a recipe.

    anchors picks the member (None takes the smallest admissible anchor at
    every step); at names the already-built global vertex this part's vertex
    1 is glued onto (None only for the first part).
    """

    spec: CliquePathSpec
    anchors: tuple[int, ...] | None = None
    at: int | None = None


@dataclass(frozen=True)
class BlockCliquePathRecipe:
    """A connected graph assembled from 2-clique-path blocks glued at vertices."""

    parts: tuple[BlockPart, ...]

    @property
    def n(self) -> int:
        return self.parts[0].spec.n + sum(p.spec.n - 1 for p in self.parts[1:])


@dataclass(frozen=True)
class RealizedRecipe:
    """The assembled graph; part_vertices[i][j] is the global label of part
    i's CP vertex j+1 (part 0 owns its whole range, later parts borrow
    their glue vertex as CP vertex 1)."""

    graph: LabeledGraph
    part_vertices: tuple[tuple[int, ...], ...]


def _member_graph(part: BlockPart) -> LabeledGraph:
    s = expand_clique_path_spec(part.spec)
    anchors = part.anchors if part.anchors is not None else minimal_anchors(s)
    try:
        ns = NeighborhoodSequence(s, tuple(anchors))
    except InputError as e:
        raise InvalidRecipe(f"bad member for spec {part.spec.p}: {e}") from None
    return build_cp_graph(ns)


def realize_recipe(recipe: BlockCliquePathRecipe) -> RealizedRecipe:
    if not recipe.parts:
        raise InvalidRecipe("recipe needs at least one part")
    if recipe.parts[0].at is not None:
        raise InvalidRecipe("the first part must not declare a glue vertex")
    edges: list[tuple[int, int]] = []
    part_vertices: list[tuple[int, ...]] = []
    root = _member_graph(recipe.parts[0])
    edges.extend(root.edges)
    part_vertices.append(tuple(range(1, root.n + 1)))
    total = root.n
    for idx, part in enumerate(recipe.parts[1:], start=1):
        if part.at is None:
            raise InvalidRecipe(f"part {idx} needs a glue vertex")
        if not 1 <= part.at <= total:
            raise InvalidRecipe(f"part {idx} glues at missing vertex {part.at}")
        member = _member_graph(part)
        labels = {1: part.at}
        for k in range(2, member.n + 1):
            total += 1
            labels[k] = total
        for u, v in member.edges:
            a, b = labels[u], labels[v]
            edges.append((min(a, b), max(a, b)))
        part_vertices.append(tuple(labels[k] for k in range(1, member.n + 1)))
    return RealizedRecipe(LabeledGraph(total, tuple(edges)), tuple(part_vertices))


def peel_ordering(recipe: BlockCliquePathRecipe) -> tuple[int, ...]:
    """A vertex ordering whose prefixes induce connected graphs with
    2-clique-path blocks, distances undisturbed.

    Peel one vertex at a time from a pendant part (a part at whose vertices
    no other live part is glued; the first part qualifies only once it is
    the sole live part): always its highest remaining CP vertex, which sits
    in the part's ending clique and is nobody's glue point. Ties go to the
    largest global label. The last two survivors are the first part's
    vertices 1 and 2.
    """
    real = realize_recipe(recipe)
    owned = [list(pv) if i == 0 else list(pv[1:]) for i, pv in enumerate(real.part_vertices)]
    owned_sets = [set(o) for o in owned]
    glue_at = [0] + [pv[0] for pv in real.part_vertices[1:]]
    remaining = [len(o) for o in owned]
    total = sum(remaining)
    removals: list[int] = []
    while total > 2:
        live = [i for i in range(1, len(owned)) if remaining[i] > 0]
        live_glues = {glue_at[i] for i in live}
        candidates = []
        for i in live:
            if owned_sets[i] & live_glues:
                continue  # some live part hangs off this one: not pendant
            candidates.append((owned[i][remaining[i] - 1], i))
        if not live and remaining[0] > 2:
            candidates.append((owned[0][remaining[0] - 1], 0))
        if not candidates:
            raise CrossCheckFailed("peel stalled; this should be unreachable")
        tip, i = max(candidates)
        removals.append(tip)
        remaining[i] -= 1
        total -= 1
    return (1, 2) + tuple(reversed(removals))


def block_2cp_inertia(recipe: BlockCliquePathRecipe) -> Inertia:
    """Distance inertia (1, n-1, 0) of a recipe graph, cross-validated.

    The peel ordering makes the leading minors of the reordered distance
    matrix follow the sign pattern 0, -, +, -, ...; the minor-sign method
    must then reproduce the claimed inertia, or something is wrong.
    """
    real = realize_recipe(recipe)
    n = real.graph.n
    claimed = Inertia(1, n - 1, 0)
    d = all_pairs_distances(real.graph)
    dp = d.symmetric_permute(peel_ordering(recipe))
    minors = leading_principal_minors(dp)
    if minors[0] != 0:
        raise CrossCheckFailed(f"first leading minor is {minors[0]}, not 0")
    for k in range(2, n + 1):
        want = (-1) ** (k - 1)
        got = minors[k - 1]
        if got == 0 or (got > 0) != (want > 0):
            raise CrossCheckFailed(
                f"leading minor {k} is {got}; expected sign {want:+d}"
            )
    if inertia_leading_minors(dp) != claimed:
        raise CrossCheckFailed("minor-sign inertia disagrees with (1, n-1, 0)")
    return claimed


def addressing_lower_bound(inertia: Inertia) -> int:
    """Squashed-cube bound: any address length is at least max(n_+, n_-)."""
    return max(inertia.n_plus, inertia.n_minus)
