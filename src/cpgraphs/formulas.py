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


def _member_graph(part: BlockPart) -> LabeledGraph:
    s = expand_clique_path_spec(part.spec)
    anchors = part.anchors if part.anchors is not None else minimal_anchors(s)
    try:
        ns = NeighborhoodSequence(s, tuple(anchors))
    except InputError as e:
        raise InvalidRecipe(f"bad member for spec {part.spec.p}: {e}") from None
    return build_cp_graph(ns)


def realize_recipe(recipe: BlockCliquePathRecipe) -> LabeledGraph:
    """The assembled graph, labelled in growth order.

    Part 0 takes labels 1..n_0 as its CP vertices; each later part borrows
    its glue vertex as CP vertex 1 and takes the next free labels for CP
    vertices 2, 3, ... in order. Every CP member grows by a perfect
    elimination ordering, and a part only glues at a label that exists
    before it, so label order is a perfect elimination ordering of the whole
    graph: each prefix 1..k is connected, isometric (its distance matrix is
    D's leading k block) and has 2-clique-path blocks.
    """
    if not recipe.parts:
        raise InvalidRecipe("recipe needs at least one part")
    if recipe.parts[0].at is not None:
        raise InvalidRecipe("the first part must not declare a glue vertex")
    root = _member_graph(recipe.parts[0])
    edges = list(root.edges)
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
    return LabeledGraph(total, tuple(edges))


def block_2cp_inertia(recipe: BlockCliquePathRecipe) -> Inertia:
    """Distance inertia (1, n-1, 0) of a recipe graph, cross-validated.

    In realize_recipe's label order every prefix is a connected, isometric
    graph with 2-clique-path blocks, so the leading principal minors of D
    must follow the sign pattern 0, -, +, -, ...; by Jones' rule that
    pattern gives exactly (1, n-1, 0). A minor off the pattern means
    something is wrong.
    """
    g = realize_recipe(recipe)
    minors = leading_principal_minors(all_pairs_distances(g))
    if minors[0] != 0:
        raise CrossCheckFailed(f"first leading minor is {minors[0]}, not 0")
    for k in range(2, g.n + 1):
        want = (-1) ** (k - 1)
        got = minors[k - 1]
        if got == 0 or (got > 0) != (want > 0):
            raise CrossCheckFailed(
                f"leading minor {k} is {got}; expected sign {want:+d}"
            )
    return Inertia(1, g.n - 1, 0)


def addressing_lower_bound(inertia: Inertia) -> int:
    """Squashed-cube bound: any address length is at least max(n_+, n_-)."""
    return max(inertia.n_plus, inertia.n_minus)
