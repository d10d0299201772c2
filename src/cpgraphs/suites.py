"""Named verification suites behind the `check` subcommand.

Each suite replays one verifiable claim about the library at desk scale:
exhaustive where the instance space is small (all families up to n = 8, all
labeled trees up to n = 7, where every Pruefer code is decoded and checked but
one tree per rooted isomorphism class is eliminated), seeded-random where it
is not. Each suite that checks every member of the families it lists (and
`reduce verify`) makes one walk over the tree of their prefixes, growing each
member from its parent (see _grow); it is the walk that
enumerate_neighborhood_sequences takes for one family, so a fault in it moves
the member counts those suites check against the product formula.
Suites are pure given (seed, scale), so reports are reproducible byte for
byte apart from the wall time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from math import comb
from typing import Callable

from . import fixtures
from .crosschecks import det_by_cofactor_expansion, inertia_by_charpoly_signs
from .errors import InputError, ResourceLimit
from .formulas import (
    BlockCliquePathRecipe,
    BlockPart,
    CrossCheckFailed,
    GraphInvariants,
    _distance_matrix_invariants,
    block_2cp_inertia,
    compose_blocks,
    cp2_invariants,
    distance_invariants,
    family_invariants,
    linear_2tree_invariants,
    realize_recipe,
    tree_invariants,
)
from .graphs import (
    LabeledGraph,
    all_pairs_distances,
    attach,
    build_cp_graph,
    complete_graph,
    path_graph,
)
from .addressing import exact_n, search_scheme, verify_scheme
from .linalg import (
    ConsecutiveZeroMinors,
    Inertia,
    Singular,
    det_and_inertia,
    determinant,
    inertia_congruence,
    inertia_leading_minors,
)
from .matrices import IntMatrix
from .reduction import congruence_reduce, reduced_graph, reducing_matrix, weighted_path_matrix
from .sequences import (
    CliquePathSpec,
    NeighborhoodSequence,
    NonLeapingSequence,
    _anchor_choices,
    _Prefix,
    _reduced_column,
    count_neighborhood_sequences,
    enumerate_neighborhood_sequences,
    expand_clique_path_spec,
    iter_nonleaping_sequences,
)


class UnknownSuite(InputError):
    """No suite is registered under the requested name."""


MAX_FAILURES = 20  # failure labels kept per report


@dataclass
class Recorder:
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, label: str | Callable[[], str]):
        """Count one check. A callable label is rendered only if the check fails."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES:
                self.failures.append(label() if callable(label) else label)


@dataclass
class Report:
    suite: str
    seed: int
    scale: int | None
    results: dict
    passed: int
    failed: int
    failures: list[str]
    wall_time_s: float

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "scale": self.scale,
            "results": self.results,
            "passed": self.passed,
            "failed": self.failed,
            "failures": self.failures,
            "wall_time_s": round(self.wall_time_s, 3),
        }


# -- random instance generators (all driven by one seeded rng) --------------


def random_nonleaping(rng: random.Random, n: int) -> NonLeapingSequence:
    q = [0, 1]
    for _ in range(n - 2):
        q.append(rng.randint(2, q[-1] + 1))
    return NonLeapingSequence(tuple(q))


def random_member(rng: random.Random, s: NonLeapingSequence) -> NeighborhoodSequence:
    anchors = [1]  # a_2 = 1, then a_3 .. a_n
    for k in range(3, s.n + 1):
        first, run = _anchor_choices(s.b, k, anchors[-1])
        anchors.append(rng.choice((first, *run)))
    return NeighborhoodSequence(s, tuple(anchors[1:]))


def random_connected_graph(rng: random.Random, n: int) -> LabeledGraph:
    """Random spanning tree plus a few random extra edges."""
    edges = set()
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        edges.add((u, v))
    extras = rng.randint(0, n)
    for _ in range(extras):
        u = rng.randint(1, n - 1)
        v = rng.randint(u + 1, n)
        edges.add((u, v))
    return LabeledGraph(n, tuple(sorted(edges)))


def random_recipe(rng: random.Random, n_max: int) -> BlockCliquePathRecipe:
    def rand_spec(budget: int) -> CliquePathSpec | None:
        # a part with cliques p_1..p_m adds 2 + sum(p_i - 2) vertices
        choices = [()]
        for m in (1, 2):
            for p in product((3, 4, 5), repeat=m):
                if 2 + sum(x - 2 for x in p) <= budget:
                    choices.append(p)
        p = rng.choice(choices)
        return CliquePathSpec(p)

    def rand_anchors(spec: CliquePathSpec) -> tuple[int, ...]:
        return random_member(rng, expand_clique_path_spec(spec)).anchors

    root = rand_spec(n_max)
    parts = [BlockPart(root, rand_anchors(root))]
    total = root.n
    while total < n_max and rng.random() < 0.7:
        spec = rand_spec(n_max - total + 1)
        if spec.n - 1 + total > n_max:
            break
        parts.append(BlockPart(spec, rand_anchors(spec), at=rng.randint(1, total)))
        total += spec.n - 1
    return BlockCliquePathRecipe(tuple(parts))


def pruefer_growth(n: int, code: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Grow the tree of Pruefer code `code` on 1..n by pendant vertices.

    The code read backwards rebuilds the tree: start from n and the other
    survivor of the decode, then re-attach the removed leaves in reverse
    order, each to its code entry. Returns `order`, the labels in growth
    order, and `parents`, where vertex order[j] hangs from order[parents[j - 1]].
    `parents` (the shape) fixes the tree up to relabelling. Raises InputError
    unless n >= 1 and `code` is max(n - 2, 0) labels in 1..n.
    """
    if n < 1 or len(code) != max(n - 2, 0) or (code and (min(code) < 1 or max(code) > n)):
        raise InputError(f"not a Pruefer code on 1..{n}: {code}")
    return _pruefer_growth(n, code)


def _pruefer_growth(n: int, code: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """pruefer_growth without the input check, for codes the trees suite builds itself.

    The linear-time decode: each step removes the smallest leaf. That is the
    pointer `ptr`, the smallest leaf not yet passed, unless the code vertex
    just freed is a leaf below it; then that one goes at once. The leaf
    removed at step i takes growth position n - 1 - i.
    """
    if n == 1:
        return (1,), ()
    deg = [0] + [1] * n
    for v in code:
        deg[v] += 1
    order, pos = [n] * n, [0] * (n + 1)
    leaf = ptr = deg.index(1)
    for j, v in zip(range(n - 1, 1, -1), code):
        order[j], pos[leaf] = leaf, j
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = ptr = deg.index(1, ptr + 1)
    order[1], pos[leaf] = leaf, 1  # the two survivors are leaf < n
    return tuple(order), (0, *[pos[v] for v in reversed(code)])


def _rooted_class(parents: tuple[int, ...]) -> tuple:
    """The canonical form of the growth tree `parents` rooted at position 0: each
    vertex's key is the sorted tuple of its children's keys (Aho, Hopcroft and
    Ullman, 1974). Equal keys mean isomorphic rooted trees. As parents[j - 1] < j,
    descending j meets every vertex after all its children."""
    kids = [[] for _ in range(len(parents) + 1)]
    for j in range(len(parents), 0, -1):
        kids[parents[j - 1]].append(tuple(sorted(kids[j])))
    return tuple(sorted(kids[0]))


def tree_from_pruefer(n: int, code: tuple[int, ...]) -> LabeledGraph:
    """The labelled tree on 1..n with Pruefer code `code` (n - 2 labels in 1..n)."""
    order, parents = pruefer_growth(n, code)
    edges = ((order[j], order[p]) for j, p in enumerate(parents, 1))
    return LabeledGraph._of(n, tuple(sorted((min(e), max(e)) for e in edges)))


# -- the suites --------------------------------------------------------------


def _suite_fixtures(rec: Recorder, rng, scale) -> dict:
    before = rec.passed + rec.failed
    for name, want in fixtures.TWO_TREE_6_DETERMINANTS.items():
        got = determinant(all_pairs_distances(fixtures.fixture_graph(name)))
        rec.check(got == want, f"{name}: determinant {got}, expected {want}")

    s = NonLeapingSequence(fixtures.CP8_SEQ)
    cases = (
        ("cp8_chain", fixtures.CP8_CHAIN_ANCHORS, fixtures.CP8_CHAIN_DISTANCES, fixtures.CP8_CHAIN_REDUCER),
        ("cp8_hub", fixtures.CP8_HUB_ANCHORS, fixtures.CP8_HUB_DISTANCES, fixtures.CP8_HUB_REDUCER),
    )
    for name, anchors, want_d, want_e in cases:
        ns = NeighborhoodSequence(s, anchors)
        g = build_cp_graph(ns)
        rec.check(g == fixtures.fixture_graph(name), f"{name}: fixture differs from construction")
        d = all_pairs_distances(g)
        e = reducing_matrix(ns)
        rec.check(d == want_d, f"{name}: distance matrix differs from the recorded one")
        rec.check(e == want_e, f"{name}: reducing matrix differs from the recorded one")
        rec.check(  # the anchor route, and the general one on the recorded E
            congruence_reduce(d, e) == congruence_reduce(d, want_e) == fixtures.CP8_REDUCED_ADJACENCY,
            f"{name}: congruence does not give the recorded reduced matrix",
        )
    rec.check(
        reduced_graph(s).adjacency_matrix() == fixtures.CP8_REDUCED_ADJACENCY,
        "cp8: reduced graph adjacency differs from the recorded matrix",
    )

    spec = CliquePathSpec(fixtures.SEESAW_CP_SPEC)
    ns = NeighborhoodSequence(expand_clique_path_spec(spec), fixtures.SEESAW_CP_ANCHORS)
    g = build_cp_graph(ns)
    rec.check(
        g == fixtures.fixture_graph("seesaw_cp"), "seesaw_cp: fixture differs from construction"
    )
    inv = distance_invariants(g)
    rec.check(inv.det == fixtures.SEESAW_CP_DET, f"seesaw_cp: det {inv.det}")
    rec.check(inv.inertia == fixtures.SEESAW_CP_INERTIA, f"seesaw_cp: inertia {inv.inertia}")
    rec.check(inv.cof == fixtures.SEESAW_CP_COF, f"seesaw_cp: cof {inv.cof}")

    chain = fixtures.fixture_graph("cp8_chain")
    hub = fixtures.fixture_graph("cp8_hub")
    c5 = LabeledGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    for name, cp in (("c5_cp8_chain", chain), ("c5_cp8_hub", hub)):
        combined = attach(c5, (1, 2), cp).graph
        rec.check(
            combined == fixtures.fixture_graph(name), f"{name}: fixture differs from attach()"
        )
    return {"checks": rec.passed + rec.failed - before}


def member_reduces(ns: NeighborhoodSequence, h: IntMatrix) -> bool:
    """Whether E^T D E of the member `ns` equals `h`, its family's reduced matrix A(H),
    from the member alone (the per-member path that _grow shares across members)."""
    return congruence_reduce(all_pairs_distances(build_cp_graph(ns)), reducing_matrix(ns)) == h


def _grow(families, h=None):
    """Verify the members of the listed families, NonLeapingSequences, in
    one depth-first walk, sequences._Prefix.walk, the walk
    enumerate_neighborhood_sequences takes: each member of a listed family
    or of a prefix of one is a node, visited once, and the walk's store
    grows D's rows on the nodes that share them. Only the members of listed
    families are yielded, each family's in the order of
    enumerate_neighborhood_sequences.

    Yields (q, a, d, got) per member: its sizes and anchors, D as a list of
    rows (valid until the next member) and its GraphInvariants or, given h,
    whether E^T D E == h(s) for its family s, with h called once per listed
    family. Column k of E^T D E, which sequences._reduced_column forms from
    the store's D and anchors, is checked once, for all descendants, against
    h of the listed family the walk gives the node, which holds as
    reduced_graph(q[:k]) is the leading block of reduced_graph(q).
    Without h, vertex k adds column k of the symmetric fraction-free
    elimination of [[D, 1], [1^T, 0]], border last, after _symmetric_bareiss's
    step 0 (vertex 2 added into vertex 1, pivot 2), reduced through the
    stored pivot rows: pivot k >= 1 is the leading minor D_(k+1), and row k's
    border entry x takes the corner c to the next bordered minor
    (c*p - x*x) // prev. det is the last pivot, inertia comes from the pivot
    signs and cof = -corner, as the kernel gives them. A zero pivot before
    the last is a prefix family's determinant, so every member below it
    goes to formulas._distance_matrix_invariants with its D rows instead.
    """
    prefix = _Prefix()
    n = max((s.n for s in families), default=2)
    # per vertex k, written as the walk reaches it: ok[k], whether columns
    # 0..k of E^T D E match (given h) or pivots 0..k are all nonzero;
    # pivots[k], row k reduced by pivots 0..k-1, its border entry first
    # (vertex 1's is 1 + 1), then columns k, k + 1, ... as the walk reaches
    # them; corners[k], the bordered minor after pivot k; minus[k], the
    # negative pivots among 0..k. targets: sizes -> rows of h, or False
    # unless h is symmetric, of the family's order and 0 at (1, 1)
    ok, corners, minus, targets = [True] * n, [-4] * n, [0] * n, {}
    pivots = [[2, 2] + [0] * n] + [[]] * (n - 1)
    for k, fam, listed in prefix.walk(families):
        if h is not None:
            target = targets.get(fam.q)
            if target is None:
                m = h(fam)
                good = m.n == fam.n and m.is_symmetric() and m.rows[0][0] == 0
                target = targets[fam.q] = good and m.rows
            if ok[k - 1] and target:
                col = _reduced_column(prefix.rows_at(prefix.serial), prefix.anchors, k)
                ok[k] = tuple(col) == target[k][: k + 1]
            else:
                ok[k] = False
        elif ok[k - 1]:  # pivots 0..k-1 are all nonzero
            new = prefix.rows_at(prefix.serial)[k]
            # row k's border entry, then column k from row t = 0 on, as row t meets it
            col = [1, new[0] + new[1], *new[1:]]
            prev = 1
            for row in pivots[:k]:
                f = col[1]
                row[len(col) - 1] = f
                p = row[1]
                col = [(y * p - u * f) // prev for y, u in zip(col, row)]
                del col[1]  # row t's own entry, now 0
                prev = p
            x, p = col
            pivots[k] = col + [0] * (n - k)
            corners[k] = (corners[k - 1] * p - x * x) // prev
            minus[k] = minus[k - 1] + ((p > 0) != (prev > 0))
            ok[k] = p != 0
        else:
            ok[k] = False
        if not listed:
            continue
        d = prefix.rows_at(prefix.serial)
        if h is not None:
            got = ok[k]
        elif not ok[k - 1]:
            got = _distance_matrix_invariants(d)
        elif ok[k]:
            inertia = Inertia(k + 1 - minus[k], minus[k], 0)
            got = GraphInvariants(pivots[k][1], inertia, -corners[k])
        else:  # only the last pivot is zero: one zero eigenvalue
            got = GraphInvariants(0, Inertia(k - minus[k - 1], minus[k - 1], 1), -corners[k])
        yield fam.q, tuple(prefix.anchors[2:]), d, got


def _check_members(rec: Recorder, families: list, want: dict, label: Callable, h=None) -> int:
    """Check every member (q, a, d, got) of _grow(families, h) for got == want[q],
    with `label(q, a, got, want[q])` rendering a failure. Then record each
    family whose member count, 0 if the walk never reached it, is not the
    product formula's. Returns the number of members walked."""
    tally = dict.fromkeys(want, 0)
    for p, a, _, got in _grow(families, h):
        tally[p] += 1
        rec.check(got == want[p], lambda: label(p, a, got, want[p]))
    for s in families:
        members, expected = tally[s.q], count_neighborhood_sequences(s)
        if members != expected:
            rec.check(False, f"q={s.q}: enumerated {members} members, expected {expected}")
    return sum(tally.values())


def _every_family(rec: Recorder, n_max: int) -> list[NonLeapingSequence]:
    """Every size sequence of order 2..n_max. Records each order n whose families'
    product-formula counts do not sum to the ternary number C(3m, m) / (2m + 1), m = n - 2."""
    families = []
    for n in range(2, n_max + 1):
        order = list(iter_nonleaping_sequences(n))
        members = sum(map(count_neighborhood_sequences, order))
        expected = comb(3 * n - 6, n - 2) // (2 * n - 3)
        if members != expected:
            rec.check(False, f"order {n}: {members} members in all families, expected {expected}")
        families += order
    return families


def _suite_congruence(rec: Recorder, rng, scale) -> dict:
    families = _every_family(rec, scale)
    want = dict.fromkeys((s.q for s in families), True)
    members = _check_members(
        rec,
        families,
        want,
        lambda q, a, *_: f"congruence broken for q={q} anchors={a}",
        lambda s: reduced_graph(s).adjacency_matrix(),
    )
    random_checks = 100
    for _ in range(random_checks):
        s = random_nonleaping(rng, 12)
        ns = random_member(rng, s)
        rec.check(
            member_reduces(ns, reduced_graph(s).adjacency_matrix()),
            lambda: f"congruence broken for q={s.q} anchors={ns.anchors}",
        )
    return {"families": len(want), "members": members, "random_members": random_checks}


def _suite_constancy(rec: Recorder, rng, scale) -> dict:
    families = _every_family(rec, scale)
    want = {s.q: family_invariants(s) for s in families}
    members = _check_members(rec, families, want, lambda q, a, got, w: (
        f"invariants vary within q={q}: anchors={a} give {got}, family says {w}"
    ))
    return {"families": len(want), "members": members}


def _suite_cp2(rec: Recorder, rng, scale) -> dict:
    families, want, specs = [], {}, {}  # the families; by sizes, closed form and clique sizes
    for m in range(scale + 1):
        for p in product((3, 4, 5), repeat=m):
            spec = CliquePathSpec(p)
            s = expand_clique_path_spec(spec)
            families.append(s)
            want[s.q], specs[s.q] = cp2_invariants(spec), p
            rec.check(
                family_invariants(s) == want[s.q],
                f"reduced-graph invariants disagree with the closed form for 2:{p}",
            )
    members = _check_members(rec, families, want, lambda q, a, got, w: (
        f"2:{specs[q]} anchors={a}: {got} differs from closed form {w}"
    ))
    return {"specs": len(want), "members": members}


def _suite_linear_2tree(rec: Recorder, rng, scale) -> dict:
    families, want = [], {}
    for n in range(4, scale + 1):
        spec = CliquePathSpec((3,) * (n - 2))
        s = expand_clique_path_spec(spec)
        families.append(s)
        want[s.q] = linear_2tree_invariants(n)
        rec.check(
            cp2_invariants(spec) == want[s.q],
            f"linear 2-tree closed form disagrees with 2-clique-path form at n={n}",
        )
    members = _check_members(rec, families, want, lambda q, a, got, w: (
        f"linear 2-tree n={len(q)} anchors={a}: {got} differs from {w}"
    ))
    return {"orders": list(range(4, scale + 1)), "members": members}


def _suite_weighted_path(rec: Recorder, rng, scale) -> dict:
    rec.check(determinant(weighted_path_matrix(0)) == 1, "empty path determinant is not 1")
    for n in range(1, scale + 1):
        a = weighted_path_matrix(n)
        want_det = (-1) ** n * (n + 1)
        got_det, got_in = det_and_inertia(a)
        rec.check(got_det == want_det, f"path n={n}: determinant {got_det} != {want_det}")
        rec.check(got_in == Inertia(0, n, 0), f"path n={n}: inertia {got_in} != (0, {n}, 0)")
    return {"orders": scale}


def _suite_trees(rec: Recorder, rng, scale) -> dict:
    orders = list(range(2, scale + 1))
    trees = 0
    # a shape fixes the tree up to relabelling and a rooted class up to
    # isomorphism, so each class is eliminated once and each shape judged once
    by_shape, by_class = {}, {}
    for n in orders:
        want = tree_invariants(n)
        composed = compose_blocks([(-1, -2)] * (n - 1))
        rec.check(
            composed == (want.det, want.cof),
            f"n={n}: block composition {composed} disagrees with the tree formulas",
        )
        for code in product(range(1, n + 1), repeat=max(0, n - 2)):
            trees += 1
            shape = _pruefer_growth(n, code)[1]
            judged = by_shape.get(shape)
            if judged is None:
                key = _rooted_class(shape)
                got = by_class.get(key)
                if got is None:
                    got = by_class[key] = distance_invariants(tree_from_pruefer(n, code))
                judged = by_shape[shape] = (got, got == want)
            rec.check(judged[1], lambda: f"tree code={code}: {judged[0]} != {want}")
    return {"orders": orders, "trees": trees}


def _suite_attach(rec: Recorder, rng, scale) -> dict:
    chain = all_pairs_distances(fixtures.fixture_graph("c5_cp8_chain"))
    hub = all_pairs_distances(fixtures.fixture_graph("c5_cp8_hub"))
    rec.check(
        det_and_inertia(chain) == det_and_inertia(hub),
        "the two bundled five-cycle attachments have different determinants or inertias",
    )
    for i in range(scale):
        base = random_connected_graph(rng, rng.randint(3, 6))
        u, v = rng.choice(base.edges)
        edge = (u, v) if rng.random() < 0.5 else (v, u)
        s = random_nonleaping(rng, rng.randint(2, 7))
        values = set()
        count = 0
        for ns in enumerate_neighborhood_sequences(s):
            combined = attach(base, edge, build_cp_graph(ns)).graph
            values.add(det_and_inertia(all_pairs_distances(combined)))
            count += 1
        rec.check(
            len(values) == 1,
            f"pair {i}: {len(values)} distinct (det, inertia) across {count} members of q={s.q}",
        )
    doubles = 5
    for i in range(doubles):
        base = random_connected_graph(rng, rng.randint(4, 6))
        e1, e2 = rng.sample(list(base.edges), 2)
        g1 = build_cp_graph(random_member(rng, random_nonleaping(rng, rng.randint(3, 6))))
        g2 = build_cp_graph(random_member(rng, random_nonleaping(rng, rng.randint(3, 6))))
        ab = attach(attach(base, e1, g1).graph, e2, g2).graph
        ba = attach(attach(base, e2, g2).graph, e1, g1).graph
        rec.check(
            ab.n == ba.n == base.n + g1.n + g2.n - 4,
            f"double {i}: combined orders {ab.n}, {ba.n} are off",
        )
        rec.check(
            det_and_inertia(all_pairs_distances(ab)) == det_and_inertia(all_pairs_distances(ba)),
            f"double {i}: attachment order changed the determinant or inertia",
        )
    return {"fixture_pairs": 1, "random_pairs": scale, "double_attachments": doubles}


def _crafted_recipes() -> list[BlockCliquePathRecipe]:
    edge = CliquePathSpec(())
    return [
        # a path on 5 vertices: K_2 blocks chained end to end
        BlockCliquePathRecipe(
            (
                BlockPart(edge),
                BlockPart(edge, at=2),
                BlockPart(edge, at=3),
                BlockPart(edge, at=4),
            )
        ),
        # a star on 6 vertices
        BlockCliquePathRecipe(
            (
                BlockPart(edge),
                BlockPart(edge, at=1),
                BlockPart(edge, at=1),
                BlockPart(edge, at=1),
                BlockPart(edge, at=1),
            )
        ),
        # one 2-clique-path block
        BlockCliquePathRecipe((BlockPart(CliquePathSpec((3, 4))),)),
        # a triangle with a pendant edge
        BlockCliquePathRecipe((BlockPart(CliquePathSpec((3,))), BlockPart(edge, at=3))),
        # a triangle with a linear 2-tree hanging off each vertex
        BlockCliquePathRecipe(
            (
                BlockPart(CliquePathSpec((3,))),
                BlockPart(CliquePathSpec((3, 3)), at=1),
                BlockPart(CliquePathSpec((3,)), at=2),
                BlockPart(edge, at=3),
            )
        ),
    ]


def _suite_block_inertia(rec: Recorder, rng, scale) -> dict:
    recipes = _crafted_recipes()
    while len(recipes) < 30:
        recipes.append(random_recipe(rng, scale))
    for i, recipe in enumerate(recipes):
        d = all_pairs_distances(realize_recipe(recipe))
        n = d.n
        want = Inertia(1, n - 1, 0)
        try:
            claimed = block_2cp_inertia(d)
            rec.check(claimed == want, f"recipe {i}: claimed {claimed}")
        except CrossCheckFailed as e:
            rec.check(False, f"recipe {i} (n={n}): {e}")
            continue
        direct = inertia_congruence(d)
        rec.check(
            direct == want, f"recipe {i} (n={n}): direct inertia {direct} != {want}"
        )
    return {"recipes": len(recipes)}


def _addressing_cases() -> list[tuple[str, LabeledGraph]]:
    two_tree5 = build_cp_graph(
        NeighborhoodSequence(
            expand_clique_path_spec(CliquePathSpec((3, 3, 3))), (1, 1, 1)
        )
    )
    return [
        ("K2", path_graph(2)),
        ("K3", complete_graph(3)),
        ("P3", path_graph(3)),
        ("P4", path_graph(4)),
        ("K4", complete_graph(4)),
        ("2tree5", two_tree5),
    ]


def _suite_addressing(rec: Recorder, rng, scale) -> dict:
    cases = _addressing_cases()
    for name, g in cases:
        n = g.n
        lb, scheme = exact_n(g)
        rec.check(lb == n - 1, f"{name}: lower bound {lb} != {n - 1}")
        shorter = search_scheme(g, n - 2)
        rec.check(shorter is None, f"{name}: found a scheme of length {n - 2}")
        rec.check(scheme.d == n - 1, f"{name}: minimum length {scheme.d} != {n - 1}")
        rec.check(verify_scheme(g, scheme), f"{name}: no valid scheme of length {n - 1}")
    return {"graphs": [name for name, _ in cases]}


def _suite_linalg_crossval(rec: Recorder, rng, scale) -> dict:
    jones_applied = 0
    jones_skipped = 0
    for i in range(scale):
        n = rng.randint(1, 7)
        rows = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                rows[r][c] = rows[c][r] = rng.randint(-5, 5)
        a = IntMatrix.from_rows(rows)
        fast = determinant(a)
        slow = det_by_cofactor_expansion(a)
        rec.check(fast == slow, f"matrix {i}: determinant {fast} != expansion {slow}")
        cong = inertia_congruence(a)
        roots = inertia_by_charpoly_signs(a)
        rec.check(cong == roots, f"matrix {i}: congruence {cong} != sign rule {roots}")
        try:
            jones = inertia_leading_minors(a)
        except (Singular, ConsecutiveZeroMinors):
            jones_skipped += 1
            continue
        jones_applied += 1
        rec.check(jones == cong, f"matrix {i}: minor-sign {jones} != congruence {cong}")
    return {"matrices": scale, "jones_applied": jones_applied, "jones_skipped": jones_skipped}


# name: (suite, its default scale, its cap). run_suite refuses a scale above
# the cap of any suite it would run before any of them starts. For the
# exponentially growing suites the cap is the largest run the docs record (up
# to about 50 s on 2 cores with Python 3.11); each step past it at least
# doubles the work. For the rest it is a run of about 15-30 s: weighted-path
# 600 (one elimination per order up to the scale, 17 s), attach 50 000 pairs
# (25 s), linalg-crossval 50 000 matrices (20 s). Every cap is at least 6, so
# "all" has the cap 6. fixtures and addressing take no scale, and
# block-inertia's only bounds the order of 30 random recipes, each of which
# stops growing with probability 0.3 at every part, so none of them has a cap.
SUITES = {
    "fixtures": (_suite_fixtures, None, None),
    "congruence": (_suite_congruence, 8, 11),
    "constancy": (_suite_constancy, 8, 11),
    "cp2-formulas": (_suite_cp2, 4, 6),
    "linear-2tree": (_suite_linear_2tree, 10, 20),
    "weighted-path": (_suite_weighted_path, 12, 600),
    "trees": (_suite_trees, 7, 9),
    "attach": (_suite_attach, 20, 50_000),
    "block-inertia": (_suite_block_inertia, 12, None),
    "addressing": (_suite_addressing, None, None),
    "linalg-crossval": (_suite_linalg_crossval, 200, 50_000),
}


def available_suites() -> list[str]:
    return list(SUITES) + ["all"]


def run_suite(name: str, seed: int = 0, scale: int | None = None) -> Report:
    """Run one suite (or "all", each suite at the same seed and scale) and
    return its report. A scale of None runs each suite at its default; a
    scale above the cap of a suite it would run raises ResourceLimit before
    any suite starts."""
    if scale is not None and scale < 0:
        raise InputError(f"scale must be nonnegative, got {scale}")
    if name != "all" and name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; available: {', '.join(available_suites())}")
    names = list(SUITES) if name == "all" else [name]
    for sub_name in names:
        cap = SUITES[sub_name][2]
        if scale is not None and cap is not None and scale > cap:
            raise ResourceLimit(f"scale {scale} is above the cap {cap} of suite {sub_name}")
    t0 = time.perf_counter()
    rec = Recorder()
    totals = {}
    for sub_name in names:
        suite, default, _ = SUITES[sub_name]
        passed, failed = rec.passed, rec.failed
        results = suite(rec, random.Random(seed), default if scale is None else scale)
        totals[sub_name] = {"passed": rec.passed - passed, "failed": rec.failed - failed}
    return Report(
        name, seed, scale, totals if name == "all" else results, rec.passed, rec.failed,
        rec.failures, time.perf_counter() - t0,
    )
