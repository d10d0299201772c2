"""Named verification suites behind the `check` subcommand.

Each suite replays one verifiable claim about the library at desk scale:
exhaustive where the instance space is small (all families up to n = 8, all
labeled trees up to n = 7, where each leaf-growth shape of a Pruefer code is
eliminated once), seeded-random where it is not. The suites that check every
member of a family (and `reduce verify`) walk the family once, each member
grown from the previous one's shared prefix: distance rows, elimination
and E^T D E alike (see _walk). Suites are pure given (seed, scale), so
reports are reproducible byte for byte apart from the wall time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import compress, product
from math import comb
from operator import ne
from typing import Callable

from . import fixtures
from .crosschecks import det_by_cofactor_expansion, inertia_by_charpoly_signs
from .errors import InputError
from .formulas import (
    BlockCliquePathRecipe,
    BlockPart,
    CrossCheckFailed,
    GraphInvariants,
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
    is_connected,
    path_graph,
)
from .addressing import _minimum_scheme, search_scheme, verify_scheme
from .linalg import (
    ConsecutiveZeroMinors,
    Inertia,
    Singular,
    cofactor_sum,
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
    admissible_anchors,
    count_neighborhood_sequences,
    enumerate_neighborhood_sequences,
    expand_clique_path_spec,
    iter_nonleaping_sequences,
)


class UnknownSuite(InputError):
    """No suite is registered under the requested name."""


@dataclass
class Recorder:
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    max_failures: int = 20

    def check(self, ok: bool, label: str | Callable[[], str]):
        """Count one check. A callable label is rendered only if the check fails."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < self.max_failures:
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
    anchors: list[int] = []
    for k in range(3, s.n + 1):
        anchors.append(rng.choice(sorted(admissible_anchors(s, k, anchors))))
    return NeighborhoodSequence(s, tuple(anchors))


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
    g = LabeledGraph(n, tuple(sorted(edges)))
    assert is_connected(g)
    return g


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
    """pruefer_growth without the input check, for codes the trees suite builds itself."""
    if n == 1:
        return (1,), ()
    deg = [1] * (n + 1)
    for v in code:
        deg[v] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]  # ascending, so a heap
    removed = []
    for v in code:
        removed.append(heappop(leaves))
        deg[v] -= 1
        if deg[v] == 1:
            heappush(leaves, v)
    order = (n, leaves[0], *reversed(removed))  # the two survivors are leaves[0] < n
    pos = dict(zip(order, range(n)))
    return order, tuple(map(pos.__getitem__, (n, *reversed(code))))


def tree_from_pruefer(n: int, code: tuple[int, ...]) -> LabeledGraph:
    """The labelled tree on 1..n with Pruefer code `code` (n - 2 labels in 1..n)."""
    order, parents = pruefer_growth(n, code)
    edges = ((order[j], order[p]) for j, p in enumerate(parents, 1))
    return LabeledGraph._of(n, tuple(sorted((min(e), max(e)) for e in edges)))


# -- the suites --------------------------------------------------------------


def _families(n_max: int):
    for n in range(2, n_max + 1):
        yield from iter_nonleaping_sequences(n)


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
        rec.check(
            congruence_reduce(d, e) == fixtures.CP8_REDUCED_ADJACENCY,
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
    from the member alone (the per-member path that _walk shares across a family)."""
    return congruence_reduce(all_pairs_distances(build_cp_graph(ns)), reducing_matrix(ns)) == h


def _check_count(rec: Recorder, s: NonLeapingSequence, members: int):
    """Fail (and only fail) if `members` is not the family's product-formula count."""
    want = count_neighborhood_sequences(s)
    if members != want:
        rec.check(False, f"q={s.q}: enumerated {members} members, expected {want}")


def _check_order_totals(rec: Recorder, by_order: dict[int, int]):
    """Fail (and only fail) where the members of order n = m + 2 do not sum to
    the ternary number C(3m, m) / (2m + 1)."""
    for n, got in by_order.items():
        want = comb(3 * n - 6, n - 2) // (2 * n - 3)
        if got != want:
            rec.check(False, f"order {n}: {got} members in all families, expected {want}")


def _walk(s: NonLeapingSequence, h: IntMatrix | None = None):
    """Verify the members of the family `s`, in the order of
    enumerate_neighborhood_sequences(s), each from the previous one's prefix.

    Yields (ns, d, got) per member: d is its distance matrix as a list of
    rows, valid until the next member, and got its GraphInvariants or, when
    A(H) = h is given, whether E^T D E == h.

    Every W_k is a clique, so vertex order is a perfect elimination ordering:
    adding a vertex changes no earlier distance, and the new row is
    d(k, j) = 1 + min over w in W_k of d(w, j). A member thus shares every
    vertex before its first changed anchor with the previous member; only
    the vertices from there on are rebuilt. With h, column k of E^T D E is
    compared as it is built: column k of E touches rows k, k-1, a_k and
    a_(k-1) only, so it needs D's leading (k+1) block. Without h, vertex k
    adds column k of the symmetric fraction-free elimination of
    [[D, 1], [1^T, 0]], border last, after _symmetric_bareiss's step 0
    (vertex 2 added into vertex 1, pivot 2). Column k is reduced through
    the stored pivot rows (up-looking), so pivot k >= 1 is the leading minor
    D_(k+1), and row k's border entry x takes the corner c to the next
    bordered minor (c*p - x*x) // prev. det is the last pivot, inertia
    comes from the pivot signs and cof = -corner, all as the kernel gives
    them. A zero pivot before the last is the determinant of a prefix
    family, so every member past it takes the kernel on its D rows instead.
    """
    n, b = s.n, s.b
    d = [[0]]  # D's rows; after vertex k each has k + 1 entries
    anc = [0]  # anc[k] = a_(k+1) - 1, with a_2 = 1
    # elimination state: pivots[t] is row t reduced by pivots 0..t-1, its
    # border entry first (vertex 1's is 1 + 1), then columns t, t + 1, ...;
    # corners[t] is the bordered minor after pivot t, minus[t] the negative
    # pivots among 0..t
    pivots, corners, minus = [[2, 2]], [-4], [0]
    if h is not None:  # ok[k]: columns 0..k of E^T D E match h's upper triangle
        cols = [list(r[: k + 1]) for k, r in enumerate(h.rows)]
        ok = [h.n == n and h.is_symmetric() and cols[0] == [0]]
    last = None
    for ns in enumerate_neighborhood_sequences(s):
        a = ns.anchors
        # rebuild from the vertex of the first changed anchor (vertex 1 for the first member)
        r = 1 if last is None else 2 + next(compress(range(n), map(ne, a, last)), n)
        last = a
        del d[r:], anc[r:], pivots[r:], corners[r:], minus[r:]
        for row in d:
            del row[r:]
        for t, row in enumerate(pivots):
            del row[r - t + 1 :]
        if h is not None:
            del ok[r:]
        for k in range(r, n):
            anc.append(a[k - 2] - 1 if k > 1 else 0)
            new = [1 + min(ws) for ws in zip(d[anc[k]], *d[b[k] - 1 : k])]
            for row, x in zip(d, new):
                row.append(x)
            new.append(0)
            d.append(new)
            if h is not None:
                if ok[-1]:
                    # v = D times column k of E, then column k of E^T D E
                    v = new if k == 1 else [
                        w - x - y + z
                        for w, x, y, z in zip(new, d[anc[k]], d[k - 1], d[anc[k - 1]])
                    ]
                    col = v[:2] + [
                        v[i] - v[anc[i]] - v[i - 1] + v[anc[i - 1]] for i in range(2, k + 1)
                    ]
                    ok.append(col == cols[k])
                else:
                    ok.append(False)
            elif len(pivots) == k and pivots[-1][1]:  # pivots 0..k-1 are all nonzero
                # row k's border entry, then column k from row t = 0 on, as row t meets it
                col = [1, new[0] + new[1], *new[1:]]
                prev = 1
                for row in pivots:
                    f = col[1]
                    row.append(f)
                    p = row[1]
                    col = [(y * p - u * f) // prev for y, u in zip(col, row)]
                    del col[1]  # row t's own entry, now 0
                    prev = p
                x, p = col
                pivots.append(col)
                corners.append((corners[-1] * p - x * x) // prev)
                minus.append(minus[-1] + ((p > 0) != (prev > 0)))
        if h is not None:
            yield ns, d, ok[-1]
        elif len(pivots) < n:
            m = IntMatrix._of(tuple(map(tuple, d)))
            det, inertia = det_and_inertia(m)
            yield ns, d, GraphInvariants(det, inertia, cofactor_sum(m))
        elif pivots[-1][1]:
            inertia = Inertia(n - minus[-1], minus[-1], 0)
            yield ns, d, GraphInvariants(pivots[-1][1], inertia, -corners[-1])
        else:  # only the last pivot is zero: one zero eigenvalue
            inertia = Inertia(n - 1 - minus[-2], minus[-2], 1)
            yield ns, d, GraphInvariants(0, inertia, -corners[-1])


def _check_members(
    rec: Recorder, s: NonLeapingSequence, want, label: Callable, h: IntMatrix | None = None
) -> int:
    """Check every member of the family `s` for distance invariants `want`
    (or, given A(H) = h, for the congruence verdict `want`), and that there
    are as many as the product formula counts.

    `label(ns, got)` renders a failure. Returns the number of members.
    """
    members = 0
    for ns, _, got in _walk(s, h):
        members += 1
        rec.check(got == want, lambda: label(ns, got))
    _check_count(rec, s, members)
    return members


def _suite_congruence(rec: Recorder, rng, scale) -> dict:
    n_max = scale if scale is not None else 8
    fams = list(_families(n_max))
    by_order = dict.fromkeys(range(2, n_max + 1), 0)
    for s in fams:
        by_order[s.n] += _check_members(
            rec,
            s,
            True,
            lambda ns, _: f"congruence broken for q={s.q} anchors={ns.anchors}",
            reduced_graph(s).adjacency_matrix(),
        )
    _check_order_totals(rec, by_order)
    random_checks = 100
    for _ in range(random_checks):
        s = random_nonleaping(rng, 12)
        ns = random_member(rng, s)
        rec.check(
            member_reduces(ns, reduced_graph(s).adjacency_matrix()),
            lambda: f"congruence broken for q={s.q} anchors={ns.anchors}",
        )
    return {"families": len(fams), "members": sum(by_order.values()), "random_members": random_checks}


def _suite_constancy(rec: Recorder, rng, scale) -> dict:
    n_max = scale if scale is not None else 8
    fams = list(_families(n_max))
    by_order = dict.fromkeys(range(2, n_max + 1), 0)
    for s in fams:
        want = family_invariants(s)
        by_order[s.n] += _check_members(
            rec,
            s,
            want,
            lambda ns, got: f"invariants vary within q={s.q}: anchors={ns.anchors} give {got},"
            f" family says {want}",
        )
    _check_order_totals(rec, by_order)
    return {"families": len(fams), "members": sum(by_order.values())}


def _suite_cp2(rec: Recorder, rng, scale) -> dict:
    m_max = scale if scale is not None else 4
    specs = [CliquePathSpec(p) for m in range(m_max + 1) for p in product((3, 4, 5), repeat=m)]
    members = 0
    for spec in specs:
        want = cp2_invariants(spec)
        s = expand_clique_path_spec(spec)
        rec.check(
            family_invariants(s) == want,
            f"reduced-graph invariants disagree with the closed form for 2:{spec.p}",
        )
        members += _check_members(
            rec,
            s,
            want,
            lambda ns, got: f"2:{spec.p} anchors={ns.anchors}: {got} differs from closed form {want}",
        )
    return {"specs": len(specs), "members": members}


def _suite_linear_2tree(rec: Recorder, rng, scale) -> dict:
    n_max = scale if scale is not None else 10
    members = 0
    for n in range(4, n_max + 1):
        spec = CliquePathSpec((3,) * (n - 2))
        want = linear_2tree_invariants(n)
        rec.check(
            cp2_invariants(spec) == want,
            f"linear 2-tree closed form disagrees with 2-clique-path form at n={n}",
        )
        members += _check_members(
            rec,
            expand_clique_path_spec(spec),
            want,
            lambda ns, got: f"linear 2-tree n={n} anchors={ns.anchors}: {got} differs from {want}",
        )
    return {"orders": list(range(4, n_max + 1)), "members": members}


def _suite_weighted_path(rec: Recorder, rng, scale) -> dict:
    n_max = scale if scale is not None else 12
    rec.check(determinant(weighted_path_matrix(0)) == 1, "empty path determinant is not 1")
    for n in range(1, n_max + 1):
        a = weighted_path_matrix(n)
        want_det = (-1) ** n * (n + 1)
        got_det = determinant(a)
        rec.check(got_det == want_det, f"path n={n}: determinant {got_det} != {want_det}")
        got_in = inertia_congruence(a)
        rec.check(
            got_in == Inertia(0, n, 0), f"path n={n}: inertia {got_in} != (0, {n}, 0)"
        )
    return {"orders": n_max}


def _suite_trees(rec: Recorder, rng, scale) -> dict:
    n_max = scale if scale is not None else 7
    orders = list(range(2, n_max + 1))
    trees = 0
    by_shape = {}  # a shape fixes the tree up to relabelling, so it is eliminated once
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
            got = by_shape.get(shape)
            if got is None:
                got = by_shape[shape] = distance_invariants(tree_from_pruefer(n, code))
            rec.check(got == want, lambda: f"tree code={code}: {got} != {want}")
    return {"orders": orders, "trees": trees}


def _suite_attach(rec: Recorder, rng, scale) -> dict:
    pairs = scale if scale is not None else 20
    chain = all_pairs_distances(fixtures.fixture_graph("c5_cp8_chain"))
    hub = all_pairs_distances(fixtures.fixture_graph("c5_cp8_hub"))
    rec.check(
        det_and_inertia(chain) == det_and_inertia(hub),
        "the two bundled five-cycle attachments have different determinants or inertias",
    )
    for i in range(pairs):
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
    return {"fixture_pairs": 1, "random_pairs": pairs, "double_attachments": doubles}


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
    n_max = scale if scale is not None else 12
    recipes = _crafted_recipes()
    while len(recipes) < 30:
        recipes.append(random_recipe(rng, n_max))
    for i, recipe in enumerate(recipes):
        g = realize_recipe(recipe)
        n = g.n
        want = Inertia(1, n - 1, 0)
        try:
            claimed = block_2cp_inertia(recipe)
            rec.check(claimed == want, f"recipe {i}: claimed {claimed}")
        except CrossCheckFailed as e:
            rec.check(False, f"recipe {i} (n={n}): {e}")
            continue
        direct = inertia_congruence(all_pairs_distances(g))
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
    for name, g in _addressing_cases():
        n = g.n
        lb, scheme = _minimum_scheme(g)
        rec.check(lb == n - 1, f"{name}: lower bound {lb} != {n - 1}")
        shorter = search_scheme(g, n - 2)
        rec.check(shorter is None, f"{name}: found a scheme of length {n - 2}")
        rec.check(scheme.d == n - 1, f"{name}: minimum length {scheme.d} != {n - 1}")
        rec.check(verify_scheme(g, scheme), f"{name}: no valid scheme of length {n - 1}")
    return {"graphs": [name for name, _ in _addressing_cases()]}


def _suite_linalg_crossval(rec: Recorder, rng, scale) -> dict:
    count = scale if scale is not None else 200
    jones_applied = 0
    jones_skipped = 0
    for i in range(count):
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
    return {"matrices": count, "jones_applied": jones_applied, "jones_skipped": jones_skipped}


SUITES = {
    "fixtures": _suite_fixtures,
    "congruence": _suite_congruence,
    "constancy": _suite_constancy,
    "cp2-formulas": _suite_cp2,
    "linear-2tree": _suite_linear_2tree,
    "weighted-path": _suite_weighted_path,
    "trees": _suite_trees,
    "attach": _suite_attach,
    "block-inertia": _suite_block_inertia,
    "addressing": _suite_addressing,
    "linalg-crossval": _suite_linalg_crossval,
}


def available_suites() -> list[str]:
    return list(SUITES) + ["all"]


def run_suite(name: str, seed: int = 0, scale: int | None = None) -> Report:
    """Run one suite (or "all", each suite at the same seed and scale) and
    return its report."""
    if scale is not None and scale < 0:
        raise InputError(f"scale must be nonnegative, got {scale}")
    t0 = time.perf_counter()
    rec = Recorder()
    if name == "all":
        results = {}
        for sub_name, suite in SUITES.items():
            passed, failed = rec.passed, rec.failed
            suite(rec, random.Random(seed), scale)
            results[sub_name] = {"passed": rec.passed - passed, "failed": rec.failed - failed}
    elif name in SUITES:
        results = SUITES[name](rec, random.Random(seed), scale)
    else:
        raise UnknownSuite(f"unknown suite {name!r}; available: {', '.join(available_suites())}")
    return Report(
        name, seed, scale, results, rec.passed, rec.failed, rec.failures,
        time.perf_counter() - t0,
    )
