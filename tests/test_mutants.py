"""Planted faults that the tests must catch.

Each entry names a module of the package, a snippet of its source, the
snippet's replacement and a check. The snippet must occur exactly once, so an
entry whose code has been rewritten fails loudly instead of testing nothing.
The mutated source is executed into a fresh module object, and the check must
fail there; an exception raised by the check counts as a kill. A change that
rewrites a targeted function re-points its entries.
"""

import inspect
import io
import random
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import pytest
from test_cli import stdin_bytes
from test_crosschecks import leibniz_det
from test_formulas import eliminated_matrix, has_difference_shape, hypercube, raw_invariants
from test_graphs import (
    bfs_rows,
    blocks_split_at_cut_vertices,
    enumerated_distances_hold,
    random_graph,
)
from test_reduction import (
    brute_congruence,
    e_by_columns,
    lazy_reads_match_eager,
    members_d_and_e_told_apart,
    seeded_members,
    with_upper_noise,
)
from test_sequences import ascending_members, per_step_mismatches, random_draws_match
from test_suites import ROOTED_TREES, all_codes, class_counts, heap_growth

from cpgraphs import (
    addressing,
    cli,
    crosschecks,
    formulas,
    graphs,
    matrices,
    reduction,
    sequences,
    suites,
)
from cpgraphs.crosschecks import is_connected
from cpgraphs.errors import InputError
from cpgraphs.graphs import (
    LabeledGraph,
    all_pairs_distances,
    build_cp_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from cpgraphs.matrices import IntMatrix
from cpgraphs.reduction import reduced_graph
from cpgraphs.sequences import (
    NonLeapingSequence,
    enumerate_neighborhood_sequences,
    iter_nonleaping_sequences,
)
from cpgraphs.suites import random_connected_graph, random_member


def load(module, source):
    """`source` executed into a fresh module object standing for `module`."""
    # the real name, so dataclasses resolve annotations in the package's own module
    mod = types.ModuleType(module.__name__)
    mod.__package__ = "cpgraphs"
    exec(compile(source, module.__file__, "exec"), mod.__dict__)
    return mod


def mutate(module, old, new):
    source = inspect.getsource(module)
    assert source.count(old) == 1, f"{module.__name__}: snippet occurs {source.count(old)} times"
    return load(module, source.replace(old, new))


def member_suites_pass(mod):
    """The suites that walk every member, run from `mod`, a suites module."""
    return all(mod.run_suite(name, scale=8).ok for name in ("constancy", "congruence"))


def walk_rows_pass(mod):
    """The member suites, with the walk and its row step (_Prefix) and the
    column step of `mod`, a sequences module, as the ones suites._grow
    takes."""
    with (
        mock.patch.object(suites, "_Prefix", mod._Prefix),
        mock.patch.object(suites, "_reduced_column", mod._reduced_column),
    ):
        return member_suites_pass(suites)


def enumerated_members_read_d(mod):
    """D read through an enumeration of every family with n <= 7 is right
    (see enumerated_distances_hold), with the enumerator of `mod` if it is a
    sequences module, or build_cp_graph and all_pairs_distances of `mod` if
    it is a graphs module."""
    if mod.__name__ == sequences.__name__:
        return enumerated_distances_hold(7, members=mod.enumerate_neighborhood_sequences)
    return enumerated_distances_hold(
        7, build=mod.build_cp_graph, distances=mod.all_pairs_distances
    )


# an n = 10 family of 72 members, and the members whose D rows are grown by a
# _next_row with a planted fault: the last vertex's own distance read as 1
PLANTED_FAMILY = NonLeapingSequence((0, 1, 2, 2, 3, 3, 4, 3, 3, 2))
PLANTED = range(1, 72, 4)


def planted_row(real, n):
    """_next_row as `real` adds it, but with d(n - 1, n - 1) = 1: a fault in
    the last row alone, which the next member's advance always drops."""
    def step(rows, anchor, lo):
        new = real(rows, anchor, lo)
        if len(rows) == n:
            new[-1] += 1
        return new

    return step


def shared_reduction_sees_each_member(mod):
    """The members of PLANTED_FAMILY, walked with the enumerator, the graph
    and D, and E and its congruence of `mod` where it has them, and of the
    package elsewhere: a member's E^T D E is A(H) unless its D was grown with
    a planted fault (PLANTED: 18 members), and then it equals (E^T D) E by
    ``@`` on that D and is not A(H). Before each member's own pair, its E
    with the previous member's D, and with its D plus seeded noise above the
    diagonal, must match ``@`` too; and once the walk is done, every
    member's own pair reads as it did. A stale block of shared rows equals
    A(H) too, so only the planted faults can show one."""
    seq = mod if mod.__name__ == sequences.__name__ else sequences
    enum = getattr(mod, "enumerate_neighborhood_sequences", enumerate_neighborhood_sequences)
    build = getattr(mod, "build_cp_graph", build_cp_graph)
    distances = getattr(mod, "all_pairs_distances", all_pairs_distances)
    reducing = getattr(mod, "reducing_matrix", reduction.reducing_matrix)
    congruence = getattr(mod, "congruence_reduce", reduction.congruence_reduce)
    h = reduced_graph(PLANTED_FAMILY).adjacency_matrix()
    fault = planted_row(seq._next_row, PLANTED_FAMILY.n)
    rng = random.Random(35)

    def by_products(d, e):
        e = IntMatrix(e.rows)
        return e.t @ d @ e

    read = []
    for i, ns in enumerate(enum(PLANTED_FAMILY)):
        planted = i in PLANTED
        with mock.patch.object(seq, "_next_row", fault if planted else seq._next_row):
            d = distances(build(ns))
        e = reducing(ns)
        mixed = [(with_upper_noise(d, rng), e)] + [(x, e) for x, *_ in read[-1:]]
        if any(congruence(x, y) != by_products(x, y) for x, y in mixed):
            return False
        r = congruence(d, e)
        if (r != h) != planted or r != by_products(d, e):
            return False
        read.append((d, e, r))
    return len(read) == 72 and all(congruence(d, e) == r for d, e, r in read)


def current_members_reduce_off_the_store(mod):
    """congruence_reduce, given the D and the E of each member of
    PLANTED_FAMILY while it is the current member of the enumeration of
    `mod`, a sequences module, copies A(H) off the walk's store: it takes
    no anchor route."""
    h = reduced_graph(PLANTED_FAMILY).adjacency_matrix()
    with mock.patch.object(reduction, "_anchor_differences", side_effect=AssertionError("anchors")):
        return all(
            reduction.congruence_reduce(
                all_pairs_distances(build_cp_graph(ns)), reduction.reducing_matrix(ns)
            ) == h
            for ns in mod.enumerate_neighborhood_sequences(PLANTED_FAMILY)
        )


def lazy_members_read_like_eager(mod):
    """lazy_reads_match_eager for every family with n <= 7, with
    reducing_matrix of `mod` if it is a reduction module, or else the lazy
    build of `mod`, LabeledGraph.__getattr__ of a graphs module or
    IntMatrix.__getattr__ of a matrices module, put on the package's class.
    The package's class, not `mod`'s: a graph of `mod`'s own LabeledGraph
    never equals the package's, so any change to `mod` would fail the check."""
    if mod.__name__ == reduction.__name__:
        return lazy_reads_match_eager(7, reducing=mod.reducing_matrix)
    cls = LabeledGraph if mod.__name__ == graphs.__name__ else IntMatrix
    with mock.patch.object(cls, "__getattr__", getattr(mod, cls.__name__).__getattr__):
        return lazy_reads_match_eager(7)


def d_and_e_told_apart(mod):
    """members_d_and_e_told_apart, with congruence_reduce of `mod`, a
    reduction module."""
    return members_d_and_e_told_apart(mod.congruence_reduce)


def fixtures_pass(mod):
    """check fixtures, with congruence_reduce of `mod`, a reduction module:
    its congruence check takes both the anchor route and the general one."""
    with mock.patch.object(suites, "congruence_reduce", mod.congruence_reduce):
        return suites.run_suite("fixtures").ok


def listed_walks_pass(mod):
    """The walks over short family lists, run from `mod`, a suites module: the
    linear 2-trees, whose list leaves out their prefix (0, 1, 2); the 2-clique
    paths of up to two cliques, whose nodes take up to three next sizes; and
    one family, each prefix of which reads the family's reduced graph."""
    s = NonLeapingSequence((0, 1, 2, 2, 2, 2, 3, 3))
    verdicts = [ok for *_, ok in mod._grow([s], lambda f: reduced_graph(f).adjacency_matrix())]
    return (
        mod.run_suite("linear-2tree", scale=6).ok
        and mod.run_suite("cp2-formulas", scale=2).ok
        and verdicts == [True] * 16
    )


def shared_walk_lists_pass(mod):
    """listed_walks_pass, with the walk of `mod`, a sequences module, as the
    one suites._grow takes."""
    with mock.patch.object(suites, "_Prefix", mod._Prefix):
        return listed_walks_pass(suites)


def enumeration_matches_the_oracle(mod):
    """The enumerator of `mod`, a sequences module, lists each family with
    n <= 8 as ascending_members grows it from W_(k-1): the same members in
    the same order."""
    return all(
        [ns.anchors for ns in mod.enumerate_neighborhood_sequences(s)] == ascending_members(s)
        for n in range(2, 9)
        for s in iter_nonleaping_sequences(n)
    )


def anchor_rule_matches_the_per_step_sets(mod):
    """NeighborhoodSequence and admissible_anchors of `mod`, a sequences
    module, agree with the per-step oracle on every family with n <= 7."""
    return not per_step_mismatches(mod, 7)[0]


def random_members_draw_as_before(mod):
    """random_member of `mod`, a suites module, draws the anchors the sorted
    per-step sets gave, on 100 seeded families."""
    return random_draws_match(mod.random_member, 100)


def trees_decode_and_classes(mod):
    """The trees suite's decoder in `mod`, a suites module, matches the heap
    oracle on every code with n <= 6, and its rooted-class key gives the
    rooted-tree counts for n = 1..8."""
    return class_counts(mod._rooted_class) == ROOTED_TREES and all(
        mod._pruefer_growth(n, code) == heap_growth(n, code) for n, code in all_codes(6)
    )


def trees_judge_every_code(mod):
    """The trees suite of `mod`, a suites module, passes up to order 6 and,
    with the invariants of every order-5 tree off by one, fails each of the
    125 codes of order 5 and nothing else."""
    real = mod.distance_invariants

    def wrong_on_order_5(g):
        inv = real(g)
        return replace(inv, det=inv.det + 1) if g.n == 5 else inv

    ok = mod.run_suite("trees", scale=6).ok
    mod.distance_invariants = wrong_on_order_5
    try:
        r = mod.run_suite("trees", scale=5)
    finally:
        mod.distance_invariants = real
    return ok and (r.passed, r.failed) == (4 + 1 + 3 + 16, 125)


# seeded square matrices of order 0..5, about two fifths of their entries 0,
# each with its Leibniz determinant and the Leibniz determinants of x I - A
# for x = 0..n, the values the characteristic polynomial must take there
_rng = random.Random(30)
_SQUARES = [
    IntMatrix.from_rows(
        [[_rng.randint(-4, 4) if _rng.random() < 0.65 else 0 for _ in range(n)] for _ in range(n)]
    )
    for n in [_rng.randint(0, 5) for _ in range(40)]
]
LEIBNIZ = tuple(
    (
        m,
        leibniz_det(m),
        [
            leibniz_det(IntMatrix.from_rows(
                [[(x if i == j else 0) - m.rows[i][j] for j in range(m.n)] for i in range(m.n)]
            ))
            for x in range(m.n + 1)
        ],
    )
    for m in _SQUARES
)


def oracles_match_leibniz(mod):
    """det_by_cofactor_expansion and characteristic_polynomial of `mod`, a
    crosschecks module, give the Leibniz determinant of each matrix of
    LEIBNIZ and the Leibniz values of det(x I - A) at x = 0..n."""
    for m, det, values in LEIBNIZ:
        coeffs = mod.characteristic_polynomial(m)
        got = [sum(c * x**k for k, c in enumerate(coeffs)) for x in range(m.n + 1)]
        if mod.det_by_cofactor_expansion(m) != det or got != values:
            return False
    return True


def layout_is_bfs_order(mod):
    """_layout of `mod`, an addressing module, breaks distance ties by label."""
    return (
        mod._layout(cycle_graph(5))[1] == (1, 2, 5, 3, 4)
        and mod._layout(path_graph(3))[1] == (1, 2, 3)
    )


# seeded random graphs on up to 40 vertices, some disconnected, and the paths
# on both sides of the one-byte lane; each with the rows of the crosschecks
# oracle's per-source BFS, or None where that oracle finds it disconnected
_rng = random.Random(7)
DISTANCE_GRAPHS = tuple(
    (g, bfs_rows(g) if is_connected(g) else None)
    for g in [random_graph(_rng) for _ in range(60)] + [path_graph(256), path_graph(257)]
)


def distances_match_bfs(mod):
    """all_pairs_distances of `mod`, a graphs module, gives the oracle's BFS
    rows on each connected graph of DISTANCE_GRAPHS and refuses each
    disconnected one with the text every caller prints. Each check runs on
    fresh graph objects, since a graph keeps the D computed on it: a mutant
    would otherwise read the D another module stored."""
    for g, rows in DISTANCE_GRAPHS:
        g = LabeledGraph._of(g.n, g.edges)
        if rows is not None:
            if mod.all_pairs_distances(g).rows != rows:
                return False
            continue
        try:
            mod.all_pairs_distances(g)
        except mod.Disconnected as e:
            if str(e) != "vertex 1 cannot reach every vertex":
                return False
        else:
            return False
    return True


# edge-list texts with their plain (n, pairs) reading: reversed, unsorted and
# commented pairs, a bare header; and texts the parser alone refuses, each
# with its error class and text
EDGE_TEXTS = (
    ("3 4\n1 2\n2 3\n", (4, ((3, 4), (1, 2), (2, 3)))),
    ("n 6\n# a comment\n4 2\n1 5 # and another\n2 1\n", (6, ((4, 2), (1, 5), (2, 1)))),
    ("5 3\n", (5, ((5, 3),))),
    ("n 4\n", (4, ())),
)
EDGE_REFUSALS = (
    ("1 2\n2 1\n", "DuplicateEdge", "line 2: edge (1, 2) repeated"),
    ("n 3\n1 2\n2 3\n3 1\n1 3\n", "DuplicateEdge", "line 5: edge (1, 3) repeated"),
    ("n 2\n1 2\n1 3\n", "ParseError", "line 0: edge (1, 3) exceeds declared n = 2"),
    ("n 3\n2 2\n", "SelfLoop", "line 2: self loop at vertex 2"),
    ("0 1\n", "ParseError", "line 1: vertex labels start at 1"),
)


def edge_lists_match_the_constructor(mod):
    """parse_edge_list of `mod`, a graphs module, gives the fields of
    LabeledGraph(n, pairs) on each text of EDGE_TEXTS, and refuses each text
    of EDGE_REFUSALS with its own error and text."""
    for text, (n, pairs) in EDGE_TEXTS:
        g = mod.parse_edge_list(text)
        if (g.n, g.edges) != (n, LabeledGraph(n, pairs).edges):
            return False
    for text, error, message in EDGE_REFUSALS:
        try:
            mod.parse_edge_list(text)
        except InputError as e:
            if type(e).__name__ != error or str(e) != message:
                return False
            continue
        return False
    return True


def bad_text_is_refused(mod):
    """main of `mod`, a cli module, refuses a deeply nested JSON graph or
    scheme and bytes that are not UTF-8, from a file or from a stdin that
    reads undecodable bytes as lone surrogates, each with exit 2 and one
    error line that names the problem."""
    nested = "[" * 10**5 + "]" * 10**5
    graph = f'{{"n": {nested}, "edges": []}}'.encode()
    scheme = f'{{"d": {nested}, "addr": []}}'.encode()
    undecodable = b"1 2\n\xff\n"
    with tempfile.TemporaryDirectory() as tmp:
        k3, deep, bad = (Path(tmp) / name for name in ("k3.edges", "deep.json", "bad.edges"))
        k3.write_text("n 3\n1 2\n2 3\n1 3\n")
        deep.write_bytes(graph)
        bad.write_bytes(undecodable)
        calls = (
            (["graph", "distance", str(deep)], b"", "bad JSON graph: maximum recursion depth"),
            (["graph", "distance", "-"], graph, "bad JSON graph: maximum recursion depth"),
            (["address", "verify", str(k3), "--scheme", "-"], scheme, "bad JSON scheme: maximum"),
            (["graph", "distance", str(bad)], b"", f"cannot read {bad}: 'utf-8' codec"),
            (["graph", "distance", "-"], undecodable, "cannot read -: 'utf-8' codec"),
            (["address", "verify", str(k3), "--scheme", str(bad)], b"", f"cannot read {bad}:"),
        )
        for argv, stdin, error in calls:
            err = io.StringIO()
            fed = stdin_bytes(stdin, "surrogateescape")
            with mock.patch("sys.stdin", fed), redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = mod.main(argv)
            if code != 2 or err.getvalue().count("\n") != 1:
                return False
            if not err.getvalue().startswith(f"error: {error}"):
                return False
    return True


def attach_follows_the_edge(mod):
    """attach of `mod`, a graphs module, glues K_3 onto each edge of C_5 given
    in either order, CP vertex 1 on the edge's first end; it refuses a
    non-edge and a CP graph without the edge {1, 2}, each with its own error
    and text."""
    base, tri = cycle_graph(5), complete_graph(3)
    for u, v in base.edges:
        for a, b in ((u, v), (v, u)):
            res = mod.attach(base, (a, b), tri)
            want = tuple(sorted({*base.edges, (a, 6), (b, 6)}))
            if res.graph.edges != want or res.cp_map != {1: a, 2: b, 3: 6}:
                return False
    refusals = (
        ((1, 3), tri, mod.EdgeNotInBase, "(1, 3) is not an edge of the base graph"),
        ((1, 2), LabeledGraph(3, ((1, 3), (2, 3))), InputError,
         "attached graph must contain the edge {1, 2}"),
    )
    for edge, cp, error, text in refusals:
        try:
            mod.attach(base, edge, cp)
        except InputError as e:
            if type(e) is not error or str(e) != text:
                return False
            continue
        return False
    return True


# seeded random connected graphs on 2..8 vertices
_rng = random.Random(6)
BLOCK_GRAPHS = tuple(random_connected_graph(_rng, _rng.randint(2, 8)) for _ in range(30))


def blocks_match_the_cut_oracle(mod):
    """blocks of `mod`, a graphs module, puts each edge of every graph of
    BLOCK_GRAPHS in one block, and shares exactly the brute-force cut
    vertices between blocks."""
    return all(blocks_split_at_cut_vertices(g, mod.blocks(g)) for g in BLOCK_GRAPHS)


# K_4, C_5, Q_3, P_4, a star centred at vertex 3 (not the BFS root) and a CP member
DIFFERENCE_GRAPHS = (
    complete_graph(4),
    cycle_graph(5),
    hypercube(3),
    path_graph(4),
    LabeledGraph(5, ((1, 3), (2, 3), (3, 4), (3, 5))),
    build_cp_graph(random_member(random.Random(1), NonLeapingSequence((0, 1, 2, 3, 3, 2, 3)))),
)


def differences_match_the_raw_matrix(mod):
    """distance_invariants of `mod`, a formulas module, equals det, inertia
    and cofactor sum of D itself on DIFFERENCE_GRAPHS, and the M it
    eliminates has the difference shape."""
    # a fresh module has its own GraphInvariants class: compare the fields
    return all(
        astuple(mod.distance_invariants(g)) == astuple(raw_invariants(g))
        and has_difference_shape(eliminated_matrix(mod, g))
        for g in DIFFERENCE_GRAPHS
    )


# (graph, length, the least budget under which search_scheme answers, the
# scheme it finds or None), counts as the slow oracle scans them; lengths 2
# and 3 alternate, so each search of one length follows one of the other
SEARCHES = (
    (path_graph(4), 2, 90, None),
    (path_graph(4), 3, 22, ("000", "001", "011", "111")),
    (complete_graph(3), 2, 9, ("00", "01", "1*")),
    (complete_graph(4), 3, 27, ("000", "001", "01*", "1**")),
    (cycle_graph(5), 2, 90, None),
    (cycle_graph(5), 3, 1134, None),
)


def searches_match_the_oracle(mod):
    """search_scheme of `mod`, an addressing module, finds each scheme of
    SEARCHES, which its verify_scheme accepts, with exactly that budget."""
    for g, d, need, addresses in SEARCHES:
        found = mod.search_scheme(g, d, need)
        if (found and found.addresses) != addresses or (found and not mod.verify_scheme(g, found)):
            return False
        try:
            mod.search_scheme(g, d, need - 1)
        except mod.BudgetExceeded:
            continue
        return False
    return True


# seeded members of orders 3 to 12, each with its D and with D plus seeded
# integers strictly above the diagonal
_rng = random.Random(32)
REDUCED_MEMBERS = [
    (ns, (d, with_upper_noise(d, _rng)))
    for ns in seeded_members(random.Random(31), (3, 5, 8, 12))
    for d in [all_pairs_distances(build_cp_graph(ns))]
]


def reductions_match_brute(mod):
    """congruence_reduce of `mod`, a reduction module, given its own
    reducing_matrix, equals the brute sum on REDUCED_MEMBERS' matrices, both
    symmetric and not, and takes no ``@`` product there."""
    for ns, ds in REDUCED_MEMBERS:
        e = mod.reducing_matrix(ns)
        with mock.patch.object(IntMatrix, "__matmul__", side_effect=AssertionError("@ called")):
            got = [mod.congruence_reduce(d, e).rows for d in ds]
        if got != [tuple(map(tuple, brute_congruence(d, e))) for d in ds]:
            return False
    return True


def reducing_matrices_match_columns(mod):
    """reducing_matrix of `mod`, a reduction module, gives the rows of E's
    column definition for every member with n <= 7, built by the
    _reducing_rows of `mod` also where IntMatrix builds them on first read."""
    with mock.patch.object(reduction, "_reducing_rows", mod._reducing_rows):
        return all(
            mod.reducing_matrix(ns).rows == e_by_columns(ns)
            for n in range(2, 8)
            for s in iter_nonleaping_sequences(n)
            for ns in enumerate_neighborhood_sequences(s)
        )


MUTANTS = {
    # sequences._next_row, the row step of the walk's store: vertex k
    # (0-based) joins W = {anchor} + [lo, k - 1]
    "walk: anchor dropped from W_k": (
        sequences,
        "zip(rows[anchor], *rows[lo:])",
        "zip(*(rows[lo:] or [rows[anchor]]))",  # W_2 = {a_2} keeps it
        walk_rows_pass,
    ),
    # sequences._reduced_column, the column step of E^T D E that suites._grow
    # and the walk's store both take
    "walk: a_(k-1) dropped from E's column in D E": (
        sequences,
        "w - x - y + z",
        "w - x - y",
        walk_rows_pass,
    ),
    # sequences._Prefix.walk, the one walk over the anchor choices
    "walk: a_(k-1) offered only where it is the sole anchor": (
        sequences,
        "                stack.append((child, first, k + 1))\n",
        "                if not run:\n                    stack.append((child, first, k + 1))\n",
        walk_rows_pass,
    ),
    "walk: members of prefixes that are not listed yielded": (
        sequences,
        "kids.setdefault(s, [f, {}, False])",
        "kids.setdefault(s, [f, {}, True])",
        shared_walk_lists_pass,
    ),
    "walk: only the smallest next size kept": (
        sequences,
        "for child in reversed(kids.values()):",
        "for child in list(kids.values())[:1]:",
        shared_walk_lists_pass,
    ),
    # suites._grow: the bordered pivots and the h targets
    "walk: pivot update divides by p, not prev": (
        suites,
        "(y * p - u * f) // prev",
        "(y * p - u * f) // p",
        member_suites_pass,
    ),
    "walk: row 0's border entry left at 1": (
        suites,
        "pivots = [[2, 2] + [0] * n]",
        "pivots = [[1, 2] + [0] * n]",
        member_suites_pass,
    ),
    "walk: no kernel fallback below a zero pivot": (
        suites,
        "elif not ok[k - 1]:",
        "elif False:",
        member_suites_pass,
    ),
    "walk: h read from the node's own prefix, not its listed family": (
        suites,
        "m = h(fam)",
        "m = h(NonLeapingSequence(fam.q[: k + 1]))",
        listed_walks_pass,
    ),
    # suites._pruefer_growth and suites._rooted_class, under the trees suite
    "trees decode: a freed code vertex above the pointer taken at once": (
        suites,
        "if deg[v] == 1 and v < ptr:",
        "if deg[v] == 1:",
        trees_decode_and_classes,
    ),
    "trees decode: the pointer's scan starts after the removed leaf, not the pointer": (
        suites,
        "deg.index(1, ptr + 1)",
        "deg.index(1, leaf + 1)",
        trees_decode_and_classes,
    ),
    "trees decode: the other survivor placed at the root's position": (
        suites,
        "order[1], pos[leaf] = leaf, 1",
        "order[1], pos[leaf] = leaf, 0",
        trees_decode_and_classes,
    ),
    "trees classes: children's keys left unsorted": (
        suites,
        "append(tuple(sorted(kids[j])))",
        "append(tuple(kids[j]))",
        trees_decode_and_classes,
    ),
    "trees: each shape's verdict stored as a pass": (
        suites,
        "(got, got == want)",
        "(got, True)",
        trees_judge_every_code,
    ),
    # sequences.enumerate_neighborhood_sequences, and the walk's shared rows
    "enumeration: every fourth member dropped": (
        sequences,
        "            yield ns\n",
        "            if prefix.serial % 4:\n                yield ns\n",
        enumeration_matches_the_oracle,
    ),
    "enumeration: valid rows not lowered on advance": (
        sequences,
        "                self.valid = k\n",
        "                pass\n",
        enumerated_members_read_d,
    ),
    "enumeration: the changed vertex taken one past the anchor's": (
        sequences,
        "                self.valid = k\n",
        "                self.valid = k + 1\n",
        enumerated_members_read_d,
    ),
    "enumeration: serial not advanced": (
        sequences,
        "            self.serial += 1\n",
        "",
        enumerated_members_read_d,
    ),
    "enumeration: a stale member read off the shared rows": (
        sequences,
        "        if serial != self.serial:\n            return None\n",
        "",
        enumerated_members_read_d,
    ),
    "enumeration: reduced rows not lowered on advance": (
        sequences,
        "                self.reduced_valid = k\n",
        "                pass\n",
        shared_reduction_sees_each_member,
    ),
    "enumeration: reduced rows read for a stale serial": (
        sequences,
        "d = self.rows_at(serial)",
        "d = self.rows_at(self.serial)",  # the current member's rows, for any serial
        shared_reduction_sees_each_member,
    ),
    "enumeration: a current member's reduced rows refused": (
        sequences,
        "        if d is None:\n            return None\n",
        "        if d is not None:\n            return None\n",  # the same answers, by the anchors
        current_members_reduce_off_the_store,
    ),
    "enumeration: reduced rows never grown": (
        sequences,
        "if self.reduced_valid < len(d):",
        "if False:",
        shared_reduction_sees_each_member,
    ),
    "enumeration: the reduced rows' vertex 0 started at 1": (
        sequences,
        "self.reduced = [[0]]",
        "self.reduced = [[1]]",
        shared_reduction_sees_each_member,
    ),
    "enumeration: reduced rows lowered only where they already are": (
        sequences,
        "if k < self.reduced_valid:",
        "if k >= self.reduced_valid:",
        shared_reduction_sees_each_member,
    ),
    "congruence: shared rows read whenever E has a record": (
        reduction,
        'if d.__dict__.get("_member") is member and not d.rows[0][0]:',
        'if "_prefix" in member.__dict__:',
        shared_reduction_sees_each_member,
    ),
    "lazy E rows: built from the walk's current member": (
        matrices,
        '_reducing_rows(memo["_member"].anchors)',
        '_reducing_rows(tuple(memo["_member"]._prefix[0].anchors[2:]))',
        lazy_members_read_like_eager,
    ),
    "lazy E rows: the test negated, so they are never built": (
        matrices,
        'if name != "rows" or "_member" not in memo:',
        'if not (name != "rows" or "_member" not in memo):',
        lazy_members_read_like_eager,
    ),
    "lazy E rows: refused when rows are asked for": (
        matrices,
        'if name != "rows" or "_member" not in memo:',
        'if name == "rows" or "_member" not in memo:',
        lazy_members_read_like_eager,
    ),
    "lazy E rows: refused where E keeps a member": (
        matrices,
        'if name != "rows" or "_member" not in memo:',
        'if name != "rows" or "_member" in memo:',
        lazy_members_read_like_eager,
    ),
    "reducing matrix: enumerated members' E built eagerly, any other's lazily": (
        reduction,
        'if "_prefix" in ns.__dict__:',
        'if "_prefix" not in ns.__dict__:',
        lazy_members_read_like_eager,
    ),
    "lazy edges: built from the walk's current member": (
        graphs,
        '_cp_edges(memo["_member"])',
        '_cp_edges(NeighborhoodSequence._of('
        'memo["_member"].base, tuple(memo["_member"]._prefix[0].anchors[2:])))',
        lazy_members_read_like_eager,
    ),
    # graphs: a member's D copied off the shared rows
    "distances: the shared rows handed out, not copied": (
        graphs,
        "IntMatrix._of(tuple(map(tuple, rows)))",
        "IntMatrix._of(tuple(rows))",
        enumerated_members_read_d,
    ),
    "search layout: ties broken by descending label": (
        addressing,
        "key=lambda v: (rows[0][v - 1], v)",
        "key=lambda v: (rows[0][v - 1], -v)",
        layout_is_bfs_order,
    ),
    "search: a vertex without candidates left uncounted": (
        addressing,
        "nodes += n_words  # checked",
        "nodes += 0  # checked",
        searches_match_the_oracle,
    ),
    "search: last vertex's word counted one short": (
        addressing,
        "nodes += i + 1",
        "nodes += i",
        searches_match_the_oracle,
    ),
    "search: distances above d padded with every word": (
        addressing,
        "self.pad = [0] * max(",
        "self.pad = [self.full] * max(",
        searches_match_the_oracle,
    ),
    "search: tied column pairs not narrowed to the new word's ties": (
        addressing,
        "            tied &= ties\n",
        "",
        searches_match_the_oracle,
    ),
    "search: a rejected word's masks left on the stack": (
        addressing,
        "            stack.pop()\n",
        "",
        searches_match_the_oracle,
    ),
    "search: verify_scheme counts * against a digit": (
        addressing,
        'x + y in ("01", "10")',
        "x != y",
        searches_match_the_oracle,
    ),
    "search: tables kept without their length": (
        addressing,
        "words = _kept[d] if d in _kept else",
        "words = next(iter(_kept.values())) if _kept else",
        searches_match_the_oracle,
    ),
    "search: the first vertex's words with a 1 scanned": (
        addressing,
        "in_order[ties] & words.no_one",
        "in_order[ties]",
        searches_match_the_oracle,
    ),
    "search: the tied-pair table left at every word": (
        addressing,
        "in_order += [mask & pair_in_order for mask in in_order]",
        "in_order += in_order",  # no column order kept
        searches_match_the_oracle,
    ),
    "search: every vertex's words with a 1 skipped": (
        addressing,
        "in_order = [self.full]",
        "in_order = [self.no_one]",  # loses P4's 000, 001, 011, 111
        searches_match_the_oracle,
    ),
    # graphs.all_pairs_distances: one BFS from every vertex at once, in lanes
    "distances: lanes pinned at one byte": (
        graphs,
        "width, code = next(lane for lane in _LANES if n <= 1 << lane[0])",
        "width, code = _LANES[0]",  # P_257's distance 256 carries out of its lane
        distances_match_bfs,
    ),
    "distances: a lane one bit too narrow": (
        graphs,
        "if n <= 1 << lane[0])",
        "if n <= 2 << lane[0])",  # byte lanes up to n = 512
        distances_match_bfs,
    ),
    "distances: level 1 not seeded by the edge pass": (
        graphs,
        "        reach[u] |= bit[v]\n        reach[v] |= bit[u]\n",
        "",
        distances_match_bfs,
    ),
    "distances: acc started at level 1, not level 0": (
        graphs,
        "acc = [full ^ b for b in bit]",
        "acc = [full ^ r for r in reach]",
        distances_match_bfs,
    ),
    "distances: rows decoded big-endian": (
        graphs,
        'a.to_bytes(n * width // 8, "little")',
        'a.to_bytes(n * width // 8, "big")',
        distances_match_bfs,
    ),
    "distances: D stored where every graph reads it": (
        graphs,
        "memo = g.__dict__",
        "memo = globals()",  # each graph after the first gets the first's D
        distances_match_bfs,
    ),
    # graphs.attach and graphs.blocks: each builds what it needs from g.edges
    "attach: the base edge looked up as given, not as (min, max)": (
        graphs,
        "if (min(edge), max(edge)) not in base.edges:",
        "if tuple(edge) not in base.edges:",  # refuses (3, 2) on C_5
        attach_follows_the_edge,
    ),
    "blocks: each edge listed under its lower end only": (
        graphs,
        "        adj[v].append(u)\n    disc",
        "    disc",
        blocks_match_the_cut_oracle,
    ),
    # graphs.parse_edge_list: the only check on an edge file, so it builds unchecked
    "edge list: parsed edges wrapped unsorted": (
        graphs,
        "LabeledGraph._of(n, tuple(sorted(pairs)))",
        "LabeledGraph._of(n, tuple(pairs))",
        edge_lists_match_the_constructor,
    ),
    "edge list: a repeated edge let through": (
        graphs,
        "if key in seen:",
        "if False:",
        edge_lists_match_the_constructor,
    ),
    "edge list: an edge one past the declared n let through": (
        graphs,
        "if v > n:",
        "if v > n + 1:",
        edge_lists_match_the_constructor,
    ),
    "edge list: a reversed pair kept as given": (
        graphs,
        "key = (min(u, v), max(u, v))",
        "key = (u, v)",
        edge_lists_match_the_constructor,
    ),
    # sequences._anchor_choices and the one O(n) pass of NeighborhoodSequence
    "anchors: the run's end b_k taken inclusive": (
        sequences,
        "range(b[k - 2], b[k - 1])",
        "range(b[k - 2], b[k - 1] + 1)",
        anchor_rule_matches_the_per_step_sets,
    ),
    "anchors: the run started one past b_(k-1)": (
        sequences,
        "range(b[k - 2], b[k - 1])",
        "range(b[k - 2] + 1, b[k - 1])",
        anchor_rule_matches_the_per_step_sets,
    ),
    "anchors: the first choice pinned at a_2 = 1, not a_(k-1)": (
        sequences,
        "return prev, range(",
        "return 1, range(",
        anchor_rule_matches_the_per_step_sets,
    ),
    "anchors: each anchor checked against itself, not a_(k-1)": (
        sequences,
        "anchors, (1, *anchors))",
        "anchors, anchors)",
        anchor_rule_matches_the_per_step_sets,
    ),
    "random members: the run drawn before a_(k-1)": (
        suites,
        "rng.choice((first, *run))",
        "rng.choice((*run, first))",
        random_members_draw_as_before,
    ),
    # crosschecks: the determinant and characteristic-polynomial oracles
    "expansion: the sign flipped only at nonzero entries": (
        crosschecks,
        "                total += -term if negate else term\n            negate = not negate\n",
        "                total += -term if negate else term\n                negate = not negate\n",
        oracles_match_leibniz,
    ),
    "expansion: the row read one above the minor's first": (
        crosschecks,
        "rows[n - cols.bit_count()]",
        "rows[n - cols.bit_count() - 1]",
        oracles_match_leibniz,
    ),
    "charpoly: product entries summed from x + y, not x * y": (
        crosschecks,
        "[[sum(map(mul, row, col))",
        "[[sum(map(int.__add__, row, col))",  # killed by the exact division's own check
        oracles_match_leibniz,
    ),
    # cli._read_text and cli._json: graph and scheme text enter through them
    "read: RecursionError not caught": (
        cli,
        "except (ValueError, RecursionError) as e:",
        "except ValueError as e:",
        bad_text_is_refused,
    ),
    "read: a file that is not UTF-8 not caught": (
        cli,
        "except (OSError, UnicodeError) as e:",
        "except OSError as e:",
        bad_text_is_refused,
    ),
    "read: stdin's lone surrogates passed on": (
        cli,
        "        text.encode()\n",
        "",  # parse_edge_list then refuses the line, not the bytes
        bad_text_is_refused,
    ),
    # formulas._distance_matrix_invariants: M = U^T D U over a BFS tree rooted at vertex n
    "differences: a parent at the same level as its child": (
        formulas,
        "x == 1 and level[w] < level[v]",
        "x == 1 and level[w] <= level[v]",  # K_4 pairs 1 and 2: U is singular
        differences_match_the_raw_matrix,
    ),
    "differences: a parent that is not a neighbour": (
        formulas,
        "x == 1 and level[w] < level[v]",
        "x >= 1 and level[w] < level[v]",  # still unimodular: only M's shape changes
        differences_match_the_raw_matrix,
    ),
    "differences: the cofactor at vertex 1, not at the root": (
        formulas,
        "block = [r[:-1] + (0,) for r in m[:-1]]",
        "block = [r[1:] + (0,) for r in m[1:]]",  # u = e_1, not U^T 1 = e_n
        differences_match_the_raw_matrix,
    ),
    "differences: the cofactor's sign lost": (
        formulas,
        "(0,) * len(block) + (-1,)",
        "(0,) * len(block) + (1,)",  # -det([[B, 0], [0, 1]]) = -det B
        differences_match_the_raw_matrix,
    ),
    "differences: the column step skipped": (
        formulas,
        "return tuple(differences(list(zip(*differences(rows)))))",
        "return tuple(differences(rows))",
        differences_match_the_raw_matrix,
    ),
    "differences: the root placed first": (
        formulas,
        "level = rows[-1]",
        "level = rows[0]",  # a tree rooted at vertex 1, its cofactor still read at n
        differences_match_the_raw_matrix,
    ),
    "differences: D itself eliminated": (
        formulas,
        "m = _difference_congruence(rows, parents)",
        "m = rows",  # U = I: the same det and inertia, but D's (n, n) cofactor
        differences_match_the_raw_matrix,
    ),
    # reduction: E^T D E read off the anchors a reducing matrix records
    "congruence: a_(k-1) never advanced past a_2": (
        reduction,
        "            prev = a\n    return out",
        "    return out",  # prev is advanced in the four-term branch alone
        reductions_match_brute,
    ),
    "congruence: the a_(k-1) term subtracted": (
        reduction,
        "map(add, map(sub, map(sub, row, rows[a - 1]), before), rows[prev - 1])",
        "map(sub, map(sub, map(sub, row, rows[a - 1]), before), rows[prev - 1])",
        reductions_match_brute,
    ),
    "congruence: a_(k-1) advanced before its row is read": (
        reduction,
        "        else:\n            out.append(",
        "        else:\n            prev = a\n            out.append(",  # A[k] - A[k-1] again
        reductions_match_brute,
    ),
    "congruence: the shortcut taken whenever a_k >= a_(k-1)": (
        reduction,
        "if a == prev:",
        "if a >= prev:",
        reductions_match_brute,
    ),
    "congruence: the two-term row written as A[k] - A[a_k]": (
        reduction,
        "tuple(map(sub, row, before))",
        "tuple(map(sub, row, rows[a - 1]))",
        reductions_match_brute,
    ),
    "reducing matrix: the a_(k-1) term dropped": (
        reduction,
        "            rows[prev - 1][k] += 1\n",
        "",
        reducing_matrices_match_columns,
    ),
    "reducing matrix: the a_k term in the transposed position": (
        reduction,
        "rows[a - 1][k] -= 1",
        "rows[k][a - 1] -= 1",
        reducing_matrices_match_columns,
    ),
    "reducing matrix: the -e_(k-1) term in the transposed position": (
        reduction,
        "rows[i][i + 1] = -1",
        "rows[i + 1][i] = -1",
        reducing_matrices_match_columns,
    ),
    "reducing matrix: a_(k-1) never advanced past a_2": (
        reduction,
        "            prev = a\n    return tuple(map(tuple, rows))",
        "    return tuple(map(tuple, rows))",
        reducing_matrices_match_columns,
    ),
    "reducing matrix: the last diagonal 1 left out": (
        reduction,
        "rows[0][0] = rows[-1][-1] = 1",
        "rows[0][0] = 1",
        reducing_matrices_match_columns,
    ),
    "congruence: the second step run on E^T D, not its transpose": (
        reduction,
        "_anchor_differences(list(zip(*x)), anchors)",
        "_anchor_differences(x, anchors)",
        reductions_match_brute,
    ),
    "congruence: the last transpose dropped": (
        reduction,
        "tuple(zip(*_anchor_differences(list(zip(*x)), anchors)))",
        "tuple(_anchor_differences(list(zip(*x)), anchors))",  # E^T D^T E: the same for a symmetric D
        reductions_match_brute,
    ),
    "congruence: the anchors recorded reversed": (
        reduction,
        'e.__dict__["_member"] = ns',
        'e.__dict__["_member"] = NeighborhoodSequence._of(ns.base, ns.anchors[::-1])',
        reductions_match_brute,
    ),
    "congruence: no anchors recorded": (
        reduction,
        'e.__dict__["_member"] = ns',
        "pass",  # the same answers, by two @ products
        reductions_match_brute,
    ),
    "congruence: the D test negated, so E with a member takes the @ route": (
        reduction,
        'if member is not None and "rows" in memo and not e.rows[0][0]:',
        'if not (member is not None and "rows" in memo and not e.rows[0][0]):',
        reductions_match_brute,
    ),
    "congruence: the D test applied only to an E without a member": (
        reduction,
        'if member is not None and "rows" in memo and not e.rows[0][0]:',
        'if member is None and "rows" in memo and not e.rows[0][0]:',
        d_and_e_told_apart,
    ),
    "congruence: the D test applied only to an E without rows": (
        reduction,
        'if member is not None and "rows" in memo and not e.rows[0][0]:',
        'if member is not None and "rows" not in memo and not e.rows[0][0]:',
        d_and_e_told_apart,
    ),
    "congruence: E told from D by its (2, 1) entry": (
        reduction,
        "not e.rows[0][0]",
        "not e.rows[1][0]",  # 0 in E, 1 in D: every E a D, by two @ products
        reductions_match_brute,
    ),
    "congruence: E told from D by its (1, 2) entry": (
        reduction,
        "not e.rows[0][0]",
        "not e.rows[0][1]",  # 0 in E, 1 in D: every E a D, by two @ products
        reductions_match_brute,
    ),
    "congruence: the general route's inner product not transposed": (
        reduction,
        "(et @ (et @ d).t).t",
        "(et @ (et @ d)).t",  # D E E, not E^T D E
        fixtures_pass,
    ),
}

# Mutants that cannot change any answer, with the reason; each must still
# pass its check, or the reason no longer holds.
EQUIVALENT = {
    "walk: a_(i-1) dropped from E^T's row in E^T D E": (
        sequences,
        "u[i + 1] - u[a[i]] - u[i] + u[a[i - 1]]",
        "u[i + 1] - u[a[i]] - u[i]",
        # the term it drops is always 0: (D E)[a_(i-1)][k] = 0 for every
        # 2 <= i <= k (checked on all 251 771 such pairs of the members with
        # n <= 9), so column k of E^T D E comes out the same
        walk_rows_pass,
    ),
    "walk: a_(i-1)'s term of E^T's row added, not subtracted": (
        sequences,
        "u[i + 1] - u[a[i]] - u[i] + u[a[i - 1]]",
        "u[i + 1] - u[a[i]] - u[i] - u[a[i - 1]]",
        # that term is 0 (see the entry above), so its sign is no matter
        walk_rows_pass,
    ),
    "walk: a_(i-2) read for a_(i-1) in E^T's row": (
        sequences,
        "u[a[i - 1]] for i",
        "u[a[i - 2]] for i",
        # a_(i-2) is an earlier vertex's anchor too, and u[0] = 0 at i = 2,
        # so the term read is still 0 (see the entry above)
        walk_rows_pass,
    ),
    "walk: E^T's row padded with 1, not 0": (
        sequences,
        "u = [0, *v]",
        "u = [1, *v]",
        # u[0] is never read: anchors are vertex labels, 1 and up
        walk_rows_pass,
    ),
    "walk: vertex 0's anchor slot started at 1": (
        sequences,
        "self.anchors = [0]",
        "self.anchors = [1]",
        # vertex 0 has no window: anchors[0] is never read
        walk_rows_pass,
    ),
    "walk: a table cut when it is already at its length": (
        sequences,
        "if len(rows) > v:",
        "if len(rows) >= v:",
        # deleting from index v of lists v long deletes nothing
        enumerated_members_read_d,
    ),
    "walk: valid rows started at 2": (
        sequences,
        "self.valid = 1\n",
        "self.valid = 2\n",
        # the first node, vertex 1, lowers it to 1 before any row is read
        enumerated_members_read_d,
    ),
    "walk: valid reduced rows started at 2": (
        sequences,
        "self.reduced_valid = 1\n",
        "self.reduced_valid = 2\n",
        # the first node, vertex 1, lowers it to 1 before any row is read
        shared_reduction_sees_each_member,
    ),
    "walk: serial started at 1": (
        sequences,
        "self.serial = 0\n",
        "self.serial = 1\n",
        # a serial is only compared with the current one for equality
        enumerated_members_read_d,
    ),
    "walk: serial counted down": (
        sequences,
        "self.serial += 1",
        "self.serial -= 1",
        # each node still gets a serial no other node has
        enumerated_members_read_d,
    ),
    "walk: serial counted by 2": (
        sequences,
        "self.serial += 1",
        "self.serial += 2",
        # each node still gets a serial no other node has
        enumerated_members_read_d,
    ),
    "walk: valid rows lowered also where they already end at k": (
        sequences,
        "if k < self.valid:",
        "if k <= self.valid:",
        # setting valid = k where it is k changes nothing
        enumerated_members_read_d,
    ),
    "walk: valid reduced rows lowered also where they already end at k": (
        sequences,
        "if k < self.reduced_valid:",
        "if k <= self.reduced_valid:",
        # setting reduced_valid = k where it is k changes nothing
        shared_reduction_sees_each_member,
    ),
    "walk: rows grown also when all are valid": (
        sequences,
        "if self.valid < len(anchors):",
        "if self.valid <= len(anchors):",
        # valid never exceeds the node's order, and where it equals it the
        # cut and the growth do nothing
        enumerated_members_read_d,
    ),
    "walk: reduced rows grown also when all are valid": (
        sequences,
        "if self.reduced_valid < len(d):",
        "if self.reduced_valid <= len(d):",
        # likewise for the rows of E^T D E
        shared_reduction_sees_each_member,
    ),
    "distances: complete rows still stepped": (
        graphs,
        "if r != full:",
        "if True:",
        # full ^ full adds 0 to acc, and ORing into a full reach set adds nothing
        distances_match_bfs,
    ),
    "distances: lanes widened already at n = 2^width": (
        graphs,
        "if n <= 1 << lane[0])",
        "if n < 1 << lane[0])",
        # at n = 2^width every distance is at most n - 1 = 2^width - 1, which
        # fits the narrower lane; the wider one holds the same rows
        distances_match_bfs,
    ),
    "congruence: the shortcut taken on a_k <= a_(k-1)": (
        reduction,
        "if a == prev:",
        "if a <= prev:",
        # anchors never fall: a moved a_k lies in [b_(k-1), b_k - 1], above
        # a_(k-1) < b_(k-1), and NeighborhoodSequence refuses any other
        reductions_match_brute,
    ),
}


@pytest.mark.parametrize("check, module", [
    (member_suites_pass, suites),
    (listed_walks_pass, suites),
    (trees_decode_and_classes, suites),
    (trees_judge_every_code, suites),
    (oracles_match_leibniz, crosschecks),
    (walk_rows_pass, sequences),
    (shared_walk_lists_pass, sequences),
    (enumeration_matches_the_oracle, sequences),
    (enumerated_members_read_d, sequences),
    (enumerated_members_read_d, graphs),
    (anchor_rule_matches_the_per_step_sets, sequences),
    (random_members_draw_as_before, suites),
    (layout_is_bfs_order, addressing),
    (searches_match_the_oracle, addressing),
    (differences_match_the_raw_matrix, formulas),
    (distances_match_bfs, graphs),
    (attach_follows_the_edge, graphs),
    (blocks_match_the_cut_oracle, graphs),
    (edge_lists_match_the_constructor, graphs),
    (bad_text_is_refused, cli),
    (reductions_match_brute, reduction),
    (reducing_matrices_match_columns, reduction),
    (shared_reduction_sees_each_member, sequences),
    (current_members_reduce_off_the_store, sequences),
    (shared_reduction_sees_each_member, reduction),
    (lazy_members_read_like_eager, graphs),
    (lazy_members_read_like_eager, matrices),
    (lazy_members_read_like_eager, reduction),
    (fixtures_pass, reduction),
    (d_and_e_told_apart, reduction),
])
def test_checks_pass_on_the_package(check, module):
    # on the module and on an unchanged copy loaded as mutate() loads one: a
    # check that fails on any copy would kill every mutant of its module
    assert check(module) and check(load(module, inspect.getsource(module)))


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name):
    module, old, new, check = MUTANTS[name]
    mod = mutate(module, old, new)
    try:
        survived = check(mod)
    except Exception:
        survived = False
    assert not survived, f"mutant survived: {name}"


@pytest.mark.parametrize("name", EQUIVALENT)
def test_equivalent_mutant_passes(name):
    module, old, new, check = EQUIVALENT[name]
    assert check(mutate(module, old, new))
