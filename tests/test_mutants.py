"""Planted faults that the tests must catch.

Each entry names a module of the package, a snippet of its source, the
snippet's replacement and a check. The snippet must occur exactly once, so an
entry whose code has been rewritten fails loudly instead of testing nothing.
The mutated source is executed into a fresh module object, and the check must
fail there; an exception raised by the check counts as a kill. A change that
rewrites a targeted function re-points its entries.
"""

import inspect
import types

import pytest

from cpgraphs import addressing, sequences, suites
from cpgraphs.graphs import cycle_graph, path_graph
from cpgraphs.sequences import NonLeapingSequence


def mutate(module, old, new):
    source = inspect.getsource(module)
    assert source.count(old) == 1, f"{module.__name__}: snippet occurs {source.count(old)} times"
    # the real name, so dataclasses resolve annotations in the package's own module
    mod = types.ModuleType(module.__name__)
    mod.__package__ = "cpgraphs"
    exec(compile(source.replace(old, new), module.__file__, "exec"), mod.__dict__)
    return mod


def member_suites_pass(mod):
    """The suites that walk every member, run from `mod`, a suites module."""
    return all(mod.run_suite(name, scale=8).ok for name in ("constancy", "congruence"))


def enumeration_matches_the_walk(mod):
    """The enumerator of `mod`, a sequences module, lists each family with
    n <= 8 as the suites' walk grows it: the same members in the same order."""
    walked = {}
    for q, a, _, _ in suites._grow(8):
        walked.setdefault(q, []).append(a)
    return len(walked) == 197 and all(
        [ns.anchors for ns in mod.enumerate_neighborhood_sequences(NonLeapingSequence(q))] == a
        for q, a in walked.items()
    )


def layout_is_bfs_order(mod):
    """_layout of `mod`, an addressing module, breaks distance ties by label."""
    return (
        mod._layout(cycle_graph(5))[1] == (1, 2, 5, 3, 4)
        and mod._layout(path_graph(3))[1] == (1, 2, 3)
    )


MUTANTS = {
    # suites._grow: vertex k (0-based) joins W = {ak} + [k + 1 - qk, k - 1]
    "walk: anchor dropped from W_k": (
        suites,
        "zip(d[ak], *d[k + 1 - qk : k])",
        "zip(*(d[k + 1 - qk : k] or [d[ak]]))",  # W_2 = {a_2} keeps it
        member_suites_pass,
    ),
    "walk: a_(k-1) offered only where it is the sole anchor": (
        suites,
        "for a in (ak, *range(k + 1 - qk, k + 2 - s))",
        "for a in (range(k + 1 - qk, k + 2 - s) or (ak,))",
        member_suites_pass,
    ),
    "walk: pivot update divides by p, not prev": (
        suites,
        "(y * p - u * f) // prev",
        "(y * p - u * f) // p",
        member_suites_pass,
    ),
    "walk: row 0's border entry left at 1": (
        suites,
        "pivots, corners, minus = [[2, 2]], [-4], [0]",
        "pivots, corners, minus = [[1, 2]], [-4], [0]",
        member_suites_pass,
    ),
    "walk: a_(k-1) dropped from E's column in D E": (
        suites,
        "w - x - y + z",
        "w - x - y",
        member_suites_pass,
    ),
    "walk: no kernel fallback below a zero pivot": (
        suites,
        "elif len(pivots) <= k:",
        "elif False:",
        member_suites_pass,
    ),
    "enumeration: every fourth member dropped": (
        sequences,
        "    while True:\n        yield NeighborhoodSequence._of(base, tuple(anchors))\n",
        "    count = 0\n    while True:\n        count += 1\n        if count % 4:\n"
        "            yield NeighborhoodSequence._of(base, tuple(anchors))\n",
        enumeration_matches_the_walk,
    ),
    "search layout: ties broken by descending label": (
        addressing,
        "key=lambda v: (rows[0][v - 1], v)",
        "key=lambda v: (rows[0][v - 1], -v)",
        layout_is_bfs_order,
    ),
}

# Mutants that cannot change any answer, with the reason; each must still
# pass its check, or the reason no longer holds.
EQUIVALENT = {
    "walk: a_(i-1) dropped from E^T's row in E^T D E": (
        suites,
        "v[i] - v[anc[i]] - v[i - 1] + v[anc[i - 1]]",
        "v[i] - v[anc[i]] - v[i - 1]",
        # the term it drops is always 0: (D E)[a_(i-1)][k] = 0 for every
        # 2 <= i <= k (checked on all 251 771 such pairs of the members with
        # n <= 9), so column k of E^T D E comes out the same
        member_suites_pass,
    ),
}


@pytest.mark.parametrize("check, module", [
    (member_suites_pass, suites),
    (enumeration_matches_the_walk, sequences),
    (layout_is_bfs_order, addressing),
])
def test_checks_pass_on_the_package(check, module):
    assert check(module)


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
