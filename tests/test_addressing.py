import inspect
import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graphs import neighbors
from test_mutants import load

from cpgraphs import addressing
from cpgraphs.addressing import (
    ALPHABET,
    AddressScheme,
    BudgetExceeded,
    LengthMismatch,
    MAX_LENGTH,
    MAX_VERTICES,
    SizeMismatch,
    TooLarge,
    _layout,
    address_distance,
    exact_n,
    scheme_from_json_obj,
    scheme_to_json_obj,
    search_scheme,
    verify_scheme,
)
from cpgraphs.crosschecks import brute_search_scheme, is_connected
from cpgraphs.errors import InputError
from cpgraphs.graphs import (
    LabeledGraph,
    all_pairs_distances,
    build_cp_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from cpgraphs.sequences import (
    CliquePathSpec,
    NeighborhoodSequence,
    NonLeapingSequence,
    expand_clique_path_spec,
)


def brute_scheme_exists(g, d):
    """Unpruned oracle: try every assignment of {0,1,*}^d words."""
    dist = all_pairs_distances(g)
    words = ["".join(w) for w in product(ALPHABET, repeat=d)]
    for pick in product(words, repeat=g.n):
        ok = True
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if address_distance(pick[i], pick[j]) != dist.rows[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def linear_2tree_5():
    return build_cp_graph(
        NeighborhoodSequence(
            expand_clique_path_spec(CliquePathSpec((3, 3, 3))), (1, 1, 1)
        )
    )


def test_address_distance():
    assert address_distance("0", "1") == 1
    assert address_distance("0", "0") == 0
    assert address_distance("*", "1") == 0
    assert address_distance("10*", "0*1") == 1
    assert address_distance("010", "101") == 3
    with pytest.raises(LengthMismatch):
        address_distance("01", "0")


def test_scheme_validation():
    AddressScheme(2, ("00", "01", "11"))
    with pytest.raises(InputError):
        AddressScheme(2, ("00", "0x"))
    with pytest.raises(InputError):
        AddressScheme(2, ("00", "011"))
    with pytest.raises(InputError):
        AddressScheme(0, ("", ""))


def test_verify_scheme():
    g = path_graph(3)
    good = AddressScheme(2, ("00", "01", "11"))
    assert verify_scheme(g, good)
    bad = AddressScheme(2, ("00", "11", "01"))  # swapped rows break distances
    assert not verify_scheme(g, bad)
    with pytest.raises(SizeMismatch):
        verify_scheme(path_graph(2), good)


def test_search_agrees_with_unpruned_bruteforce():
    # the column-sorting symmetry break must never lose solvable instances
    cases = [
        (path_graph(2), 1),
        (path_graph(3), 1),
        (path_graph(3), 2),
        (complete_graph(3), 1),
        (complete_graph(3), 2),
        (cycle_graph(4), 2),
        (complete_graph(4), 2),
        (path_graph(4), 2),
    ]
    for g, d in cases:
        found = search_scheme(g, d)
        assert (found is not None) == brute_scheme_exists(g, d), (g.edges, d)
        if found is not None:
            assert verify_scheme(g, found)


def test_k3_needs_two_symbols():
    assert not brute_scheme_exists(complete_graph(3), 1)
    assert search_scheme(complete_graph(3), 1) is None
    s = search_scheme(complete_graph(3), 2)
    assert s is not None and verify_scheme(complete_graph(3), s)


def test_exact_n_small_graphs():
    # (graph, inertia lower bound, minimum length)
    cases = [
        (path_graph(1), 0, 0),
        (path_graph(2), 1, 1),
        (path_graph(3), 2, 2),
        (path_graph(4), 3, 3),
        (complete_graph(3), 2, 2),
        (complete_graph(4), 3, 3),
        (linear_2tree_5(), 4, 4),
        # the 4-cycle packs into fewer than n-1 symbols
        (cycle_graph(4), 2, 2),
    ]
    for g, bound, minimum in cases:
        lb, scheme = exact_n(g)
        assert (lb, scheme.d) == (bound, minimum)
        assert verify_scheme(g, scheme)
        # the scheme is the one the search returns at that length
        assert g.n <= 1 or scheme == search_scheme(g, minimum)


def test_size_guard():
    big = path_graph(MAX_VERTICES + 1)
    with pytest.raises(TooLarge):
        search_scheme(big, 2)
    with pytest.raises(TooLarge):
        exact_n(big)
    with pytest.raises(TooLarge):
        search_scheme(path_graph(3), MAX_LENGTH + 1)
    with pytest.raises(TooLarge):
        search_scheme(path_graph(3), 10**9)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        search_scheme(linear_2tree_5(), 4, budget=5)


def test_budget_runs_out_before_any_table_of_all_words():
    # K_{2,3} needs 590 620 nodes at length 10; building anything for each of
    # the 3^10 words before the scan starts would take seconds, not this
    k23 = LabeledGraph(5, ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        search_scheme(k23, MAX_LENGTH, budget=1000)
    assert time.perf_counter() - start < 1.0


def test_scheme_json_round_trip():
    s = AddressScheme(3, ("000", "001", "01*", "11*"))
    assert scheme_from_json_obj(scheme_to_json_obj(s)) == s
    with pytest.raises(InputError):
        scheme_from_json_obj({"d": 2})


@st.composite
def connected_graphs(draw, max_n=5):
    """A random spanning tree plus random extra edges, randomly labelled."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else set()
    label = draw(st.permutations(range(1, n + 1)))
    return LabeledGraph(n, tuple(sorted(tuple(sorted((label[u - 1], label[v - 1]))) for u, v in edges)))


def bfs_sorted_frontiers(g):
    """Textbook BFS from vertex 1, each frontier visited in increasing label order."""
    order, seen, frontier = [], {1}, [1]
    while frontier:
        order += frontier
        nxt = {w for u in frontier for w in neighbors(g, u)} - seen
        seen |= nxt
        frontier = sorted(nxt)
    return tuple(order)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(connected_graphs(max_n=6))
def test_layout_order_is_bfs_order(g):
    assert _layout(g)[1] == bfs_sorted_frontiers(g)


def outcome(search, g, d, budget):
    try:
        return search(g, d, budget)
    except BudgetExceeded:
        return "budget exceeded"


def nodes_needed(g, d, search=search_scheme):
    """The least budget under which search(g, d) answers."""
    hi = 1
    while outcome(search, g, d, hi) == "budget exceeded":
        hi *= 2
    lo = hi // 2  # too small, or 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outcome(search, g, d, mid) == "budget exceeded":
            lo = mid
        else:
            hi = mid
    return hi


@settings(derandomize=True, deadline=None, max_examples=300)
@given(connected_graphs(), st.integers(0, 4))
def test_search_matches_slow_oracle(g, d):
    found = search_scheme(g, d)
    assert found == brute_search_scheme(g, d)
    if found is not None:
        assert verify_scheme(g, found)
    need = nodes_needed(g, d)
    # the oracle scans exactly as many words: it answers with that budget
    # and runs out one node earlier
    assert outcome(search_scheme, g, d, need - 1) == "budget exceeded"
    assert outcome(brute_search_scheme, g, d, need) == found
    assert outcome(brute_search_scheme, g, d, need - 1) == "budget exceeded"


def connected_graphs_on(n):
    """Every connected graph on the vertices 1..n."""
    pairs = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        g = LabeledGraph(n, tuple(p for k, p in enumerate(pairs) if bits >> k & 1))
        if is_connected(g):
            yield g


def test_shared_word_tables_change_no_answer():
    # the searches of one length share its tables across graphs; the
    # reference is a second copy of the module whose tables are dropped
    # before each search, so that each one builds its own
    runs = [(g, d) for n in (4, 5) for g in connected_graphs_on(n) for d in range(1, n)]
    assert len(runs) == 38 * 3 + 728 * 4
    random.Random(18).shuffle(runs)
    fresh = load(addressing, inspect.getsource(addressing))
    fresh.BudgetExceeded = BudgetExceeded  # what outcome() catches

    def alone(g, d, budget=None):
        fresh._kept.clear()
        return fresh.search_scheme(g, d, budget)

    for g, d in runs:
        found, want = search_scheme(g, d), alone(g, d)
        assert (found and found.addresses) == (want and want.addresses), (g.edges, d)
    for g, d in runs[:40]:
        assert nodes_needed(g, d) == nodes_needed(g, d, alone), (g.edges, d)
    # a length beyond exact_n's reach keeps nothing after its search
    k23 = LabeledGraph(5, ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)))
    with pytest.raises(BudgetExceeded):
        search_scheme(k23, MAX_LENGTH, budget=1000)
    assert addressing._kept and max(addressing._kept) < MAX_VERTICES


# name: (graph on MAX_VERTICES vertices, minimum address length)
SIX_VERTEX = {
    "P6": (path_graph(6), 5),
    "C6": (cycle_graph(6), 3),
    "K6": (complete_graph(6), 5),
    # a CP member: the fan, vertex 1 joined to the path 2-3-4-5-6
    "fan": (build_cp_graph(NeighborhoodSequence(NonLeapingSequence((0, 1, 2, 2, 2, 2)), (1, 1, 1, 1))), 5),
}


def test_first_word_rule_changes_no_answer():
    # the reference is a second copy of the module without the rule that the
    # first vertex's word holds no 1, so that only the column sort breaks
    # symmetry there
    source = inspect.getsource(addressing)
    rule = "in_order[ties] & words.no_one"
    assert source.count(rule) == 1
    sorted_only = load(addressing, source.replace(rule, "in_order[ties]"))
    runs = [(g, d) for n in (4, 5) for g in connected_graphs_on(n) for d in range(1, n)]
    assert len(runs) == 3026
    runs += [(g, d) for g, _ in SIX_VERTEX.values() for d in range(1, MAX_VERTICES)]
    for g, d in runs:
        found, want = search_scheme(g, d), sorted_only.search_scheme(g, d)
        assert (found and found.addresses) == (want and want.addresses), (g.edges, d)
        if found is not None:  # vertex 1 comes first in the search
            assert "1" not in found.addresses[0]


# d = n - 2 and the minimum length; K6 at d = 4 is the largest failing
# search, 210 843 words scanned, some 2 s for the oracle's two runs
@pytest.mark.parametrize(
    "name, d",
    [("P6", 4), ("P6", 5), ("C6", 4), ("C6", 3), ("K6", 4), ("K6", 5), ("fan", 4), ("fan", 5)],
)
def test_six_vertex_search_matches_slow_oracle(name, d):
    g, minimum = SIX_VERTEX[name]
    assert exact_n(g)[1].d == minimum
    found = search_scheme(g, d)
    assert (found is not None) == (d >= minimum)
    if found is not None:
        assert verify_scheme(g, found)
    need = nodes_needed(g, d)
    assert outcome(search_scheme, g, d, need - 1) == "budget exceeded"
    assert outcome(brute_search_scheme, g, d, need) == found
    assert outcome(brute_search_scheme, g, d, need - 1) == "budget exceeded"
