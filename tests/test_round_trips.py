"""Every text and JSON format the CLI reads gives back what it was written from.

The JSON the CLI only writes (invariants, weighted graphs, matrices) is
decoded here with int(), so big integers must come through exactly.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cpgraphs.addressing import AddressScheme, scheme_from_json_obj, scheme_to_json_obj
from cpgraphs.formulas import GraphInvariants, invariants_to_json_obj
from cpgraphs.graphs import (
    LabeledGraph,
    graph_from_json_obj,
    graph_to_json_obj,
    parse_edge_list,
)
from cpgraphs.linalg import Inertia
from cpgraphs.matrices import IntMatrix
from cpgraphs.reduction import (
    WeightedGraph,
    weighted_graph_to_json_obj,
)
from cpgraphs.sequences import (
    CliquePathSpec,
    NonLeapingSequence,
    expand_clique_path_spec,
    parse_anchor_literal,
    parse_sequence_literal,
    parse_spec_literal,
)

round_trip = settings(derandomize=True, deadline=None, max_examples=100)
separators = st.sampled_from((",", ", ", " , "))
# beyond 64 bits, and past float precision, so nothing may pass through a float
big_ints = st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40))


def through_json(obj):
    return json.loads(json.dumps(obj))


@st.composite
def nonleaping_sequences(draw, max_n=30):
    q = [0, 1]
    for _ in range(draw(st.integers(0, max_n - 2))):
        q.append(draw(st.integers(2, q[-1] + 1)))
    return NonLeapingSequence(tuple(q))


@st.composite
def labeled_graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LabeledGraph(n, tuple(edges))


@st.composite
def weighted_graphs(draw, max_n=10):
    g = draw(labeled_graphs(max_n))
    vw = draw(st.lists(big_ints, min_size=g.n, max_size=g.n))
    weights = st.one_of(st.integers(-9, -1), st.integers(1, 9), st.integers(10**20, 10**21))
    ew = [(u, v, draw(weights)) for u, v in g.edges]
    return WeightedGraph(g.n, tuple(vw), tuple(ew))


@st.composite
def schemes(draw):
    count = draw(st.integers(0, 8))
    d = draw(st.integers(1 if count >= 2 else 0, 10))
    word = st.text(alphabet="01*", min_size=d, max_size=d)
    return AddressScheme(d, tuple(draw(st.lists(word, min_size=count, max_size=count))))


@round_trip
@given(nonleaping_sequences(), separators)
def test_sequence_literal(s, sep):
    assert parse_sequence_literal(sep.join(map(str, s.q))) == s


@round_trip
@given(st.lists(st.integers(3, 12), max_size=10).map(tuple), separators, st.booleans())
def test_spec_literal(p, sep, head):
    spec = CliquePathSpec(p)
    text = ("2:" if head else "") + sep.join(map(str, p))
    assert parse_spec_literal(text) == spec
    assert parse_sequence_literal("2:" + sep.join(map(str, p))) == expand_clique_path_spec(spec)


@round_trip
@given(st.lists(st.integers(1, 10**6), max_size=30).map(tuple), separators)
def test_anchor_literal(anchors, sep):
    assert parse_anchor_literal(sep.join(map(str, anchors))) == anchors


@round_trip
@given(labeled_graphs())
def test_edge_list(g):
    assert parse_edge_list(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)) == g


@round_trip
@given(labeled_graphs())
def test_graph_json(g):
    assert graph_from_json_obj(through_json(graph_to_json_obj(g))) == g


@round_trip
@given(weighted_graphs())
def test_weighted_graph_json(h):
    obj = through_json(weighted_graph_to_json_obj(h))
    vw = tuple(map(int, obj["vw"]))
    ew = tuple((int(u), int(v), int(w)) for u, v, w in obj["ew"])
    assert WeightedGraph(int(obj["n"]), vw, ew) == h


@round_trip
@given(schemes())
def test_scheme_json(s):
    assert scheme_from_json_obj(through_json(scheme_to_json_obj(s))) == s


@round_trip
@given(big_ints, st.tuples(*[st.integers(0, 50)] * 3), big_ints)
def test_invariants_json(det, counts, cof):
    inv = GraphInvariants(det, Inertia(*counts), cof)
    obj = through_json(invariants_to_json_obj(inv))
    got = GraphInvariants(int(obj["det"]), Inertia(*map(int, obj["inertia"])), int(obj["cof"]))
    assert got == inv


square_rows = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(big_ints, min_size=n, max_size=n), min_size=n, max_size=n)
)


@round_trip
@given(square_rows)
def test_matrix_json(rows):
    m = IntMatrix.from_rows(rows)
    assert IntMatrix.from_rows([map(int, r) for r in through_json(m.to_json_rows())]) == m
