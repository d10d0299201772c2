import argparse
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpgraphs import addressing, cli, sequences, suites
from cpgraphs.addressing import AddressScheme
from cpgraphs.cli import build_parser, main, parse_graph_input
from cpgraphs.errors import InputError, ResourceLimit
from cpgraphs.graphs import LabeledGraph, parse_edge_list, path_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


def test_parse_graph_input_sniffs_json():
    assert parse_graph_input('{"n": 3, "edges": [[1, 2], [2, 3]]}') == path_graph(3)
    assert parse_graph_input("1 2\n2 3\n") == path_graph(3)


def test_seq_validate(capsys):
    code, obj = run_json(capsys, "seq", "validate", "0,1,2,2,3")
    assert code == 0 and obj["results"]["ok"] is True
    assert obj["results"]["b"] == [2, 2, 2, 3, 3]
    code, obj = run_json(capsys, "seq", "validate", "0,1,4")
    assert code == 1 and obj["results"]["ok"] is False
    code, out, err = run(capsys, "seq", "validate", "0,1,zebra")
    assert code == 2 and "error:" in err


def test_seq_expand(capsys):
    code, obj = run_json(capsys, "seq", "expand", "2:3,4")
    assert code == 0
    assert obj["results"]["q"] == [0, 1, 2, 2, 3]
    assert obj["results"]["n"] == 5


def test_family_commands(capsys):
    code, obj = run_json(capsys, "family", "count", "0,1,2,2,2,2,3,3")
    assert code == 0 and obj["results"]["members"] == "16"
    code, obj = run_json(capsys, "family", "enumerate", "0,1,2,2", "--limit", "1")
    assert code == 0
    assert obj["results"]["count"] == 1
    assert obj["results"]["total"] == "2"
    assert obj["results"]["truncated"] is True
    code, obj = run_json(capsys, "family", "enumerate", "0,1,2,2")
    assert obj["results"]["anchors"] == [[1, 1], [1, 2]]
    assert obj["results"]["truncated"] is False


def test_family_enumerate_negative_limit(capsys):
    code, out, err = run(capsys, "family", "enumerate", "0,1,2,2,3", "--limit", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_family_enumerate_limit_beyond_sys_maxsize(capsys):
    huge = str(10**20)
    assert int(huge) > sys.maxsize
    code, out, err = run(capsys, "family", "enumerate", "2:3,4", "--limit", huge)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["inputs"]["limit"] == 10**20
    assert obj["results"]["anchors"] == [[1, 1, 1], [1, 2, 2]]
    assert obj["results"]["truncated"] is False


def test_family_enumerate_deeper_than_recursion_limit(capsys):
    n = sys.getrecursionlimit() + 500
    literal = ",".join(["0", "1"] + ["2"] * (n - 2))
    code, obj = run_json(capsys, "family", "enumerate", literal, "--limit", "1")
    assert code == 0 and obj["results"]["anchors"] == [[1] * (n - 2)]
    assert obj["results"]["total"] == str(2 ** (n - 3))


@pytest.mark.parametrize("argv", [["family", "count"], ["family", "enumerate", "--limit", "1"]])
def test_member_count_beyond_rendered_digits_is_a_resource_limit(capsys, argv):
    # 2^14999 members: 4516 decimal digits, past Python's default 4300-digit limit
    literal = ",".join(["0", "1"] + ["2"] * 15000)
    code, out, err = run(capsys, *argv[:2], literal, *argv[2:])
    assert code == 3 and out == ""
    assert err.startswith("resource limit:") and "4516 decimal digits" in err
    assert "Traceback" not in err and err.count("\n") == 1


def assert_guard_tripped(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("resource limit:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_member_cap(capsys, monkeypatch):
    # 0,1 followed by k twos has 2^(k-1) members
    over = ",".join(["0", "1"] + ["2"] * 18)
    assert_guard_tripped(capsys, "family", "enumerate", over)
    assert_guard_tripped(capsys, "reduce", "verify", over)
    deep = ",".join(["0", "1"] + ["2"] * (sys.getrecursionlimit() + 500))
    assert_guard_tripped(capsys, "family", "enumerate", deep)
    assert_guard_tripped(capsys, "reduce", "verify", deep)
    # --limit and --anchors bound the work themselves
    code, obj = run_json(capsys, "family", "enumerate", over, "--limit", "2")
    assert code == 0 and obj["results"]["count"] == 2
    code, obj = run_json(capsys, "family", "enumerate", deep, "--limit", "10")
    assert code == 0 and obj["results"]["count"] == 10
    # a --limit above the cap is refused before any member is built, unless
    # the family is smaller than the cap
    with mock.patch.object(cli, "enumerate_neighborhood_sequences") as listed:
        for family in (over, deep):
            for limit in (cli.MAX_MEMBERS + 1, 10**18, 10**20):
                assert_guard_tripped(capsys, "family", "enumerate", family, "--limit", str(limit))
    assert not listed.called
    code, obj = run_json(capsys, "family", "enumerate", "0,1,2,2,2", "--limit", str(10**18))
    assert code == 0 and obj["results"]["count"] == 4
    code, obj = run_json(capsys, "reduce", "verify", over, "--anchors", ",".join(["1"] * 18))
    assert code == 0 and obj["results"]["members"] == 1
    # a family of exactly the cap still runs
    sixteen = "0,1,2,2,2,2,3,3"
    monkeypatch.setattr(cli, "MAX_MEMBERS", 16)
    assert run_json(capsys, "family", "enumerate", sixteen)[1]["results"]["count"] == 16
    assert run_json(capsys, "reduce", "verify", sixteen)[1]["results"]["members"] == 16
    listed = run_json(capsys, "family", "enumerate", sixteen, "--limit", "17")[1]["results"]
    assert listed["count"] == 16
    monkeypatch.setattr(cli, "MAX_MEMBERS", 15)
    assert_guard_tripped(capsys, "family", "enumerate", sixteen)
    assert_guard_tripped(capsys, "reduce", "verify", sixteen)
    assert_guard_tripped(capsys, "family", "enumerate", sixteen, "--limit", "16")
    listed = run_json(capsys, "family", "enumerate", sixteen, "--limit", "15")[1]["results"]
    assert listed["count"] == 15


def test_family_enumerate_caps_the_anchors_it_lists(capsys, monkeypatch):
    # 2^16 members of a family deeper than the recursion limit would be some
    # 10^8 anchors; the cap trips before any member is built
    deep = ",".join(["0", "1"] + ["2"] * (sys.getrecursionlimit() + 500))
    with mock.patch.object(cli, "enumerate_neighborhood_sequences") as listed:
        assert_guard_tripped(capsys, "family", "enumerate", deep, "--limit", str(cli.MAX_MEMBERS))
    assert not listed.called
    # 16 members of 6 anchors each
    sixteen = "0,1,2,2,2,2,3,3"
    monkeypatch.setattr(cli, "MAX_ANCHORS", 96)
    assert run_json(capsys, "family", "enumerate", sixteen)[1]["results"]["count"] == 16
    monkeypatch.setattr(cli, "MAX_ANCHORS", 95)
    assert_guard_tripped(capsys, "family", "enumerate", sixteen)
    listed = run_json(capsys, "family", "enumerate", sixteen, "--limit", "15")[1]["results"]
    assert listed["count"] == 15


def test_vertex_cap_of_graph_attach_base(capsys, monkeypatch, tmp_path):
    # a bare header is enough: --dot prints a line per vertex
    p = tmp_path / "base.edges"
    p.write_text(f"n {10**12}\n1 2\n")
    argv = ("graph", "attach", str(p), "--edge", "1,2", "--cp-seq", "2:3", "--dot")
    assert_guard_tripped(capsys, *argv)
    monkeypatch.setattr(cli, "MAX_VERTICES", 4)
    p.write_text("n 4\n1 2\n")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.count(";") == 5 + 3  # vertices 1..5, edges 1-2, 1-5, 2-5
    p.write_text("n 5\n1 2\n")
    assert_guard_tripped(capsys, *argv)


def test_vertex_cap_of_address_verify(capsys, tmp_path):
    # the 8-cube, vertex i + 1 addressed by i in binary, and the same with a
    # pendant vertex 257 on vertex 1, addressed by a ninth column
    words = [format(i, "08b") for i in range(256)]
    edges = "".join(
        f"{i + 1} {(i | 1 << b) + 1}\n" for i in range(256) for b in range(8) if not i >> b & 1
    )
    cube, pendant = tmp_path / "cube.edges", tmp_path / "pendant.edges"
    cube.write_text(edges)
    pendant.write_text(edges + "1 257\n")
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"d": 8, "addr": words}))
    code, obj = run_json(capsys, "address", "verify", str(cube), "--scheme", str(scheme))
    assert code == 0 and obj["results"]["ok"] is True
    valid = AddressScheme(9, tuple(w + "0" for w in words) + ("0" * 8 + "1",))
    assert addressing.verify_scheme(parse_graph_input(pendant.read_text()), valid)
    scheme.write_text(json.dumps({"d": 9, "addr": list(valid.addresses)}))
    assert_guard_tripped(capsys, "address", "verify", str(pendant), "--scheme", str(scheme))
    # the order is checked before the scheme is read
    missing = str(tmp_path / "missing.json")
    assert_guard_tripped(capsys, "address", "verify", str(pendant), "--scheme", missing)


def test_vertex_cap_of_invariants(capsys, monkeypatch, tmp_path):
    n = cli.MAX_VERTICES + 1
    p = tmp_path / "path.edges"
    p.write_text("".join(f"{v} {v + 1}\n" for v in range(1, n)))
    assert_guard_tripped(capsys, "invariants", "--graph", str(p))
    assert_guard_tripped(capsys, "invariants", "--seq", ",".join(["0", "1"] + ["2"] * (n - 2)))
    # a graph of exactly the cap still runs
    monkeypatch.setattr(cli, "MAX_VERTICES", 4)
    p.write_text("1 2\n2 3\n3 4\n")
    assert run_json(capsys, "invariants", "--graph", str(p))[1]["results"]["det"] == "-12"
    assert run_json(capsys, "invariants", "--seq", "0,1,2,2")[0] == 0
    p.write_text("1 2\n2 3\n3 4\n4 5\n")
    assert_guard_tripped(capsys, "invariants", "--graph", str(p))
    assert_guard_tripped(capsys, "invariants", "--seq", "0,1,2,2,2")


def test_vertex_cap_of_graph_distance(capsys, monkeypatch, tmp_path):
    p = tmp_path / "path.edges"
    p.write_text("".join(f"{v} {v + 1}\n" for v in range(1, cli.MAX_VERTICES + 1)))
    assert_guard_tripped(capsys, "graph", "distance", str(p))
    # at the cap it runs, one past it trips before any distance is computed
    monkeypatch.setattr(cli, "MAX_VERTICES", 4)
    p.write_text("1 2\n2 3\n3 4\n")
    code, obj = run_json(capsys, "graph", "distance", str(p))
    assert code == 0 and obj["results"]["distances"][0] == [0, 1, 2, 3]
    p.write_text("1 2\n2 3\n3 4\n4 5\n")
    monkeypatch.setattr(cli, "all_pairs_distances", None)
    code, out, err = run(capsys, "graph", "distance", str(p))
    assert (code, out) == (3, "")
    assert err == "resource limit: order 5 is above the 4-vertex cap of graph distance\n"
    # graph blocks allocates per label: one edge to label 10^9 trips before the search
    monkeypatch.setattr(cli, "blocks", None)
    p.write_text("1 1000000000\n")
    code, out, err = run(capsys, "graph", "blocks", str(p))
    assert (code, out) == (3, "")
    assert err == "resource limit: order 1000000000 is above the 4-vertex cap of graph blocks\n"


def test_vertex_cap_before_shorthand_expansion(capsys, monkeypatch, tmp_path):
    # 2:3000000 is one clique on 3 000 000 vertices: the cap trips on the shorthand
    monkeypatch.setattr(sequences, "expand_clique_path_spec", None)
    base = tmp_path / "edge.edges"
    base.write_text("1 2\n")
    over = ",".join(map(str, range(cli.MAX_VERTICES + 1)))
    for command, argv in (
        ("graph build", ["graph", "build", "2:3000000"]),
        ("graph attach", ["graph", "attach", str(base), "--edge", "1,2", "--cp-seq", "2:3000000"]),
        ("invariants", ["invariants", "--seq", "2:3000000"]),
        ("reduce matrix", ["reduce", "matrix", "2:3000000"]),
        ("reduce verify", ["reduce", "verify", "2:3000000"]),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"resource limit: order 3000000 is above the 256-vertex cap of {command}\n"
    for command, argv in (
        ("graph build", ["graph", "build", over]),
        ("graph attach", ["graph", "attach", str(base), "--edge", "1,2", "--cp-seq", over]),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"resource limit: order 257 is above the 256-vertex cap of {command}\n"


@pytest.mark.parametrize("command", [
    "seq validate", "seq expand", "family count", "family enumerate", "reduce graph",
])
def test_vertex_cap_of_shorthand_in_sequence_commands(capsys, monkeypatch, command):
    # the shorthand's order is read before expansion; plain literals stay uncapped
    monkeypatch.setattr(sequences, "expand_clique_path_spec", None)
    monkeypatch.setattr(cli, "expand_clique_path_spec", None)
    code, out, err = run(capsys, *command.split(), "2:3000000")
    assert (code, out) == (3, "")
    assert err == f"resource limit: order 3000000 is above the 256-vertex cap of {command}\n"
    monkeypatch.undo()
    assert run(capsys, *command.split(), "2:257")[0] == 3  # 257 vertices
    assert run_json(capsys, *command.split(), "2:256")[0] == 0
    if command != "seq expand":
        over = ",".join(map(str, range(cli.MAX_VERTICES + 1)))
        assert run_json(capsys, *command.split(), over)[0] == 0


def test_vertex_cap_of_reduce(capsys, monkeypatch):
    # 0, 1, 2, ..., n - 1 has a single member, so only the vertex cap stops it
    over = ",".join(map(str, range(cli.MAX_VERTICES + 1)))
    monkeypatch.setattr(cli, "reducing_matrix", None)
    monkeypatch.setattr(cli, "reduced_graph", None)
    for action in ("matrix", "verify"):
        code, out, err = run(capsys, "reduce", action, over)
        assert (code, out) == (3, "")
        assert err == f"resource limit: order 257 is above the 256-vertex cap of reduce {action}\n"
    monkeypatch.undo()
    at_cap = ",".join(map(str, range(cli.MAX_VERTICES)))
    assert run_json(capsys, "reduce", "matrix", at_cap)[1]["results"]["anchors"] == [1] * 254
    assert run_json(capsys, "reduce", "verify", at_cap)[1]["results"]["ok"] is True


def test_graph_build(capsys):
    code, obj = run_json(capsys, "graph", "build", "0,1,2", "--anchors", "1")
    assert code == 0
    assert obj["results"]["edges"] == [[1, 2], [1, 3], [2, 3]]
    code, out, err = run(capsys, "graph", "build", "0,1,2", "--anchors", "7")
    assert code == 2
    code, out, err = run(capsys, "graph", "build", "2:3,3", "--dot")
    assert code == 0 and out.startswith("graph G {")


def test_graph_distance_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 3\n"))
    code, obj = run_json(capsys, "graph", "distance", "-")
    assert code == 0
    assert obj["results"]["distances"] == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_graph_distance_file(capsys, tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("# a square\n1 2\n2 3\n3 4\n1 4\n")
    code, obj = run_json(capsys, "graph", "distance", str(p))
    assert code == 0 and obj["results"]["n"] == 4
    code, out, err = run(capsys, "graph", "distance", str(tmp_path / "missing.edges"))
    assert code == 2 and "cannot read" in err


def test_graph_blocks(capsys, tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("1 2\n1 3\n2 3\n3 4\n")
    code, obj = run_json(capsys, "graph", "blocks", str(p))
    assert code == 0
    assert obj["results"]["count"] == 2
    assert obj["results"]["blocks"][0]["vertices"] == [1, 2, 3]


def test_graph_attach(capsys, tmp_path):
    p = tmp_path / "base.edges"
    p.write_text("1 2\n2 3\n3 1\n")
    code, obj = run_json(
        capsys, "graph", "attach", str(p), "--edge", "2,3", "--cp-seq", "2:3"
    )
    assert code == 0
    assert obj["results"]["n"] == 4
    assert obj["results"]["cp_map"] == {"1": 2, "2": 3, "3": 4}
    code, out, err = run(
        capsys, "graph", "attach", str(p), "--edge", "2-3", "--cp-seq", "2:3"
    )
    assert code == 2


def test_reduce_commands(capsys):
    code, obj = run_json(capsys, "reduce", "graph", "0,1,2,2")
    assert code == 0
    assert obj["results"]["vw"] == [0, 0, -2, -2]
    # with anchors 1,2 the change of anchor shows up in row 1, column 4
    code, obj = run_json(capsys, "reduce", "matrix", "0,1,2,2", "--anchors", "1,2")
    assert code == 0
    assert obj["results"]["e"][0] == ["1", "0", "0", "1"]
    assert obj["results"]["e"][1] == ["0", "1", "-1", "-1"]
    code, obj = run_json(capsys, "reduce", "verify", "0,1,2,2,2,2,3,3")
    assert code == 0
    assert obj["results"]["ok"] is True and obj["results"]["members"] == 16


def test_reduce_verify_reports_mismatched_members(capsys, monkeypatch):
    real = cli._grow
    monkeypatch.setattr(
        cli,
        "_grow",
        lambda *args: ((q, a, d, ok and a != (1, 2, 2, 4, 4, 5)) for q, a, d, ok in real(*args)),
    )
    code, obj = run_json(capsys, "reduce", "verify", "0,1,2,2,2,2,3,3")
    assert code == 1
    assert obj["results"]["ok"] is False and obj["results"]["members"] == 16
    assert obj["results"]["mismatched_anchors"] == [[1, 2, 2, 4, 4, 5]]
    code, obj = run_json(
        capsys, "reduce", "verify", "0,1,2,2,2,2,3,3", "--anchors", "1,1,1,1,1,1"
    )
    assert code == 0 and "mismatched_anchors" not in obj["results"]


def test_invariants_sources_agree(capsys, tmp_path):
    code, by_spec = run_json(capsys, "invariants", "--spec", "2:3,3")
    code2, by_seq = run_json(capsys, "invariants", "--seq", "2:3,3")
    code3, built = run_json(capsys, "graph", "build", "2:3,3")
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"n": built["results"]["n"], "edges": built["results"]["edges"]}))
    code4, by_graph = run_json(capsys, "invariants", "--graph", str(p))
    assert code == code2 == code3 == code4 == 0
    assert by_spec["results"] == by_seq["results"] == by_graph["results"]


INVARIANTS_OUTPUT = """{
  "command": "invariants",
  "inputs": {
    "source": "graph",
    "graph": %s
  },
  "results": {
    "det": "%s",
    "inertia": [
      %d,
      %d,
      %d
    ],
    "cof": "%s"
  }
}
"""


@pytest.mark.parametrize("text, det, inertia, cof", [
    ("n 0\n", 1, (0, 0, 0), 0),
    ("n 1\n", 0, (0, 0, 1), 1),
    ("1 2\n", -1, (1, 1, 0), -2),
])
def test_invariants_of_the_smallest_graphs(capsys, tmp_path, text, det, inertia, cof):
    p = tmp_path / "g.edges"
    p.write_text(text)
    code, out, err = run(capsys, "invariants", "--graph", str(p))
    assert (code, err) == (0, "")
    assert out == INVARIANTS_OUTPUT % (json.dumps(str(p)), det, *inertia, cof)


def test_invariants_of_a_disconnected_graph(capsys, tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("n 3\n1 2\n")
    assert run(capsys, "invariants", "--graph", str(p)) == (
        2, "", "error: vertex 1 cannot reach every vertex\n"
    )


def test_address_commands(capsys, tmp_path):
    p = tmp_path / "k3.edges"
    p.write_text("1 2\n2 3\n1 3\n")
    code, obj = run_json(capsys, "address", "exact-n", str(p))
    assert code == 0
    assert obj["results"]["n"] == 2 and obj["results"]["lower_bound"] == 2
    sp = tmp_path / "scheme.json"
    sp.write_text(json.dumps(obj["results"]["scheme"]))
    code, obj = run_json(capsys, "address", "verify", str(p), "--scheme", str(sp))
    assert code == 0 and obj["results"]["ok"] is True
    code, obj = run_json(capsys, "address", "search", str(p), "--length", "1")
    assert code == 0 and obj["results"]["found"] is False
    # a wrong scheme answers no with exit 1
    sp.write_text(json.dumps({"d": 1, "addr": ["0", "0", "0"]}))
    code, obj = run_json(capsys, "address", "verify", str(p), "--scheme", str(sp))
    assert code == 1 and obj["results"]["ok"] is False


def test_address_resource_limits(capsys, tmp_path):
    p = tmp_path / "big.edges"
    p.write_text("\n".join(f"{i} {i + 1}" for i in range(1, 8)))
    code, out, err = run(capsys, "address", "exact-n", str(p))
    assert code == 3 and "resource limit" in err
    p2 = tmp_path / "tt5.edges"
    p2.write_text("1 2\n1 3\n2 3\n2 4\n3 4\n3 5\n4 5\n")
    code, out, err = run(capsys, "address", "search", str(p2), "--length", "4", "--budget", "5")
    assert code == 3
    # the length guard trips before the 3^40 words would be built
    start = time.perf_counter()
    code, out, err = run(capsys, "address", "search", str(p2), "--length", "40")
    assert code == 3 and "resource limit" in err and not out
    assert time.perf_counter() - start < 1.0


def test_negative_budget_is_bad_input(capsys, tmp_path):
    # graphs with at most one vertex never reach the search, so the check comes first
    for name, text in (("k3", "1 2\n2 3\n1 3\n"), ("k1", "n 1\n"), ("k0", "n 0\n")):
        p = tmp_path / f"{name}.edges"
        p.write_text(text)
        for argv in (("address", "search", str(p), "--length", "1"), ("address", "exact-n", str(p))):
            code, out, err = run(capsys, *argv, "--budget", "-5")
            assert code == 2 and not out and err.startswith("error:") and "budget" in err, argv
            assert run(capsys, *argv, "--budget", "0")[0] == 0, argv


def test_address_verify_malformed_scheme(capsys, tmp_path):
    p = tmp_path / "k3.edges"
    p.write_text("1 2\n2 3\n1 3\n")
    sp = tmp_path / "scheme.json"
    for text in ('{"d": "x", "addr": []}', '{"d": Infinity, "addr": []}', '{"d": 1}', "[1]"):
        sp.write_text(text)
        code, out, err = run(capsys, "address", "verify", str(p), "--scheme", str(sp))
        assert code == 2 and err.startswith("error: bad scheme object") and not out, text


def bad_json(capsys, tmp_path, graph, scheme=None):
    """(exit code, stderr) of `graph distance` on the JSON text `graph`, or of
    `address verify` when a scheme's JSON text is given; either must refuse
    the input on one line, with nothing on stdout."""
    p = tmp_path / "g.json"
    p.write_text(graph)
    argv = ["graph", "distance", str(p)]
    if scheme is not None:
        sp = tmp_path / "scheme.json"
        sp.write_text(scheme)
        argv = ["address", "verify", str(p), "--scheme", str(sp)]
    code, out, err = run(capsys, *argv)
    assert not out and err.count("\n") == 1 and "Traceback" not in err, (graph, scheme, err)
    return code, err


K3_JSON = '{"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}'


def test_json_number_beyond_a_float_is_bad_input(capsys, tmp_path):
    # 1e400 reads as inf, which int() refused with an OverflowError
    code, err = bad_json(capsys, tmp_path, '{"n": 1e400, "edges": []}')
    assert code == 2 and err.startswith("error: bad graph object:")
    code, err = bad_json(capsys, tmp_path, '{"n": 2, "edges": [[1, 1e400]]}')
    assert code == 2 and err.startswith("error: bad graph object:")
    code, err = bad_json(capsys, tmp_path, K3_JSON, '{"d": 1e400, "addr": []}')
    assert code == 2 and err.startswith("error: bad scheme object:")


def test_json_int_literal_above_the_digit_limit_is_bad_input(capsys, tmp_path):
    # json.loads raises a plain ValueError on an int of more than 4300 digits
    big = "9" * 5000
    code, err = bad_json(capsys, tmp_path, f'{{"n": {big}, "edges": []}}')
    assert code == 2 and err.startswith("error: bad JSON graph:")
    code, err = bad_json(capsys, tmp_path, K3_JSON, f'{{"d": {big}, "addr": []}}')
    assert code == 2 and err.startswith("error: bad JSON scheme:")


def test_json_floats_and_numeric_strings_are_not_rounded(capsys, tmp_path):
    # int() read the first as the 2-vertex path, and the others as n = 3
    for graph in ('{"n": 2.9, "edges": [[1.7, 2.2]]}', '{"n": "3", "edges": []}',
                  '{"n": 3.0, "edges": []}', '{"n": 3, "edges": [[1, "2"]]}'):
        code, err = bad_json(capsys, tmp_path, graph)
        assert code == 2 and err.startswith("error: bad graph object:"), graph
    for scheme in ('{"d": 2.0, "addr": ["00", "01", "1*"]}', '{"d": "2", "addr": ["00", "01", "1*"]}'):
        code, err = bad_json(capsys, tmp_path, K3_JSON, scheme)
        assert code == 2 and err.startswith("error: bad scheme object:"), scheme
    # the same values as JSON integers are read
    p, sp = tmp_path / "g.json", tmp_path / "scheme.json"
    p.write_text('{"n": 2, "edges": [[1, 2]]}')
    code, obj = run_json(capsys, "graph", "distance", str(p))
    assert code == 0 and obj["results"]["distances"] == [[0, 1], [1, 0]]
    p.write_text(K3_JSON)
    sp.write_text('{"d": 2, "addr": ["00", "01", "1*"]}')
    code, obj = run_json(capsys, "address", "verify", str(p), "--scheme", str(sp))
    assert code == 0 and obj["results"]["ok"] is True


DEEP = 10**5  # JSON nesting far past the recursion limit


def _nested(depth):
    return "[" * depth + "]" * depth


def stdin_bytes(data, errors="strict"):
    """A stdin that reads `data` as UTF-8, as the interpreter's own does:
    undecodable bytes raise (errors="strict") or read as lone surrogates
    (errors="surrogateescape", under a C or POSIX locale)."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)


def refused(capsys, monkeypatch, argv, stdin=b"", errors="strict"):
    """(exit code, stderr) of a call that must refuse its input on one
    `error:` line, with no traceback and nothing on stdout."""
    monkeypatch.setattr("sys.stdin", stdin_bytes(stdin, errors))
    code, out, err = run(capsys, *argv)
    assert not out and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert "Traceback" not in err
    return code, err


def test_deeply_nested_json_graph_is_bad_input(capsys, monkeypatch, tmp_path):
    # json.loads raises RecursionError past the recursion limit
    nested = _nested(DEEP)
    for graph in (f'{{"n": {nested}, "edges": []}}', f'{{"n": 3, "edges": [[1, {nested}]]}}'):
        p = tmp_path / "g.json"
        p.write_text(graph)
        for path, errors in ((str(p), "strict"), ("-", "strict"), ("-", "surrogateescape")):
            argv = ["graph", "distance", path]
            code, err = refused(capsys, monkeypatch, argv, graph.encode(), errors)
            assert code == 2 and err.startswith("error: bad JSON graph: maximum recursion depth")


def test_deeply_nested_json_scheme_is_bad_input(capsys, monkeypatch, tmp_path):
    k3 = tmp_path / "k3.json"
    k3.write_text(K3_JSON)
    scheme = f'{{"d": {_nested(DEEP)}, "addr": []}}'
    p = tmp_path / "scheme.json"
    p.write_text(scheme)
    for path in (str(p), "-"):
        argv = ["address", "verify", str(k3), "--scheme", path]
        code, err = refused(capsys, monkeypatch, argv, scheme.encode())
        assert code == 2 and err.startswith("error: bad JSON scheme: maximum recursion depth")


def test_undecodable_graph_is_bad_input(capsys, monkeypatch, tmp_path):
    # 0xff never occurs in UTF-8
    graph = b"1 2\n\xff\n"
    p = tmp_path / "bad.edges"
    p.write_bytes(graph)
    code, err = refused(capsys, monkeypatch, ["graph", "distance", str(p)])
    assert code == 2 and err.startswith(f"error: cannot read {p}: 'utf-8' codec can't decode")
    for errors in ("strict", "surrogateescape"):
        code, err = refused(capsys, monkeypatch, ["graph", "distance", "-"], graph, errors)
        assert code == 2 and err.startswith("error: cannot read -: 'utf-8' codec can't")


def test_undecodable_scheme_is_a_read_error(capsys, monkeypatch, tmp_path):
    # not "bad JSON scheme": the bytes are refused before any JSON is read
    k3 = tmp_path / "k3.json"
    k3.write_text(K3_JSON)
    scheme = b'{"d": 2, "addr": ["00", "01", "1\xff"]}'
    sp = tmp_path / "scheme.json"
    sp.write_bytes(scheme)
    argv = ["address", "verify", str(k3), "--scheme", str(sp)]
    code, err = refused(capsys, monkeypatch, argv)
    assert code == 2 and err.startswith(f"error: cannot read {sp}: 'utf-8' codec can't decode")
    for errors in ("strict", "surrogateescape"):
        argv = ["address", "verify", str(k3), "--scheme", "-"]
        code, err = refused(capsys, monkeypatch, argv, scheme, errors)
        assert code == 2 and err.startswith("error: cannot read -: 'utf-8' codec can't")


@pytest.mark.parametrize(
    "data",
    [b"1 2\n\xff\n", f'{{"n": {_nested(DEEP)}, "edges": []}}'.encode()],
    ids=["undecodable", "nested json"],
)
def test_same_bytes_same_exit_from_a_file_and_stdin(tmp_path, data):
    # the interpreter's own stdin, in both of its error modes
    p = tmp_path / "g"
    p.write_bytes(data)
    src = str(Path(cli.__file__).parents[1])
    for path, encoding in ((str(p), "utf-8"), ("-", "utf-8:strict"), ("-", "utf-8:surrogateescape")):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": encoding}
        done = subprocess.run(
            [sys.executable, "-m", "cpgraphs.cli", "graph", "distance", path],
            input=data, capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 2 and not done.stdout, (path, encoding, done.stderr)
        assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1


def test_closed_stdin_is_a_read_error(capsys, monkeypatch, tmp_path):
    # with file descriptor 0 closed at start-up the interpreter sets sys.stdin to None
    k3 = tmp_path / "k3.json"
    k3.write_text(K3_JSON)
    monkeypatch.setattr("sys.stdin", None)
    for argv in (["graph", "distance", "-"], ["address", "verify", str(k3), "--scheme", "-"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: cannot read -: standard input is closed\n")


def cli_writing(tmp_path, **popen):
    """`graph distance` of the path on 256 vertices, over 64 KiB of output
    (more than a pipe holds), started with `popen`'s stdout."""
    p = tmp_path / "p256.txt"
    p.write_text("".join(f"{v} {v + 1}\n" for v in range(1, 256)))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "cpgraphs.cli", "graph", "distance", str(p)]
    return subprocess.Popen(argv, stderr=subprocess.PIPE, env=env, **popen)


def assert_write_refused(child):
    err = child.stderr.read()
    assert child.wait(timeout=60) == 2, err
    assert err.startswith(b"error: cannot write standard output: ") and err.count(b"\n") == 1, err
    assert b"Traceback" not in err


def test_pipe_closed_by_its_reader_is_a_write_error(tmp_path):
    child = cli_writing(tmp_path, stdout=subprocess.PIPE)
    assert child.stdout.read(1) == b"{"
    child.stdout.close()
    assert_write_refused(child)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_device_is_a_write_error(tmp_path):
    with open("/dev/full", "wb") as full:
        assert_write_refused(cli_writing(tmp_path, stdout=full))


def test_closed_stdout_is_a_write_error(tmp_path):
    # with file descriptor 1 closed at start-up the interpreter sets sys.stdout to None
    child = cli_writing(tmp_path, stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    assert_write_refused(child)


# payload-shaped values: str-keyed objects, arrays from lists and tuples
_chars = st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600a ') | st.characters()
_leaves = st.one_of(
    st.text(_chars),
    st.integers(),
    st.integers(-(2**100), 2**100),
    st.booleans(),
    st.none(),
    st.floats().map(lambda x: round(x, 3)),
)
_payloads = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(_chars, max_size=6), kids, max_size=4),
    ),
    max_leaves=40,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_payloads)
def test_dumps_writes_the_bytes_of_json_dumps(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2)


def test_dumps_refuses_what_payloads_never_hold():
    # json.dumps would write {1: 2} with the key "1"; no payload has an int key
    for bad in ({1, 2}, {"a": [frozenset()]}, object(), {1: 2}):
        with pytest.raises(TypeError):
            cli._dumps(bad)


def test_exact_n_searches_each_length_once(capsys, tmp_path, monkeypatch):
    # K_{2,3}: the inertia bound is 3, the minimum length 4
    edges = ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))
    p = tmp_path / "k23.edges"
    p.write_text("".join(f"{u} {v}\n" for u, v in edges))
    want = addressing.search_scheme(LabeledGraph(5, edges), 4)
    lengths = []
    real = addressing.search_scheme

    def counting(g, d, budget=None):
        lengths.append(d)
        return real(g, d, budget)

    monkeypatch.setattr(addressing, "search_scheme", counting)
    monkeypatch.setattr(cli, "search_scheme", counting)
    code, obj = run_json(capsys, "address", "exact-n", str(p))
    assert code == 0 and lengths == [3, 4]
    assert obj["results"]["lower_bound"] == 3 and obj["results"]["n"] == 4
    assert AddressScheme(4, tuple(obj["results"]["scheme"]["addr"])) == want


def test_address_output_does_not_depend_on_earlier_searches(capsys, monkeypatch):
    # as the benchmark drives the CLI: in one process, exact-n and then a
    # failing search one length shorter, on graphs of orders 4, 5 and 6 in turn
    texts = [
        "n 4\n1 4\n2 4\n3 4\n",
        "n 5\n1 2\n2 4\n2 5\n3 4\n3 5\n",
        "n 6\n1 3\n1 4\n1 5\n1 6\n2 3\n2 4\n",
        "n 4\n1 2\n1 4\n2 3\n3 4\n",
        "n 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n",
        "n 6\n1 2\n1 6\n2 3\n3 4\n4 5\n5 6\n",
    ]
    first = {}
    for text in texts + texts[::-1] + texts[1::2] + texts[::2]:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, exact, _ = run(capsys, "address", "exact-n", "-")
        k = json.loads(exact)["results"]["n"]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code2, search, _ = run(capsys, "address", "search", "-", "--length", str(k - 1))
        assert code == code2 == 0 and json.loads(search)["results"]["found"] is False
        assert first.setdefault(text, (exact, search)) == (exact, search), text


def test_check_command(capsys):
    code, obj = run_json(capsys, "check", "weighted-path", "--scale", "6")
    assert code == 0
    assert obj["failed"] == 0 and obj["passed"] > 0
    assert obj["inputs"] == {"suite": "weighted-path", "seed": 0, "scale": 6}
    assert list(obj) == [
        "command", "inputs", "results", "passed", "failed", "failures", "wall_time_s"
    ]
    code, out, err = run(capsys, "check", "nosuch")
    assert code == 2


@pytest.mark.parametrize("suite", suites.available_suites())  # "all" included
def test_check_negative_scale_is_input_error(capsys, suite):
    code, out, err = run(capsys, "check", suite, "--scale", "-1")
    assert code == 2 and out == ""
    assert err == "error: scale must be nonnegative, got -1\n"


CAPS = {name: cap for name, (_, _, cap) in suites.SUITES.items() if cap is not None}


@pytest.mark.parametrize("suite", [*CAPS, "all"])
def test_check_scale_above_a_cap_is_refused_before_any_work(capsys, monkeypatch, suite):
    cap = min(CAPS.values()) if suite == "all" else CAPS[suite]
    ran = []
    fake = lambda rec, rng, scale: ran.append(scale) or {}
    for name, (_, default, limit) in suites.SUITES.items():
        monkeypatch.setitem(suites.SUITES, name, (fake, default, limit))
    for scale in (cap + 1, 10**20):
        # "all" names its first suite over the cap
        over = suite if suite != "all" else next(
            name for name in suites.SUITES if CAPS.get(name, scale) < scale
        )
        message = f"scale {scale} is above the cap {CAPS[over]} of suite {over}"
        t0 = time.perf_counter()
        code, out, err = run(capsys, "check", suite, "--scale", str(scale))
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (3, "") and ran == []
        assert err == f"resource limit: {message}\n"
        # the library refuses it the same way
        with pytest.raises(ResourceLimit) as refused:
            suites.run_suite(suite, scale=scale)
        assert str(refused.value) == message and ran == []
    # at the cap the suite runs
    assert run_json(capsys, "check", suite, "--scale", str(cap))[0] == 0
    assert ran == [cap] * (len(suites.SUITES) if suite == "all" else 1)


def test_check_all_applies_scale_to_every_suite(capsys):
    code, obj = run_json(capsys, "check", "all", "--scale", "3")
    assert code == 0 and obj["inputs"]["scale"] == 3
    per_suite = {}
    for name in suites.SUITES:
        _, sub = run_json(capsys, "check", name, "--scale", "3")
        per_suite[name] = {"passed": sub["passed"], "failed": sub["failed"]}
    assert obj["results"] == per_suite
    assert (obj["passed"], obj["failed"]) == (556, 0)
    # scale 0 stays allowed
    code, obj = run_json(capsys, "check", "all", "--scale", "0")
    assert code == 0 and obj["failed"] == 0


def test_check_all_default_counts(capsys):
    code, obj = run_json(capsys, "check", "all", "--seed", "0")
    assert code == 0 and obj["inputs"] == {"suite": "all", "seed": 0, "scale": None}
    passed = {
        "fixtures": 18, "congruence": 1873, "constancy": 1773, "cp2-formulas": 2582,
        "linear-2tree": 261, "weighted-path": 25, "trees": 18254, "attach": 31,
        "block-inertia": 60, "addressing": 24, "linalg-crossval": 597,
    }
    assert obj["results"] == {name: {"passed": k, "failed": 0} for name, k in passed.items()}
    assert (obj["passed"], obj["failed"], obj["failures"]) == (25498, 0, [])


def test_byte_identical_output(capsys):
    _, out1, _ = run(capsys, "invariants", "--spec", "2:4,4")
    _, out2, _ = run(capsys, "invariants", "--spec", "2:4,4")
    assert out1 == out2
    _, c1, _ = run(capsys, "check", "fixtures")
    _, c2, _ = run(capsys, "check", "fixtures")
    strip = lambda s: {k: v for k, v in json.loads(s).items() if k != "wall_time_s"}
    assert strip(c1) == strip(c2)


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["seq"]) == 2
    assert main(["--help"]) == 0


def test_cached_parser_keeps_no_state(capsys, tmp_path):
    assert build_parser() is build_parser()
    p = tmp_path / "p3.edges"
    p.write_text("1 2\n2 3\n")
    code, obj = run_json(capsys, "address", "search", str(p), "--length", "2", "--budget", "1000")
    assert code == 0 and obj["inputs"]["budget"] == 1000
    assert run(capsys, "address", "search", str(p))[0] == 2
    code, obj = run_json(capsys, "address", "search", str(p), "--length", "1")
    assert code == 0 and obj["inputs"] == {"graph": str(p), "length": 1, "budget": 10_000_000}
    code, obj = run_json(capsys, "seq", "validate", "0,1,2,2,3")
    assert code == 0 and obj["command"] == "seq validate" and obj["results"]["n"] == 5


def leaf_commands(parser, words=()):
    """The words of every command under `parser` that takes no subcommand."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return [" ".join(words)]
    return [
        command
        for name, sub in subparsers[0].choices.items()
        for command in leaf_commands(sub, (*words, name))
    ]


def _literal(terms):
    return ",".join(map(str, terms))


huge = st.integers(-(10**20), 10**20)
LARGEST_CAP = max(cap for *_, cap in suites.SUITES.values() if cap is not None)
integers = st.one_of(st.integers(-3, 20), huge)

spec_literals = st.one_of(
    st.lists(st.one_of(st.integers(-1, 6), huge), max_size=5).map(lambda p: "2:" + _literal(p)),
    # above the 256-vertex cap
    st.integers(255, 400).map(lambda m: "2:" + _literal([3] * m)),
    st.text(alphabet="0123456789,: -x", max_size=12),
)

sequence_literals = st.one_of(
    st.lists(st.integers(-1, 5), max_size=10).map(_literal),
    # longer than the recursion limit in force (hypothesis raises it while it
    # runs a test), valid or leaping at the end
    st.tuples(st.integers(0, 500), st.sampled_from([2, 3, 4])).map(
        lambda t: _literal([0, 1] + [2] * (sys.getrecursionlimit() + t[0]) + [t[1]])
    ),
    spec_literals,
)

anchor_literals = st.one_of(
    st.lists(st.one_of(st.integers(-1, 8), huge), max_size=8).map(_literal),
    st.text(alphabet="0123456789,- x", max_size=10),
)


# JSON numbers where a graph or a scheme wants an int: floats (NaN and the
# infinities among them), 1e400 (inf once read) and int literals above the
# 4300-digit limit of int()
bad_numbers = st.one_of(
    st.floats().map(json.dumps),
    st.sampled_from(["1e400", "-1e400", "NaN", "9" * 5000, "-" + "1" * 5000]),
)


@st.composite
def graph_texts(draw):
    """Graph input for stdin: str, or bytes that are not UTF-8."""
    kinds = ["small", "text", "path", "json", "header", "bad json", "nested json", "undecodable"]
    kind = draw(st.sampled_from(kinds))
    if kind == "small":
        n = draw(st.integers(0, 6))
        pairs = draw(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=10))
        return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    if kind == "text":
        return draw(st.text(alphabet="0123456789 n#\n{}", max_size=20))
    if kind in ("bad json", "nested json"):
        x = draw(bad_numbers if kind == "bad json" else st.integers(1, DEEP).map(_nested))
        where = [f'{{"n": {x}, "edges": []}}', f'{{"n": 3, "edges": [[1, {x}]]}}']
        return draw(st.sampled_from(where))
    if kind == "undecodable":  # bytes, with 0xff, which never occurs in UTF-8
        text = draw(st.text(alphabet="0123456789 n\n", max_size=10))
        return text.encode() + b"\xff" + draw(st.binary(max_size=8))
    # above the 256-vertex cap: a path, as an edge list or JSON, or a bare header
    n = draw(st.integers(257, 300))
    if kind == "path":
        return "".join(f"{v} {v + 1}\n" for v in range(1, n))
    if kind == "json":
        return json.dumps({"n": n, "edges": [[v, v + 1] for v in range(1, n)]})
    return f"n {draw(st.integers(257, 10**20))}\n"


scheme_texts = st.one_of(
    st.builds(
        lambda d, addr: json.dumps({"d": d, "addr": addr}),
        integers,
        st.lists(st.text(alphabet="01*", max_size=4), max_size=7),
    ),
    st.text(alphabet='{}[]"d:adr01*, ', max_size=20),
    bad_numbers.map(lambda x: f'{{"d": {x}, "addr": ["0", "1"]}}'),
    st.integers(1, DEEP).map(lambda depth: f'{{"d": {_nested(depth)}, "addr": []}}'),
    st.binary(max_size=12).map(lambda data: data + b"\xff"),  # not UTF-8
)

budgets = st.one_of(st.integers(-50, -1), st.just(0), st.integers(1, 300), huge)


def _option(draw, flag, values):
    """[flag, a drawn value], or nothing."""
    return [flag, str(draw(values))] if draw(st.booleans()) else []


def _dot(draw):
    return ["--dot"] if draw(st.booleans()) else []


# command -> draw -> (its arguments, stdin text, the --scheme file's text or None)
ARGUMENTS = {
    "seq validate": lambda draw: ([draw(sequence_literals)], "", None),
    "seq expand": lambda draw: ([draw(spec_literals)], "", None),
    "family enumerate": lambda draw: (
        [draw(sequence_literals), *_option(draw, "--limit", integers)], "", None
    ),
    "family count": lambda draw: ([draw(sequence_literals)], "", None),
    "graph build": lambda draw: (
        [draw(sequence_literals), *_option(draw, "--anchors", anchor_literals), *_dot(draw)],
        "",
        None,
    ),
    "graph distance": lambda draw: (["-"], draw(graph_texts()), None),
    "graph blocks": lambda draw: (["-"], draw(graph_texts()), None),
    "graph attach": lambda draw: (
        [
            "-",
            "--edge",
            f"{draw(integers)},{draw(integers)}",
            "--cp-seq",
            draw(sequence_literals),
            *_option(draw, "--cp-anchors", anchor_literals),
            *_dot(draw),
        ],
        draw(graph_texts()),
        None,
    ),
    "reduce graph": lambda draw: ([draw(sequence_literals), *_dot(draw)], "", None),
    "reduce matrix": lambda draw: (
        [draw(sequence_literals), *_option(draw, "--anchors", anchor_literals)], "", None
    ),
    "reduce verify": lambda draw: (
        [draw(sequence_literals), *_option(draw, "--anchors", anchor_literals)], "", None
    ),
    "invariants": lambda draw: draw(st.one_of(
        graph_texts().map(lambda text: (["--graph", "-"], text, None)),
        sequence_literals.map(lambda seq: (["--seq", seq], "", None)),
        spec_literals.map(lambda spec: (["--spec", spec], "", None)),
    )),
    "address verify": lambda draw: (["-"], draw(graph_texts()), draw(scheme_texts)),
    "address search": lambda draw: (
        ["-", "--length", str(draw(integers)), *_option(draw, "--budget", budgets)],
        draw(graph_texts()),
        None,
    ),
    "address exact-n": lambda draw: (
        ["-", *_option(draw, "--budget", budgets)], draw(graph_texts()), None
    ),
    # scales come from -3..3 and from magnitudes above every suite's cap: a
    # mid-size scale below a cap runs in full (`check attach --scale 712`
    # takes about 5 s under tracemalloc). A suite's default runs are timed in
    # test_check_all_default_counts
    "check": lambda draw: (
        [
            draw(st.sampled_from(suites.available_suites())),
            *_option(draw, "--seed", huge),
            "--scale",
            str(draw(st.one_of(
                st.integers(-3, 3),
                st.integers(LARGEST_CAP + 1, 10**20),
                st.integers(-(10**20), -LARGEST_CAP - 1),
            ))),
        ],
        "",
        None,
    ),
}
COMMANDS = leaf_commands(build_parser())


def test_every_command_has_a_fuzz_strategy():
    assert len(COMMANDS) == 16
    assert sorted(ARGUMENTS) == sorted(COMMANDS)


@st.composite
def cli_calls(draw):
    """(argv, stdin, --scheme file content or None) for any command of the
    parser; stdin and the scheme are str, or bytes that are not UTF-8."""
    command = draw(st.sampled_from(COMMANDS))
    arguments, stdin, scheme = ARGUMENTS[command](draw)
    return [*command.split(), *arguments], stdin, scheme


@pytest.fixture(scope="module")
def scheme_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scheme.json"


FUZZ_PEAK = 4 * 2**20  # bytes traced by one call; the calls drawn peak under 1.3 MB


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cli_calls())
def test_cli_fuzz_exit_codes(scheme_file, call):
    argv, stdin, scheme = call
    if scheme is not None:
        scheme_file.write_bytes(scheme if isinstance(scheme, bytes) else scheme.encode())
        argv = [*argv, "--scheme", str(scheme_file)]
    out, err = io.StringIO(), io.StringIO()
    data = stdin if isinstance(stdin, bytes) else stdin.encode()
    fed = mock.patch("sys.stdin", stdin_bytes(data, "surrogateescape"))
    tracemalloc.start()
    try:
        with fed, redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert peak < FUZZ_PEAK, (argv, peak)


def edge_list_reading(text):
    """(n, pairs) of an edge-list text read plainly, with none of
    parse_edge_list's checks, or None where a line is neither one `n <N>`
    header nor `u v`, or where nothing fixes n."""
    n, pairs = None, []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 2:
            return None
        try:
            if tokens[0] == "n" and n is None:
                n = int(tokens[1])
            else:
                pairs.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            return None
    if n is None and not pairs:
        return None
    return (max(map(max, pairs)) if n is None else n), tuple(pairs)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(graph_texts())
def test_parsed_edge_list_is_the_constructors_graph(text):
    # parse_edge_list is the only check on an edge file: it must accept
    # exactly the texts whose plain reading LabeledGraph accepts, and give
    # the same graph, although it builds that graph unchecked
    assume(isinstance(text, str) and not text.lstrip().startswith("{"))
    reading = edge_list_reading(text)
    try:
        want = reading and LabeledGraph(*reading)
    except InputError:
        want = None
    try:
        got = parse_edge_list(text)
    except InputError:
        got = None
    assert got == want, text
    if got is not None:
        assert got.edges == tuple(sorted(got.edges)) and hash(got) == hash(want)
