import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgraphs import addressing, cli, suites
from cpgraphs.addressing import AddressScheme
from cpgraphs.cli import build_parser, main, parse_graph_input
from cpgraphs.graphs import LabeledGraph, path_graph


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
    code, obj = run_json(capsys, "reduce", "verify", over, "--anchors", ",".join(["1"] * 18))
    assert code == 0 and obj["results"]["members"] == 1
    # a family of exactly the cap still runs
    sixteen = "0,1,2,2,2,2,3,3"
    monkeypatch.setattr(cli, "MAX_MEMBERS", 16)
    assert run_json(capsys, "family", "enumerate", sixteen)[1]["results"]["count"] == 16
    assert run_json(capsys, "reduce", "verify", sixteen)[1]["results"]["members"] == 16
    monkeypatch.setattr(cli, "MAX_MEMBERS", 15)
    assert_guard_tripped(capsys, "family", "enumerate", sixteen)
    assert_guard_tripped(capsys, "reduce", "verify", sixteen)


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
    real = cli._walk
    monkeypatch.setattr(
        cli,
        "_walk",
        lambda s, h: ((ns, d, ok and ns.anchors != (1, 2, 2, 4, 4, 5)) for ns, d, ok in real(s, h)),
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


def _literal(terms):
    return ",".join(map(str, terms))


sequence_literals = st.one_of(
    st.lists(st.integers(-1, 5), max_size=10).map(_literal),
    # longer than the recursion limit in force (hypothesis raises it while it
    # runs a test), valid or leaping at the end
    st.tuples(st.integers(0, 500), st.sampled_from([2, 3, 4])).map(
        lambda t: _literal([0, 1] + [2] * (sys.getrecursionlimit() + t[0]) + [t[1]])
    ),
    st.text(alphabet="0123456789,: -x", max_size=12),
)


@st.composite
def graph_texts(draw):
    n = draw(st.integers(0, 6))
    pairs = draw(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=10))
    if draw(st.booleans()):
        return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    return draw(st.text(alphabet="0123456789 n#\n{}", max_size=20))


budgets = st.one_of(st.integers(-50, -1), st.just(0), st.integers(1, 300))


@st.composite
def cli_calls(draw):
    """(argv, stdin text): family enumerate, reduce verify, address search or
    address exact-n."""
    kind = draw(st.sampled_from(["enumerate", "verify", "search", "exact-n"]))
    if kind == "enumerate":
        literal = draw(sequence_literals)
        argv = ["family", "enumerate", literal]
        # an unlimited enumeration of a long sequence trips the member cap
        if draw(st.booleans()):
            argv += ["--limit", str(draw(st.integers(-2, 3)))]
        return argv, ""
    if kind == "verify":
        return ["reduce", "verify", draw(sequence_literals)], ""
    argv = ["address", kind, "-"]
    if kind == "search":
        argv += ["--length", str(draw(st.integers(-3, 13)))]
    if draw(st.booleans()):
        argv += ["--budget", str(draw(budgets))]
    return argv, draw(graph_texts())


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cli_calls())
def test_cli_fuzz_exit_codes(call):
    argv, stdin = call
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
