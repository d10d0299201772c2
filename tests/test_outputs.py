"""Recorded CLI outputs: exit code, stderr and a hash of stdout per command.

tests/data/outputs.json holds, for each command below, its exit code, its
stderr and the sha256 of its stdout, with check's "wall_time_s" masked. A
change that moves any of them, such as an error text, a JSON field or a
failure label, fails here even when every pass count stays the same.

Regenerate the record after an intended output change with

    PYTHONPATH=src python tests/test_outputs.py

and say which entries moved, and why.
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from cpgraphs.cli import main
from cpgraphs.fixtures import FIXTURE_NAMES, fixture_text

RECORD = Path(__file__).parent / "data" / "outputs.json"


def _path(n):
    return "".join(f"{v} {v + 1}\n" for v in range(1, n))


def _catalogue():
    """(order, minimum address length, edge-list text) of each graph in the
    benchmark's catalogue of connected graphs on 4 to 6 vertices."""
    path = Path(__file__).parents[1] / "bench" / "graphs_4to6.txt"
    out = []
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            n, k, *edges = line.split()
            out.append((n, int(k), f"n {n}\n" + "".join(e.replace("-", " ") + "\n" for e in edges)))
    return out


# name -> edge-list text, fed on stdin
GRAPHS = {
    **{f"fixture {name}": fixture_text(name) for name in FIXTURE_NAMES},
    "n 0": "n 0\n",
    "n 1": "n 1\n",
    "1 2": "1 2\n",
    "disconnected": "n 4\n1 2\n3 4\n",
    "path 256": _path(256),
    "path 256 squared": _path(256) + "".join(f"{v} {v + 2}\n" for v in range(1, 255)),
}
C5 = "n 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
ATTACH = ["graph", "attach", "-", "--cp-seq", "0,1,2,2,3", "--edge"]
# each command that reads a graph, on a path above the 256-vertex cap (exit 3);
# address verify refuses the graph before it opens the scheme file
CAPPED = {
    "graph distance": ["graph", "distance", "-"],
    "graph blocks": ["graph", "blocks", "-"],
    "graph attach": ["graph", "attach", "-", "--edge", "1,2", "--cp-seq", "0,1,2"],
    "invariants": ["invariants", "--graph", "-"],
    "address verify": ["address", "verify", "-", "--scheme", "scheme.json"],
    "address search": ["address", "search", "-", "--length", "3"],
    "address exact-n": ["address", "exact-n", "-"],
}


def calls():
    """label -> (argv, stdin text) for every recorded command."""
    out = {}
    for name, text in GRAPHS.items():
        for argv in (["graph", "distance", "-"], ["graph", "blocks", "-"], ["invariants", "--graph", "-"]):
            out[f"{' '.join(argv[:-1])} < {name}"] = (argv, text)
    for edge in ("2,3", "3,2", "1,3"):
        out[f"graph attach C5 --edge {edge}"] = ([*ATTACH, edge], C5)
    out["graph attach C5 --edge 2,3 --dot"] = ([*ATTACH, "2,3", "--dot"], C5)
    for command, argv in CAPPED.items():
        out[f"{command} < path 257"] = (argv, _path(257))
    for i, (n, k, text) in enumerate(_catalogue()):
        out[f"address exact-n < catalogue {i} (order {n})"] = (["address", "exact-n", "-"], text)
        search = ["address", "search", "-", "--length", str(k - 1)]
        out[f"address search --length {k - 1} < catalogue {i} (order {n})"] = (search, text)
    for limit in (None, "0", "2", "-1", str(10**20)):
        argv = ["family", "enumerate", "0,1,2,2,3"] + (["--limit", limit] if limit else [])
        out[" ".join(argv)] = (argv, "")
    for sequence, anchors in (("0,1,2,2,3", "1,2,2"), ("0,1,2,3,3,2", "1,1,2,4")):
        for action in ("verify", "matrix"):
            argv = ["reduce", action, sequence, "--anchors", anchors]
            out[" ".join(argv)] = (argv, "")
    out["check attach"] = (["check", "attach"], "")
    out["check all"] = (["check", "all"], "")
    out["check all --seed 7"] = (["check", "all", "--seed", "7"], "")
    out["check all --scale 5"] = (["check", "all", "--scale", "5"], "")
    return out


def outcome(argv, stdin):
    """{"exit", "stderr", "stdout_sha256"} of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    stdout = re.sub(r'"wall_time_s": [-+.0-9eE]+', '"wall_time_s": null', out.getvalue())
    return {
        "exit": code,
        "stderr": err.getvalue(),
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
    }


def outcomes():
    return {label: outcome(*call) for label, call in calls().items()}


def test_outputs_match_the_record():
    recorded = json.loads(RECORD.read_text())
    got = outcomes()
    assert sorted(got) == sorted(recorded)
    moved = [label for label in got if got[label] != recorded[label]]
    assert not moved, {label: (recorded[label], got[label]) for label in moved}


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(outcomes(), indent=2) + "\n")
    print(f"wrote {RECORD}", file=sys.stderr)
