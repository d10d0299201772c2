"""Command line front end.

Every command prints one JSON object to stdout (insertion-ordered keys, so
identical inputs give identical bytes; the only moving part is the
wall_time_s field of `check`). DOT output replaces JSON when --dot is given.
Big integers that can outgrow doubles (determinants, cofactor sums, member
counts) are rendered as decimal strings.

Exit codes: 0 success, 1 a verification answered "no" or a suite failed,
2 bad input, 3 a resource guard tripped. Graph and scheme text pass once
through _read_text (unreadable, stdin closed, not UTF-8) and _json
(malformed, over-nested). Output that cannot be written (a closed pipe, a
full device, stdout closed) exits 2 with one error line, through _write.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import islice
from pathlib import Path

from .addressing import (
    exact_n,
    scheme_from_json_obj,
    scheme_to_json_obj,
    search_scheme,
    verify_scheme,
)
from .errors import InputError, ResourceLimit
from .formulas import (
    cp2_invariants,
    distance_invariants,
    family_invariants,
    invariants_to_json_obj,
)
from .graphs import (
    all_pairs_distances,
    attach,
    blocks,
    build_cp_graph,
    graph_from_json_obj,
    graph_to_dot,
    graph_to_json_obj,
    parse_edge_list,
)
from .reduction import (
    reduced_graph,
    reducing_matrix,
    weighted_graph_to_dot,
    weighted_graph_to_json_obj,
)
from .sequences import (
    HeadMismatch,
    LeapViolation,
    LengthTooShort,
    NeighborhoodSequence,
    NonLeapingSequence,
    PartTooSmall,
    count_neighborhood_sequences,
    enumerate_neighborhood_sequences,
    expand_clique_path_spec,
    minimal_anchors,
    parse_anchor_literal,
    parse_sequence_literal,
    parse_spec_literal,
)
from .suites import _grow, member_reduces, run_suite


def _read_text(path: str) -> str:
    """The UTF-8 text at `path` (stdin for "-"). Other bytes are refused from
    either; stdin may hold them as lone surrogates, which do not encode."""
    try:
        if path == "-" and sys.stdin is None:
            raise OSError("standard input is closed")
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        text.encode()
    except (OSError, UnicodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None
    return text


def _write(text: str) -> str | None:
    """Write `text` and a newline to stdout; why that failed, or None."""
    if sys.stdout is None:
        return "standard output is closed"
    try:
        # two writes, as print makes them: a write that a closing pipe cuts
        # short returns its count without an error, and only the next one fails
        print(text, flush=True)
    except OSError as e:
        # the interpreter flushes stdout again at exit; with descriptor 1 on
        # os.devnull (the signal module's documented SIGPIPE recipe) it cannot
        # raise there
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return str(e)
    return None


_ascii = json.encoder.encode_basestring_ascii


def _dumps(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, without the pure-Python
    encoder that indent selects: str keys only, lists and tuples as arrays."""
    if isinstance(obj, str):
        return _ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)  # NaN and the infinities as json writes them
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return f"[{inner}{sep.join([_dumps(x, inner) for x in obj])}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_ascii(k)}: {_dumps(v, inner)}" for k, v in obj.items()]
        return f"{{{inner}{sep.join(items)}{pad}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json(text: str, what: str):
    """The JSON value in `text`; bad syntax, an int literal above the digit
    limit and nesting past the recursion limit are bad input."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise InputError(f"bad JSON {what}: {e}") from None


def parse_graph_input(text: str):
    """Edge-list text, or a JSON object with "n" and "edges"."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json_obj(_json(stripped, "graph"))
    return parse_edge_list(text)


def _load_graph(path: str, command: str):
    """The graph at `path`, with its order checked against the vertex cap of `command`."""
    g = parse_graph_input(_read_text(path))
    _cap_vertices(g.n, command)
    return g


def _member(s: NonLeapingSequence, anchors_literal: str | None) -> NeighborhoodSequence:
    if anchors_literal is None:
        anchors = minimal_anchors(s)
    else:
        anchors = parse_anchor_literal(anchors_literal)
    return NeighborhoodSequence(s, anchors)


class TooManyDigits(ResourceLimit):
    """A count has more decimal digits than the interpreter will render."""


def _decimal(count: int) -> str:
    """count >= 1 as a decimal string, or TooManyDigits naming its digit count."""
    try:
        return str(count)
    except ValueError:
        # (bit_length - 1) log10(2) <= log10(count), so this starts at or below the answer
        digits = int((count.bit_length() - 1) * math.log10(2))
        while 10**digits <= count:
            digits += 1
        raise TooManyDigits(
            f"the member count has {digits} decimal digits, more than the"
            f" {sys.get_int_max_str_digits()} this interpreter renders"
        ) from None


# Desk-scale guards, checked before the work is started. On 2 cores with
# Python 3.11, the 2^16 members of 0,1,2,...,2 (19 terms) are verified in
# about 35 s; the invariants of a 256-vertex graph take about 0.03 s on a
# path and up to about 3 s on random graphs, and that time grows like n^3 or
# faster. family enumerate prints a JSON line per anchor, so it lists at
# most MAX_ANCHORS anchors in all: 2^18 of them (members of 1000 vertices)
# take about 0.2 s, 3 MB of JSON and 40 MB.
MAX_MEMBERS = 2**16
MAX_ANCHORS = 2**18
MAX_VERTICES = 256


class OverCap(ResourceLimit):
    """An input is larger than a command's guard allows."""


def _cap_members(total: int, hint: str) -> None:
    if total > MAX_MEMBERS:
        raise OverCap(f"the family has more than {MAX_MEMBERS} members; {hint}")


def _cap_vertices(n: int, command: str) -> None:
    if n > MAX_VERTICES:
        raise OverCap(f"order {n} is above the {MAX_VERTICES}-vertex cap of {command}")


def _cap_shorthand(text: str, command: str) -> None:
    """Check the order of `text`, if it is clique-path shorthand, against the
    vertex cap of `command` before it is expanded. Plain literals pass."""
    if ":" in text:
        _cap_vertices(parse_spec_literal(text).n, command)


def _capped_sequence(text: str, command: str) -> NonLeapingSequence:
    """The sequence literal `text`, with its order checked against the vertex
    cap of `command`, for clique-path shorthand before it is expanded."""
    _cap_shorthand(text, command)
    s = parse_sequence_literal(text)
    _cap_vertices(s.n, command)
    return s


def _report(command: str, inputs: dict, results: dict, **extra) -> dict:
    out = {"command": command, "inputs": inputs, "results": results}
    out.update(extra)
    return out


# -- handlers; each returns (payload or raw text, exit code) -----------------


def _cmd_seq_validate(args) -> tuple[dict, int]:
    inputs = {"sequence": args.sequence}
    try:
        _cap_shorthand(args.sequence, "seq validate")
        s = parse_sequence_literal(args.sequence)
    except (LengthTooShort, HeadMismatch, LeapViolation, PartTooSmall) as e:
        return _report("seq validate", inputs, {"ok": False, "reason": str(e)}), 1
    results = {"ok": True, "q": list(s.q), "b": list(s.b), "n": s.n}
    return _report("seq validate", inputs, results), 0


def _cmd_seq_expand(args) -> tuple[dict, int]:
    spec = parse_spec_literal(args.spec)
    _cap_vertices(spec.n, "seq expand")
    s = expand_clique_path_spec(spec)
    results = {"p": list(spec.p), "q": list(s.q), "b": list(s.b), "n": s.n}
    return _report("seq expand", {"spec": args.spec}, results), 0


def _cmd_family_enumerate(args) -> tuple[dict, int]:
    _cap_shorthand(args.sequence, "family enumerate")
    s = parse_sequence_literal(args.sequence)
    total = count_neighborhood_sequences(s)
    total_text = _decimal(total)
    if args.limit is not None and args.limit < 0:
        raise InputError(f"--limit must be nonnegative, got {args.limit}")
    # the members listed, which also keeps islice's stop within sys.maxsize
    shown = total if args.limit is None else min(args.limit, total)
    _cap_members(shown, f"pass a --limit of at most {MAX_MEMBERS} to list some of them")
    if shown * (s.n - 2) > MAX_ANCHORS:
        raise OverCap(
            f"{shown} members of {s.n - 2} anchors each are more than the {MAX_ANCHORS}"
            " anchors family enumerate lists; pass a smaller --limit"
        )
    members = [list(ns.anchors) for ns in islice(enumerate_neighborhood_sequences(s), shown)]
    results = {
        "q": list(s.q),
        "count": len(members),
        "total": total_text,
        "truncated": len(members) < total,
        "anchors": members,
    }
    return _report("family enumerate", {"sequence": args.sequence, "limit": args.limit}, results), 0


def _cmd_family_count(args) -> tuple[dict, int]:
    _cap_shorthand(args.sequence, "family count")
    s = parse_sequence_literal(args.sequence)
    results = {"q": list(s.q), "members": _decimal(count_neighborhood_sequences(s))}
    return _report("family count", {"sequence": args.sequence}, results), 0


def _cmd_graph_build(args):
    ns = _member(_capped_sequence(args.sequence, "graph build"), args.anchors)
    g = build_cp_graph(ns)
    if args.dot:
        return graph_to_dot(g), 0
    results = dict(graph_to_json_obj(g))
    results["anchors"] = list(ns.anchors)
    inputs = {"sequence": args.sequence, "anchors": args.anchors}
    return _report("graph build", inputs, results), 0


def _cmd_graph_distance(args) -> tuple[dict, int]:
    g = _load_graph(args.graph, "graph distance")
    d = all_pairs_distances(g)
    results = {"n": g.n, "distances": [list(row) for row in d.rows]}
    return _report("graph distance", {"graph": args.graph}, results), 0


def _cmd_graph_blocks(args) -> tuple[dict, int]:
    g = _load_graph(args.graph, "graph blocks")
    out = []
    for b in blocks(g):
        edges = [[b.vertices[u - 1], b.vertices[v - 1]] for u, v in b.graph.edges]
        out.append({"vertices": list(b.vertices), "edges": edges})
    results = {"n": g.n, "count": len(out), "blocks": out}
    return _report("graph blocks", {"graph": args.graph}, results), 0


def _cmd_graph_attach(args):
    base = _load_graph(args.base, "graph attach")
    try:
        u, v = (int(x) for x in args.edge.split(","))
    except ValueError as e:
        raise InputError(f"--edge wants two comma-separated integers, got {args.edge!r}") from e
    ns = _member(_capped_sequence(args.cp_seq, "graph attach"), args.cp_anchors)
    result = attach(base, (u, v), build_cp_graph(ns))
    if args.dot:
        return graph_to_dot(result.graph), 0
    payload = dict(graph_to_json_obj(result.graph))
    payload["cp_map"] = {str(k): w for k, w in sorted(result.cp_map.items())}
    inputs = {
        "base": args.base,
        "edge": [u, v],
        "cp_seq": args.cp_seq,
        "cp_anchors": args.cp_anchors,
    }
    return _report("graph attach", inputs, payload), 0


def _cmd_reduce_graph(args):
    _cap_shorthand(args.sequence, "reduce graph")
    s = parse_sequence_literal(args.sequence)
    h = reduced_graph(s)
    if args.dot:
        return weighted_graph_to_dot(h), 0
    results = dict(weighted_graph_to_json_obj(h))
    results["q"] = list(s.q)
    return _report("reduce graph", {"sequence": args.sequence}, results), 0


def _cmd_reduce_matrix(args) -> tuple[dict, int]:
    s = _capped_sequence(args.sequence, "reduce matrix")
    ns = _member(s, args.anchors)
    e = reducing_matrix(ns)
    results = {"q": list(ns.base.q), "anchors": list(ns.anchors), "e": e.to_json_rows()}
    inputs = {"sequence": args.sequence, "anchors": args.anchors}
    return _report("reduce matrix", inputs, results), 0


def _cmd_reduce_verify(args) -> tuple[dict, int]:
    s = _capped_sequence(args.sequence, "reduce verify")
    inputs = {"sequence": args.sequence, "anchors": args.anchors}
    h = reduced_graph(s).adjacency_matrix()
    if args.anchors is not None:
        total = 1
        ns = NeighborhoodSequence(s, parse_anchor_literal(args.anchors))
        bad = [] if member_reduces(ns, h) else [list(ns.anchors)]
    else:
        total = count_neighborhood_sequences(s)
        _cap_members(total, "pass --anchors to verify one member")
        bad = [list(a) for _, a, _, ok in _grow([s], lambda _: h) if not ok]
    results = {
        "q": list(s.q),
        "members": total,
        "ok": not bad,
        "reduced": h.to_json_rows(),
    }
    if bad:
        results["mismatched_anchors"] = bad
    return _report("reduce verify", inputs, results), 0 if not bad else 1


def _cmd_invariants(args) -> tuple[dict, int]:
    if args.graph is not None:
        g = _load_graph(args.graph, "invariants")
        inv = distance_invariants(g)
        source = {"source": "graph", "graph": args.graph}
    elif args.seq is not None:
        s = _capped_sequence(args.seq, "invariants")
        inv = family_invariants(s)
        source = {"source": "family", "sequence": args.seq}
    else:
        inv = cp2_invariants(parse_spec_literal(args.spec))
        source = {"source": "spec", "spec": args.spec}
    return _report("invariants", source, invariants_to_json_obj(inv)), 0


def _cmd_address_verify(args) -> tuple[dict, int]:
    g = _load_graph(args.graph, "address verify")
    scheme = scheme_from_json_obj(_json(_read_text(args.scheme), "scheme"))
    ok = verify_scheme(g, scheme)
    inputs = {"graph": args.graph, "scheme": args.scheme}
    return _report("address verify", inputs, {"ok": ok}), 0 if ok else 1


def _budget(args) -> int | None:
    if args.budget < 0:
        raise InputError(f"--budget must be nonnegative (0 = unlimited), got {args.budget}")
    return None if args.budget == 0 else args.budget


def _cmd_address_search(args) -> tuple[dict, int]:
    g = _load_graph(args.graph, "address search")
    scheme = search_scheme(g, args.length, budget=_budget(args))
    inputs = {"graph": args.graph, "length": args.length, "budget": args.budget}
    if scheme is None:
        return _report("address search", inputs, {"found": False}), 0
    results = {"found": True, "scheme": scheme_to_json_obj(scheme)}
    return _report("address search", inputs, results), 0


def _cmd_address_exact_n(args) -> tuple[dict, int]:
    g = _load_graph(args.graph, "address exact-n")
    lb, scheme = exact_n(g, budget=_budget(args))
    results = {"n": scheme.d, "lower_bound": lb, "scheme": scheme_to_json_obj(scheme)}
    inputs = {"graph": args.graph, "budget": args.budget}
    return _report("address exact-n", inputs, results), 0


def _cmd_check(args) -> tuple[dict, int]:
    report = run_suite(args.suite, seed=args.seed, scale=args.scale)
    obj = report.to_json_obj()
    inputs = {key: obj.pop(key) for key in ("suite", "seed", "scale")}
    return _report("check", inputs, **obj), 0 if report.ok else 1


# -- wiring ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, since parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="cpgraphs",
        description="Construct, enumerate, and analyze CP graphs and 2-clique paths.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="sequence utilities").add_subparsers(
        dest="action", required=True
    )
    q = seq.add_parser("validate", help="check a sequence literal")
    q.add_argument("sequence")
    q.set_defaults(fn=_cmd_seq_validate)
    q = seq.add_parser("expand", help="expand clique-path shorthand")
    q.add_argument("spec")
    q.set_defaults(fn=_cmd_seq_expand)

    fam = sub.add_parser("family", help="anchor-choice families").add_subparsers(
        dest="action", required=True
    )
    q = fam.add_parser("enumerate", help="list all anchor vectors")
    q.add_argument("sequence")
    q.add_argument("--limit", type=int, default=None)
    q.set_defaults(fn=_cmd_family_enumerate)
    q = fam.add_parser("count", help="count anchor vectors")
    q.add_argument("sequence")
    q.set_defaults(fn=_cmd_family_count)

    gr = sub.add_parser("graph", help="graph construction and analysis").add_subparsers(
        dest="action", required=True
    )
    q = gr.add_parser("build", help="build one family member")
    q.add_argument("sequence")
    q.add_argument("--anchors", default=None, help="comma-separated; smallest choices if omitted")
    q.add_argument("--dot", action="store_true")
    q.set_defaults(fn=_cmd_graph_build)
    q = gr.add_parser("distance", help="all-pairs distance matrix")
    q.add_argument("graph", help="edge-list or JSON file, - for stdin")
    q.set_defaults(fn=_cmd_graph_distance)
    q = gr.add_parser("blocks", help="biconnected components")
    q.add_argument("graph")
    q.set_defaults(fn=_cmd_graph_blocks)
    q = gr.add_parser("attach", help="glue a CP graph onto a base edge")
    q.add_argument("base", help="base graph file")
    q.add_argument("--edge", required=True, help="u,v: base edge receiving vertices 1,2")
    q.add_argument("--cp-seq", required=True, dest="cp_seq")
    q.add_argument("--cp-anchors", default=None, dest="cp_anchors")
    q.add_argument("--dot", action="store_true")
    q.set_defaults(fn=_cmd_graph_attach)

    rd = sub.add_parser("reduce", help="reduced graph and reducing matrix").add_subparsers(
        dest="action", required=True
    )
    q = rd.add_parser("graph", help="weighted reduced graph of a sequence")
    q.add_argument("sequence")
    q.add_argument("--dot", action="store_true")
    q.set_defaults(fn=_cmd_reduce_graph)
    q = rd.add_parser("matrix", help="reducing matrix of a member")
    q.add_argument("sequence")
    q.add_argument("--anchors", default=None)
    q.set_defaults(fn=_cmd_reduce_matrix)
    q = rd.add_parser("verify", help="check E^T D E against the reduced graph")
    q.add_argument("sequence")
    q.add_argument("--anchors", default=None, help="verify one member; all members if omitted")
    q.set_defaults(fn=_cmd_reduce_verify)

    q = sub.add_parser("invariants", help="det, inertia, cofactor sum")
    grp = q.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph", help="distance-matrix invariants of a graph file")
    grp.add_argument("--seq", help="shared invariants of a whole family")
    grp.add_argument("--spec", help="closed-form invariants of a 2-clique-path spec")
    q.set_defaults(fn=_cmd_invariants)

    ad = sub.add_parser("address", help="Graham-Pollak style addressing").add_subparsers(
        dest="action", required=True
    )
    q = ad.add_parser("verify", help="check a scheme file against a graph")
    q.add_argument("graph")
    q.add_argument("--scheme", required=True)
    q.set_defaults(fn=_cmd_address_verify)
    q = ad.add_parser("search", help="look for a scheme of a given length")
    q.add_argument("graph")
    q.add_argument("--length", type=int, required=True)
    q.add_argument("--budget", type=int, default=10_000_000, help="search-node cap, 0 = unlimited")
    q.set_defaults(fn=_cmd_address_search)
    q = ad.add_parser("exact-n", help="minimum address length")
    q.add_argument("graph")
    q.add_argument("--budget", type=int, default=10_000_000)
    q.set_defaults(fn=_cmd_address_exact_n)

    q = sub.add_parser("check", help="run a verification suite")
    q.add_argument("suite")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--scale", type=int, default=None)
    q.set_defaults(fn=_cmd_check)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        payload, code = args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    failed = _write(payload.rstrip("\n") if isinstance(payload, str) else _dumps(payload))
    if failed:
        print(f"error: cannot write standard output: {failed}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
