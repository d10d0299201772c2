"""The benchmark's four workloads: seeded inputs, the calls, and the checks.

Each `make_*` function turns a seed into a Plan: a fixed list of cases, each
of which calls the public API, checks every answer and returns a summary of
it. The benchmark generates every input itself (sequences, anchor vectors,
edge-list text); the program only receives them.

Seeds choose instances, not sizes. Every workload fixes its work mix
independently of the seed (the family keys of `family-sweep`, the orders of
`large-order`, the graph classes of `address-search`, the suite list of
`check-all`), so that runs on different seeds measure comparable work and a
change can be confirmed on a seed that was not used while it was written.

Calls go through module attributes (`graphs.all_pairs_distances(...)`), so a
traced run that rebinds those attributes sees every call the benchmark makes.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from cpgraphs import addressing, cli, formulas, graphs, reduction, sequences

CATALOG = Path(__file__).with_name("graphs_4to6.txt")

SUITES = (
    "fixtures",
    "congruence",
    "constancy",
    "cp2-formulas",
    "linear-2tree",
    "weighted-path",
    "trees",
    "attach",
    "block-inertia",
    "addressing",
    "linalg-crossval",
)
# Seed-independent totals of the default-scale suites.
SUITE_TOTALS = {
    "constancy": {"members": 1773},
    "trees": {"trees": 18248},
    "cp2-formulas": {"specs": 121, "members": 2461},
}


class Checker:
    """Counts checks and remembers the first one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def check(self, ok: bool, label: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = label


@dataclass(frozen=True)
class Case:
    id: str
    checks: int  # checks the case performs when nothing raises
    run: Callable[[Checker], object]  # returns a summary of the answers


@dataclass(frozen=True)
class Plan:
    cases: tuple[Case, ...]
    warm_up: Case
    inputs: object  # JSON-able description of every generated input

    @property
    def expected_checks(self) -> int:
        return sum(c.checks for c in self.cases)


def make_plan(workload: str, seed: int, size: str) -> Plan:
    makers = {
        "family-sweep": make_family_sweep,
        "large-order": make_large_order,
        "address-search": make_address_search,
        "check-all": make_check_all,
    }
    return makers[workload](seed, size)


# -- sequences and members, generated without the program -------------------


def run_starts(q: tuple[int, ...]) -> list[int]:
    """b_k = k - q_k + 1, 1-based (slot 0 unused)."""
    return [0] + [k - q[k - 1] + 1 for k in range(1, len(q) + 1)]


def member_count(q: tuple[int, ...]) -> int:
    b = run_starts(q)
    total = 1
    for k in range(3, len(q) + 1):
        total *= 1 + b[k] - b[k - 1]
    return total


def all_sequences(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    q = [0, 1]

    def rec():
        if len(q) == n:
            out.append(tuple(q))
            return
        for x in range(2, q[-1] + 2):
            q.append(x)
            rec()
            q.pop()

    rec()
    return out


def random_sequence(rng: random.Random, n: int) -> tuple[int, ...]:
    q = [0, 1]
    for _ in range(n - 2):
        q.append(rng.randint(2, q[-1] + 1))
    return tuple(q)


def random_anchors(rng: random.Random, q: tuple[int, ...]) -> tuple[int, ...]:
    """One anchor per step 3..n, each drawn from the members of W_{k-1} below b_k."""
    b = run_starts(q)
    anchors: list[int] = []
    for k in range(3, len(q) + 1):
        prev = {1} if k == 3 else {anchors[-1], *range(b[k - 1], k - 1)}
        anchors.append(rng.choice(sorted(x for x in prev if x < b[k])))
    return tuple(anchors)


def invariants_summary(inv) -> tuple:
    return (inv.det, inv.inertia.as_tuple(), inv.cof)


# -- family-sweep ------------------------------------------------------------

FAMILY_ORDERS = {"full": range(6, 13), "tiny": range(6, 9)}
FAMILIES_PER_ORDER = {"full": 20, "tiny": 1}
TEMPLATE_SEED = 20180527


def make_family_sweep(seed: int, size: str) -> Plan:
    """One case per family: every member is built and reduced.

    A fixed template draw picks, per order, which (order, member count, edge
    count) keys appear; the seed then picks one sequence for each key. The
    member and edge totals, which set the work, are the same on every seed.
    """
    templates = random.Random(TEMPLATE_SEED)
    rng = random.Random(seed)
    cases = []
    inputs = []
    for n in FAMILY_ORDERS[size]:
        by_key: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for q in all_sequences(n):
            by_key.setdefault((member_count(q), sum(q)), []).append(q)
        for _ in range(FAMILIES_PER_ORDER[size]):
            t = random_sequence(templates, n)
            q = rng.choice(by_key[(member_count(t), sum(t))])
            members = member_count(q)
            inputs.append(q)
            s = sequences.NonLeapingSequence(q)
            cases.append(Case(f"family q={q}", members + 2, partial(_family_case, s, members)))
    rng.shuffle(cases)
    warm_up = min(cases, key=lambda c: c.checks)
    return Plan(tuple(cases), warm_up, inputs)


def _family_case(s, members: int, chk: Checker):
    h = reduction.reduced_graph(s).adjacency_matrix()
    seen = 0
    first = None
    for ns in sequences.enumerate_neighborhood_sequences(s):
        g = graphs.build_cp_graph(ns)
        d = graphs.all_pairs_distances(g)
        r = reduction.congruence_reduce(d, reduction.reducing_matrix(ns))
        chk.check(r == h, f"q={s.q} anchors={ns.anchors}: E^T D E differs from A(H)")
        seen += 1
        if first is None:
            first = g
    chk.check(seen == members, f"q={s.q}: enumerated {seen} members, expected {members}")
    fam = formulas.family_invariants(s)
    direct = formulas.distance_invariants(first)
    chk.check(fam == direct, f"q={s.q}: family invariants {fam} != first member's {direct}")
    return (seen, invariants_summary(fam))


# -- large-order -------------------------------------------------------------

LARGE_ORDERS = {"full": (16, 64, 50), "tiny": (16, 20, 2)}  # lowest, highest, count


def make_large_order(seed: int, size: str) -> Plan:
    """2-clique paths and random CP members at a fixed list of orders.

    Each order appears once as a 2-clique path (cliques of 3 to 5 vertices)
    and once as a random member of a random family; the seed picks the
    clique sizes, the sequence and the anchors.
    """
    lo, hi, count = LARGE_ORDERS[size]
    # cubic spacing: the cost grows about as n^3, so small orders come thicker
    orders = [lo + round((hi - lo) * (i / (count - 1)) ** 3) for i in range(count)]
    rng = random.Random(seed)
    cases = []
    inputs = []
    for n in orders:
        parts = []
        left = n - 2
        while left:
            part = rng.choice([x for x in (1, 2, 3) if x <= left])
            parts.append(part + 2)
            left -= part
        spec = sequences.CliquePathSpec(tuple(parts))
        s = sequences.expand_clique_path_spec(spec)
        anchors = random_anchors(rng, s.q)
        inputs.append(["2cp", parts, anchors])
        ns = sequences.NeighborhoodSequence(s, anchors)
        cases.append(Case(f"2-clique path 2:{parts} anchors={anchors}", 3, partial(_large_case, ns, spec)))

        q = random_sequence(rng, n)
        anchors = random_anchors(rng, q)
        inputs.append(["cp", q, anchors])
        ns = sequences.NeighborhoodSequence(sequences.NonLeapingSequence(q), anchors)
        cases.append(Case(f"CP member q={q} anchors={anchors}", 2, partial(_large_case, ns, None)))
    warm_up = cases[0]
    rng.shuffle(cases)
    return Plan(tuple(cases), warm_up, inputs)


def _large_case(ns, spec, chk: Checker):
    s = ns.base
    g = graphs.build_cp_graph(ns)
    d = graphs.all_pairs_distances(g)
    r = reduction.congruence_reduce(d, reduction.reducing_matrix(ns))
    chk.check(r == reduction.reduced_graph(s).adjacency_matrix(), f"n={s.n}: E^T D E differs from A(H)")
    inv = formulas.distance_invariants(g)
    fam = formulas.family_invariants(s)
    chk.check(inv == fam, f"n={s.n}: distance invariants {inv} != family invariants {fam}")
    if spec is not None:
        closed = formulas.cp2_invariants(spec)
        chk.check(inv == closed, f"2:{spec.p}: distance invariants {inv} != closed form {closed}")
    return invariants_summary(inv)


# -- address-search ----------------------------------------------------------

ADDRESS_CLASSES = {"full": None, "tiny": 4}  # None takes the whole catalog


def read_catalog() -> list[tuple[int, int, list[tuple[int, int]]]]:
    out = []
    for line in CATALOG.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        n, length, *edges = line.split()
        out.append((int(n), int(length), [tuple(map(int, e.split("-"))) for e in edges]))
    return out


def make_address_search(seed: int, size: str) -> Plan:
    """Every catalog class once per vertex, with that vertex labelled 1.

    The search visits vertices in BFS order from vertex 1, and which vertex
    that is sets most of its cost, so each class is rooted at every vertex;
    the seed labels the remaining vertices.
    """
    rng = random.Random(seed)
    catalog = read_catalog()[: ADDRESS_CLASSES[size]]
    cases = []
    inputs = []
    for idx, (n, length, edges) in enumerate(catalog):
        for root in range(1, n + 1):
            rest = [v for v in range(1, n + 1) if v != root]
            rng.shuffle(rest)
            label = {root: 1, **{v: i for i, v in enumerate(rest, start=2)}}
            relabeled = sorted(tuple(sorted((label[u], label[v]))) for u, v in edges)
            text = f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in relabeled)
            inputs.append(text)
            g = graphs.LabeledGraph(n, tuple(relabeled))
            cases.append(Case(f"graph {idx} root {root}: {relabeled}", 7, partial(_address_case, text, g, length)))
    warm_up = cases[0]
    rng.shuffle(cases)
    return Plan(tuple(cases), warm_up, inputs)


def call_cli(argv: list[str], stdin_text: str = "") -> tuple[int, dict | None]:
    """cli.main in process, with stdin fed and stdout captured as JSON."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    try:
        payload = json.loads(out.getvalue())
    except json.JSONDecodeError:
        payload = None
    return code, payload


def _address_case(text: str, g, length: int, chk: Checker):
    code, out = call_cli(["address", "exact-n", "-"], text)
    chk.check(code == 0 and out is not None, f"exact-n exited {code}")
    res = out["results"]
    k = res["n"]
    chk.check(k == length, f"exact-n says {k}, the minimum address length is {length}")
    chk.check(k >= res["lower_bound"], f"exact-n {k} is below its lower bound {res['lower_bound']}")
    scheme = addressing.scheme_from_json_obj(res["scheme"]) if "scheme" in res else None
    chk.check(scheme is not None and scheme.d == k, f"exact-n returned no scheme of length {k}")
    chk.check(scheme is not None and addressing.verify_scheme(g, scheme), "exact-n's scheme fails verify_scheme")
    code, out = call_cli(["address", "search", "-", "--length", str(k - 1)], text)
    chk.check(code == 0 and out is not None, f"search --length {k - 1} exited {code}")
    found = out["results"]["found"]
    chk.check(found is False, f"search found a scheme of length {k - 1} below the minimum {k}")
    return (k, res["lower_bound"], tuple(scheme.addresses) if scheme else None, found)


# -- check-all ---------------------------------------------------------------

CHECK_SCALE = {"full": None, "tiny": 3}


def make_check_all(seed: int, size: str) -> Plan:
    """`cpgraphs check <suite>` for each suite; the seed feeds the random suites."""
    scale = CHECK_SCALE[size]
    cases = []
    for suite in SUITES:
        argv = ["check", suite, "--seed", str(seed)]
        totals = {}
        if scale is not None:
            argv += ["--scale", str(scale)]
        else:
            totals = SUITE_TOTALS.get(suite, {})
        cases.append(Case(f"check {suite}", 2 + len(totals), partial(_check_case, suite, argv, totals)))
    warm_up = Case("warm-up", 2, partial(_check_case, "weighted-path", ["check", "weighted-path"], {}))
    return Plan(tuple(cases), warm_up, [seed, scale, list(SUITES)])


def _check_case(suite: str, argv: list[str], totals: dict, chk: Checker):
    code, out = call_cli(argv)
    chk.check(code == 0 and out is not None, f"check {suite} exited {code}")
    chk.check(out["failed"] == 0, f"check {suite}: {out['failed']} failed, first {out['failures'][:1]}")
    for key, want in totals.items():
        got = out["results"].get(key)
        chk.check(got == want, f"check {suite}: {key} = {got}, expected {want}")
    return (out["passed"], out["failed"], json.dumps(out["results"], sort_keys=True))
