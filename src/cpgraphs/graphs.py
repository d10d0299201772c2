"""Labeled simple graphs, CP construction, distances, attachment, blocks.

Vertices are labeled 1..n everywhere; edges are stored as sorted (u, v)
pairs with u < v. Instances stay small (the acceptance suites top out in the
low hundreds of vertices). The distance matrix comes from one multi-source
BFS whose frontiers are Python ints with one lane per vertex, so each step
ORs whole rows at C speed; blocks come from a textbook Hopcroft-Tarjan
decomposition.

A graph is immutable, so its distance matrix is computed once per graph
object and kept in its __dict__. A graph that build_cp_graph makes from an
enumerated member keeps that member as `_member` (see sequences): while it
is the walk's current member, D is read off the rows the walk's store
shares, copied out and given the same `_member` (for
reduction.congruence_reduce), and once the walk has moved on, the BFS runs
as for any other graph. Such a graph builds its edges only when they are
first read (LabeledGraph.__getattr__), from its member, so a walk that
reads only D never sorts an edge list. Nothing here is kept by equality:
such a table would hold every graph seen, and would make a rerun on equal
inputs cheaper than the first, so timing reruns would measure the
repetition. The one exception in the package is addressing._layout, a
one-entry cache keyed by graph equality.

Validation happens once, where a graph enters from outside: parse_edge_list
checks each edge of an edge file with its line number, and the LabeledGraph
constructor (behind JSON and user calls) range-checks, orders and
deduplicates every edge. Parsed edge files and graphs built from a valid
neighborhood sequence or Pruefer code go through the private LabeledGraph._of,
which assumes sorted, distinct pairs 1 <= u < v <= n and checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from struct import Struct
from typing import NamedTuple

from .errors import InputError
from .matrices import IntMatrix
from .sequences import NeighborhoodSequence


class Disconnected(InputError):
    """The operation needs a connected graph."""


class EdgeNotInBase(InputError):
    """The requested attachment site is not an edge of the base graph."""


class SelfLoop(InputError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(InputError):
    """The same edge appears twice."""


class ParseError(InputError):
    """Malformed edge-list text."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class LabeledGraph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise InputError("vertex count must be nonnegative")
        seen = set()
        norm = []
        for e in self.edges:
            u, v = e
            if u == v:
                raise SelfLoop(f"self loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (1 <= u and v <= self.n):
                raise InputError(f"edge ({u}, {v}) outside 1..{self.n}")
            if (u, v) in seen:
                raise DuplicateEdge(f"edge ({u}, {v}) repeated")
            seen.add((u, v))
            norm.append((u, v))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @classmethod
    def _of(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "LabeledGraph":
        """Wrap edges without checking them. Precondition: n >= 0 and edges is a
        sorted tuple of distinct (u, v) with 1 <= u < v <= n; the graph then
        equals, and hashes like, LabeledGraph(n, edges)."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    def __getattr__(self, name: str):
        # reached only for a missing attribute: the edges build_cp_graph left
        # unbuilt are built here, from the graph's member, on first read
        memo = self.__dict__
        if name != "edges" or "_member" not in memo:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "edges", _cp_edges(memo["_member"]))
        return self.edges


def path_graph(n: int) -> LabeledGraph:
    return LabeledGraph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> LabeledGraph:
    if n < 3:
        raise InputError("cycles need at least three vertices")
    return LabeledGraph(n, tuple((i, i + 1) for i in range(1, n)) + ((1, n),))


def complete_graph(n: int) -> LabeledGraph:
    return LabeledGraph(n, tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1)))


def build_cp_graph(ns: NeighborhoodSequence) -> LabeledGraph:
    """Realize a neighborhood sequence: join each vertex k to its window
    W_k = {a_k} + [b_k, k-1] (W_2 = {1}).

    The graph of an enumerated member keeps the member, for
    all_pairs_distances, and builds its edges from it on first read, so they
    hold after the walk moves on. Any other member's graph keeps its edges
    alone."""
    if "_prefix" not in ns.__dict__:
        return LabeledGraph._of(ns.n, _cp_edges(ns))
    g = object.__new__(LabeledGraph)
    g.__dict__.update(n=ns.n, _member=ns)
    return g


def _cp_edges(ns: NeighborhoodSequence) -> tuple[tuple[int, int], ...]:
    """The sorted edges of build_cp_graph(ns)."""
    edges = [(1, 2)]
    for k, a, bk in zip(range(3, ns.n + 1), ns.anchors, ns.base.b[2:]):
        edges.append((a, k))
        edges += [(w, k) for w in range(bk, k)]
    # a_k < b_k, so each pair (w, k) arises once, at step k
    edges.sort()
    return tuple(edges)


# (lane bits, struct code) for all_pairs_distances, narrowest first
_LANES = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))


def all_pairs_distances(g: LabeledGraph) -> IntMatrix:
    """The distance matrix, by one BFS from every vertex at once.

    reach[v] is a Python int with one lane of `width` bits per vertex; lane w
    holds 1 once w lies within the current level of v. One pass over the
    edges builds the neighbour lists and seeds level 1; each step ORs every
    vertex's neighbours' reach sets into its own, and acc[v] += full ^ reach[v]
    adds 1 to lane w at each level where w is still unreached, so lane w ends
    at d(v, w). OR sets single bits, and acc's lanes only climb by 0 or 1 to
    d(v, w) <= n - 1 < 2**width, so no lane ever carries into the next. A
    step that adds nothing while a lane is missing means a disconnected graph.

    D is stored on g (see the module docstring): later calls for the same
    object return it, an equal graph built anew computes its own, and a
    disconnected graph stores nothing and raises on every call. The graph
    of the walk's current member copies D from the shared rows instead of
    running the BFS, and keeps the member on that D.
    """
    memo = g.__dict__
    if "_distances" in memo:
        return memo["_distances"]
    member = memo.get("_member")
    if member is not None:
        prefix, serial = member._prefix  # the walk's shared rows, the member's serial
        rows = prefix.rows_at(serial)
        if rows is not None:
            d = IntMatrix._of(tuple(map(tuple, rows)))
            d.__dict__["_member"] = member  # for congruence_reduce
            memo["_distances"] = d
            return d
    n = g.n
    width, code = next(lane for lane in _LANES if n <= 1 << lane[0])
    bit = [1 << (width * v) for v in range(n)]
    full = sum(bit)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    reach = bit[:]
    for u, v in g.edges:
        u -= 1
        v -= 1
        nbrs[u].append(v)
        nbrs[v].append(u)
        reach[u] |= bit[v]
        reach[v] |= bit[u]
    acc = [full ^ b for b in bit]  # level 0: every lane but v's own unreached
    while reach.count(full) < n:
        grown, counted = [], []
        for r, nb, a in zip(reach, nbrs, acc):
            if r != full:
                a += full ^ r
                for w in nb:
                    r |= reach[w]
            grown.append(r)
            counted.append(a)
        if grown == reach:
            raise Disconnected("vertex 1 cannot reach every vertex")
        reach, acc = grown, counted
    # little-endian standard sizes: the same lanes on every platform
    row = Struct(f"<{n}{code}").unpack
    d = IntMatrix._of(tuple([row(a.to_bytes(n * width // 8, "little")) for a in acc]))
    memo["_distances"] = d
    return d


class AttachResult(NamedTuple):
    graph: LabeledGraph
    cp_map: dict[int, int]  # CP vertex label -> label in the combined graph


def attach(base: LabeledGraph, edge: tuple[int, int], cp: LabeledGraph) -> AttachResult:
    """Glue a CP graph onto an edge of the base.

    The edge is an ordered pair (v1, v2): CP vertex 1 lands on v1, CP vertex
    2 on v2, and the remaining CP vertices get fresh labels above base.n in
    order. The CP graph must carry its initial edge {1, 2}.
    """
    v1, v2 = edge
    if v1 == v2:
        raise SelfLoop(f"attachment edge ({v1}, {v2}) is degenerate")
    if (min(edge), max(edge)) not in base.edges:
        raise EdgeNotInBase(f"({v1}, {v2}) is not an edge of the base graph")
    if (1, 2) not in cp.edges:
        raise InputError("attached graph must contain the edge {1, 2}")
    cp_map = {1: v1, 2: v2}
    for k in range(3, cp.n + 1):
        cp_map[k] = base.n + k - 2
    edges = set(base.edges)
    for u, v in cp.edges:
        a, b = cp_map[u], cp_map[v]
        edges.add((min(a, b), max(a, b)))
    return AttachResult(LabeledGraph(base.n + cp.n - 2, tuple(sorted(edges))), cp_map)


@dataclass(frozen=True)
class Block:
    """A maximal 2-connected piece (or bridge), relabeled to 1..len(vertices).

    vertices[i] is the original label of the block's vertex i+1; the list is
    ascending, so the relabeling is order-preserving.
    """

    graph: LabeledGraph
    vertices: tuple[int, ...]


def blocks(g: LabeledGraph) -> list[Block]:
    """Block decomposition, sorted by smallest original vertex label.

    Hopcroft-Tarjan depth-first search with an edge stack, kept on an
    explicit stack so long paths cannot hit the recursion limit; each popped
    edge batch is one block. Isolated vertices contribute no blocks.
    """
    if g.n == 0:
        return []
    # edges are sorted with u < v, so each neighbour list comes out ascending
    adj: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    timer = 1
    edge_stack: list[tuple[int, int]] = []
    out: list[list[tuple[int, int]]] = []

    for s in range(1, g.n + 1):
        if disc[s]:
            continue
        disc[s] = low[s] = timer
        timer += 1
        stack = [(s, 0, iter(adj[s]))]  # (vertex, DFS parent, unvisited neighbours)
        while stack:
            u, parent, nbrs = stack[-1]
            for w in nbrs:
                if disc[w] == 0:
                    edge_stack.append((u, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, u, iter(adj[w])))
                    break
                if w != parent and disc[w] < disc[u]:
                    edge_stack.append((u, w))
                    low[u] = min(low[u], disc[w])
            else:  # u is finished
                stack.pop()
                if not parent:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    batch = []
                    while True:
                        e = edge_stack.pop()
                        batch.append(e)
                        if e == (parent, u):
                            break
                    out.append(batch)

    result = []
    for batch in out:
        verts = sorted({v for e in batch for v in e})
        relabel = {v: i + 1 for i, v in enumerate(verts)}
        bedges = tuple(
            (min(relabel[u], relabel[w]), max(relabel[u], relabel[w])) for u, w in batch
        )
        result.append(Block(LabeledGraph(len(verts), bedges), tuple(verts)))
    result.sort(key=lambda b: b.vertices)
    return result


def parse_edge_list(text: str) -> LabeledGraph:
    """Read the plain text format: one `u v` pair per line.

    `#` starts a comment, blank lines are skipped, and an optional `n <N>`
    line fixes the vertex count (otherwise the largest label wins). Every
    edge is checked here, so the graph is built unchecked.
    """
    n_declared = None
    pairs: list[tuple[int, int]] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if len(tokens) != 2 or n_declared is not None:
                raise ParseError(lineno, "header must be a single `n <N>` line")
            try:
                n_declared = int(tokens[1])
            except ValueError:
                raise ParseError(lineno, f"bad vertex count {tokens[1]!r}") from None
            if n_declared < 0:
                raise ParseError(lineno, "vertex count must be nonnegative")
            continue
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected `u v`, got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"expected integers, got {line!r}") from None
        if u == v:
            raise SelfLoop(f"line {lineno}: self loop at vertex {u}")
        if u < 1 or v < 1:
            raise ParseError(lineno, "vertex labels start at 1")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"line {lineno}: edge {key} repeated")
        seen.add(key)
        pairs.append(key)
    if n_declared is None and not pairs:
        raise ParseError(0, "no edges and no `n <N>` header")
    n = n_declared if n_declared is not None else max(v for e in pairs for v in e)
    if n_declared is not None:
        for u, v in pairs:
            if v > n:
                raise ParseError(0, f"edge ({u}, {v}) exceeds declared n = {n}")
    return LabeledGraph._of(n, tuple(sorted(pairs)))


def graph_to_json_obj(g: LabeledGraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def graph_from_json_obj(obj: dict) -> LabeledGraph:
    # index() refuses floats and numeric strings; no silent rounding
    try:
        n = index(obj["n"])
        edges = tuple((index(u), index(v)) for u, v in obj["edges"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InputError(f"bad graph object: {e}") from None
    return LabeledGraph(n, edges)


def graph_to_dot(g: LabeledGraph) -> str:
    lines = ["graph G {"]
    for v in range(1, g.n + 1):
        lines.append(f"  {v};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
