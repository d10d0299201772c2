"""Labeled simple graphs, CP construction, distances, attachment, blocks.

Vertices are labeled 1..n everywhere; edges are stored as sorted (u, v)
pairs with u < v. Instances stay small (the acceptance suites top out in the
low hundreds of vertices), so plain BFS and a textbook block decomposition
are all the machinery needed.

Validation happens once, where a graph enters from outside: the LabeledGraph
constructor (behind edge files, JSON and user calls) range-checks, orders and
deduplicates every edge. Graphs built from an already-valid neighborhood
sequence or Pruefer code go through the private LabeledGraph._of, which
assumes sorted, distinct (u, v) pairs with 1 <= u < v <= n and checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

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

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        # edges are sorted with u < v, so each list is already ascending
        return tuple(map(tuple, nbrs))

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise InputError(f"vertex {v} outside 1..{self.n}")
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)


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
    W_k = {a_k} + [b_k, k-1] (W_2 = {1})."""
    edges = [(1, 2)]
    for k, a, bk in zip(range(3, ns.n + 1), ns.anchors, ns.base.b[2:]):
        edges.append((a, k))
        edges += [(w, k) for w in range(bk, k)]
    # a_k < b_k, so each pair (w, k) arises once, at step k
    edges.sort()
    return LabeledGraph._of(ns.n, tuple(edges))


def is_connected(g: LabeledGraph) -> bool:
    return g.n == 0 or -1 not in bfs_distances(g, 1)[1:]


def bfs_distances(g: LabeledGraph, source: int) -> list[int]:
    """Hop counts from source; -1 marks unreachable. 1-based, slot 0 unused."""
    if not 1 <= source <= g.n:
        raise InputError(f"vertex {source} outside 1..{g.n}")
    adj = g._adj
    dist = [-1] * (g.n + 1)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def all_pairs_distances(g: LabeledGraph) -> IntMatrix:
    """The distance matrix, by BFS from every vertex."""
    rows = []
    for s in range(1, g.n + 1):
        row = bfs_distances(g, s)[1:]
        if -1 in row:
            raise Disconnected(f"vertex {s} cannot reach every vertex")
        rows.append(tuple(row))
    return IntMatrix._of(tuple(rows))


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
    if not (1 <= v1 <= base.n and 1 <= v2 <= base.n) or not base.has_edge(v1, v2):
        raise EdgeNotInBase(f"({v1}, {v2}) is not an edge of the base graph")
    if cp.n < 2 or not cp.has_edge(1, 2):
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
    adj = g._adj
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


def induced_subgraph(g: LabeledGraph, vertices: Iterable[int]) -> tuple[LabeledGraph, tuple[int, ...]]:
    """Subgraph on the given vertex set, relabeled 1..k in ascending label order."""
    verts = sorted(set(vertices))
    for v in verts:
        if not 1 <= v <= g.n:
            raise InputError(f"vertex {v} outside 1..{g.n}")
    relabel = {v: i + 1 for i, v in enumerate(verts)}
    edges = tuple(
        (relabel[u], relabel[v]) for u, v in g.edges if u in relabel and v in relabel
    )
    return LabeledGraph(len(verts), edges), tuple(verts)


def parse_edge_list(text: str) -> LabeledGraph:
    """Read the plain text format: one `u v` pair per line.

    `#` starts a comment, blank lines are skipped, and an optional `n <N>`
    line fixes the vertex count (otherwise the largest label wins).
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
    return LabeledGraph(n, tuple(pairs))


def format_edge_list(g: LabeledGraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_to_json_obj(g: LabeledGraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def graph_from_json_obj(obj: dict) -> LabeledGraph:
    try:
        n = int(obj["n"])
        edges = tuple((int(u), int(v)) for u, v in obj["edges"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad graph object: {e}") from None
    return LabeledGraph(n, edges)


def graph_to_dot(g: LabeledGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(1, g.n + 1):
        lines.append(f"  {v};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
