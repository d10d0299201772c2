"""The weighted reduced graph and the congruence that produces it.

Every member of a CP family has the same matrix E^T D E, where D is the
member's distance matrix and E the member's reducing matrix: it equals the
weighted adjacency matrix of a small reduced graph determined by the size
sequence alone. This module builds both sides of that identity, plus the
seesaw/weighted-path shapes the reduced graphs of 2-clique paths take.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .errors import InputError
from .matrices import DimensionMismatch, IntMatrix
from .sequences import CliquePathSpec, NeighborhoodSequence, NonLeapingSequence


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex- and edge-weighted graph on labels 1..n; zero-weight edges are absent."""

    n: int
    vertex_weights: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (u, v, weight), u < v

    def __post_init__(self):
        if len(self.vertex_weights) != self.n:
            raise InputError("need one vertex weight per vertex")
        # index() refuses floats, so adjacency_matrix() can skip the matrix checks
        vw = tuple(index(x) for x in self.vertex_weights)
        seen = set()
        norm = []
        for u, v, w in self.edges:
            w = index(w)
            if u == v:
                raise InputError(f"self loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (1 <= u and v <= self.n):
                raise InputError(f"edge ({u}, {v}) outside 1..{self.n}")
            if w == 0:
                raise InputError(f"edge ({u}, {v}) has zero weight")
            if (u, v) in seen:
                raise InputError(f"edge ({u}, {v}) repeated")
            seen.add((u, v))
            norm.append((u, v, w))
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "vertex_weights", vw)

    def adjacency_matrix(self) -> IntMatrix:
        rows = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            rows[i][i] = self.vertex_weights[i]
        for u, v, w in self.edges:
            rows[u - 1][v - 1] = w
            rows[v - 1][u - 1] = w
        return IntMatrix._of(tuple(map(tuple, rows)))

    def relabeled(self, mapping: dict[int, int]) -> "WeightedGraph":
        """Apply a vertex bijection 1..n -> 1..n."""
        if sorted(mapping) != list(range(1, self.n + 1)) or sorted(
            mapping.values()
        ) != list(range(1, self.n + 1)):
            raise InputError("mapping must be a bijection on 1..n")
        vw = [0] * self.n
        for v, t in mapping.items():
            vw[t - 1] = self.vertex_weights[v - 1]
        edges = tuple(
            (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]), w)
            for u, v, w in self.edges
        )
        return WeightedGraph(self.n, tuple(vw), edges)


def weighted_graph_to_json_obj(h: WeightedGraph) -> dict:
    return {
        "n": h.n,
        "vw": list(h.vertex_weights),
        "ew": [[u, v, w] for u, v, w in h.edges],
    }


def weighted_graph_from_json_obj(obj: dict) -> WeightedGraph:
    try:
        n = int(obj["n"])
        vw = tuple(int(x) for x in obj["vw"])
        ew = tuple((int(u), int(v), int(w)) for u, v, w in obj["ew"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad weighted graph object: {e}") from None
    return WeightedGraph(n, vw, ew)


def weighted_graph_to_dot(h: WeightedGraph, name: str = "H") -> str:
    """DOT text; weight -1 edges are dashed, vertex weights sit in the labels."""
    lines = [f"graph {name} {{"]
    for v in range(1, h.n + 1):
        lines.append(f'  {v} [label="{v} ({h.vertex_weights[v - 1]})"];')
    for u, v, w in h.edges:
        style = ", style=dashed" if w < 0 else ""
        lines.append(f'  {u} -- {v} [label="{w}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reduced_graph(s: NonLeapingSequence) -> WeightedGraph:
    """The family's common congruence target, from the size sequence alone.

    Start with edge {1, 2} of weight 1; step k adds +1 on {b_{k-1}, k},
    -1 on {b_k, k} and +1 on {k-1, k}, summing weights when pairs collide
    and dropping anything that cancels to zero. Vertices 3..n carry weight
    -2, vertices 1 and 2 weight 0.
    """
    acc: dict[tuple[int, int], int] = {(1, 2): 1}
    # b_(k-1) < k and b_k < k, so every key is already (smaller, larger)
    for k, b_prev, b_k in zip(range(3, s.n + 1), s.b[1:], s.b[2:]):
        for key, w in (((b_prev, k), 1), ((b_k, k), -1), ((k - 1, k), 1)):
            acc[key] = acc.get(key, 0) + w
    edges = tuple((u, v, w) for (u, v), w in acc.items() if w != 0)
    vw = (0, 0) + (-2,) * (s.n - 2)
    return WeightedGraph(s.n, vw, edges)


def reducing_matrix(ns: NeighborhoodSequence) -> IntMatrix:
    """Change of basis E: columns 1, 2 are unit vectors; column k >= 3 is
    e_k - e_{a_k} - e_{k-1} + e_{a_{k-1}} (terms cancel when anchors repeat).

    Unit upper triangular, so det E = 1 and the congruence D -> E^T D E
    preserves determinant and inertia exactly.
    """
    n = ns.n
    col = [[0] * n for _ in range(n)]  # col[j][i] = entry (i+1, j+1)
    col[0][0] = 1
    col[1][1] = 1
    prev = 1  # a_2
    for k, a in zip(range(3, n + 1), ns.anchors):
        c = col[k - 1]
        c[k - 1] += 1
        c[a - 1] -= 1
        c[k - 2] -= 1
        c[prev - 1] += 1
        prev = a
    return IntMatrix._of(tuple(zip(*col)))


def congruence_reduce(d: IntMatrix, e: IntMatrix) -> IntMatrix:
    """E^T D E for any square D, E of one order, computed as (E^T (E^T D)^T)^T:
    ``@`` skips zero entries of its left factor, and a reducing matrix's E^T
    has at most 4 nonzeros per row, all +-1. So the two products are about
    8n^2 additions and subtractions, not 2n^3 multiply-adds, and ``@`` runs
    them at C speed."""
    if d.n != e.n:
        raise DimensionMismatch(f"orders differ: {d.n} vs {e.n}")
    et = e.t
    return (et @ (et @ d).t).t


def weighted_path_matrix(n: int) -> IntMatrix:
    """Adjacency matrix of the path on n vertices with every vertex weight -2:
    -2 on the diagonal, 1 on the off-diagonals. n = 0 gives the empty matrix."""
    if n < 0:
        raise InputError("order must be nonnegative")
    return IntMatrix._of(
        tuple(
            tuple(-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n))
            for i in range(n)
        )
    )


@dataclass(frozen=True)
class SeesawParams:
    """Arm lengths of the seesaw: two weighted paths hung off vertex 2."""

    left: int
    right: int

    def __post_init__(self):
        if self.left < 0 or self.right < 0:
            raise InputError("arm lengths must be nonnegative")


def seesaw_params(spec: CliquePathSpec) -> SeesawParams:
    """Arm lengths for a 2-clique path: odd-position cliques feed the left
    arm, even-position cliques the right, each contributing p_i - 2."""
    left = sum(p - 2 for i, p in enumerate(spec.p, start=1) if i % 2 == 1)
    right = sum(p - 2 for i, p in enumerate(spec.p, start=1) if i % 2 == 0)
    return SeesawParams(left, right)


def seesaw_graph(params: SeesawParams) -> WeightedGraph:
    """The seesaw: edge {1, 2} plus paths 2-3-...-(2+left) and
    2-(3+left)-...-(2+left+right), all edge weights 1, path vertices weight -2."""
    n = 2 + params.left + params.right
    edges = [(1, 2, 1)]
    prev = 2
    for v in range(3, 3 + params.left):
        edges.append((prev, v, 1))
        prev = v
    prev = 2
    for v in range(3 + params.left, n + 1):
        edges.append((prev, v, 1))
        prev = v
    vw = (0, 0) + (-2,) * (n - 2)
    return WeightedGraph(n, vw, tuple(edges))


def seesaw_vertex_map(spec: CliquePathSpec) -> dict[int, int]:
    """Vertex bijection sending reduced_graph(expand(spec)) onto the seesaw.

    Within the reduced graph, clique i's fresh vertices occupy a contiguous
    label block; odd-position blocks chain down the left arm in order, even
    ones down the right.
    """
    params = seesaw_params(spec)
    mapping = {1: 1, 2: 2}
    odd: list[int] = []
    even: list[int] = []
    c = 2
    for i, p in enumerate(spec.p, start=1):
        block = list(range(c + 1, c + p - 1))
        (odd if i % 2 == 1 else even).extend(block)
        c += p - 2
    for idx, v in enumerate(odd):
        mapping[v] = 3 + idx
    for idx, v in enumerate(even):
        mapping[v] = 3 + params.left + idx
    return mapping
