"""The weighted reduced graph and the congruence that produces it.

Every member of a CP family has the same matrix E^T D E, where D is the
member's distance matrix and E the member's reducing matrix: it equals the
weighted adjacency matrix of a small reduced graph determined by the size
sequence alone. This module builds both sides of that identity, plus the
seesaw/weighted-path shapes the reduced graphs of 2-clique paths take.

A reducing matrix keeps the member it came from, as `_member` in its
__dict__; congruence_reduce forms E^T D E from that member's anchors by row
differences, and by IntMatrix.__matmul__ for an E without a member. An
enumerated member's D keeps the member too (see graphs): while it is the
walk's current member, E^T D E is copied off the rows the walk's store
shares (see sequences). Such an E builds its rows only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, index, sub

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

    @classmethod
    def _of(
        cls, n: int, vertex_weights: tuple[int, ...], edges: tuple[tuple[int, int, int], ...]
    ) -> "WeightedGraph":
        """Wrap the fields without checking them. Precondition: vertex_weights
        is a tuple of n ints and edges a sorted tuple of (u, v, w) with distinct
        pairs 1 <= u < v <= n and int w != 0; the graph then equals, and
        hashes like, WeightedGraph(n, vertex_weights, edges)."""
        h = object.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "vertex_weights", vertex_weights)
        object.__setattr__(h, "edges", edges)
        return h

    def adjacency_matrix(self) -> IntMatrix:
        rows = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            rows[i][i] = self.vertex_weights[i]
        for u, v, w in self.edges:
            rows[u - 1][v - 1] = w
            rows[v - 1][u - 1] = w
        return IntMatrix._of(tuple(map(tuple, rows)))


def weighted_graph_to_json_obj(h: WeightedGraph) -> dict:
    return {
        "n": h.n,
        "vw": list(h.vertex_weights),
        "ew": [[u, v, w] for u, v, w in h.edges],
    }


def weighted_graph_to_dot(h: WeightedGraph) -> str:
    """DOT text; weight -1 edges are dashed, vertex weights sit in the labels."""
    lines = ["graph H {"]
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
    edges = tuple(sorted((u, v, w) for (u, v), w in acc.items() if w != 0))
    return WeightedGraph._of(s.n, (0, 0) + (-2,) * (s.n - 2), edges)


def reducing_matrix(ns: NeighborhoodSequence) -> IntMatrix:
    """Change of basis E: columns 1, 2 are unit vectors; column k >= 3 is
    e_k - e_{a_k} - e_{k-1} + e_{a_{k-1}}, which is e_k - e_{k-1} when
    a_k = a_{k-1} (the two anchor terms cancel).

    Unit upper triangular, so det E = 1 and the congruence D -> E^T D E
    preserves determinant and inertia exactly.

    E keeps ns, for congruence_reduce; an enumerated member's E builds its
    rows from ns on first read (IntMatrix.__getattr__), so they hold after
    the walk moves on. The member cannot go stale: both are frozen, and what
    builds a new matrix from E (IntMatrix(rows), dataclasses.replace, E.t)
    keeps none. Equality, hashing and repr read the rows alone, so E equals
    the same rows without the member.
    """
    if "_prefix" in ns.__dict__:
        e = object.__new__(IntMatrix)
    else:
        e = IntMatrix._of(_reducing_rows(ns.anchors))
    e.__dict__["_member"] = ns
    return e


def _reducing_rows(anchors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The rows of the reducing matrix of these anchors a_3 .. a_n: the
    identity with each column k's -1 in row k-1, then, where the anchor
    moves, column k's -1 in row a_k and +1 in row a_{k-1}."""
    n = len(anchors) + 2
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = rows[-1][-1] = 1
    for i in range(1, n - 1):  # row i + 1 holds column i + 2's -e_(i+1)
        rows[i][i] = 1
        rows[i][i + 1] = -1
    prev = 1  # a_2
    for k, a in enumerate(anchors, start=2):  # column k + 1
        if a != prev:
            rows[a - 1][k] -= 1
            rows[prev - 1][k] += 1
            prev = a
    return tuple(map(tuple, rows))


def _anchor_differences(rows, anchors) -> list[tuple[int, ...]]:
    """The rows of E^T A, for A given by its rows and E the reducing matrix of
    these anchors: rows 1 and 2 of A as they are, then for k >= 3 column k of
    E applied to A's rows. That is A[k] - A[k-1] when a_k = a_(k-1), and
    A[k] - A[a_k] - A[k-1] + A[a_(k-1)] otherwise, with a_2 = 1."""
    out = [rows[0], rows[1]]
    prev = 1  # a_2
    for before, row, a in zip(rows[1:], rows[2:], anchors):
        if a == prev:
            out.append(tuple(map(sub, row, before)))
        else:
            out.append(tuple(map(add, map(sub, map(sub, row, rows[a - 1]), before), rows[prev - 1])))
            prev = a
    return out


def congruence_reduce(d: IntMatrix, e: IntMatrix) -> IntMatrix:
    """E^T D E for any square D, E of one order, as (E^T (E^T D)^T)^T.

    An E from reducing_matrix keeps its member, whose order is E's and whose
    anchors give E^T's rows, so no route for it reads E's rows. When D is
    the D of the same member object, D and E are one enumerated member's,
    and while it is still the walk's current member, E^T D E is copied off
    the rows the members share (sequences._Prefix.reduced_at). Otherwise
    each E^T step is _anchor_differences, which costs what E's nonzeros
    cost: n subtractions for a column k with a_k = a_(k-1), 3n additions and
    subtractions for any other, so 2n^2 to 6n^2 in all. An E without a
    member (IntMatrix(rows), or no reducing matrix at all) takes two ``@``
    products, which skip the zero entries of their left factor."""
    memo = e.__dict__
    member = memo.get("_member")
    # a member's D keeps the member too: the (1, 1) entry, 0 in any D and 1 in
    # any E, tells them apart, and only an E is built without its rows
    if member is not None and "rows" in memo and not e.rows[0][0]:
        member = None
    n = e.n if member is None else member.n
    if d.n != n:
        raise DimensionMismatch(f"orders differ: {d.n} vs {n}")
    if member is None:
        et = e.t
        return (et @ (et @ d).t).t
    if d.__dict__.get("_member") is member and not d.rows[0][0]:
        prefix, serial = member._prefix
        rows = prefix.reduced_at(serial)
        if rows is not None:
            return IntMatrix._of(tuple(map(tuple, rows)))
    anchors = member.anchors
    x = _anchor_differences(d.rows, anchors)
    return IntMatrix._of(tuple(zip(*_anchor_differences(list(zip(*x)), anchors))))


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

