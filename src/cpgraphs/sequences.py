"""Backward-neighborhood sequences that drive the incremental graph build.

A CP graph on vertices 1..n is grown one vertex at a time: vertex k is joined
to a set W_k of q_k earlier vertices consisting of the contiguous run
[b_k, k-1] plus one extra "anchor" vertex a_k below the run, where
b_k = k - q_k + 1. The size sequence q must not leap: q_1 = 0, q_2 = 1, and
2 <= q_k <= q_{k-1} + 1 afterwards. The anchor at step k must itself lie in
W_{k-1}, which is what makes consecutive neighborhoods overlap in a clique.

This module owns the combinatorics: validating q, expanding the p_1..p_m
clique-path shorthand, the admissible anchors at each step (one rule,
_anchor_choices), and enumerating or counting all anchor choices for a
fixed q. It also owns the one row step of the growth, _next_row: W_k is a
clique, so vertex k changes no earlier distance, and its row of D is
d(k, j) = 1 + min over w in W_k of d(w, j).

_Prefix.walk is the one depth-first walk over the anchor choices of one or
more families, with one store of the rows of D, and of E^T D E (E the
reducing matrix, _reduced_column its column step), that its members share.
enumerate_neighborhood_sequences is that walk for one family; suites._grow
takes it for many. Each enumerated member records the store and its serial
number as `_prefix`; its graph, D and E keep the member itself, as
`_member`, and read the record off it. all_pairs_distances reads D off the
store, and reduction.congruence_reduce E^T D E for a D and an E keeping the
same member, only while it is the walk's current one; any other member
takes the BFS and the anchor route. Nothing is keyed by equality: an equal
member built any other way (the constructor, dataclasses.replace,
suites.random_member) has no record.

Validation happens once, where a sequence enters from outside: the
NonLeapingSequence and NeighborhoodSequence constructors check every term
and every anchor, the latter in one O(n) pass against _anchor_choices, as
admissible_anchors checks the anchors it is given. The members
enumerate_neighborhood_sequences yields are admissible by
construction, so it builds them with the private NeighborhoodSequence._of,
which assumes a tuple of admissible anchors and checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import InputError


class LengthTooShort(InputError):
    """The sequence has fewer than two terms."""


class HeadMismatch(InputError):
    """The sequence does not start 0, 1."""


class LeapViolation(InputError):
    """Some q_k is below 2 or jumps past q_{k-1} + 1."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class PartTooSmall(InputError):
    """A clique size in the shorthand is below 3."""


class IndexOutOfRange(InputError):
    """A vertex index k lies outside the sequence's range."""


@dataclass(frozen=True)
class NonLeapingSequence:
    """A validated size sequence q, with the derived run starts b."""

    q: tuple[int, ...]
    b: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        q = tuple(self.q)
        object.__setattr__(self, "q", q)
        if len(q) < 2:
            raise LengthTooShort("need at least two terms (q_1 = 0, q_2 = 1)")
        if q[0] != 0 or q[1] != 1:
            raise HeadMismatch(f"sequence must start 0, 1; got {q[0]}, {q[1]}")
        for k in range(3, len(q) + 1):
            qk = q[k - 1]
            if qk < 2 or qk > q[k - 2] + 1:
                raise LeapViolation(
                    k, f"q_{k} = {qk} outside [2, q_{k-1} + 1] = [2, {q[k - 2] + 1}]"
                )
        object.__setattr__(
            self, "b", tuple(k - q[k - 1] + 1 for k in range(1, len(q) + 1))
        )

    @property
    def n(self) -> int:
        return len(self.q)

    def bk(self, k: int) -> int:
        """Start of the contiguous run [b_k, k-1] joined at step k."""
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(f"index {k} outside 1..{self.n}")
        return self.b[k - 1]


@dataclass(frozen=True)
class CliquePathSpec:
    """Clique sizes p_1..p_m of a path of cliques glued along edges.

    Expands to the size sequence 0, 1, [2..p_1-1], ..., [2..p_m-1]. m = 0 is
    allowed and denotes the single edge on two vertices.
    """

    p: tuple[int, ...]

    def __post_init__(self):
        p = tuple(self.p)
        object.__setattr__(self, "p", p)
        for i, pi in enumerate(p, start=1):
            if pi < 3:
                raise PartTooSmall(f"clique size p_{i} = {pi} must be at least 3")

    @property
    def n(self) -> int:
        return 2 + sum(pi - 2 for pi in self.p)


def expand_clique_path_spec(spec: CliquePathSpec) -> NonLeapingSequence:
    q = [0, 1]
    for pi in spec.p:
        q.extend(range(2, pi))
    return NonLeapingSequence(tuple(q))


def _anchor_choices(b: tuple[int, ...], k: int, prev: int) -> tuple[int, range]:
    """The anchor rule: step k's choices (3 <= k <= n, b = NonLeapingSequence.b),
    ascending, are prev = a_(k-1), with a_2 = 1, then b_(k-1) .. b_k - 1: the
    members of W_(k-1) below b_k, as a_(k-1) < b_(k-1) <= b_k <= k - 1."""
    return prev, range(b[k - 2], b[k - 1])


def _check_anchors(b: tuple[int, ...], anchors: tuple[int, ...]) -> None:
    """Check a_3, a_4, ... against _anchor_choices, in one pass, and raise
    InputError naming the first that is not admissible."""
    for k, a, prev in zip(range(3, len(anchors) + 3), anchors, (1, *anchors)):
        first, run = _anchor_choices(b, k, prev)
        if a != first and a not in run:
            raise InputError(f"anchor a_{k} = {a} is not admissible")


def admissible_anchors(
    base: NonLeapingSequence, k: int, prior_anchors: Sequence[int]
) -> frozenset[int]:
    """The _anchor_choices at step k, as a set, given the anchors chosen for
    steps 3..k-1: always 1 + b_k - b_{k-1} of them, whatever those were.
    Raises InputError naming the first prior anchor that is not admissible."""
    if not 3 <= k <= base.n:
        raise IndexOutOfRange(f"anchor index {k} outside 3..{base.n}")
    prior = tuple(prior_anchors)
    if len(prior) != k - 3:
        raise InputError(f"expected {k - 3} prior anchors for step {k}, got {len(prior)}")
    _check_anchors(base.b, prior)
    first, run = _anchor_choices(base.b, k, prior[-1] if prior else 1)
    return frozenset((first, *run))


@dataclass(frozen=True)
class NeighborhoodSequence:
    """A size sequence together with one anchor per step: a single CP graph."""

    base: NonLeapingSequence
    anchors: tuple[int, ...]  # a_3 .. a_n

    def __post_init__(self):
        anchors = tuple(self.anchors)
        object.__setattr__(self, "anchors", anchors)
        if len(anchors) != self.base.n - 2:
            raise InputError(
                f"need {self.base.n - 2} anchors for n = {self.base.n}, got {len(anchors)}"
            )
        _check_anchors(self.base.b, anchors)

    @classmethod
    def _of(cls, base: NonLeapingSequence, anchors: tuple[int, ...]) -> "NeighborhoodSequence":
        """Wrap anchors without checking them. Precondition: anchors is a tuple
        whose a_k follows _anchor_choices for k = 3..n; the result then
        equals, and hashes like, NeighborhoodSequence(base, anchors)."""
        ns = object.__new__(cls)
        object.__setattr__(ns, "base", base)
        object.__setattr__(ns, "anchors", anchors)
        return ns

    @property
    def n(self) -> int:
        return self.base.n


def _next_row(rows: list[list[int]], anchor: int, lo: int) -> list[int]:
    """Add vertex k = len(rows), 0-based, to the distance rows of vertices
    0..k-1, each k entries long, as joined to W = {anchor} + [lo, k - 1].

    W is a clique, so the new vertex changes no earlier distance, and its
    row is d(k, j) = 1 + min over w in W of d(w, j). Appends that entry to
    row j, appends the new row, ending in d(k, k) = 0, and returns it."""
    new = [1 + min(ws) for ws in zip(rows[anchor], *rows[lo:])]
    for row, x in zip(rows, new):
        row.append(x)
    new.append(0)
    rows.append(new)
    return new


def _reduced_column(rows: list[list[int]], a: list[int], k: int) -> list[int]:
    """Column k >= 1 (0-based) of E^T D E, its entries 0..k, for D given by
    its rows, each at least k + 1 long, and E the reducing matrix whose
    vertex i >= 1 has the anchor a[i], a vertex label (a[1] = 1: a_2 = 1).

    Column k >= 2 of E is e_k - e_(a[k] - 1) - e_(k-1) + e_(a[k-1] - 1),
    0-based, column 1 is e_1, and E^T's row i the same combination, so column
    k of E^T D E needs only D's leading (k + 1) block and the anchors of
    vertices 1..k."""
    v = rows[k] if k == 1 else [  # D times column k of E, read at entries 0..k
        w - x - y + z for w, x, y, z in zip(rows[k], rows[a[k] - 1], rows[k - 1], rows[a[k - 1] - 1])
    ]
    u = [0, *v]  # v by vertex label
    return v[:2] + [u[i + 1] - u[a[i]] - u[i] + u[a[i - 1]] for i in range(2, k + 1)]


def _cut(rows: list[list[int]], v: int) -> None:
    """Cut a symmetric table of rows, one per vertex, back to vertices 0..v-1."""
    if len(rows) > v:
        del rows[v:]
        for row in rows:
            del row[v:]


class _Prefix:
    """The walk over the members of listed families and of their prefixes,
    and the rows of D, and of E^T D E, those members share.

    The first k + 1 vertices of a member of q are a member of q[:k + 1], so
    the members form one tree: a node adds vertex k (0-based) to its parent,
    choosing its size and then its anchor from _anchor_choices. Before walk
    yields a node, it records vertex k's anchor in `anchors`, and in `b` the
    run starts of a listed family the node is a prefix of; it advances
    `serial` and lowers `valid` and `reduced_valid`, the counts of rows that
    still hold, to k. Nodes that differ only past vertex v share D's leading
    (v + 1) block and, as column k of E^T D E reads only that block of D and
    the anchors up to vertex k, E^T D E's. rows_at and reduced_at grow the
    missing rows of the current node, and of no other, when asked for."""

    __slots__ = ("anchors", "b", "rows", "valid", "reduced", "reduced_valid", "serial")

    def __init__(self):
        self.anchors = [0]  # anchors[k]: vertex k's anchor, a label, for k = 1..the current node's
        self.b: tuple[int, ...] = ()
        self.rows = [[0]]
        self.valid = 1
        self.reduced = [[0]]
        self.reduced_valid = 1
        self.serial = 0

    def walk(self, families: Sequence[NonLeapingSequence]) -> Iterator[tuple[int, NonLeapingSequence, bool]]:
        """Yields (k, f, listed) per node, depth first, sizes then anchors
        ascending, last step fastest: its vertex k, a listed family f it is
        a prefix of (itself, if listed) and whether it is a member of f. A
        node's next sizes are those the listed families extending it take,
        so each node is visited once. The walk keeps its own stack, so the
        recursion limit does not bound it."""
        root = None  # a node of the tree of prefixes: [f, its children by next size, listed]
        for f in sorted(families, key=lambda f: f.q):  # so children come by ascending size
            if root is None:
                root = [f, {}, False]
            node = root
            for s in f.q[2:]:
                kids = node[1]
                node = kids.get(s) or kids.setdefault(s, [f, {}, False])
            node[0], node[2] = f, True
        # a choice is (the node, its anchor a_(k+1), k), taken from the end of
        # the stack, so a node's choices are pushed last first; vertex 1
        # joins W_2 = {1}
        stack = [(root, 1, 1)] if root else []
        anchors = self.anchors
        while stack:
            (f, kids, listed), a, k = stack.pop()
            anchors[k:] = (a,)
            self.b = f.b
            if k < self.valid:
                self.valid = k
            if k < self.reduced_valid:
                self.reduced_valid = k
            self.serial += 1
            for child in reversed(kids.values()):
                first, run = _anchor_choices(child[0].b, k + 2, a)
                for x in reversed(run):
                    stack.append((child, x, k + 1))
                stack.append((child, first, k + 1))
            yield k, f, listed

    def rows_at(self, serial: int) -> list[list[int]] | None:
        """D of the node with this serial number, as lists valid until the
        walk advances, or None once the walk has moved past that node."""
        if serial != self.serial:
            return None
        rows, anchors, b = self.rows, self.anchors, self.b
        if self.valid < len(anchors):
            _cut(rows, self.valid)
            for k in range(len(rows), len(anchors)):  # W_(k+1) = {a_(k+1)} + [b_(k+1), k]
                _next_row(rows, anchors[k] - 1, b[k] - 1)
            self.valid = len(rows)
        return rows

    def reduced_at(self, serial: int) -> list[list[int]] | None:
        """E^T D E of the node with this serial number, E its reducing
        matrix, as lists valid until the walk advances, or None once the walk
        has moved past that node."""
        d = self.rows_at(serial)
        if d is None:
            return None
        rows = self.reduced
        if self.reduced_valid < len(d):
            _cut(rows, self.reduced_valid)
            for k in range(len(rows), len(d)):  # E^T D E is symmetric: column k is row k
                col = _reduced_column(d, self.anchors, k)
                for row, x in zip(rows, col):
                    row.append(x)
                rows.append(col)
            self.reduced_valid = len(rows)
        return rows


def enumerate_neighborhood_sequences(base: NonLeapingSequence) -> Iterator[NeighborhoodSequence]:
    """All anchor choices for the given size sequence, in ascending anchor
    order: the members _Prefix.walk visits for the one family.

    Each member records (the walk's _Prefix, its serial number) as
    `_prefix` in its __dict__. Its graph, D and E keep the member, so that
    graphs.all_pairs_distances reads D, and reduction.congruence_reduce
    E^T D E, off the rows the members share while that member is the
    current one. Yielding a member builds no rows."""
    prefix = _Prefix()
    for _, _, listed in prefix.walk([base]):
        if listed:
            ns = NeighborhoodSequence._of(base, tuple(prefix.anchors[2:]))
            ns.__dict__["_prefix"] = (prefix, prefix.serial)
            yield ns


def count_neighborhood_sequences(base: NonLeapingSequence) -> int:
    """Number of members, as the product of admissible-anchor set sizes.

    The step-k set has 1 + b_k - b_{k-1} elements independent of prior
    choices, so the product telescopes off the b sequence alone.
    """
    total = 1
    for k in range(3, base.n + 1):
        total *= 1 + base.bk(k) - base.bk(k - 1)
    return total


def minimal_anchors(base: NonLeapingSequence) -> tuple[int, ...]:
    """The member taking the least of _anchor_choices at every step, a_(k-1),
    so all ones from a_3 = 1 (W_2 = {1}) on."""
    return (1,) * (base.n - 2)


def iter_nonleaping_sequences(n: int) -> Iterator[NonLeapingSequence]:
    """All non-leaping sequences of length n, lexicographically."""
    if n < 2:
        raise InputError("sequences have length at least 2")
    q = [0, 1] + [2] * (n - 2)
    while True:
        yield NonLeapingSequence(tuple(q))
        # odometer, last term fastest: raise the last term below its cap
        # q_{k-1} + 1 and restart every later term at 2
        i = n - 1
        while i >= 2 and q[i] == q[i - 1] + 1:
            i -= 1
        if i < 2:
            return
        q[i] += 1
        q[i + 1 :] = [2] * (n - 1 - i)


def parse_sequence_literal(text: str) -> NonLeapingSequence:
    """Parse either a plain size sequence ("0,1,2,2,3") or shorthand ("2:3,4,3")."""
    if ":" in text:
        return expand_clique_path_spec(parse_spec_literal(text))
    parts = [p.strip() for p in text.split(",")]
    try:
        q = tuple(int(p) for p in parts if p != "")
    except ValueError:
        raise InputError(f"bad sequence literal: {text!r}") from None
    if len(q) != len(parts):
        raise InputError(f"bad sequence literal: {text!r}")
    return NonLeapingSequence(q)


def parse_spec_literal(text: str) -> CliquePathSpec:
    """Parse clique-path shorthand "2:3,4,3" (or bare "3,4,3"; "2:" is the edge)."""
    body = text.strip()
    if ":" in body:
        head, _, body = body.partition(":")
        if head.strip() != "2":
            raise InputError(f"shorthand must start '2:', got {text!r}")
    body = body.strip()
    if body == "":
        return CliquePathSpec(())
    try:
        p = tuple(int(x.strip()) for x in body.split(","))
    except ValueError:
        raise InputError(f"bad clique-path literal: {text!r}") from None
    return CliquePathSpec(p)


def parse_anchor_literal(text: str) -> tuple[int, ...]:
    """Parse a comma-separated anchor vector; empty string means no anchors."""
    body = text.strip()
    if body == "":
        return ()
    try:
        return tuple(int(x.strip()) for x in body.split(","))
    except ValueError:
        raise InputError(f"bad anchor literal: {text!r}") from None
