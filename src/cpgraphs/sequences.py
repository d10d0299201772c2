"""Backward-neighborhood sequences that drive the incremental graph build.

A CP graph on vertices 1..n is grown one vertex at a time: vertex k is joined
to a set W_k of q_k earlier vertices consisting of the contiguous run
[b_k, k-1] plus one extra "anchor" vertex a_k below the run, where
b_k = k - q_k + 1. The size sequence q must not leap: q_1 = 0, q_2 = 1, and
2 <= q_k <= q_{k-1} + 1 afterwards. The anchor at step k must itself lie in
W_{k-1}, which is what makes consecutive neighborhoods overlap in a clique.

This module owns the combinatorics: validating q, expanding the p_1..p_m
clique-path shorthand, computing the admissible anchors at each step, and
enumerating or counting all anchor choices for a fixed q.

Validation happens once, where a sequence enters from outside: the
NonLeapingSequence and NeighborhoodSequence constructors check every term
and every anchor. The members enumerate_neighborhood_sequences yields are
admissible by construction, so it builds them with the private
NeighborhoodSequence._of, which assumes a tuple of admissible anchors and
checks nothing.
"""

from __future__ import annotations

import itertools
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

    def qk(self, k: int) -> int:
        self._check_index(k)
        return self.q[k - 1]

    def bk(self, k: int) -> int:
        """Start of the contiguous run [b_k, k-1] joined at step k."""
        self._check_index(k)
        return self.b[k - 1]

    def _check_index(self, k: int):
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(f"index {k} outside 1..{self.n}")


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


def admissible_anchors(
    base: NonLeapingSequence, k: int, prior_anchors: Sequence[int]
) -> frozenset[int]:
    """Anchor choices at step k given the anchors chosen for steps 3..k-1.

    These are the members of W_{k-1} lying below b_k. The set always has
    exactly 1 + b_k - b_{k-1} elements, whatever the prior choices were.
    """
    if not 3 <= k <= base.n:
        raise IndexOutOfRange(f"anchor index {k} outside 3..{base.n}")
    prior = tuple(prior_anchors)
    if len(prior) != k - 3:
        raise InputError(f"expected {k - 3} prior anchors for step {k}, got {len(prior)}")
    if k == 3:
        window_prev = {1}
    else:
        window_prev = {prior[-1], *range(base.bk(k - 1), k - 1)}
    return frozenset(x for x in window_prev if x < base.bk(k))


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
        for k in range(3, self.base.n + 1):
            a = anchors[k - 3]
            if a not in admissible_anchors(self.base, k, anchors[: k - 3]):
                raise InputError(f"anchor a_{k} = {a} is not admissible")

    @classmethod
    def _of(cls, base: NonLeapingSequence, anchors: tuple[int, ...]) -> "NeighborhoodSequence":
        """Wrap anchors without checking them. Precondition: anchors is a tuple
        with a_k in admissible_anchors(base, k, anchors[:k - 3]) for k = 3..n;
        the result then equals, and hashes like, NeighborhoodSequence(base, anchors)."""
        ns = object.__new__(cls)
        object.__setattr__(ns, "base", base)
        object.__setattr__(ns, "anchors", anchors)
        return ns

    @property
    def n(self) -> int:
        return self.base.n


def enumerate_neighborhood_sequences(
    base: NonLeapingSequence, limit: int | None = None
) -> Iterator[NeighborhoodSequence]:
    """All anchor choices for the given size sequence, in ascending anchor order."""
    if limit is not None and limit < 0:
        raise InputError(f"limit must be nonnegative, got {limit}")
    stream = _members(base)
    return stream if limit is None else itertools.islice(stream, limit)


def _members(base: NonLeapingSequence) -> Iterator[NeighborhoodSequence]:
    """Odometer over the sorted admissible sets, last step fastest.

    Since a_{k-1} < b_{k-1} <= b_k, the step-k set sorts as a_{k-1}, b_{k-1},
    ..., b_k - 1 (with a_2 = 1), so digit d at step k picks a_{k-1} for d = 0
    and b_{k-1} + d - 1 otherwise. Anchors rise with the digit, so counting
    the digits up lists the anchor vectors in ascending order; resetting the
    digits after a carry to 0 repeats the anchor just changed.
    """
    b = base.b  # b[k - 1] = b_k
    m = base.n - 2
    anchors = [1] * m
    digits = [0] * m
    while True:
        yield NeighborhoodSequence._of(base, tuple(anchors))
        i = m - 1  # digit i is step k = i + 3, with radix 1 + b_k - b_{k-1}
        while i >= 0 and digits[i] == b[i + 2] - b[i + 1]:
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        anchors[i] = b[i + 1] + digits[i] - 1
        for j in range(i + 1, m):
            digits[j] = 0
            anchors[j] = anchors[i]


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
    """The member taking the smallest admissible anchor at every step: all ones.

    a_(k-1) < b_(k-1) <= b_k, so a_(k-1) is the least admissible anchor at
    step k, and a_3 = 1 (W_2 = {1}).
    """
    return (1,) * (base.n - 2)


def iter_nonleaping_sequences(n: int) -> Iterator[NonLeapingSequence]:
    """All non-leaping sequences of length n, lexicographically. Test-suite helper."""
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
