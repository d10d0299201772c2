"""Small exact integer matrices.

Entries are Python ints, so nothing here ever rounds. Matrices are square
(everything in this package is an n-by-n distance, adjacency, or change-of-
basis matrix) and immutable. Rows are 0-indexed internally; translation from
1-based vertex labels happens at the call sites that care.

Validation happens once, where rows enter from outside: the constructor
(and from_rows, which goes through it) re-tuples the rows and checks that
they are square and hold ints. Matrices the package derives from
already-valid ones (products, transposes, submatrices, distance and
change-of-basis matrices) are wrapped by the private IntMatrix._of, which
assumes a tuple of n tuples of n ints and checks nothing.

The product ``@`` serves reduction.congruence_reduce for an E that
reducing_matrix did not build, the tests and the benchmark's tracer.

reduction.reducing_matrix leaves an enumerated member's E without its rows,
keeping only the member; __getattr__ builds them from its anchors on first
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, index, mul, sub
from typing import Iterable

from .errors import InputError


class DimensionMismatch(InputError):
    """Two matrices cannot be combined because their orders differ."""


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise InputError("matrix must be square")
            for x in r:
                if not isinstance(x, int):
                    raise InputError(f"matrix entries must be int, got {type(x).__name__}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap rows without checking them. Precondition: rows is a tuple of n
        tuples of n ints; it then equals, and hashes like, IntMatrix(rows)."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __getattr__(self, name: str):
        # reached only for a missing attribute: the rows reducing_matrix left
        # unbuilt are built here, from E's member, on first read
        memo = self.__dict__
        if name != "rows" or "_member" not in memo:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        from .reduction import _reducing_rows  # reduction imports this module
        object.__setattr__(self, "rows", _reducing_rows(memo["_member"].anchors))
        return self.rows

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        # index() keeps int-like types but refuses floats; no silent rounding
        return cls(tuple(tuple(index(x) for x in r) for r in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def t(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self.rows))) if self.rows else self

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row-combination product: row i sums a_ik * other[k] over the k with
        a_ik != 0, so a left factor with s nonzeros per row costs O(s n) per row
        instead of O(n^2). Put a sparse factor on the left.

        Per-entry work runs in C: compress() finds the nonzeros, each update
        chains lazily as an operator map (add / sub for a = +-1), and one
        tuple() per row materialises the chain. It nests as deep as the row
        has nonzeros; that overflows the C stack only far beyond any matrix
        that fits in memory (50 000 levels run fine, and a row that wide
        needs a right factor of 2.5 * 10^9 entries)."""
        n = self.n
        if n != other.n:
            raise DimensionMismatch(f"orders differ: {n} vs {other.n}")
        brows = other.rows
        cols = range(n)
        zero = (0,) * n
        out = []
        for row in self.rows:
            acc = zero
            for k in compress(cols, row):
                a = row[k]
                if a == 1:
                    acc = map(add, acc, brows[k])
                elif a == -1:
                    acc = map(sub, acc, brows[k])
                else:
                    acc = map(add, acc, map(mul, repeat(a), brows[k]))
            out.append(tuple(acc))
        return IntMatrix._of(tuple(out))

    def is_symmetric(self) -> bool:
        return self.rows == tuple(zip(*self.rows))

    def leading(self, k: int) -> "IntMatrix":
        """Leading principal k-by-k submatrix."""
        if not 0 <= k <= self.n:
            raise InputError(f"leading submatrix order {k} out of range")
        return IntMatrix._of(tuple(r[:k] for r in self.rows[:k]))

    def to_json_rows(self) -> list[list[str]]:
        """Entries as decimal strings, so arbitrary precision survives JSON."""
        return [[str(x) for x in r] for r in self.rows]

    def __str__(self) -> str:
        if not self.rows:
            return "[]"
        w = max(len(str(x)) for r in self.rows for x in r)
        return "\n".join(" ".join(str(x).rjust(w) for x in r) for r in self.rows)
