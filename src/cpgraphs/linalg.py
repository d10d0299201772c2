"""Exact determinant, inertia, and cofactor sums for integer matrices.

Everything here is Python int arithmetic, with every division exact.
Every symmetric elimination, inertia and determinant alike, runs in one
in-place fraction-free kernel (_symmetric_bareiss) that updates only the
upper triangle, so it does half the work of a full elimination. A row
whose multiplier is zero is skipped and its exact rescale deferred until
the row is next read, so a sparse matrix such as a reduced graph's
adjacency costs work in proportion to its nonzero multipliers. Inertia
comes from the pivot signs read relative to the previous pivot. Only a
non-symmetric determinant takes Bareiss' elimination with row pivoting.
Jones' leading-principal-minor sign rule is kept as a second method for
inertia. Cofactor sums are one bordered determinant each, itself symmetric
when A is: u^T adj(A) u = -det([[A, u], [u^T, 0]]).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .matrices import IntMatrix


class NotSymmetric(InputError):
    """Inertia is only defined here for symmetric matrices."""


class Singular(InputError):
    """The minor-sign method needs a nonsingular matrix."""


class ConsecutiveZeroMinors(InputError):
    """Two consecutive zero leading minors defeat the minor-sign method."""


class DimensionTooSmall(InputError):
    """The operation needs a larger matrix."""


@dataclass(frozen=True)
class Inertia:
    """Signature of a symmetric matrix: counts of +, -, 0 eigenvalues."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def order(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)

    def __str__(self) -> str:
        return f"({self.n_plus}, {self.n_minus}, {self.n_zero})"


def determinant(m: IntMatrix) -> int:
    """Exact determinant, det([]) = 1.

    Symmetric input goes to the half-work kernel _symmetric_bareiss; the
    rest takes Bareiss' fraction-free elimination with row pivoting.
    """
    if m.is_symmetric():
        return _symmetric_bareiss(m.rows)[3]
    n = m.n
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                # exact by Sylvester's identity: prev divides the product
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _swap(b: list[list[int]], i: int, j: int) -> None:
    """Exchange rows i, j and columns i, j: a symmetric permutation."""
    b[i], b[j] = b[j], b[i]
    for row in b:
        row[i], row[j] = row[j], row[i]


def _symmetric_bareiss(rows) -> tuple[int, int, int, int]:
    """(n_plus, n_minus, n_zero, det) of a symmetric integer matrix.

    Elimination in place on one copy a; step k works on the active block
    a[k:][k:] and updates only its upper triangle (j >= i), the lower one
    being its mirror image: a[i][j] = (a[i][j]*p - a[k][i]*a[k][j]) // prev,
    p the pivot a[k][k]. A row whose multiplier f = a[k][i] is 0 would only
    be rescaled by p / prev; it is skipped instead, and stale[i] keeps the
    prev it was last current with. A zero pivot after step 0 first brings
    every stale row up to date and has the upper triangle of the active
    block copied into its lower one, since the fix-ups act on whole rows
    and columns. The pivot is then replaced by a symmetric swap with a
    nonzero diagonal entry; failing that, adding row/column c into
    row/column r for some a[r][c] != 0 makes it 2*a[r][c]; failing that,
    the rest is a zero block.

    Why `//` is exact: swaps and row/column adds are unimodular congruences
    U^T A U on indices not yet eliminated, and act on the active entries as
    on the matrix, a determinant being linear in each row and column. So
    after k steps a[k+i][k+j] is the minor of M = U^T A U on rows 0..k-1,
    k+i and columns 0..k-1, k+j, and Sylvester's identity makes each update
    the next such integer minor. The pivots are the leading minors D_k of M,
    so det(A) = det(M) is the last one, or 0 when a zero block is left (the
    Schur complement of M's leading block is then zero). A row skipped from
    step s to step t-1 misses the factors D_(s+1)/D_s ... D_t/D_(t-1) =
    D_t/D_s, so its current entry x*prev // stale[i] is again such a minor.
    A stale row is brought up to date when it becomes the pivot row, before
    any fix-up, or inside its next update, as (x*p*prev - f*s*y) // (prev*s)
    with s = stale[i] and y = a[k][j]: the eager numerator times s.
    """
    a = list(map(list, rows))
    n = len(a)
    plus = minus = 0
    prev = 1
    stale = {}
    for k in range(n):
        if a[k][k] == 0:
            for i, s in stale.items():
                row_i = a[i]
                for j in range(i, n):
                    row_i[j] = row_i[j] * prev // s
            stale.clear()
            if k:  # before step 1 the copy is whole
                for i in range(k, n):
                    row_i = a[i]
                    for j in range(i + 1, n):
                        a[j][i] = row_i[j]
            for j in range(k + 1, n):
                if a[j][j]:
                    _swap(a, k, j)
                    break
            else:
                for r in range(k, n):
                    row_r = a[r]
                    for c in range(r + 1, n):
                        if row_r[c]:
                            break
                    else:
                        continue
                    break
                else:
                    return plus, minus, n - k, 0
                a[r] = [x + y for x, y in zip(row_r, a[c])]
                for row in a:
                    row[r] += row[c]
                if r != k:
                    _swap(a, k, r)
        row_k = a[k]
        if stale and k in stale:
            s = stale.pop(k)
            for j in range(k, n):
                row_k[j] = row_k[j] * prev // s
        p = row_k[k]
        if (p > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            f = row_k[i]
            if f:
                row_i = a[i]
                if stale and i in stale:
                    s = stale.pop(i)
                    ps, fs, d = p * prev, f * s, prev * s
                    for j in range(i, n):
                        row_i[j] = (row_i[j] * ps - fs * row_k[j]) // d
                else:
                    for j in range(i, n):
                        row_i[j] = (row_i[j] * p - f * row_k[j]) // prev
            elif i not in stale:
                stale[i] = prev
        prev = p
    return plus, minus, 0, prev


def det_and_inertia(m: IntMatrix) -> tuple[int, Inertia]:
    """Determinant and inertia of a symmetric matrix from one integer pass."""
    if not m.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    plus, minus, zero, det = _symmetric_bareiss(m.rows)
    return det, Inertia(plus, minus, zero)


def inertia_congruence(m: IntMatrix) -> Inertia:
    """Inertia by symmetric fraction-free elimination (see _symmetric_bareiss).

    Only congruences are applied, so Sylvester's law keeps the signature.
    Pivot k is the leading minor D_k of the transformed matrix, and counts
    as positive exactly when it has the sign of the previous pivot D_(k-1),
    because the true LDL^T pivot is D_k / D_(k-1).
    """
    return det_and_inertia(m)[1]


def leading_principal_minors(m: IntMatrix) -> list[int]:
    """Determinants of the leading k-by-k submatrices, k = 1..n."""
    return [determinant(m.leading(k)) for k in range(1, m.n + 1)]


def inertia_leading_minors(m: IntMatrix) -> Inertia:
    """Jones' minor-sign rule for nonsingular symmetric matrices.

    n_minus is the number of sign changes in 1, D_1, ..., D_n with zeros
    skipped; this needs D_n nonzero and no two consecutive zero minors.
    """
    if not m.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    n = m.n
    if n == 0:
        return Inertia(0, 0, 0)
    minors = leading_principal_minors(m)
    if minors[-1] == 0:
        raise Singular("last leading minor vanishes")
    for i in range(n - 1):
        if minors[i] == 0 and minors[i + 1] == 0:
            raise ConsecutiveZeroMinors(f"leading minors {i + 1} and {i + 2} both vanish")
    signs = [x for x in [1] + minors if x != 0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    return Inertia(n - changes, changes, 0)


def _bordered(m: IntMatrix, u: tuple[int, ...]) -> IntMatrix:
    """[[A, u], [u^T, 0]]."""
    rows = [r + (x,) for r, x in zip(m.rows, u)]
    rows.append(u + (0,))
    return IntMatrix._of(tuple(rows))


def cofactor_sum(m: IntMatrix) -> int:
    """Sum of all n^2 cofactors, 1^T adj(A) 1 = -det([[A, 1], [1^T, 0]])."""
    return -determinant(_bordered(m, (1,) * m.n))


def reduced_cofactor_sum(m: IntMatrix) -> int:
    """det(A + J_2) - det(A), where J_2 is all-ones on the leading 2x2 block.

    With u = e_1 + e_2 this is u^T adj(A) u = -det([[A, u], [u^T, 0]]). For
    a family's reduced matrix it reproduces the cofactor sum of every
    member's distance matrix, because the reducing matrix's columns beyond
    the second sum to zero.
    """
    if m.n < 2:
        raise DimensionTooSmall("need order at least 2")
    return -determinant(_bordered(m, (1, 1) + (0,) * (m.n - 2)))
