"""Independent slow-path recomputations used to cross-validate the kernels.

These deliberately avoid the algorithms in linalg: the determinant here is
literal cofactor expansion, and the inertia comes from Descartes' rule of
signs applied to the exact characteristic polynomial (computed by the
Faddeev-LeVerrier trace recurrence over Fractions). Descartes' rule counts
roots exactly for real-rooted polynomials, and symmetric matrices have only
real eigenvalues, so the sign counts are the inertia. The address search
here tests every candidate word against each assigned vertex and the column
order one by one, where addressing.search_scheme works on bitmasks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .addressing import ALPHABET, MAX_VERTICES, AddressScheme, BudgetExceeded, TooLarge, _bfs_order
from .errors import InputError
from .graphs import LabeledGraph, all_pairs_distances
from .linalg import Inertia, NotSymmetric
from .matrices import IntMatrix


def det_by_cofactor_expansion(m: IntMatrix) -> int:
    """Textbook Laplace expansion along the first row. Exponential; small n only."""

    def rec(rows: tuple[tuple[int, ...], ...]) -> int:
        n = len(rows)
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        total = 0
        first = rows[0]
        rest = rows[1:]
        for j in range(n):
            if first[j] == 0:
                continue
            minor = tuple(r[:j] + r[j + 1 :] for r in rest)
            total += (-1) ** j * first[j] * rec(minor)
        return total

    return rec(m.rows)


def characteristic_polynomial(m: IntMatrix) -> list[int]:
    """Coefficients c_0..c_n of det(x I - A) = x^n + c_{n-1} x^{n-1} + ... + c_0."""
    n = m.n
    a = [[Fraction(x) for x in row] for row in m.rows]

    def mat_mul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def trace(p) -> Fraction:
        return sum(p[i][i] for i in range(n))

    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        ck = -trace(mk) / k
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = mat_mul(a, mk)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise InputError("characteristic polynomial of an int matrix must be integral")
        out.append(int(c))
    return out


def inertia_by_charpoly_signs(m: IntMatrix) -> Inertia:
    """Inertia via Descartes' rule on the characteristic polynomial."""
    if not m.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    coeffs = characteristic_polynomial(m)
    n_zero = 0
    while n_zero <= m.n and coeffs[n_zero] == 0:
        n_zero += 1
    reduced = coeffs[n_zero:]

    def variations(seq) -> int:
        signs = [x for x in seq if x != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    n_plus = variations(reduced)
    flipped = [c if i % 2 == 0 else -c for i, c in enumerate(reduced)]
    n_minus = variations(flipped)
    return Inertia(n_plus, n_minus, n_zero)


def brute_search_scheme(
    g: LabeledGraph, d: int, budget: int | None = None
) -> AddressScheme | None:
    """search_scheme's answer, node count and budget, one candidate at a time.

    Same BFS vertex order, lexicographic word order and column-sort symmetry
    break; each word scanned counts one node, whether it is rejected or not.
    """
    if g.n > MAX_VERTICES:
        raise TooLarge(f"{g.n} vertices exceeds the guard of {MAX_VERTICES}")
    if d < 0:
        raise InputError("address length must be nonnegative")
    if g.n == 0:
        return AddressScheme(d, ())
    dist = all_pairs_distances(g)
    order = _bfs_order(g)
    # words as tuples over codes 0, 1, 2 (2 prints as *)
    words = sorted(product((0, 1, 2), repeat=d))
    assigned: list[tuple[int, ...]] = []
    nodes = 0

    def word_dist(a: tuple[int, ...], b: tuple[int, ...]) -> int:
        return sum(1 for x, y in zip(a, b) if x + y == 1)

    def columns_stay_sorted(cand: tuple[int, ...]) -> bool:
        rows = assigned + [cand]
        prev = tuple(r[0] for r in rows) if d else ()
        for j in range(1, d):
            col = tuple(r[j] for r in rows)
            if col < prev:
                return False
            prev = col
        return True

    def extend(t: int) -> tuple[str, ...] | None:
        nonlocal nodes
        if t == len(order):
            by_label = [""] * g.n
            for pos, v in enumerate(order):
                by_label[v - 1] = "".join(ALPHABET[c] for c in assigned[pos])
            return tuple(by_label)
        v = order[t]
        for cand in words:
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"budget of {budget} nodes exhausted")
            ok = all(
                word_dist(assigned[pos], cand) == dist.rows[order[pos] - 1][v - 1]
                for pos in range(t)
            )
            if not ok or not columns_stay_sorted(cand):
                continue
            assigned.append(cand)
            found = extend(t + 1)
            assigned.pop()
            if found is not None:
                return found
        return None

    found = extend(0)
    return None if found is None else AddressScheme(d, found)
