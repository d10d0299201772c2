"""Independent slow-path recomputations used to cross-validate the kernels.

These deliberately avoid the algorithms in linalg: no elimination and no
Bareiss. The determinant here is Laplace expansion along the first row with
each minor expanded once, O(n 2^n) work instead of n!. The inertia comes
from Descartes' rule of signs applied to the exact characteristic polynomial
(computed by the Faddeev-LeVerrier trace recurrence in integers, with exact
divisions). Descartes' rule counts roots exactly for real-rooted
polynomials, and symmetric matrices have only real eigenvalues, so the sign
counts are the inertia. The address search here tests every candidate word
against each assigned vertex and the column order one by one, where
addressing.search_scheme works on bitmasks.
"""

from __future__ import annotations

from itertools import product

from .addressing import ALPHABET, MAX_VERTICES, AddressScheme, BudgetExceeded, TooLarge
from .errors import InputError
from .graphs import LabeledGraph, all_pairs_distances
from .linalg import Inertia, NotSymmetric
from .matrices import IntMatrix


def det_by_cofactor_expansion(m: IntMatrix) -> int:
    """Laplace expansion along the first remaining row, zero entries skipped.

    A minor on the last r rows is fixed by its r remaining columns, and each
    one is expanded once per call: O(n 2^n) work instead of n!. Small n only.
    """
    rows = m.rows
    n = m.n
    # remaining columns -> determinant of rows n - len(cols) .. n - 1 on them
    minors: dict[tuple[int, ...], int] = {(): 1}

    def rec(cols: tuple[int, ...]) -> int:
        known = minors.get(cols)
        if known is not None:
            return known
        row = rows[n - len(cols)]
        total = 0
        for j, c in enumerate(cols):
            if row[c] == 0:
                continue
            term = row[c] * rec(cols[:j] + cols[j + 1 :])
            total += -term if j & 1 else term
        minors[cols] = total
        return total

    return rec(tuple(range(n)))


def characteristic_polynomial(m: IntMatrix) -> list[int]:
    """Coefficients c_0..c_n of det(x I - A) = x^n + c_{n-1} x^{n-1} + ... + c_0.

    Faddeev-LeVerrier in ints: M_1 = A, M_k = A (M_{k-1} + c_{n-k+1} I) and
    c_{n-k} = -tr(M_k) / k. Every M_k is an integer polynomial in A and every
    c_k an integer, so each division by k is exact.
    """
    n = m.n
    a = m.rows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [list(row) for row in a]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise InputError("characteristic polynomial of an int matrix must be integral")
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            cols = list(zip(*mk))
            mk = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return coeffs


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
    # BFS order from vertex 1: by distance from 1, ties by label
    order = sorted(range(1, g.n + 1), key=lambda v: (dist.rows[0][v - 1], v))
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
