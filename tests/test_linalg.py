import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgraphs import linalg
from cpgraphs.crosschecks import det_by_cofactor_expansion, inertia_by_charpoly_signs
from cpgraphs.formulas import cp2_invariants, distance_invariants, family_invariants
from cpgraphs.graphs import all_pairs_distances, build_cp_graph, path_graph
from cpgraphs.linalg import (
    ConsecutiveZeroMinors,
    DimensionTooSmall,
    Inertia,
    NotSymmetric,
    Singular,
    cofactor_sum,
    det_and_inertia,
    determinant,
    inertia_congruence,
    inertia_leading_minors,
    leading_principal_minors,
    reduced_cofactor_sum,
)
from cpgraphs.matrices import IntMatrix
from cpgraphs.sequences import CliquePathSpec, expand_clique_path_spec
from cpgraphs.suites import random_member, random_nonleaping


def fraction_det(m):
    """Plain Gaussian elimination over Fractions, independent of Bareiss."""
    n = m.n
    a = [[Fraction(x) for x in row] for row in m.rows]
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    assert det.denominator == 1
    return int(det)


def brute_cofactor_sum(m):
    n = m.n
    total = 0
    for i in range(n):
        for j in range(n):
            minor = [
                [m.rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            total += (-1) ** (i + j) * det_by_cofactor_expansion(IntMatrix.from_rows(minor))
    return total


def rand_symmetric(rng, n, lo=-5, hi=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return IntMatrix.from_rows(rows)


def rand_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            u[j][k] += c * u[i][k]
    return IntMatrix.from_rows(u)


def test_determinant_basics():
    assert determinant(IntMatrix.from_rows([])) == 1
    assert determinant(IntMatrix.from_rows([[7]])) == 7
    assert determinant(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert determinant(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30
    assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    # needs a row swap to find a pivot
    assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1


def test_determinant_vs_expansion():
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert determinant(m) == det_by_cofactor_expansion(m)


def test_determinant_vs_fraction_elimination():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(1, 7)
        m = IntMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        )
        assert determinant(m) == fraction_det(m)


def test_determinant_multiplicative():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        b = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert determinant(a @ b) == determinant(a) * determinant(b)


def test_inertia_dataclass():
    i = Inertia(1, 2, 0)
    assert i.as_tuple() == (1, 2, 0)
    assert i.order == 3
    assert str(i) == "(1, 2, 0)"
    assert i != (1, 2, 0)  # tuples compare via as_tuple(), not ==


def test_inertia_examples():
    assert inertia_congruence(IntMatrix.from_rows([])) == Inertia(0, 0, 0)
    assert inertia_congruence(IntMatrix.zeros(3)) == Inertia(0, 0, 3)
    assert inertia_congruence(
        IntMatrix.from_rows([[2, 0, 0], [0, -3, 0], [0, 0, 0]])
    ) == Inertia(1, 1, 1)
    d = all_pairs_distances(path_graph(3))
    assert inertia_congruence(d) == Inertia(1, 2, 0)
    # all-zero diagonal but nonsingular
    assert inertia_congruence(IntMatrix.from_rows([[0, 1], [1, 0]])) == Inertia(1, 1, 0)
    # all-zero diagonal and first row: the add pivot has to be swapped in
    m = IntMatrix.from_rows([[0, 0, 0, 0], [0, 0, 1, 2], [0, 1, 0, 3], [0, 2, 3, 0]])
    assert det_and_inertia(m) == (0, Inertia(1, 2, 1))


def test_inertia_requires_symmetry():
    with pytest.raises(NotSymmetric):
        inertia_congruence(IntMatrix.from_rows([[0, 1], [2, 0]]))
    with pytest.raises(NotSymmetric):
        inertia_leading_minors(IntMatrix.from_rows([[0, 1], [2, 0]]))


def test_inertia_vs_charpoly_oracle():
    rng = random.Random(23)
    for _ in range(80):
        m = rand_symmetric(rng, rng.randint(1, 6))
        assert inertia_congruence(m) == inertia_by_charpoly_signs(m)


def test_inertia_congruence_invariance():
    # inertia survives any change of basis with an integer unimodular matrix
    rng = random.Random(24)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = rand_symmetric(rng, n)
        u = rand_unimodular(rng, n)
        assert inertia_congruence(u.t @ a @ u) == inertia_congruence(a)


def test_inertia_permutation_invariance():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = rand_symmetric(rng, n)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        assert inertia_congruence(a.symmetric_permute(order)) == inertia_congruence(a)


def test_inertia_counts_sum_and_det_sign():
    rng = random.Random(26)
    for _ in range(50):
        n = rng.randint(1, 6)
        a = rand_symmetric(rng, n)
        i = inertia_congruence(a)
        assert i.n_plus + i.n_minus + i.n_zero == n
        d = determinant(a)
        if i.n_zero == 0:
            assert d != 0 and (d < 0) == (i.n_minus % 2 == 1)
        else:
            assert d == 0


def test_leading_minors():
    d = all_pairs_distances(path_graph(3))
    assert leading_principal_minors(d) == [0, -1, 4]


def test_inertia_from_minors():
    d = all_pairs_distances(path_graph(3))
    # minor signs 1, 0, -1, 4: one zero skipped, two sign changes
    assert inertia_leading_minors(d) == Inertia(1, 2, 0)
    diag = IntMatrix.from_rows([[2, 0], [0, -3]])
    assert inertia_leading_minors(diag) == Inertia(1, 1, 0)


def test_inertia_from_minors_preconditions():
    with pytest.raises(Singular):
        inertia_leading_minors(IntMatrix.zeros(2))
    with pytest.raises(Singular):
        inertia_leading_minors(IntMatrix.from_rows([[1, 1], [1, 1]]))
    # nonsingular, but the first two leading minors both vanish
    m = IntMatrix.from_rows([[0, 0, 1], [0, 5, 0], [1, 0, 0]])
    assert determinant(m) == -5
    with pytest.raises(ConsecutiveZeroMinors):
        inertia_leading_minors(m)


def test_minor_rule_agrees_when_applicable():
    rng = random.Random(27)
    applied = 0
    for _ in range(120):
        m = rand_symmetric(rng, rng.randint(1, 6))
        try:
            got = inertia_leading_minors(m)
        except (Singular, ConsecutiveZeroMinors):
            continue
        applied += 1
        assert got == inertia_congruence(m)
    assert applied > 30  # the rule should apply to a decent share


def test_cofactor_sum():
    d = all_pairs_distances(path_graph(3))
    assert cofactor_sum(d) == 4
    rng = random.Random(28)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert cofactor_sum(m) == brute_cofactor_sum(m)


def test_reduced_cofactor_sum():
    # bumping only the leading 2x2 block by ones
    assert reduced_cofactor_sum(IntMatrix.from_rows([[0, 1], [1, 0]])) == -2
    with pytest.raises(DimensionTooSmall):
        reduced_cofactor_sum(IntMatrix.from_rows([[3]]))


@st.composite
def symmetric_matrices(draw, min_n=0, max_n=7):
    """Dense, all-zero-diagonal, low-rank or sparse symmetric integer matrices.

    The zero-diagonal kind forces the row/column-add pivot; the low-rank
    kind (a signed sum of r < n outer products) leaves a zero block behind.
    The sparse kind is shaped like a reduced graph's adjacency: diagonal in
    {0, -2}, most other entries 0, so rows with a zero multiplier go stale
    and zero pivots turn up while they are.
    """
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(("dense", "zero_diagonal", "low_rank", "sparse")))
    if kind == "low_rank":
        r = draw(st.integers(0, max(0, n - 1)))
        terms = draw(
            st.lists(
                st.tuples(
                    st.sampled_from((-1, 1)),
                    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                ),
                min_size=r,
                max_size=r,
            )
        )
        rows = [
            [sum(s * v[i] * v[j] for s, v in terms) for j in range(n)] for i in range(n)
        ]
        return IntMatrix.from_rows(rows)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and kind == "zero_diagonal":
                continue
            if kind == "sparse":
                values = (0, -2) if i == j else (0, 0, 0, 0, 0, 0, 1, -1, 2)
                rows[i][j] = rows[j][i] = draw(st.sampled_from(values))
            else:
                rows[i][j] = rows[j][i] = draw(st.integers(-5, 5))
    return IntMatrix.from_rows(rows)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(symmetric_matrices())
def test_det_and_inertia_vs_oracles(m):
    det, inertia = det_and_inertia(m)
    assert det == det_by_cofactor_expansion(m)
    assert inertia == inertia_by_charpoly_signs(m)
    assert inertia_congruence(m) == inertia


@settings(derandomize=True, deadline=None)
@given(symmetric_matrices())
def test_cofactor_sum_vs_brute_force(m):
    assert cofactor_sum(m) == brute_cofactor_sum(m)


@settings(derandomize=True, deadline=None)
@given(symmetric_matrices(min_n=2))
def test_reduced_cofactor_sum_is_rank_one_update(m):
    rows = [list(r) for r in m.rows]
    for i in range(2):
        for j in range(2):
            rows[i][j] += 1
    bumped = IntMatrix.from_rows(rows)
    want = det_by_cofactor_expansion(bumped) - det_by_cofactor_expansion(m)
    assert reduced_cofactor_sum(m) == want


def test_large_two_clique_path_matches_closed_form():
    # n = 2 + sum(p - 2) = 120; the closed form uses no linear algebra
    spec = CliquePathSpec((3, 4, 5) * 19 + (4, 4))
    assert spec.n == 120
    g = build_cp_graph(random_member(random.Random(0), expand_clique_path_spec(spec)))
    assert distance_invariants(g) == cp2_invariants(spec)


def test_large_random_family_members_match_family_invariants():
    # the reduced matrix is banded, so most of its rows go stale in the kernel
    rng = random.Random(8)
    for n in (40, 49, 57, 64):
        s = random_nonleaping(rng, n)
        assert distance_invariants(build_cp_graph(random_member(rng, s))) == family_invariants(s)


def _bordered_by_ones(m):
    return IntMatrix.from_rows([list(r) + [1] for r in m.rows] + [[1] * m.n + [0]])


# dense, zero-diagonal and low-rank symmetric matrices, and [[A, 1], [1^T, 0]] as in cofactor_sum
symmetric_or_bordered = st.one_of(
    symmetric_matrices(max_n=8), symmetric_matrices(max_n=7).map(_bordered_by_ones)
)


@st.composite
def near_symmetric_matrices(draw):
    """A symmetric matrix with one off-diagonal entry changed."""
    m = draw(symmetric_or_bordered.filter(lambda m: m.n >= 2))
    i, j = draw(st.permutations(range(m.n)))[:2]
    rows = [list(r) for r in m.rows]
    rows[i][j] += draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    return IntMatrix.from_rows(rows)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(symmetric_or_bordered)
def test_symmetric_determinant_vs_oracles(m):
    det = determinant(m)
    assert det == det_by_cofactor_expansion(m)
    assert det == det_and_inertia(m)[0]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(near_symmetric_matrices())
def test_near_symmetric_determinant_takes_the_row_pivot_path(m):
    assert not m.is_symmetric()
    with mock.patch.object(linalg, "_symmetric_bareiss", side_effect=AssertionError):
        assert determinant(m) == det_by_cofactor_expansion(m)
