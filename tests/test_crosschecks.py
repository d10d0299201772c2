import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import fraction_det
from test_matrices import identity, zeros

from cpgraphs import suites
from cpgraphs.crosschecks import (
    bfs_distances,
    characteristic_polynomial,
    det_by_cofactor_expansion,
    inertia_by_charpoly_signs,
    is_connected,
)
from cpgraphs.errors import InputError
from cpgraphs.graphs import LabeledGraph, path_graph
from cpgraphs.linalg import Inertia, NotSymmetric, determinant, inertia_congruence
from cpgraphs.matrices import IntMatrix


def test_bfs_distances():
    g = path_graph(5)
    # slot 0 of the 1-indexed list is unused and stays -1
    assert bfs_distances(g, 1) == [-1, 0, 1, 2, 3, 4]
    assert bfs_distances(g, 3) == [-1, 2, 1, 0, 1, 2]
    split = LabeledGraph(4, ((1, 2), (3, 4)))
    assert bfs_distances(split, 1) == [-1, 0, 1, -1, -1]
    assert is_connected(g) and is_connected(LabeledGraph(0, ())) and is_connected(path_graph(1))
    assert not is_connected(split)


@pytest.mark.parametrize("bad", [0, 6, -1])
def test_bfs_distances_refuses_a_source_outside_the_graph(bad):
    with pytest.raises(InputError, match=rf"^vertex {bad} outside 1\.\.5$"):
        bfs_distances(path_graph(5), bad)


def test_expansion_small():
    assert det_by_cofactor_expansion(IntMatrix.from_rows([])) == 1
    assert det_by_cofactor_expansion(IntMatrix.from_rows([[5]])) == 5
    assert det_by_cofactor_expansion(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2


def test_charpoly_known():
    # det(xI - A) for A = [[2,1],[1,2]] is x^2 - 4x + 3
    assert characteristic_polynomial(IntMatrix.from_rows([[2, 1], [1, 2]])) == [3, -4, 1]
    assert characteristic_polynomial(IntMatrix.from_rows([[0]])) == [0, 1]
    assert characteristic_polynomial(IntMatrix.from_rows([])) == [1]


def test_charpoly_constant_term_is_det():
    rng = random.Random(40)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        coeffs = characteristic_polynomial(m)
        assert len(coeffs) == n + 1
        assert coeffs[-1] == 1
        # det(xI - A) at x = 0 gives (-1)^n det(A)
        assert coeffs[0] == (-1) ** n * det_by_cofactor_expansion(m)


def test_sign_rule_examples():
    assert inertia_by_charpoly_signs(zeros(2)) == Inertia(0, 0, 2)
    assert inertia_by_charpoly_signs(identity(3)) == Inertia(3, 0, 0)
    assert inertia_by_charpoly_signs(
        IntMatrix.from_rows([[0, 1], [1, 0]])
    ) == Inertia(1, 1, 0)
    with pytest.raises(NotSymmetric):
        inertia_by_charpoly_signs(IntMatrix.from_rows([[0, 2], [1, 0]]))


@st.composite
def int_matrices(draw, max_n):
    """Square int matrices, not necessarily symmetric, with some zero entries."""
    n = draw(st.integers(0, max_n))
    cells = st.one_of(st.just(0), st.integers(-6, 6))
    return IntMatrix.from_rows(
        [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)]
    )


def leibniz_det(m):
    total = 0
    for perm in permutations(range(m.n)):
        inversions = sum(
            1 for i in range(m.n) for j in range(i + 1, m.n) if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m.rows[i][j]
        total += term
    return total


@settings(derandomize=True, deadline=None, max_examples=120)
@given(int_matrices(max_n=7))
def test_charpoly_evaluates_to_det_of_x_minus_a(m):
    coeffs = characteristic_polynomial(m)
    n = m.n
    assert len(coeffs) == n + 1 and coeffs[n] == 1
    for x in range(n + 1):
        shifted = IntMatrix.from_rows(
            [[(x if i == j else 0) - m.rows[i][j] for j in range(n)] for i in range(n)]
        )
        assert sum(c * x**k for k, c in enumerate(coeffs)) == fraction_det(shifted)


@settings(derandomize=True, deadline=None)
@given(int_matrices(max_n=6))
def test_expansion_matches_leibniz_sum(m):
    assert det_by_cofactor_expansion(m) == leibniz_det(m)


@settings(derandomize=True, deadline=None)
@given(int_matrices(max_n=9))
def test_expansion_matches_fraction_elimination(m):
    assert det_by_cofactor_expansion(m) == fraction_det(m)


def test_crossval_suite_catches_a_wrong_determinant(monkeypatch):
    monkeypatch.setattr(suites, "determinant", lambda m: determinant(m) + 1)
    r = suites.run_suite("linalg-crossval", scale=20)
    assert r.failed == 20
    assert r.failures[0].startswith("matrix 0: determinant ")


def test_crossval_suite_catches_a_wrong_inertia(monkeypatch):
    def wrong(m):
        i = inertia_congruence(m)
        return Inertia(i.n_minus, i.n_plus + 1, i.n_zero)

    monkeypatch.setattr(suites, "inertia_congruence", wrong)
    r = suites.run_suite("linalg-crossval", scale=20)
    assert r.failed >= 20
    assert any("congruence" in f and "sign rule" in f for f in r.failures)
