import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpgraphs.matrices import DimensionMismatch, IntMatrix


def brute_matmul(a, b):
    # reference product, written independently of IntMatrix.__matmul__
    n = a.n
    return [[sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_identity_and_zeros():
    i3 = IntMatrix.identity(3)
    z3 = IntMatrix.zeros(3)
    assert i3.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert z3.rows == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert IntMatrix.ones(2).rows == ((1, 1), (1, 1))


def test_rejects_ragged_and_nonsquare():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5]])


def test_matmul_against_reference():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        b = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert (a @ b).rows == tuple(tuple(r) for r in brute_matmul(a, b))


def square_rows(n):
    return st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def left_factors(draw, n):
    """Left factors of every sparsity the row-combination product branches on."""
    kinds = ["dense", "zero_rows", "identity", "one_per_row", "plus_minus_one", "big"]
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return IntMatrix.identity(n)
    if kind == "one_per_row":
        rows = [[0] * n for _ in range(n)]
        for r in rows:
            r[draw(st.integers(0, n - 1))] = draw(st.integers(-9, 9).filter(bool))
        return IntMatrix.from_rows(rows)
    if kind == "plus_minus_one":
        # the shape of a reducing matrix's E^T: at most 4 entries from {-1, 0, 1}
        rows = [[0] * n for _ in range(n)]
        for r in rows:
            for k in draw(st.lists(st.integers(0, n - 1), max_size=min(n, 4), unique=True)):
                r[k] = draw(st.sampled_from([-1, 0, 1]))
        return IntMatrix.from_rows(rows)
    if kind == "big":
        # far past machine-sized ints, with some entries left zero or +-1
        big = st.integers(-9, 9).map(lambda x: x * 2**70 + x)
        entries = st.one_of(big, st.sampled_from([-1, 0, 1]))
        row = st.lists(entries, min_size=n, max_size=n)
        return IntMatrix.from_rows(draw(st.lists(row, min_size=n, max_size=n)))
    rows = draw(square_rows(n))
    if kind == "zero_rows":
        rows = [r if draw(st.booleans()) else [0] * n for r in rows]
    return IntMatrix.from_rows(rows)


@st.composite
def factor_pairs(draw):
    n = draw(st.integers(0, 7))
    return draw(left_factors(n)), IntMatrix.from_rows(draw(square_rows(n)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(factor_pairs())
@example((IntMatrix.zeros(0), IntMatrix.zeros(0)))
@example((IntMatrix.zeros(3), IntMatrix.ones(3)))
def test_matmul_any_sparsity_against_reference(pair):
    a, b = pair
    assert (a @ b).rows == tuple(tuple(r) for r in brute_matmul(a, b))


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        IntMatrix.identity(2) @ IntMatrix.identity(3)


def test_transpose_involution():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert a.t.t == a
        assert a.t.rows == tuple(tuple(a.rows[j][i] for j in range(n)) for i in range(n))


def test_add():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[10, 0], [0, 10]])
    assert (a + b).rows == ((11, 2), (3, 14))


def test_is_symmetric():
    assert IntMatrix.from_rows([[0, 5], [5, 0]]).is_symmetric()
    assert not IntMatrix.from_rows([[0, 5], [4, 0]]).is_symmetric()


def test_leading_submatrix():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.leading(2).rows == ((1, 2), (4, 5))
    assert a.leading(0).rows == ()


def test_symmetric_permute_is_relabeling():
    a = IntMatrix.from_rows([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    p = a.symmetric_permute((3, 1, 2))
    # entry (i, j) of the result reads the old matrix at (order[i], order[j])
    assert p.rows == ((0, 2, 3), (2, 0, 1), (3, 1, 0))


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = IntMatrix.from_rows([[rng.randint(-10**12, 10**12) for _ in range(n)] for _ in range(n)])
        assert IntMatrix.from_json_rows(a.to_json_rows()) == a
    # big entries survive as decimal strings
    big = IntMatrix.from_rows([[10**40]])
    assert big.to_json_rows() == [["1" + "0" * 40]]
    assert IntMatrix.from_json_rows(big.to_json_rows()) == big
