from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gentlegp import Matrix, PrimeField, QQ, intersect_subspaces, parse_field
from gentlegp.linalg import Rationals


def test_kernel_of_identity_is_trivial():
    assert Matrix.identity(QQ, 3).kernel_basis().ncols == 0


def test_kernel_of_zero_map_is_everything():
    k = Matrix.zeros(QQ, 2, 3).kernel_basis()
    assert k.ncols == 3
    assert k.rank() == 3


def test_kernel_rank_one():
    m = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    k = m.kernel_basis()
    assert k.ncols == 1
    x, y = k.column_vector(0)
    assert x == -y != 0
    assert m.mul(k).is_zero()


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    assert m.solve([1, 2, 3]) == [Fraction(1), Fraction(2), Fraction(3)]


def test_solve_inconsistent():
    assert Matrix.zeros(QQ, 2, 2).solve([1, 0]) is None


def test_solve_underdetermined_verified_by_residual():
    m = Matrix.from_rows(QQ, [[1, 1]])
    x = m.solve([2])
    assert x is not None and x[0] + x[1] == 2


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(QQ, 2).solve([1, 2, 3])
    with pytest.raises(ValueError):
        Matrix.identity(QQ, 2).solve(Matrix.identity(QQ, 3))


def test_intersect_same_space():
    b = Matrix.from_rows(QQ, [[1, 0], [0, 1], [0, 0]])
    assert intersect_subspaces([b, b]).rank() == 2


def test_intersect_complementary_lines():
    e1 = Matrix.from_rows(QQ, [[1], [0]])
    e2 = Matrix.from_rows(QQ, [[0], [1]])
    assert intersect_subspaces([e1, e2]).ncols == 0


def test_intersect_plane_with_line():
    plane = Matrix.identity(QQ, 2)
    line = Matrix.from_rows(QQ, [[1], [1]])
    got = intersect_subspaces([plane, line])
    assert got.ncols == 1
    x, y = got.column_vector(0)
    assert x == y != 0


def test_intersect_mismatched_ambient():
    with pytest.raises(ValueError):
        intersect_subspaces([Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)])


def test_zero_by_n_matrices_are_legal():
    m = Matrix.zeros(QQ, 0, 3)
    assert m.rank() == 0
    assert m.kernel_basis().ncols == 3
    n = Matrix.zeros(QQ, 3, 0)
    assert n.kernel_basis().ncols == 0


small_entries = st.integers(min_value=-4, max_value=4)


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_nullity(nrows, ncols, data):
    rows = [[data.draw(small_entries) for _ in range(ncols)]
            for _ in range(nrows)]
    m = Matrix.from_rows(QQ, rows)
    assert m.rank() + m.kernel_basis().ncols == ncols
    assert m.mul(m.kernel_basis()).is_zero()


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_agrees_with_large_prime_field(nrows, ncols, data):
    # dimension counts over Q and over F_p agree for p past the pivots
    rows = [[data.draw(st.integers(0, 1)) for _ in range(ncols)]
            for _ in range(nrows)]
    mq = Matrix.from_rows(QQ, rows)
    mp = Matrix.from_rows(PrimeField(10007), rows)
    assert mq.rank() == mp.rank()


def _draw_matrix(data, fld, nrows, ncols):
    return Matrix(fld, nrows, ncols,
                  [[fld.of(data.draw(small_entries)) for _ in range(ncols)]
                   for _ in range(nrows)])


@given(st.sampled_from([QQ, PrimeField(5)]), st.integers(0, 4),
       st.integers(0, 4), st.lists(st.booleans(), max_size=3), st.data())
def test_solve_matrix_rhs(fld, nrows, ncols, consistent, data):
    a = _draw_matrix(data, fld, nrows, ncols)
    nrhs = len(consistent)
    # each column is either in the image of a or drawn at random
    image = a.mul(_draw_matrix(data, fld, ncols, nrhs))
    noise = _draw_matrix(data, fld, nrows, nrhs)
    b = Matrix(fld, nrows, nrhs,
               [[i if keep else r
                 for i, r, keep in zip(irow, rrow, consistent)]
                for irow, rrow in zip(image.rows, noise.rows)])
    x = a.solve(b)
    by_column = [a.solve(b.column_vector(j)) for j in range(nrhs)]
    unsolvable = [a.rank() != Matrix.hstack(fld, [a, Matrix.column(
        fld, b.column_vector(j))]).rank() for j in range(nrhs)]
    assert (x is None) == any(unsolvable)
    assert [c is None for c in by_column] == unsolvable
    if x is not None:
        assert (x.nrows, x.ncols) == (ncols, nrhs)
        assert a.mul(x) == b
        assert [x.column_vector(j) for j in range(nrhs)] == by_column


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.div(f5.of(3), f5.of(4)) == (3 * pow(4, -1, 5)) % 5
    with pytest.raises(ValueError):
        PrimeField(6)


def test_parse_field():
    assert parse_field("q") == QQ
    assert isinstance(parse_field("q"), Rationals)
    assert parse_field("F7") == PrimeField(7)
    with pytest.raises(ValueError):
        parse_field("r64")
