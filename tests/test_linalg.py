import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import InputError, Matrix, QQ, parse_field
from gentlegp.linalg import echelon, kernel_vectors

from conftest import field_id
from reference import (add, column, div, from_rows, hstack, identity, mul,
                       of, solve, sub)


def _kernel(m):
    """The matrix whose columns are the kernel vectors of m."""
    vectors = list(kernel_vectors(m.field, m.rows, m.ncols).values())
    return Matrix(m.field, len(vectors), m.ncols, vectors).transpose()


def _column(m, j):
    """Column j of m as a list of entries."""
    return [row.get(j, 0) for row in m.rows]


def test_kernel_of_identity_is_trivial():
    assert _kernel(identity(QQ, 3)).ncols == 0


def test_kernel_of_zero_map_is_everything():
    k = _kernel(Matrix.zeros(QQ, 2, 3))
    assert k.ncols == 3
    assert k.rank() == 3


def test_kernel_rank_one():
    m = from_rows(QQ, [[1, 1], [1, 1]])
    k = _kernel(m)
    assert k.ncols == 1
    x, y = _column(k, 0)
    assert x == -y != 0
    assert not any(m.mul(k).rows)


def test_solve_identity():
    m = identity(QQ, 3)
    assert solve(m, [1, 2, 3]) == [Fraction(1), Fraction(2), Fraction(3)]


def test_solve_inconsistent():
    assert solve(Matrix.zeros(QQ, 2, 2), [1, 0]) is None


def test_solve_underdetermined_verified_by_residual():
    m = from_rows(QQ, [[1, 1]])
    x = solve(m, [2])
    assert x is not None and x[0] + x[1] == 2


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(QQ, 2), [1, 2, 3])
    with pytest.raises(ValueError):
        solve(identity(QQ, 2), identity(QQ, 3))


def test_zero_by_n_matrices_are_legal():
    m = Matrix.zeros(QQ, 0, 3)
    assert m.rank() == 0
    assert _kernel(m).ncols == 3
    n = Matrix.zeros(QQ, 3, 0)
    assert _kernel(n).ncols == 0


small_entries = st.integers(min_value=-4, max_value=4)


def _matrix(fld, nrows, ncols, rows):
    """The Matrix of dense rows, also for 0 x ncols."""
    return from_rows(fld, rows) if rows else Matrix.zeros(fld, 0, ncols)


def _dense(m):
    """The rows of m as lists of entries, zeros included."""
    return [[row.get(j, 0) for j in range(m.ncols)]
            for row in m.rows]


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_nullity(nrows, ncols, data):
    rows = [[data.draw(small_entries) for _ in range(ncols)]
            for _ in range(nrows)]
    m = from_rows(QQ, rows)
    assert m.rank() + _kernel(m).ncols == ncols
    assert not any(m.mul(_kernel(m)).rows)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_agrees_with_large_prime_field(nrows, ncols, data):
    # dimension counts over Q and over F_p agree for p past the pivots
    rows = [[data.draw(st.integers(0, 1)) for _ in range(ncols)]
            for _ in range(nrows)]
    mq = from_rows(QQ, rows)
    mp = from_rows(10007, rows)
    assert mq.rank() == mp.rank()


def _draw_matrix(data, fld, nrows, ncols):
    return _matrix(fld, nrows, ncols,
                   [[of(fld, data.draw(small_entries)) for _ in range(ncols)]
                    for _ in range(nrows)])


@given(st.sampled_from([QQ, 5]), st.integers(0, 4),
       st.integers(0, 4), st.lists(st.booleans(), max_size=3), st.data())
def test_solve_matrix_rhs(fld, nrows, ncols, consistent, data):
    a = _draw_matrix(data, fld, nrows, ncols)
    nrhs = len(consistent)
    # each column is either in the image of a or drawn at random
    image = a.mul(_draw_matrix(data, fld, ncols, nrhs))
    noise = _draw_matrix(data, fld, nrows, nrhs)
    b = _matrix(fld, nrows, nrhs,
                [[i if keep else r
                  for i, r, keep in zip(irow, rrow, consistent)]
                 for irow, rrow in zip(_dense(image), _dense(noise))])
    x = solve(a, b)
    by_column = [solve(a, _column(b, j)) for j in range(nrhs)]
    unsolvable = [a.rank() != hstack(fld, [a, column(
        fld, _column(b, j))]).rank() for j in range(nrhs)]
    assert (x is None) == any(unsolvable)
    assert [c is None for c in by_column] == unsolvable
    if x is not None:
        assert (x.nrows, x.ncols) == (ncols, nrhs)
        assert a.mul(x) == b
        assert [_column(x, j) for j in range(nrhs)] == by_column


def test_prime_field_arithmetic():
    f5 = 5
    assert div(f5, of(f5, 3), of(f5, 4)) == (3 * pow(4, -1, 5)) % 5


def test_prime_field_of_inverts_denominators():
    f101 = 101
    assert of(f101, Fraction(1, 2)) == 51
    assert of(f101, Fraction(3, 2)) == 52
    assert of(f101, -1) == 100
    with pytest.raises(InputError, match="no image in F_101"):
        of(f101, Fraction(1, 101))


def test_parse_field():
    # a field is its characteristic, a plain int
    for spec, p in (("q", 0), ("F7", 7), ("f2", 2),
                    ("f2147483647", 2 ** 31 - 1)):
        assert parse_field(spec) == p and type(parse_field(spec)) is int
    assert parse_field("q") == QQ


TOO_LARGE = "prime field characteristic must be below 2^31"


@pytest.mark.parametrize("spec, reason", [
    ("f6", "6 is not prime"), ("f0", "0 is not prime"),
    ("f1", "1 is not prime"), ("f4", "4 is not prime"),
    ("f2147483648", TOO_LARGE), ("f12345678901", TOO_LARGE),
    ("r64", "unrecognized field spec 'r64'")])
def test_parse_field_refuses(spec, reason):
    with pytest.raises(InputError, match=f"^{re.escape(reason)}$"):
        parse_field(spec)


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError, match="unequal"):
        from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError, match="unequal"):
        from_rows(5, [[1], [2, 3]])


def test_solve_rejects_short_right_hand_side():
    a = identity(QQ, 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve(a, [1, 2])
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve(a, Matrix.zeros(QQ, 2, 4))


# ------------------------------------------- sparse kernel vs dense reference

def reference_rref(fld, rows, npiv):
    """Plain dense Gauss-Jordan with the reference's field operations: the
    reduced rows and the pivot columns, pivots sought before npiv."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(npiv):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c] != 0),
                 None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = div(fld, 1, rows[r][c])
        rows[r] = [mul(fld, inv, x) for x in rows[r]]
        for k in range(len(rows)):
            f = rows[k][c]
            if k != r and f != 0:
                rows[k] = [sub(fld, x, mul(fld, f, y))
                           for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_kernel(fld, a):
    rows, pivots = reference_rref(fld, _dense(a), a.ncols)
    free = [c for c in range(a.ncols) if c not in pivots]
    out = [[0] * len(free) for _ in range(a.ncols)]
    for k, fc in enumerate(free):
        out[fc][k] = 1
        for r, pc in enumerate(pivots):
            out[pc][k] = sub(fld, 0, rows[r][fc])
    return _matrix(fld, a.ncols, len(free), out)


def reference_solve(fld, a, b):
    """X with a X = b for a Matrix b, or None."""
    n = a.ncols
    rows, pivots = reference_rref(
        fld, [ra + rb for ra, rb in zip(_dense(a), _dense(b))], n)
    if any(x != 0 for row in rows[len(pivots):] for x in row[n:]):
        return None
    x = [[0] * b.ncols for _ in range(n)]
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][n:]
    return _matrix(fld, n, b.ncols, x)


KERNEL_FIELDS = [QQ, 5, 101]


def _draw_sparse(data, fld, nrows, ncols):
    """A sparse matrix with some rows and columns forced to zero; over Q
    the entries are either plain ints, as the program's own integral
    matrices hold, or Fractions with denominators 1 to 6."""
    zero_rows = data.draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    zero_cols = data.draw(st.sets(st.integers(0, max(ncols - 1, 0))))
    if fld != QQ:
        entry = st.integers(0, fld - 1)
    elif data.draw(st.booleans()):
        entry = st.integers(-6, 6)
    else:
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    rows = [[data.draw(entry)
             if i not in zero_rows and j not in zero_cols
             and data.draw(st.integers(0, 2)) == 0 else 0
             for j in range(ncols)] for i in range(nrows)]
    # entries are field elements already: from_rows would make Fractions
    return Matrix(fld, nrows, ncols,
                  [{j: x for j, x in enumerate(r) if x} for r in rows])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 3), st.data())
def test_kernel_matches_dense_reference(fld, nrows, ncols, nrhs, data):
    a = _draw_sparse(data, fld, nrows, ncols)
    rows, pivots = reference_rref(fld, _dense(a), ncols)
    got_rows, got_pivots = echelon(
        fld, [{j: x for j, x in enumerate(r) if x} for r in _dense(a)], ncols)
    assert got_pivots == pivots
    assert got_rows == [{j: x for j, x in enumerate(r) if x}
                        for r in rows[:len(pivots)]]
    assert a.rank() == len(pivots)
    assert _kernel(a) == reference_kernel(fld, a)
    # right-hand sides in the image of a or drawn at random
    if data.draw(st.booleans()):
        b = a.mul(_draw_sparse(data, fld, ncols, nrhs))
    else:
        b = _draw_sparse(data, fld, nrows, nrhs)
    assert solve(a, b) == reference_solve(fld, a, b)
    for j in range(nrhs):
        x = reference_solve(fld, a, column(fld, _column(b, j)))
        assert solve(a, _column(b, j)) == (
            None if x is None else _column(x, 0))


def test_rational_echelon_keeps_integers_and_divides_exactly():
    # an integral Q row stays ints; a pivot that does not divide an entry
    # leaves a Fraction, and one that does leaves an int
    rows, pivots = echelon(QQ, [{0: 2, 1: 1}], 2)
    assert (rows, pivots) == ([{0: 1, 1: Fraction(1, 2)}], [0])
    assert type(rows[0][0]) is int and type(rows[0][1]) is Fraction
    rows = echelon(QQ, [{0: 2, 1: 4}, {0: 1, 2: -3}], 3)[0]
    assert rows == [{0: 1, 2: -3}, {1: 1, 2: Fraction(3, 2)}]
    assert [type(x) for x in rows[0].values()] == [int, int]
    # Fraction input with denominator 1 comes out as ints too
    rows = echelon(QQ, [{0: Fraction(3), 1: Fraction(-6)}], 2)[0]
    assert rows == [{0: 1, 1: -2}]
    assert all(type(x) is int for x in rows[0].values())
    vectors = kernel_vectors(QQ, [{0: 1, 1: -1, 2: 2}], 3)
    assert vectors == {1: {1: 1, 0: 1}, 2: {2: 1, 0: -2}}
    assert all(type(x) is int for v in vectors.values() for x in v.values())


# ------------------------------------------- sparse Matrix vs dense reference

def reference_mul(fld, a, b, ncols):
    """Plain dense product with the reference's field operations."""
    out = []
    for row in a:
        acc = [0] * ncols
        for k, x in enumerate(row):
            for j in range(ncols):
                acc[j] = add(fld, acc[j], mul(fld, x, b[k][j]))
        out.append(acc)
    return out


def assert_no_stored_zero(m):
    for row in m.rows:
        for j, x in row.items():
            assert 0 <= j < m.ncols and x != 0
            assert m.field == QQ or 0 < x < m.field
    assert len(m.rows) == m.nrows


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 5), st.integers(0, 5), st.data())
def test_sparse_matrix_matches_dense_reference(fld, n, k, m, extra, data):
    a = _draw_sparse(data, fld, n, k)
    b = _draw_sparse(data, fld, k, m)
    c = _draw_sparse(data, fld, n, extra)
    d = _draw_sparse(data, fld, extra, k)
    da, db, dc, dd = map(_dense, (a, b, c, d))

    prod = a.mul(b)
    assert (prod.nrows, prod.ncols) == (n, m)
    assert _dense(prod) == reference_mul(fld, da, db, m)
    # a times its kernel basis: every entry's terms cancel
    assert a.mul(_kernel(a)).rows == [{}] * n
    t = a.transpose()
    assert (t.nrows, t.ncols) == (k, n)
    assert _dense(t) == [[row[j] for row in da] for j in range(k)]
    h = hstack(fld, [a, c, a])
    assert (h.nrows, h.ncols) == (n, 2 * k + extra)
    assert _dense(h) == [ra + rc + ra for ra, rc in zip(da, dc)]
    for j in range(k):
        assert t.rows[j] == {i: row[j] for i, row in enumerate(da) if row[j]}
    for x in (a, b, prod, t, h):
        assert_no_stored_zero(x)
        # equality is that of the dense entries, through a round trip
        assert x == _matrix(fld, x.nrows, x.ncols, _dense(x))
    assert (a == d) == ((n, da) == (extra, dd))
    assert (prod == c) == ((m, _dense(prod)) == (extra, dc))
    if n:
        assert _dense(from_rows(fld, da)) == da


@pytest.mark.parametrize("fld", KERNEL_FIELDS, ids=field_id)
def test_products_that_cancel_store_no_zero(fld):
    # [1 1] times [[1, 2], [-1, 3]] is [0, 5], and 5 vanishes in F_5
    prod = from_rows(fld, [[1, 1]]).mul(
        from_rows(fld, [[1, 2], [-1, 3]]))
    assert prod.rows == [{} if fld == 5 else {1: of(fld, 5)}]
    assert_no_stored_zero(prod)


# --------------------------------------- block-diagonal systems split by block

def _shift(row, by):
    return {j + by: x for j, x in row.items()}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=4), st.data())
def test_block_diagonal_stack_splits_into_its_blocks(fld, shapes, data):
    # Hom(M, Lambda) is one system whose unknowns and equations split by
    # the projective summands of Lambda, its rows interleaved
    blocks = [_draw_sparse(data, fld, n, k) for n, k in shapes]
    offsets = [sum(k for _, k in shapes[:i]) for i in range(len(shapes))]
    width = sum(k for _, k in shapes)
    stacked = [_shift(r, off) for b, off in zip(blocks, offsets)
               for r in b.rows]
    stacked = data.draw(st.permutations(stacked))
    prows, pivots, want_vectors = [], [], {}
    for b, off in zip(blocks, offsets):
        rows, cols = echelon(fld, b.rows, b.ncols)
        prows += [_shift(r, off) for r in rows]
        pivots += [c + off for c in cols]
        want_vectors.update(
            (c + off, _shift(v, off))
            for c, v in kernel_vectors(fld, b.rows, b.ncols).items())
    assert echelon(fld, stacked, width) == (prows, pivots)
    assert echelon(fld, stacked, width, False)[1] == pivots
    got = kernel_vectors(fld, stacked, width)
    assert list(got) == list(want_vectors) and got == want_vectors
