import pytest
from hypothesis import given
from hypothesis import strategies as st

from superbracket.fields import GF, QQ
from superbracket.linalg import (
    DimensionMismatch,
    _rref_raw,
    Matrix,
    Vector,
    coordinates_in_span,
    echelon_span,
    eigenspace,
    kernel_basis,
    solve_linear,
)
from superbracket.constructions import sl2_algebra

F5 = GF(5)


def test_kernel_rank_one():
    m = Matrix(QQ, [[1, 1], [2, 2]])
    assert kernel_basis(m) == [Vector(QQ, [-1, 1])]


def test_kernel_injective():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_mod_5():
    m = Matrix(F5, [[2, 1], [4, 2]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert (m @ v).is_zero()
    # spans the same line as (1, 3): v = v0 * (1, 3)
    assert v == Vector(F5, [1, 3]).scaled(v.entries[0])


def test_solve_identity():
    sol = solve_linear(Matrix.identity(QQ, 2), Vector(QQ, [4, 9]))
    assert sol == Vector(QQ, [4, 9])


def test_solve_inconsistent():
    m = Matrix(QQ, [[1, 1], [1, 1]])
    assert solve_linear(m, Vector(QQ, [0, 1])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_linear(Matrix.identity(QQ, 2), Vector(QQ, [1, 2, 3]))


def test_eigenspace_diagonal():
    m = Matrix.diagonal(QQ, [2, 0, -2])
    assert eigenspace(m, 2) == [Vector.unit(QQ, 3, 0)]


def test_eigenspace_of_ad_h_on_sl2():
    # ad(H) in the (E, H, F) basis, then row-reduce
    sl2 = sl2_algebra(QQ)
    ad_h = sl2.ad(1)
    assert ad_h == Matrix.diagonal(QQ, [2, 0, -2])
    assert eigenspace(ad_h, 0) == [Vector.unit(QQ, 3, 1)]  # span{H}


def test_matrix_inverse_and_det():
    m = Matrix(QQ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv @ m == Matrix.identity(QQ, 2)
    assert m.det() == QQ.scalar(1)
    assert Matrix(QQ, [[1, 2], [2, 4]]).inverse() is None
    assert Matrix(F5, [[2, 0], [0, 3]]).det() == F5.scalar(1)


def test_power():
    n = Matrix(QQ, [[0, 1], [0, 0]])
    assert n.power(2).is_zero()
    assert n.power(0) == Matrix.identity(QQ, 2)


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, field):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix(field, data)


@given(matrices(QQ))
def test_kernel_property_rationals(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - m.rank()
    for v in basis:
        assert (m @ v).is_zero()


@given(matrices(F5))
def test_kernel_property_mod_p(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - m.rank()
    for v in basis:
        assert (m @ v).is_zero()


@given(matrices(QQ))
def test_solve_property(m):
    basis = kernel_basis(m)
    x = Vector(QQ, list(range(1, m.cols + 1)))
    b = m @ x
    sol = solve_linear(m, b)
    assert sol is not None
    assert m @ sol == b
    assert coordinates_in_span(basis + [x], sol) is not None


def test_echelon_span_is_canonical():
    v1 = Vector(QQ, [2, 4, 0])
    v2 = Vector(QQ, [1, 2, 1])
    b1 = echelon_span(QQ, [v1, v2])
    b2 = echelon_span(QQ, [v2, v1, v1 + v2])
    assert b1 == b2
    assert b1[0].entries[0] == 1  # leading ones


# --- oracle for the sparse eliminator ----------------------------------------


def dense_rref(field, rows):
    """Textbook dense Gauss-Jordan over any field: leftmost pivot, row swap,
    scale to 1, clear the column everywhere.  Slow reference for _rref_raw."""
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if f and i != r:
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


ORACLE_FIELDS = [QQ, GF(5), GF(7), GF(10**9 + 7), GF(2**61 - 1)]


def field_values(field):
    if field.kind == "prime":
        return st.integers(min_value=1, max_value=field.p - 1)
    return st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@st.composite
def raw_systems(draw, field):
    """Rows of raw field entries: sparse (about 2% nonzero, up to 40 x 40) or
    dense (up to 8 x 8) with zero rows and zero columns forced in; row and
    column counts are drawn independently."""
    values = field_values(field).map(field.coerce)
    zero = field.zero()
    if draw(st.booleans()):
        m = draw(st.integers(0, 40))
        n = draw(st.integers(0, 40))
        rows = [[zero] * n for _ in range(m)]
        if m and n:
            cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), values)
            for i, j, x in draw(st.lists(cells, max_size=max(1, m * n // 50))):
                rows[i][j] = x
    else:
        m = draw(st.integers(0, 8))
        n = draw(st.integers(0, 8))
        rows = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(m)]
        if m and n:
            for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
                rows[i] = [zero] * n
            for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
                for row in rows:
                    row[j] = zero
    return rows


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@given(data=st.data())
def test_sparse_rref_matches_dense_oracle(field, data):
    rows = data.draw(raw_systems(field))
    frozen = [tuple(r) for r in rows]
    assert _rref_raw(field, rows) == dense_rref(field, rows)
    assert [tuple(r) for r in rows] == frozen  # input left untouched


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_sparse_rref_edge_shapes(field):
    one, zero = field.one(), field.zero()
    two = field.from_int(2)
    cases = [
        [],  # no rows
        [[], []],  # no columns
        [[zero] * 3] * 4,  # zero matrix
        [[one, two], [two, one], [one, one], [zero, one]],  # tall
        [[zero, one, two, zero], [zero, two, one, zero]],  # zero columns
    ]
    for rows in cases:
        assert _rref_raw(field, rows) == dense_rref(field, rows)
