import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_kernel, dense_product, dense_rref, echelon_span, solve_linear
from superbracket import linalg
from superbracket.fields import GF, QQ, FieldError
from superbracket.linalg import (
    DimensionMismatch,
    _densified,
    _peel,
    _reduce,
    _rref_raw,
    Matrix,
    Span,
    Vector,
    intertwiners,
    kernel_basis,
    sparse_kernel_basis,
)
from superbracket.constructions import sl2_algebra
from superbracket.sl2 import _weight_spaces

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


def eigenspace(m, lam):
    """ker(M - lam) from sl2._weight_spaces, the one weight routine, on M's
    sparse columns, written out densely."""
    from conftest import sparse_columns

    space = _weight_spaces(m.field, sparse_columns(m), m.rows, [lam]).get(lam, [])
    return [_densified(m.field, v, m.rows) for v in space]


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
    assert Span(QQ, basis + [x]).coordinates(sol) is not None


def test_echelon_span_is_canonical():
    v1 = Vector(QQ, [2, 4, 0])
    v2 = Vector(QQ, [1, 2, 1])
    b1 = echelon_span(QQ, [v1, v2])
    b2 = echelon_span(QQ, [v2, v1, v1 + v2])
    assert b1 == b2
    assert b1[0].entries[0] == 1  # leading ones


# --- oracle for the sparse eliminator and kernel ------------------------------


ORACLE_FIELDS = [QQ, GF(5), GF(7), GF(10**9 + 7), GF(2**61 - 1)]


def densified(field, kernel, n):
    """The sparse vectors of sparse_kernel_basis on range(n) as Vectors of
    length n, holding their raw entries."""
    return [Vector._from_raw(field, [v.get(j, field.zero()) for j in range(n)]) for v in kernel]


def field_values(field):
    if field.kind == "prime":
        return st.integers(min_value=1, max_value=field.p - 1)
    return st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@st.composite
def raw_systems(draw, field, n_rows=None):
    """Rows of raw field entries: sparse (about 2% nonzero, up to 40 x 40) or
    dense (up to 8 x 8) with zero rows and zero columns forced in; row and
    column counts are drawn independently, or ``n_rows`` rows if given."""
    values = field_values(field).map(field.coerce)
    zero = field.zero()
    if draw(st.booleans()):
        m = draw(st.integers(0, 40)) if n_rows is None else n_rows
        n = draw(st.integers(0, 40))
        rows = [[zero] * n for _ in range(m)]
        if m and n:
            cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), values)
            for i, j, x in draw(st.lists(cells, max_size=max(1, m * n // 50))):
                rows[i][j] = x
    else:
        m = draw(st.integers(0, 8)) if n_rows is None else n_rows
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
@given(data=st.data())
def test_product_matches_the_all_pairs_oracle(field, data):
    # sparse and dense factors with zero rows and columns, of any shapes
    # that multiply, empty ones too: summing the right rows at each left
    # row's nonzeros gives the product of one dot product per entry
    a = Matrix._from_raw(field, data.draw(raw_systems(field)))
    b = Matrix._from_raw(field, data.draw(raw_systems(field, n_rows=a.cols)))
    product = a @ b
    assert product == dense_product(a, b)
    assert (product.rows, product.cols) == (a.rows, b.cols if a.rows else 0)
    assert_raw(field, product)


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


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@given(data=st.data())
def test_sparse_kernel_matches_dense_oracle(field, data):
    rows = data.draw(raw_systems(field))
    n = len(rows[0]) if rows else data.draw(st.integers(0, 6))
    cells = [(i, j) for i in range(len(rows)) for j in range(n)]
    sparse = [{c: x for c, x in enumerate(r) if x} for r in rows]
    for i, j in data.draw(st.lists(st.sampled_from(cells), max_size=3)) if cells else []:
        sparse[i].setdefault(j, rows[i][j])  # explicit zero entries are ignored
    frozen = [dict(r) for r in sparse]
    kernel = sparse_kernel_basis(field, sparse, range(n))
    assert all(list(v) == sorted(v) and all(v.values()) for v in kernel)  # increasing, no zeros
    basis = densified(field, kernel, n)
    assert basis == [Vector(field, v) for v in dense_kernel(field, rows, n)]
    assert sparse == frozen  # input left untouched
    for v, r in itertools.product(basis, sparse):
        acc = field.zero()
        for j, x in r.items():
            acc = field.add(acc, field.mul(x, v.entries[j]))
        assert not acc
    if rows:
        assert basis == kernel_basis(Matrix(field, rows))


# denominators with shared and coprime factors, up to a 31-bit prime
DENOMINATORS = [1, 2, 3, 4, 6, 7, 9, 12, 35, 97, 1001, 2**31 - 1]


@st.composite
def rational_systems(draw):
    """Q rows whose entries have assorted denominators and numerators up to
    10^6, at three densities, plus rows that are combinations of earlier
    ones so that some rows reduce to zero."""
    values = st.builds(
        Fraction, st.integers(-(10**6), 10**6).filter(bool), st.sampled_from(DENOMINATORS)
    )
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    rows = [
        [draw(values) if draw(st.floats(0, 1)) < density else Fraction(0) for _ in range(n)]
        for _ in range(m)
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(values)
        rows.insert(draw(st.integers(0, len(rows))), [x + c * y for x, y in zip(rows[a], rows[b])])
    return rows


@given(rational_systems())
def test_fraction_free_elimination_matches_dense_oracle(rows):
    # over Q the eliminator runs on integer rows; what it returns must still
    # be the dense Fraction RREF, entry for entry and type for type
    n = len(rows[0]) if rows else 0
    red, pivots = _rref_raw(QQ, rows)
    assert (red, pivots) == dense_rref(QQ, rows)
    assert all(type(x) is Fraction for row in red for x in row)
    basis = _reduce(QQ, map(enumerate, rows), set(range(n)))
    assert sorted(basis) == pivots
    for c, row in basis.items():
        assert row[c] == 1 and all(type(x) is Fraction and x for x in row.values())
    kernel = densified(QQ, sparse_kernel_basis(QQ, [dict(enumerate(r)) for r in rows], range(n)), n)
    assert [list(v.entries) for v in kernel] == dense_kernel(QQ, rows, n)
    assert all(type(x) is Fraction for v in kernel for x in v.entries)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@given(data=st.data())
def test_tall_full_rank_systems_match_the_dense_oracle(field, data):
    # an invertible n x n block, and up to 4n rows more, shuffled: the
    # pivot loop stops at full rank, and the RREF and the (empty) kernel
    # are still the dense oracle's
    values = field_values(field).map(field.coerce)
    n = data.draw(st.integers(1, 8))
    square = [
        [data.draw(values) if j >= i else field.zero() for j in range(n)] for i in range(n)
    ]  # upper triangular, nonzero diagonal
    extra = data.draw(st.lists(st.lists(values | st.just(field.zero()), min_size=n, max_size=n), max_size=4 * n))
    rows = data.draw(st.permutations(square + extra))
    assert _rref_raw(field, rows) == dense_rref(field, rows)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert sparse_kernel_basis(field, sparse, range(n)) == [] == dense_kernel(field, rows, n)


def test_pivot_loop_stops_at_full_rank_but_every_column_is_checked(monkeypatch):
    # rows {i, i + 1} and {0, n - 1} on an odd n columns span everything
    # and force no column; the rows after them are never reduced, yet a
    # column outside the labels is refused wherever it sits
    n = 5
    ring = [{i: 1, (i + 1) % n: 1} for i in range(n)]
    tail = [{j: (i * j) % 4 + 1 for j in range(n)} for i in range(40)]
    cancels = []
    cancel = linalg._cancel

    def counted(*args):
        cancels.append(None)
        return cancel(*args)

    monkeypatch.setattr(linalg, "_cancel", counted)
    for field in (QQ, F5):
        ring_q = [{c: field.coerce(x) for c, x in row.items()} for row in ring]
        tail_q = [{c: field.coerce(x) for c, x in row.items()} for row in tail]
        cancels.clear()
        alone = _reduce(field, (r.items() for r in ring_q), range(n))
        before = len(cancels)
        assert before
        assert _reduce(field, (r.items() for r in ring_q + tail_q), range(n)) == alone
        assert len(cancels) == 2 * before
        assert alone == {c: {c: field.one()} for c in range(n)}
        with pytest.raises(DimensionMismatch):
            _reduce(field, (r.items() for r in ring_q + tail_q + [{0: field.one(), n: field.one()}]), range(n))


@st.composite
def peelable_systems(draw, field):
    """Sparse rows over n columns, shuffled, built to exercise singleton
    peeling: chains ``{c_k, c_k+1}, ..., {c_last}`` that end in a singleton
    and so are settled one column at a time, exact duplicate rows, rows
    whose whole support lies in chain columns (they become empty), and a
    dense remainder on the columns no chain reaches (with stray entries in
    chain columns, deleted by the peel).  Returns ``(rows, n, chain
    columns)``.
    """
    values = field_values(field).map(field.coerce)
    n = draw(st.integers(1, 16))
    cols = draw(st.permutations(range(n)))
    cut = draw(st.integers(0, n))
    chained, rest = cols[:cut], cols[cut:]
    rows = []
    start = 0
    while start < len(chained):
        chain = chained[start : start + draw(st.integers(1, 5))]
        start += len(chain)
        rows.extend({a: draw(values), b: draw(values)} for a, b in zip(chain, chain[1:]))
        rows.append({chain[-1]: draw(values)})
    for _ in range(draw(st.integers(0, 3)) if len(chained) > 1 else 0):
        support = draw(st.sets(st.sampled_from(chained), min_size=2, max_size=4))
        rows.append({c: draw(values) for c in support})
    for _ in range(draw(st.integers(0, 4)) if rest else 0):
        row = {c: draw(values) for c in rest if draw(st.booleans())}
        row.update((c, draw(values)) for c in chained if draw(st.integers(0, 3)) == 0)
        if row:
            rows.append(row)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        rows.append(dict(draw(st.sampled_from(rows))))
    return draw(st.permutations(rows)), n, set(chained)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(10**9 + 7)], ids=str)
@given(data=st.data())
def test_peeling_matches_dense_oracle(field, data):
    # the forced columns are settled before the pivot loop; the RREF and the
    # kernel must still be the dense oracle's, and the caller's rows intact
    sparse, n, chained = data.draw(peelable_systems(field))
    dense = [[r.get(j, field.zero()) for j in range(n)] for r in sparse]
    frozen = copy.deepcopy(sparse)
    red, pivots = _rref_raw(field, dense)
    assert (red, pivots) == dense_rref(field, dense)
    assert chained <= set(pivots)
    basis = densified(field, sparse_kernel_basis(field, sparse, range(n)), n)
    assert basis == [Vector(field, v) for v in dense_kernel(field, dense, n)]
    assert sparse == frozen  # the eliminator works on copies
    forced, left = _peel([r.items() for r in sparse], set(range(n)))
    assert sparse == frozen  # the peel copies each row
    assert chained <= forced
    assert all(len(r) > 1 and not forced & r.keys() for r in left)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@given(data=st.data())
def test_span_matches_solve_linear_and_dense_oracle(field, data):
    # the vectors are the rows of a drawn system, plus a few combinations of
    # them inserted anywhere, so that the list is dependent
    vectors = [Vector(field, row) for row in data.draw(raw_systems(field))]
    n = len(vectors[0]) if vectors else data.draw(st.integers(1, 6))
    if not n:
        return  # no Matrix has zero rows and k > 0 columns; see test_span_edge_cases
    rng = data.draw(st.randoms(use_true_random=False))

    def value():
        return rng.randrange(1, field.p) if field.p else Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5))

    def combination():  # of up to three of the vectors
        terms = [rng.randrange(len(vectors)) for _ in range(rng.randint(0, 3))] if vectors else []
        return sum((vectors[i].scaled(value()) for i in terms), Vector.zero(field, n))

    for _ in range(rng.randint(0, 3) if vectors else 0):
        vectors.insert(rng.randint(0, len(vectors)), combination())
    span = Span(field, vectors, n)
    matrix = Matrix.from_columns(field, vectors) if vectors else Matrix.zero(field, n, 0)
    _, pivots = dense_rref(field, [v.entries for v in vectors])
    assert list(span.basis) == echelon_span(field, vectors)
    assert span.pivots == tuple(pivots)
    queries = [Vector.zero(field, n), Vector.unit(field, n, rng.randrange(n)), combination()]
    queries += rng.sample(vectors, min(2, len(vectors)))
    queries.append(Vector(field, [value() if rng.randrange(3) else 0 for _ in range(n)]))
    for w in queries:
        coords = span.coordinates(w)
        assert coords == solve_linear(matrix, w)
        assert (w in span) == (coords is not None)


def test_span_edge_cases():
    empty = Span(F5, [], 3)
    assert empty.basis == () and empty.pivots == ()
    assert empty.coordinates(Vector.zero(F5, 3)) == Vector(F5, [])
    assert empty.coordinates(Vector.unit(F5, 3, 1)) is None
    # vectors of length 0 span the zero space; each coordinate is 0
    nothing = Vector(QQ, [])
    assert Span(QQ, [nothing, nothing]).coordinates(nothing) == Vector(QQ, [0, 0])
    assert Span(QQ, [], 0).coordinates(nothing) == solve_linear(Matrix(QQ, []), nothing)
    # the dependent vector gets coordinate 0, as in solve_linear
    v = Vector(QQ, [1, 2])
    assert Span(QQ, [v, v.scaled(3)]).coordinates(v.scaled(6)) == Vector(QQ, [6, 0])
    assert Span(QQ, [Vector.zero(QQ, 2), v]).coordinates(v) == Vector(QQ, [0, 1])


def test_span_rejects_mixed_fields_and_lengths():
    span = Span(QQ, [Vector(QQ, [1, 2])])
    with pytest.raises(FieldError):
        Span(QQ, [Vector(F5, [1, 2])])
    with pytest.raises(FieldError):
        Span(QQ, [Vector(QQ, [1, 2]), Vector(F5, [1, 2])])
    for query in (span.coordinates, span.__contains__):
        with pytest.raises(FieldError):
            query(Vector(F5, [1, 2]))
        with pytest.raises(DimensionMismatch):
            query(Vector(QQ, [1, 2, 3]))
    with pytest.raises(DimensionMismatch):
        Span(QQ, [Vector(QQ, [1, 2]), Vector(QQ, [1, 2, 3])])
    with pytest.raises(DimensionMismatch):
        Span(QQ, [Vector(QQ, [1, 2])], 3)
    with pytest.raises(ValueError):
        Span(QQ, [])
    # the oracle raises the same errors
    with pytest.raises(FieldError):
        solve_linear(Matrix.from_columns(QQ, [Vector(QQ, [1, 2])]), Vector(F5, [1, 2]))
    with pytest.raises(DimensionMismatch):
        solve_linear(Matrix.from_columns(QQ, [Vector(QQ, [1, 2])]), Vector(QQ, [1, 2, 3]))


def test_sparse_kernel_rejects_columns_out_of_range():
    with pytest.raises(DimensionMismatch):
        sparse_kernel_basis(QQ, [{3: Fraction(1)}], range(3))
    with pytest.raises(DimensionMismatch):
        sparse_kernel_basis(F5, [{-1: 1}], range(3))
    with pytest.raises(DimensionMismatch):
        sparse_kernel_basis(F5, [{0: 1, 1: 2}, {2: 1, 3: 4}], range(3))
    with pytest.raises(DimensionMismatch):
        sparse_kernel_basis(F5, [{1: 1, 2: 1}], [0, 2, 5])  # between two labels
    for labels in ([2, 1], [1, 1], [0, 3, 3, 4]):
        with pytest.raises(DimensionMismatch, match="strictly increasing"):
            sparse_kernel_basis(F5, [], labels)
    assert sparse_kernel_basis(F5, [], range(2)) == [{0: 1}, {1: 1}]
    assert sparse_kernel_basis(F5, [], [4, 9]) == [{4: 1}, {9: 1}]
    # a zero entry is ignored wherever it sits
    assert sparse_kernel_basis(F5, [{0: 1, 9: 0}], range(2)) == [{1: 1}]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@given(data=st.data())
def test_sparse_kernel_on_increasing_labels_is_the_compacted_kernel_mapped_back(field, data):
    # the eliminator keys rows by column and pivots on the least one, so on
    # any strictly increasing labels the kernel is that of the same system
    # on range(n), column j renamed labels[j]: each vector sparse, its
    # entries in increasing order, with a 1 at its free column, which comes
    # last
    rows = data.draw(raw_systems(field))
    n = len(rows[0]) if rows else data.draw(st.integers(0, 6))
    labels = sorted(data.draw(st.sets(st.integers(-(10**6), 10**9), min_size=n, max_size=n)))
    sparse = [{labels[j]: x for j, x in enumerate(r) if x} for r in rows]
    kernel = sparse_kernel_basis(field, sparse, labels)
    expected = [{labels[j]: x for j, x in enumerate(v) if x} for v in dense_kernel(field, rows, n)]
    assert kernel == expected
    for v in kernel:
        assert list(v) == sorted(v) and v[max(v)] == field.one()


# --- the raw-entry contract behind Matrix._from_raw / Vector._from_raw -----------


def assert_raw(field, *objs):
    """Each entry is the field's raw type (Fraction over Q, an int residue
    in [0, p) over F_p) and coercing the entries again changes nothing.
    The type check matters: Fraction(1) == 1, so equality alone would let a
    stray int through over Q or a Fraction through over F_p."""
    for obj in objs:
        if isinstance(obj, Vector):
            assert Vector(field, obj.entries) == obj
            entries = obj.entries
        else:
            assert Matrix(field, obj.data) == obj
            entries = [x for row in obj.data for x in row]
        for x in entries:
            if field.kind == "rationals":
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < field.p


@pytest.mark.parametrize("field", [QQ, GF(5), GF(10**9 + 7), GF(2**61 - 1)], ids=str)
@given(data=st.data())
def test_results_hold_raw_entries(field, data):
    n = data.draw(st.integers(1, 4))
    cells = st.one_of(st.just(field.zero()), field_values(field).map(field.coerce))
    square = st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n)
    a = Matrix(field, data.draw(square))
    b = Matrix(field, data.draw(square))
    v, w = a.column(0), b.row(n - 1)
    k = data.draw(st.integers(-7, 7))
    assert_raw(
        field,
        Matrix.identity(field, n),
        Matrix.zero(field, n, n + 1),
        Matrix.from_columns(field, [v, w]),
        Matrix.diagonal(field, list(range(-1, n - 1))),
        a + b,
        a - b,
        -a,
        a.scaled(k),
        a @ b,
        a.transpose(),
        a.rref()[0],
        a @ v,
        v + w,
        v - w,
        -v,
        v.scaled(k),
        Vector.zero(field, n),
        Vector.unit(field, n, 0),
        *kernel_basis(a),
        *densified(field, sparse_kernel_basis(field, [dict(enumerate(r)) for r in a.data], range(n)), n),
        *echelon_span(field, [v, w]),
    )
    inv = a.inverse()
    if inv is not None:
        assert_raw(field, inv)
    x = solve_linear(a, b.column(0))
    if x is not None:
        assert_raw(field, x)


def test_constructors_reject_mixed_fields():
    q = Vector(QQ, [1, 2])
    with pytest.raises(FieldError):
        Matrix.from_columns(F5, [q])
    with pytest.raises(FieldError):
        Matrix.identity(F5, 2) @ q


def kronecker_rows(field, pairs):
    """The condition X A = B X as dense rows of I_m (x) A^T - B (x) I_n acting
    on X flattened row by row, one block per pair: the slow reference for
    intertwiners."""
    rows = []
    for a, b in pairs:
        n, m = a.rows, b.rows
        for r, c in itertools.product(range(m), range(n)):
            rows.append([
                field.sub(
                    a.data[k][c] if r == r2 else field.zero(),
                    b.data[r][r2] if k == c else field.zero(),
                )
                for r2, k in itertools.product(range(m), range(n))
            ])
    return rows


@pytest.mark.parametrize("field", [QQ, F5, GF(7)], ids=str)
def test_intertwiners_match_the_kronecker_oracle(field, rng):
    sl2 = sl2_algebra(field)
    swap = Matrix(field, [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    cases = [
        # the centraliser of build_double under the E <-> F swap: one line
        [(sl2.ad(i), sl2.ad_vec(swap.column(i))) for i in range(3)],
        # X diag(1, 2) = diag(3, 4, 5) X has only X = 0: no eigenvalue is shared
        [(Matrix.diagonal(field, [1, 2]), Matrix.diagonal(field, [3, 4, 5]))],
    ]
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)

        def sparse(k):
            entries = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(k)] for _ in range(k)]
            return Matrix(field, entries)

        cases.append([(sparse(n), sparse(m)) for _ in range(rng.randint(1, 3))])
    sizes = set()
    for pairs in cases:
        n, m = pairs[0][0].rows, pairs[0][1].rows
        basis = intertwiners(field, pairs)
        oracle = dense_kernel(field, kronecker_rows(field, pairs), m * n)
        assert basis == [Matrix(field, [v[r * n : r * n + n] for r in range(m)]) for v in oracle]
        assert intertwiners(field, pairs[::-1]) == basis
        assert all(x @ a == b @ x for x in basis for a, b in pairs)
        sizes.add(len(basis))
    assert len(intertwiners(field, cases[0])) == 1
    assert intertwiners(field, cases[1]) == []
    assert max(sizes) > 1


def test_intertwiners_reject_bad_pairs():
    with pytest.raises(ValueError):
        intertwiners(QQ, [])
    with pytest.raises(DimensionMismatch):
        intertwiners(QQ, [(Matrix.identity(QQ, 2),) * 2, (Matrix.identity(QQ, 3),) * 2])
    with pytest.raises(DimensionMismatch):
        intertwiners(QQ, [(Matrix.zero(QQ, 2, 3), Matrix.identity(QQ, 3))])
    with pytest.raises(FieldError):
        intertwiners(QQ, [(Matrix.identity(F5, 2), Matrix.identity(F5, 2))])
