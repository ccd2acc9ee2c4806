"""Exact linear algebra over Q and F_p.

``Matrix`` and ``Vector`` are dense and immutable.  Elimination takes
sparse rows: one exact routine for every field reduces ``{column: value}``
dicts against a basis keyed by pivot column, so the work follows the
nonzeros of the ~1%-dense systems the solver assembles.  It first peels
the forced columns, as structured Gaussian elimination does (LaMacchia and
Odlyzko, CRYPTO 1990): a row with a single entry forces its column, which
is deleted from every other row, and rows that shrink to one entry are
peeled in turn.  Most rows of the solver's systems are settled this way;
only the rows left reach the pivot loop.  That loop runs on Python
ints for every field: over F_p on residues, reduced mod p after each step;
over Q fraction-free, on primitive integer rows (Bareiss, Math. Comp. 22,
1968, with content removal instead of exact division), converted to
``Fraction`` only when a row is returned.  Kernels are read straight off
that reduced basis (:func:`sparse_kernel_basis`), and so are coordinates
and membership in a span (:class:`Span`, reduced once per list of
vectors); the dense RREF is built only where a caller asks for it
(``Matrix.rref``, ``inverse``).  The
eliminator keys rows by column and pivots on the least column of a row,
so it runs on any increasing column labels, not only ``range(n)``: the
same rows under labels renumbered in increasing order give the same
pivots, free columns and values.  :func:`sparse_kernel_basis` takes those
labels and returns each kernel vector sparse, so a solver can hand over
its equations under its own unknown numbers and a large kernel costs its
nonzeros, not its length squared; the callers that index a kernel vector
(:func:`kernel_basis`, :func:`intertwiners`) densify it there.
Results of field operations on raw entries are assembled without
re-coercion; the public ``Matrix(...)`` and ``Vector(...)`` constructors
still coerce.

Everything is deterministic: reduced row echelon form and its pivot columns
(leftmost first) are unique, so echelon forms, kernel bases and anything
derived from them are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import ge
from typing import Iterable, Sequence

from .fields import Field, FieldError, Scalar

__all__ = [
    "Matrix",
    "Vector",
    "DimensionMismatch",
    "kernel_basis",
    "sparse_kernel_basis",
    "intertwiners",
    "Span",
    "using_compiled_kernel",
]


class DimensionMismatch(ValueError):
    """Shapes of the operands are incompatible; a contract violation."""


def using_compiled_kernel() -> bool:
    """Always False: there is no compiled kernel, elimination is pure Python."""
    return False


def _reduce(field: Field, rows: Iterable[Iterable], cols: set) -> dict[int, dict]:
    """Reduced basis of the span of sparse rows, each given as ``(column,
    raw value)`` pairs (``dict.items()`` or ``enumerate`` of a dense row)
    with every column in ``cols``, the set of int column labels; zero
    values are ignored.

    Returns ``{pivot column: row}``; each row has a 1 at its pivot, which
    is its least column, and no entry in any other pivot column, so the
    rows sorted by pivot are the nonzero rows of the reduced row echelon
    form.  Only the order of the labels is ever compared, so renumbering
    them in increasing order renumbers the result and changes nothing else.

    The forced columns are peeled first (:func:`_peel`): each is a pivot
    whose RREF row is ``{c: 1}``, and the rows left hold none of them.
    Those rows then go through the pivot loop: each is reduced against the
    basis; a nonzero remainder is normalised and its pivot column is then
    cleared from the existing basis rows.  Since no forced column is ever
    touched there, the two parts together are the one reduced basis.  The
    loop stops once the pivots and the forced columns cover ``cols``: every
    row left lies in the span, and :func:`_peel` has already checked its
    columns.

    Over F_p a normalised row has a leading 1, found by the modular inverse.
    Over Q the loop runs fraction-free on Python ints: an incoming row is
    scaled by the lcm of its denominators, a column is cleared by
    cross-multiplication, and a normalised row is primitive (the gcd of its
    entries divided out) with a positive pivot -- the RREF row times the
    lcm of its denominators, so stored entries stay the size of the RREF's.
    Each row becomes ``Fraction(x, pivot)`` entries only when it is
    returned.  The input rows are left untouched: :func:`_peel` copies each
    one once, and that copy is what the loop consumes.
    """
    p = field.p if field.kind == "prime" else None
    forced, rows = _peel(rows, cols)
    full = len(cols) - len(forced)  # the rank at which the span is everything
    basis: dict[int, dict] = {}
    for row in rows:
        if len(basis) == full:
            break
        if not p:
            d = lcm(*(x.denominator for x in row.values()))
            row = {c: x.numerator * (d // x.denominator) for c, x in row.items()}
        for c in [c for c in row if c in basis]:
            _cancel(row, c, basis[c], p)
        if not row:
            continue
        pivot = min(row)
        row = _normalise(row, pivot, p)
        for other in basis.values():
            if pivot in other:
                _cancel(other, pivot, row, p)
        basis[pivot] = row
    if not p:
        basis = {c: {j: Fraction(x, row[c]) for j, x in row.items()} for c, row in basis.items()}
    one = field.one()
    for c in forced:
        basis[c] = {c: one}
    return basis


def _peel(rows: Iterable[Iterable], cols: set) -> tuple[set[int], list[dict]]:
    """Singleton peeling, the first step of structured Gaussian elimination
    (LaMacchia and Odlyzko, CRYPTO 1990).

    Each row is given as ``(column, raw value)`` pairs with columns in the
    set ``cols``; it is copied once into a dict without its zero entries, and
    the same loop that indexes it by column checks each column against
    ``cols`` (:class:`DimensionMismatch`), so the caller's rows are left
    untouched.
    A row ``{c: x}`` spans the unit vector e_c, so column c is forced: it is
    deleted from every other row.  A row that becomes a singleton forces its
    column in turn, and a row that becomes empty is dropped, until no
    singleton is left.  Returns ``(forced columns, rows left)``; each row
    left has two or more entries and none in a forced column.
    """
    forced: set[int] = set()
    where: dict[int, list[dict]] = {}
    multi = []
    for pairs in rows:
        row = {c: x for c, x in pairs if x}
        single = len(row) == 1
        if len(row) > 1:
            multi.append(row)
        for c in row:
            if c not in cols:
                raise DimensionMismatch(f"row entry in column {c!r}, not one of the columns")
            if single:
                forced.add(c)
            elif c in where:
                where[c].append(row)
            else:
                where[c] = [row]
    todo = list(forced)
    while todo:
        c = todo.pop()
        for row in where.pop(c, ()):
            del row[c]
            if len(row) == 1:
                (d,) = row
                if d not in forced:
                    forced.add(d)
                    todo.append(d)
    return forced, [row for row in multi if row]


def _cancel(row: dict, c: int, other: dict, p: int | None) -> None:
    """Clear column c of row in place with the basis row ``other`` (pivot
    c): row <- a*row - f*other for a = other[c] and f = row[c], both divided
    by their gcd, dropping entries that become zero.  Over F_p a = 1, so
    this is row -= f*other; over Q the result is made primitive again,
    which keeps the sign of every entry."""
    f, a = row[c], other[c]
    if a != 1:
        g = gcd(f, a)
        f, a = f // g, a // g
        if a != 1:
            for j in row:
                row[j] *= a
    for j, y in other.items():
        v = row.get(j, 0) - f * y
        if p:
            v %= p
        if v:
            row[j] = v
        else:
            del row[j]
    if not p:
        g = gcd(*row.values())
        if g > 1:
            for j in row:
                row[j] //= g


def _normalise(row: dict, pivot: int, p: int | None) -> dict:
    """The canonical multiple of a row: leading 1 over F_p; over Q the
    primitive integer row with a positive pivot."""
    lead = row[pivot]
    if p:
        if lead == 1:
            return row
        inv = pow(lead, -1, p)
        return {c: x * inv % p for c, x in row.items()}
    g = gcd(*row.values())
    if lead < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _rref_raw(field: Field, rows: Sequence[Sequence]) -> tuple[list, list]:
    """Reduced row echelon form of dense rows of raw field elements.

    Returns ``(rows, pivot columns)``: the nonzero RREF rows in pivot order,
    then zero rows up to the input row count.  The input is not modified.
    """
    n = len(rows[0]) if rows else 0
    basis = _reduce(field, map(enumerate, rows), set(range(n)))
    zero = field.zero()
    pivots = sorted(basis)
    out = []
    for c in pivots:
        dense = [zero] * n
        for j, x in basis[c].items():
            dense[j] = x
        out.append(dense)
    out.extend([zero] * n for _ in range(len(rows) - len(pivots)))
    return out, pivots


def _coerce_row(field: Field, row: Iterable) -> tuple:
    return tuple(field.coerce(x) for x in row)


def _check_fields(field: Field, vectors: Sequence["Vector"]) -> None:
    if any(v.field != field for v in vectors):
        raise FieldError(f"vector of another field used in a matrix over {field}")


class Vector:
    """Immutable coordinate vector over one field."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable):
        self.field = field
        self.entries = _coerce_row(field, entries)

    @classmethod
    def _from_raw(cls, field: Field, entries: Iterable) -> "Vector":
        """Vector of entries that already are raw field elements; no coercion."""
        v = cls.__new__(cls)
        v.field = field
        v.entries = tuple(entries)
        return v

    @staticmethod
    def zero(field: Field, n: int) -> "Vector":
        return Vector._from_raw(field, [field.zero()] * n)

    @staticmethod
    def unit(field: Field, n: int, i: int) -> "Vector":
        e = [field.zero()] * n
        e[i] = field.one()
        return Vector._from_raw(field, e)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Scalar:
        return Scalar(self.field, self.entries[i])

    def __iter__(self):
        return (Scalar(self.field, x) for x in self.entries)

    def __add__(self, o: "Vector") -> "Vector":
        self._check(o)
        f = self.field
        return Vector._from_raw(f, [f.add(a, b) for a, b in zip(self.entries, o.entries)])

    def __sub__(self, o: "Vector") -> "Vector":
        self._check(o)
        f = self.field
        return Vector._from_raw(f, [f.sub(a, b) for a, b in zip(self.entries, o.entries)])

    def __neg__(self) -> "Vector":
        return Vector._from_raw(self.field, [self.field.neg(a) for a in self.entries])

    def scaled(self, c) -> "Vector":
        c = self.field.coerce(c)
        f = self.field
        return Vector._from_raw(f, [f.mul(c, a) for a in self.entries])

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, o) -> bool:
        return (
            isinstance(o, Vector)
            and o.field == self.field
            and o.entries == self.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def _check(self, o: "Vector"):
        if not isinstance(o, Vector) or o.field != self.field:
            raise FieldError("mixed-field vector arithmetic")
        if len(o) != len(self):
            raise DimensionMismatch(f"length {len(self)} vs {len(o)}")

    def __repr__(self) -> str:
        return "(" + ", ".join(self.field.format(x) for x in self.entries) + ")"


class Matrix:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: Sequence[Iterable]):
        self._set(field, tuple(_coerce_row(field, row) for row in rows))

    @classmethod
    def _from_raw(cls, field: Field, rows: Sequence[Iterable]) -> "Matrix":
        """Matrix of rows that already hold raw field elements; no coercion."""
        m = cls.__new__(cls)
        m._set(field, tuple(tuple(row) for row in rows))
        return m

    def _set(self, field: Field, data: tuple) -> None:
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(r) != self.cols for r in data):
            raise DimensionMismatch("ragged rows")

    # --- constructors ----------------------------------------------------

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return Matrix._from_raw(
            field, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix._from_raw(field, [[z] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(field: Field, columns: Sequence[Vector]) -> "Matrix":
        _check_fields(field, columns)
        if not columns:
            return Matrix._from_raw(field, [])
        n = len(columns[0])
        return Matrix._from_raw(
            field, [[col.entries[i] for col in columns] for i in range(n)]
        )

    @staticmethod
    def diagonal(field: Field, entries: Iterable) -> "Matrix":
        ent = [field.coerce(x) for x in entries]
        z = field.zero()
        n = len(ent)
        return Matrix._from_raw(
            field, [[ent[i] if i == j else z for j in range(n)] for i in range(n)]
        )

    # --- accessors -------------------------------------------------------

    def row(self, i: int) -> Vector:
        return Vector._from_raw(self.field, self.data[i])

    def column(self, j: int) -> Vector:
        return Vector._from_raw(self.field, [r[j] for r in self.data])

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __eq__(self, o) -> bool:
        return (
            isinstance(o, Matrix)
            and o.field == self.field
            and o.data == self.data
        )

    def __hash__(self):
        return hash((self.field, self.data))

    # --- arithmetic ------------------------------------------------------

    def _check_same(self, o: "Matrix"):
        if not isinstance(o, Matrix) or o.field != self.field:
            raise FieldError("mixed-field matrix arithmetic")
        if (o.rows, o.cols) != (self.rows, self.cols):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {o.rows}x{o.cols}"
            )

    def __add__(self, o: "Matrix") -> "Matrix":
        self._check_same(o)
        f = self.field
        return Matrix._from_raw(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, o.data)
            ],
        )

    def __sub__(self, o: "Matrix") -> "Matrix":
        self._check_same(o)
        f = self.field
        return Matrix._from_raw(
            f,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, o.data)
            ],
        )

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix._from_raw(f, [[f.neg(a) for a in row] for row in self.data])

    def scaled(self, c) -> "Matrix":
        c = self.field.coerce(c)
        f = self.field
        return Matrix._from_raw(f, [[f.mul(c, a) for a in row] for row in self.data])

    def __matmul__(self, o):
        f = self.field
        if isinstance(o, Vector):
            if len(o) != self.cols:
                raise DimensionMismatch(f"{self.rows}x{self.cols} @ len {len(o)}")
            if o.field != f:
                raise FieldError("mixed-field matrix-vector product")
            return Vector._from_raw(f, [_dot(f, row, o.entries) for row in self.data])
        if not isinstance(o, Matrix) or o.field != f:
            raise FieldError("mixed-field matrix product")
        if self.cols != o.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} @ {o.rows}x{o.cols}"
            )
        # row i of the product sums the rows of o at the nonzeros of row i
        nonzeros = [[(j, b) for j, b in enumerate(row) if b] for row in o.data]
        add, mul, zero = f.add, f.mul, f.zero()
        out = []
        for row in self.data:
            acc = [zero] * o.cols
            for a, right in zip(row, nonzeros):
                if a:
                    for j, b in right:
                        acc[j] = add(acc[j], mul(a, b))
            out.append(acc)
        return Matrix._from_raw(f, out)

    def transpose(self) -> "Matrix":
        return Matrix._from_raw(self.field, list(zip(*self.data)) if self.data else [])

    def trace(self) -> Scalar:
        f = self.field
        t = f.zero()
        for i in range(min(self.rows, self.cols)):
            t = f.add(t, self.data[i][i])
        return Scalar(f, t)

    # --- elimination-based operations -------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        rows, pivots = _rref_raw(self.field, self.data)
        return Matrix._from_raw(self.field, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        f = self.field
        n = self.rows
        a = [list(r) for r in self.data]
        det = f.one()
        for c in range(n):
            pr = -1
            for i in range(c, n):
                if a[i][c]:
                    pr = i
                    break
            if pr < 0:
                return Scalar(f, f.zero())
            if pr != c:
                a[c], a[pr] = a[pr], a[c]
                det = f.neg(det)
            det = f.mul(det, a[c][c])
            inv = f.inv(a[c][c])
            for i in range(c + 1, n):
                if a[i][c]:
                    factor = f.mul(a[i][c], inv)
                    a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[c])]
        return Scalar(f, det)

    def inverse(self) -> "Matrix | None":
        """Inverse matrix, or None when singular."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        f = self.field
        one, zero = f.one(), f.zero()
        aug = [
            list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(self.data)
        ]
        red, pivots = _rref_raw(f, aug)
        if list(pivots[:n]) != list(range(n)):
            return None
        return Matrix._from_raw(f, [row[n:] for row in red[:n]])

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(self.field.format(x) for x in row) for row in self.data
        )
        return f"Matrix[{self.rows}x{self.cols}]({body})"


def _dot(field: Field, xs, ys):
    acc = field.zero()
    for a, b in zip(xs, ys):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _modulo(field: Field, rows: dict, vec: dict) -> dict:
    """vec minus the combination of the echelon rows ``{pivot: row}`` that
    agrees with it at their pivots: 0 exactly when vec lies in their span."""
    out = dict(vec)
    for c, a in vec.items():
        for w, x in rows.get(c, {}).items():
            out[w] = field.sub(out.get(w, field.zero()), field.mul(a, x))
    return {w: x for w, x in out.items() if x}


def sparse_kernel_basis(field: Field, rows: Iterable[dict], cols: Sequence[int]) -> list[dict]:
    """Deterministic basis of {v : Mv = 0} for M given by sparse rows on the
    column labels ``cols``, a strictly increasing sequence of ints.

    Each row is a ``{column: raw value}`` dict; zero entries are ignored, an
    entry outside ``cols`` raises :class:`DimensionMismatch`, and the rows
    are left untouched.  Pivot columns are chosen in the order of the
    labels; each free column, in that order, contributes one basis vector,
    returned sparse as a dict ``{column: raw value}`` in increasing column
    order: minus the free column's entry of each reduced basis row at that
    row's pivot, then a 1 at the free column, which comes last since every
    pivot of the vector is smaller.  Columns absent from a vector are zero.
    """
    if any(map(ge, cols, islice(cols, 1, None))):
        raise DimensionMismatch("column labels must be strictly increasing")
    basis = _reduce(field, (row.items() for row in rows), set(cols))
    kernel = {c: {} for c in cols if c not in basis}
    for pc in sorted(basis):
        for fc, x in basis[pc].items():
            if fc != pc:
                kernel[fc][pc] = field.neg(x)
    one = field.one()
    for c, v in kernel.items():
        v[c] = one
    return list(kernel.values())


def _densified(field: Field, v: dict, n: int) -> Vector:
    """The sparse vector ``{column: raw value}`` written out as a dense
    :class:`Vector` of length n."""
    e = [field.zero()] * n
    for j, x in v.items():
        e[j] = x
    return Vector._from_raw(field, e)


def _kernel_vectors(field: Field, rows: Iterable[dict], n: int) -> list[Vector]:
    """:func:`sparse_kernel_basis` on the columns ``range(n)``, each vector
    written out as a dense :class:`Vector` of length n."""
    return [_densified(field, v, n) for v in sparse_kernel_basis(field, rows, range(n))]


def kernel_basis(m: Matrix) -> list[Vector]:
    """Deterministic basis of the right kernel {v : Mv = 0}; see
    :func:`sparse_kernel_basis`."""
    return _kernel_vectors(m.field, [dict(enumerate(r)) for r in m.data], m.cols)


def intertwiners(field: Field, pairs: Iterable[tuple[Matrix, Matrix]]) -> list[Matrix]:
    """Echelon basis of {X : X A = B X for every pair (A, B)}, as m x n
    matrices.

    Each A is n x n and each B is m x m, the same n and m for every pair.
    The unknowns are X flattened row by row, X[r][c] at r * n + c, and the
    condition gives one sparse row per pair and cell (r, c).  The basis is
    the kernel of those rows (:func:`sparse_kernel_basis`), echelon in that
    flattening: it depends on the solution space and the flattening only,
    not on the order of the pairs or of the rows.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("intertwiners needs at least one pair")
    n, m = pairs[0][0].rows, pairs[0][1].rows
    rows = []
    for a, b in pairs:
        if (a.rows, a.cols, b.rows, b.cols) != (n, n, m, m):
            raise DimensionMismatch(f"pairs must be {n}x{n} and {m}x{m}")
        if a.field != field or b.field != field:
            raise FieldError(f"matrix of another field in intertwiners over {field}")
        for r in range(m):
            for c in range(n):
                # (X A)[r][c] - (B X)[r][c] = sum_k X[r][k] A[k][c] - B[r][k] X[k][c]
                row: dict = {}
                for k in range(n):
                    if a.data[k][c]:
                        row[r * n + k] = a.data[k][c]
                for k in range(m):
                    if b.data[r][k]:
                        j = k * n + c
                        row[j] = field.sub(row.get(j, field.zero()), b.data[r][k])
                rows.append(row)
    return [
        Matrix._from_raw(field, [v.entries[r * n : r * n + n] for r in range(m)])
        for v in _kernel_vectors(field, rows, m * n)
    ]


class Span:
    """The span of a list of vectors, reduced once; immutable.

    One :func:`_reduce` runs over the rows ``[v_i | t_i]``: vector i, then a
    unit tag in column ``dim + k - 1 - i`` (k vectors, tags reversed).  The
    reduced rows with a pivot among the first ``dim`` columns, cut there,
    are the echelon basis of the span (``basis``, the rows of its RREF);
    their tags write each as a combination of the vectors.  The other rows
    are the linear dependencies; with the tags reversed, their pivots are
    the vectors that depend on earlier ones, so these get coordinate 0, as
    free variables do in a particular solution.  Every query reduces one
    vector against the basis rows, tags included (:func:`_modulo`).
    ``dim``, the length of the vectors, is needed only when there are none.
    """

    __slots__ = ("field", "dim", "pivots", "basis", "_rows", "_k")

    def __init__(self, field: Field, vectors: Sequence[Vector], dim: int | None = None):
        _check_fields(field, vectors)
        if dim is None and not vectors:
            raise ValueError("the span of no vectors needs its dimension")
        dim = len(vectors[0]) if dim is None else dim
        if any(len(v) != dim for v in vectors):
            raise DimensionMismatch(f"vectors of a span in dimension {dim} differ in length")
        k, one, zero = len(vectors), field.one(), field.zero()
        self.field, self.dim, self._k = field, dim, k
        rows = ([*enumerate(v.entries), (dim + k - 1 - i, one)] for i, v in enumerate(vectors))
        reduced = _reduce(field, rows, set(range(dim + k)))
        self.pivots = tuple(c for c in sorted(reduced) if c < dim)
        self._rows = {c: reduced[c] for c in self.pivots}  # the basis rows, tags included
        self.basis = tuple(
            Vector._from_raw(field, [row.get(j, zero) for j in range(dim)]) for row in self._rows.values()
        )

    def _split(self, w: Vector) -> tuple[bool, list]:
        """(whether w differs from the basis combination that agrees with it
        at the pivots, the coordinates of that combination in the vectors)."""
        if not isinstance(w, Vector) or w.field != self.field:
            raise FieldError(f"vector of another field queried in a span over {self.field}")
        if len(w) != self.dim:
            raise DimensionMismatch(f"span in dimension {self.dim}, vector of length {len(w)}")
        f, dim, k = self.field, self.dim, self._k
        rest = _modulo(f, self._rows, {j: x for j, x in enumerate(w.entries) if x})
        coords = [f.zero()] * k
        for j, x in rest.items():
            if j >= dim:
                coords[dim + k - 1 - j] = f.neg(x)
        return any(j < dim for j in rest), coords

    def coordinates(self, w: Vector) -> Vector | None:
        """The coefficients of the vectors summing to w, 0 on those that
        depend on earlier ones, or None if w is outside the span."""
        outside, coords = self._split(w)
        return None if outside else Vector._from_raw(self.field, coords)

    def __contains__(self, w: Vector) -> bool:
        return not self._split(w)[0]

    def coordinate_matrix(self, images: Sequence[Vector]) -> Matrix | None:
        """The matrix whose column i holds the coordinates of images[i], or
        None if one is outside the span: on the images of the vectors under
        a map that keeps the span, the matrix of that map on it."""
        cols = [self.coordinates(w) for w in images]
        return None if None in cols else Matrix.from_columns(self.field, cols)
