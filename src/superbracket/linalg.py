"""Exact linear algebra over Q and F_p.

``Matrix`` and ``Vector`` are dense and immutable.  Elimination is one
sparse exact routine for every field: rows become ``{column: value}``
dicts and are reduced against a basis keyed by pivot column, so the work
follows the nonzeros of the ~1%-dense systems the solver assembles.  Over Q
it runs on unbounded ``Fraction`` arithmetic, which is mandatory --
coefficient growth during elimination is real; over F_p the only extra
step is reducing each result mod p.

Everything is deterministic: reduced row echelon form and its pivot columns
(leftmost first) are unique, so echelon forms, kernel bases and anything
derived from them are reproducible bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .fields import Field, FieldError, Scalar

__all__ = [
    "Matrix",
    "Vector",
    "DimensionMismatch",
    "kernel_basis",
    "solve_linear",
    "eigenspace",
    "echelon_span",
    "span_contains",
    "coordinates_in_span",
    "using_compiled_kernel",
]


class DimensionMismatch(ValueError):
    """Shapes of the operands are incompatible; a contract violation."""


def using_compiled_kernel() -> bool:
    """Always False: there is no compiled kernel, elimination is pure Python."""
    return False


def _rref_raw(field: Field, rows: Sequence[Sequence]) -> tuple[list, list]:
    """Reduced row echelon form of rows of raw field elements.

    Returns ``(rows, pivot columns)``: the nonzero RREF rows in pivot order,
    then zero rows up to the input row count.  ``basis`` maps each pivot
    column to its row, which has a 1 at the pivot and 0 in every other pivot
    column.  Each incoming row is reduced against the basis; a nonzero
    remainder is scaled to a leading 1 and its pivot column is then cleared
    from the existing basis rows.  The input is not modified.
    """
    p = field.p if field.kind == "prime" else None
    basis: dict[int, dict] = {}
    for dense in rows:
        row = {c: x for c, x in enumerate(dense) if x}
        for c in [c for c in row if c in basis]:
            _sub_multiple(row, row[c], basis[c], p)
        if not row:
            continue
        pivot = min(row)
        inv = field.inv(row[pivot])
        if inv != 1:
            row = {c: x * inv % p if p else x * inv for c, x in row.items()}
        for other in basis.values():
            f = other.get(pivot)
            if f:
                _sub_multiple(other, f, row, p)
        basis[pivot] = row
    n = len(rows[0]) if rows else 0
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


def _sub_multiple(row: dict, f, other: dict, p: int | None) -> None:
    """row -= f * other in place, dropping entries that become zero."""
    for j, y in other.items():
        v = row.get(j, 0) - f * y
        if p:
            v %= p
        if v:
            row[j] = v
        else:
            del row[j]


def _coerce_row(field: Field, row: Iterable) -> tuple:
    return tuple(field.coerce(x) for x in row)


class Vector:
    """Immutable coordinate vector over one field."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable):
        self.field = field
        self.entries = _coerce_row(field, entries)

    @staticmethod
    def zero(field: Field, n: int) -> "Vector":
        return Vector(field, [field.zero()] * n)

    @staticmethod
    def unit(field: Field, n: int, i: int) -> "Vector":
        e = [field.zero()] * n
        e[i] = field.one()
        return Vector(field, e)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Scalar:
        return Scalar(self.field, self.entries[i])

    def __iter__(self):
        return (Scalar(self.field, x) for x in self.entries)

    def __add__(self, o: "Vector") -> "Vector":
        self._check(o)
        f = self.field
        return Vector(f, [f.add(a, b) for a, b in zip(self.entries, o.entries)])

    def __sub__(self, o: "Vector") -> "Vector":
        self._check(o)
        f = self.field
        return Vector(f, [f.sub(a, b) for a, b in zip(self.entries, o.entries)])

    def __neg__(self) -> "Vector":
        return Vector(self.field, [self.field.neg(a) for a in self.entries])

    def scaled(self, c) -> "Vector":
        c = self.field.coerce(c)
        f = self.field
        return Vector(f, [f.mul(c, a) for a in self.entries])

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
        return Matrix(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, [[z] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(field: Field, columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            return Matrix(field, [])
        n = len(columns[0])
        return Matrix(field, [[col.entries[i] for col in columns] for i in range(n)])

    @staticmethod
    def from_rows(field: Field, vectors: Sequence[Vector]) -> "Matrix":
        return Matrix(field, [v.entries for v in vectors])

    @staticmethod
    def diagonal(field: Field, entries: Iterable) -> "Matrix":
        ent = [field.coerce(x) for x in entries]
        z = field.zero()
        n = len(ent)
        return Matrix(field, [[ent[i] if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def vstack(blocks: Sequence["Matrix"]) -> "Matrix":
        field = blocks[0].field
        cols = blocks[0].cols
        rows: list = []
        for b in blocks:
            if b.cols != cols:
                raise DimensionMismatch("vstack column mismatch")
            rows.extend(b.data)
        return Matrix(field, rows)

    # --- accessors -------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return Scalar(self.field, self.data[i][j])

    def row(self, i: int) -> Vector:
        return Vector(self.field, self.data[i])

    def column(self, j: int) -> Vector:
        return Vector(self.field, [r[j] for r in self.data])

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
        return Matrix(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, o.data)
            ],
        )

    def __sub__(self, o: "Matrix") -> "Matrix":
        self._check_same(o)
        f = self.field
        return Matrix(
            f,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, o.data)
            ],
        )

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.neg(a) for a in row] for row in self.data])

    def scaled(self, c) -> "Matrix":
        c = self.field.coerce(c)
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in row] for row in self.data])

    def __matmul__(self, o):
        f = self.field
        if isinstance(o, Vector):
            if len(o) != self.cols:
                raise DimensionMismatch(f"{self.rows}x{self.cols} @ len {len(o)}")
            return Vector(
                f,
                [
                    _dot(f, row, o.entries)
                    for row in self.data
                ],
            )
        if not isinstance(o, Matrix) or o.field != f:
            raise FieldError("mixed-field matrix product")
        if self.cols != o.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} @ {o.rows}x{o.cols}"
            )
        ot = list(zip(*o.data)) if o.data else []
        return Matrix(
            f,
            [[_dot(f, row, col) for col in ot] for row in self.data],
        )

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        result = Matrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.data)) if self.data else [])

    def trace(self) -> Scalar:
        f = self.field
        t = f.zero()
        for i in range(min(self.rows, self.cols)):
            t = f.add(t, self.data[i][i])
        return Scalar(f, t)

    def commutator(self, o: "Matrix") -> "Matrix":
        return self @ o - o @ self

    def anticommutator(self, o: "Matrix") -> "Matrix":
        return self @ o + o @ self

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
        return Matrix(f, [row[n:] for row in red[:n]])

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


def kernel_basis(m: Matrix) -> list[Vector]:
    """Deterministic basis of the right kernel {v : Mv = 0}.

    Pivot columns are chosen left to right; each free column, in index
    order, contributes one basis vector with a 1 in that coordinate.
    """
    red, pivots = m.rref()
    f = m.field
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.data[r][fc])
        basis.append(Vector(f, v))
    return basis


def solve_linear(m: Matrix, b: Vector) -> Vector | None:
    """One particular solution of Mx = b (free variables 0), or None."""
    if not isinstance(b, Vector) or b.field != m.field:
        raise FieldError("mixed-field solve")
    if len(b) != m.rows:
        raise DimensionMismatch(f"matrix has {m.rows} rows, b has {len(b)}")
    f = m.field
    aug = [list(row) + [be] for row, be in zip(m.data, b.entries)]
    if not aug:
        return Vector.zero(f, m.cols)
    red, pivots = _rref_raw(f, aug)
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][m.cols]
    return Vector(f, x)


def eigenspace(m: Matrix, lam) -> list[Vector]:
    """Kernel basis of (M - lambda * Id)."""
    if m.rows != m.cols:
        raise DimensionMismatch("eigenspace of a non-square matrix")
    lam = m.field.coerce(lam)
    shifted = m - Matrix.identity(m.field, m.rows).scaled(lam)
    return kernel_basis(shifted)


def echelon_span(field: Field, vectors: Sequence[Vector]) -> list[Vector]:
    """Canonical (RREF-row) basis of the span of the given vectors."""
    vecs = [v for v in vectors if not v.is_zero()]
    if not vecs:
        return []
    red, pivots = _rref_raw(field, [v.entries for v in vecs])
    return [Vector(field, red[i]) for i in range(len(pivots))]


def coordinates_in_span(basis: Sequence[Vector], v: Vector) -> Vector | None:
    """Coordinates of v in the given basis, or None if v is outside."""
    if not basis:
        return None if not v.is_zero() else Vector(v.field, [])
    return solve_linear(Matrix.from_columns(v.field, list(basis)), v)


def span_contains(basis: Sequence[Vector], v: Vector) -> bool:
    return v.is_zero() or coordinates_in_span(basis, v) is not None
