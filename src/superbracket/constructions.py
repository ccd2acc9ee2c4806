"""Builders for the concrete superalgebras the library works with.

* ``build_osp`` solves the one graded condition of the orthosymplectic
  algebra, (f^T B)[i][j] + (-1)^{|f||i|} (B f)[i][j] = 0 for B = diag(q,
  omega), once per parity over that sector's cells of End(V) (even cells
  row-major; odd cells row-major with the V0 -> V1 block first), and reads
  structure constants off each echelon basis element's free cell.
* ``build_osp12`` is the explicit 3|2-dimensional model: sl(2) acting on its
  standard module with the moment map
  P((a,b),(c,d)) = [[-(ad+bc), 2ac], [-2bd, ad+bc]].
* ``build_double`` forms g + (g' + C(g')) from a Lie algebra isomorphism
  phi: g -> g', where C(g') is the space of equivariant maps g -> g', the
  intertwiners of ad x and ad phi(x) (``linalg.intertwiners``).
* ``add_centre`` / ``assemble`` are the generic glue.
* ``build_char3_example`` and ``build_char2_example`` are the small-
  characteristic structures that the standard classification does not cover.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .linalg import Matrix, intertwiners, sparse_kernel_basis
from .superalgebra import MorphismCertificate, SuperAlgebra, ValidationReport, check_morphism, validate
from .superalgebra import _contract, _rows

__all__ = [
    "BilinearFormPair",
    "AssembleError",
    "sl2_algebra",
    "build_osp",
    "build_osp12",
    "build_double",
    "add_centre",
    "assemble",
    "build_char3_example",
    "build_char2_example",
]


class AssembleError(ValueError):
    """Assembly produced tensors violating the axioms; carries the report."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


def _mode_for(field: Field) -> str:
    char = field.characteristic
    if char == 3:
        return "char3"
    if char == 2:
        return "char2"
    return "standard"


def sl2_algebra(field: Field) -> SuperAlgebra:
    """sl(2) with basis (E, H, F) as a purely even algebra."""
    mode = _mode_for(field)
    return SuperAlgebra.from_entries(
        field,
        3,
        0,
        bracket=[(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)],
        mode=mode,
        squaring=[] if mode == "char2" else None,
    )


@dataclass(frozen=True)
class BilinearFormPair:
    """A nondegenerate symmetric form on the even space and a nondegenerate
    alternating form on the (even-dimensional) odd space."""

    q: Matrix
    omega: Matrix

    def __post_init__(self):
        q, om = self.q, self.omega
        if q.rows != q.cols or om.rows != om.cols:
            raise ValueError("forms must be square")
        if om.rows % 2:
            raise ValueError("the symplectic space must be even-dimensional")
        if q.transpose() != q:
            raise ValueError("q must be symmetric")
        if om.transpose() != -om:
            raise ValueError("omega must be antisymmetric")
        if q.rows and not q.det():
            raise ValueError("q is degenerate")
        if om.rows and not om.det():
            raise ValueError("omega is degenerate")

    @staticmethod
    def standard(field: Field, d0: int, d1: int) -> "BilinearFormPair":
        """Identity quadratic form and the standard symplectic form."""
        if d0 < 0 or d1 < 0:
            raise ValueError("dimensions must be nonnegative")
        h = d1 // 2
        om = [[1 if j == i + h else -1 if i == j + h else 0 for j in range(d1)] for i in range(d1)]
        return BilinearFormPair(Matrix.identity(field, d0), Matrix(field, om))


def _by_row(cells) -> dict:
    """``{r: {c: x}}`` for the cells ``((r, c), x)``."""
    rows: dict = {}
    for (r, c), x in cells:
        rows.setdefault(r, {})[c] = x
    return rows


def build_osp(forms: BilinearFormPair, field: Field) -> SuperAlgebra:
    """Orthosymplectic algebra of V = V0 + V1 with the form B = diag(q, omega).

    A graded f in End(V) of parity |f| lies in it when, for every cell (i, j),

        (f^T B)[i][j] + (-1)^{|f||i|} (B f)[i][j] = 0,

    with |i| = 1 for i >= d0.  Both terms vanish off the cells of f's parity,
    so each parity is one linear system over its own cells: the even cells
    (V0 -> V0 and V1 -> V1) flattened row-major, the odd cells flattened
    row-major with the V0 -> V1 block (rows >= d0) first.  Structure
    constants are the coordinates of (anti)commutators, taken on the nonzero
    entries, in the echelon bases of the two solution spaces, read off each
    basis element's free cell.  Characteristic 2 is refused: there the
    condition's solution spaces have other dimensions, and char2 mode would
    need a squaring.
    """
    if field.characteristic == 2:
        raise ValueError("build_osp is not defined in characteristic 2")
    q, om = forms.q, forms.omega
    d0, d1 = q.rows, om.rows
    n = d0 + d1
    zero = field.zero()
    # the nonzeros of each row and of each column of B, block by block
    blocks = ((0, q), (d0, om))
    rows_b = [[(off + l, x) for l, x in enumerate(row) if x] for off, m in blocks for row in m.data]
    cols_b = [[(off + l, x) for l, x in enumerate(col) if x] for off, m in blocks for col in m.transpose().data]

    def summed(terms, out: dict, op=field.add) -> dict:
        for key, x in terms:
            out[key] = op(out.get(key, zero), x)
        return out

    bases, free = [], []
    for parity in (0, 1):
        order = [*range(d0, n), *range(d0)] if parity else range(n)
        sector = [(r, c) for r in order for c in range(n) if (r >= d0) ^ (c >= d0) == parity]
        index = {cell: t for t, cell in enumerate(sector)}
        rows = []
        for i, j in sector:
            # B is block diagonal, so the cells (l, i) and (l, j) below lie
            # in the sector; the second sum carries the sign (-1)^{|f||i|}
            signed = field.sub if parity and i >= d0 else field.add
            row = summed(((index[l, i], x) for l, x in cols_b[j]), {})
            rows.append(summed(((index[l, j], x) for l, x in rows_b[i]), row, signed))
        kernel = sparse_kernel_basis(field, rows, range(len(sector)))
        # each kernel vector has a 1 at its own free cell, its last entry, and
        # a 0 at the others', so a member's coordinates are its entries there
        free.append({sector[next(reversed(v))]: k for k, v in enumerate(kernel)})
        bases.append([_by_row((sector[t], x) for t, x in v.items()) for v in kernel])
    dims = (d0 * (d0 - 1) // 2 + d1 * (d1 + 1) // 2, d0 * d1)
    assert tuple(map(len, bases)) == dims, "solution space has the wrong dimension"

    def product(a: dict, b: dict):
        # the terms ((r, c), a[r][l] b[l][c]) of a b, on the rows of b
        for r, row in a.items():
            for l, x in row.items():
                for c, y in b.get(l, {}).items():
                    yield (r, c), field.mul(x, y)

    def entries(left: int, right: int, op, start=None) -> list:
        # (i, j, k, x): x the k-th coordinate of op(a b, b a) for the i-th
        # basis element a of parity left and the j-th b of parity right, at
        # j >= i + start when start is given; the coordinates, recombined,
        # must give op(a b, b a) back
        out, basis, cells = [], bases[left ^ right], free[left ^ right]
        for i, a in enumerate(bases[left]):
            for j in range(0 if start is None else i + start, len(bases[right])):
                b = bases[right][j]
                m = summed(product(b, a), summed(product(a, b), {}), op)
                m = {cell: x for cell, x in m.items() if x}
                xs = [(cells[cell], x) for cell, x in m.items() if cell in cells]
                back: dict = {}
                for k, x in xs:
                    summed((((r, c), field.mul(x, y)) for r, row in basis[k].items() for c, y in row.items()), back)
                if {cell: y for cell, y in back.items() if y} != m:
                    raise AssertionError("bracket left the solution space")
                out.extend((i, j, k, x) for k, x in xs)
        return out

    g = SuperAlgebra.from_entries(
        field,
        *dims,
        bracket=entries(0, 0, field.sub, 1),
        action=entries(0, 1, field.sub),
        odd_bracket=entries(1, 1, field.add, 0),
        mode=_mode_for(field),
    )
    report = validate(g)
    if not report.ok:
        raise AssembleError(report)
    return g


def build_osp12(field: Field) -> SuperAlgebra:
    """The 3|2-dimensional orthosymplectic algebra over k (char != 2).

    Even basis (E, H, F); odd basis (e0, e1) carrying the standard module;
    odd brackets {e0,e0} = 2E, {e0,e1} = -H, {e1,e1} = -2F.  Over a field
    of characteristic 3 the same constants are returned in char3 mode.
    """
    if field.characteristic == 2:
        raise ValueError("the moment-map model is not defined in characteristic 2")
    return SuperAlgebra.from_entries(
        field,
        3,
        2,
        bracket=[(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)],
        action=[
            (0, 1, 0, 1),  # E e1 = e0
            (1, 0, 0, 1),  # H e0 = e0
            (1, 1, 1, -1),  # H e1 = -e1
            (2, 0, 1, 1),  # F e0 = e1
        ],
        odd_bracket=[
            (0, 0, 0, 2),  # {e0,e0} = 2E
            (0, 1, 1, -1),  # {e0,e1} = -H
            (1, 1, 2, -2),  # {e1,e1} = -2F
        ],
        mode=_mode_for(field),
    )


def build_double(g: SuperAlgebra, phi: Matrix) -> SuperAlgebra:
    """The superalgebra g + (g' + C(g')) defined by an isomorphism phi.

    g must be purely even; g' is a coordinate copy of g and C(g') is the
    solution space of f . ad(x) = ad(phi(x)) . f inside Hom(g, g').  The
    odd part is g' + C(g'); the only nonzero odd brackets pair the two:
    {v, f} = phi^{-1}(f(phi^{-1}(v))).
    """
    if g.dim_odd != 0:
        raise ValueError("build_double expects a purely even algebra")
    if g.mode != "standard":
        raise ValueError("build_double requires characteristic not 2 or 3")
    field = g.field
    n = g.dim_even
    phi_inv = phi.inverse()
    if phi_inv is None:
        raise ValueError("phi is singular")
    if not check_morphism(MorphismCertificate(g, g, phi, Matrix.identity(field, 0)))[0]:
        raise ValueError("phi is not a Lie algebra isomorphism")

    # centralizer: the f with f ad(x) = ad(phi x) f for every basis x
    cent = intertwiners(field, [(g.ad(i), g.ad_vec(phi.column(i))) for i in range(n)])
    # x acts on g' by ad phi(x), read off g's bracket entries, and kills
    # C(g'); {v_j, f_k} is column j of phi^{-1} f_k phi^{-1}
    rows = _rows(g._even, field.neg)
    planes = [_contract(rows, phi.column(x).entries)[0] for x in range(n)]
    action = [(x, j, w, c) for x, plane in enumerate(planes) for j, col in plane.items() for w, c in col]
    images = [(n + k, (phi_inv @ f @ phi_inv).data) for k, f in enumerate(cent)]
    odd = [(j, v, x, m[x][j]) for v, m in images for j in range(n) for x in range(n) if m[x][j]]
    dbl = SuperAlgebra.from_entries(
        field,
        n,
        n + len(cent),
        bracket=[(*key, c) for key, c in g._even.items()],
        action=action,
        odd_bracket=odd,
        mode="standard",
    )
    report = validate(dbl)
    if not report.ok:
        raise AssembleError(report)
    return dbl


def add_centre(g: SuperAlgebra, z: int) -> SuperAlgebra:
    """Append z odd coordinates with zero action and zero brackets."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0:
        return g
    return SuperAlgebra._of(g.field, g.dim_even, g.dim_odd + z, g.mode, g._even, g._act, g._odd, g._sq)


def assemble(even: SuperAlgebra, rep, odd_entries=()) -> SuperAlgebra:
    """Glue an even algebra with basis (E, H, F), a module given by
    RepMatrices, and an odd bracket given as (u, v, x, coeff) entries with
    u <= v into a validated superalgebra in the even algebra's axiom mode.
    Raises AssembleError carrying the full report when the axioms fail.
    """
    if even.dim_odd != 0 or even.dim_even != 3:
        raise ValueError("assemble expects a purely even 3-dimensional algebra")
    if even.mode == "char2":
        raise ValueError("char2 mode needs a squaring, not an odd bracket")
    g = SuperAlgebra.from_entries(
        even.field,
        3,
        rep.dim,
        bracket=[(*key, c) for key, c in even._even.items()],
        action=[(*key, c) for key, c in rep.entries.items()],
        odd_bracket=odd_entries,
        mode=even.mode,
    )
    report = validate(g)
    if not report.ok:
        raise AssembleError(report)
    return g


def build_char3_example() -> SuperAlgebra:
    """A 3|3-dimensional structure over F_3 outside the standard
    classification: sl(2) acts on basis (e0, e1, v) by

        H = diag(1,-1,0),  E(e1)=e0, E(v)=e1,  F(e0)=e1, F(v)=e0,

    with odd brackets {e0,e0}=E, {e0,e1}=H, {e1,e1}=-F, {v,e0}=F,
    {v,v}=H, {v,e1}=-E.  It satisfies all char3 axioms including the cubic
    one, and its span{e0,e1} restriction is the 3|2 moment-map algebra.
    """
    field = Field.prime(3)
    return SuperAlgebra.from_entries(
        field,
        3,
        3,
        bracket=[(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)],
        action=[
            (0, 1, 0, 1),  # E e1 = e0
            (0, 2, 1, 1),  # E v  = e1
            (1, 0, 0, 1),  # H e0 = e0
            (1, 1, 1, -1),  # H e1 = -e1
            (2, 0, 1, 1),  # F e0 = e1
            (2, 2, 0, 1),  # F v  = e0
        ],
        odd_bracket=[
            (0, 0, 0, 1),  # {e0,e0} = E
            (0, 1, 1, 1),  # {e0,e1} = H
            (1, 1, 2, -1),  # {e1,e1} = -F
            (0, 2, 2, 1),  # {v,e0} = F
            (2, 2, 1, 1),  # {v,v} = H
            (1, 2, 0, -1),  # {v,e1} = -E
        ],
        mode="char3",
    )


def build_char2_example() -> SuperAlgebra:
    """A 3|3-dimensional structure over F_2: the even part acts on an odd
    copy of itself by the adjoint action, and odd elements square by

        (a pE + b pH + c pF)^2 = (a c) H,

    whose polarization pairs pE with pF: {pE, pF} = H, everything else 0.
    Both sides of {x^2, y} = {x, {x, y}} vanish identically for this
    squaring, which the char2 validator certifies.
    """
    field = Field.prime(2)
    # adjoint action of the characteristic-2 triple: [E,F] = H is the only
    # nonzero bracket, so E moves pF to pH, F moves pE to pH, H acts by zero
    return SuperAlgebra.from_entries(
        field,
        3,
        3,
        bracket=[(0, 2, 1, 1)],
        action=[
            (0, 2, 1, 1),  # E pF = pH
            (2, 0, 1, 1),  # F pE = pH
        ],
        mode="char2",
        squaring=[(0, 2, 1, 1)],  # (pE + pF)-mixed coefficient lands on H
    )
