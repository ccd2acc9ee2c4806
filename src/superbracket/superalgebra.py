"""Structure-constant model of finite-dimensional Lie superalgebras.

A superalgebra here is g = g0 + g1 over an exact field, stored as three
dense tensors:

* ``bracket[i][j]``      -- coordinates of [e_i, e_j] in the even basis,
* ``action[x][v]``       -- coordinates of e_x(f_v) in the odd basis,
* ``odd_bracket[u][v]``  -- coordinates of {f_u, f_v} in the even basis.

Antisymmetry of the even bracket and symmetry of the odd one are enforced
structurally: constructors take the entries with i < j (resp. u <= v) and
mirror them, so those symmetries cannot be violated by construction.

Three axiom modes are supported.  ``standard`` is the usual super Jacobi
identity, split into the four graded checks (even Jacobi, representation
property, and the two compatibility relations of the odd bracket).
``char3`` additionally demands {x,{x,x}} = 0 for odd x, checked monomial by
monomial as a cubic polynomial map, since in characteristic 3 that identity
is strictly stronger than the symmetric trilinear relation.  ``char2``
replaces the odd bracket by a squaring map v -> v^2 (the odd bracket is its
polarization, which the constructor enforces) and validates
{x^2, y} = {x, {x, y}} for all y, again per monomial in the coordinates of x.

The two relations, the cubic identity and the squaring axiom are linear in
the odd bracket (the last in the squaring) and are defined once, as the
sparse equations of :func:`compatibility_equations`, yielded per instance
as terms (base, group): unknown base + i carries the column group[i] of
(output, coefficient) pairs, and the groups are shared per-column lists
built once from the nonzeros of the action and the even bracket.  The
unit terms of relation 2 and of the squaring axiom have a diagonal group,
-a times the identity on the even outputs, built once per coefficient a
and marked with it.  The solver in :mod:`superbracket.moduli` collects the
terms into rows and eliminates them.  :func:`validate` evaluates them at
g's own odd bracket, or at its squaring, one packed integer per instance
(Kronecker substitution, as in D. Harvey, J. Symbolic Comput. 2009):
output t of a column sits in bits k t to k t + k - 1, so a term adds d0
products of a known value and a packed column, or for a diagonal group
one product, a times the pair's packed negated odd bracket.  The slot
width k comes from a bound on the products one output sums: over Q the
packed residual is zero exactly when every output is; over F_p, with
every entry a residue in [0, p), every output is a multiple of p exactly
when p divides the packed residual and each slot of the quotient fits a
narrower width.  The validator passes the support of the odd bracket,
and the generator yields only the instances with a term at a pair of it,
found from bitmasks without visiting every index triple; the solver
passes none and gets every instance.  Past the 2048-bit cut-off of
:func:`clear_denominators` the integer form holds Fractions, and each
instance is summed into a list of per-output Fractions instead.  The
validator and the solver also share :func:`representation_failures`,
which packs each action column once and sums each (i, j, w) of
[rho_i, rho_j] - sum_k c_ijk rho_k as one integer, on integers only.

Each algebra keeps a private integer form, built on first use and left out
of equality and hashing: over Q the bracket and action scaled by one common
denominator D, and the odd bracket by its own D_p
(:func:`clear_denominators`); over F_p the tensors themselves.
:func:`validate`, :func:`check_morphism`, :func:`killing_form`,
:meth:`SuperAlgebra.conjugated` and the bilinear maps
(``even_bracket_vec``, ``act_vec``, ``odd_bracket_vec``) all read it.  Every
identity is homogeneous, so an integer residual is zero exactly when the
rational one is; a map clears its two argument vectors, sums on integers
and divides once by the product of the three scales.
:meth:`SuperAlgebra.conjugated` and :func:`check_morphism` share one
transport, :func:`_transported`, which contracts each tensor with one column
of the left block at a time, so each sector costs O(d0 d1^3): conjugated
divides out its scales, and the check transports the target into the
basis of the certificate's columns and compares it with the source's
integer form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations_with_replacement, product
from math import lcm
from operator import mul, or_
from typing import Iterable, NamedTuple, Sequence

from .fields import Field
from .linalg import (
    DimensionMismatch,
    Matrix,
    Span,
    Vector,
    echelon_span,
    sparse_kernel_basis,
)

__all__ = [
    "SuperAlgebra",
    "MorphismCertificate",
    "ValidationReport",
    "Violation",
    "MODES",
    "validate",
    "clear_denominators",
    "action_nonzeros",
    "odd_unknowns",
    "representation_failures",
    "compatibility_equations",
    "supercentre",
    "p_span",
    "is_ideal",
    "check_morphism",
    "killing_form",
    "is_simple_3dim",
]

MODES = ("standard", "char3", "char2")


class ShapeError(ValueError):
    """Structure-constant entry out of range or tensor shape mismatch."""


@dataclass(frozen=True)
class Violation:
    identity: str  # "even_jacobi" | "representation" | "relation_1" | ...
    indices: tuple
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.identity} violated at {self.indices}"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def identities(self) -> set[str]:
        return {v.identity for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def _zero_tensor(field, a, b, c):
    z = field.zero()
    return [[[z] * c for _ in range(b)] for _ in range(a)]


def _freeze3(t):
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


def _bilinear(tensor, x, y, n: int) -> list:
    """The n sums over a, b of x_a y_b tensor[a][b], over the nonzeros of x,
    y and each row.  Plain + and * on the raw entries, so ints or Fractions
    alike and nothing reduced mod p: the caller reduces."""
    out = [0] * n
    for a, xa in enumerate(x):
        if xa:
            plane = tensor[a]
            for b, yb in enumerate(y):
                if yb:
                    c = xa * yb
                    for k, z in enumerate(plane[b]):
                        if z:
                            out[k] += c * z
    return out


def _contract(tensor, x) -> tuple:
    """The plane sum over a of x_a tensor[a], as a one-plane tensor h with
    ``_bilinear(h, (1,), y, n) == _bilinear(tensor, x, y, n)`` for every y.
    Rows that are zero in every plane x touches stay ``()``, so a sparse
    tensor gives a sparse plane.  Raw entries, nothing reduced mod p."""
    rows: dict = {}
    for a, xa in enumerate(x):
        if xa:
            for b, row in enumerate(tensor[a]):
                if any(row):
                    acc = rows.get(b)
                    rows[b] = (
                        [xa * z for z in row]
                        if acc is None
                        else [s + xa * z for s, z in zip(acc, row)]
                    )
    return ([rows.get(b, ()) for b in range(len(tensor[0]) if tensor else 0)],)


def _matvec(m, v) -> list:
    """m @ v on raw entries, over the nonzeros of v; nothing reduced mod p."""
    return [sum(r * c for r, c in zip(row, v) if c) for row in m]


def _unscaled(field: Field, values, scale: int) -> list:
    """The raw field elements values[i] / scale, for integers (or, past the
    cut-off of :func:`clear_denominators`, Fractions) that carry a common
    scale; over F_p the scale is 1 and the values are reduced mod p."""
    if field.kind == "prime":
        return [v % field.p for v in values]
    return [Fraction(v, scale) for v in values]


def _transported(g: "SuperAlgebra", m_even, m_odd, inv_e, inv_o):
    """g's structure constants in the graded basis whose vectors are the
    columns of (m_even, m_odd), given with their inverses, on integers.

    Yields ``(sector, i, j, values, scale)``: the new coordinates of the
    sector's product of basis vectors i and j are ``values / scale``, raw
    integers not reduced mod p.  The sectors come in the order "even
    bracket" at i < j, "action" at every (x, v), "odd bracket" at u <= v,
    and in char2 mode "squaring" at (v, v).  Each block and inverse is
    cleared by its own scale, and each tensor of g's integer form is
    contracted once per left column (see :func:`_contract`), so a sector
    costs O(d0 d1^3) instead of O(d0 d1^4) for a bilinear sum per pair.
    """
    f = g.field
    d0, d1 = g.dim_even, g.dim_odd
    form = g._integer_form()
    (se, me), (so, mo) = clear_denominators(f, m_even.data), clear_denominators(f, m_odd.data)
    (sie, ie), (sio, io) = clear_denominators(f, inv_e.data), clear_denominators(f, inv_o.data)
    ecols, ocols = list(zip(*me)), list(zip(*mo))
    sectors = [
        ("even bracket", form.bracket, ecols, ecols, ie, form.d * se * se * sie, lambda i: range(i + 1, d0)),
        ("action", form.action, ecols, ocols, io, form.d * se * so * sio, lambda x: range(d1)),
        ("odd bracket", form.odd, ocols, ocols, ie, form.dp * so * so * sie, lambda u: range(u, d1)),
    ]
    if g.mode == "char2":
        # over F_2 the squaring is its own integer form
        sectors.append(("squaring", g.squaring, ocols, ocols, ie, so * so * sie, lambda v: (v,)))
    for sector, tensor, left, right, inv, scale, pairs in sectors:
        n = len(inv)
        for i, x in enumerate(left):
            js = pairs(i)
            if js:
                h = _contract(tensor, x)
                for j in js:
                    yield sector, i, j, _matvec(inv, _bilinear(h, (1,), right[j], n)), scale


class _IntegerForm(NamedTuple):
    """An algebra's tensors cleared of denominators by
    :func:`clear_denominators`: ``bracket`` and ``action`` are scaled by one
    common ``d`` (relation 2 and the representation check add bracket terms
    to action terms), ``odd`` is the odd bracket scaled by its own ``dp``.
    Over F_p both scales are 1 and the tensors are the algebra's own."""

    d: int
    bracket: object
    action: object
    dp: int
    odd: object


class SuperAlgebra:
    """Immutable Lie superalgebra given by structure constants."""

    __slots__ = (
        "field",
        "dim_even",
        "dim_odd",
        "mode",
        "bracket",
        "action",
        "odd_bracket",
        "squaring",
        "_ints",
    )

    def __init__(
        self,
        field: Field,
        dim_even: int,
        dim_odd: int,
        bracket,
        action,
        odd_bracket,
        mode: str = "standard",
        squaring=None,
    ):
        if mode not in MODES:
            raise ShapeError(f"unknown axiom mode {mode!r}")
        char = field.characteristic
        if mode == "standard" and char in (2, 3):
            raise ShapeError("standard mode requires characteristic not 2 or 3")
        if mode == "char3" and char != 3:
            raise ShapeError("char3 mode requires characteristic 3")
        if mode == "char2" and char != 2:
            raise ShapeError("char2 mode requires characteristic 2")
        if mode == "char2" and squaring is None:
            raise ShapeError("char2 mode needs a squaring tensor")
        if mode != "char2" and squaring is not None:
            raise ShapeError("squaring is only meaningful in char2 mode")
        self.field = field
        self.dim_even = dim_even
        self.dim_odd = dim_odd
        self.mode = mode
        self.bracket = _freeze3(bracket)
        self.action = _freeze3(action)
        self.odd_bracket = _freeze3(odd_bracket)
        self.squaring = _freeze3(squaring) if squaring is not None else None
        self._ints = None  # the integer form, built by _integer_form on first use
        self._check_shapes()
        if mode == "char2":
            # validate reads only the squaring, so the odd bracket must be its
            # polarization: {f_v, f_w} = S(v,w) for v < w and {f_v, f_v} = 0
            zero = (field.zero(),) * dim_even
            p, s = self.odd_bracket, self.squaring
            if any(
                not p[v][w] == p[w][v] == (s[v][w] if v < w else zero)
                for v in range(dim_odd)
                for w in range(v, dim_odd)
            ):
                raise ShapeError("char2 mode needs the odd bracket to polarize the squaring")
            # S(v,w) is stored at v <= w only, so that equal squarings compare
            # equal: validate, square_vec and serialization never read below
            if any(s[w][v] != zero for v in range(dim_odd) for w in range(v + 1, dim_odd)):
                raise ShapeError("char2 squaring entries below the diagonal must be zero")

    def _check_shapes(self):
        d0, d1 = self.dim_even, self.dim_odd
        if len(self.bracket) != d0 or any(
            len(p) != d0 or any(len(r) != d0 for r in p) for p in self.bracket
        ):
            raise ShapeError("even bracket tensor must be d0 x d0 x d0")
        if len(self.action) != d0 or any(
            len(p) != d1 or any(len(r) != d1 for r in p) for p in self.action
        ):
            raise ShapeError("action tensor must be d0 x d1 x d1")
        if len(self.odd_bracket) != d1 or any(
            len(p) != d1 or any(len(r) != d0 for r in p) for p in self.odd_bracket
        ):
            raise ShapeError("odd bracket tensor must be d1 x d1 x d0")
        if self.squaring is not None and (
            len(self.squaring) != d1
            or any(
                len(p) != d1 or any(len(r) != d0 for r in p) for p in self.squaring
            )
        ):
            raise ShapeError("squaring tensor must be d1 x d1 x d0")

    # --- constructors ----------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        field: Field,
        dim_even: int,
        dim_odd: int,
        bracket: Iterable = (),
        action: Iterable = (),
        odd_bracket: Iterable = (),
        mode: str = "standard",
        squaring: Iterable | None = None,
    ) -> "SuperAlgebra":
        """Build from sparse entries ``(i, j, k, coeff)``.

        Even bracket entries require i < j and are mirrored with a sign;
        odd bracket and squaring entries require u <= v and are mirrored
        symmetrically.  In char2 mode the odd bracket is not an input: it
        is derived from the squaring by polarization.
        """
        c = _zero_tensor(field, dim_even, dim_even, dim_even)
        for i, j, k, coeff in bracket:
            if not (0 <= i < j < dim_even and 0 <= k < dim_even):
                raise ShapeError(f"bracket entry ({i},{j},{k}) out of range (need i<j)")
            val = field.coerce(coeff)
            c[i][j][k] = field.add(c[i][j][k], val)
            c[j][i][k] = field.neg(c[i][j][k])
        a = _zero_tensor(field, dim_even, dim_odd, dim_odd)
        for x, v, w, coeff in action:
            if not (0 <= x < dim_even and 0 <= v < dim_odd and 0 <= w < dim_odd):
                raise ShapeError(f"action entry ({x},{v},{w}) out of range")
            a[x][v][w] = field.add(a[x][v][w], field.coerce(coeff))

        if mode == "char2":
            if list(odd_bracket):
                raise ShapeError("char2 mode derives the odd bracket from squaring")
            s = _zero_tensor(field, dim_odd, dim_odd, dim_even)
            for v, w, x, coeff in squaring or ():
                if not (0 <= v <= w < dim_odd and 0 <= x < dim_even):
                    raise ShapeError(
                        f"squaring entry ({v},{w},{x}) out of range (need v<=w)"
                    )
                s[v][w][x] = field.add(s[v][w][x], field.coerce(coeff))
            p = _zero_tensor(field, dim_odd, dim_odd, dim_even)
            for v in range(dim_odd):
                for w in range(v + 1, dim_odd):
                    # polarization: {f_v, f_w} = (f_v+f_w)^2 + f_v^2 + f_w^2;
                    # the diagonal {f_v, f_v} = 2 f_v^2 vanishes in char 2
                    p[v][w] = list(s[v][w])
                    p[w][v] = list(s[v][w])
            return cls(
                field, dim_even, dim_odd, c, a, p, mode=mode, squaring=s
            )

        p = _zero_tensor(field, dim_odd, dim_odd, dim_even)
        for u, v, x, coeff in odd_bracket:
            if not (0 <= u <= v < dim_odd and 0 <= x < dim_even):
                raise ShapeError(
                    f"odd bracket entry ({u},{v},{x}) out of range (need u<=v)"
                )
            val = field.add(p[u][v][x], field.coerce(coeff))
            p[u][v][x] = val
            p[v][u][x] = val
        return cls(field, dim_even, dim_odd, c, a, p, mode=mode)

    @classmethod
    def from_tensors(
        cls,
        field: Field,
        bracket,
        action,
        odd_bracket,
        mode: str = "standard",
        squaring=None,
    ) -> "SuperAlgebra":
        """Build from dense tensors, re-canonicalizing the symmetries from
        the upper-triangular parts."""
        d0 = len(bracket)
        d1 = len(odd_bracket)
        c = _zero_tensor(field, d0, d0, d0)
        for i in range(d0):
            for j in range(i + 1, d0):
                row = [field.coerce(x) for x in bracket[i][j]]
                c[i][j] = row
                c[j][i] = [field.neg(x) for x in row]
        a = [
            [[field.coerce(x) for x in action[x_][v]] for v in range(d1)]
            for x_ in range(d0)
        ]
        p = _zero_tensor(field, d1, d1, d0)
        for u in range(d1):
            for v in range(u, d1):
                row = [field.coerce(x) for x in odd_bracket[u][v]]
                p[u][v] = row
                p[v][u] = list(row)
        sq = None
        if squaring is not None:
            sq = _zero_tensor(field, d1, d1, d0)
            for v in range(d1):
                for w in range(v, d1):
                    sq[v][w] = [field.coerce(x) for x in squaring[v][w]]
        return cls(field, d0, d1, c, a, p, mode=mode, squaring=sq)

    # --- basic algebra operations -----------------------------------------

    def _integer_form(self) -> _IntegerForm:
        """The tensors cleared of denominators, computed once per algebra."""
        form = self._ints
        if form is None:
            f = self.field
            d, (bracket, action) = clear_denominators(f, (self.bracket, self.action))
            dp, odd = clear_denominators(f, self.odd_bracket)
            form = self._ints = _IntegerForm(d, bracket, action, dp, odd)
        return form

    def _apply(self, tensor, scale: int, x: Vector, y: Vector, n: int) -> Vector:
        # the integer tensor times the cleared arguments is scale*dx*dy times
        # the rational value
        f = self.field
        dx, xs = clear_denominators(f, x.entries)
        dy, ys = clear_denominators(f, y.entries)
        out = _bilinear(tensor, xs, ys, n)
        return Vector._from_raw(f, _unscaled(f, out, scale * dx * dy))

    def even_bracket_vec(self, x: Vector, y: Vector) -> Vector:
        form = self._integer_form()
        return self._apply(form.bracket, form.d, x, y, self.dim_even)

    def act_vec(self, x: Vector, v: Vector) -> Vector:
        form = self._integer_form()
        return self._apply(form.action, form.d, x, v, self.dim_odd)

    def odd_bracket_vec(self, u: Vector, v: Vector) -> Vector:
        form = self._integer_form()
        return self._apply(form.odd, form.dp, u, v, self.dim_even)

    def square_vec(self, v: Vector) -> Vector:
        """The squaring map applied to an odd vector (char2 mode only)."""
        if self.squaring is None:
            raise ShapeError("squaring is only defined in char2 mode")
        # over F_2 the squaring is its own integer form, and it is stored at
        # v <= w only, so the bilinear sum over all (v, w) is the quadratic map
        return self._apply(self.squaring, 1, v, v, self.dim_even)

    def ad(self, i: int) -> Matrix:
        """Matrix of ad(e_i) on the even part (columns are [e_i, e_j])."""
        f = self.field
        return Matrix(
            f,
            [
                [self.bracket[i][j][k] for j in range(self.dim_even)]
                for k in range(self.dim_even)
            ],
        )

    def ad_vec(self, x: Vector) -> Matrix:
        cols = [
            self.even_bracket_vec(x, Vector.unit(self.field, self.dim_even, j))
            for j in range(self.dim_even)
        ]
        return Matrix.from_columns(self.field, cols)

    def action_matrix(self, i: int) -> Matrix:
        """Matrix of e_x acting on the odd part (columns are e_x(f_v))."""
        # the action holds raw field elements already: no coercion
        return Matrix._from_raw(
            self.field,
            [
                [self.action[i][v][w] for v in range(self.dim_odd)]
                for w in range(self.dim_odd)
            ],
        )

    def action_matrix_vec(self, x: Vector) -> Matrix:
        f = self.field
        m = Matrix.zero(f, self.dim_odd, self.dim_odd)
        for i, xi in enumerate(x.entries):
            if xi:
                m = m + self.action_matrix(i).scaled(xi)
        return m

    def even_part(self) -> "SuperAlgebra":
        """The even part as a stand-alone (purely even) algebra."""
        f = self.field
        return SuperAlgebra(
            f,
            self.dim_even,
            0,
            self.bracket,
            [[] for _ in range(self.dim_even)],
            [],
            mode=self.mode,
            squaring=[] if self.mode == "char2" else None,
        )

    def conjugated(self, m_even: Matrix, m_odd: Matrix) -> "SuperAlgebra":
        """Structure constants in the new graded basis whose vectors are the
        columns of (m_even, m_odd), expressed in the old one."""
        f = self.field
        if m_even.rows != self.dim_even or m_odd.rows != self.dim_odd:
            raise DimensionMismatch("basis-change block sizes")
        inv_e = m_even.inverse()
        inv_o = m_odd.inverse()
        if inv_e is None or inv_o is None:
            raise ValueError("basis change must be invertible")
        # from_tensors reads only the cells the transport yields, so the
        # others stay None
        d0, d1 = self.dim_even, self.dim_odd
        t = {
            sector: [[None] * cols for _ in range(rows)]
            for sector, rows, cols in (
                ("even bracket", d0, d0), ("action", d0, d1), ("odd bracket", d1, d1), ("squaring", d1, d1)
            )
        }
        for sector, i, j, values, scale in _transported(self, m_even, m_odd, inv_e, inv_o):
            t[sector][i][j] = _unscaled(f, values, scale)
        p, sq = t["odd bracket"], None
        if self.mode == "char2":
            # the squaring transports on the diagonal, b_v^2; above it, the
            # polarization (b_v + b_w)^2 + b_v^2 + b_w^2 is the odd bracket p
            sq = [row[:v] + [t["squaring"][v][v]] + row[v + 1:] for v, row in enumerate(p)]
        return SuperAlgebra.from_tensors(f, t["even bracket"], t["action"], p, mode=self.mode, squaring=sq)

    def odd_bracket_is_zero(self) -> bool:
        return all(
            not x for plane in self.odd_bracket for row in plane for x in row
        )

    def restrict_odd(self, indices: Sequence[int]) -> "SuperAlgebra":
        """Sub-superalgebra on a coordinate subset of the odd basis.

        The chosen odd coordinates must be closed under the action;
        otherwise this raises.
        """
        idx = list(indices)
        f = self.field
        keep = set(idx)
        for x in range(self.dim_even):
            for v in idx:
                for w in range(self.dim_odd):
                    if self.action[x][v][w] and w not in keep:
                        raise ValueError(
                            f"odd coordinates {idx} are not action-closed"
                        )
        d1 = len(idx)
        a = [
            [[self.action[x][idx[v]][idx[w]] for w in range(d1)] for v in range(d1)]
            for x in range(self.dim_even)
        ]
        p = [
            [list(self.odd_bracket[idx[u]][idx[v]]) for v in range(d1)]
            for u in range(d1)
        ]
        sq = None
        if self.mode == "char2":
            # the squaring is stored for v <= w only, and idx need not be sorted
            sq = [[list(self.squaring[min(a, b)][max(a, b)]) for b in idx] for a in idx]
        return SuperAlgebra.from_tensors(
            f, self.bracket, a, p, mode=self.mode, squaring=sq
        )

    def __eq__(self, o) -> bool:
        return (
            isinstance(o, SuperAlgebra)
            and o.field == self.field
            and o.mode == self.mode
            and o.bracket == self.bracket
            and o.action == self.action
            and o.odd_bracket == self.odd_bracket
            and o.squaring == self.squaring
        )

    def __hash__(self):
        return hash((self.field, self.mode, self.bracket, self.action, self.odd_bracket))

    def __repr__(self) -> str:
        return (
            f"SuperAlgebra({self.field}, dim {self.dim_even}|{self.dim_odd}, "
            f"mode {self.mode})"
        )


# --- validation ------------------------------------------------------------


def validate(g: SuperAlgebra) -> ValidationReport:
    """Check every axiom of g's mode; lists all violations, not just the first.
    The relations are the equations of :func:`compatibility_equations`,
    evaluated at g's own odd bracket, or at its squaring in char2 mode:
    each instance's terms are summed into one packed integer residual (see
    :func:`_packed_violations`), and the instance is violated iff some
    output of it is nonzero.  Only the instances with a term at a pair of
    the odd bracket's support are generated; every other one vanishes at
    g.  Over Q they run on integers: the bracket and
    action are scaled by one common denominator D and the odd bracket by
    its own D_p (see :func:`clear_denominators`), which multiplies
    relations 1 and 2 and the cubic by D*D_p and the representation check
    by D**2.  Past the cut-off of :func:`clear_denominators` the integer
    form holds Fractions, which cannot be packed, and each instance is
    summed output by output instead."""
    f = g.field
    d0, d1 = g.dim_even, g.dim_odd
    bad: list[Violation] = []

    def vec_even(raw) -> Vector:
        return Vector(f, raw)

    # even Jacobi identity on basis triples i < j < k
    units_e = [Vector.unit(f, d0, i) for i in range(d0)]
    for i in range(d0):
        for j in range(i + 1, d0):
            for k in range(j + 1, d0):
                s = (
                    g.even_bracket_vec(units_e[i], vec_even(g.bracket[j][k]))
                    + g.even_bracket_vec(units_e[j], vec_even(g.bracket[k][i]))
                    + g.even_bracket_vec(units_e[k], vec_even(g.bracket[i][j]))
                )
                if not s.is_zero():
                    bad.append(Violation("even_jacobi", (i, j, k), repr(s)))

    form = g._integer_form()
    bracket, act = form.bracket, action_nonzeros(form.action)
    bad.extend(
        Violation("representation", pair)
        for pair in representation_failures(f, bracket, act)
    )

    # the unknowns' values: g's odd bracket, or in char2 mode the squaring it
    # polarizes (char 2 means F_2, whose entries are integers already), kept
    # at the base (odd_unknowns) of each pair of its support
    odd = g.squaring if g.mode == "char2" else form.odd
    base = odd_unknowns(d0, d1)
    known, support = {}, [0] * d1
    for u in range(d1):
        for v in range(u, d1):
            if any(odd[u][v]):
                known[base[u][v]] = odd[u][v]
                support[u] |= 1 << v
                support[v] |= 1 << u
    coeffs = [c for plane in bracket for row in plane for c in row]
    coeffs += [c for plane in act for col in plane for _, c in col]
    equations = compatibility_equations(bracket, act, g.mode, support)
    p = f.p if f.kind == "prime" else None
    if set(map(type, chain(coeffs, *known.values()))) <= {int}:
        violated = _packed_violations(equations, known, coeffs, d0, d1, p)
    else:  # past the cut-off of clear_denominators: Fractions
        violated = _listed_violations(equations, known, d0, d1)
    bad.extend(Violation(identity, indices) for identity, indices in violated)
    return ValidationReport(tuple(bad))


class _Diagonal(list):
    """The group ``[((y, -a),) for y in range(d0)]`` of a unit term of
    :func:`compatibility_equations`: -a times the identity on the d0 even
    outputs.  It reads as the plain list it is, and carries ``coefficient``
    a so that :func:`validate` adds the term as one product, a times the
    packed negated odd bracket of the term's pair."""

    __slots__ = ("coefficient",)

    def __init__(self, a, d0: int):
        super().__init__(((y, -a),) for y in range(d0))
        self.coefficient = a


def _products_per_output(d0: int, d1: int) -> int:
    """The most products one output of an instance of
    :func:`compatibility_equations` sums: every column holds at most one
    pair per output, and an instance has at most three terms of d0
    columns, or one such term and at most 2 d1 diagonal groups."""
    return max(3 * d0, d0 + 2 * d1)


def _slot_width(bound: int, p: int | None) -> tuple[int, int]:
    """``(k, j)``: k bits per slot of a packed residual sum(s_t 2^(k t))
    whose slots s_t are integers with |s_t| <= ``bound``, nonnegative over
    F_p; over F_p, j bits for a slot of its quotient by p.

    Over Q, |s_t| < 2^k makes the sum zero only when every slot is: its
    lowest nonzero slot would have to be a multiple of 2^k.  Over F_p no
    slot carries into the next (s_t < 2^k), and every slot is a multiple
    of p iff p divides the sum and no slot of the quotient reaches 2^j
    (:func:`_is_zero`): each s_t / p is at most bound // p < 2^j, and
    conversely quotient slots q_t < 2^j make the p q_t < p 2^j <= 2^k the
    slots of the sum."""
    if p is None:
        return bound.bit_length(), 0
    j = (bound // p).bit_length()
    return ((p << j) - 1).bit_length(), j


def _high_bits(k: int, j: int, slots: int) -> int:
    """The bits j to k - 1 of each of ``slots`` k-bit slots."""
    return sum(((1 << k) - (1 << j)) << (k * t) for t in range(slots))


def _pack(pairs, k: int, p: int | None) -> int:
    """sum(c 2^(k t)) over the pairs (t, c), each c reduced into [0, p)
    over F_p."""
    if p:
        return sum((c % p) << (k * t) for t, c in pairs)
    return sum(c << (k * t) for t, c in pairs)


def _is_zero(r: int, p: int | None, high: int) -> bool:
    """Whether every slot of the packed residual r is zero, or over F_p a
    multiple of p; ``high`` is :func:`_high_bits` of its width."""
    if p is None:
        return not r
    q, m = divmod(r, p)
    return not m and not q & high


def _packed_violations(equations, known, coeffs, d0: int, d1: int, p: int | None):
    """(identity, indices) of each instance of ``equations`` whose residual
    at the ``known`` unknowns is nonzero, every instance summed into one
    packed integer.  ``known`` maps the base (:func:`odd_unknowns`) of each
    pair in the support to the pair's d0 coordinates: a term (base, group)
    adds known[base][i] times the packed column group[i], a diagonal group
    of -a its coefficient a times the packed negated coordinates, and a
    term at a pair outside the support adds nothing.

    Integers only.  An output of an instance sums at most
    :func:`_products_per_output` products, each at most max|known| *
    max|coeff| in absolute value, or (p - 1)^2 over F_p, where every raw
    entry is a residue in [0, p) and the packed columns are reduced there
    too: the bound that :func:`_slot_width` turns into the slot width."""
    products = _products_per_output(d0, d1)
    if p:
        bound = (p - 1) ** 2 * products
    else:
        top = max((abs(x) for xs in known.values() for x in xs), default=0)
        bound = top * max(map(abs, coeffs), default=0) * products
    k, j = _slot_width(bound, p)
    high = _high_bits(k, j, max(d0, d1)) if p else 0
    # at each base, the pair's coordinates, or None outside the support, and
    # the pair negated and packed.  A diagonal group's coefficient a is
    # reduced already, so a times the negated pair is the term.
    n = d0 * d1 * (d1 + 1) // 2
    coords, minus = [None] * n, [0] * n
    for b, xs in known.items():
        coords[b] = xs
        minus[b] = _pack([(y, -x) for y, x in enumerate(xs)], k, p)
    packed: dict = {}  # id(group): its packed columns
    for identity, indices, terms in equations:
        r = 0
        for b, group in terms:
            if type(group) is _Diagonal:
                r += group.coefficient * minus[b]
                continue
            xs = coords[b]
            if xs is None:
                continue
            cols = packed.get(id(group))
            if cols is None:
                cols = packed[id(group)] = [_pack(col, k, p) for col in group]
            r += sum(map(mul, xs, cols))
        if not _is_zero(r, p, high):
            yield identity, indices


def _listed_violations(equations, known, d0: int, d1: int):
    """:func:`_packed_violations` for Fractions, past the cut-off of
    :func:`clear_denominators`: each instance's terms added into a list of
    per-output sums."""
    for identity, indices, terms in equations:
        # over the even outputs for relation 2 and the even squaring
        # instances, the odd ones otherwise.  A sum starts from its first
        # term, since 0 + Fraction costs a full Fraction addition.
        r = [None] * (d0 if identity == "relation_2" or indices[0] == "even" else d1)
        for k, group in terms:
            for b, col in zip(known.get(k, ()), group):
                if b:
                    for t, c in col:
                        s = r[t]
                        r[t] = b * c if s is None else s + b * c
        if any(s for s in r if s is not None):
            yield identity, indices


def action_nonzeros(action) -> list:
    """act[x][w]: the nonzeros (t, coefficient of f_t) of e_x(f_w), from a
    tensor ``action[x][w][t]`` laid out like :attr:`SuperAlgebra.action`."""
    return [[[(t, c) for t, c in enumerate(col) if c] for col in plane] for plane in action]


# Past this size a common denominator costs more than it saves: products of
# the scaled entries grow with D, while a Fraction sum only carries the
# denominators of its own terms.  On 3|8 to 3|12 documents whose entries
# each have their own prime denominator, the two break even near 2000 bits.
_MAX_SCALE_BITS = 2048


def clear_denominators(field: Field, tensor) -> tuple[int, object]:
    """``(D, D * tensor)`` for the least D > 0 that makes every entry an
    integer.  ``tensor`` is nested lists or tuples of raw field elements,
    every leaf at the same depth (empty lists may stand anywhere above it);
    over Q the result nests lists of ints the same way, over F_p (already
    integers) it is ``(1, tensor)``.  Tensors that must share one scale are
    passed together as a tuple.  When D would exceed ``_MAX_SCALE_BITS``
    bits the result is ``(1, tensor)`` too: every caller is exact on
    Fractions as well, only slower on small denominators.  Each
    :class:`SuperAlgebra` clears its own tensors once, on first use, and
    :func:`~superbracket.moduli.odd_bracket_space` its even bracket and
    action."""
    if field.kind == "prime":
        return 1, tensor
    leaves = tensor
    while leaves and isinstance(leaves[0], (list, tuple)):
        leaves = [x for t in leaves for x in t]
    d = lcm(*{x.denominator for x in leaves})
    if d.bit_length() > _MAX_SCALE_BITS:
        return 1, tensor
    return d, _scaled(tensor, d)


def _scaled(tensor, d: int) -> list:
    if tensor and isinstance(tensor[0], (list, tuple)):
        return [_scaled(t, d) for t in tensor]
    if d == 1:
        return [t.numerator for t in tensor]
    return [t.numerator * (d // t.denominator) for t in tensor]


def odd_unknowns(d0: int, d1: int) -> list:
    """base[u][v] + x is the flat index of the coefficient of e_x in
    {f_u, f_v}: pairs u <= v in lexicographic order, d0 unknowns each."""
    base = [[0] * d1 for _ in range(d1)]
    k = 0
    for u in range(d1):
        for v in range(u, d1):
            base[u][v] = base[v][u] = k
            k += d0
    return base


def representation_failures(field: Field, bracket, act) -> list[tuple[int, int]]:
    """Pairs i < j with [rho(e_i), rho(e_j)] != rho([e_i, e_j]).

    ``bracket`` is the d0 x d0 x d0 even tensor and ``act`` the action's
    nonzeros from :func:`action_nonzeros`, both raw field elements or both
    scaled to integers by one :func:`clear_denominators` (the check is
    homogeneous); an empty list means a representation.  Each image of f_w
    is summed over nonzeros only.

    On integers (over F_p, residues in [0, p)) each action column is packed
    once with :func:`_pack`, and each (i, j, w) is summed as one integer,
    sum a P_i[t] - sum a P_j[t] - sum c_ijk P_k[w] over the nonzeros (t, a)
    of e_j(f_w), then of e_i(f_w), and over k, where P_i[t] is e_i(f_t)
    packed; over F_p each -a is written p - a, so that every slot stays
    nonnegative.  A slot sums at most 2 d1 + d0 products, the bound that
    :func:`_slot_width` turns into the slot width.  Fraction inputs (past
    the cut-off of :func:`clear_denominators`, which both the integer form
    and the solver clear by) are summed output by output instead.
    """
    d0 = len(bracket)
    d1 = len(act[0]) if act else 0
    p = field.p if field.kind == "prime" else None
    coeffs = [c for plane in bracket for row in plane for c in row]
    nonzeros = [a for plane in act for col in plane for _, a in col]
    if set(map(type, chain(coeffs, nonzeros))) <= {int}:
        return _packed_failures(bracket, act, coeffs, nonzeros, p)
    return _listed_failures(bracket, act, p)


def _packed_failures(bracket, act, coeffs, nonzeros, p: int | None) -> list:
    """:func:`representation_failures` on integers, one packed sum per
    (i, j, w)."""
    d0, d1 = len(bracket), len(act[0]) if act else 0
    if p:
        bound = (p - 1) ** 2
    else:
        top = max(map(abs, nonzeros), default=0)
        bound = top * max(top, max(map(abs, coeffs), default=0))
    k, kq = _slot_width(bound * (2 * d1 + d0), p)
    high = _high_bits(k, kq, d1) if p else 0
    q = p or 0  # q - a is -a over Q and p - a over F_p
    packed = [[_pack(col, k, p) for col in plane] for plane in act]
    minus = [[[(t, q - a) for t, a in col] for col in plane] for plane in act]
    bad = []
    for i in range(d0):
        for j in range(i + 1, d0):
            pi, pj = packed[i], packed[j]
            minus_c = [(packed[x], q - c) for x, c in enumerate(bracket[i][j]) if c]
            for w in range(d1):
                r = 0
                for t, a in act[j][w]:
                    r += a * pi[t]
                for t, a in minus[i][w]:
                    r += a * pj[t]
                for pk, c in minus_c:
                    r += c * pk[w]
                if not _is_zero(r, p, high):
                    bad.append((i, j))
                    break
    return bad


def _listed_failures(bracket, act, p: int | None) -> list:
    """:func:`representation_failures` on Fractions, one dict of per-output
    sums per (i, j, w)."""
    d0 = len(bracket)
    d1 = len(act[0]) if act else 0
    bad = []
    for i in range(d0):
        for j in range(i + 1, d0):
            minus_c = [(act[k], -c) for k, c in enumerate(bracket[i][j]) if c]
            for w in range(d1):
                # rho_i rho_j (f_w) - rho_j rho_i (f_w) - sum_k c_ijk rho_k (f_w),
                # as (nonzeros of an image, its coefficient) terms
                terms = (
                    [(act[i][t], a) for t, a in act[j][w]]
                    + [(act[j][t], -a) for t, a in act[i][w]]
                    + [(rho_k[w], c) for rho_k, c in minus_c]
                )
                col: dict = {}
                for pairs, a in terms:
                    for s, b in pairs:
                        x = a * b
                        col[s] = col[s] + x if s in col else x
                if any(x % p if p else x for x in col.values()):
                    bad.append((i, j))
                    break
    return bad


def compatibility_equations(bracket, act, mode: str = "standard", support=None):
    """The axiom relations that are linear in the odd bracket (or, in mode
    "char2", in the squaring) as sparse linear equations: the one definition
    that :func:`validate` evaluates and
    :func:`superbracket.moduli.odd_bracket_space` eliminates.

    ``bracket`` is the even tensor and ``act`` the action's nonzeros from
    :func:`action_nonzeros`, as for :func:`representation_failures`; every
    equation is linear in them, so scaling both by D scales it by D.  The
    unknowns are indexed by :func:`odd_unknowns`.  Returns a lazy iterator
    of ``(identity, indices, terms)``, one for every instance that has a
    term, where ``terms`` is a list ``[(base, group), ...]``: unknown
    ``base + i`` carries the column ``group[i]``, a list ``[(output,
    coeff), ...]`` (possibly empty) with at most one pair per output.  The
    instance's equation for output t is the sum over the terms and i of
    coeff * unknown for the pairs at t.  Groups are shared between terms
    and instances, an unknown may recur in several terms, and the
    coefficients are not reduced mod p.  The group of each unit term below,
    -a times the identity on the even outputs, is a :class:`_Diagonal`: a
    list like the others, built once per distinct coefficient a and
    carrying a.  An instance has at most three terms, or one term and at
    most 2 d1 unit terms (:func:`_products_per_output`).  Modes "standard"
    and "char3" give, in this order:

    * ``relation_1`` at u <= v <= w (the relation is fully symmetric), one
      equation per odd output t of {f_u,f_v}(f_w) + {f_v,f_w}(f_u) +
      {f_w,f_u}(f_v) = 0, at most three terms;
    * ``relation_2`` at (x, u <= v), one equation per even output y of
      [e_x, {f_u,f_v}] - {e_x(f_u), f_v} - {f_u, e_x(f_v)} = 0: one term
      for the bracket and one unit term per nonzero of e_x(f_u) and of
      e_x(f_v);
    * mode "char3" only, ``char3_cubic`` at a <= b <= c: the coefficient of
      t_a t_b t_c in {x,{x,x}} (x = sum t f), the sum of {f_i,f_j}(f_k) over
      the arrangements of {a,b,c}.  Only the diagonal a = b = c adds to the
      trilinear relation in characteristic 3, but every monomial is emitted
      so that a violation names its own pattern.

    Mode "char2" gives only ``char2_square``, the coefficient of t_v t_w in
    {x^2, y} = {x, {x, y}} (x = sum t f), in the squaring S: for v <= w,
    first at ``("even", y, v, w)`` for each even y, one equation per even
    output, of [S(v,w), e_y] against the sum of {f_a, e_y(f_b)} over the
    orderings (a, b) of {v, w}, with one unit term per nonzero f_s of
    e_y(f_b), s != a; then at ``("odd", y, v, w)`` for each odd y, one
    equation per odd output, of S(v,w)(f_y) against the sum of
    {f_b, f_y}(f_a).  The odd bracket is the polarization of S, so
    {f_a, f_b} is the unknown S(a,b) for a != b and the diagonal {f_a, f_a}
    vanishes.  Signs do not matter in characteristic 2, so the shared
    groups serve both sides as they are.

    ``support``, if given, is the support of the odd bracket (of the
    squaring in mode "char2") as one bitmask per odd index u, with bit v set
    iff {f_u, f_v} != 0 (S(u, v) != 0), symmetric in u and v.  Then only the
    instances with a term at a pair of the support are yielded, in the same
    order and with the same terms: every other instance vanishes at such an
    odd bracket.  They are found from the masks, without visiting every
    index triple (:func:`_supported_triples`, :func:`_supported_pairs`,
    :func:`_supported_squares`).  ``None`` yields every instance.  Each
    relation is one generator of :class:`_Relations`, which the solver
    calls in its own order.
    """
    if support is not None and not any(support):
        # no instance has a term in an empty support.  This also covers
        # d0 = 0, whose empty act gives no d1 to index the support with.
        return iter(())
    rel = _Relations(bracket, act)
    some = support is not None  # else every instance
    if mode == "char2":
        return rel.char2_square(_supported_squares(support, act, rel.live, rel.elive) if some else None)

    def triples():
        return _supported_triples([(support, rel.live)]) if some else None

    relations = [
        rel.relation_1(triples()),
        rel.relation_2(_supported_pairs(support, act, rel.elive) if some else None),
    ]
    if mode == "char3":
        relations.append(rel.cubic(triples()))
    return chain.from_iterable(relations)


class _Relations:
    """The setup that the relations of :func:`compatibility_equations` share,
    with one generator per relation over the indices it is given (all of
    them for ``None``), yielding that relation's instances as
    :func:`compatibility_equations` does.  The solver
    (:func:`superbracket.moduli.odd_bracket_space`) calls them in its own
    order: relation 2 and the cubic first, then relation 1 where unknowns
    are still alive."""

    def __init__(self, bracket, act):
        self.d0 = d0 = len(bracket)
        self.d1 = d1 = len(act[0]) if act else 0
        self.base = odd_unknowns(d0, d1)
        # cols[w][x]: nonzeros of e_x(f_w)
        self.cols = cols = [[act[x][w] for x in range(d0)] for w in range(d1)]
        # ecols[x][z]: nonzeros (y, coefficient of e_y) of [e_x, e_z]
        self.ecols = ecols = action_nonzeros(bracket)
        self.live, self.elive = [any(grp) for grp in cols], [any(grp) for grp in ecols]
        # units[x][s]: (w, the diagonal group of a = coefficient of f_w in
        # e_x(f_s)), each group built once per distinct a
        diagonals = {a: _Diagonal(a, d0) for a in {a for pl in act for col in pl for _, a in col}}
        self.units = [[[(w, diagonals[a]) for w, a in col] for col in pl] for pl in act]

    def _pairs(self):
        return combinations_with_replacement(range(self.d1), 2)

    def relation_1(self, triples=None):
        """``relation_1`` at the triples u <= v <= w given, in their order."""
        base, cols, live = self.base, self.cols, self.live
        if triples is None:
            triples = combinations_with_replacement(range(self.d1), 3)
        for u, v, w in triples:
            rotations = ((u, v, w), (v, w, u), (w, u, v))
            terms = [(base[a][b], cols[c]) for a, b, c in rotations if live[c]]
            if terms:
                yield "relation_1", (u, v, w), terms

    def relation_2(self, pairs=None):
        """``relation_2`` at the (x, (u, v)) given, in their order."""
        base, ecols, elive, units = self.base, self.ecols, self.elive, self.units
        if pairs is None:
            pairs = product(range(self.d0), self._pairs())
        for x, (u, v) in pairs:
            terms = [(base[u][v], ecols[x])] if elive[x] else []
            terms += [(base[w][c], ys) for s, c in ((u, v), (v, u)) for w, ys in units[x][s]]
            if terms:
                yield "relation_2", (x, u, v), terms

    def cubic(self, triples=None):
        """``char3_cubic`` at the triples a <= b <= c given, in their order."""
        base, cols, live = self.base, self.cols, self.live
        twice = [[[(t, 2 * c) for t, c in col] for col in cw] for cw in cols]
        if triples is None:
            triples = combinations_with_replacement(range(self.d1), 3)
        for a, b, c in triples:
            # (i, j, k, group of f_k) for each {f_i,f_j}(f_k), with its multiplicity
            if a == b == c:
                terms = ((a, a, a, cols[a]),)
            elif a == b:
                terms = ((a, a, c, cols[c]), (a, c, a, twice[a]))
            elif b == c:
                terms = ((a, b, b, twice[b]), (b, b, a, cols[a]))
            else:
                terms = ((a, b, c, twice[c]), (a, c, b, twice[b]), (b, c, a, twice[a]))
            terms = [(base[i][j], grp) for i, j, k, grp in terms if live[k]]
            if terms:
                yield "char3_cubic", (a, b, c), terms

    def char2_square(self, squares=None):
        """``char2_square`` at the (v, w, even ys, odd ys) given, in their
        order; ``None`` gives every y at every v <= w."""
        base, cols, ecols, live, elive, units = (
            self.base, self.cols, self.ecols, self.live, self.elive, self.units
        )
        if squares is None:
            squares = ((v, w, range(self.d0), range(self.d1)) for v, w in self._pairs())
        for v, w, evens, odds in squares:
            orderings = ((v, w), (w, v)) if v < w else ((v, v),)
            for y in evens:
                terms = [(base[v][w], ecols[y])] if elive[y] else []
                terms += [(base[a][s], ys) for a, b in orderings for s, ys in units[y][b] if s != a]
                if terms:
                    yield "char2_square", ("even", y, v, w), terms
            for y in odds:
                terms = [(base[v][w], cols[y])] if live[y] else []
                terms += [(base[b][y], cols[a]) for a, b in orderings if b != y and live[a]]
                if terms:
                    yield "char2_square", ("odd", y, v, w), terms


# --- instance selection by support --------------------------------------------


def _or(masks) -> int:
    return reduce(or_, masks, 0)


def _bits(mask: int):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _supported_triples(layers: list):
    """(u, v, w), u <= v <= w in lexicographic order, at which for some
    layer (support, live) of ``layers`` some pair has its third index live
    and lies in the support: where relation 1 and the cubic have a term at
    a pair of the support (one layer), or where the solver's relation 1 has
    a live unknown that meets a nonempty column (one layer per even index).
    For each layer and (u, v), the w are the live indices if {u, v} is in
    the support, S(v) if u is live and S(u) if v is; the v are those for
    which one of these can be nonempty.  Each (u, v, w) is yielded once."""
    masks = []
    for support, live in layers:
        lm = _or(1 << i for i, x in enumerate(live) if x)
        held = _or(1 << i for i, s in enumerate(support) if s)
        if lm and held:  # otherwise the layer selects nothing
            masks.append((support, lm, held))
    if not masks:
        return
    for u in range(len(masks[0][0])):
        vs = 0
        for support, lm, held in masks:
            su = support[u]
            vs |= su | (held if lm >> u & 1 else 0) | (lm if su else 0)
        for v in _bits(vs >> u << u):
            ws = 0
            for support, lm, held in masks:
                su = support[u]
                ws |= (
                    (lm if su >> v & 1 else 0)
                    | (support[v] if lm >> u & 1 else 0)
                    | (su if lm >> v & 1 else 0)
                )
            for w in _bits(ws >> v << v):
                yield u, v, w


def _supported_pairs(support: list, act, elive: list):
    """(x, (u, v)), u <= v in the order of relation 2, at which it has a term
    at a pair of the support: {u, v} is in it and ad(e_x) != 0, or some f_w
    of e_x(f_u) pairs with f_v into it, or some f_w of e_x(f_v) with f_u."""
    for x, plane in enumerate(act):
        # reach[u]: the v that some f_w of e_x(f_u) pairs with in the support
        reach = [_or(support[w] for w, _ in col) for col in plane]
        back = [0] * len(reach)  # back[u]: the v with u in reach[v]
        for v, m in enumerate(reach):
            for u in _bits(m):
                back[u] |= 1 << v
        for u, su in enumerate(support):
            for v in _bits(((su if elive[x] else 0) | reach[u] | back[u]) >> u << u):
                yield x, (u, v)


def _supported_squares(support: list, act, live: list, elive: list):
    """(v, w, even ys, odd ys) for v <= w in the order of the squaring
    axiom, the ys those at which its instance has a term at a pair of the
    support: {v, w} itself; for an even y, (a, s) with s != a in
    e_y(f_b); for an odd y, (b, y) with b != y and f_a live, where (a, b)
    runs over the orderings of {v, w}.  Each such pair needs {v, w} in the
    support, or one of v, w live and the other in a pair of it, as for
    relation 1: the w are a superset, the ys exact."""
    lm = _or(1 << i for i, x in enumerate(live) if x)
    held = _or(1 << i for i, s in enumerate(support) if s)
    nz = [[_or(1 << s for s, _ in col) for col in plane] for plane in act]  # the f_s in e_y(f_b)
    for v, sv in enumerate(support):
        rv = sv & ~(1 << v)
        for w in _bits((sv | (held if live[v] else 0) | (lm if sv else 0)) >> v << v):
            rw = support[w] & ~(1 << w)
            pair = sv >> w & 1
            evens = [y for y, n in enumerate(nz) if elive[y] and pair or n[w] & rv or n[v] & rw]
            odds = (lm if pair else 0) | (rw if live[v] else 0) | (rv if live[w] else 0)
            yield v, w, evens, _bits(odds)


# --- supercentre, spans, simplicity -----------------------------------------


def supercentre(g: SuperAlgebra) -> tuple[list[Vector], list[Vector]]:
    """Echelon bases of Z(g) in the even and odd sectors.

    An even x is central iff [x, e_j] = 0 for all j and x acts by zero on
    the odd part; an odd u is central iff every e_x kills it and
    {u, f_v} = 0 for all v.  Both conditions are kernels of stacked linear
    maps on the coordinates.
    """
    f, d0, d1 = g.field, g.dim_even, g.dim_odd
    c, a, p = g.bracket, g.action, g.odd_bracket
    even = sparse_kernel_basis(
        f,
        chain(
            ({i: c[i][j][k] for i in range(d0) if c[i][j][k]} for j in range(d0) for k in range(d0)),
            ({i: a[i][v][w] for i in range(d0) if a[i][v][w]} for v in range(d1) for w in range(d1)),
        ),
        d0,
    )
    odd = sparse_kernel_basis(
        f,
        chain(
            ({v: a[x][v][w] for v in range(d1) if a[x][v][w]} for x in range(d0) for w in range(d1)),
            ({u: p[u][v][k] for u in range(d1) if p[u][v][k]} for v in range(d1) for k in range(d0)),
        ),
        d1,
    )
    return even, odd


def p_span(
    g: SuperAlgebra, u_basis: Sequence[Vector], w_basis: Sequence[Vector]
) -> list[Vector]:
    """Echelon basis of span{ {u, w} : u in U, w in W } inside g0."""
    vecs = [
        g.odd_bracket_vec(u, w) for u in u_basis for w in w_basis
    ]
    return echelon_span(g.field, vecs)


def is_ideal(g: SuperAlgebra, subspace: Sequence[Vector]) -> bool:
    """Whether a subspace of the even part satisfies [g0, S] <= S."""
    span = Span(g.field, list(subspace), g.dim_even)
    units = [Vector.unit(g.field, g.dim_even, i) for i in range(g.dim_even)]
    return all(g.even_bracket_vec(e, s) in span for e in units for s in span.basis)


def killing_form(g: SuperAlgebra) -> Matrix:
    """Killing form K(x,y) = trace(ad x . ad y) of the even part:
    K(e_i, e_j) is the sum over k, l of c_il^k c_jk^l, summed on the integer
    bracket D*c of g's integer form and divided by D**2."""
    form = g._integer_form()
    c, n = form.bracket, g.dim_even
    rows = [
        [sum(c[i][l][k] * c[j][k][l] for k in range(n) for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return Matrix._from_raw(g.field, [_unscaled(g.field, row, form.d**2) for row in rows])


def is_simple_3dim(g: SuperAlgebra) -> bool:
    """Simplicity test for a 3-dimensional even part via det(Killing) != 0.

    Valid in characteristic not 2 or 3; rejects other even dimensions.
    """
    if g.dim_even != 3:
        raise DimensionMismatch("simplicity test requires a 3-dimensional even part")
    return bool(killing_form(g).det())


# --- morphism certificates ---------------------------------------------------


@dataclass(frozen=True)
class MorphismCertificate:
    """A claimed isomorphism: block matrices on the even and odd sectors,
    columns holding images of the source basis in target coordinates."""

    source: SuperAlgebra
    target: SuperAlgebra
    m_even: Matrix
    m_odd: Matrix


def check_morphism(cert: MorphismCertificate) -> tuple[bool, str | None]:
    """Verify a certificate: both blocks invertible and bracket-preserving
    in all three graded sectors.  Returns (ok, first failure or None).

    The target is transported into the basis of the block columns by the
    loop of :meth:`SuperAlgebra.conjugated` (:func:`_transported`), on
    integers, and each transported product ``values / scale`` is compared
    with the source's integer form, ``src / d``, as ``d values == scale
    src`` (mod p over F_p).  That holds exactly when the block maps the
    source product to the target product of the images.  Pairs are scanned
    in the order even bracket (i < j), action (x, v), odd bracket (u <= v),
    then in char2 mode the squares (v), which fixes the failure that is
    reported."""
    s, t = cert.source, cert.target
    if s.field != t.field:
        return False, "source and target fields differ"
    if s.dim_even != t.dim_even or s.dim_odd != t.dim_odd:
        return False, "graded dimensions differ"
    me, mo = cert.m_even, cert.m_odd
    if me.rows != s.dim_even or me.cols != s.dim_even:
        return False, "even block has wrong shape"
    if mo.rows != s.dim_odd or mo.cols != s.dim_odd:
        return False, "odd block has wrong shape"
    inv_e = me.inverse()
    if inv_e is None:
        return False, "even block singular"
    inv_o = mo.inverse()
    if inv_o is None:
        return False, "odd block singular"
    f = s.field
    p = f.p if f.kind == "prime" else None
    fs = s._integer_form()
    # equal fields fix equal axiom modes, so s has a squaring when t does
    source = {
        "even bracket": (fs.bracket, fs.d),
        "action": (fs.action, fs.d),
        "odd bracket": (fs.odd, fs.dp),
        "squaring": (s.squaring, 1),
    }
    for sector, i, j, values, scale in _transported(t, me, mo, inv_e, inv_o):
        tensor, d = source[sector]
        diffs = (d * v - scale * w for v, w in zip(values, tensor[i][j]))
        if any(x % p if p else x for x in diffs):
            at = f"({i})" if sector == "squaring" else f"({i},{j})"
            return False, f"{sector} not preserved at {at}"
    return True, None
