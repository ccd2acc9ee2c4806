"""Structure-constant model of finite-dimensional Lie superalgebras.

A superalgebra here is g = g0 + g1 over an exact field, stored as the
nonzero entries of its structure constants, keyed as the canonical document
keys them:

* the even bracket at (i, j, k), i < j  -- coefficient of e_k in [e_i, e_j],
* the action at (x, v, w)              -- coefficient of f_w in e_x(f_v),
* the odd bracket at (u, v, x), u <= v -- coefficient of e_x in {f_u, f_v}.

The dense tensors ``bracket[i][j]``, ``action[x][v]`` and
``odd_bracket[u][v]`` are read-only views, built on first use for the code
that indexes them.

Antisymmetry of the even bracket and symmetry of the odd one are enforced
structurally: only the entries with i < j (resp. u <= v) are stored, and
the views mirror them, so those symmetries cannot be violated.

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
selects the same way on the pairs that still have an unknown alive, and
no support means the full one.  Past the 2048-bit cut-off of
:func:`clear_denominators` the integer form holds Fractions, and each
instance is summed into a list of per-output Fractions instead.  The
validator and the solver also share :func:`representation_failures`,
which packs each action column once and sums each (i, j, w) of
[rho_i, rho_j] - sum_k c_ijk rho_k as one integer.  :func:`validate`
checks the even Jacobi identity with it too, as "ad represents g0".  Both
routines take the even bracket and the action as nonzero columns,
``ecols[x][z]`` the pairs (y, c) of [e_x, e_z] and ``act[x][w]`` those of
e_x(f_w), read off the algebra's integer form (:func:`_even_system`).

Each algebra keeps a private integer form, built on first use and left out
of equality and hashing: over Q the entries of the bracket and action
scaled by one common denominator D, and those of the odd bracket by its
own D_p (:func:`clear_denominators`); over F_p the entries themselves.
:func:`validate`, :func:`check_morphism`, :func:`killing_form`,
:meth:`SuperAlgebra.conjugated` and the bilinear maps
(``even_bracket_vec``, ``act_vec``, ``odd_bracket_vec``) all read it, and
so does :func:`~superbracket.moduli.odd_bracket_space`.  Every
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
from itertools import chain
from math import lcm
from operator import mul, neg, or_
from typing import Iterable, NamedTuple, Sequence

from .fields import Field
from .linalg import (
    DimensionMismatch,
    Matrix,
    Span,
    Vector,
    _kernel_vectors,
)

__all__ = [
    "SuperAlgebra",
    "MorphismCertificate",
    "ValidationReport",
    "Violation",
    "MODES",
    "validate",
    "clear_denominators",
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


def _freeze3(t):
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


def _same(c):
    return c


def _rows(entries: dict, mirror=None) -> dict:
    """rows[i][j]: the nonzeros (k, c), k increasing, of the entries
    ``{(i, j, k): c}``; with a ``mirror``, also (k, mirror(c)) at
    rows[j][i] for i != j, as the even bracket (negated) and the odd
    bracket (:func:`_same`) mirror their stored entries."""
    rows: dict = {}
    for (i, j, k), c in sorted(entries.items()):
        rows.setdefault(i, {}).setdefault(j, []).append((k, c))
        if mirror and i != j:
            rows.setdefault(j, {}).setdefault(i, []).append((k, mirror(c)))
    return rows


def _dense(entries: dict, shape, zero=0, mirror=None) -> list:
    """The nested lists of the tensor of the given shape that holds the
    entries ``{(i, j, k): c}``, each mirrored as in :func:`_rows`, and
    ``zero`` elsewhere."""
    a, b, n = shape
    t = [[[zero] * n for _ in range(b)] for _ in range(a)]
    for (i, j, k), c in entries.items():
        t[i][j][k] = c
        if mirror:
            t[j][i][k] = mirror(c)
    return t


def _columns(entries: dict, a: int, b: int, mirror=None) -> list:
    """cols[x][v]: the nonzeros (w, c), w increasing, of the entries
    ``{(x, v, w): c}`` of an a x b x n tensor; with a ``mirror``, also
    (w, mirror(c)) at cols[v][x], as the even bracket mirrors its own."""
    cols = [[[] for _ in range(b)] for _ in range(a)]
    for (x, v, w), c in sorted(entries.items()):
        cols[x][v].append((w, c))
        if mirror:
            cols[v][x].append((w, mirror(c)))
    return cols


def _grouped(cells) -> list:
    """The sparse rows ``{column: value}`` of the cells (row key, column,
    value), one row per key."""
    rows: dict = {}
    for key, col, c in cells:
        rows.setdefault(key, {})[col] = c
    return list(rows.values())


def _nonzeros(tensor, shape, start, refusal: str, convert=_same) -> dict:
    """``{(i, j, k): c}`` for the nonzero c = convert(tensor[i][j][k]) of a
    dense tensor of the given shape, read at j >= i + start only (at every j
    for start None); raises ShapeError with ``refusal`` when a plane, or a
    row that is read, has the wrong length."""
    a, b, n = shape
    if len(tensor) != a or any(len(plane) != b for plane in tensor):
        raise ShapeError(refusal)
    out = {}
    for i, plane in enumerate(tensor):
        for j in range(0 if start is None else i + start, b):
            row = plane[j]
            if len(row) != n:
                raise ShapeError(refusal)
            for k, c in enumerate(map(convert, row)):
                if c:
                    out[i, j, k] = c
    return out


def _upper_parts(d0: int, d1: int, bracket, action, odd_bracket, squaring, convert=_same) -> tuple:
    """The nonzero entries (:func:`_nonzeros`) of the even bracket at i < j,
    the action, the odd bracket at u <= v and the squaring (None if None)
    at v <= w, from dense tensors of dimension d0|d1."""
    return (
        _nonzeros(bracket, (d0, d0, d0), 1, "even bracket tensor must be d0 x d0 x d0", convert),
        _nonzeros(action, (d0, d1, d1), None, "action tensor must be d0 x d1 x d1", convert),
        _nonzeros(odd_bracket, (d1, d1, d0), 0, "odd bracket tensor must be d1 x d1 x d0", convert),
        None
        if squaring is None
        else _nonzeros(squaring, (d1, d1, d0), 0, "squaring tensor must be d1 x d1 x d0", convert),
    )


def _bilinear(rows: dict, x, y, n: int) -> list:
    """The n sums over a, b of x_a y_b t_ab for the tensor t given by its
    nonzero rows (see :func:`_rows`), over the nonzeros of x and y.  Plain +
    and * on the raw entries, so ints or Fractions alike and nothing
    reduced mod p: the caller reduces."""
    out = [0] * n
    for a, plane in rows.items():
        xa = x[a]
        if xa:
            for b, row in plane.items():
                yb = y[b]
                if yb:
                    c = xa * yb
                    for k, z in row:
                        out[k] += c * z
    return out


def _contract(rows: dict, x) -> dict:
    """The rows of the one-plane tensor h = sum over a of x_a t_a, so that
    ``_bilinear(h, (1,), y, n) == _bilinear(rows, x, y, n)`` for every y.
    Raw entries, nothing reduced mod p."""
    h: dict = {}
    for a, plane in rows.items():
        xa = x[a]
        if xa:
            for b, row in plane.items():
                acc = h.setdefault(b, {})
                for k, z in row:
                    acc[k] = acc[k] + xa * z if k in acc else xa * z
    return {0: {b: list(acc.items()) for b, acc in h.items()}}


def _matvec(m, v) -> list:
    """m @ v on raw entries, over the nonzeros of v; nothing reduced mod p."""
    nonzeros = [(k, c) for k, c in enumerate(v) if c]
    return [sum(row[k] * c for k, c in nonzeros) for row in m]


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
        ("even bracket", ecols, ecols, ie, form.d * se * se * sie, lambda i: range(i + 1, d0)),
        ("action", ecols, ocols, io, form.d * se * so * sio, lambda x: range(d1)),
        ("odd bracket", ocols, ocols, ie, form.dp * so * so * sie, lambda u: range(u, d1)),
    ]
    if g.mode == "char2":
        sectors.append(("squaring", ocols, ocols, ie, so * so * sie, lambda v: (v,)))
    for sector, left, right, inv, scale, pairs in sectors:
        n, rows = len(inv), form.rows(sector)
        for i, x in enumerate(left):
            js = pairs(i)
            if js:
                h = _contract(rows, x)
                for j in js:
                    yield sector, i, j, _matvec(inv, _bilinear(h, (1,), right[j], n)), scale


def _cleared(field: Field, *sectors: dict) -> tuple:
    """``(D, [D * entries for each sector])`` for the least D > 0 that makes
    every entry of the sectors an integer, as :func:`clear_denominators`
    gives it for their values (and so also its cut-off)."""
    flat = [c for s in sectors for c in s.values()]
    d, values = clear_denominators(field, flat)
    if values is flat:  # over F_p, and past the cut-off
        return d, list(sectors)
    it = iter(values)
    return d, [{key: next(it) for key in s} for s in sectors]


class _IntegerForm(NamedTuple):
    """An algebra's entries cleared of denominators by
    :func:`clear_denominators`, keyed as the algebra keys them: ``bracket``
    and ``action`` are scaled by one common ``d`` (relation 2 and the
    representation check add bracket terms to action terms), ``odd`` is
    the odd bracket scaled by its own ``dp``, and ``squaring`` (F_2 only,
    so unscaled) is None outside char2 mode.  Over F_p both scales are 1
    and the entries are the algebra's own.  :meth:`rows` builds each
    sector's nonzero rows once."""

    d: int
    bracket: dict
    action: dict
    dp: int
    odd: dict
    squaring: dict | None
    cache: dict

    def rows(self, sector: str) -> dict:
        """The nonzero rows (:func:`_rows`) of the "even bracket" (every
        i != j), "action", "odd bracket" (every u, v) or "squaring" (v <= w).
        The bracket's lower rows are plain negatives, not residues mod p:
        the bilinear sums are reduced by their callers."""
        rows = self.cache.get(sector)
        if rows is None:
            entries, mirror = {
                "even bracket": (self.bracket, neg),
                "action": (self.action, None),
                "odd bracket": (self.odd, _same),
                "squaring": (self.squaring, None),
            }[sector]
            rows = self.cache[sector] = _rows(entries, mirror)
        return rows


def _even_system(g: "SuperAlgebra") -> tuple[list, list]:
    """``(ecols, act)``: the nonzero columns (:func:`_columns`) of the even
    bracket, mirrored by ``field.neg``, and of the action of g's integer
    form, both cleared by its one D: the inputs of
    :func:`representation_failures` and
    :func:`compatibility_equations`, from which :func:`validate` and
    :func:`~superbracket.moduli.odd_bracket_space` build their systems."""
    form = g._integer_form()
    d0 = g.dim_even
    return _columns(form.bracket, d0, d0, g.field.neg), _columns(form.action, d0, g.dim_odd)


class SuperAlgebra:
    """Immutable Lie superalgebra given by structure constants.

    Each sector is a dict of its nonzero entries, keyed as in the module
    docstring; in char2 mode the squaring's entries are kept at (v, w, x),
    v <= w, and the odd bracket's are derived from them by polarization.
    ``bracket``, ``action``, ``odd_bracket`` and ``squaring`` are dense
    nested tuples of raw field elements, ``field.zero()`` at the zeros,
    each built once on first access."""

    __slots__ = (
        "field",
        "dim_even",
        "dim_odd",
        "mode",
        "_even",
        "_act",
        "_odd",
        "_sq",
        "_views",
        "_ints",
        "_centre",
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
        """Build from dense tensors of the full shape, their entries coerced
        into the field (an int such as -1 becomes its residue over F_p).  The
        entries are read off the upper parts (i < j for the bracket, u <= v
        for the odd bracket and the squaring), and a lower part that the
        views would not give back is refused."""

        def coerced(t):
            return tuple(tuple(tuple(map(field.coerce, row)) for row in plane) for plane in t)

        entries = _upper_parts(dim_even, dim_odd, bracket, action, odd_bracket, squaring, field.coerce)
        self._init(field, dim_even, dim_odd, mode, *entries)
        if self.bracket != coerced(bracket):
            raise ShapeError("even bracket tensor must be antisymmetric")
        if self.odd_bracket != coerced(odd_bracket):
            if mode == "char2":
                raise ShapeError("char2 mode needs the odd bracket to polarize the squaring")
            raise ShapeError("odd bracket tensor must be symmetric")
        # S(v,w) is stored at v <= w only, so that equal squarings compare equal
        if squaring is not None and self.squaring != coerced(squaring):
            raise ShapeError("char2 squaring entries below the diagonal must be zero")

    def _init(self, field, d0, d1, mode, even, act, odd, sq):
        if mode not in MODES:
            raise ShapeError(f"unknown axiom mode {mode!r}")
        char = field.characteristic
        if mode == "standard" and char in (2, 3):
            raise ShapeError("standard mode requires characteristic not 2 or 3")
        if mode == "char3" and char != 3:
            raise ShapeError("char3 mode requires characteristic 3")
        if mode == "char2" and char != 2:
            raise ShapeError("char2 mode requires characteristic 2")
        if mode == "char2" and sq is None:
            raise ShapeError("char2 mode needs a squaring tensor")
        if mode != "char2" and sq is not None:
            raise ShapeError("squaring is only meaningful in char2 mode")
        # validate reads only the squaring, so the odd bracket is its
        # polarization, {f_v, f_w} = S(v,w) for v < w and {f_v, f_v} = 0:
        # derived from it for None, and checked against it otherwise
        if mode == "char2":
            polar = {key: c for key, c in sq.items() if key[0] < key[1]}
            if odd is None:
                odd = polar
            elif odd != polar:
                raise ShapeError("char2 mode needs the odd bracket to polarize the squaring")
        self.field, self.dim_even, self.dim_odd, self.mode = field, d0, d1, mode
        self._even, self._act, self._odd, self._sq = even, act, odd, sq
        self._views = {}  # the dense views, each built on first access
        self._ints = None  # the integer form, built by _integer_form on first use
        self._centre = None  # the supercentre's bases, built by supercentre on first use

    @classmethod
    def _of(cls, field: Field, d0: int, d1: int, mode: str, even: dict, act: dict, odd: dict, sq=None):
        """The algebra with these dicts of nonzero raw entries, keyed as the
        class docstring says; the dicts are kept, not copied.  In char2
        mode ``odd`` None is derived from ``sq`` by polarization."""
        g = cls.__new__(cls)
        g._init(field, d0, d1, mode, even, act, odd, sq)
        return g

    def _view(self, name: str) -> tuple:
        view = self._views.get(name)
        if view is None:
            f, d0, d1 = self.field, self.dim_even, self.dim_odd
            entries, shape, mirror = {
                "bracket": (self._even, (d0, d0, d0), f.neg),
                "action": (self._act, (d0, d1, d1), None),
                "odd_bracket": (self._odd, (d1, d1, d0), _same),
                "squaring": (self._sq, (d1, d1, d0), None),
            }[name]
            view = self._views[name] = _freeze3(_dense(entries, shape, f.zero(), mirror))
        return view

    bracket = property(lambda self: self._view("bracket"), doc="[i][j][k]: coefficient of e_k in [e_i, e_j]")
    action = property(lambda self: self._view("action"), doc="[x][v][w]: coefficient of f_w in e_x(f_v)")
    odd_bracket = property(lambda self: self._view("odd_bracket"), doc="[u][v][x]: coefficient of e_x in {f_u, f_v}")
    squaring = property(
        lambda self: None if self._sq is None else self._view("squaring"),
        doc="char2 mode: [v][w][x], coefficient of e_x in S(v, w), zero for w < v; else None",
    )

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

        Even bracket entries require i < j and odd bracket and squaring
        entries u <= v; the views mirror them.  Repeated entries are summed.
        In char2 mode the odd bracket is not an input: it is derived from
        the squaring by polarization.
        """
        d0, d1 = dim_even, dim_odd

        def summed(entries, shape, start, refusal):
            (a, b, n), out = shape, {}
            for i, j, k, coeff in entries:
                # a bool or a float such as 0.0 passes the range test but is no index
                if (
                    not (type(i) is type(j) is type(k) is int)
                    or not (0 <= i < a and 0 <= j < b and 0 <= k < n)
                    or start is not None and j < i + start
                ):
                    raise ShapeError(refusal.format(i, j, k))
                key, c = (i, j, k), field.coerce(coeff)
                out[key] = field.add(out[key], c) if key in out else c
            return {key: c for key, c in out.items() if c}

        even = summed(bracket, (d0, d0, d0), 1, "bracket entry ({},{},{}) out of range (need i<j)")
        act = summed(action, (d0, d1, d1), None, "action entry ({},{},{}) out of range")
        if mode == "char2":
            if list(odd_bracket):
                raise ShapeError("char2 mode derives the odd bracket from squaring")
            sq = summed(squaring or (), (d1, d1, d0), 0, "squaring entry ({},{},{}) out of range (need v<=w)")
            return cls._of(field, d0, d1, mode, even, act, None, sq)
        odd = summed(odd_bracket, (d1, d1, d0), 0, "odd bracket entry ({},{},{}) out of range (need u<=v)")
        return cls._of(field, d0, d1, mode, even, act, odd)

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
        the upper-triangular parts; the cells below are not read."""
        d0, d1 = len(bracket), len(odd_bracket)
        entries = _upper_parts(d0, d1, bracket, action, odd_bracket, squaring, field.coerce)
        return cls._of(field, d0, d1, mode, *entries)

    # --- basic algebra operations -----------------------------------------

    def _integer_form(self) -> _IntegerForm:
        """The entries cleared of denominators, computed once per algebra."""
        form = self._ints
        if form is None:
            f = self.field
            d, (even, act) = _cleared(f, self._even, self._act)
            dp, (odd,) = _cleared(f, self._odd)
            form = self._ints = _IntegerForm(d, even, act, dp, odd, self._sq, {})
        return form

    def _apply(self, rows: dict, scale: int, x: Vector, y: Vector, n: int) -> Vector:
        # the integer tensor times the cleared arguments is scale*dx*dy times
        # the rational value
        f = self.field
        dx, xs = clear_denominators(f, x.entries)
        dy, ys = clear_denominators(f, y.entries)
        out = _bilinear(rows, xs, ys, n)
        return Vector._from_raw(f, _unscaled(f, out, scale * dx * dy))

    def even_bracket_vec(self, x: Vector, y: Vector) -> Vector:
        form = self._integer_form()
        return self._apply(form.rows("even bracket"), form.d, x, y, self.dim_even)

    def act_vec(self, x: Vector, v: Vector) -> Vector:
        form = self._integer_form()
        return self._apply(form.rows("action"), form.d, x, v, self.dim_odd)

    def odd_bracket_vec(self, u: Vector, v: Vector) -> Vector:
        form = self._integer_form()
        return self._apply(form.rows("odd bracket"), form.dp, u, v, self.dim_even)

    def ad(self, i: int) -> Matrix:
        """Matrix of ad(e_i) on the even part (columns are [e_i, e_j])."""
        return Matrix._from_raw(self.field, zip(*self.bracket[i]))

    def ad_vec(self, x: Vector) -> Matrix:
        cols = [
            self.even_bracket_vec(x, Vector.unit(self.field, self.dim_even, j))
            for j in range(self.dim_even)
        ]
        return Matrix.from_columns(self.field, cols)

    def even_part(self) -> "SuperAlgebra":
        """The even part as a stand-alone (purely even) algebra."""
        sq = {} if self.mode == "char2" else None
        return SuperAlgebra._of(self.field, self.dim_even, 0, self.mode, self._even, {}, {}, sq)

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
        entries: dict = {"even bracket": {}, "action": {}, "odd bracket": {}, "squaring": {}}
        for sector, i, j, values, scale in _transported(self, m_even, m_odd, inv_e, inv_o):
            entries[sector].update(((i, j, k), c) for k, c in enumerate(_unscaled(f, values, scale)) if c)
        even, act, odd, sq = entries.values()
        # the squaring transports on the diagonal, b_v^2; above it, the
        # polarization (b_v + b_w)^2 + b_v^2 + b_w^2 is the odd bracket
        sq = {**odd, **sq} if self.mode == "char2" else None
        return SuperAlgebra._of(f, self.dim_even, self.dim_odd, self.mode, even, act, odd, sq)

    def odd_bracket_is_zero(self) -> bool:
        return not self._odd

    def _key(self) -> tuple:
        return (self.field, self.mode, self.dim_even, self.dim_odd, self._even, self._act, self._odd, self._sq)

    def __eq__(self, o) -> bool:
        return isinstance(o, SuperAlgebra) and o._key() == self._key()

    def __hash__(self):
        entries = (frozenset(s.items()) for s in (self._even, self._act, self._odd))
        return hash((self.field, self.mode, self.dim_even, self.dim_odd, *entries))

    def __repr__(self) -> str:
        return (
            f"SuperAlgebra({self.field}, dim {self.dim_even}|{self.dim_odd}, "
            f"mode {self.mode})"
        )


# --- validation ------------------------------------------------------------


def validate(g: SuperAlgebra) -> ValidationReport:
    """Check every axiom of g's mode; lists all violations, not just the first.
    The even Jacobi identity says that ad represents g0: the residual of
    [ad e_i, ad e_j] - ad [e_i, e_j] at e_k is the Jacobi sum J(i, j, k),
    which alternates, so the failures (i, j, k) with k > j of the
    representation check on (ecols, ecols) are the violated triples.  The
    relations are the equations of :func:`compatibility_equations`,
    evaluated at g's own odd bracket, or at its squaring in char2 mode:
    each instance's terms are summed into one packed integer residual (see
    :func:`_packed_violations`), and the instance is violated iff some
    output of it is nonzero.  Only the instances with a term at a pair of
    the odd bracket's support are generated; every other one vanishes at
    g.  Over Q they run on integers: the bracket and action are scaled by
    one common denominator D and the odd bracket by its own D_p (see
    :func:`clear_denominators`), which multiplies relations 1 and 2 and
    the cubic by D*D_p and both representation checks by D**2.  Past the
    cut-off of :func:`clear_denominators` the integer form holds
    Fractions, which cannot be packed, and each instance is summed output
    by output instead."""
    f = g.field
    d0, d1 = g.dim_even, g.dim_odd
    form = g._integer_form()
    ecols, act = _even_system(g)
    bad = [
        Violation("even_jacobi", (i, j, k), _jacobi_sum(f, ecols, form.d, i, j, k))
        for i, j, k in _failures(f, ecols, ecols)
        if k > j
    ]
    bad += [Violation("representation", pair) for pair in representation_failures(f, ecols, act)]

    # the unknowns' values: g's odd bracket, or in char2 mode the squaring it
    # polarizes (char 2 means F_2, whose entries are integers already), kept
    # at the base (odd_unknowns) of each pair u <= v of its support
    odd = form.squaring if g.mode == "char2" else form.odd
    base = odd_unknowns(d0, d1) if odd else None
    known, support = {}, [0] * d1
    for (u, v, x), c in odd.items():
        known.setdefault(base[u][v], [0] * d0)[x] = c
        support[u] |= 1 << v
        support[v] |= 1 << u
    coeffs = [*form.bracket.values(), *form.action.values()]  # only sizes and types matter
    equations = compatibility_equations(ecols, act, g.mode, support)
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
    integers) it is ``(1, tensor)``.  When D would exceed
    ``_MAX_SCALE_BITS`` bits the result is ``(1, tensor)`` too: every caller
    is exact on Fractions as well, only slower on small denominators.  Each
    :class:`SuperAlgebra` clears its own entries once, on first use
    (:func:`_cleared`), and :func:`validate` and
    :func:`~superbracket.moduli.odd_bracket_space` both read that integer
    form."""
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


def representation_failures(field: Field, ecols, act) -> list[tuple[int, int]]:
    """Pairs i < j with [rho(e_i), rho(e_j)] != rho([e_i, e_j]).

    ``ecols`` holds the even bracket and ``act`` the action as nonzero
    columns (:func:`_even_system`): ecols[x][z] the pairs (y, c) of
    [e_x, e_z], act[x][w] the pairs (t, c) of e_x(f_w), both raw field
    elements or both scaled to integers by one :func:`clear_denominators`
    (the check is homogeneous); an empty list means a representation.
    :func:`validate` checks the even Jacobi identity, "ad represents g0",
    by the same routine on (ecols, ecols).  Each image of f_w is summed
    over nonzeros only.

    On integers (over F_p, residues in [0, p)) each action column is packed
    once with :func:`_pack`, and each (i, j, w) is summed as one integer,
    sum a P_i[t] - sum a P_j[t] - sum c_ijk P_k[w] over the nonzeros (t, a)
    of e_j(f_w), then of e_i(f_w), and over the (k, c_ijk) of [e_i, e_j],
    where P_i[t] is e_i(f_t) packed; over F_p each -a is written p - a, so
    that every slot stays nonnegative.  A slot sums at most 2 d1 + d0
    products, the bound that :func:`_slot_width` turns into the slot width.
    Fraction inputs (past the cut-off of :func:`clear_denominators`, by
    which the integer form is cleared) are summed output by output instead.
    """
    return list(dict.fromkeys((i, j) for i, j, _ in _failures(field, ecols, act)))


def _failures(field: Field, ecols, act):
    """Every (i, j, w), i < j, in lexicographic order, at which
    [rho_i, rho_j](f_w) != sum_k c_ijk rho_k(f_w), on the inputs of
    :func:`representation_failures`: packed on integers, summed per
    output on Fractions."""
    p = field.p if field.kind == "prime" else None
    coeffs = [c for plane in ecols for col in plane for _, c in col]
    nonzeros = [a for plane in act for col in plane for _, a in col]
    if set(map(type, chain(coeffs, nonzeros))) <= {int}:
        return _packed_failures(ecols, act, coeffs, nonzeros, p)
    return _listed_failures(ecols, act, p)


def _packed_failures(ecols, act, coeffs, nonzeros, p: int | None):
    """:func:`_failures` on integers, one packed sum per (i, j, w)."""
    d0, d1 = len(ecols), len(act[0]) if act else 0
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
    for i in range(d0):
        for j in range(i + 1, d0):
            pi, pj = packed[i], packed[j]
            minus_c = [(packed[x], q - c) for x, c in ecols[i][j]]
            for w in range(d1):
                r = 0
                for t, a in act[j][w]:
                    r += a * pi[t]
                for t, a in minus[i][w]:
                    r += a * pj[t]
                for pk, c in minus_c:
                    r += c * pk[w]
                if not _is_zero(r, p, high):
                    yield i, j, w


def _listed_failures(ecols, act, p: int | None):
    """:func:`_failures` on Fractions, one dict of per-output sums
    (:func:`_residual`) per (i, j, w)."""
    d0, d1 = len(ecols), len(act[0]) if act else 0
    for i in range(d0):
        for j in range(i + 1, d0):
            for w in range(d1):
                if any(x % p if p else x for x in _residual(ecols, act, i, j, w).values()):
                    yield i, j, w


def _residual(ecols, act, i: int, j: int, w: int) -> dict:
    """{s: coefficient of f_s} of rho_i rho_j (f_w) - rho_j rho_i (f_w) -
    sum_k c_ijk rho_k (f_w), from (nonzeros of an image, its coefficient)
    terms; plain + and *, nothing reduced mod p."""
    terms = (
        [(act[i][t], a) for t, a in act[j][w]]
        + [(act[j][t], -a) for t, a in act[i][w]]
        + [(act[k][w], -c) for k, c in ecols[i][j]]
    )
    col: dict = {}
    for pairs, a in terms:
        for s, b in pairs:
            x = a * b
            col[s] = col[s] + x if s in col else x
    return col


def _jacobi_sum(field: Field, ecols, d: int, i: int, j: int, k: int) -> str:
    """The repr of the Jacobi sum J(i, j, k): the residual of ad on the
    even bracket's columns scaled by d (:func:`_residual`), over d**2."""
    col = _residual(ecols, ecols, i, j, k)
    values = _unscaled(field, [col.get(y, 0) for y in range(len(ecols))], d * d)
    return repr(Vector._from_raw(field, values))


def compatibility_equations(ecols, act, mode: str = "standard", support=None):
    """The axiom relations that are linear in the odd bracket (or, in mode
    "char2", in the squaring) as sparse linear equations: the one definition
    that :func:`validate` evaluates and
    :func:`superbracket.moduli.odd_bracket_space` eliminates.

    ``ecols`` and ``act`` are the nonzero columns of the even bracket and
    of the action, as for :func:`representation_failures`; every equation
    is linear in them, so scaling both by D scales it by D.  The
    unknowns are indexed by :func:`odd_unknowns`.  Returns a lazy iterator
    of ``(identity, indices, terms)``, one for every instance that has a
    term at a pair of ``support``, where ``terms`` is a list ``[(base,
    group), ...]``: unknown ``base + i`` carries the column ``group[i]``, a
    list ``[(output, coeff), ...]`` (possibly empty) with at most one pair
    per output.  The
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

    ``support`` is the support of the odd bracket (of the squaring in mode
    "char2") as one bitmask per odd index u, with bit v set iff
    {f_u, f_v} != 0 (S(u, v) != 0), symmetric in u and v; ``None`` is the
    full support, every bit set.  Only the instances with a term at a pair
    of the support are yielded, in the same order and with the same terms:
    every other instance vanishes at such an odd bracket.  They are found
    from the masks, without visiting every index triple
    (:func:`_supported_triples`, :func:`_supported_pairs`,
    :func:`_supported_squares`).  Each relation is one generator of
    :class:`_Relations`, which the solver calls in its own order.
    """
    d1 = len(act[0]) if act else 0
    if support is None:
        support = [(1 << d1) - 1] * d1
    if not any(support):
        # no instance has a term in an empty support.  This also covers
        # d0 = 0, whose empty act gives no d1 to index the support with.
        return iter(())
    rel = _Relations(ecols, act)
    if mode == "char2":
        return rel.char2_square(_supported_squares(support, act, rel.live, rel.elive))
    relations = [
        rel.relation_1(_supported_triples(support, rel.live)),
        rel.relation_2(_supported_pairs(support, act, rel.elive)),
    ]
    if mode == "char3":
        relations.append(rel.cubic(_supported_triples(support, rel.live)))
    return chain.from_iterable(relations)


class _Relations:
    """The setup that the relations of :func:`compatibility_equations` share,
    with one generator per relation, yielding that relation's instance at
    each index it is given, as :func:`compatibility_equations` does.  The
    indices come from the support selectors, which hand out only indices
    whose instance has a term at a pair of the support.  The solver
    (:func:`superbracket.moduli.odd_bracket_space`) calls them in its own
    order, relation 2 and the cubic first, then relation 1, each on the
    support of the pairs that still have an unknown alive."""

    def __init__(self, ecols, act):
        self.d0 = d0 = len(ecols)
        self.d1 = d1 = len(act[0]) if act else 0
        self.base = odd_unknowns(d0, d1)
        # cols[w][x]: nonzeros of e_x(f_w)
        self.cols = cols = [[act[x][w] for x in range(d0)] for w in range(d1)]
        self.ecols = ecols  # ecols[x][z]: nonzeros (y, coefficient of e_y) of [e_x, e_z]
        self.live, self.elive = [any(grp) for grp in cols], [any(grp) for grp in ecols]
        # units[x][s]: (w, the diagonal group of a = coefficient of f_w in
        # e_x(f_s)), each group built once per distinct a
        diagonals = {a: _Diagonal(a, d0) for a in {a for pl in act for col in pl for _, a in col}}
        self.units = [[[(w, diagonals[a]) for w, a in col] for col in pl] for pl in act]

    def relation_1(self, triples):
        """``relation_1`` at the triples u <= v <= w given, in their order."""
        base, cols, live = self.base, self.cols, self.live
        for u, v, w in triples:
            rotations = ((u, v, w), (v, w, u), (w, u, v))
            yield "relation_1", (u, v, w), [(base[a][b], cols[c]) for a, b, c in rotations if live[c]]

    def relation_2(self, pairs):
        """``relation_2`` at the (x, (u, v)) given, in their order."""
        base, ecols, elive, units = self.base, self.ecols, self.elive, self.units
        for x, (u, v) in pairs:
            terms = [(base[u][v], ecols[x])] if elive[x] else []
            terms += [(base[w][c], ys) for s, c in ((u, v), (v, u)) for w, ys in units[x][s]]
            yield "relation_2", (x, u, v), terms

    def cubic(self, triples):
        """``char3_cubic`` at the triples a <= b <= c given, in their order."""
        base, cols, live = self.base, self.cols, self.live
        twice = [[[(t, 2 * c) for t, c in col] for col in cw] for cw in cols]
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
            yield "char3_cubic", (a, b, c), [(base[i][j], grp) for i, j, k, grp in terms if live[k]]

    def char2_square(self, squares):
        """``char2_square`` at the (v, w, even ys, odd ys) given, in their
        order: at each even y, then at each odd y."""
        base, cols, ecols, live, elive, units = (
            self.base, self.cols, self.ecols, self.live, self.elive, self.units
        )
        for v, w, evens, odds in squares:
            orderings = ((v, w), (w, v)) if v < w else ((v, v),)
            for y in evens:
                terms = [(base[v][w], ecols[y])] if elive[y] else []
                terms += [(base[a][s], ys) for a, b in orderings for s, ys in units[y][b] if s != a]
                yield "char2_square", ("even", y, v, w), terms
            for y in odds:
                terms = [(base[v][w], cols[y])] if live[y] else []
                terms += [(base[b][y], cols[a]) for a, b in orderings if b != y and live[a]]
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


def _supported_triples(support: list, live: list):
    """(u, v, w), u <= v <= w in lexicographic order, at which relation 1
    and the cubic have a term at a pair of the support: some pair of
    {u, v, w} lies in it and the third index is live.  For each (u, v),
    the w are the live indices if {u, v} is in the support, S(v) if u is
    live and S(u) if v is; the v are those for which one of these can be
    nonempty.  Each (u, v, w) is yielded once."""
    lm = _or(1 << i for i, x in enumerate(live) if x)
    held = _or(1 << i for i, s in enumerate(support) if s)
    if not (lm and held):  # no triple has a term in the support
        return
    for u, su in enumerate(support):
        vs = su | (held if lm >> u & 1 else 0) | (lm if su else 0)
        for v in _bits(vs >> u << u):
            ws = (lm if su >> v & 1 else 0) | (support[v] if lm >> u & 1 else 0) | (su if lm >> v & 1 else 0)
            for w in _bits(ws >> v << v):
                yield u, v, w


def _supported_pairs(support: list, act, elive: list, xs=None):
    """(x, (u, v)), u <= v in the order of relation 2, at which it has a term
    at a pair of the support: {u, v} is in it and ad(e_x) != 0, or some f_w
    of e_x(f_u) pairs with f_v into it, or some f_w of e_x(f_v) with f_u;
    at the x in ``xs``, increasing, or at every x for None."""
    for x in range(len(act)) if xs is None else xs:
        plane = act[x]
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
    maps on the coordinates.  They are computed once per algebra, as its
    integer form is (``info`` asks for them, and so does the classifier
    that it calls); each call returns new lists.
    """
    if g._centre is None:
        g._centre = _centre_bases(g)
    even, odd = g._centre
    return list(even), list(odd)


def _centre_bases(g: SuperAlgebra) -> tuple[list[Vector], list[Vector]]:
    """The two bases of :func:`supercentre`, computed."""
    f, d0, d1 = g.field, g.dim_even, g.dim_odd
    even = _kernel_vectors(
        f,
        _grouped(
            chain(
                (((0, j, k), i, c) for (i, j, k), c in g._even.items()),
                (((0, i, k), j, f.neg(c)) for (i, j, k), c in g._even.items()),
                (((1, v, w), x, c) for (x, v, w), c in g._act.items()),
            )
        ),
        d0,
    )
    odd = _kernel_vectors(
        f,
        _grouped(
            chain(
                (((0, x, w), v, c) for (x, v, w), c in g._act.items()),
                (((1, v, x), u, c) for (u, v, x), c in g._odd.items()),
                (((1, u, x), v, c) for (u, v, x), c in g._odd.items()),
            )
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
    return list(Span(g.field, vecs, g.dim_even).basis)


def is_ideal(g: SuperAlgebra, subspace: Sequence[Vector]) -> bool:
    """Whether a subspace of the even part satisfies [g0, S] <= S."""
    span = Span(g.field, list(subspace), g.dim_even)
    units = [Vector.unit(g.field, g.dim_even, i) for i in range(g.dim_even)]
    return all(g.even_bracket_vec(e, s) in span for e in units for s in span.basis)


def killing_form(g: SuperAlgebra) -> Matrix:
    """Killing form K(x,y) = trace(ad x . ad y) of the even part:
    K(e_i, e_j) is the sum over k, l of c_il^k c_jk^l, summed on the integer
    bracket D*c of g's integer form and divided by D**2."""
    form, n = g._integer_form(), g.dim_even
    c = _dense(form.bracket, (n, n, n), 0, g.field.neg)
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
    # the transport yields each pair as the entries are keyed
    source = {
        "even bracket": (fs.bracket, fs.d),
        "action": (fs.action, fs.d),
        "odd bracket": (fs.odd, fs.dp),
        "squaring": (fs.squaring, 1),
    }
    for sector, i, j, values, scale in _transported(t, me, mo, inv_e, inv_o):
        entries, d = source[sector]
        diffs = (d * v - scale * entries.get((i, j, k), 0) for k, v in enumerate(values))
        if any(x % p if p else x for x in diffs):
            at = f"({i})" if sector == "squaring" else f"({i},{j})"
            return False, f"{sector} not preserved at {at}"
    return True, None
