"""sl(2)-triples and the representation toolkit built on them.

Covers: locating triples (exhaustively over F_p, by a bounded rational
search over Q), the explicit modules V(m, alpha, beta), their
annihilators, the Casimir operator (H+1)^2 + 4FE, the nilpotency criterion
for complete reducibility in positive characteristic, direct-sum
decomposition, and composition series with the maximal trivial submodule.
A module is its nonzero entries; only casimir and conjugated densify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Sequence

from .fields import Field, FieldError, Scalar
from .linalg import (
    DimensionMismatch,
    Matrix,
    Vector,
    _densified,
    _kernel_vectors,
    _modulo,
    _reduce,
    sparse_kernel_basis,
)
from .superalgebra import SuperAlgebra, representation_failures
from .superalgebra import _columns, _contract, _dense, _grouped, _rows

__all__ = [
    "Sl2Triple",
    "Undetermined",
    "IrrepSpec",
    "RepMatrices",
    "verify_triple",
    "find_sl2_triple",
    "build_irrep",
    "annihilator",
    "casimir",
    "jacobson_test",
    "CHAR_ZERO",
    "SUFFICIENT",
    "INCONCLUSIVE",
    "decompose",
    "composition_series",
    "has_proper_submodule",
]

CHAR_ZERO = "char_zero"
SUFFICIENT = "sufficient_for_complete_reducibility"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Sl2Triple:
    """Vectors (E, H, F) in an even part with [E,F]=H, [H,E]=2E, [H,F]=-2F."""

    e: Vector
    h: Vector
    f: Vector


@dataclass(frozen=True)
class Undetermined:
    """Triple search gave up within its budget; not a proof of absence."""

    reason: str


def verify_triple(g: SuperAlgebra, triple: Sl2Triple) -> bool:
    e, h, f = triple.e, triple.h, triple.f
    return (
        g.even_bracket_vec(e, f) == h
        and g.even_bracket_vec(h, e) == e.scaled(2)
        and g.even_bracket_vec(h, f) == f.scaled(-2)
    )


def _proportionality(target: Vector, reference: Vector):
    """Scalar c with target = c * reference, or None."""
    field = target.field
    c = None
    for t, r in zip(target.entries, reference.entries):
        if r:
            c = field.div(t, r)
            break
        if t:
            return None
    if c is None:
        return None
    return c if target == reference.scaled(c) else None


def _triple_from_h(g: SuperAlgebra, h: Vector) -> Sl2Triple | None:
    """Given H with ad(H) eigenvalues {2, 0, -2}, solve for E and F."""
    field, n = g.field, g.dim_even
    cols = [[(w, c) for w, c in enumerate(col.entries) if c] for col in g.ad_vec(h).columns()]
    spaces = _weight_spaces(field, cols, n, (2, -2))
    if 2 not in spaces or -2 not in spaces:
        return None
    e0, f0 = _densified(field, spaces[2][0], n), _densified(field, spaces[-2][0], n)
    # [E0, F0] lies in ker(ad H); demand it be a nonzero multiple of H
    c = _proportionality(g.even_bracket_vec(e0, f0), h)
    if c is None or not c:
        return None
    cand = Sl2Triple(e0.scaled(field.inv(c)), h, f0)
    return cand if verify_triple(g, cand) else None


# the triple search's bounds: it tries p^3 candidates for H over F_p and
# (2b + 1)^3 of height at most b over Q, past seconds for larger bounds
_FP_MAX = 13
_Q_HEIGHT = 2


def find_sl2_triple(g: SuperAlgebra) -> Sl2Triple | None | Undetermined:
    """Search the 3-dimensional even part of g for an sl(2)-triple.

    Over F_p (p <= 13) the search is exhaustive over all H candidates,
    so None is a proof that no triple exists (the algebra is non-split).
    Over Q only a finite list of small integer combinations is tried for H,
    and exhausting it yields Undetermined, never None.
    """
    field = g.field
    if g.dim_even != 3:
        raise ValueError("triple search requires a 3-dimensional even part")
    if field.kind == "prime":
        p = field.p
        if p > _FP_MAX:
            return Undetermined(f"p={p} exceeds the exhaustive-search bound {_FP_MAX}")
        for h in product(range(p), repeat=3):
            t = _triple_from_h(g, Vector(field, h)) if any(h) else None
            if t is not None:
                return t
        return None

    # rationals: try H proportional to small primitive integer combinations
    # (first nonzero positive: one per line), sparsest (hence basis vectors)
    # first
    heights = range(-_Q_HEIGHT, _Q_HEIGHT + 1)
    candidates = [v for v in product(heights, repeat=3) if math.gcd(*v) == 1 and next(x for x in v if x) > 0]
    candidates.sort(
        key=lambda v: (
            max(abs(x) for x in v),
            sum(1 for x in v if x),
            tuple(abs(x) for x in v),
            v,
        )
    )
    for cand in candidates:
        x = Vector(field, cand)
        ad_x = g.ad_vec(x)
        # eigenvalues are {theta, 0, -theta}; theta^2 = tr(ad_x^2)/2
        d = (ad_x @ ad_x).trace().value / 2
        if d <= 0:
            continue
        num, den = d.numerator, d.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            continue
        theta = Fraction(rn, rd)
        t = _triple_from_h(g, x.scaled(Fraction(2) / theta))
        if t is not None:
            return t
    return Undetermined(
        f"no rational sl(2)-triple found among integer combinations of height <= {_Q_HEIGHT}"
    )


# --- explicit irreducible modules -------------------------------------------


@dataclass(frozen=True)
class IrrepSpec:
    """Parameters (m, alpha, beta) of the explicit (m+1)-dimensional module.

    Below dimension p (every dimension over Q) alpha = m and beta = 0.  At
    dimension p any alpha and beta are admissible; the module is irreducible
    unless beta = 0 and alpha != [m], the baby Verma modules."""

    m: int
    alpha: Scalar
    beta: Scalar

    @staticmethod
    def standard_params(field: Field, m: int) -> "IrrepSpec":
        return IrrepSpec(m, field.scalar(m), field.scalar(0))

    def check(self, field: Field):
        """Enforce the admissibility constraints for the given field."""
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.alpha.field != field or self.beta.field != field:
            raise ValueError("spec scalars must live in the module's field")
        char = field.characteristic
        dim = self.m + 1
        if char == 0:
            if self.alpha != field.scalar(self.m):
                raise ValueError("characteristic zero forces alpha = m")
            if self.beta != field.scalar(0):
                raise ValueError("characteristic zero forces beta = 0")
            return
        if dim > char:
            raise ValueError(f"dimension {dim} exceeds the bound p = {char}")
        # at dim == p every (alpha, beta) satisfies the triple relations
        if dim < char:
            if self.alpha != field.scalar(self.m):
                raise ValueError("dimension below p forces alpha = m")
            if self.beta != field.scalar(0):
                raise ValueError("dimension below p forces beta = 0")


class RepMatrices:
    """A module of a triple (E, H, F), kept as its nonzero raw entries
    ``{(x, v, w): c}`` (the dict is kept, not copied) in the layout of
    ``SuperAlgebra``'s action: c is the coefficient of f_w in x(f_v), x = 0,
    1, 2 for E, H, F."""

    __slots__ = ("field", "dim", "entries", "_cols")

    def __init__(self, field: Field, dim: int, entries: dict):
        self.field, self.dim, self.entries, self._cols = field, dim, entries, None

    @staticmethod
    def from_matrices(rho_e: Matrix, rho_h: Matrix, rho_f: Matrix) -> "RepMatrices":
        """The module on which E, H and F act by these matrices, which must
        be square, of one size and over one field."""
        mats = (rho_e, rho_h, rho_f)
        field, n = rho_e.field, rho_e.rows
        if any(m.field != field for m in mats):
            raise FieldError("action matrices over different fields")
        if any((m.rows, m.cols) != (n, n) for m in mats):
            raise DimensionMismatch(f"action matrices must all be {n} x {n}")
        cells = ((x, v, w, c) for x, m in enumerate(mats) for w, row in enumerate(m.data) for v, c in enumerate(row))
        return RepMatrices(field, n, {(x, v, w): c for x, v, w, c in cells if c})

    def __eq__(self, o) -> bool:
        return isinstance(o, RepMatrices) and (o.field, o.dim, o.entries) == (self.field, self.dim, self.entries)

    def matrices(self) -> tuple[Matrix, Matrix, Matrix]:
        """The dense matrices of E, H and F (columns are images), built anew."""
        planes = _dense(self.entries, (3, self.dim, self.dim), self.field.zero())
        return tuple(Matrix._from_raw(self.field, zip(*plane)) for plane in planes)

    def _columns(self) -> list:
        """cols[x][v]: the nonzeros (w, c) of x(f_v), built on first use."""
        if self._cols is None:
            self._cols = _columns(self.entries, 3, self.dim)
        return self._cols

    def satisfies_triple_relations(self) -> bool:
        """Whether [E, F] = H, [H, E] = 2E and [H, F] = -2F hold here."""
        f = self.field
        bracket = {(0, 1, 0): f.from_int(-2), (0, 2, 1): f.one(), (1, 2, 2): f.from_int(-2)}
        return not representation_failures(f, _columns(bracket, 3, 3, f.neg), self._columns())

    @staticmethod
    def from_algebra(g: SuperAlgebra, triple: Sl2Triple) -> "RepMatrices":
        """The action of the triple on g's odd part: each of E, H, F acts by
        g's action entries combined with its coordinates."""
        f, rows = g.field, _rows(g._act)
        terms = (
            (x, v, w, f.coerce(c))
            for x, vec in enumerate((triple.e, triple.h, triple.f))
            for v, col in _contract(rows, vec.entries)[0].items()
            for w, c in col
        )
        return RepMatrices(f, g.dim_odd, {(x, v, w): c for x, v, w, c in terms if c})

    @staticmethod
    def direct_sum(parts: Sequence["RepMatrices"]) -> "RepMatrices":
        """The direct sum, each part's entries shifted by its offset."""
        if not parts:
            raise ValueError("the direct sum needs at least one module")
        field = parts[0].field
        if any(part.field != field for part in parts):
            raise FieldError("direct sum of modules over different fields")
        entries, off = {}, 0
        for part in parts:
            entries.update(((x, v + off, w + off), c) for (x, v, w), c in part.entries.items())
            off += part.dim
        return RepMatrices(field, off, entries)

    def conjugated(self, t: Matrix) -> "RepMatrices":
        """The same action written in the basis given by the columns of t."""
        inv = t.inverse()
        if inv is None:
            raise ValueError("basis change must be invertible")
        return RepMatrices.from_matrices(*(inv @ m @ t for m in self.matrices()))


def build_irrep(spec: IrrepSpec, field: Field) -> RepMatrices:
    """The entries of the module with basis e_0..e_m:

    H e_i = (alpha - 2[i]) e_i,
    E e_0 = 0,  E e_i = [i](alpha - ([i]-1)) e_{i-1},
    F e_i = e_{i+1} (i < m),  F e_m = beta e_0.
    """
    spec.check(field)
    n = spec.m + 1
    alpha = spec.alpha.value
    entries = {(1, i, i): field.sub(alpha, field.from_int(2 * i)) for i in range(n)}
    for i in range(1, n):
        entries[0, i, i - 1] = field.mul(field.from_int(i), field.sub(alpha, field.from_int(i - 1)))
    entries.update(((2, i, i + 1), field.one()) for i in range(n - 1))
    entries[2, n - 1, 0] = spec.beta.value
    rep = RepMatrices(field, n, {key: c for key, c in entries.items() if c})
    assert rep.satisfies_triple_relations()
    return rep


def annihilator(spec: IrrepSpec, i: int, field: Field) -> list[Vector]:
    """Basis of {x in sl2 : x(e_i) = 0}, in (E, H, F) coordinates.

    Computed as the kernel of x -> x(e_i), not read off a case table.
    """
    if not 0 <= i <= spec.m:
        raise ValueError(f"index {i} outside 0..{spec.m}")
    rows = _grouped((w, x, c) for (x, v, w), c in build_irrep(spec, field).entries.items() if v == i)
    return _kernel_vectors(field, rows, 3)


def casimir(rep: RepMatrices) -> Matrix:
    """The Casimir operator (rho_H + Id)^2 + 4 rho_F rho_E."""
    e, h, f = rep.matrices()
    shifted = h + Matrix.identity(rep.field, rep.dim)
    return shifted @ shifted + (f @ e).scaled(4)


def _image(field: Field, cols: Sequence, vec: dict) -> dict:
    """The nonzeros ``{w: c}`` of M vec, for M given by the nonzeros (w, c)
    of each column ``cols[v]`` and vec by its nonzeros ``{v: a}``; so, for
    vectors as the columns, their combination with the coefficients vec."""
    out: dict = {}
    for v, a in vec.items():
        for w, c in cols[v]:
            term = field.mul(a, c)
            out[w] = field.add(out[w], term) if w in out else term
    return {w: c for w, c in out.items() if c}


def jacobson_test(rep: RepMatrices) -> str:
    """Sufficient condition for complete reducibility.

    In characteristic zero every finite-dimensional module is completely
    reducible.  In characteristic p the criterion rho(E)^(p-1) =
    rho(F)^(p-1) = 0 suffices; failing it decides nothing.  The sparse
    columns are applied min(p - 1, dim) times: once p - 1 >= dim, rho^(p-1)
    = 0 exactly when rho is nilpotent, that is when rho^dim = 0.
    """
    char = rep.field.characteristic
    if char == 0:
        return CHAR_ZERO
    for cols in rep._columns()[::2]:  # rho(E) and rho(F)
        images = [dict(col) for col in cols if col]
        for _ in range(min(char - 1, rep.dim) - 1):
            images = [y for y in (_image(rep.field, cols, x) for x in images) if y]
        if images:
            return INCONCLUSIVE
    return SUFFICIENT


def _weight_spaces(field: Field, cols: Sequence, dim: int, candidates) -> dict[int, list[dict]]:
    """``{m: echelon basis of ker(M - m)}`` for the weight candidates m, in
    their order, where M, the dim x dim matrix with the nonzeros (w, c) of
    column v at ``cols[v]``, has the eigenvalue m; each basis vector is
    sparse (:func:`sparse_kernel_basis`).  The one routine for the weights
    of an sl(2) action.  Candidates of one image in the field share a solve,
    and none is solved once the spaces found add up to dim; where they never
    do, M is not diagonalisable with eigenvalues among the candidates."""
    rows: list[dict] = [{} for _ in range(dim)]
    for v, col in enumerate(cols):
        for w, c in col:
            rows[w][v] = c
    spaces, solved, found = {}, {}, 0
    for m in candidates:
        lam = field.from_int(m)
        if lam not in solved:
            if found == dim:
                continue
            neg = field.neg(lam)
            shifted = ({**row, w: field.sub(row[w], lam) if w in row else neg} for w, row in enumerate(rows))
            solved[lam] = sparse_kernel_basis(field, shifted, range(dim))
            found += len(solved[lam])
        if solved[lam]:
            spaces[m] = solved[lam]
    return spaces


def decompose(rep: RepMatrices) -> list[tuple[list[Vector], IrrepSpec]]:
    """Split a completely reducible module into irreducible summands.

    Requires the Jacobson criterion (or characteristic zero).  Highest
    weight vectors are found in ker(rho_E), split by rho_H eigenvalue, and
    each summand is generated by applying rho_F; summands are listed by
    descending H-eigenvalue, then echelon order, and each chain basis
    (w, Fw, F^2 w, ...) matches the basis convention of build_irrep.  All
    of it runs on the module's nonzero entries; only the chains returned
    are written out densely.
    """
    status = jacobson_test(rep)
    if status == INCONCLUSIVE:
        raise ValueError("complete reducibility is not certified for this module")
    field = rep.field
    dim = rep.dim
    if dim == 0:
        return []
    top, tops = _highest_weight_vectors(rep)
    if not top:
        raise ValueError("no highest weight vectors; not a valid module")
    if tops is None:
        raise ValueError("ker(rho_E) is not rho_H-invariant; not a valid module")
    lowering = rep._columns()[2]
    summands: list[tuple[list[Vector], IrrepSpec]] = []
    covered = 0
    for m, w in tops:
        chain = [w]
        nxt = _image(field, lowering, w)
        while nxt:
            chain.append(nxt)
            if len(chain) > dim:
                raise ValueError("runaway lowering chain; not a valid module")
            nxt = _image(field, lowering, nxt)
        if len(chain) != m + 1:
            raise ValueError(
                f"highest weight {m} generated a chain of length {len(chain)}"
            )
        summands.append(([_densified(field, v, dim) for v in chain], IrrepSpec.standard_params(field, m)))
        covered += len(chain)
    if covered != dim:
        raise ValueError("summands do not exhaust the module; not a valid module")
    return summands


def _joint_kernel(rep: RepMatrices) -> list[dict]:
    rows = _grouped(((x, w), v, c) for (x, v, w), c in rep.entries.items())
    return sparse_kernel_basis(rep.field, rows, range(rep.dim))


def invariant_closure(rep: RepMatrices, seeds: Sequence[dict]) -> dict[int, dict]:
    """The echelon rows ``{pivot: row}``, by increasing pivot, of the least
    E-, H- and F-invariant subspace that holds the sparse seeds.  The span
    grows by the images of the rows each round added until its rank stops
    rising: the spin step of Parker's MeatAxe (1984)."""
    field, cols = rep.field, set(range(rep.dim))
    basis = _reduce(field, (s.items() for s in seeds), cols)
    new = list(basis.values())
    while new:
        images = [_image(field, ops, v) for v in new for ops in rep._columns()]
        grown = _reduce(field, (row.items() for row in chain(basis.values(), images)), cols)
        new, basis = [row for c, row in grown.items() if c not in basis], grown
    return dict(sorted(basis.items()))


def _highest_weight_vectors(rep: RepMatrices):
    """(top, vectors): the echelon basis ``top`` of ker(rho_E), and (m, w)
    for each vector w of the echelon basis of each eigenspace of rho_H on
    ker(rho_E), with eigenvalue m a weight candidate, by descending m, all
    sparse; vectors is None when ker(rho_E) is not rho_H-invariant, which no
    module allows.  In a random basis no vector of ``top`` need be an
    eigenvector itself."""
    field = rep.field
    rows = _grouped((w, v, c) for (x, v, w), c in rep.entries.items() if x == 0)
    top = sparse_kernel_basis(field, rows, range(rep.dim))
    raising, weight, _ = rep._columns()
    images = [_image(field, weight, t) for t in top]
    if any(_image(field, raising, y) for y in images):
        return top, None
    # rho_H restricted to ker(rho_E), in coordinates of its kernel basis:
    # each basis vector has a 1 at its own free column, its last entry, and
    # 0 at the others', so a member's coordinates are its entries there
    free = {next(reversed(t)): i for i, t in enumerate(top)}
    restricted = [[(free[c], x) for c, x in y.items() if c in free] for y in images]
    p = field.characteristic
    # ascending, so that the solves stop at the largest weight present
    candidates = range(min(p, rep.dim) if p else rep.dim)
    spaces = _weight_spaces(field, restricted, len(top), candidates)
    cols = [t.items() for t in top]
    return top, [(m, _image(field, cols, coords)) for m in sorted(spaces, reverse=True) for coords in spaces[m]]


def _weight_closures(rep: RepMatrices):
    """The invariant closure of each highest weight vector of
    :func:`_highest_weight_vectors`, by descending weight."""
    for _, w in _highest_weight_vectors(rep)[1] or ():
        yield invariant_closure(rep, [w])


def _socle_member(rep: RepMatrices) -> list[dict]:
    """A submodule of least dimension among those found (ties by echelon
    order), as sparse vectors: irreducible wherever :func:`has_proper_submodule`
    is complete."""
    joint = _joint_kernel(rep)
    if joint:
        return [joint[0]]  # a trivial line; nothing smaller exists
    candidates = list(_weight_closures(rep))
    if not candidates:
        raise ValueError(
            "no trivial line or highest weight vector found; "
            "unsupported module structure"
        )
    best = min(candidates, key=len)  # the first of least dimension
    # refine while _proper_submodule_inside finds a proper submodule, each
    # in the coordinates of the one before and lifted by that one's vectors.
    # It spins echelon weight vectors only, as has_proper_submodule does, so
    # the member returned can still be reducible in a dense basis
    module, lift = rep, list(best.values())
    while (found := _proper_submodule_inside(module, best)) is not None:
        module, best = found
        lift = [_image(rep.field, [v.items() for v in lift], row) for row in best.values()]
    return lift


def _proper_submodule_inside(rep: RepMatrices, basis: dict[int, dict]):
    """A proper nonzero submodule of the invariant span of the echelon rows
    ``basis`` (by increasing pivot), or None.  Returns the module restricted
    to that span, in the rows' coordinates (a vector's entries at the
    pivots), and the submodule's rows in those coordinates."""
    if len(basis) <= 1:
        return None
    field, index, entries = rep.field, {c: i for i, c in enumerate(basis)}, {}
    for x, ops in enumerate(rep._columns()):
        for v, row in enumerate(basis.values()):
            img = _image(field, ops, row)
            if _modulo(field, basis, img):
                raise ValueError("subspace is not invariant")
            entries.update(((x, v, index[c]), a) for c, a in img.items() if c in index)
    sub = RepMatrices(field, len(basis), entries)
    joint = _joint_kernel(sub)
    if joint:
        return sub, {next(reversed(joint[0])): joint[0]}
    closure = next((c for c in _weight_closures(sub) if len(c) < len(basis)), None)
    return None if closure is None else (sub, closure)


def composition_series(rep: RepMatrices) -> tuple[list[int], list[Vector]]:
    """Greedy composition series plus the maximal trivial submodule.

    Repeatedly removes an irreducible submodule of the current quotient
    (socle member of least dimension, ties by echelon order) and records
    the factor dimensions.  Also returns the joint kernel of rho_E, rho_H,
    rho_F, i.e. the maximal trivial submodule of the original module.  A
    factor can be reducible where :func:`has_proper_submodule` is not
    complete: V(4, 4, 1) + V(4, 4, 2) over F_5 in a random dense basis may
    give the one factor [10].
    """
    field, dim = rep.field, rep.dim
    trivial = [_densified(field, v, dim) for v in _joint_kernel(rep)]
    factors: list[int] = []
    flag: dict[int, dict] = {}  # the echelon rows of the current submodule
    while len(flag) < dim:
        # the quotient by flag, on the non-pivot columns relabelled in
        # order: each column reduced modulo the flag's rows
        complement = [c for c in range(dim) if c not in flag]
        label = {c: i for i, c in enumerate(complement)}
        cols = ((x, i, dict(ops[c])) for x, ops in enumerate(rep._columns()) for i, c in enumerate(complement))
        entries = {(x, i, label[w]): a for x, i, col in cols for w, a in _modulo(field, flag, col).items()}
        member = _socle_member(RepMatrices(field, len(complement), entries))
        factors.append(len(member))
        lifted = ({complement[i]: a for i, a in v.items()} for v in member)
        flag = _reduce(field, (row.items() for row in chain(flag.values(), lifted)), set(range(dim)))
    return factors, trivial


def has_proper_submodule(rep: RepMatrices) -> bool:
    """Whether the module has a proper nonzero submodule.

    Looks for a trivial line, then spins each echelon basis vector of each
    weight space of rho_H, which come from the weight routine of
    :func:`decompose` over every integer image an eigenvalue may take.  True
    is certain; False is not.  A weight space of dimension 2 or more can
    hold a vector that generates a proper submodule while each of its
    echelon vectors generates the whole module: V(4, 4, 1) + V(4, 4, 2)
    over F_5 in a random dense basis may be called irreducible, though it
    is a direct sum.  The answer is complete when every weight space is
    one-dimensional; in general it needs an irreducibility test such as
    Norton's criterion of the MeatAxe.  A module whose rho_H is not
    diagonalizable with integer-image eigenvalues may raise.
    """
    dim = rep.dim
    if dim <= 1:
        return False
    if _joint_kernel(rep):
        return True
    field, p = rep.field, rep.field.characteristic
    spaces = _weight_spaces(field, rep._columns()[1], dim, range(p) if p else range(1 - dim, dim))
    return any(len(invariant_closure(rep, [w])) < dim for space in spaces.values() for w in space)
