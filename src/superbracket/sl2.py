"""sl(2)-triples and the representation toolkit built on them.

Covers: locating triples (exhaustively over F_p, by a bounded rational
search over Q), the explicit irreducible modules V(m, alpha, beta), their
annihilators, the Casimir operator (H+1)^2 + 4FE, the nilpotency criterion
for complete reducibility in positive characteristic, direct-sum
decomposition, and composition series with the maximal trivial submodule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .fields import Field, FieldError, Scalar
from .linalg import (
    Matrix,
    Span,
    Vector,
    eigenspace,
    kernel_basis,
)
from .superalgebra import SuperAlgebra

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
    field = g.field
    ad_h = g.ad_vec(h)
    e_space = eigenspace(ad_h, field.from_int(2))
    f_space = eigenspace(ad_h, field.from_int(-2))
    if not e_space or not f_space:
        return None
    e0, f0 = e_space[0], f_space[0]
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
    """Parameters (m, alpha, beta) of the explicit (m+1)-dimensional module."""

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
        if dim < char:
            if self.alpha != field.scalar(self.m):
                raise ValueError("dimension below p forces alpha = m")
            if self.beta != field.scalar(0):
                raise ValueError("dimension below p forces beta = 0")
        else:
            # dim == p over a prime field: every scalar is an integer image,
            # so alpha = [m] is forced; beta is unconstrained here
            if self.alpha != field.scalar(self.m):
                raise ValueError("alpha must equal [m] when the dimension is p")


@dataclass(frozen=True)
class RepMatrices:
    """Action matrices of a triple on a module (columns are images)."""

    rho_e: Matrix
    rho_h: Matrix
    rho_f: Matrix

    @property
    def dim(self) -> int:
        return self.rho_e.rows

    @property
    def field(self) -> Field:
        return self.rho_e.field

    def matrices(self) -> tuple[Matrix, Matrix, Matrix]:
        return self.rho_e, self.rho_h, self.rho_f

    def satisfies_triple_relations(self) -> bool:
        e, h, f = self.matrices()
        return (
            e.commutator(f) == h
            and h.commutator(e) == e.scaled(2)
            and h.commutator(f) == f.scaled(-2)
        )

    @staticmethod
    def from_algebra(g: SuperAlgebra, triple: Sl2Triple) -> "RepMatrices":
        return RepMatrices(
            g.action_matrix_vec(triple.e),
            g.action_matrix_vec(triple.h),
            g.action_matrix_vec(triple.f),
        )

    @staticmethod
    def direct_sum(parts: Sequence["RepMatrices"]) -> "RepMatrices":
        field = parts[0].field
        if any(part.field != field for part in parts):
            raise FieldError("direct sum of modules over different fields")
        n = sum(p.dim for p in parts)
        blocks = []
        for which in range(3):
            m = [[field.zero()] * n for _ in range(n)]
            off = 0
            for part in parts:
                src = part.matrices()[which]
                for i in range(part.dim):
                    for j in range(part.dim):
                        m[off + i][off + j] = src.data[i][j]
                off += part.dim
            blocks.append(Matrix._from_raw(field, m))
        return RepMatrices(*blocks)

    def conjugated(self, t: Matrix) -> "RepMatrices":
        """The same action written in the basis given by the columns of t."""
        inv = t.inverse()
        if inv is None:
            raise ValueError("basis change must be invertible")
        return RepMatrices(
            inv @ self.rho_e @ t, inv @ self.rho_h @ t, inv @ self.rho_f @ t
        )


def build_irrep(spec: IrrepSpec, field: Field) -> RepMatrices:
    """Matrices of the module with basis e_0..e_m:

    H e_i = (alpha - 2[i]) e_i,
    E e_0 = 0,  E e_i = [i](alpha - ([i]-1)) e_{i-1},
    F e_i = e_{i+1} (i < m),  F e_m = beta e_0.
    """
    spec.check(field)
    n = spec.m + 1
    alpha = spec.alpha.value
    zero, one = field.zero(), field.one()
    h = [[zero] * n for _ in range(n)]
    e = [[zero] * n for _ in range(n)]
    fm = [[zero] * n for _ in range(n)]
    for i in range(n):
        h[i][i] = field.sub(alpha, field.from_int(2 * i))
    for i in range(1, n):
        e[i - 1][i] = field.mul(
            field.from_int(i), field.sub(alpha, field.from_int(i - 1))
        )
    for i in range(n - 1):
        fm[i + 1][i] = one
    fm[0][n - 1] = field.add(fm[0][n - 1], spec.beta.value)
    rep = RepMatrices(Matrix(field, e), Matrix(field, h), Matrix(field, fm))
    assert rep.satisfies_triple_relations()
    return rep


def annihilator(spec: IrrepSpec, i: int, field: Field) -> list[Vector]:
    """Basis of {x in sl2 : x(e_i) = 0}, in (E, H, F) coordinates.

    Computed as the kernel of x -> x(e_i), not read off a case table.
    """
    if not 0 <= i <= spec.m:
        raise ValueError(f"index {i} outside 0..{spec.m}")
    rep = build_irrep(spec, field)
    cols = [m.column(i) for m in rep.matrices()]
    return kernel_basis(Matrix.from_columns(field, cols))


def casimir(rep: RepMatrices) -> Matrix:
    """The Casimir operator (rho_H + Id)^2 + 4 rho_F rho_E."""
    shifted = rep.rho_h + Matrix.identity(rep.field, rep.dim)
    return shifted @ shifted + (rep.rho_f @ rep.rho_e).scaled(4)


def jacobson_test(rep: RepMatrices) -> str:
    """Sufficient condition for complete reducibility.

    In characteristic zero every finite-dimensional module is completely
    reducible.  In characteristic p the criterion rho(E)^(p-1) =
    rho(F)^(p-1) = 0 suffices; failing it decides nothing.
    """
    char = rep.field.characteristic
    if char == 0:
        return CHAR_ZERO
    if rep.rho_e.power(char - 1).is_zero() and rep.rho_f.power(char - 1).is_zero():
        return SUFFICIENT
    return INCONCLUSIVE


def _weight_candidates(field: Field, dim: int) -> list[int]:
    if field.characteristic == 0:
        top = dim
    else:
        top = min(field.characteristic, dim)
    return list(range(top - 1, -1, -1))  # descending m


def decompose(rep: RepMatrices) -> list[tuple[list[Vector], IrrepSpec]]:
    """Split a completely reducible module into irreducible summands.

    Requires the Jacobson criterion (or characteristic zero).  Highest
    weight vectors are found in ker(rho_E), split by rho_H eigenvalue, and
    each summand is generated by applying rho_F; summands are listed by
    descending H-eigenvalue, then echelon order, and each chain basis
    (w, Fw, F^2 w, ...) matches the basis convention of build_irrep.
    """
    status = jacobson_test(rep)
    if status == INCONCLUSIVE:
        raise ValueError("complete reducibility is not certified for this module")
    field = rep.field
    dim = rep.dim
    if dim == 0:
        return []
    top = kernel_basis(rep.rho_e)
    if not top:
        raise ValueError("no highest weight vectors; not a valid module")
    tops = _highest_weight_vectors(rep, top)
    if tops is None:
        raise ValueError("ker(rho_E) is not rho_H-invariant; not a valid module")
    summands: list[tuple[list[Vector], IrrepSpec]] = []
    covered = 0
    for m, w in tops:
        chain = [w]
        nxt = rep.rho_f @ w
        while not nxt.is_zero():
            chain.append(nxt)
            if len(chain) > dim:
                raise ValueError("runaway lowering chain; not a valid module")
            nxt = rep.rho_f @ nxt
        if len(chain) != m + 1:
            raise ValueError(
                f"highest weight {m} generated a chain of length {len(chain)}"
            )
        summands.append((chain, IrrepSpec.standard_params(field, m)))
        covered += len(chain)
    if covered != dim:
        raise ValueError("summands do not exhaust the module; not a valid module")
    return summands


def invariant_closure(mats: Sequence[Matrix], seeds: Sequence[Vector]) -> list[Vector]:
    """Echelon basis of the smallest subspace containing the seeds and
    invariant under all the given operators."""
    span = Span(seeds[0].field, seeds)
    frontier = list(span.basis)
    while frontier:
        new = []
        for v in frontier:
            for m in mats:
                img = m @ v
                if img not in span:
                    new.append(img)
                    span = Span(span.field, [*span.basis, img])
        frontier = new
    return list(span.basis)


def _joint_kernel(rep: RepMatrices) -> list[Vector]:
    stacked = Matrix.vstack([rep.rho_e, rep.rho_h, rep.rho_f])
    return kernel_basis(stacked)


def _highest_weight_vectors(rep: RepMatrices, top: list[Vector]):
    """(m, w) for each vector w of the echelon basis of each eigenspace of
    rho_H on ker(rho_E), whose basis is ``top``, with eigenvalue m a weight
    candidate, by descending m; None when ker(rho_E) is not
    rho_H-invariant, which no module allows.  In a random basis no vector
    of ``top`` need be an eigenvector itself."""
    field = rep.field
    # rho_H restricted to ker(rho_E), in coordinates of that kernel basis
    restr = Span(field, top).coordinate_matrix([rep.rho_h @ v for v in top])
    if restr is None:
        return None
    top_matrix = Matrix.from_columns(field, top)
    return [
        (m, top_matrix @ coords)
        for m in _weight_candidates(field, rep.dim)
        for coords in eigenspace(restr, field.from_int(m))
    ]


def _weight_closures(rep: RepMatrices):
    """The invariant closure of each highest weight vector of
    :func:`_highest_weight_vectors`, by descending weight."""
    top = kernel_basis(rep.rho_e)
    if not top:
        return
    for _, w in _highest_weight_vectors(rep, top) or ():
        yield invariant_closure(rep.matrices(), [w])


def _socle_member(rep: RepMatrices) -> list[Vector]:
    """An irreducible submodule of least dimension (ties by echelon order)."""
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
    # refine until irreducible: look for a proper submodule inside
    while (sub := _proper_submodule_inside(rep, best)) is not None:
        best = sub
    return best


def _proper_submodule_inside(rep: RepMatrices, basis: list[Vector]) -> list[Vector] | None:
    """A proper nonzero submodule of the invariant subspace, or None."""
    if len(basis) <= 1:
        return None
    span = Span(rep.field, basis)
    mats = [span.coordinate_matrix([m @ v for v in basis]) for m in rep.matrices()]
    if None in mats:
        raise ValueError("subspace is not invariant")
    sub = RepMatrices(*mats)
    lift = Matrix.from_columns(rep.field, basis)
    joint = _joint_kernel(sub)
    if joint:
        return [lift @ joint[0]]
    closure = next((c for c in _weight_closures(sub) if len(c) < len(basis)), None)
    return None if closure is None else [lift @ v for v in closure]


def composition_series(rep: RepMatrices) -> tuple[list[int], list[Vector]]:
    """Greedy composition series plus the maximal trivial submodule.

    Repeatedly removes an irreducible submodule of the current quotient
    (socle member of least dimension, ties by echelon order) and records
    the factor dimensions.  Also returns the joint kernel of rho_E, rho_H,
    rho_F, i.e. the maximal trivial submodule of the original module.
    """
    field = rep.field
    dim = rep.dim
    trivial = _joint_kernel(rep)
    factors: list[int] = []
    flag = Span(field, [], dim)  # the current submodule
    while len(flag.basis) < dim:
        # the quotient by flag, on the unit vectors of the non-pivot columns
        complement = [c for c in range(dim) if c not in flag.pivots]
        units = [Vector.unit(field, dim, c) for c in complement]
        qmats = []
        for m in rep.matrices():
            rests = [flag.remainder(m @ u).entries for u in units]
            qmats.append(Matrix._from_raw(field, [[x[r] for x in rests] for r in complement]))
        member = _socle_member(RepMatrices(*qmats))
        factors.append(len(member))
        lift = Matrix.from_columns(field, units)
        flag = Span(field, [*flag.basis, *(lift @ v for v in member)])
    return factors, trivial


def has_proper_submodule(rep: RepMatrices) -> bool:
    """Whether the module has a proper nonzero submodule.

    Complete whenever rho_H is diagonalizable over the base field with
    integer-image eigenvalues (every module built from the explicit family
    and its extensions), which is the situation the rest of the library
    produces; other module structures may raise.
    """
    dim = rep.dim
    if dim <= 1:
        return False
    if _joint_kernel(rep):
        return True
    field = rep.field
    mats = rep.matrices()
    if field.characteristic == 0:
        weights = [w for m in range(dim) for w in (m, -m)]
    else:
        weights = list(range(field.characteristic))
    for r in weights:
        lam = field.from_int(r)
        for w in eigenspace(rep.rho_h, lam):
            if len(invariant_closure(mats, [w])) < dim:
                return True
    return False
