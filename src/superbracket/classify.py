"""Decision procedure for superalgebras with 3-dimensional simple even part.

Over a field of characteristic not two or three, a finite-dimensional Lie
superalgebra whose even part is three-dimensional simple falls into exactly
one of three cases: the odd bracket vanishes (A), the algebra is the double
g0 + (g0 + k) plus centre (B), or it is the 3|2 orthosymplectic algebra plus
centre (C).  ``classify`` decides the case intrinsically -- no field
extensions -- by the dimension of g1 modulo the odd supercentre (4 for B,
2 for C), and for B/C emits an explicit isomorphism certificate onto the
canonical model.  ``check_morphism`` re-verifies it on every run before it
is returned, and it alone decides: the case builders read the normal form
off the algebra and raise only where a step cannot go on (a summand of the
wrong dimension, a missing coordinate or inverse, a zero scalar).  An
algebra off the normal form fails the certificate check instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import add_centre, build_double, build_osp12
from .linalg import (
    Matrix,
    Span,
    Vector,
    _densified,
    _kernel_vectors,
    _reduce,
    intertwiners,
)
from .sl2 import Sl2Triple, _proportionality
from .superalgebra import (
    MorphismCertificate,
    SuperAlgebra,
    _grouped,
    check_morphism,
    is_simple_3dim,
    supercentre,
    validate,
)

__all__ = ["ClassificationResult", "classify", "is_simple_superalgebra"]

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ClassificationResult:
    case: str
    centre_dim: int | None = None
    certificate: MorphismCertificate | None = None
    canonical: SuperAlgebra | None = None
    reason: str | None = None
    restricted_note: str | None = None

    @property
    def decided(self) -> bool:
        return self.case in (CASE_A, CASE_B, CASE_C)


class _TheoremViolated(Exception):
    pass


def _not_applicable(reason: str) -> ClassificationResult:
    return ClassificationResult(NOT_APPLICABLE, reason=reason)


def classify(g: SuperAlgebra) -> ClassificationResult:
    """Decide case A/B/C for a validated superalgebra.

    Preconditions (reported as not_applicable, each with its own reason):
    standard axiom mode, 3-dimensional simple even part, validation passes.
    The procedure is fully deterministic and search-free: the case is read
    off dim(g1 / odd centre), and in case C the sl(2)-triple is pulled back
    through the faithful 2-dimensional module instead of being searched
    for, so the decision works over Q exactly as over F_p.
    """
    if g.mode != "standard":
        return _not_applicable(
            f"axiom mode {g.mode!r} (characteristic 2 or 3) is outside the "
            "classification; counterexamples exist there"
        )
    if g.dim_even != 3:
        return _not_applicable(
            f"even part has dimension {g.dim_even}, classification needs 3"
        )
    report = validate(g)
    if not report.ok:
        return _not_applicable(f"not a Lie superalgebra: {report}")
    if not is_simple_3dim(g):
        return _not_applicable(
            "even part is not simple (degenerate Killing form)"
        )

    note = None
    if g.field.characteristic > 0 and not g.odd_bracket_is_zero():
        note = (
            "positive characteristic with nonzero odd bracket: the algebra "
            "carries a restricted structure"
        )

    _, z1 = supercentre(g)
    z = len(z1)
    if g.odd_bracket_is_zero():
        return ClassificationResult(CASE_A, centre_dim=z, restricted_note=note)

    qdim = g.dim_odd - z
    try:
        if qdim == 2:
            out = _certified(g, z1, note, CASE_C, *_case_c(g))
        elif qdim == 4:
            out = _certified(g, z1, note, CASE_B, *_case_b(g))
        else:
            raise _TheoremViolated(
                f"odd part modulo its centre has dimension {qdim}, which the "
                "classification forbids -- check the input and characteristic"
            )
    except _TheoremViolated as exc:
        return _not_applicable(str(exc))
    return out


def _action_image(g: SuperAlgebra) -> list[Vector]:
    """Echelon basis of the span of every e_x(f_v)."""
    f, d1 = g.field, g.dim_odd
    images = _grouped(((x, v), w, c) for (x, v, w), c in g._act.items())
    basis = _reduce(f, (e.items() for e in images), range(d1))
    return [_densified(f, basis[c], d1) for c in sorted(basis)]


def _action_kernel(g: SuperAlgebra) -> list[Vector]:
    """Basis of the odd vectors every e_x kills: one row per (x, w)."""
    return _kernel_vectors(g.field, _grouped(((x, w), v, c) for (x, v, w), c in g._act.items()), g.dim_odd)


def _action_on(g: SuperAlgebra, summand: list[Vector]) -> list[Matrix]:
    """The matrices of the even basis acting on an invariant summand of the
    odd part, in the coordinates of its basis."""
    span = Span(g.field, summand)
    units = [Vector.unit(g.field, g.dim_even, x) for x in range(g.dim_even)]
    mats = [span.coordinate_matrix([g.act_vec(e, v) for v in summand]) for e in units]
    if None in mats:
        raise _TheoremViolated("action image is not invariant")
    return mats


def _certified(
    g: SuperAlgebra, z1: list[Vector], note: str | None, case: str,
    base: SuperAlgebra, m_even: Matrix, cols: list[Vector], images: list[Vector],
) -> ClassificationResult:
    """The common end of cases B and C: the odd block sends the summand
    vectors ``cols`` to ``images`` and the odd centre onto the lines that
    ``add_centre`` appends to ``base``; the certificate is checked before
    it is returned.  ``_case_c`` and ``_case_b`` give the last four
    arguments."""
    field, d1, z = g.field, g.dim_odd, len(z1)
    s_inv = Matrix.from_columns(field, cols + list(z1)).inverse()
    if s_inv is None:
        raise _TheoremViolated("summands + centre do not span the odd part")
    images = images + [Vector.unit(field, d1, len(cols) + i) for i in range(z)]
    canonical = add_centre(base, z)
    cert = MorphismCertificate(g, canonical, m_even, Matrix.from_columns(field, images) @ s_inv)
    ok, why = check_morphism(cert)
    if not ok:  # soundness is checked on every run, never assumed
        raise _TheoremViolated(f"internal certificate failed verification: {why}")
    return ClassificationResult(
        case, centre_dim=z, certificate=cert, canonical=canonical, restricted_note=note
    )


def _case_c(g: SuperAlgebra) -> tuple[SuperAlgebra, Matrix, list[Vector], list[Vector]]:
    field = g.field
    module = _action_image(g)
    if len(module) != 2:
        raise _TheoremViolated(
            f"action image has dimension {len(module)}, expected 2"
        )

    # The 2-dimensional module is faithful, so the action identifies the
    # even part with sl(2) of the module; pulling back the standard matrix
    # triple yields an sl(2)-triple exactly, over any field -- no search.
    # the triple is the coordinates of the standard E, H, F in the three
    # action matrices, all flattened row by row
    restr = _action_on(g, module)
    flat = Span(field, [Vector._from_raw(field, [x for row in m.data for x in row]) for m in restr])
    pulled = [flat.coordinates(Vector(field, t)) for t in ([0, 1, 0, 0], [1, 0, 0, -1], [0, 0, 1, 0])]
    if None in pulled:
        raise _TheoremViolated("the 2-dimensional module is not faithful onto sl(2)")
    triple = Sl2Triple(*pulled)

    # weight basis of the module: e0 at H-weight 1, e1 = F e0; in module
    # coordinates rho(H) is exactly diag(1,-1), so e0 is the first echelon
    # basis vector
    e0 = module[0]
    e1 = g.act_vec(triple.f, e0)

    # read gamma from {e0,e1} = gamma H; the certificate checks the rest of
    # the normal form, {e0,e0} = -2 gamma E and {e1,e1} = 2 gamma F
    gamma = _proportionality(g.odd_bracket_vec(e0, e1), triple.h)
    if gamma is None or not gamma:
        raise _TheoremViolated("{e0,e1} is not a nonzero multiple of H")

    # even block: E -> -gamma E^, H -> H^, F -> -(1/gamma) F^ composed with
    # triple coordinates; the -gamma twist absorbs gamma without square roots
    t_inv = Matrix.from_columns(field, [triple.e, triple.h, triple.f]).inverse()
    if t_inv is None:
        raise _TheoremViolated("triple vectors are linearly dependent")
    m_even = Matrix.diagonal(
        field, [field.neg(gamma), field.one(), field.neg(field.inv(gamma))]
    ) @ t_inv

    # odd block: e0 -> -gamma e0^, e1 -> e1^
    d1 = g.dim_odd
    images = [Vector.unit(field, d1, 0).scaled(field.neg(gamma)), Vector.unit(field, d1, 1)]
    return build_osp12(field), m_even, [e0, e1], images


def _case_b(g: SuperAlgebra) -> tuple[SuperAlgebra, Matrix, list[Vector], list[Vector]]:
    field = g.field
    adjoint = _action_image(g)
    if len(adjoint) != 3:
        raise _TheoremViolated(
            f"action image has dimension {len(adjoint)}, expected 3"
        )

    # equivariant isomorphism psi: adjoint summand -> even part (Schur line)
    psi_space = intertwiners(
        field, [(m, g.ad(x)) for x, m in enumerate(_action_on(g, adjoint))]
    )
    if len(psi_space) != 1:
        raise _TheoremViolated(
            f"equivariant maps to the even part form a {len(psi_space)}-"
            "dimensional space, expected a Schur line"
        )
    psi = psi_space[0]

    # pairing vector: the trivial line that brackets the adjoint part onto g0
    t_star = None
    for t in _action_kernel(g):
        if any(not g.odd_bracket_vec(t, a).is_zero() for a in adjoint):
            t_star = t
            break
    if t_star is None:
        raise _TheoremViolated("no trivial line pairs with the adjoint summand")

    # {t*, a} = c * psi(a) on the Schur line; read c off the first basis
    # vector, and let the certificate check the other two
    c = _proportionality(g.odd_bracket_vec(t_star, adjoint[0]), psi @ Vector.unit(field, 3, 0))
    if c is None or not c:
        raise _TheoremViolated("pairing is not proportional to the Schur line")

    # odd block: the adjoint summand onto the even copy through psi, t* onto
    # c times the canonical pairing line
    d1 = g.dim_odd
    images = []
    for j in range(3):
        col = psi @ Vector.unit(field, 3, j)
        images.append(Vector(field, list(col.entries) + [field.zero()] * (d1 - 3)))
    images.append(Vector.unit(field, d1, 3).scaled(c))
    double = build_double(g.even_part(), Matrix.identity(field, 3))
    return double, Matrix.identity(field, 3), adjoint + [t_star], images


def is_simple_superalgebra(g: SuperAlgebra) -> bool:
    """g is simple iff it is the 3|2 orthosymplectic algebra (case C with
    trivial centre) or its odd part is zero with simple even part."""
    result = classify(g)
    if not result.decided:
        raise ValueError(f"classification failed: {result.reason}")
    if result.case == CASE_C:
        return result.centre_dim == 0
    if result.case == CASE_A:
        return g.dim_odd == 0
    return False
