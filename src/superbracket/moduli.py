"""The moduli space of odd brackets compatible with a given module.

Core observation: both compatibility relations

    {u,v}(w) + {v,w}(u) + {w,u}(v) = 0
    [x, {u,v}] = {x(u), v} + {u, x(v)}

are *linear* in the symmetric tensor {.,.}, so the set of all Lie-
superalgebra structures on g0 + V with fixed even bracket and action is
exactly the kernel of one assembled linear system -- no search and no
numerics, just exact row reduction.

Equations are deduplicated by symmetric index pattern: the first relation
is fully symmetric in (u, v, w), so only multisets u <= v <= w are
enumerated; the second needs one equation per (x, u <= v).  Each equation
is emitted as a sparse row ``{unknown: coefficient}`` from the nonzeros of
the action and the even bracket, reduced mod p once, and the rows go
straight to :func:`~superbracket.linalg.sparse_kernel_basis`.  A naive
all-triples dense assembly, solved by a dense Gauss-Jordan, is kept in the
test suite as an oracle for this deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .fields import Field
from .linalg import Matrix, sparse_kernel_basis
from .sl2 import IrrepSpec, RepMatrices, build_irrep
from .superalgebra import SuperAlgebra, representation_failures

__all__ = [
    "OddBracketSpace",
    "NotARepresentation",
    "UnsupportedMode",
    "odd_bracket_space",
    "odd_bracket_space_of",
    "solution_to_algebra",
    "sweep_irrep_sums",
    "SweepRow",
]


@dataclass(frozen=True)
class OddBracketSpace:
    """Solution space of the two relations for one even algebra + module.

    ``basis`` holds symmetric d1 x d1 x d0 tensors, echelon with respect to
    the flattening (u <= v) lexicographic, then the even coordinate.
    """

    field: Field
    dim_even: int
    dim_odd: int
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


class UnsupportedMode(ValueError):
    """The solver has no linear system for this axiom mode (char2)."""


class NotARepresentation(ValueError):
    """The action matrices do not represent the even algebra.

    ``pairs`` lists every i < j with [rho(e_i), rho(e_j)] != rho([e_i, e_j]).
    """

    def __init__(self, pairs):
        super().__init__("action matrices do not represent the even algebra")
        self.pairs = tuple(pairs)


def _emit(rows: list, eqs: Sequence[dict], p: int | None) -> None:
    """Append each equation, reduced mod p once, without its zero entries."""
    for eq in eqs:
        if p:
            eq = {k: c % p for k, c in eq.items() if c % p}
        else:
            eq = {k: c for k, c in eq.items() if c}
        if eq:
            rows.append(eq)


def odd_bracket_space(
    field: Field,
    even_bracket,
    action_mats: Sequence[Matrix],
    mode: str = "standard",
) -> OddBracketSpace:
    """Solve for every symmetric odd bracket compatible with the module.

    ``even_bracket`` is the d0 x d0 x d0 tensor of the even part and
    ``action_mats`` the matrices of its basis acting on the module (columns
    are images).  mode "char3" also imposes the cubic identity, whose only
    content beyond the trilinear relation sits on the diagonal monomials.
    Raises :class:`UnsupportedMode` for any other mode and
    :class:`NotARepresentation` when the action is not a representation.
    """
    if mode not in ("standard", "char3"):
        raise UnsupportedMode(f"unsupported mode for the bracket solver: {mode!r}")
    d0 = len(even_bracket)
    d1 = action_mats[0].rows if action_mats else 0
    if len(action_mats) != d0:
        raise ValueError("need one action matrix per even basis vector")
    for m in action_mats:
        if m.rows != d1 or m.cols != d1:
            raise ValueError("action matrices must be square of equal size")
    failures = representation_failures(field, even_bracket, action_mats)
    if failures:
        raise NotARepresentation(failures)
    p = field.p if field.kind == "prime" else None
    pairs = [(u, v) for u in range(d1) for v in range(u, d1)]
    # base[u][v] + x is the unknown for the coefficient of e_x in {f_u, f_v}
    base = [[0] * d1 for _ in range(d1)]
    for i, (u, v) in enumerate(pairs):
        base[u][v] = base[v][u] = i * d0
    # act[x][w]: the nonzeros (t, coefficient of f_t) of e_x(f_w)
    act = [
        [[(t, row[w]) for t, row in enumerate(m.data) if row[w]] for w in range(d1)]
        for m in action_mats
    ]
    # even[x]: the nonzeros (z, y, coefficient of e_y in [e_x, e_z])
    even = [
        [
            (z, y, field.coerce(c))
            for z in range(d0)
            for y, c in enumerate(even_bracket[x][z])
            if c
        ]
        for x in range(d0)
    ]
    rows: list[dict] = []

    # relation 1 on multisets u <= v <= w, one equation per odd output t:
    # sum_x P[uv][x] act(x,w,t) + P[vw][x] act(x,u,t) + P[wu][x] act(x,v,t)
    for u in range(d1):
        for v in range(u, d1):
            for w in range(v, d1):
                eqs = [{} for _ in range(d1)]
                for (a, b, c) in ((u, v, w), (v, w, u), (w, u, v)):
                    for x in range(d0):
                        k = base[a][b] + x
                        for t, coeff in act[x][c]:
                            eqs[t][k] = eqs[t].get(k, 0) + coeff
                _emit(rows, eqs, p)

    # relation 2 per (x, u <= v), one equation per even output y:
    # sum_z P[uv][z] c[x][z][y] - sum_w act(x,u,w) P[wv][y] - act(x,v,w) P[uw][y]
    for x in range(d0):
        for u in range(d1):
            for v in range(u, d1):
                eqs = [{} for _ in range(d0)]
                for z, y, coeff in even[x]:
                    k = base[u][v] + z
                    eqs[y][k] = eqs[y].get(k, 0) + coeff
                for w, cu in act[x][u]:
                    for y in range(d0):
                        k = base[w][v] + y
                        eqs[y][k] = eqs[y].get(k, 0) - cu
                for w, cv in act[x][v]:
                    for y in range(d0):
                        k = base[u][w] + y
                        eqs[y][k] = eqs[y].get(k, 0) - cv
                _emit(rows, eqs, p)

    if mode == "char3":
        # cubic axiom {x,{x,x}} = 0 per monomial t_a t_b t_c; beyond the
        # trilinear relation only the diagonal patterns add constraints,
        # but all are emitted for uniform reporting
        one, two = field.one(), field.from_int(2)
        for a in range(d1):
            for b in range(a, d1):
                for c in range(b, d1):
                    if a == b == c:
                        terms = (((a, a, a), one),)
                    elif a == b:
                        terms = (((a, a, c), one), ((a, c, a), two))
                    elif b == c:
                        terms = (((a, b, b), two), ((b, b, a), one))
                    else:
                        terms = (((a, b, c), two), ((a, c, b), two), ((b, c, a), two))
                    eqs = [{} for _ in range(d1)]
                    for (i, j, w), mult in terms:
                        for x in range(d0):
                            k = base[i][j] + x
                            for t, coeff in act[x][w]:
                                eqs[t][k] = eqs[t].get(k, 0) + mult * coeff
                    _emit(rows, eqs, p)

    basis = []
    for flat in sparse_kernel_basis(field, rows, len(pairs) * d0):
        tensor = [[None] * d1 for _ in range(d1)]
        for pi, (u, v) in enumerate(pairs):
            tensor[u][v] = tensor[v][u] = flat.entries[pi * d0 : (pi + 1) * d0]
        basis.append(tuple(tuple(plane) for plane in tensor))
    return OddBracketSpace(field, d0, d1, tuple(basis))


def odd_bracket_space_of(g: SuperAlgebra, mode: str | None = None) -> OddBracketSpace:
    """Solution space for g's own even part and action (its odd bracket is
    ignored -- this asks what brackets *could* live on the module).  The
    mode defaults to g's own, so a char2 document is refused."""
    mats = [g.action_matrix(i) for i in range(g.dim_even)]
    return odd_bracket_space(g.field, g.bracket, mats, mode=mode or g.mode)


def solution_to_algebra(
    g: SuperAlgebra, space: OddBracketSpace, index: int
) -> SuperAlgebra:
    """Install one solution tensor as the odd bracket of g's even data."""
    return SuperAlgebra.from_tensors(
        g.field, g.bracket, g.action, space.basis[index], mode=g.mode
    )


@dataclass(frozen=True)
class SweepRow:
    p: int
    composition: tuple[int, ...]  # summand dimensions, descending
    dimension: int


def _partitions_desc(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions_desc(total - first, first):
            yield (first,) + rest


def sweep_irrep_sums(field: Field, max_odd_dim: int) -> list[SweepRow]:
    """Solution dimension for every direct sum of standard-parameter
    irreducibles (alpha = m, beta = 0, dimension <= p) with total dimension
    up to max_odd_dim, over F_5 or F_7."""
    if field.kind != "prime" or field.p not in (5, 7):
        raise ValueError("the sweep is budgeted for F_5 and F_7")
    if max_odd_dim > 8:
        raise ValueError("the sweep is budgeted for odd dimension <= 8")
    from .constructions import sl2_algebra

    even = sl2_algebra(field)
    rows = []
    for total in range(1, max_odd_dim + 1):
        for comp in _partitions_desc(total, field.p):
            rep = RepMatrices.direct_sum(
                [
                    build_irrep(IrrepSpec.standard_params(field, d - 1), field)
                    for d in comp
                ]
            )
            space = odd_bracket_space(field, even.bracket, list(rep.matrices()))
            rows.append(SweepRow(field.p, comp, space.dimension))
    return rows
