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
enumerated; the second needs one equation per (x, u <= v).  A naive
all-triples assembly is kept in the test suite as an oracle for this
deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .fields import Field
from .linalg import Matrix, kernel_basis
from .sl2 import IrrepSpec, RepMatrices, build_irrep
from .superalgebra import SuperAlgebra

__all__ = [
    "OddBracketSpace",
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


def _pair_index(d1: int):
    pairs = [(u, v) for u in range(d1) for v in range(u, d1)]
    lookup = {p: i for i, p in enumerate(pairs)}

    def idx(u, v, x, d0):
        key = (u, v) if u <= v else (v, u)
        return lookup[key] * d0 + x

    return pairs, idx


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
    """
    if mode not in ("standard", "char3"):
        raise ValueError(f"unsupported mode for the bracket solver: {mode!r}")
    d0 = len(even_bracket)
    d1 = action_mats[0].rows if action_mats else 0
    if len(action_mats) != d0:
        raise ValueError("need one action matrix per even basis vector")
    for m in action_mats:
        if m.rows != d1 or m.cols != d1:
            raise ValueError("action matrices must be square of equal size")
    for x in range(d0):
        for y in range(x + 1, d0):
            expected = Matrix.zero(field, d1, d1)
            for k in range(d0):
                if even_bracket[x][y][k]:
                    expected = expected + action_mats[k].scaled(even_bracket[x][y][k])
            if action_mats[x].commutator(action_mats[y]) != expected:
                raise ValueError(
                    "action matrices do not represent the even algebra"
                )
    # raw coefficients, so the assembled rows need no coercion
    even_bracket = [
        [[field.coerce(c) for c in r] for r in plane] for plane in even_bracket
    ]
    pairs, unknown = _pair_index(d1)
    n_unknowns = len(pairs) * d0
    rows: list[list] = []

    def act(x, w, t):
        # coefficient of f_t in e_x(f_w)
        return action_mats[x].data[t][w]

    # relation 1 on multisets u <= v <= w, one equation per odd output t:
    # sum_x P[uv][x] act(x,w,t) + P[vw][x] act(x,u,t) + P[wu][x] act(x,v,t)
    for u in range(d1):
        for v in range(u, d1):
            for w in range(v, d1):
                for t in range(d1):
                    row = [field.zero()] * n_unknowns
                    hit = False
                    for (a, b, c) in ((u, v, w), (v, w, u), (w, u, v)):
                        for x in range(d0):
                            coeff = act(x, c, t)
                            if coeff:
                                k = unknown(a, b, x, d0)
                                row[k] = field.add(row[k], coeff)
                                hit = True
                    if hit:
                        rows.append(row)

    # relation 2 per (x, u <= v), one equation per even output y:
    # sum_z P[uv][z] c[x][z][y] - sum_w act(x,u,w) P[wv][y] - act(x,v,w) P[uw][y]
    for x in range(d0):
        for u in range(d1):
            for v in range(u, d1):
                for y in range(d0):
                    row = [field.zero()] * n_unknowns
                    hit = False
                    for z in range(d0):
                        coeff = even_bracket[x][z][y]
                        if coeff:
                            k = unknown(u, v, z, d0)
                            row[k] = field.add(row[k], coeff)
                            hit = True
                    for w in range(d1):
                        cu = act(x, u, w)
                        if cu:
                            k = unknown(w, v, y, d0)
                            row[k] = field.sub(row[k], cu)
                            hit = True
                        cv = act(x, v, w)
                        if cv:
                            k = unknown(u, w, y, d0)
                            row[k] = field.sub(row[k], cv)
                            hit = True
                    if hit:
                        rows.append(row)

    if mode == "char3":
        # cubic axiom {x,{x,x}} = 0 per monomial t_a t_b t_c; beyond the
        # trilinear relation only the diagonal patterns add constraints,
        # but all are emitted for uniform reporting
        two = field.from_int(2)
        for a in range(d1):
            for b in range(a, d1):
                for c in range(b, d1):
                    for t in range(d1):
                        row = [field.zero()] * n_unknowns
                        hit = False
                        if a == b == c:
                            terms = (((a, a, a), field.one()),)
                        elif a == b:
                            terms = (((a, a, c), field.one()), ((a, c, a), two))
                        elif b == c:
                            terms = (((a, b, b), two), ((b, b, a), field.one()))
                        else:
                            terms = (
                                ((a, b, c), two),
                                ((a, c, b), two),
                                ((b, c, a), two),
                            )
                        for (i, j, w), mult in terms:
                            for x in range(d0):
                                coeff = field.mul(mult, act(x, w, t))
                                if coeff:
                                    k = unknown(i, j, x, d0)
                                    row[k] = field.add(row[k], coeff)
                                    hit = True
                        if hit:
                            rows.append(row)

    if n_unknowns == 0:
        return OddBracketSpace(field, d0, d1, ())
    system = Matrix._from_raw(field, rows) if rows else Matrix.zero(field, 1, n_unknowns)
    basis = []
    for flat in kernel_basis(system):
        tensor = [[[field.zero()] * d0 for _ in range(d1)] for _ in range(d1)]
        for pi, (u, v) in enumerate(pairs):
            for x in range(d0):
                val = flat.entries[pi * d0 + x]
                tensor[u][v][x] = val
                tensor[v][u][x] = val
        basis.append(tuple(tuple(tuple(r) for r in plane) for plane in tensor))
    return OddBracketSpace(field, d0, d1, tuple(basis))


def odd_bracket_space_of(g: SuperAlgebra, mode: str | None = None) -> OddBracketSpace:
    """Solution space for g's own even part and action (its odd bracket is
    ignored -- this asks what brackets *could* live on the module)."""
    mats = [g.action_matrix(i) for i in range(g.dim_even)]
    return odd_bracket_space(
        g.field, g.bracket, mats, mode=mode or ("char3" if g.mode == "char3" else "standard")
    )


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
