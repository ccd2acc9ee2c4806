"""The moduli space of odd brackets compatible with a given module.

Core observation: both compatibility relations

    {u,v}(w) + {v,w}(u) + {w,u}(v) = 0
    [x, {u,v}] = {x(u), v} + {u, x(v)}

are *linear* in the symmetric tensor {.,.}, so the set of all Lie-
superalgebra structures on g0 + V with fixed even bracket and action is
exactly the kernel of one assembled linear system -- no search and no
numerics, just exact row reduction.

The solver works on sparse data from end to end.  It takes one
:class:`~superbracket.superalgebra.SuperAlgebra` and solves in its mode,
on the nonzero columns of the even bracket, ``ecols[x][z]``, the pairs
(y, c) of [e_x, e_z], and of the action, ``act[x][w]``, the pairs (t, c)
of e_x(f_w), of the algebra's own integer form: the copy that
:func:`~superbracket.superalgebra.validate` builds its system from, with
the bracket and the action cleared of denominators by one common D over Q
(:func:`~superbracket.superalgebra.clear_denominators`).  Every equation is
linear in the two jointly, so each row is D times itself, with the same
span, and the rows, the representation check and the eliminator all run
on Python ints.  Over F_p the entries are integers already, and past the
cut-off of :func:`~superbracket.superalgebra.clear_denominators` they stay
Fractions and the same code runs on them.  The equations are
:func:`~superbracket.superalgebra.compatibility_equations`, the one
definition of the relations, which :func:`~superbracket.superalgebra.validate`
evaluates at a given odd bracket: deduplicated by symmetric index pattern
and yielded, per instance, as terms (base, group), where unknown base + i
carries the column group[i] of (output, coefficient) pairs, built from the
nonzeros of the action and the even bracket.  The solver is the one
place that collects the terms into sparse rows ``{unknown: coefficient}``,
in one pass per instance (:func:`_append_rows`, one row per output): each
row is reduced mod p once, or over Q stripped of its zero entries.  Most
rows would have a single entry, forcing an unknown to vanish, and most of
those come from relation-2 instances that force a weight-incompatible
coefficient to zero.  So the solver keeps the set of *dead* unknowns, those a
single-entry row has forced to zero, and settles two families first.
The blocks of the module (:func:`_block_kills`), the connected components
of the action's nonzero pattern: relation 1 at (u, v, w) with f_w in a
block other than those of f_u and f_v says that {f_u, f_v} acts as zero
on f_w's block, so a pair that misses a *faithful* block, one on which
the e_y act linearly independently, is dead; from three faithful blocks
on every pair is, and no row is collected.  Then the weights: at
each x where e_x acts diagonally on the module and on the even part
(e_x(f_w) = lam_w f_w, [e_x, e_z] = mu_z e_z), relation 2 gives one row
per unknown, (mu_y - lam_u - lam_v) times the coefficient of e_y in
{f_u, f_v}, so the unknowns whose factor is nonzero are read off as dead,
with no row built (:func:`_weight_kills`).  Then it calls the relations
one at a time (:class:`~superbracket.superalgebra._Relations`): relation
2 at the other x, then the cubic, then relation 1.  A single-entry row is
not kept: it only kills its unknown.  Walking an instance's terms, the
solver skips every dead unknown, and a row that shrinks to one entry
kills its own unknown in turn.  Each relation is collected only at the
instances with a term at a pair that still has an unknown alive
(:func:`_live_pairs`), selected as the validator selects its support
(:func:`~superbracket.superalgebra._supported_pairs`,
:func:`~superbracket.superalgebra._supported_triples`); every other
instance would give no row.  The kept rows go to
:func:`~superbracket.linalg.sparse_kernel_basis` under their own unknown
numbers, on the labels of the unknowns alive at the end; only a row that
holds an unknown killed after it was kept is rebuilt without it.  The
kernel is the full system's, bit for bit: every dead unknown's unit vector
lies in its row span, so the kernel is zero there, and the eliminator
compares columns by order only, so it picks the pivots, free columns and
values it would pick on the live unknowns numbered from 0.  The kernel
vectors come back sparse, :meth:`OddBracketSpace.entries` reads each one
as the entries (u, v, y, c) that ``pspace`` prints and
:func:`solution_to_algebra` installs, and :class:`OddBracketSpace` builds
its dense tensors only when they are asked for: the abelian 3|100
document has 15,150 free unknowns, whose basis is 15,150 vectors of one
entry.  In a dense basis the action is one block and no e_x is diagonal:
nothing is killed first, and relation 2 is collected at every x.
For the 29 systems of the benchmark sweep (F_5 and F_7 up to odd
dimension 8, where H is diagonal) the blocks and the weights kill 1,616
of the 1,800 unknowns; the solver collects 458 of the 1,800 relation-2
instances and 551 of the 1,706 relation-1 instances, and hands the
eliminator 26 rows on 12 unknowns.
The eliminator still peels forced columns before it pivots, as
structured Gaussian elimination does (LaMacchia and Odlyzko, CRYPTO
1990).  The rows reach it in the generator's order, relation 1 first,
because fraction-free pivoting depends on row order.  The blocks and the
weights settle no row, so they leave that order as it was.  A naive
all-triples dense assembly, solved by a dense Gauss-Jordan, is kept in
the test suite as an oracle for this deduplication.

:func:`sweep_irrep_sums` finds the dimension for every direct sum
M = V_1 + ... + V_r of irreducibles, solving only sums of two and at most
one irreducible alone.  Split the bracket into blocks B_ij on V_i x V_j.
The action is block-diagonal, so relation 2 at (x, V_i, V_j) holds only
B_ij; relation 1 at (V_i, V_j, V_k), k a third summand, says B_ij acts as
zero on V_k; and at (V_i, V_i, V_j) its V_i part holds only B_ij and its
V_j part says B_ii acts as zero on V_j.  So the system is block-diagonal
in the pairs of summands, each basis vector of the space lies in one B_ij,
and a faithful V_k kills the blocks that miss it, while one that acts as
zero imposes nothing; every summand must be one or the other.  With s(a)
the number of basis vectors of V_a + V_1 on V_a x V_a (V_1 acts as zero,
so that is the dimension for V_a alone) and x(a, b) the number of those of
V_a + V_b on V_a x V_b,

    dim(M) = sum_i [no other V faithful] s(d_i)
           + sum_{i<j} [no V but V_i, V_j faithful] x(d_i, d_j).

Each sum of two is assembled and solved by :func:`odd_bracket_space`, and
so is V_a alone where a is the bound and V_a + V_1 is past it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .fields import Field, FieldError
from .linalg import _densified, _reduce, sparse_kernel_basis
from .sl2 import IrrepSpec, RepMatrices, build_irrep
from .superalgebra import (
    ShapeError,
    SuperAlgebra,
    _even_system,
    _Relations,
    _supported_pairs,
    _supported_triples,
    odd_unknowns,
    representation_failures,
)

__all__ = [
    "OddBracketSpace",
    "NotARepresentation",
    "UnsupportedMode",
    "odd_bracket_space",
    "solution_to_algebra",
    "sweep_irrep_sums",
    "SweepRow",
]


class OddBracketSpace:
    """Solution space of the two relations for one even algebra + module.

    ``vectors`` holds the basis sparse, each element a dict ``{unknown:
    coefficient}`` over the flat unknowns of
    :func:`~superbracket.superalgebra.odd_unknowns` (pairs u <= v
    lexicographic, then the even coordinate), in increasing order of
    unknowns.  ``basis`` holds the same elements as symmetric
    d1 x d1 x d0 tensors, echelon in that flattening.  The space is made
    from either form, and the other is built on first use.
    """

    __slots__ = ("field", "dim_even", "dim_odd", "_basis", "_vectors", "_pairs")

    def __init__(self, field: Field, dim_even: int, dim_odd: int, basis=None, vectors=None):
        if (basis is None) == (vectors is None):
            raise ValueError("give the basis either as tensors or as sparse vectors")
        self.field, self.dim_even, self.dim_odd = field, dim_even, dim_odd
        self._basis = None if basis is None else tuple(basis)
        self._vectors = None if vectors is None else tuple(vectors)
        self._pairs = None

    @property
    def dimension(self) -> int:
        return len(self._basis if self._vectors is None else self._vectors)

    @property
    def vectors(self) -> tuple:
        if self._vectors is None:
            d1 = self.dim_odd
            base = odd_unknowns(self.dim_even, d1)
            self._vectors = tuple(
                {
                    base[u][v] + y: c
                    for u in range(d1)
                    for v in range(u, d1)
                    for y, c in enumerate(tensor[u][v])
                    if c
                }
                for tensor in self._basis
            )
        return self._vectors

    def entries(self, index: int) -> list[tuple]:
        """The nonzero entries ``(u, v, y, c)``, u <= v, of basis element
        ``index``, c the coefficient of e_y in {f_u, f_v}, in the order of
        the flat unknowns."""
        d0 = self.dim_even
        if self._pairs is None:
            d1 = self.dim_odd
            self._pairs = [(u, v) for u in range(d1) for v in range(u, d1)]
        pairs = self._pairs
        return [(*pairs[k // d0], k % d0, c) for k, c in self.vectors[index].items()]

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            d0, d1 = self.dim_even, self.dim_odd
            base = odd_unknowns(d0, d1)
            basis = []
            for vector in self._vectors:
                e = _densified(self.field, vector, d0 * d1 * (d1 + 1) // 2).entries
                basis.append(tuple(tuple(e[base[u][v] : base[u][v] + d0] for v in range(d1)) for u in range(d1)))
            self._basis = tuple(basis)
        return self._basis


class UnsupportedMode(ValueError):
    """The solver has not been extended to this axiom mode (char2)."""


class NotARepresentation(ValueError):
    """The action matrices do not represent the even algebra.

    ``pairs`` lists every i < j with [rho(e_i), rho(e_j)] != rho([e_i, e_j]).
    """

    def __init__(self, pairs):
        super().__init__("action matrices do not represent the even algebra")
        self.pairs = tuple(pairs)


def _append_rows(rows: list, terms, dead: set, p: int | None) -> None:
    """Append one instance's rows to ``rows``: its terms (base, group) summed
    into one equation ``{unknown: coeff}`` per output without the ``dead``
    unknowns, each reduced mod p once, or over Q stripped of zero entries
    when it holds one.  A row left with one entry is not appended: it only
    adds its unknown to ``dead``.  Dicts are made on first use and a sum
    starts from its first term, since 0 + Fraction costs a full Fraction
    addition (past the cut-off of
    :func:`~superbracket.superalgebra.clear_denominators` the coefficients
    are Fractions)."""
    eqs: dict = {}
    for base, group in terms:
        for k, col in enumerate(group, base):
            if k in dead:
                continue
            for t, c in col:
                eq = eqs.get(t)
                if eq is None:
                    eqs[t] = {k: c}
                elif k in eq:
                    eq[k] += c
                else:
                    eq[k] = c
    for eq in eqs.values():
        if p:
            eq = {k: r for k, c in eq.items() if (r := c % p)}
        elif not all(eq.values()):
            eq = {k: c for k, c in eq.items() if c}
        if len(eq) == 1:
            dead.update(eq)
        elif eq:
            rows.append(eq)


def _diagonal(plane) -> list | None:
    """The diagonal of the map whose columns ``plane`` lists as nonzeros
    ``(i, coefficient)``, or None if some column has an entry off it.  Stops
    at the first such entry, so a dense map costs about one column."""
    diag = []
    for i, col in enumerate(plane):
        if not col:
            diag.append(0)
        elif len(col) == 1 and col[0][0] == i:
            diag.append(col[0][1])
        else:
            return None
    return diag


def _weights(rel: _Relations, act, x: int) -> tuple[list, list] | None:
    """``(lam, mu)`` when e_x acts diagonally on the module (e_x(f_w) =
    lam_w f_w) and on the even part ([e_x, e_z] = mu_z e_z), else None."""
    lam = _diagonal(act[x])
    mu = None if lam is None else _diagonal(rel.ecols[x])
    return None if mu is None else (lam, mu)


def _weight_kills(rel: _Relations, lam: list, mu: list, p: int | None) -> list:
    """The unknowns that relation 2 at a direction x with weights
    :func:`_weights` ``(lam, mu)`` forces to zero.  The instance (x, u, v)
    has one equation per even output y, (mu_y - lam_u - lam_v) times
    unknown base[u][v] + y, which kills that unknown where the coefficient
    is nonzero (mod p): the single-entry rows that collecting the instance
    would give, and no other row."""
    kills: dict = {}  # the outputs y killed at each weight lam_u + lam_v
    dead = []
    for u, row in enumerate(rel.base):
        for v in range(u, rel.d1):
            s = lam[u] + lam[v]
            ys = kills.get(s)
            if ys is None:
                ys = kills[s] = [y for y, m in enumerate(mu) if ((m - s) % p if p else m != s)]
            b = row[v]
            dead += [b + y for y in ys]
    return dead


def _blocks(act, d1: int) -> list:
    """block[w]: the least index of the block of f_w, the connected
    component of the action's nonzero pattern (an edge w - t for each t of
    e_x(f_w)), so that every e_x maps each block into itself."""
    parent = list(range(d1))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for plane in act:
        for w, col in enumerate(plane):
            for t, _ in col:
                a, b = root(w), root(t)
                if a != b:
                    parent[max(a, b)] = min(a, b)
    return [root(w) for w in range(d1)]


def _faithful(field: Field, act, ws: list) -> bool:
    """Whether the d0 restrictions of the e_y to the block ``ws`` are
    linearly independent: the rank d0 of the rows (w, t) -> {y: coefficient
    of f_t in e_y(f_w)} over the block."""
    rows: dict = {}
    for y, plane in enumerate(act):
        for w in ws:
            for t, c in plane[w]:
                rows.setdefault((w, t), {})[y] = c
    return len(_reduce(field, (r.items() for r in rows.values()), range(len(act)))) == len(act)


def _faithful_blocks(field: Field, act, block: list) -> list:
    """The least indices of the faithful blocks (:func:`_faithful`), in
    increasing order, up to three, after which :func:`_block_kills` kills
    every pair; none where the module is one block, which kills nothing
    and is not checked."""
    members: dict = {}  # the indices of each block, keyed by its least index
    for w, k in enumerate(block):
        members.setdefault(k, []).append(w)
    faithful: list = []
    if len(members) > 1:
        for k, ws in members.items():
            if _faithful(field, act, ws):
                faithful.append(k)
                if len(faithful) == 3:
                    break
    return faithful


def _block_kills(rel: _Relations, block: list, faithful: list) -> list:
    """The unknowns that relation 1 forces to zero through the module's
    blocks (:func:`_blocks`).  At (u, v, w) with f_w in a block V_k other
    than those of f_u and f_v, the terms {f_v, f_w}(f_u) and
    {f_w, f_u}(f_v) have no output in V_k, so its rows there say that
    {f_u, f_v} acts as zero on V_k.  On a *faithful* block (one of
    ``faithful``, :func:`_faithful`) that makes every coefficient of
    {f_u, f_v} zero.  So a pair is dead when some faithful block is neither
    of its own; from three faithful blocks on, every pair is."""
    d0, d1 = rel.d0, rel.d1
    dead = []
    for u, row in enumerate(rel.base):
        # the pair (u, v) lives only if f_v lies in every faithful block
        # that f_u misses
        missed = [k for k in faithful if k != block[u]]
        if missed:
            only = missed[0] if len(missed) == 1 else None
            for v in range(u, d1):
                if block[v] != only:
                    dead += range(row[v], row[v] + d0)
    return dead


def _live_pairs(rel: _Relations, dead: set) -> list:
    """The pairs with an unknown outside ``dead``, as the support masks of
    :func:`~superbracket.superalgebra.compatibility_equations`: bit v of
    entry u set iff some coefficient of {f_u, f_v} is alive."""
    d0, support = rel.d0, [0] * rel.d1
    for u, row in enumerate(rel.base):
        for v in range(u, rel.d1):
            if not dead.issuperset(range(row[v], row[v] + d0)):
                support[u] |= 1 << v
                support[v] |= 1 << u
    return support


def _collect(mode: str, rel: _Relations, act, dead: set, p: int | None) -> list:
    """The rows of the system without the ``dead`` unknowns, adding to
    ``dead`` every unknown that a single-entry row kills: the weights of
    each diagonal direction first (:func:`_weight_kills`), then relation 2
    at the other directions, the cubic in mode "char3", and relation 1,
    each at the instances with a term at a pair that still has an unknown
    alive (:func:`_live_pairs`); returned in the generator's order,
    relation 1 first."""
    off_diagonal = []  # the x at which relation 2 is collected
    for x in range(rel.d0):
        weights = _weights(rel, act, x)
        if weights is None:
            off_diagonal.append(x)
        else:
            dead.update(_weight_kills(rel, *weights, p))
    later: list[dict] = []  # relation 2, then the cubic
    pairs = _supported_pairs(_live_pairs(rel, dead), act, rel.elive, off_diagonal)
    for _, _, terms in rel.relation_2(pairs):
        _append_rows(later, terms, dead, p)
    if mode == "char3":
        for _, _, terms in rel.cubic(_supported_triples(_live_pairs(rel, dead), rel.live)):
            _append_rows(later, terms, dead, p)
    # The rows keep the generator's order, since fraction-free pivoting
    # depends on it: relation-2 rows first make sl(2) + (4,3,2,1) in a
    # random basis over Q about ten times slower.
    rows: list[dict] = []
    for _, _, terms in rel.relation_1(_supported_triples(_live_pairs(rel, dead), rel.live)):
        _append_rows(rows, terms, dead, p)
    return rows + later


def odd_bracket_space(g: SuperAlgebra) -> OddBracketSpace:
    """Solve for every symmetric odd bracket compatible with g's even part
    and action, in g's mode; g's own odd bracket is ignored, since this asks
    what brackets *could* live on the module.  Mode "char3" also imposes
    the cubic identity, whose only content beyond the trilinear relation
    sits on the diagonal monomials.  Raises :class:`UnsupportedMode` in
    mode "char2" and :class:`NotARepresentation` when the action is not a
    representation.
    """
    if g.mode not in ("standard", "char3"):
        raise UnsupportedMode(f"unsupported mode for the bracket solver: {g.mode!r}")
    field, d0, d1 = g.field, g.dim_even, g.dim_odd
    ecols, act = _even_system(g)
    failures = representation_failures(field, ecols, act)
    if failures:
        raise NotARepresentation(failures)
    p = field.p if field.kind == "prime" else None
    rel = _Relations(ecols, act)
    block = _blocks(act, d1)
    dead = set(_block_kills(rel, block, _faithful_blocks(field, act, block)))
    n = d0 * d1 * (d1 + 1) // 2
    # from three faithful blocks on no unknown is alive, and nothing is collected
    rows = _collect(g.mode, rel, act, dead, p) if len(dead) < n else []
    # each row under its own unknowns; only one that holds a dead unknown,
    # killed after the row was kept, is rebuilt without it
    kept = []
    for row in rows:
        if dead.isdisjoint(row):
            kept.append(row)
        elif r := {k: c for k, c in row.items() if k not in dead}:
            kept.append(r)
    live = [k for k in range(n) if k not in dead]
    return OddBracketSpace(field, d0, d1, vectors=sparse_kernel_basis(field, kept, live))


def solution_to_algebra(
    g: SuperAlgebra, space: OddBracketSpace, index: int
) -> SuperAlgebra:
    """g's even part and action with basis element ``index`` of the space
    as its odd bracket."""
    if (space.dim_even, space.dim_odd) != (g.dim_even, g.dim_odd):
        raise ShapeError("the solution space is not of g's dimensions")
    if space.field != g.field:
        raise FieldError(f"a solution space over {space.field} installed in an algebra over {g.field}")
    coerce = g.field.coerce
    odd = {(u, v, y): c for u, v, y, raw in space.entries(index) if (c := coerce(raw))}
    return SuperAlgebra._of(g.field, g.dim_even, g.dim_odd, g.mode, g._even, g._act, odd)


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
    up to max_odd_dim, over F_5 or F_7 (:func:`_sweep`)."""
    if field.kind != "prime" or field.p not in (5, 7):
        raise ValueError("the sweep is budgeted for F_5 and F_7")
    if max_odd_dim > 8:
        raise ValueError("the sweep is budgeted for odd dimension <= 8")
    if max_odd_dim < 1:
        raise ValueError("the sweep needs odd dimension >= 1")
    return _sweep(field, max_odd_dim)


def _sweep(field: Field, max_odd_dim: int) -> list[SweepRow]:
    """The rows of :func:`sweep_irrep_sums` over any F_p, without its
    budget: each composition of two summands is solved, and V_a alone where
    a = max_odd_dim, and every row is a sum of the counts that those
    solutions give (module docstring)."""
    from .constructions import sl2_algebra

    even = sl2_algebra(field)
    # each irreducible, and whether it is faithful, else it must act as zero
    irreps, is_faithful = {}, {}
    for d in range(1, min(field.p, max_odd_dim) + 1):
        rep = irreps[d] = build_irrep(IrrepSpec.standard_params(field, d - 1), field)
        is_faithful[d] = _faithful(field, rep._columns(), range(d))
        if not is_faithful[d] and rep.entries:
            raise ValueError(f"the summand of dimension {d} acts neither faithfully nor as zero")

    def counts(comp):
        # the basis vectors of the direct sum's space, counted by the pair of
        # summands (i, j), i <= j, on which each one has its entries
        rep = RepMatrices.direct_sum([irreps[d] for d in comp])
        g = SuperAlgebra._of(field, even.dim_even, rep.dim, even.mode, even._even, rep.entries, {})
        space = odd_bracket_space(g)
        summand = [i for i, d in enumerate(comp) for _ in range(d)]
        by_pair = Counter()
        for k in range(space.dimension):
            pairs = {(summand[u], summand[v]) for u, v, _, _ in space.entries(k)}
            if len(pairs) != 1:
                raise ValueError(f"a solution for {comp} has entries on {len(pairs)} pairs of summands")
            by_pair.update(pairs)
        return by_pair

    comps = [comp for total in range(1, max_odd_dim + 1) for comp in _partitions_desc(total, field.p)]
    s, x = {}, {}  # s[a] and x[a, b] of the module docstring
    for comp in comps:
        if len(comp) == 2:
            by_pair = counts(comp)
            x[comp] = by_pair[0, 1]
            if comp[1] == 1:  # V_1 acts as zero, so V_a x V_a solves as in V_a alone
                s[comp[0]] = by_pair[0, 0]
        elif comp == (max_odd_dim,):  # the one V_a with no V_a + V_1 in the sweep
            s[max_odd_dim] = counts(comp)[0, 0]
    rows = []
    for comp in comps:
        # a term counts only where no summand outside it is faithful
        n = sum(is_faithful[d] for d in comp)
        dim = sum(s[d] for d in comp if n == is_faithful[d]) + sum(
            x[a, b] for a, b in combinations(comp, 2) if n == is_faithful[a] + is_faithful[b]
        )
        rows.append(SweepRow(field.p, comp, dim))
    return rows
