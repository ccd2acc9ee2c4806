"""The moduli space of odd brackets compatible with a given module.

Core observation: both compatibility relations

    {u,v}(w) + {v,w}(u) + {w,u}(v) = 0
    [x, {u,v}] = {x(u), v} + {u, x(v)}

are *linear* in the symmetric tensor {.,.}, so the set of all Lie-
superalgebra structures on g0 + V with fixed even bracket and action is
exactly the kernel of one assembled linear system -- no search and no
numerics, just exact row reduction.

The equations are :func:`~superbracket.superalgebra.compatibility_equations`,
the one definition of the relations, which
:func:`~superbracket.superalgebra.validate` evaluates at a given odd bracket:
deduplicated by symmetric index pattern and yielded, per instance, as terms
(base, group), where unknown base + i carries the column group[i] of
(output, coefficient) pairs, built from the nonzeros of the action and the
even bracket.  Over Q the solver first clears the even bracket and the
action of denominators by one common D
(:func:`~superbracket.superalgebra.clear_denominators`, as each algebra's
integer form does): every equation is linear in the two jointly, so each
row becomes D times itself, with the same span, and the rows, the
representation check and the eliminator all run on Python ints.  Over F_p
the tensors are integers already, and past the cut-off of
:func:`~superbracket.superalgebra.clear_denominators` they stay Fractions
and the same code runs on them.  The solver is the one place that collects
the terms into sparse rows ``{unknown: coefficient}``, in one pass per
instance (:func:`_append_rows`, one row per output): each row is reduced
mod p once, or over Q stripped of its zero entries.  Most rows would have
a single entry, forcing an unknown to vanish, and most of those come from
relation-2 instances that force a weight-incompatible coefficient to
zero.  So the solver keeps the set of *dead* unknowns, those a
single-entry row has forced to zero, and settles the weights first: at
each x where e_x acts diagonally on the module and on the even part
(e_x(f_w) = lam_w f_w, [e_x, e_z] = mu_z e_z), relation 2 gives one row
per unknown, (mu_y - lam_u - lam_v) times the coefficient of e_y in
{f_u, f_v}, so the unknowns whose factor is nonzero are read off as dead,
with no row built (:func:`_weight_kills`).  Then it calls the relations
one at a time (:class:`~superbracket.superalgebra._Relations`): relation
2 at the other x, then the cubic, then relation 1.  A single-entry row is
not kept: it only kills its unknown.  Walking an instance's terms, the
solver skips every dead unknown, and a row that shrinks to one entry
kills its own unknown in turn.  Relation 1 is collected only at the
instances where an unknown still alive meets a nonempty action column
(:func:`_live_relation_1`); every other instance would give no row.  The
kept rows, restricted to the unknowns alive at the end and renumbered in
increasing order, go to :func:`~superbracket.linalg.sparse_kernel_basis`,
and each kernel vector is written back with zeros at the dead unknowns
(:func:`_live_system`).  The kernel is the full system's, bit for bit:
every dead unknown's unit vector lies in its row span, and a monotone
renumbering keeps the pivots, the free columns and the values.  In a
dense basis no e_x is diagonal, and relation 2 is collected at every x.
For the 124 systems of the benchmark sweep (F_5 and F_7 up to odd
dimension 8, where H is diagonal) the weights kill 6,950 of the 8,967
unknowns; the solver collects 5,978 of the 8,967 relation-2 instances
and 2,568 of the 7,682 relation-1 instances, and hands the eliminator
294 rows on 132 unknowns.  The eliminator still peels forced columns
before it pivots, as structured Gaussian elimination does (LaMacchia and
Odlyzko, CRYPTO 1990).  The rows reach it in the generator's order,
relation 1 first, because fraction-free pivoting depends on row order.
The weights settle no row, so they leave that order as it was.  A naive
all-triples dense assembly, solved by a dense Gauss-Jordan, is kept in
the test suite as an oracle for this deduplication.

:func:`sweep_irrep_sums` solves one system per direct sum of irreducibles.
The systems are independent, so it splits them across the CPUs this
process may use (:func:`_solve_split`): with n processes the parent forks
n - 1 workers with bare ``os.fork`` and a pipe each (starting a
``multiprocessing`` pool takes tens of milliseconds, as much as the split
saves), worker i solves every n-th composition from i, and
the parent solves its own share and merges the dimensions by index.  Every
system goes through the same :func:`odd_bracket_space` whatever n is, so
the rows are identical.  n is 1 where ``os.fork`` is missing, where another
thread runs (a forked child inherits its locks held), where only one CPU
is usable, and where the sweep holds too few unknowns to pay for a fork.
"""

from __future__ import annotations

import marshal
import os
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Sequence

from .fields import Field
from .linalg import Matrix, sparse_kernel_basis
from .sl2 import IrrepSpec, RepMatrices, build_irrep
from .superalgebra import (
    SuperAlgebra,
    _Relations,
    _supported_triples,
    action_nonzeros,
    clear_denominators,
    representation_failures,
)

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


def _weight_kills(rel: _Relations, act, x: int, p: int | None) -> list | None:
    """The unknowns that relation 2 at x forces to zero, read off the weights
    when e_x acts diagonally on the module (e_x(f_w) = lam_w f_w) and on the
    even part ([e_x, e_z] = mu_z e_z); None otherwise.  Then the instance
    (x, u, v) has one equation per even output y, (mu_y - lam_u - lam_v)
    times unknown base[u][v] + y, which kills that unknown where the
    coefficient is nonzero (mod p): the single-entry rows that collecting
    the instance would give, and no other row."""
    lam = _diagonal(act[x])
    mu = None if lam is None else _diagonal(rel.ecols[x])
    if mu is None:
        return None
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


def _live_relation_1(rel: _Relations, act, dead: set):
    """The instances of relation 1 at which some unknown outside ``dead``
    meets a nonempty column, in the generator's order and with its terms:
    the only ones that give a row once ``dead`` is left out.  They are
    found as the union over x of :func:`_supported_triples` for S_x, the
    pairs whose x-th unknown is alive, and L_x, the odd indices that e_x
    moves, since unknown base[u][v] + x of a term carries e_x(f_w)."""
    layers = []
    for x, plane in enumerate(act):
        support = [0] * rel.d1
        for u, row in enumerate(rel.base):
            for v in range(u, rel.d1):
                if row[v] + x not in dead:
                    support[u] |= 1 << v
                    support[v] |= 1 << u
        layers.append((support, [bool(col) for col in plane]))
    return rel.relation_1(_supported_triples(layers))


def _live_system(rows: list, dead: set, n: int) -> tuple[list, list]:
    """``(rows, live)``: the kept ``rows`` restricted to the ``live``
    unknowns, those of the n outside ``dead``, renumbered in increasing
    order.  The dead unknowns' unit vectors span with the rows, so the
    kernel is zero at each of them and, on the live ones, that of the
    restricted rows: with the columns in the same order, the eliminator
    picks the same pivots and free columns and gives the same values."""
    live = [k for k in range(n) if k not in dead]
    new = [0] * n  # new[k]: the number of live unknown k
    for i, k in enumerate(live):
        new[k] = i
    kept = []
    for row in rows:
        if dead.isdisjoint(row):  # most rows: renumbered in C
            kept.append(dict(zip(map(new.__getitem__, row), row.values())))
        elif r := {new[k]: c for k, c in row.items() if k not in dead}:
            kept.append(r)
    return kept, live


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
    bracket = [[[field.coerce(c) for c in row] for row in plane] for plane in even_bracket]
    # every equation is linear in (bracket, action) jointly, so clearing both
    # by one D scales each row by D and keeps its span
    _, (bracket, action) = clear_denominators(
        field, (bracket, [m.transpose().data for m in action_mats])
    )
    act = action_nonzeros(action)
    failures = representation_failures(field, bracket, act)
    if failures:
        raise NotARepresentation(failures)
    p = field.p if field.kind == "prime" else None
    rel = _Relations(bracket, act)
    dead: set[int] = set()
    off_diagonal = []  # the x at which relation 2 is collected
    for x in range(d0):
        kills = _weight_kills(rel, act, x, p)
        if kills is None:
            off_diagonal.append(x)
        else:
            dead.update(kills)
    later: list[dict] = []  # relation 2, then the cubic
    for _, _, terms in rel.relation_2(product(off_diagonal, rel._pairs())):
        _append_rows(later, terms, dead, p)
    if mode == "char3":
        for _, _, terms in rel.cubic():
            _append_rows(later, terms, dead, p)
    # The rows keep the generator's order, since fraction-free pivoting
    # depends on it: relation-2 rows first make sl(2) + (4,3,2,1) in a
    # random basis over Q about ten times slower.
    rows: list[dict] = []
    for _, _, terms in _live_relation_1(rel, act, dead):
        _append_rows(rows, terms, dead, p)
    rows += later
    n = d0 * d1 * (d1 + 1) // 2
    rows, live = _live_system(rows, dead, n)
    base = rel.base
    zero = field.zero()
    basis = []
    for flat in sparse_kernel_basis(field, rows, len(live)):
        e = [zero] * n
        for k, c in zip(live, flat.entries):
            e[k] = c
        tensor = [[e[base[u][v] : base[u][v] + d0] for v in range(d1)] for u in range(d1)]
        basis.append(tuple(tuple(plane) for plane in tensor))
    return OddBracketSpace(field, d0, d1, tuple(basis))


def odd_bracket_space_of(g: SuperAlgebra, mode: str | None = None) -> OddBracketSpace:
    """Solution space for g's own even part and action (its odd bracket is
    ignored -- this asks what brackets *could* live on the module).  The
    mode defaults to g's own, so a char2 document is refused."""
    mats = [g.action_matrix(i) for i in range(g.dim_even)]
    space = odd_bracket_space(g.field, g.bracket, mats, mode=mode or g.mode)
    # with no even part there is no action matrix to read d1 off
    return replace(space, dim_odd=g.dim_odd)


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


# The least work, in unknowns, that a process of a split sweep takes on.
# Measured on a shared 2-vCPU Xeon (Python 3.11.7), serial against split in
# two, median of 15 alternating runs each, over sweeps of F_5 and F_7 up to
# odd dimension 3-8, with relation 2 settled by weights: a serial sweep
# takes 12-17 us per unknown at 540-1,233 unknowns (6-10 us at
# 4,206-4,761).  At 540 unknowns in all (F_5 and F_7 up to 5) one worker
# lost in five of eight runs, by up to 2.7 ms, and won three by at most
# 0.85 ms; at 1,170-1,233 (up to 6) it won all eight, by 1.8-3.1 ms.  The
# gain, interpolated, crosses zero at about 550-700 unknowns, so a worker
# still starts from 700.  No sweep holds between 540 and 1,170 unknowns, so
# any value from 271 to 585 splits the same sweeps on 2 CPUs.  Only the
# split in two was measured: on 3 or more CPUs a sweep of 1,050 unknowns
# or more forks more than one worker, an unmeasured count.
_UNKNOWNS_PER_PROCESS = 350


def _process_count(jobs: int, work: int) -> int:
    """How many processes share ``jobs`` independent jobs of ``work`` units
    in all: one per CPU this process may use, at most one per job and at
    least ``_UNKNOWNS_PER_PROCESS`` units each; 1 where fork is missing or
    unsafe (another thread may hold a lock the child would inherit held)."""
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, jobs, work // _UNKNOWNS_PER_PROCESS))


def _serve(pipe: int, solve, jobs) -> None:
    """A forked worker's whole life: solve ``jobs``, write the results to
    ``pipe`` (``b"r"`` and their ``marshal`` bytes: marshal is built in,
    where importing pickle in every worker would cost it milliseconds) or
    the exception (``b"e"`` and a pickled ``(exception, traceback text)``),
    and leave by ``os._exit``, so nothing of the parent's (buffers, atexit
    hooks, a caller's ``finally``) runs twice.  A worker that cannot write
    its reply leaves with nothing written."""
    code = 1
    try:
        try:
            data = b"r" + marshal.dumps([solve(job) for job in jobs])
        except BaseException as exc:  # raised again by the parent
            import pickle
            import traceback

            data = b"e" + pickle.dumps((exc, traceback.format_exc()))
        with open(pipe, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)


def _solve_split(solve, jobs: list, work: int) -> list:
    """``[solve(job) for job in jobs]``, the jobs split across processes.

    With n processes (:func:`_process_count`; n = 1 is the serial case) the
    parent forks n - 1 workers, worker i solves ``jobs[i::n]`` and sends its
    results down a pipe, the parent solves ``jobs[::n]`` and merges the
    results by index, so the list is the one the serial loop returns.
    Results must be ``marshal``-able (the sweep's are ints).  A worker's
    exception is raised again here, chained to its traceback.  Every worker
    is reaped before this returns or raises; on any failure the parent
    kills them first.
    """
    n = _process_count(len(jobs), work)
    pids, pipes = [], []
    try:
        for i in range(1, n):
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(w, solve, jobs[i::n])
            finally:
                os.close(w)  # only the worker writes; EOF once it is done
            pids.append(pid)
        results = [None] * len(jobs)
        results[::n] = [solve(job) for job in jobs[::n]]
        for i, r in enumerate(pipes, 1):
            with open(r, "rb", closefd=False) as stream:
                data = stream.read()
            if data[:1] == b"r":
                results[i::n] = marshal.loads(data[1:])
            elif data[:1] == b"e":
                import pickle

                exc, text = pickle.loads(data[1:])
                raise exc from RuntimeError(f"in sweep worker {i} of {n}:\n{text}")
            else:
                raise RuntimeError(f"sweep worker {i} of {n} exited without a result")
        return results
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in pipes:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


def sweep_irrep_sums(field: Field, max_odd_dim: int) -> list[SweepRow]:
    """Solution dimension for every direct sum of standard-parameter
    irreducibles (alpha = m, beta = 0, dimension <= p) with total dimension
    up to max_odd_dim, over F_5 or F_7; the systems are split across the
    CPUs this process may use (:func:`_solve_split`), with the same rows."""
    if field.kind != "prime" or field.p not in (5, 7):
        raise ValueError("the sweep is budgeted for F_5 and F_7")
    if max_odd_dim > 8:
        raise ValueError("the sweep is budgeted for odd dimension <= 8")
    if max_odd_dim < 1:
        raise ValueError("the sweep needs odd dimension >= 1")
    from .constructions import sl2_algebra

    even = sl2_algebra(field)
    irreps = {
        d: build_irrep(IrrepSpec.standard_params(field, d - 1), field)
        for d in range(1, min(field.p, max_odd_dim) + 1)
    }
    comps = [
        comp
        for total in range(1, max_odd_dim + 1)
        for comp in _partitions_desc(total, field.p)
    ]

    def dimension(comp):
        rep = RepMatrices.direct_sum([irreps[d] for d in comp])
        return odd_bracket_space(field, even.bracket, list(rep.matrices())).dimension

    d0 = len(even.bracket)
    unknowns = sum(d0 * sum(c) * (sum(c) + 1) // 2 for c in comps)
    dims = _solve_split(dimension, comps, unknowns)
    return [SweepRow(field.p, comp, dim) for comp, dim in zip(comps, dims)]
