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
mod p once, or over Q stripped of its zero entries, and the rows go
straight to :func:`~superbracket.linalg.sparse_kernel_basis`.  Most of
those rows have a single entry: they force an unknown to vanish.  Most of
these singletons are relation-2 instances that force a weight-incompatible
coefficient to zero, so the solver collects the relation-2 instances
before the others and keeps the set of *dead* unknowns: the columns of the
single-entry rows collected so far.  Walking an instance's terms, it skips
every dead unknown, and a row that shrinks to one entry kills its own
unknown in turn.  The unit row of each dead unknown is itself
among the rows passed on, so dropping that unknown elsewhere changes no row span:
the reduced row echelon form and the kernel stay the same, from about a
quarter of the rows (7,287 instead of 27,273 for the 65 F_7 sweep systems).
The eliminator then peels the singletons before it pivots, as structured
Gaussian elimination does (LaMacchia and Odlyzko, CRYPTO 1990), deleting
each forced unknown from the other rows and peeling the rows that shrink
to one entry in turn, so only a small remainder is pivoted.  The rows
reach it in the generator's order, relation 1 first, because fraction-free
pivoting depends on row order.  A naive all-triples dense
assembly, solved by a dense Gauss-Jordan, is kept in the test suite as an
oracle for this deduplication.

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
from typing import Iterator, Sequence

from .fields import Field
from .linalg import Matrix, sparse_kernel_basis
from .sl2 import IrrepSpec, RepMatrices, build_irrep
from .superalgebra import (
    SuperAlgebra,
    action_nonzeros,
    clear_denominators,
    compatibility_equations,
    odd_unknowns,
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
    when it holds one; a row left with one entry adds its unknown to
    ``dead``.  Dicts are made on first use and a sum starts from its first
    term, since 0 + Fraction costs a full Fraction addition (past the
    cut-off of :func:`~superbracket.superalgebra.clear_denominators` the
    coefficients are Fractions)."""
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
    dead: set[int] = set()
    held, later = [], []  # relation 1; relation 2, then the cubic
    for identity, _, terms in compatibility_equations(bracket, act, mode):
        if identity == "relation_1":
            held.append(terms)  # collected once relation 2 has killed its unknowns
        else:
            _append_rows(later, terms, dead, p)
    # The rows keep the generator's order, since fraction-free pivoting
    # depends on it: relation-2 rows first make sl(2) + (4,3,2,1) in a
    # random basis over Q about ten times slower.
    rows: list[dict] = []
    for terms in held:
        _append_rows(rows, terms, dead, p)
    rows += later
    base = odd_unknowns(d0, d1)
    basis = []
    for flat in sparse_kernel_basis(field, rows, d0 * d1 * (d1 + 1) // 2):
        e = flat.entries
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
# Measured on a shared 2-vCPU Xeon (Python 3.11.7), median of 15 alternating
# runs each: a forked worker costs the parent about 3.5 ms (fork, the
# worker's start, reaping it), and the systems take about 20 us per unknown,
# so one worker broke even at about 540-1,200 unknowns in all (F_5 and F_7
# up to odd dimension 5 and 6) and won above: F_5 up to 8, 4,206 unknowns,
# went from 79 to 53 ms.
_UNKNOWNS_PER_PROCESS = 500


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
