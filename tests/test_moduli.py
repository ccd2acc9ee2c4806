import hashlib
import os
import threading
from fractions import Fraction
from math import lcm

import pytest

from conftest import collected_rows, dense_kernel, random_invertible, random_monomial

from superbracket import moduli
from superbracket.classify import classify
from superbracket.constructions import build_char2_example, build_osp12, sl2_algebra
from superbracket.fields import GF, QQ
from superbracket.linalg import Matrix, Vector, sparse_kernel_basis
from superbracket.moduli import (
    NotARepresentation,
    UnsupportedMode,
    odd_bracket_space,
    odd_bracket_space_of,
    solution_to_algebra,
    sweep_irrep_sums,
)
from superbracket.sl2 import IrrepSpec, RepMatrices, build_irrep
from superbracket.superalgebra import (
    SuperAlgebra,
    action_nonzeros,
    clear_denominators,
    compatibility_equations,
    representation_failures,
    validate,
)

F5 = GF(5)
F7 = GF(7)


def space_for(field, dims, mode="standard"):
    even = sl2_algebra(field)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims]
    )
    return even, rep, odd_bracket_space(
        field, even.bracket, list(rep.matrices()), mode=mode
    )


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("dim,expected", [(1, 0), (2, 1), (3, 0), (4, 0)])
def test_single_irrep_dimensions(field, dim, expected):
    _, _, space = space_for(field, (dim,))
    assert space.dimension == expected


def test_dim5_only_vanishes():
    assert space_for(QQ, (5,))[2].dimension == 0
    assert space_for(F7, (5,))[2].dimension == 0


def test_standard_solution_is_the_moment_line():
    for field in (QQ, F5):
        _, _, space = space_for(field, (2,))
        assert space.dimension == 1
        tensor = space.basis[0]
        gamma = tensor[0][1][1]  # {e0,e1} = gamma H
        assert gamma
        expected = {
            (0, 0): (field.mul(field.from_int(-2), gamma), field.zero(), field.zero()),
            (0, 1): (field.zero(), gamma, field.zero()),
            (1, 1): (field.zero(), field.zero(), field.mul(field.from_int(2), gamma)),
        }
        for (u, v), row in expected.items():
            assert tuple(tensor[u][v]) == row


def test_adjoint_plus_trivial_line():
    even, rep, space = space_for(QQ, (3, 1))
    assert space.dimension == 1
    # the basis element vanishes on adjoint x adjoint and pairs the adjoint
    # copy with the trivial line by an invertible equivariant map
    tensor = space.basis[0]
    for u in range(3):
        for v in range(3):
            assert not any(tensor[u][v])
    assert not any(tensor[3][3])
    psi = Matrix(QQ, [[tensor[v][3][k] for v in range(3)] for k in range(3)])
    assert psi.det()
    for x, ad_x in enumerate([even.ad(i) for i in range(3)]):
        module_block = Matrix(
            QQ,
            [[rep.matrices()[x].data[w][v] for v in range(3)] for w in range(3)],
        )
        assert psi @ module_block == ad_x @ psi


def test_trivial_modules_have_no_brackets():
    for n in range(1, 5):
        _, _, space = space_for(QQ, tuple([1] * n))
        assert space.dimension == 0


def test_dim4_plus_trivial_vanishes():
    assert space_for(QQ, (4, 1))[2].dimension == 0
    assert space_for(F5, (4, 1))[2].dimension == 0


def naive_space(field, even_bracket, mats, mode="standard"):
    """Independent all-ordered-triples assembly of the same linear system,
    as dense rows, solved by the dense Gauss-Jordan oracle.  mode "char3"
    adds the diagonal rows {f_a,f_a}(f_a) = 0: in characteristic 3 they
    are what the cubic identity imposes beyond the trilinear relation."""
    d0 = len(even_bracket)
    d1 = mats[0].rows if mats else 0
    pairs = [(u, v) for u in range(d1) for v in range(u, d1)]
    lookup = {p: i for i, p in enumerate(pairs)}

    def unknown(u, v, x):
        key = (u, v) if u <= v else (v, u)
        return lookup[key] * d0 + x

    n = len(pairs) * d0
    rows = []
    for u in range(d1):
        for v in range(d1):
            for w in range(d1):
                for t in range(d1):
                    row = [field.zero()] * n
                    for (a, b, c) in ((u, v, w), (v, w, u), (w, u, v)):
                        for x in range(d0):
                            coeff = mats[x].data[t][c]
                            if coeff:
                                k = unknown(a, b, x)
                                row[k] = field.add(row[k], coeff)
                    rows.append(row)
    for x in range(d0):
        for u in range(d1):
            for v in range(d1):
                for y in range(d0):
                    row = [field.zero()] * n
                    for z in range(d0):
                        coeff = even_bracket[x][z][y]
                        if coeff:
                            k = unknown(u, v, z)
                            row[k] = field.add(row[k], coeff)
                    for w in range(d1):
                        cu = mats[x].data[w][u]
                        if cu:
                            k = unknown(w, v, y)
                            row[k] = field.sub(row[k], cu)
                        cv = mats[x].data[w][v]
                        if cv:
                            k = unknown(u, w, y)
                            row[k] = field.sub(row[k], cv)
                    rows.append(row)
    if mode == "char3":
        for a in range(d1):
            for t in range(d1):
                row = [field.zero()] * n
                for x in range(d0):
                    row[unknown(a, a, x)] = mats[x].data[t][a]
                rows.append(row)
    return [Vector(field, v) for v in dense_kernel(field, rows, n)]


def flatten(space):
    """Solution tensors as vectors in the solver's unknown order."""
    d1 = space.dim_odd
    flat = []
    for tensor in space.basis:
        entries = []
        for u in range(d1):
            for v in range(u, d1):
                entries.extend(tensor[u][v])
        flat.append(Vector(space.field, entries))
    return flat


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (2, 1), (1, 1), (3, 1), (3, 1, 1)])
def test_deduplicated_system_matches_naive_assembly(dims):
    even, rep, space = space_for(F5, dims)
    naive = naive_space(F5, even.bracket, list(rep.matrices()))
    assert flatten(space) == naive


@pytest.mark.parametrize("field", [QQ, F7, GF(10**9 + 7)], ids=str)
@pytest.mark.parametrize("dims", [(2,), (3, 1), (2, 1, 1), (2, 2), (4, 1)])
def test_sparse_assembly_matches_naive_oracle(field, dims, rng):
    # standard bases, then the module conjugated so the action is dense,
    # then in a monomial basis, where the solver's dead unknowns grow in a
    # shuffled column order
    even = sl2_algebra(field)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims]
    )
    for module in (
        rep,
        rep.conjugated(random_invertible(field, rep.dim, rng)),
        rep.conjugated(random_monomial(field, rep.dim, rng)),
    ):
        mats = list(module.matrices())
        space = odd_bracket_space(field, even.bracket, mats)
        assert flatten(space) == naive_space(field, even.bracket, mats)


def spy_rows(monkeypatch):
    """The list that collects the rows of each sparse_kernel_basis call of
    the solver."""
    seen = []
    real = moduli.sparse_kernel_basis

    def spy(f, rows, n_cols):
        seen.append(rows)
        return real(f, rows, n_cols)

    monkeypatch.setattr(moduli, "sparse_kernel_basis", spy)
    return seen


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_assembled_rows_hold_nonzero_raw_entries(field, rng, monkeypatch):
    # the solver hands its equations to the kernel uncoerced: every entry
    # must already be a nonzero raw field element in range, over Q a
    # nonzero int, since the solver clears the denominators of its tensors
    seen = []
    real = moduli.sparse_kernel_basis

    def spy(f, rows, n_cols):
        seen.append((rows, n_cols))
        return real(f, rows, n_cols)

    monkeypatch.setattr(moduli, "sparse_kernel_basis", spy)
    even = sl2_algebra(field)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in (3, 2, 1)]
    )
    for module in (rep, rep.conjugated(random_invertible(field, rep.dim, rng))):
        odd_bracket_space(field, even.bracket, list(module.matrices()))
    assert len(seen) == 2
    for row, n_cols in ((row, n) for rows, n in seen for row in rows):
        assert row
        for k, x in row.items():
            assert 0 <= k < n_cols and x
            assert type(x) is int
            if field.kind == "prime":
                assert 0 < x < field.p


@pytest.mark.parametrize(
    "field,dims,mode",
    [(F7, (5, 3, 3, 1), "standard"), (QQ, (4, 3, 2, 1), "standard"), (GF(3), (3, 2, 1), "char3")],
    ids=str,
)
def test_solver_drops_settled_unknowns_and_keeps_the_span(field, dims, mode, rng, monkeypatch):
    # the solver leaves out the blocks of unknowns already forced to zero by
    # a single-entry row: far fewer rows, the same row span as every
    # instance collected in full
    seen = spy_rows(monkeypatch)
    even = sl2_algebra(field)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims]
    )
    mats = list(rep.conjugated(random_monomial(field, rep.dim, rng)).matrices())
    odd_bracket_space(field, even.bracket, mats, mode=mode)
    (rows,) = seen
    act = action_nonzeros([m.transpose().data for m in mats])
    p = field.p if field.kind == "prime" else None
    full = [
        row
        for _, _, blocks in compatibility_equations(even.bracket, act, mode)
        for row in collected_rows(blocks, p)
    ]
    n = len(even.bracket) * rep.dim * (rep.dim + 1) // 2
    assert sparse_kernel_basis(field, rows, n) == sparse_kernel_basis(field, full, n)
    assert 3 * len(rows) < len(full)


@pytest.mark.parametrize(
    "field,dims,mode,digest",
    [
        (F7, (5, 3, 3, 1), "standard", "4cfe1e8125c95a834b25c75b031d9fcf04a1f6d8f77d99e5bb13c0b8ebbec26c"),
        (QQ, (4, 3, 2, 1), "standard", "01651a93b49dd9a99e68e78b226626df0477fab3519da6fab302f1790e781a9d"),
        (GF(3), (3, 2, 1), "char3", "cf0476d57533e56ccef2c7e9922db2b6f2ebe384e5ff0c077b5abf5e121c3186"),
    ],
    ids=["F_7-5331", "Q-4321", "F_3-321-char3"],
)
def test_solver_rows_are_pinned(field, dims, mode, digest, monkeypatch):
    # sha256 of repr(rows) handed to the eliminator in the standard basis:
    # every row, the order of its entries and the order of the rows are
    # pinned, since fraction-free pivoting depends on row order.  The Q
    # module's entries are integers, so the solver clears them by D = 1 and
    # its rows are those of the raw tensors, each Fraction(n, 1) as the int n
    seen = spy_rows(monkeypatch)
    space_for(field, dims, mode)
    (rows,) = seen
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def oracle_solver_rows(field, bracket, mats, mode="standard"):
    """The rows the solver hands to the eliminator, from the oracle
    collector on the raw tensors: relation 2 and the cubic collected first,
    then relation 1, each instance without the unknowns that the
    single-entry rows collected before it killed; returned in the
    generator's order, relation 1 first."""
    act = action_nonzeros([m.transpose().data for m in mats])
    p = field.p if field.kind == "prime" else None
    dead: set = set()

    def live(terms):
        rows = collected_rows(terms, p, dead)
        dead.update(k for row in rows if len(row) == 1 for k in row)
        return rows

    held, rows, cubic = [], [], []
    for identity, _, terms in compatibility_equations(bracket, act, mode):
        if identity == "relation_1":
            held.append(terms)
        elif identity == "relation_2":
            rows += live(terms)
        else:
            cubic += live(terms)
    return [row for terms in held for row in live(terms)] + rows + cubic


@pytest.mark.parametrize("dims", [(2, 1), (3, 1), (2, 2)])
def test_solver_rows_are_the_oracle_rows_times_the_common_denominator(dims, rng, monkeypatch):
    # over Q the solver clears the bracket and the action by one D, so each
    # row it hands on is D times the row the raw Fraction tensors give, with
    # the rows and each row's entries in the same order.  Only standard mode
    # runs over Q, and over F_p, D = 1.
    seen = spy_rows(monkeypatch)
    even = sl2_algebra(QQ)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(QQ, d - 1), QQ) for d in dims]
    )
    for t in (random_invertible(QQ, rep.dim, rng), random_monomial(QQ, rep.dim, rng)):
        mats = list(rep.conjugated(t).matrices())
        entries = [x for plane in even.bracket for row in plane for x in row]
        entries += [x for m in mats for row in m.data for x in row]
        d = lcm(*(x.denominator for x in entries))
        assert d > 1
        space = odd_bracket_space(QQ, even.bracket, mats)
        rows = seen.pop()
        oracle = oracle_solver_rows(QQ, even.bracket, mats)
        assert [list(row.items()) for row in rows] == [
            [(k, d * c) for k, c in row.items()] for row in oracle
        ]
        assert all(type(x) is int for row in rows for x in row.values())
        assert flatten(space) == naive_space(QQ, even.bracket, mats)


def test_solver_keeps_fractions_past_the_cut_off(monkeypatch):
    # a module in a diagonal basis of prime powers, whose action's
    # denominators have an lcm past the 2048-bit cut-off of
    # clear_denominators: the tensors stay Fractions, the same collection
    # pass runs on them, and the kernel is the oracle's
    seen = spy_rows(monkeypatch)
    even = sl2_algebra(QQ)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(QQ, d - 1), QQ) for d in (3, 1, 1)]
    )
    n, primes = rep.dim, (2, 3, 5, 7, 11)
    t = Matrix(QQ, [[Fraction(primes[i]) ** 600 if i == j else 0 for j in range(n)] for i in range(n)])
    mats = list(rep.conjugated(t).matrices())
    action = [m.transpose().data for m in mats]
    assert lcm(*(x.denominator for plane in action for row in plane for x in row)).bit_length() > 2048
    assert clear_denominators(QQ, (even.bracket, action))[0] == 1
    space = odd_bracket_space(QQ, even.bracket, mats)
    (rows,) = seen
    assert [list(row.items()) for row in rows] == [
        list(row.items()) for row in oracle_solver_rows(QQ, even.bracket, mats)
    ]
    assert all(type(x) is Fraction for row in rows for x in row.values())
    assert any(x.denominator > 1 for row in rows for x in row.values())
    assert space.dimension == 2
    assert flatten(space) == naive_space(QQ, even.bracket, mats)


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_space_without_an_even_part_reports_the_odd_dimension(field):
    # no action matrix to read d1 off: the space reports g's own dimensions
    space = odd_bracket_space_of(SuperAlgebra.from_entries(field, 0, 3))
    assert (space.dim_even, space.dim_odd, space.dimension) == (0, 3, 0)


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (2, 1), (3, 1), (2, 2)])
def test_char3_assembly_matches_naive_oracle(dims, rng):
    f3 = GF(3)
    even = sl2_algebra(f3)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(f3, d - 1), f3) for d in dims]
    )
    for module in (
        rep,
        rep.conjugated(random_invertible(f3, rep.dim, rng)),
        rep.conjugated(random_monomial(f3, rep.dim, rng)),
    ):
        mats = list(module.matrices())
        space = odd_bracket_space(f3, even.bracket, mats, mode="char3")
        assert flatten(space) == naive_space(f3, even.bracket, mats, mode="char3")


@pytest.mark.parametrize(
    "mats",
    [
        [[[0, 0], [2, 0]]],  # one even line acting nilpotently on 2 odd
        [[[0, 0, 0], [0, 1, 1], [0, 2, 2]]],
        [[[1, 1], [2, 2]], [[0, 0], [0, 0]]],  # two commuting even lines
    ],
)
def test_char3_cubic_rows_bite_on_an_abelian_even_part(mats, rng):
    # over sl(2) no module separates the modes; with an abelian even part
    # the diagonal rows cut the space, so the oracle sees them
    f3 = GF(3)
    d0 = len(mats)
    zero = [[[0] * d0 for _ in range(d0)] for _ in range(d0)]
    mats = [Matrix(f3, m) for m in mats]
    t = random_invertible(f3, mats[0].rows, rng)
    t_inv = t.inverse()
    for module in (mats, [t_inv @ m @ t for m in mats]):
        standard = odd_bracket_space(f3, zero, module)
        space = odd_bracket_space(f3, zero, module, mode="char3")
        assert space.dimension < standard.dimension
        assert flatten(space) == naive_space(f3, zero, module, mode="char3")
        assert flatten(standard) == naive_space(f3, zero, module)


def test_char3_example_matches_naive_oracle():
    from superbracket.constructions import build_char3_example

    g = build_char3_example()
    mats = [g.action_matrix(i) for i in range(g.dim_even)]
    space = odd_bracket_space_of(g)
    assert space.dimension
    assert flatten(space) == naive_space(g.field, g.bracket, mats, mode="char3")


def test_solutions_assemble_to_valid_algebras():
    for field, dims in [(QQ, (2,)), (F5, (2, 1)), (F5, (3, 1)), (QQ, (3, 1, 1))]:
        even, rep, space = space_for(field, dims)
        g0 = solution_holder(field, even, rep)
        for i in range(space.dimension):
            g = solution_to_algebra(g0, space, i)
            assert validate(g).ok


def solution_holder(field, even, rep):
    from superbracket.constructions import assemble

    return assemble(even, rep, ())


def test_standard_solutions_classify_as_osp12():
    for field in (QQ, F5):
        even, rep, space = space_for(field, (2,))
        g = solution_to_algebra(solution_holder(field, even, rep), space, 0)
        result = classify(g)
        assert result.case == "C" and result.centre_dim == 0


def test_dimension_invariant_under_module_base_change(rng):
    even = sl2_algebra(F5)
    for dims in [(2,), (3, 1), (2, 1), (4,)]:
        rep = RepMatrices.direct_sum(
            [build_irrep(IrrepSpec.standard_params(F5, d - 1), F5) for d in dims]
        )
        base = odd_bracket_space(F5, even.bracket, list(rep.matrices())).dimension
        for _ in range(3):
            t = random_invertible(F5, rep.dim, rng)
            conj = rep.conjugated(t)
            dim = odd_bracket_space(
                F5, even.bracket, list(conj.matrices())
            ).dimension
            assert dim == base


def test_char3_space_contains_the_example():
    from superbracket.constructions import build_char3_example

    g = build_char3_example()
    space = odd_bracket_space_of(g)
    assert g.mode == "char3"
    # flatten g's own bracket and check membership in the solution span
    d0, d1 = g.dim_even, g.dim_odd
    target = []
    for u in range(d1):
        for v in range(u, d1):
            target.extend(g.odd_bracket[u][v])
    cols = []
    for tensor in space.basis:
        entries = []
        for u in range(d1):
            for v in range(u, d1):
                entries.extend(tensor[u][v])
        cols.append(Vector(g.field, entries))
    from superbracket.linalg import Span

    assert Span(g.field, cols, len(target)).coordinates(Vector(g.field, target)) is not None


def test_solver_rejects_non_representations():
    even = sl2_algebra(QQ)
    bogus = [Matrix.identity(QQ, 2)] * 3
    with pytest.raises(ValueError, match="represent"):
        odd_bracket_space(QQ, even.bracket, bogus)


def test_solver_names_the_failing_pairs_like_validate():
    g = build_osp12(QQ)
    action = [[list(r) for r in plane] for plane in g.action]
    action[0][1][0] *= 2  # e_0(f_1) = 2 f_0: no longer a representation
    bad = SuperAlgebra.from_tensors(QQ, g.bracket, action, g.odd_bracket)
    expected = [v.indices for v in validate(bad).violations if v.identity == "representation"]
    assert expected
    assert representation_failures(QQ, bad.bracket, action_nonzeros(bad.action)) == expected
    with pytest.raises(NotARepresentation) as info:
        odd_bracket_space_of(bad)
    assert list(info.value.pairs) == expected
    assert representation_failures(QQ, g.bracket, action_nonzeros(g.action)) == []


def test_char2_documents_are_refused():
    g = build_char2_example()
    with pytest.raises(UnsupportedMode, match="char2"):
        odd_bracket_space_of(g)
    mats = [g.action_matrix(i) for i in range(g.dim_even)]
    with pytest.raises(UnsupportedMode):
        odd_bracket_space(g.field, g.bracket, mats, mode="char2")


def test_sweep_budget_guards():
    with pytest.raises(ValueError):
        sweep_irrep_sums(QQ, 4)
    with pytest.raises(ValueError):
        sweep_irrep_sums(F5, 9)


def test_sweep_rows_are_sorted_and_complete():
    rows = sweep_irrep_sums(F5, 3)
    comps = [r.composition for r in rows]
    assert comps == [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    by_comp = {r.composition: r.dimension for r in rows}
    assert by_comp[(2,)] == 1
    assert by_comp[(3,)] == 0


BENCHMARK_SWEEP_DIGEST = "789266f35e380a8afd9f2caa6e7f17ca2ae4f8e7a60ae5469543136055c15c80"


def benchmark_sweep_digest():
    """The sha256 of the (p, composition, dimension) rows of the sweep the
    benchmark runs: F_5 and F_7 up to odd dimension 8, 124 rows."""
    rows = [
        (r.p, r.composition, r.dimension)
        for field in (F5, F7)
        for r in sweep_irrep_sums(field, 8)
    ]
    assert len(rows) == 124
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_full_benchmark_sweep_is_pinned():
    # on the CPUs this process may use: split across them or serial
    assert benchmark_sweep_digest() == BENCHMARK_SWEEP_DIGEST


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the sweep may use, whatever the host has."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    return use


def forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("the sweep forked")

    monkeypatch.setattr(os, "fork", fork)


def test_sweep_split_in_two_gives_the_pinned_rows_and_reaps_its_worker(cpus, monkeypatch):
    cpus(2)
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert benchmark_sweep_digest() == BENCHMARK_SWEEP_DIGEST
    assert len(forks) == 2  # one worker for each of F_5 and F_7
    assert_no_child_process()


def test_sweep_on_one_cpu_is_serial_and_pinned(cpus, monkeypatch):
    cpus(1)
    forbid_fork(monkeypatch)
    assert benchmark_sweep_digest() == BENCHMARK_SWEEP_DIGEST


def test_sweep_beside_another_thread_does_not_fork(cpus, monkeypatch):
    cpus(2)
    forbid_fork(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert benchmark_sweep_digest() == BENCHMARK_SWEEP_DIGEST
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()


@pytest.mark.parametrize(
    "dim, worker", [(1, None), (2, "in sweep worker 1 of 2")], ids=["in-caller", "in-worker"]
)
def test_sweep_failure_is_raised_in_the_caller_and_reaps(cpus, monkeypatch, dim, worker):
    # F_5 up to 8 in two processes: the caller solves the even-indexed
    # compositions, (1,) among them, and the worker the odd-indexed ones,
    # (2,) among them; the patch is inherited by the fork
    cpus(2)
    real = moduli.odd_bracket_space
    target = list(build_irrep(IrrepSpec.standard_params(F5, dim - 1), F5).matrices())

    def failing(field, bracket, mats, *args, **kwargs):
        if list(mats) == target:
            raise ValueError(f"no solution space for ({dim},)")
        return real(field, bracket, mats, *args, **kwargs)

    monkeypatch.setattr(moduli, "odd_bracket_space", failing)
    with pytest.raises(ValueError, match=rf"^no solution space for \({dim},\)$") as info:
        sweep_irrep_sums(F5, 8)
    if worker:
        assert worker in str(info.value.__cause__)
    else:
        assert info.value.__cause__ is None
    assert_no_child_process()


def test_sweep_process_count_is_bounded(cpus, monkeypatch):
    unit = moduli._UNKNOWNS_PER_PROCESS
    cpus(8)
    assert moduli._process_count(100, 100 * unit) == 8  # one per CPU
    assert moduli._process_count(3, 100 * unit) == 3  # one per composition
    assert moduli._process_count(100, 5 * unit) == 5  # enough work for each
    assert moduli._process_count(100, unit - 1) == 1  # below the threshold
    cpus(1)
    assert moduli._process_count(100, 100 * unit) == 1
    cpus(8)
    monkeypatch.delattr(os, "fork")
    assert moduli._process_count(100, 100 * unit) == 1
