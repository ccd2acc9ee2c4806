import hashlib
import os
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    action_matrix,
    collected_rows,
    columns,
    dense_kernel,
    dense_solution_to_algebra,
    module_algebra,
    nonzero_columns,
    random_invertible,
    random_monomial,
)

from superbracket import moduli
from superbracket.classify import classify
from superbracket.constructions import assemble, build_char2_example, build_osp12, sl2_algebra
from superbracket.fields import GF, QQ, FieldError
from superbracket.linalg import Matrix, Vector, sparse_kernel_basis
from superbracket.moduli import (
    NotARepresentation,
    OddBracketSpace,
    UnsupportedMode,
    odd_bracket_space,
    solution_to_algebra,
    sweep_irrep_sums,
)
from superbracket.sl2 import IrrepSpec, RepMatrices, build_irrep
from superbracket.superalgebra import (
    ShapeError,
    SuperAlgebra,
    _even_system,
    _Relations,
    _supported_pairs,
    _supported_triples,
    clear_denominators,
    compatibility_equations,
    odd_unknowns,
    representation_failures,
    validate,
)

F5 = GF(5)
F7 = GF(7)


def space_for(field, dims):
    even = sl2_algebra(field)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims]
    )
    return even, rep, odd_bracket_space(module_algebra(field, even.bracket, list(rep.matrices())))


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
        space = odd_bracket_space(module_algebra(field, even.bracket, mats))
        assert flatten(space) == naive_space(field, even.bracket, mats)


def spy_rows(monkeypatch):
    """The list that collects (rows, labels) of each sparse_kernel_basis
    call of the solver: the rows and the column labels it hands over."""
    seen = []
    real = moduli.sparse_kernel_basis

    def spy(f, rows, labels):
        seen.append((rows, labels))
        return real(f, rows, labels)

    monkeypatch.setattr(moduli, "sparse_kernel_basis", spy)
    return seen


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_assembled_rows_hold_nonzero_raw_entries(field, rng, monkeypatch):
    # the solver hands its equations to the kernel uncoerced: every entry
    # must already be a nonzero raw field element in range, over Q a
    # nonzero int, since the solver clears the denominators of its tensors
    seen = spy_rows(monkeypatch)
    even = sl2_algebra(field)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in (3, 2, 1)]
    )
    for module in (rep, rep.conjugated(random_invertible(field, rep.dim, rng))):
        odd_bracket_space(module_algebra(field, even.bracket, list(module.matrices())))
    assert len(seen) == 2
    for row, labels in ((row, set(labels)) for rows, labels in seen for row in rows):
        assert row
        for k, x in row.items():
            assert k in labels and x
            assert type(x) is int
            if field.kind == "prime":
                assert 0 < x < field.p


def live_system(rows, n):
    """``(rows, labels)`` of the system the solver hands the eliminator,
    derived from the oracle's ``rows`` on n columns: the single-entry rows
    dropped, the others restricted to the columns that no single-entry row
    kills, and the rows left empty dropped; the labels are those columns,
    in increasing order.  The columns keep their unknown numbers: the
    eliminator sees the same system up to the numbering of its columns,
    since it compares them by order only."""
    dead = {k for row in rows if len(row) == 1 for k in row}
    restricted = [{k: c for k, c in row.items() if k not in dead} for row in rows if len(row) > 1]
    return [row for row in restricted if row], [k for k in range(n) if k not in dead]


def unknown_count(even, dim):
    return len(even.bracket) * dim * (dim + 1) // 2


@pytest.mark.parametrize(
    "field,dims,mode",
    [(F7, (5, 3, 3, 1), "standard"), (QQ, (4, 3, 2, 1), "standard"), (GF(3), (3, 2, 1), "char3")],
    ids=str,
)
def test_solver_drops_settled_unknowns_and_keeps_the_span(field, dims, mode, rng, monkeypatch):
    # the solver leaves out the unknowns forced to zero by a single-entry
    # row, those rows themselves and the relation-1 instances that hold
    # only such unknowns: far fewer rows, the oracle's rows on the live
    # columns, and the kernel of every instance collected in full
    seen = spy_rows(monkeypatch)
    even = sl2_algebra(field)
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims]
    )
    mats = list(rep.conjugated(random_monomial(field, rep.dim, rng)).matrices())
    space = odd_bracket_space(module_algebra(field, even.bracket, mats))
    ((rows, labels),) = seen
    n = unknown_count(even, rep.dim)
    oracle, live = live_system(oracle_solver_rows(field, even.bracket, mats, mode), n)
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in oracle]
    assert labels == live
    act = columns(mats)
    p = field.p if field.kind == "prime" else None
    full = [
        row
        for _, _, blocks in compatibility_equations(nonzero_columns(even.bracket), act, mode)
        for row in collected_rows(blocks, p)
    ]
    assert list(space.vectors) == sparse_kernel_basis(field, full, range(n))
    assert 3 * len(rows) < len(full) and len(labels) < n


# sha256 of "[]": every unknown of these systems dies before elimination
EMPTY_ROWS_DIGEST = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"


@pytest.mark.parametrize(
    "field,dims,mode,digest",
    [
        (F7, (5, 3, 3, 1), "standard", EMPTY_ROWS_DIGEST),
        (QQ, (4, 3, 2, 1), "standard", EMPTY_ROWS_DIGEST),
        (GF(3), (3, 2, 1), "char3", EMPTY_ROWS_DIGEST),
        (QQ, (3, 1, 1, 1), "standard", "1b61bca8ebb21dee933ef08dcad74d5f9575ea8bb7c9b02813eb8010b23aec38"),
        (GF(3), (3, 1, 1), "char3", "62ed853bb913c07d03e1cf6ff0fac266e5a6baac5eaa3952294662c5338c501d"),
    ],
    ids=["F_7-5331", "Q-4321", "F_3-321-char3", "Q-3111", "F_3-311-char3"],
)
def test_solver_rows_are_pinned(field, dims, mode, digest, monkeypatch):
    # sha256 of repr(rows) handed to the eliminator in the standard basis,
    # each row under its own unknown numbers: every row, the order of its
    # entries and the order of the rows are pinned, since fraction-free
    # pivoting depends on row order.  Only the
    # modules with a nonzero space keep live rows.  The Q
    # module's entries are integers, so the solver clears them by D = 1 and
    # its rows are those of the raw tensors, each Fraction(n, 1) as the int n
    seen = spy_rows(monkeypatch)
    even, rep, _ = space_for(field, dims)
    ((rows, labels),) = seen
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
    oracle, live = live_system(
        oracle_solver_rows(field, even.bracket, list(rep.matrices()), mode), unknown_count(even, rep.dim)
    )
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in oracle]
    assert labels == live


def oracle_solver_rows(field, bracket, mats, mode="standard"):
    """The rows the solver hands to the eliminator, from the oracle
    collector on the raw tensors: relation 2 and the cubic collected first,
    then relation 1, each instance without the unknowns that the
    single-entry rows collected before it killed; returned in the
    generator's order, relation 1 first."""
    act = columns(mats)
    p = field.p if field.kind == "prime" else None
    dead: set = set()

    def live(terms):
        rows = collected_rows(terms, p, dead)
        dead.update(k for row in rows if len(row) == 1 for k in row)
        return rows

    held, rows, cubic = [], [], []
    for identity, _, terms in compatibility_equations(nonzero_columns(bracket), act, mode):
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
        space = odd_bracket_space(module_algebra(QQ, even.bracket, mats))
        rows, labels = seen.pop()
        oracle, live = live_system(oracle_solver_rows(QQ, even.bracket, mats), unknown_count(even, rep.dim))
        assert labels == live
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
    space = odd_bracket_space(module_algebra(QQ, even.bracket, mats))
    ((rows, labels),) = seen
    oracle, live = live_system(oracle_solver_rows(QQ, even.bracket, mats), unknown_count(even, n))
    assert labels == live
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in oracle]
    assert all(type(x) is Fraction for row in rows for x in row.values())
    assert any(x.denominator > 1 for row in rows for x in row.values())
    assert space.dimension == 2
    assert flatten(space) == naive_space(QQ, even.bracket, mats)


@given(
    mode=st.sampled_from(("standard", "char3")),
    d0=st.integers(1, 3),
    d1=st.integers(0, 9),
    dead_density=st.sampled_from((0.0, 0.3, 0.7, 0.95, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_relation_1_and_the_cubic_left_out_give_no_row_and_no_kill(mode, d0, d1, dead_density, seed):
    # a random sparse bracket and action (neither need be a Lie bracket or
    # a representation) and a random dead set: relation 1 over Q in mode
    # "standard", and relation 1 and the cubic over F_3 in mode "char3".
    # The instances that the support selector keeps on the pairs with a
    # live unknown come in the generator's order with its terms, and each
    # instance it leaves out gives no row and kills nothing
    rng = random.Random(seed)
    p = 3 if mode == "char3" else None
    density = rng.random()

    def sparse(*shape):
        return [[[rng.choice((1, -2)) if rng.random() < density else 0 for _ in range(shape[2])] for _ in range(shape[1])] for _ in range(shape[0])]

    ecols, act = nonzero_columns(sparse(d0, d0, d0)), nonzero_columns(sparse(d0, d1, d1))
    rel = _Relations(ecols, act)
    dead = {k for k in range(d0 * d1 * (d1 + 1) // 2) if rng.random() < dead_density}
    for generate in (rel.relation_1, rel.cubic) if mode == "char3" else (rel.relation_1,):
        kept = list(generate(_supported_triples(moduli._live_pairs(rel, dead), rel.live)))
        full = list(generate(combinations_with_replacement(range(d1), 3)))
        chosen = {indices for _, indices, _ in kept}
        assert kept == [e for e in full if e[1] in chosen]
        for _, indices, terms in full:
            if indices not in chosen:
                rows, killed = [], set(dead)
                moduli._append_rows(rows, terms, killed, p)
                assert rows == [] and killed == dead, indices


# past the 2048-bit cut-off of clear_denominators the solver's tensors stay
# Fractions: these two give weights whose common denominator has 2,210 bits
BIG_A, BIG_B = Fraction(1, 2**1100), Fraction(1, 3**700)


@given(
    p=st.sampled_from((3, 5, 7, None, "fractions")),
    d0=st.integers(1, 3),
    d1=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_weight_kills_are_the_dead_set_of_relation_2_at_a_diagonal_direction(p, d0, d1, seed):
    # a random sparse bracket and action (neither need be a Lie bracket or a
    # representation) in which each e_x is diagonal on the module and on the
    # even part, or has an entry off the diagonal of one of them; the
    # weights may be zero and, over F_p, wrap mod p.  At a diagonal x, the
    # unknowns read off the weights are those that collecting relation 2 at
    # x alone kills, and no row is kept; any other x is never read
    rng = random.Random(seed)
    if p == "fractions":
        p, pool = None, (0, BIG_A, -BIG_A, BIG_B, BIG_A + BIG_B, 2 * BIG_A, BIG_A - BIG_B)
        assert clear_denominators(QQ, [pool[1:]])[0] == 1
    else:
        pool = range(-3, 4) if p is None else range(-2 * p, 2 * p)
    density = rng.random()

    def plane(d, diagonal):
        m = [[rng.choice(pool) if i == j or not diagonal and rng.random() < density else 0 for j in range(d)] for i in range(d)]
        if not diagonal and d > 1:
            i = rng.randrange(d)
            m[i][(i + rng.randrange(1, d)) % d] = rng.choice((1, -2))
        return m

    shapes = [(rng.random() < 0.5, rng.random() < 0.5) for _ in range(d0)]
    ecols = nonzero_columns([plane(d0, even) for _, even in shapes])
    act = nonzero_columns([plane(d1, odd) for odd, _ in shapes])
    rel = _Relations(ecols, act)
    for x in range(d0):
        diagonal = all(t == w for w, col in enumerate(act[x]) for t, _ in col) and all(
            y == z for z, col in enumerate(rel.ecols[x]) for y, _ in col
        )
        weights = moduli._weights(rel, act, x)
        if not diagonal:
            assert weights is None
            continue
        kills = moduli._weight_kills(rel, *weights, p)
        rows, dead = [], set()
        for _, _, terms in rel.relation_2((x, pair) for pair in combinations_with_replacement(range(d1), 2)):
            moduli._append_rows(rows, terms, dead, p)
        assert rows == []
        assert sorted(kills) == sorted(dead)


@given(
    p=st.sampled_from((3, 5, 7, None, "fractions")),
    d0=st.integers(2, 4),
    d1=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_relation_2_left_out_at_the_other_directions_gives_no_row_and_no_kill(p, d0, d1, seed):
    # a random sparse bracket and action with one diagonal direction x0,
    # anywhere; neither need be antisymmetric, satisfy the Jacobi identity
    # or be a representation, and every other direction is random, diagonal
    # or not.  With the unknowns that the weights of x0 kill dead, and a
    # random share of the others, as the block kills would leave them,
    # each instance of relation 2 at another x that the support selector
    # leaves out on the pairs with a live unknown gives no row and kills
    # nothing, and those it keeps come in the generator's order with its
    # terms
    rng = random.Random(seed)
    if p == "fractions":
        p, pool = None, (0, BIG_A, -BIG_A, BIG_B, BIG_A + BIG_B, 2 * BIG_A, BIG_A - BIG_B)
    else:
        pool = range(-3, 4) if p is None else range(-2 * p, 2 * p)
    density = rng.random()

    def plane(d, diagonal):
        return [[rng.choice(pool) if i == j or not diagonal and rng.random() < density else 0 for j in range(d)] for i in range(d)]

    x0 = rng.randrange(d0)
    diagonal = [x == x0 or rng.random() < 0.3 for x in range(d0)]
    ecols = nonzero_columns([plane(d0, diag) for diag in diagonal])
    act = nonzero_columns([plane(d1, diag) for diag in diagonal])
    rel = _Relations(ecols, act)
    weights = moduli._weights(rel, act, x0)
    share = rng.choice((0.0, 0.5, 0.9))
    dead = set(moduli._weight_kills(rel, *weights, p))
    dead |= {k for k in range(d0 * d1 * (d1 + 1) // 2) if rng.random() < share}
    xs = [x for x in range(d0) if x != x0]
    kept = list(rel.relation_2(_supported_pairs(moduli._live_pairs(rel, dead), act, rel.elive, xs)))
    full = list(rel.relation_2(product(xs, combinations_with_replacement(range(d1), 2))))
    chosen = {indices for _, indices, _ in kept}
    assert kept == [e for e in full if e[1] in chosen]
    for _, indices, terms in full:
        if indices not in chosen:
            rows, killed = [], set(dead)
            moduli._append_rows(rows, terms, killed, p)
            assert rows == [] and killed == dead, indices


def test_relation_2_at_e_and_f_is_collected_only_where_the_weights_leave_an_unknown(monkeypatch):
    # sl(2) on V(4) + V(2) + V(0) + V(0) over F_7 in the weight basis: the
    # blocks kill every pair outside V(4) x V(2), H is diagonal, and of the
    # 2 x 55 instances of relation 2 at E and F the solver collects only
    # those with a term at a pair that still has an unknown alive; the
    # space is the oracle's
    instances = []
    real = moduli._supported_pairs

    def counted(*args):
        for instance in real(*args):
            instances.append(instance)
            yield instance

    monkeypatch.setattr(moduli, "_supported_pairs", counted)
    even, rep, space = space_for(F7, (5, 3, 1, 1))
    assert 0 < len(instances) < 2 * 55
    assert {x for x, _ in instances} == {0, 2}
    assert flatten(space) == naive_space(F7, even.bracket, list(rep.matrices())) == []


@pytest.mark.parametrize("field", [QQ, F5, F7, GF(3)], ids=str)
@settings(max_examples=30)
@given(gl2=st.booleans(), basis=st.sampled_from(("weight", "monomial")), data=st.data())
def test_block_kills_are_zero_in_every_oracle_solution(field, gl2, basis, data):
    # sl(2), or gl(2) whose central line acts on each summand by a scalar
    # that may be zero, on a sum of irreducibles with random multiplicities
    # in a random order, V(0) included, of dimension at most 6 (5 over Q),
    # in the weight basis or a monomial one; F_3 solves in mode "char3".
    # The blocks are the summands, and a summand is faithful when it is not
    # V(0) and, for gl(2), its scalar is nonzero: the unknowns killed are
    # exactly those of the pairs that miss a faithful summand, each is zero
    # in every oracle solution, and the space is the oracle's
    top = 3 if field.characteristic == 3 else 4
    cap = 5 if field is QQ else 6  # the dense oracle over Q is the slow part
    drawn = data.draw(st.lists(st.integers(1, top), min_size=2, max_size=cap).filter(lambda ds: ds[0] + ds[1] <= cap))
    dims = [d for i, d in enumerate(drawn) if sum(drawn[: i + 1]) <= cap]
    scalars = data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(dims), max_size=len(dims)))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims])
    n = rep.dim
    summand = [i for i, d in enumerate(dims) for _ in range(d)]
    mats = list(rep.matrices())
    bracket = sl2_algebra(field).bracket
    faithful = {i for i, d in enumerate(dims) if d > 1}
    if gl2:
        bracket = gl2_bracket(field)
        mats.append(Matrix(field, [[scalars[summand[i]] if i == j else 0 for j in range(n)] for i in range(n)]))
        faithful = {i for i in faithful if scalars[i]}
    t = Matrix.identity(field, n) if basis == "weight" else random_monomial(field, n, rng)
    # new basis vector j is a multiple of old basis vector old[j]
    old = [next(i for i in range(n) if t.data[i][j]) for j in range(n)]
    t_inv = t.inverse()
    mats = [t_inv @ m @ t for m in mats]
    g = module_algebra(field, bracket, mats)
    ecols, act = _even_system(g)
    block = moduli._blocks(act, n)
    kills = moduli._block_kills(_Relations(ecols, act), block, moduli._faithful_blocks(field, act, block))
    d0, base = len(bracket), odd_unknowns(len(bracket), n)
    expected = [
        k
        for u in range(n)
        for v in range(u, n)
        if faithful - {summand[old[u]], summand[old[v]]}
        for k in range(base[u][v], base[u][v] + d0)
    ]
    assert sorted(kills) == expected
    naive = naive_space(field, bracket, mats, mode=g.mode)
    assert all(not vector.entries[k] for vector in naive for k in kills)
    assert flatten(odd_bracket_space(g)) == naive


@pytest.mark.parametrize("field", [QQ, F5, F7, GF(3)], ids=str)
@pytest.mark.parametrize("dims", [(2, 1, 1), (3, 2), (2, 2, 1)])
def test_one_block_kills_nothing_and_checks_no_faithfulness(field, dims, rng, monkeypatch):
    # in a random dense basis the action's pattern is one block: nothing is
    # killed, no faithfulness rank is computed, and the space is the
    # oracle's

    def refused(*args):
        raise AssertionError("faithfulness checked on one block")

    monkeypatch.setattr(moduli, "_reduce", refused)
    even = sl2_algebra(field)
    rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims])
    mats = list(rep.conjugated(random_invertible(field, rep.dim, rng)).matrices())
    g = module_algebra(field, even.bracket, mats)
    ecols, act = _even_system(g)
    block = moduli._blocks(act, rep.dim)
    assert set(block) == {0}
    assert moduli._faithful_blocks(field, act, block) == []
    assert moduli._block_kills(_Relations(ecols, act), block, []) == []
    assert flatten(odd_bracket_space(g)) == naive_space(field, even.bracket, mats, mode=g.mode)


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_action_entries_out_of_range_are_refused_before_the_solver(field):
    # the solver takes an algebra, whose action is checked where it is
    # built: sl(2) on its standard module, V(1), solves, and an action entry
    # outside the odd indices never reaches the solver
    even = sl2_algebra(field)
    g = module_algebra(field, even.bracket, list(build_irrep(IrrepSpec.standard_params(field, 1), field).matrices()))
    assert odd_bracket_space(g).dimension == 1
    bracket = [(*key, c) for key, c in g._even.items()]
    for entry in ((0, 1, 2, 1), (0, 2, 0, 1), (3, 0, 0, 1), (-1, 0, 0, 1)):
        with pytest.raises(ShapeError, match="action entry .* out of range"):
            SuperAlgebra.from_entries(field, 3, 2, bracket, [entry])


def test_space_from_tensors_and_from_sparse_vectors_agree():
    # the solver makes a space from sparse vectors; one made positionally
    # from tensors, as a caller that reads a printed basis back does, has
    # the same vectors, and each form is built from the other on first use
    even, rep, space = space_for(QQ, (3, 1, 1))
    assert space.dimension == 2
    for vector in space.vectors:
        assert list(vector) == sorted(vector) and all(vector.values())
    again = OddBracketSpace(QQ, space.dim_even, space.dim_odd, space.basis)
    assert again.dimension == 2
    assert again.vectors == space.vectors and again.basis == space.basis
    g0 = solution_holder(QQ, even, rep)
    for i in range(2):
        assert solution_to_algebra(g0, again, i) == solution_to_algebra(g0, space, i)
    for args in ((), ((), ())):
        with pytest.raises(ValueError, match="either as tensors or as sparse vectors"):
            OddBracketSpace(QQ, 3, 5, *args)


def gl2_bracket(field):
    """sl(2) plus a central line e_3: the bracket of gl(2)."""
    sl2 = sl2_algebra(field).bracket
    zero = field.zero()
    return [[[*sl2[x][z], zero] if x < 3 and z < 3 else [zero] * 4 for z in range(4)] for x in range(4)]


def even_parts_with_idle_directions(field):
    """(name, bracket, action matrices) of even parts that are not sl(2) or
    where some e_x acts by zero: gl(2) whose centre acts by zero or by a
    scalar on V(2) + V(0); a 2-dimensional abelian part acting by a
    nilpotent a and by zero, by commuting nilpotents, or by a Jordan block
    j and j^2 + 1; and a line acting by zero.  Also sl(2) in the basis
    (E, H, E + F) on V(2) + V(0): H acts diagonally on the module in its
    weight basis but not on the even part, as [H, E + F] = 4E - 2(E + F)."""
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in (3, 1)]
    )
    mats = list(rep.matrices())
    n = rep.dim
    e_h_e_plus_f = [[[field.zero()] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, c in ((0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 0, 4), (1, 2, 2, -2)):
        e_h_e_plus_f[i][j][k], e_h_e_plus_f[j][i][k] = field.coerce(c), field.coerce(-c)
    a = Matrix(field, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0]])
    b = Matrix(field, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    j = Matrix(field, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]])
    abelian = [[[field.zero()] * 2 for _ in range(2)] for _ in range(2)]
    return [
        ("gl2-centre-by-zero", gl2_bracket(field), [*mats, Matrix.zero(field, n, n)]),
        ("gl2-centre-by-scalar", gl2_bracket(field), [*mats, Matrix.identity(field, n).scaled(field.coerce(2))]),
        ("abelian-nilpotent-and-zero", abelian, [a, Matrix.zero(field, 4, 4)]),
        ("abelian-commuting-nilpotents", abelian, [a, b]),
        ("abelian-jordan", abelian, [j, j @ j + Matrix.identity(field, 4)]),
        ("line-by-zero", [[[field.zero()]]], [Matrix.zero(field, 3, 3)]),
        ("sl2-in-basis-E-H-E+F", e_h_e_plus_f, [mats[0], mats[1], mats[0] + mats[2]]),
    ]


@pytest.mark.parametrize("field,mode", [(QQ, "standard"), (F7, "standard"), (GF(3), "char3")], ids=str)
def test_even_parts_with_idle_directions_match_naive_oracle(field, mode, rng, monkeypatch):
    # the solver on even parts other than sl(2), or with a direction that
    # acts by zero, or sl(2) in a basis where H acts diagonally on the
    # module only, in the standard basis, a monomial basis (the dead
    # unknowns shuffled, H still diagonal) and a random dense basis, which
    # leaves no unknown dead: the kernel is the oracle's
    seen = spy_rows(monkeypatch)
    dead_somewhere = alive_everywhere = False
    for name, bracket, mats in even_parts_with_idle_directions(field):
        n = mats[0].rows
        for t in (Matrix.identity(field, n), random_monomial(field, n, rng), random_invertible(field, n, rng)):
            t_inv = t.inverse()
            module = [t_inv @ m @ t for m in mats]
            space = odd_bracket_space(module_algebra(field, bracket, module))
            assert flatten(space) == naive_space(field, bracket, module, mode=mode), name
            n_cols = len(seen.pop()[1])
            unknowns = len(bracket) * n * (n + 1) // 2
            dead_somewhere |= n_cols < unknowns
            alive_everywhere |= n_cols == unknowns
    assert dead_somewhere and alive_everywhere


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_space_without_an_even_part_reports_the_odd_dimension(field):
    # no action matrix to read d1 off: the space reports g's own dimensions
    space = odd_bracket_space(SuperAlgebra.from_entries(field, 0, 3))
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
        space = odd_bracket_space(module_algebra(f3, even.bracket, mats))
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
    # the diagonal rows cut the space, so the oracle sees them: the space
    # of the standard relations alone, from the oracle, is larger
    f3 = GF(3)
    d0 = len(mats)
    zero = [[[0] * d0 for _ in range(d0)] for _ in range(d0)]
    mats = [Matrix(f3, m) for m in mats]
    t = random_invertible(f3, mats[0].rows, rng)
    t_inv = t.inverse()
    for module in (mats, [t_inv @ m @ t for m in mats]):
        space = odd_bracket_space(module_algebra(f3, zero, module))
        assert space.dimension < len(naive_space(f3, zero, module))
        assert flatten(space) == naive_space(f3, zero, module, mode="char3")


def test_char3_example_matches_naive_oracle():
    from superbracket.constructions import build_char3_example

    g = build_char3_example()
    mats = [action_matrix(g, i) for i in range(g.dim_even)]
    space = odd_bracket_space(g)
    assert space.dimension
    assert flatten(space) == naive_space(g.field, g.bracket, mats, mode="char3")


def test_solutions_assemble_to_valid_algebras():
    for field, dims in [(QQ, (2,)), (F5, (2, 1)), (F5, (3, 1)), (QQ, (3, 1, 1))]:
        even, rep, space = space_for(field, dims)
        g0 = solution_holder(field, even, rep)
        for i in range(space.dimension):
            g = solution_to_algebra(g0, space, i)
            assert validate(g).ok


@pytest.mark.parametrize("field", [QQ, F5, F7, GF(3)], ids=str)
def test_solution_to_algebra_matches_the_dense_oracle(field, rng):
    # each basis element installed from g's entries and the sparse vector is
    # the algebra the dense tensors give, entry for entry and byte for byte,
    # in the weight basis and a random dense basis of the module
    from superbracket.schema import serialize_algebra

    even = sl2_algebra(field)
    checked = 0
    for dims in ((2,), (3, 1), (2, 2, 1)):
        rep = RepMatrices.direct_sum(
            [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims]
        )
        for module in (rep, rep.conjugated(random_invertible(field, rep.dim, rng))):
            g = module_algebra(field, even.bracket, list(module.matrices()))
            space = odd_bracket_space(g)
            for i in range(space.dimension):
                h, oracle = solution_to_algebra(g, space, i), dense_solution_to_algebra(g, space, i)
                assert h == oracle and serialize_algebra(h) == serialize_algebra(oracle)
                assert [(u, v, y) for u, v, y, _ in space.entries(i)] == sorted(h._odd)
                checked += 1
    assert checked
    with pytest.raises(ShapeError):
        solution_to_algebra(SuperAlgebra.from_entries(field, 3, 1, mode=g.mode), space, 0)


def test_solution_to_algebra_refuses_a_space_over_another_field():
    # F_7's residues 6 and 4 are no rationals: installed into the Q algebra
    # of the same module they would give an invalid algebra
    _, _, space = space_for(F7, (2,))
    g = solution_holder(QQ, sl2_algebra(QQ), build_irrep(IrrepSpec.standard_params(QQ, 1), QQ))
    assert space.dimension == odd_bracket_space(g).dimension == 1
    with pytest.raises(FieldError, match="^a solution space over F_7 installed in an algebra over Q$"):
        solution_to_algebra(g, space, 0)


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
        base = odd_bracket_space(module_algebra(F5, even.bracket, list(rep.matrices()))).dimension
        for _ in range(3):
            t = random_invertible(F5, rep.dim, rng)
            conj = rep.conjugated(t)
            dim = odd_bracket_space(module_algebra(F5, even.bracket, list(conj.matrices()))).dimension
            assert dim == base


def test_char3_space_contains_the_example():
    from superbracket.constructions import build_char3_example

    g = build_char3_example()
    space = odd_bracket_space(g)
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
        odd_bracket_space(module_algebra(QQ, even.bracket, bogus))


def test_solver_names_the_failing_pairs_like_validate():
    g = build_osp12(QQ)
    action = [[list(r) for r in plane] for plane in g.action]
    action[0][1][0] *= 2  # e_0(f_1) = 2 f_0: no longer a representation
    bad = SuperAlgebra.from_tensors(QQ, g.bracket, action, g.odd_bracket)
    expected = [v.indices for v in validate(bad).violations if v.identity == "representation"]
    assert expected
    assert representation_failures(QQ, nonzero_columns(bad.bracket), nonzero_columns(bad.action)) == expected
    with pytest.raises(NotARepresentation) as info:
        odd_bracket_space(bad)
    assert list(info.value.pairs) == expected
    assert representation_failures(QQ, nonzero_columns(g.bracket), nonzero_columns(g.action)) == []


def test_char2_documents_are_refused():
    with pytest.raises(UnsupportedMode, match="char2"):
        odd_bracket_space(build_char2_example())


def test_sweep_budget_guards():
    with pytest.raises(ValueError):
        sweep_irrep_sums(QQ, 4)
    with pytest.raises(ValueError):
        sweep_irrep_sums(F5, 9)
    for dim in (0, -3):
        with pytest.raises(ValueError, match="odd dimension >= 1"):
            sweep_irrep_sums(F7, dim)


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


def forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("the sweep forked")

    monkeypatch.setattr(os, "fork", fork)


def record_solves(monkeypatch):
    """Record the algebra of every ``moduli.odd_bracket_space`` call."""
    algebras = []
    real = moduli.odd_bracket_space

    def recorded(g):
        algebras.append(g)
        return real(g)

    monkeypatch.setattr(moduli, "odd_bracket_space", recorded)
    return algebras


def test_benchmark_sweep_makes_29_odd_bracket_space_calls_without_a_fork(monkeypatch):
    # the two-summand compositions: 13 of F_5's 59 and 16 of F_7's 65
    forbid_fork(monkeypatch)
    algebras = record_solves(monkeypatch)
    assert benchmark_sweep_digest() == BENCHMARK_SWEEP_DIGEST
    assert len(algebras) == 13 + 16


@pytest.mark.parametrize("dim", [1], ids=["in-caller"])
def test_sweep_failure_is_raised_in_the_caller_and_reaps(monkeypatch, dim):
    # a failing solve of (1, 1) is raised as it is, and leaves no process
    real = moduli.odd_bracket_space

    def failing(g):
        if g.dim_odd == 2 * dim:
            raise ValueError(f"no solution space for ({dim}, {dim})")
        return real(g)

    monkeypatch.setattr(moduli, "odd_bracket_space", failing)
    with pytest.raises(ValueError, match=rf"^no solution space for \({dim}, {dim}\)$") as info:
        sweep_irrep_sums(F5, 8)
    assert info.value.__cause__ is None
    assert_no_child_process()


def assembled_dimension(field, comp):
    """The solution dimension of sl(2) acting on the assembled direct sum of
    the standard irreducibles of dimensions ``comp``."""
    rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in comp])
    return odd_bracket_space(assemble(sl2_algebra(field), rep)).dimension


@pytest.mark.parametrize("bound", range(1, 9))
@pytest.mark.parametrize("field", [F5, F7], ids=str)
def test_sweep_systems_are_those_of_the_assembled_direct_sums(field, bound, monkeypatch):
    # the sweep solves, in row order, the compositions of two summands and
    # the irreducible of dimension bound where bound <= p; each algebra it
    # hands odd_bracket_space is the assembled direct sum, whose faithful
    # blocks are those whose three restrictions are independent, and every
    # row's dimension is odd_bracket_space's on the assembled algebra
    algebras = record_solves(monkeypatch)
    rows = sweep_irrep_sums(field, bound)
    assert [r.composition for r in rows] == [c for total in range(1, bound + 1) for c in moduli._partitions_desc(total, field.p)]
    solved = [row.composition for row in rows if len(row.composition) == 2 or row.composition == (bound,)]
    assert len(algebras) == len(solved)
    even = sl2_algebra(field)
    for comp, g in zip(solved, algebras):
        rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in comp])
        assert g == assemble(even, rep)
        _, act = _even_system(g)
        block = moduli._blocks(act, rep.dim)
        oracle = [
            k
            for k in sorted(set(block))
            if Matrix(field, [[m.data[t][w] for w in range(rep.dim) for t in range(rep.dim) if block[w] == block[t] == k] for m in rep.matrices()]).rank() == 3
        ]
        assert moduli._faithful_blocks(field, act, block) == (oracle if len(set(block)) > 1 else [])
    for row in rows:
        assert row.dimension == assembled_dimension(field, row.composition)


def test_sweep_raises_on_a_solution_across_two_pairs_of_summands(monkeypatch):
    # each basis vector must lie in one pair of summands; one with entries on
    # V_1 x V_1 of both summands of (1, 1) is refused
    def spanning(g):
        n = g.dim_even * g.dim_odd * (g.dim_odd + 1) // 2
        return OddBracketSpace(g.field, g.dim_even, g.dim_odd, vectors=[{0: 1, n - 1: 1}])

    monkeypatch.setattr(moduli, "odd_bracket_space", spanning)
    with pytest.raises(ValueError, match=r"^a solution for \(1, 1\) has entries on 2 pairs of summands$"):
        sweep_irrep_sums(F5, 3)


@pytest.mark.parametrize("field", [GF(11), GF(13)], ids=str)
def test_pair_rule_matches_the_assembled_direct_sums_past_the_cap(field):
    # the sweep's core without its F_5/F_7 and odd-dimension-8 budget
    rows = moduli._sweep(field, 10)
    assert [r.composition for r in rows] == [c for total in range(1, 11) for c in moduli._partitions_desc(total, field.p)]
    for row in rows:
        assert row.dimension == assembled_dimension(field, row.composition)


def test_sweep_refuses_a_summand_neither_faithful_nor_zero(monkeypatch):
    # the pair rule holds only where each summand is faithful or acts as
    # zero; a 2-dimensional irreducible called non-faithful is refused
    real = moduli._faithful

    def faithful(field, act, ws):
        return len(ws) != 2 and real(field, act, ws)

    monkeypatch.setattr(moduli, "_faithful", faithful)
    with pytest.raises(ValueError, match="^the summand of dimension 2 acts neither faithfully nor as zero$"):
        sweep_irrep_sums(F5, 3)


def test_sweep_refuses_a_broken_summand_as_odd_bracket_space_does(monkeypatch):
    # a summand that is no representation is refused by the solve that
    # holds it, with the pairs that odd_bracket_space names on it alone
    forbid_fork(monkeypatch)
    build = moduli.build_irrep

    def broken(spec, field):
        # the 3-dimensional irreducible with one entry of E doubled
        rep = build(spec, field)
        if rep.dim == 3:
            entries = dict(rep.entries)
            key = min(key for key in entries if key[0] == 0)
            entries[key] = field.add(entries[key], entries[key])
            rep = RepMatrices(field, rep.dim, entries)
        return rep

    monkeypatch.setattr(moduli, "build_irrep", broken)
    for field in (F5, F7):
        with pytest.raises(NotARepresentation) as info:
            sweep_irrep_sums(field, 8)
        with pytest.raises(NotARepresentation) as alone:
            odd_bracket_space(module_algebra(field, sl2_algebra(field).bracket, broken(IrrepSpec.standard_params(field, 2), field).matrices()))
        assert info.value.pairs == alone.value.pairs != ()


def test_small_sweep_does_not_fork(monkeypatch):
    forbid_fork(monkeypatch)
    comps = [c for total in range(1, 6) for c in moduli._partitions_desc(total, 5)]
    assert [r.composition for r in sweep_irrep_sums(F5, 5)] == comps
