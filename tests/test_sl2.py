import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbracket.constructions import sl2_algebra
from superbracket.fields import GF, QQ, FieldError
from superbracket.linalg import DimensionMismatch, Matrix, Vector, _densified
from superbracket.sl2 import (
    CHAR_ZERO,
    INCONCLUSIVE,
    SUFFICIENT,
    IrrepSpec,
    RepMatrices,
    Sl2Triple,
    Undetermined,
    annihilator,
    build_irrep,
    casimir,
    composition_series,
    decompose,
    find_sl2_triple,
    has_proper_submodule,
    jacobson_test,
    verify_triple,
    _weight_spaces,
)
from superbracket.superalgebra import SuperAlgebra

F5 = GF(5)
F7 = GF(7)


def standard_triple(field):
    return Sl2Triple(
        Vector.unit(field, 3, 0), Vector.unit(field, 3, 1), Vector.unit(field, 3, 2)
    )


def test_verify_triple_standard():
    g = sl2_algebra(QQ)
    assert verify_triple(g, standard_triple(QQ))


def test_verify_triple_swapped_fails():
    g = sl2_algebra(QQ)
    t = Sl2Triple(Vector.unit(QQ, 3, 2), Vector.unit(QQ, 3, 1), Vector.unit(QQ, 3, 0))
    assert not verify_triple(g, t)


def test_verify_triple_rescaled():
    from fractions import Fraction

    g = sl2_algebra(QQ)
    t = Sl2Triple(
        Vector(QQ, [2, 0, 0]),
        Vector.unit(QQ, 3, 1),
        Vector(QQ, [0, 0, Fraction(1, 2)]),
    )
    assert verify_triple(g, t)


def test_find_triple_exhaustive_f5():
    g = sl2_algebra(F5)
    t = find_sl2_triple(g)
    assert isinstance(t, Sl2Triple)
    assert verify_triple(g, t)


def test_find_triple_rationals_standard_basis():
    g = sl2_algebra(QQ)
    t = find_sl2_triple(g)
    assert t == standard_triple(QQ)


def test_find_triple_nonsplit_rationals_undetermined():
    # the cross-product algebra: [x,y]=z, [y,z]=x, [z,x]=y has negative-
    # definite Killing form over Q, so no candidate works
    g = SuperAlgebra.from_entries(
        QQ, 3, 0, bracket=[(0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 1, -1)]
    )
    out = find_sl2_triple(g)
    assert isinstance(out, Undetermined)
    assert "height" in out.reason


def test_find_triple_abelian_f5_is_none():
    g = SuperAlgebra.from_entries(F5, 3, 0)
    assert find_sl2_triple(g) is None


def test_find_triple_large_p_budget():
    g = sl2_algebra(GF(101))
    out = find_sl2_triple(g)
    assert isinstance(out, Undetermined)
    assert "101" in out.reason


def test_build_irrep_m1():
    rep = build_irrep(IrrepSpec.standard_params(QQ, 1), QQ)
    assert rep.matrices()[1] == Matrix.diagonal(QQ, [1, -1])
    assert rep.matrices()[0] == Matrix(QQ, [[0, 1], [0, 0]])
    assert rep.matrices()[2] == Matrix(QQ, [[0, 0], [1, 0]])


def test_build_irrep_m2():
    rep = build_irrep(IrrepSpec.standard_params(QQ, 2), QQ)
    assert rep.matrices()[1] == Matrix.diagonal(QQ, [2, 0, -2])
    assert rep.matrices()[0] @ Vector.unit(QQ, 3, 1) == Vector(QQ, [2, 0, 0])
    assert rep.matrices()[0] @ Vector.unit(QQ, 3, 2) == Vector(QQ, [0, 2, 0])


def test_build_irrep_dim_p_with_beta():
    spec = IrrepSpec(4, F5.scalar(4), F5.scalar(1))
    rep = build_irrep(spec, F5)
    assert rep.matrices()[1] == Matrix.diagonal(F5, [4, 2, 0, 3, 1])
    assert rep.matrices()[2] @ Vector.unit(F5, 5, 4) == Vector.unit(F5, 5, 0)
    assert rep.satisfies_triple_relations()


def test_irrep_spec_rejections():
    with pytest.raises(ValueError, match="alpha = m"):
        build_irrep(IrrepSpec(1, QQ.scalar(2), QQ.scalar(0)), QQ)
    with pytest.raises(ValueError, match="beta = 0"):
        build_irrep(IrrepSpec(1, QQ.scalar(1), QQ.scalar(1)), QQ)
    with pytest.raises(ValueError, match="bound"):
        build_irrep(IrrepSpec(5, F5.scalar(5), F5.scalar(0)), F5)
    with pytest.raises(ValueError, match="below p"):
        build_irrep(IrrepSpec(2, F5.scalar(2), F5.scalar(1)), F5)


@pytest.mark.parametrize("field", [F5, F7], ids=str)
def test_every_alpha_and_beta_is_admissible_at_dimension_p(field):
    # over F_p every alpha is the image of an integer, but that does not
    # force alpha = [p - 1]: each of the p^2 modules satisfies the triple
    # relations.  beta = 0 gives the baby Verma module Z(alpha), reducible
    # unless alpha = [p - 1]; a nonzero beta closes F's chain into a cycle
    p = field.p
    for a in range(p):
        assert build_irrep(IrrepSpec(p - 1, field.scalar(a), field.scalar(0)), field) == baby_verma(field, a)
        for b in range(p):
            rep = build_irrep(IrrepSpec(p - 1, field.scalar(a), field.scalar(b)), field)
            assert rep.satisfies_triple_relations()
            assert has_proper_submodule(rep) == (b == 0 and a != p - 1), (a, b)


def all_admissible_specs(field):
    p = field.characteristic
    if p == 0:
        return [IrrepSpec.standard_params(field, m) for m in range(5)]
    specs = [IrrepSpec.standard_params(field, m) for m in range(p - 1)]
    specs += [
        IrrepSpec(p - 1, field.scalar(p - 1), field.scalar(b)) for b in range(p)
    ]
    return specs


@pytest.mark.parametrize("field", [QQ, F5, F7])
def test_triple_relations_grid(field):
    for spec in all_admissible_specs(field):
        rep = build_irrep(spec, field)
        assert rep.satisfies_triple_relations()


def test_annihilator_table():
    # i = 0 -> E; interior i != m/2 -> 0; i = m/2 -> H; i = m, beta = 0 -> F
    for m in (1, 2, 3, 4):
        spec = IrrepSpec.standard_params(QQ, m)
        for i in range(m + 1):
            ann = annihilator(spec, i, QQ)
            if i == 0:
                assert ann == [Vector.unit(QQ, 3, 0)]
            elif i == m:
                assert ann == [Vector.unit(QQ, 3, 2)]
            elif 2 * i == m:
                assert ann == [Vector.unit(QQ, 3, 1)]
            else:
                assert ann == []


def test_annihilator_beta_nonzero_is_trivial():
    spec = IrrepSpec(4, F5.scalar(4), F5.scalar(1))
    assert annihilator(spec, 4, F5) == []


def test_casimir_values():
    trivial = build_irrep(IrrepSpec.standard_params(QQ, 0), QQ)
    assert casimir(trivial) == Matrix(QQ, [[1]])
    standard = build_irrep(IrrepSpec.standard_params(QQ, 1), QQ)
    assert casimir(standard) == Matrix.identity(QQ, 2).scaled(4)
    adjoint = build_irrep(IrrepSpec.standard_params(QQ, 2), QQ)
    assert casimir(adjoint) == Matrix.identity(QQ, 3).scaled(9)


@pytest.mark.parametrize("field", [QQ, F5, F7])
def test_casimir_commutes_and_is_scalar_on_irreps(field):
    for spec in all_admissible_specs(field):
        rep = build_irrep(spec, field)
        om = casimir(rep)
        for m in rep.matrices():
            assert om @ m == m @ om
        if spec.beta == field.scalar(0) or field.characteristic == 0:
            # scalar on the explicit family with beta = 0
            diag = om.data[0][0]
            assert om == Matrix.identity(field, rep.dim).scaled(diag)


def test_jacobson():
    standard5 = build_irrep(IrrepSpec.standard_params(F5, 1), F5)
    assert jacobson_test(standard5) == SUFFICIENT
    steinberg5 = build_irrep(IrrepSpec(4, F5.scalar(4), F5.scalar(0)), F5)
    assert jacobson_test(steinberg5) == INCONCLUSIVE
    adjoint7 = build_irrep(IrrepSpec.standard_params(F7, 2), F7)
    assert jacobson_test(adjoint7) == SUFFICIENT
    assert jacobson_test(build_irrep(IrrepSpec.standard_params(QQ, 3), QQ)) == CHAR_ZERO


def test_jacobson_matches_dense_powers():
    # applying sparse columns min(p - 1, dim) times decides what the dense
    # powers rho^(p-1) decide, on the pinned modules in a random basis
    from conftest import dense_jacobson

    modules = [rep for field in (QQ, F5, F7) for rep in pinned_modules(field)[0]]
    modules += [indecomposable_extension(p) for p in (3, 5, 7)]
    for rep in modules:
        assert jacobson_test(rep) == dense_jacobson(rep)


def test_jacobson_past_the_dimension_and_on_a_non_nilpotent_action():
    from conftest import dense_jacobson

    big = GF(1000000007)
    v3 = build_irrep(IrrepSpec.standard_params(big, 3), big)
    assert jacobson_test(v3) == dense_jacobson(v3) == SUFFICIENT
    one, zero = Matrix.identity(F5, 2), Matrix.zero(F5, 2, 2)
    identity_e = RepMatrices.from_matrices(one, zero, zero)
    assert jacobson_test(identity_e) == dense_jacobson(identity_e) == INCONCLUSIVE


def test_dense_matrices_must_be_square_of_one_size_and_field():
    with pytest.raises(DimensionMismatch):
        RepMatrices.from_matrices(*[Matrix.zero(QQ, 1, 2)] * 3)
    with pytest.raises(DimensionMismatch):
        RepMatrices.from_matrices(Matrix.zero(QQ, 2, 2), Matrix.zero(QQ, 3, 3), Matrix.zero(QQ, 2, 2))
    with pytest.raises(FieldError):
        RepMatrices.from_matrices(Matrix.zero(QQ, 2, 2), Matrix.zero(F5, 2, 2), Matrix.zero(QQ, 2, 2))


def test_direct_sum_of_no_modules_is_refused():
    with pytest.raises(ValueError, match="at least one module"):
        RepMatrices.direct_sum([])


def test_decompose_runs_on_the_entries(monkeypatch):
    # a module read off an algebra in a random odd basis: decompose solves
    # and applies its sparse columns and never builds the dense matrices
    from conftest import random_invertible
    from superbracket.constructions import assemble

    rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(F7, m), F7) for m in (4, 2, 2, 0)])
    g = assemble(sl2_algebra(F7), rep)
    g = g.conjugated(Matrix.identity(F7, 3), random_invertible(F7, rep.dim, random.Random(7)))

    def refused(self):
        raise AssertionError("decompose built a dense view")

    monkeypatch.setattr(RepMatrices, "matrices", refused)
    summands = decompose(RepMatrices.from_algebra(g, standard_triple(F7)))
    assert [(spec.m, len(chain)) for chain, spec in summands] == [(4, 5), (2, 3), (2, 3), (0, 1)]


def test_highest_weights_stop_at_the_largest_weight_present(monkeypatch):
    # the zero action on 50 lines: one solve for ker rho(E), then weight 0
    # fills the whole kernel, so no larger candidate is solved
    from superbracket import sl2

    solve, calls = sl2.sparse_kernel_basis, []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(sl2, "sparse_kernel_basis", counted)
    top, tops = sl2._highest_weight_vectors(RepMatrices(QQ, 50, {}))
    assert len(calls) == 2
    assert len(top) == 50 and [m for m, _ in tops] == [0] * 50


def test_decompose_adjoint_plus_trivial():
    rep = RepMatrices.direct_sum(
        [
            build_irrep(IrrepSpec.standard_params(QQ, 2), QQ),
            build_irrep(IrrepSpec.standard_params(QQ, 0), QQ),
        ]
    )
    summands = decompose(rep)
    assert [spec.m for _, spec in summands] == [2, 0]
    assert [len(chain) for chain, _ in summands] == [3, 1]


def test_direct_sum_holds_raw_entries_of_one_field():
    for field in (QQ, F7):
        parts = [build_irrep(IrrepSpec.standard_params(field, m), field) for m in (2, 0, 1)]
        rep = RepMatrices.direct_sum(parts)
        raw = type(field.zero())
        for m in rep.matrices():
            assert Matrix(field, m.data) == m
            assert all(type(x) is raw for row in m.data for x in row)
        assert rep.dim == 6 and rep.satisfies_triple_relations()
    with pytest.raises(FieldError):
        RepMatrices.direct_sum(
            [
                build_irrep(IrrepSpec.standard_params(QQ, 1), QQ),
                build_irrep(IrrepSpec.standard_params(F7, 1), F7),
            ]
        )


def test_decompose_trivial_rep():
    rep = RepMatrices.from_matrices(
        Matrix.zero(QQ, 4, 4), Matrix.zero(QQ, 4, 4), Matrix.zero(QQ, 4, 4)
    )
    summands = decompose(rep)
    assert [spec.m for _, spec in summands] == [0, 0, 0, 0]


def test_decompose_two_standards_f5():
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(F5, 1), F5)] * 2
    )
    summands = decompose(rep)
    assert [spec.m for _, spec in summands] == [1, 1]


def test_decompose_requires_certificate():
    steinberg5 = build_irrep(IrrepSpec(4, F5.scalar(4), F5.scalar(0)), F5)
    with pytest.raises(ValueError):
        decompose(steinberg5)


def test_decompose_then_resum_is_exact(rng):
    parts = [
        build_irrep(IrrepSpec.standard_params(QQ, m), QQ) for m in (2, 1, 0, 1)
    ]
    rep = RepMatrices.direct_sum(parts)
    # scramble by a random basis change, decompose, and conjugate back
    from conftest import random_invertible

    t = random_invertible(QQ, rep.dim, rng)
    scrambled = rep.conjugated(t)
    summands = decompose(scrambled)
    chains = [v for chain, _ in summands for v in chain]
    u = Matrix.from_columns(QQ, chains)
    blocks = RepMatrices.direct_sum(
        [build_irrep(spec, QQ) for _, spec in summands]
    )
    assert scrambled.conjugated(u) == blocks


def test_composition_series_irreducible():
    adjoint = build_irrep(IrrepSpec.standard_params(QQ, 2), QQ)
    factors, trivial = composition_series(adjoint)
    assert factors == [3]
    assert trivial == []


def test_composition_series_orders_socle_first():
    rep = RepMatrices.direct_sum(
        [
            build_irrep(IrrepSpec.standard_params(QQ, 0), QQ),
            build_irrep(IrrepSpec.standard_params(QQ, 1), QQ),
        ]
    )
    factors, trivial = composition_series(rep)
    assert factors == [1, 2]
    assert trivial == [Vector.unit(QQ, 3, 0)]


def indecomposable_extension(p):
    """k[x]/(x^p) with E = d/dx, H = -2x d/dx, F = -x^2 d/dx."""
    field = GF(p)
    z = field.zero()
    e = [[z] * p for _ in range(p)]
    h = [[z] * p for _ in range(p)]
    f = [[z] * p for _ in range(p)]
    for i in range(1, p):
        e[i - 1][i] = field.from_int(i)
    for i in range(p):
        h[i][i] = field.from_int(-2 * i)
    for i in range(p - 1):
        f[i + 1][i] = field.from_int(-i)
    return RepMatrices.from_matrices(Matrix(field, e), Matrix(field, h), Matrix(field, f))


def test_extension_module_is_consistent():
    rep = indecomposable_extension(5)
    assert rep.satisfies_triple_relations()
    assert has_proper_submodule(rep)


def test_composition_series_extension_has_p_minus_1_factor():
    # indecomposable, socle trivial: the next factor has dimension p-1
    rep = indecomposable_extension(5)
    factors, trivial = composition_series(rep)
    assert len(trivial) == 1  # one trivial line => indecomposable
    assert factors[0] == 1
    assert 4 in factors
    assert sum(factors) == 5


def test_casimir_eigenvalue_one_on_extension_factors():
    # all composition factors of an indecomposable with a trivial submodule
    # carry Casimir eigenvalue 1
    from conftest import dense_power

    rep = indecomposable_extension(5)
    om = casimir(rep)
    shifted = om - Matrix.identity(GF(5), 5)
    assert dense_power(shifted, 5).is_zero()


def test_all_one_dim_factors_means_trivial():
    rep = RepMatrices.from_matrices(
        Matrix.zero(F5, 3, 3), Matrix.zero(F5, 3, 3), Matrix.zero(F5, 3, 3)
    )
    factors, trivial = composition_series(rep)
    assert factors == [1, 1, 1]
    assert len(trivial) == 3


def test_has_proper_submodule():
    assert not has_proper_submodule(build_irrep(IrrepSpec.standard_params(QQ, 2), QQ))
    two = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(QQ, 1), QQ)] * 2
    )
    assert has_proper_submodule(two)
    steinberg = build_irrep(IrrepSpec(4, F5.scalar(4), F5.scalar(0)), F5)
    assert not has_proper_submodule(steinberg)
    with_beta = build_irrep(IrrepSpec(4, F5.scalar(4), F5.scalar(1)), F5)
    assert not has_proper_submodule(with_beta)


def _weight_space_cases(data):
    """A field, an operator M and weight candidates: rho(H) of a sum of
    irreducibles in a weight, monomial or random dense basis, or a Jordan
    block of size 2 or more beside a diagonal part (not diagonalisable) in a
    random basis; the candidates a list in any order, repeats allowed, over
    F_p with several integers of one residue."""
    from conftest import random_invertible, random_monomial

    field = data.draw(st.sampled_from([QQ, GF(3), F5, F7]), label="field")
    p = field.characteristic
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    if data.draw(st.booleans(), label="jordan"):
        k = data.draw(st.integers(2, 4), label="block")
        diag = data.draw(st.lists(st.integers(-3, 3), max_size=3), label="diagonal")
        lam = data.draw(st.integers(-3, 3), label="eigenvalue")
        n = k + len(diag)
        cells = [[0] * n for _ in range(n)]
        for i in range(k):
            cells[i][i] = lam
            if i + 1 < k:
                cells[i][i + 1] = 1
        for i, d in enumerate(diag):
            cells[k + i][k + i] = d
        t = random_invertible(field, n, rng)
        m = t.inverse() @ Matrix(field, cells) @ t
    else:
        dims = data.draw(st.lists(st.integers(1, p or 5), min_size=1, max_size=4), label="dims")
        rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims])
        change = data.draw(st.sampled_from([None, random_monomial, random_invertible]), label="basis")
        m = (rep if change is None else rep.conjugated(change(field, rep.dim, rng))).matrices()[1]
    span = range(-8, 9) if p == 0 else range(-p, 2 * p)
    candidates = data.draw(st.lists(st.sampled_from(span), max_size=24), label="candidates")
    return field, m, candidates


@settings(max_examples=150)
@given(data=st.data())
def test_weight_spaces_match_the_dense_eigenspace_loop(data):
    # the one weight routine against one dense eigenspace per candidate: the
    # same spaces, in the candidates' order, whether it stops early (the
    # spaces add up to the dimension) or not (a Jordan block)
    from conftest import dense_weight_spaces, sparse_columns

    field, m, candidates = _weight_space_cases(data)
    spaces = _weight_spaces(field, sparse_columns(m), m.rows, candidates)
    dense = {c: [_densified(field, v, m.rows) for v in space] for c, space in spaces.items()}
    assert list(dense.items()) == list(dense_weight_spaces(m, candidates).items())


def pinned_modules(field):
    """The modules behind SL2_DIGESTS: sums of irreducibles in a fixed random
    basis, and over F_5 and F_7 the extension k[x]/(x^p) as well."""
    from conftest import random_invertible

    rng = random.Random(1729)
    sums = {"Q": [(2, 1, 0, 1), (3, 3), (1, 0, 0)], "F_5": [(3, 1, 0), (2, 2)], "F_7": [(5, 1), (4, 2, 0)]}
    out = []
    for ms in sums[str(field)]:
        rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, m), field) for m in ms])
        out.append(rep.conjugated(random_invertible(field, rep.dim, rng)))
    if field.kind == "prime":
        out.append(indecomposable_extension(field.p))
    return out, rng


def module_document(field, ms, rng):
    """sl(2) plus a sum of irreducibles with zero odd bracket, in a random odd basis."""
    from conftest import random_invertible
    from superbracket.constructions import assemble
    from superbracket.schema import serialize_algebra

    rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, m), field) for m in ms])
    g = assemble(sl2_algebra(field), rep)
    g = g.conjugated(Matrix.identity(field, 3), random_invertible(field, rep.dim, rng))
    return serialize_algebra(g)


@pytest.mark.parametrize(
    "field, ms",
    [(QQ, (2, 1, 0, 1)), (QQ, (3, 3)), (F5, (3, 1, 0)), (F7, (5, 1)), (F7, (4, 2, 0))],
    ids=str,
)
def test_composition_series_of_a_sum_in_a_random_basis(field, ms):
    # a completely reducible module in a random basis: its factors are its
    # summands, whatever echelon basis of ker(rho_E) the basis gives
    from conftest import random_invertible

    rep = RepMatrices.direct_sum([build_irrep(IrrepSpec.standard_params(field, m), field) for m in ms])
    rep = rep.conjugated(random_invertible(field, rep.dim, random.Random(1729)))
    factors, trivial = composition_series(rep)
    assert sorted(factors) == sorted(m + 1 for m in ms)
    assert len(trivial) == ms.count(0)


def baby_verma(field, lam):
    """Z(lam) over F_p: e_0..e_(p-1) with H e_i = (lam - 2i) e_i, E e_i =
    i(lam - i + 1) e_(i-1) and F e_i = e_(i+1), F e_(p-1) = 0.  For lam <
    p - 1 its socle is spanned by e_(lam+1), .., e_(p-1), of highest weight
    p - lam - 2."""
    p = field.p
    entries = {(1, i, i): field.from_int(lam - 2 * i) for i in range(p)}
    entries.update(((0, i, i - 1), field.from_int(i * (lam - i + 1))) for i in range(1, p))
    entries.update(((2, i, i + 1), field.one()) for i in range(p - 1))
    return RepMatrices(field, p, {key: c for key, c in entries.items() if c})


def _submodule_cases(data):
    """A module as the submodule oracles take it: a direct sum of
    irreducibles, V(p - 1) among them with any beta, and over F_p maybe the
    extension k[x]/(x^p) or Z(lam) + Z(p - lam - 2) as more parts, in the
    weight, a monomial or a random dense basis.  The socle of each of that
    pair of baby Verma modules has the other's highest weight, and for 0 <
    lam < p - 2 neither socle is trivial; so in a random basis the echelon
    highest weight vectors generically all generate reducible modules, and
    the socle member of least dimension among their closures is refined."""
    from conftest import random_invertible, random_monomial

    field = data.draw(st.sampled_from([QQ, GF(3), F5, F7]), label="field")
    p = field.characteristic
    parts = [indecomposable_extension(p)] if p and data.draw(st.booleans(), label="extension") else []
    if p >= 5 and data.draw(st.booleans(), label="baby Verma pair"):
        lam = data.draw(st.integers(1, p - 3), label="lam")
        parts += [baby_verma(field, lam), baby_verma(field, p - lam - 2)]
    for m in data.draw(st.lists(st.integers(0, (p or 5) - 1), min_size=0 if parts else 1, max_size=3), label="ms"):
        beta = data.draw(st.integers(0, p - 1), label="beta") if m == p - 1 else 0
        parts.append(build_irrep(IrrepSpec(m, field.scalar(m), field.scalar(beta)), field))
    rep = RepMatrices.direct_sum(data.draw(st.permutations(parts), label="order"))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    change = data.draw(st.sampled_from([None, random_monomial, random_invertible]), label="basis")
    return (rep if change is None else rep.conjugated(change(field, rep.dim, rng))), rng


@settings(max_examples=100)
@given(data=st.data())
def test_submodule_routines_match_the_dense_oracles(data):
    # the sparse routines against the dense ones they replaced: the same
    # factors, trivial part and answer, every closure vector for vector, the
    # same proper submodule of an invariant span, and the same errors
    from conftest import (
        dense_composition_series,
        dense_has_proper_submodule,
        dense_invariant_closure,
        dense_proper_submodule_inside,
        echelon_span,
    )
    from superbracket.sl2 import _image, _proper_submodule_inside, invariant_closure

    rep, rng = _submodule_cases(data)
    field, dim, mats = rep.field, rep.dim, rep.matrices()

    def outcome(run, *args):
        try:
            return run(*args)
        except ValueError as exc:
            return f"error: {exc}"

    def dense(vectors):
        return [_densified(field, v, dim) for v in vectors]

    def sparse_inside(basis):
        found = _proper_submodule_inside(rep, basis)
        if found is None:
            return None
        rows = [row.items() for row in basis.values()]
        return dense(_image(field, rows, v) for v in found[1].values())

    assert outcome(composition_series, rep) == outcome(dense_composition_series, rep)
    assert outcome(has_proper_submodule, rep) == outcome(dense_has_proper_submodule, rep)
    seeds = [{i: field.one()} for i in range(dim)]
    seeds.append({i: c for i in range(dim) if (c := field.coerce(rng.randint(-2, 2)))})
    for seed in seeds:
        closure = invariant_closure(rep, [seed])
        assert list(closure) == sorted(closure)
        assert dense(closure.values()) == dense_invariant_closure(mats, dense([seed]))
    # the closure of a random vector, and a random span that need not be
    # invariant, written as echelon rows keyed by their pivots
    spans = [invariant_closure(rep, [seeds[-1]])]
    vectors = [Vector(field, [rng.randint(-2, 2) for _ in range(dim)]) for _ in range(rng.randint(1, 3))]
    rows = [{j: x for j, x in enumerate(v.entries) if x} for v in echelon_span(field, vectors)]
    spans.append({min(row): row for row in rows})
    for basis in spans:
        assert outcome(sparse_inside, basis) == outcome(dense_proper_submodule_inside, rep, dense(basis.values()))


@pytest.mark.parametrize("p", [5, 7])
def test_composition_series_refines_a_reducible_closure(p, monkeypatch):
    # Z(lam) + Z(p - lam - 2) in random bases: the least closure of an
    # echelon highest weight vector is often reducible, so it is refined in
    # the coordinates of each submodule found; the series must still be the
    # dense oracle's, and the refinement must have run
    from conftest import dense_composition_series, random_invertible
    from superbracket import sl2

    found, inside = [], sl2._proper_submodule_inside
    monkeypatch.setattr(sl2, "_proper_submodule_inside", lambda rep, basis: found.append(inside(rep, basis)) or found[-1])
    field = GF(p)
    for lam in range(1, p - 2):
        for seed in range(5):
            rep = RepMatrices.direct_sum([baby_verma(field, lam), baby_verma(field, p - lam - 2)])
            rep = rep.conjugated(random_invertible(field, rep.dim, random.Random(seed)))
            assert composition_series(rep) == dense_composition_series(rep)
    assert any(found)


def test_submodule_routines_run_on_the_entries(monkeypatch):
    # a sum with a V(p - 1) and the extension k[x]/(x^p) in a random basis:
    # the series, the submodule test and the closures never build a dense view
    from conftest import random_invertible
    from superbracket.sl2 import invariant_closure

    parts = [indecomposable_extension(5), build_irrep(IrrepSpec(4, F5.scalar(4), F5.scalar(2)), F5)]
    parts.append(build_irrep(IrrepSpec.standard_params(F5, 1), F5))
    rep = RepMatrices.direct_sum(parts)
    rep = rep.conjugated(random_invertible(F5, rep.dim, random.Random(5)))

    def refused(self):
        raise AssertionError("a submodule routine built a dense view")

    monkeypatch.setattr(RepMatrices, "matrices", refused)
    factors, trivial = composition_series(rep)
    assert sorted(factors) == [1, 2, 4, 5] and len(trivial) == 1
    assert has_proper_submodule(rep)
    assert len(invariant_closure(rep, [{j: x for j, x in enumerate(trivial[0].entries) if x}])) == 1


SL2_DIGESTS = {
    "Q": "26ce0d0a129589bea196d96dcef40cbb5580f61b05e17559a03df28a033d9a12",
    "F_5": "46f6a422bffdbc32a734975c0d432b227b3e98d859b3a342df821738ad5d606c",
    "F_7": "f8bec4a6a5b93279a25add3ab26c8a44396756ad58c254bbba0ebd3083fc3650",
}


@pytest.mark.parametrize("field", [QQ, F5, F7], ids=str)
def test_sl2_outputs_are_pinned(field, tmp_path):
    # the exact vectors decompose, invariant_closure and the CLI return, and
    # the dimensions and trivial part of composition_series, on modules in a
    # random basis; recorded before the span queries moved to linalg.Span
    import contextlib
    import io

    from conftest import random_invertible
    from superbracket import cli
    from superbracket.sl2 import invariant_closure
    from superbracket.superalgebra import is_ideal

    def fmt(vectors):
        return "[" + "; ".join(" ".join(field.format(x) for x in v.entries) for v in vectors) + "]"

    modules, rng = pinned_modules(field)
    lines = []
    for rep in modules:
        for name, run in (
            ("decompose", lambda: " | ".join(f"{spec.m}:{fmt(chain)}" for chain, spec in decompose(rep))),
            ("series", lambda: (lambda factors, trivial: f"{factors} {fmt(trivial)}")(*composition_series(rep))),
            ("proper", lambda: has_proper_submodule(rep)),
        ):
            try:
                lines.append(f"{name} {run()}")
            except ValueError as exc:  # pinned too: some bases are not supported
                lines.append(f"{name} error: {exc}")
        for i in range(rep.dim):
            closure = invariant_closure(rep, [{i: field.one()}])
            lines.append(f"closure {i} {fmt([_densified(field, v, rep.dim) for v in closure.values()])}")
    sl2 = sl2_algebra(field)
    g = sl2.conjugated(random_invertible(field, 3, rng), Matrix.identity(field, 0))
    units = [Vector.unit(field, 3, i) for i in range(3)]
    subspaces = [[], units[:1], units[1:], units, [units[0] + units[2]]]
    subspaces += [[Vector(field, [rng.randint(-2, 2) for _ in range(3)]) for _ in range(k)] for k in (1, 2, 2, 3)]
    for s in subspaces:
        lines.append(f"ideal {fmt(s)} {is_ideal(g, s)} {is_ideal(sl2, s)}")
    for k, ms in enumerate({"Q": [(2, 1, 0), (1, 1)], "F_5": [(3, 1)], "F_7": [(2, 2, 0)]}[str(field)]):
        path = tmp_path / f"module{k}.json"
        path.write_text(module_document(field, ms, rng))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["decompose", str(path)])
        lines.append(f"cli {ms} {code} {out.getvalue()}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SL2_DIGESTS[str(field)], "\n".join(lines)
