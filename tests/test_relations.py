"""The shared compatibility relations: the sparse representation check and
validate's evaluation of the solver's equations, against slow oracles."""

import random
from collections import Counter

import pytest
from conftest import (
    action_matrix,
    bumped,
    coprime_bracket_algebra,
    dense_representation_failures,
    fraction_validate,
    naive_equations,
    naive_char2_violations,
    nonzero_columns,
    random_graded_change,
    random_invertible,
    random_monomial,
    raw_maps,
)
from hypothesis import given
from hypothesis import strategies as st

from superbracket.constructions import (
    BilinearFormPair,
    add_centre,
    build_char2_example,
    build_char3_example,
    build_double,
    build_osp,
    build_osp12,
    sl2_algebra,
)
from superbracket.fields import GF, QQ
from superbracket.linalg import Matrix, Span, Vector
from superbracket.moduli import odd_bracket_space
from superbracket.sl2 import IrrepSpec, RepMatrices, build_irrep
from superbracket.superalgebra import (
    MODES,
    SuperAlgebra,
    _products_per_output,
    compatibility_equations,
    odd_unknowns,
    representation_failures,
    validate,
)

BIG = GF(10**9 + 7)


def module_algebra(field, mats, tensor=None):
    """sl(2) acting on a module by ``mats``, with odd bracket ``tensor``."""
    d1 = mats[0].rows
    action = [m.transpose().data for m in mats]
    if tensor is None:
        tensor = [[[0] * 3 for _ in range(d1)] for _ in range(d1)]
    return SuperAlgebra.from_tensors(field, sl2_algebra(field).bracket, action, tensor)


def irrep_sum(field, dims):
    return RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims]
    )


# --- representation check --------------------------------------------------


def random_scalar(field, rng):
    if field.kind == "prime":
        return rng.randrange(field.p)
    return field.coerce(rng.randint(-3, 3)) / rng.randint(1, 3)


@pytest.mark.parametrize("field", [QQ, GF(7), BIG], ids=str)
def test_sparse_representation_check_matches_dense_oracle(field, rng):
    even = sl2_algebra(field).bracket
    seen = set()
    for dims in [(1,), (2,), (3,), (2, 1), (3, 2), (4, 1, 1)]:
        rep = irrep_sum(field, dims)
        n = rep.dim
        for module in (rep, rep.conjugated(random_invertible(field, n, rng))):
            mats = list(module.matrices())
            cases = [(even, mats)]
            # one-coefficient perturbations, a random sparse action, and a
            # random bracket (not a Lie bracket) against the true module
            for _ in range(3):
                x, r, c = rng.randrange(3), rng.randrange(n), rng.randrange(n)
                data = [list(row) for row in mats[x].data]
                data[r][c] = field.add(data[r][c], field.one())
                cases.append((even, mats[:x] + [Matrix(field, data)] + mats[x + 1 :]))
            sparse = [
                Matrix(
                    field,
                    [
                        [random_scalar(field, rng) if rng.random() < 0.3 else 0 for _ in range(n)]
                        for _ in range(n)
                    ],
                )
                for _ in range(3)
            ]
            cases.append((even, sparse))
            bogus = [
                [[random_scalar(field, rng) for _ in range(3)] for _ in range(3)] for _ in range(3)
            ]
            cases.append((bogus, mats))
            for bracket, ms in cases:
                expected = dense_representation_failures(field, bracket, ms)
                act = nonzero_columns([m.transpose().data for m in ms])
                assert representation_failures(field, nonzero_columns(bracket), act) == expected
                seen.add(bool(expected))
    assert seen == {True, False}


# --- validate against an all-ordered-triples oracle --------------------------


def naive_violations(g):
    """(identity, indices) of every violation, from fraction_bilinear on the
    raw tensors and unit vectors over all ordered index triples, each tag
    named by its sorted indices, in validate's order."""
    f, d0, d1 = g.field, g.dim_even, g.dim_odd
    e = [Vector.unit(f, d0, i) for i in range(d0)]
    o = [Vector.unit(f, d1, i) for i in range(d1)]
    br, act, ob = raw_maps(g)
    out = []
    jacobi = {
        tuple(sorted((i, j, k)))
        for i in range(d0)
        for j in range(d0)
        for k in range(d0)
        if not (
            br(e[i], br(e[j], e[k])) + br(e[j], br(e[k], e[i])) + br(e[k], br(e[i], e[j]))
        ).is_zero()
    }
    out += [("even_jacobi", t) for t in sorted(jacobi)]
    mats = [action_matrix(g, x) for x in range(d0)]
    out += [("representation", t) for t in dense_representation_failures(f, g.bracket, mats)]
    if g.mode == "char2":
        return out + naive_char2_violations(g)
    rel1 = {
        tuple(sorted((u, v, w)))
        for u in range(d1)
        for v in range(d1)
        for w in range(d1)
        if not (
            act(ob(o[u], o[v]), o[w]) + act(ob(o[v], o[w]), o[u]) + act(ob(o[w], o[u]), o[v])
        ).is_zero()
    }
    out += [("relation_1", t) for t in sorted(rel1)]
    rel2 = {
        (x, min(u, v), max(u, v))
        for x in range(d0)
        for u in range(d1)
        for v in range(d1)
        if br(e[x], ob(o[u], o[v])) != ob(act(e[x], o[u]), o[v]) + ob(o[u], act(e[x], o[v]))
    }
    out += [("relation_2", t) for t in sorted(rel2)]
    if g.mode == "char3":
        # coefficient of t_a t_b t_c in {x,{x,x}}: every arrangement of {a,b,c}
        cubic = {}
        for i in range(d1):
            for j in range(d1):
                for k in range(d1):
                    key = tuple(sorted((i, j, k)))
                    term = act(ob(o[i], o[j]), o[k])
                    cubic[key] = cubic[key] + term if key in cubic else term
        out += [("char3_cubic", t) for t in sorted(cubic) if not cubic[t].is_zero()]
    return out


def perturbations(g, rng, count):
    """g with one odd-bracket coefficient {f_u,f_v}_x moved by a nonzero c."""
    f, d0, d1 = g.field, g.dim_even, g.dim_odd
    for _ in range(count):
        u = rng.randrange(d1)
        v = rng.randrange(u, d1)
        x = rng.randrange(d0)
        c = random_scalar(f, rng) or f.one()
        tensor = [[list(r) for r in plane] for plane in g.odd_bracket]
        tensor[u][v][x] = f.add(tensor[u][v][x], c)
        yield SuperAlgebra.from_tensors(f, g.bracket, g.action, tensor, mode=g.mode)


@pytest.mark.parametrize("field", [QQ, GF(5), BIG], ids=str)
@pytest.mark.parametrize("build", ["osp12", "double"])
@pytest.mark.parametrize("z", [0, 2])
def test_validate_matches_naive_oracle_on_perturbations(field, build, z, rng):
    if build == "osp12":
        g = build_osp12(field)
    else:
        g = build_double(sl2_algebra(field), Matrix.identity(field, 3))
    g = add_centre(g, z)
    assert validate(g).ok and naive_violations(g) == []
    failing = 0
    for h in perturbations(g, rng, 12):
        got = [(v.identity, v.indices) for v in validate(h).violations]
        assert got == naive_violations(h)
        failing += bool(got)
    assert failing


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("dim", [1, 2], ids=["V0", "V1"])
def test_validate_matches_naive_oracle_below_the_even_dimension(field, dim, rng):
    # d1 < d0 = 3: relation 2 has three even outputs, relation 1 only d1
    # odd ones, so a residual sized for the odd outputs cannot hold relation 2
    mats = list(irrep_sum(field, [dim]).matrices())
    g = module_algebra(field, mats)
    space = odd_bracket_space(g)
    if space.basis:
        g = module_algebra(field, mats, [[list(r) for r in pl] for pl in space.basis[-1]])
    assert g.dim_odd < g.dim_even
    assert validate(g).ok and naive_violations(g) == []
    identities = set()
    for h in perturbations(g, rng, 8):
        got = [(v.identity, v.indices) for v in validate(h).violations]
        assert got == naive_violations(h)
        identities.update(i for i, _ in got)
    assert "relation_2" in identities


def test_validate_matches_naive_oracle_on_the_char3_example(rng):
    g = build_char3_example()
    assert validate(g).ok and naive_violations(g) == []
    identities = set()
    for h in perturbations(g, rng, 20):
        got = [(v.identity, v.indices) for v in validate(h).violations]
        assert got == naive_violations(h)
        identities.update(i for i, _ in got)
    assert "char3_cubic" in identities


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7), GF(3)], ids=str)
def test_even_jacobi_violations_match_the_oracle_at_larger_even_dimension(field, rng):
    # osp(m|2) at d0 = 4, 6 and 9, whose even identity has 4, 20 and 84
    # triples, in its own basis and in a random graded one (over Q with
    # denominators, so each detail is divided by D^2), with 1 added at one
    # or two random even-bracket cells (over F_3 in char3 mode): validate's
    # violations are the oracle's, in its order and with its details
    jacobi = set()
    for m in (2, 3, 4):
        g = build_osp(BilinearFormPair.standard(field, m, 2), field)
        d0 = g.dim_even
        for h in (g, g.conjugated(*random_graded_change(g, rng))):
            for n in (1, 2):
                cells = [(*sorted(rng.sample(range(d0), 2)), rng.randrange(d0)) for _ in range(n)]
                bad = bumped(h, "bracket", cells)
                got = validate(bad).violations
                assert got == fraction_validate(bad).violations
                jacobi.update(v.indices for v in got if v.identity == "even_jacobi")
    assert max(k for _, _, k in jacobi) >= 6
    if field == QQ:
        assert bad._integer_form().d > 1


def test_even_jacobi_violations_past_the_cut_off_match_the_oracle():
    # a 9|2 bracket whose integer form keeps Fractions: the even identity
    # is summed output by output, and each detail divided by no scale
    g = coprime_bracket_algebra(9, 2)
    assert g._integer_form().d == 1
    got = validate(g).violations
    assert got == fraction_validate(g).violations
    assert sum(v.identity == "even_jacobi" for v in got) > 40


def flipped_char2(g, rng):
    """g with up to two squaring and one action coefficient flipped over
    F_2, rebuilt from entries so that the odd bracket stays the squaring's
    polarization."""
    d0, d1 = g.dim_even, g.dim_odd
    sq = {(v, w, k): c for v in range(d1) for w in range(v, d1) for k, c in enumerate(g.squaring[v][w])}
    act = {(x, v, w): g.action[x][v][w] for x in range(d0) for v in range(d1) for w in range(d1)}
    for _ in range(rng.randrange(3)):
        v = rng.randrange(d1)
        sq[v, rng.randrange(v, d1), rng.randrange(d0)] ^= 1
    for _ in range(rng.randrange(2)):
        act[rng.randrange(d0), rng.randrange(d1), rng.randrange(d1)] ^= 1
    bracket = [(i, j, k, c) for i in range(d0) for j in range(i + 1, d0) for k, c in enumerate(g.bracket[i][j])]
    return SuperAlgebra.from_entries(
        g.field,
        d0,
        d1,
        bracket,
        [key + (c,) for key, c in act.items()],
        mode="char2",
        squaring=[key + (c,) for key, c in sq.items()],
    )


def test_validate_matches_naive_oracle_on_random_char2_algebras(rng):
    f2 = GF(2)
    outcomes = set()
    for _ in range(300):
        g = add_centre(build_char2_example(), rng.randrange(3))
        g = g.conjugated(random_invertible(f2, 3, rng), random_invertible(f2, g.dim_odd, rng))
        h = flipped_char2(g, rng)
        got = [(v.identity, v.indices) for v in validate(h).violations]
        assert got == naive_violations(h)
        outcomes.add(tuple(sorted({i for i, _ in got})))
    assert {(), ("char2_square",), ("char2_square", "representation")} <= outcomes


# --- validate passes exactly on the solver's span ------------------------------


@given(
    field=st.sampled_from([QQ, GF(5), GF(7)]),
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_validate_accepts_exactly_the_solution_span(field, dims, seed):
    rng = random.Random(seed)
    rep = irrep_sum(field, dims)
    d1 = rep.dim
    g = module_algebra(field, list(rep.matrices()))
    space = odd_bracket_space(g)

    def flat(tensor):
        return Vector(field, [c for u in range(d1) for v in range(u, d1) for c in tensor[u][v]])

    span = Span(field, [flat(t) for t in space.basis], 3 * d1 * (d1 + 1) // 2)
    tensor = [[[field.zero()] * 3 for _ in range(d1)] for _ in range(d1)]
    for t in space.basis:
        c = random_scalar(field, rng)
        for u in range(d1):
            for v in range(d1):
                old = zip(tensor[u][v], t[u][v])
                tensor[u][v] = [field.add(a, field.mul(c, b)) for a, b in old]
    h = module_algebra(field, list(rep.matrices()), tensor)
    assert validate(h).ok
    for bad in perturbations(h, rng, 3):
        report = validate(bad)
        assert report.identities() <= {"relation_1", "relation_2"}
        assert report.ok == (flat(bad.odd_bracket) in span)


# --- the products per output that bound validate's packed slots ---------------


def test_instances_sum_at_most_the_bounded_products_per_output(rng):
    # every column holds at most one pair per output, and no output of an
    # instance sums more products than validate's slot width allows for.
    # Where every entry is nonzero, relation 1 sums 3 d0 products and
    # relation 2 sums d0 - 1 + 2 d1 (its bracket term has no pair from
    # [e_x, e_x] = 0), so the bound is reached for d1 <= d0 and missed by
    # one above.
    def worst(g):
        act = nonzero_columns(g.action)
        top = 0
        for _, _, terms in compatibility_equations(nonzero_columns(g.bracket), act, g.mode):
            counts = Counter()
            for _, group in terms:
                for col in group:
                    outputs = [t for t, _ in col]
                    assert len(outputs) == len(set(outputs))
                    counts.update(outputs)
            top = max(top, max(counts.values(), default=0))
        return top

    def nonzero(field):
        return rng.randrange(1, field.p) if field.kind == "prime" else field.coerce(rng.choice([-2, -1, 1, 3]))

    for field in (QQ, GF(7)):
        for d1 in (1, 2, 3, 4, 7):
            bracket, action, odd = (
                [[[nonzero(field) for _ in range(c)] for _ in range(b)] for _ in range(a)]
                for a, b, c in ((3, 3, 3), (3, d1, d1), (d1, d1, 3))
            )
            g = SuperAlgebra.from_tensors(field, bracket, action, odd)
            bound = _products_per_output(3, d1)
            assert worst(g) == max(9, 2 + 2 * d1) == (bound if d1 <= 3 else bound - 1)
    for field, base in [
        (GF(7), build_osp12(GF(7))),
        (QQ, build_double(sl2_algebra(QQ), Matrix.identity(QQ, 3))),
        (GF(3), build_char3_example()),
        (GF(2), build_char2_example()),
    ]:
        for z in (0, 1, 6):
            g = add_centre(base, z)
            g = g.conjugated(random_invertible(field, 3, rng), random_invertible(field, g.dim_odd, rng))
            assert worst(g) <= _products_per_output(g.dim_even, g.dim_odd)


# --- instance selection by the support of the odd bracket ----------------------


def monomial_documents(d1, rng):
    """osp(1|2) + z over Q and F_7, the char-3 example + z and the char-2
    example + z, each of odd dimension d1 and in a random monomial basis:
    the odd bracket holds a few pairs, relabelled and rescaled."""
    for field, base in [
        (QQ, build_osp12(QQ)),
        (GF(7), build_osp12(GF(7))),
        (GF(3), build_char3_example()),
        (GF(2), build_char2_example()),
    ]:
        g = add_centre(base, d1 - base.dim_odd)
        yield g.conjugated(random_monomial(field, 3, rng), random_monomial(field, d1, rng))


def with_entries(g, rng, odd=0, action=0):
    """g with ``odd`` random odd-bracket and ``action`` random action
    coefficients each moved by a nonzero scalar."""
    f, d0, d1 = g.field, g.dim_even, g.dim_odd
    act = [[list(r) for r in plane] for plane in g.action]
    tensor = [[list(r) for r in plane] for plane in g.odd_bracket]
    for _ in range(action):
        x, v, w = rng.randrange(d0), rng.randrange(d1), rng.randrange(d1)
        act[x][v][w] = f.add(act[x][v][w], random_scalar(f, rng) or f.one())
    for _ in range(odd):
        u = rng.randrange(d1)
        v, x = rng.randrange(u, d1), rng.randrange(d0)
        tensor[u][v][x] = f.add(tensor[u][v][x], random_scalar(f, rng) or f.one())
    return SuperAlgebra.from_tensors(f, g.bracket, act, tensor, mode=g.mode)


def variants(g, rng):
    """Documents near g: a few random odd-bracket entries, one-entry
    perturbations of the odd bracket and of the action, or in char2 mode
    flipped squaring and action coefficients."""
    if g.mode == "char2":
        return [flipped_char2(g, rng) for _ in range(4)]
    return [with_entries(g, rng, odd=3), *perturbations(g, rng, 2), with_entries(g, rng, action=1)]


def found(report):
    return [(v.identity, v.indices) for v in report.violations]


@pytest.mark.parametrize("d1", [6, 24, 40])
def test_validate_matches_the_oracles_on_support_sparse_documents(d1, rng):
    # validate evaluates only the instances the odd bracket's support can
    # violate; the oracles evaluate every instance (fraction_validate) or
    # every ordered triple (naive_violations).  The char-2 oracle takes
    # seconds past d1 = 24.
    failing = 0
    for g in monomial_documents(d1, rng):
        if g.mode == "char2" and d1 > 24:
            continue
        for h in [g, *variants(g, rng)]:
            got = found(validate(h))
            assert got == (naive_violations(h) if d1 <= 6 else found(fraction_validate(h)))
            failing += bool(got)
        assert validate(g).ok
    assert failing


@pytest.mark.parametrize("mode,field", [("standard", QQ), ("char3", GF(3)), ("char2", GF(2))])
def test_validate_without_an_even_part(mode, field):
    # d0 = 0: there are no unknowns, so the support is empty and no
    # instance is generated, though the action is too empty to give d1
    g = SuperAlgebra.from_entries(field, 0, 3, mode=mode, squaring=[] if mode == "char2" else None)
    assert validate(g).ok and naive_violations(g) == []


def test_validate_at_large_d1_equals_the_full_system(monkeypatch, rng):
    # at d1 = 100 the oracles take minutes; the integer form evaluated on
    # every instance of the generator (support None) is the reference
    import superbracket.superalgebra as sa

    docs = []
    for g in monomial_documents(100, rng):
        docs += [g, variants(g, rng)[0]]
    got = [validate(h).violations for h in docs]
    real = sa.compatibility_equations
    monkeypatch.setattr(sa, "compatibility_equations", lambda b, a, mode, support: real(b, a, mode))
    assert [validate(h).violations for h in docs] == got
    assert any(got) and not all(got)


@given(
    mode=st.sampled_from(MODES),
    d0=st.integers(1, 3),
    d1=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_selects_exactly_the_instances_with_a_term_in_it(mode, d0, d1, seed):
    # a random sparse bracket and action (neither need be a Lie bracket or
    # a representation) and a random symmetric support S: the instances
    # yielded for S are those of the naive enumeration with a term at a
    # pair in S, in the same order and with the same terms
    rng = random.Random(seed)
    density, held_density = rng.random(), rng.random()

    def sparse(*shape):
        return [[[rng.choice((1, -2)) if rng.random() < density else 0 for _ in range(shape[2])] for _ in range(shape[1])] for _ in range(shape[0])]

    ecols, act = nonzero_columns(sparse(d0, d0, d0)), nonzero_columns(sparse(d0, d1, d1))
    base = odd_unknowns(d0, d1)
    support, held = [0] * d1, set()
    for u in range(d1):
        for v in range(u, d1):
            if rng.random() < held_density:
                support[u] |= 1 << v
                support[v] |= 1 << u
                held.add(base[u][v])
    full = naive_equations(ecols, act, mode)
    expected = [e for e in full if any(b in held for b, _ in e[2])]
    assert list(compatibility_equations(ecols, act, mode, support)) == expected


@given(
    mode=st.sampled_from(MODES),
    d0=st.integers(0, 3),
    d1=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_support_is_the_full_support(mode, d0, d1, seed):
    # a random sparse bracket and action (neither need be a Lie bracket or
    # a representation): with no support given, the selectors run on the
    # full one and yield every instance that has a term, in the order and
    # with the terms of the naive enumeration over every index; at d0 = 0
    # there is nothing
    rng = random.Random(seed)
    density = rng.random()

    def sparse(*shape):
        return [[[rng.choice((1, -2)) if rng.random() < density else 0 for _ in range(shape[2])] for _ in range(shape[1])] for _ in range(shape[0])]

    ecols, act = nonzero_columns(sparse(d0, d0, d0)), nonzero_columns(sparse(d0, d1, d1))
    got = list(compatibility_equations(ecols, act, mode))
    assert got == naive_equations(ecols, act, mode)
    assert all(terms for _, _, terms in got)
    if d0 == 0:
        assert got == []
