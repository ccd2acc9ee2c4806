import ast
import random
import sys

import pytest
from conftest import fraction_check_morphism, random_graded_change
from hypothesis import given
from hypothesis import strategies as st

from superbracket.classify import classify, is_simple_superalgebra
from superbracket.constructions import (
    add_centre,
    build_char2_example,
    build_char3_example,
    build_double,
    build_osp,
    build_osp12,
    sl2_algebra,
    assemble,
    BilinearFormPair,
)
from superbracket.fields import GF, QQ
from superbracket.linalg import Matrix, Vector
from superbracket.moduli import solution_to_algebra, sweep_irrep_sums, odd_bracket_space
from superbracket.sl2 import IrrepSpec, RepMatrices, Sl2Triple, _proportionality, build_irrep
from superbracket.superalgebra import SuperAlgebra, check_morphism, supercentre

F5 = GF(5)
F7 = GF(7)


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("z", [0, 1, 3])
def test_osp12_plus_centre_is_case_c(field, z):
    g = add_centre(build_osp12(field), z)
    result = classify(g)
    assert result.case == "C"
    assert result.centre_dim == z
    assert check_morphism(result.certificate) == (True, None)
    assert result.canonical.dim_odd == 2 + z


@pytest.mark.parametrize("field", [QQ, F5, F7])
def test_double_is_case_b(field):
    g = build_double(sl2_algebra(field), Matrix.identity(field, 3))
    result = classify(g)
    assert result.case == "B"
    assert result.centre_dim == 0
    assert check_morphism(result.certificate) == (True, None)
    # the canonical model reuses g's own even constants, so the even block
    # is the identity -- no split model is ever involved
    assert result.certificate.m_even == Matrix.identity(field, 3)


def test_double_plus_centre_keeps_case_b():
    g = add_centre(build_double(sl2_algebra(F5), Matrix.identity(F5, 3)), 2)
    result = classify(g)
    assert result.case == "B" and result.centre_dim == 2
    assert check_morphism(result.certificate) == (True, None)


def test_zero_bracket_is_case_a():
    rep = build_irrep(IrrepSpec.standard_params(F5, 3), F5)
    g = assemble(sl2_algebra(F5), rep, ())
    result = classify(g)
    assert result.case == "A"
    assert result.centre_dim == 0  # V(3) has no invariants


def test_generic_osp_model_is_case_c():
    g = build_osp(BilinearFormPair.standard(QQ, 1, 2), QQ)
    result = classify(g)
    assert result.case == "C" and result.centre_dim == 0


def test_small_characteristic_not_applicable():
    assert classify(build_char3_example()).case == "not_applicable"
    assert classify(build_char2_example()).case == "not_applicable"


def test_non_simple_even_part_not_applicable():
    heis = SuperAlgebra.from_entries(QQ, 3, 0, bracket=[(0, 1, 2, 1)])
    result = classify(heis)
    assert result.case == "not_applicable"
    assert "simple" in result.reason


def test_wrong_even_dimension_not_applicable():
    g = SuperAlgebra.from_entries(QQ, 2, 0)
    assert classify(g).case == "not_applicable"


def test_invalid_input_not_applicable():
    g = build_osp12(QQ)
    tensors = [[list(r) for r in plane] for plane in g.odd_bracket]
    tensors[0][0][0] = QQ.from_int(7)
    bad = SuperAlgebra.from_tensors(QQ, g.bracket, g.action, tensors)
    result = classify(bad)
    assert result.case == "not_applicable"
    assert "not a Lie superalgebra" in result.reason


def test_restricted_note_in_positive_characteristic():
    result = classify(build_osp12(F5))
    assert result.restricted_note is not None
    assert classify(build_osp12(QQ)).restricted_note is None
    rep = build_irrep(IrrepSpec.standard_params(F5, 3), F5)
    zero = classify(assemble(sl2_algebra(F5), rep, ()))
    assert zero.restricted_note is None  # bracket vanishes


@pytest.mark.parametrize(
    "field,z", [(QQ, 0), (QQ, 2), (F5, 0), (F5, 2)]
)
def test_case_c_stable_under_basis_changes(field, z, rng):
    g = add_centre(build_osp12(field), z)
    for _ in range(20):
        a, b = random_graded_change(g, rng)
        result = classify(g.conjugated(a, b))
        assert result.case == "C"
        assert result.centre_dim == z
        assert check_morphism(result.certificate) == (True, None)


@pytest.mark.parametrize("field", [QQ, F5])
def test_case_b_stable_under_basis_changes(field, rng):
    g = build_double(sl2_algebra(field), Matrix.identity(field, 3))
    for _ in range(20):
        a, b = random_graded_change(g, rng)
        result = classify(g.conjugated(a, b))
        assert result.case == "B"
        assert check_morphism(result.certificate) == (True, None)


@given(
    field=st.sampled_from([QQ, F5, F7, GF(10**9 + 7)]),
    double=st.booleans(),
    z=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_classification_is_invariant_under_graded_basis_changes(field, double, z, seed):
    base = build_double(sl2_algebra(field), Matrix.identity(field, 3)) if double else build_osp12(field)
    g = add_centre(base, z)
    a, b = random_graded_change(g, random.Random(seed))
    result = classify(g.conjugated(a, b))
    assert (result.case, result.centre_dim) == ("B" if double else "C", z)
    assert fraction_check_morphism(result.certificate) == (True, None)


def test_case_a_stable_under_basis_changes(rng):
    rep = build_irrep(IrrepSpec.standard_params(F5, 2), F5)
    g = assemble(sl2_algebra(F5), rep, ())
    for _ in range(20):
        a, b = random_graded_change(g, rng)
        assert classify(g.conjugated(a, b)).case == "A"


def test_centre_dim_matches_supercentre():
    for g in (
        add_centre(build_osp12(F5), 2),
        add_centre(build_double(sl2_algebra(QQ), Matrix.identity(QQ, 3)), 1),
    ):
        result = classify(g)
        assert result.centre_dim == len(supercentre(g)[1])
        canonical_centre = supercentre(result.canonical)[1]
        assert len(canonical_centre) == result.centre_dim


@pytest.mark.parametrize("field,max_dim", [(F5, 6), (F7, 8)])
def test_sweep_solutions_always_classify(field, max_dim):
    even = sl2_algebra(field)
    for row in sweep_irrep_sums(field, max_dim):
        if row.dimension == 0:
            continue
        rep = RepMatrices.direct_sum(
            [
                build_irrep(IrrepSpec.standard_params(field, d - 1), field)
                for d in row.composition
            ]
        )
        holder = assemble(even, rep, ())
        space = odd_bracket_space(holder)
        for i in range(space.dimension):
            g = solution_to_algebra(holder, space, i)
            result = classify(g)
            assert result.case in ("B", "C"), (row.composition, result.reason)


def test_is_simple():
    assert is_simple_superalgebra(build_osp12(QQ))
    assert not is_simple_superalgebra(add_centre(build_osp12(QQ), 1))
    assert not is_simple_superalgebra(
        build_double(sl2_algebra(QQ), Matrix.identity(QQ, 3))
    )
    assert is_simple_superalgebra(sl2_algebra(QQ))
    rep = build_irrep(IrrepSpec.standard_params(QQ, 2), QQ)
    assert not is_simple_superalgebra(assemble(sl2_algebra(QQ), rep, ()))
    with pytest.raises(ValueError):
        is_simple_superalgebra(build_char3_example())


# the package re-exports the function ``classify`` under the module's name
CLASSIFY = sys.modules["superbracket.classify"]


def _double(field):
    return build_double(sl2_algebra(field), Matrix.identity(field, 3))


@pytest.mark.parametrize("g", [build_osp12(F5), _double(QQ)], ids=["osp12", "double"])
def test_certificate_check_alone_rejects_a_wrong_normal_form(g, monkeypatch):
    # gamma (case C) or c (case B) read off twice too large: the certificate
    # built from it is wrong, and only check_morphism stands in the way
    def doubled(target, reference):
        c = _proportionality(target, reference)
        return None if c is None else target.field.mul(target.field.from_int(2), c)

    monkeypatch.setattr(CLASSIFY, "_proportionality", doubled)
    result = classify(g)
    assert result.case == "not_applicable" and result.certificate is None
    assert result.reason.startswith("internal certificate failed verification: ")


_osp12_z1 = add_centre(build_osp12(F5), 1)

# (algebra, patched name, replacement, reason): each replacement feeds one
# raise in classify.py a value that the theorem rules out
RAISES = [
    (_osp12_z1, "supercentre", lambda g: ([], []),
     "odd part modulo its centre has dimension 3, which the classification "
     "forbids -- check the input and characteristic"),
    (_osp12_z1, "_action_image", lambda g: [Vector.unit(F5, 3, 0), Vector.unit(F5, 3, 2)], "action image is not invariant"),
    (build_osp12(F5), "_action_image", lambda g: [], "action image has dimension 0, expected 2"),
    (build_osp12(F5), "_action_on", lambda g, summand: [Matrix.zero(F5, 2, 2)] * 3,
     "the 2-dimensional module is not faithful onto sl(2)"),
    (build_osp12(F5), "_proportionality", lambda t, r: None, "{e0,e1} is not a nonzero multiple of H"),
    (build_osp12(F5), "Sl2Triple", lambda e, h, f: Sl2Triple(f, h, f), "triple vectors are linearly dependent"),
    (_osp12_z1, "supercentre", lambda g: ([], [Vector.unit(F5, 3, 0)]), "summands + centre do not span the odd part"),
    (_double(QQ), "_action_image", lambda g: [], "action image has dimension 0, expected 3"),
    (_double(QQ), "intertwiners", lambda field, pairs: [],
     "equivariant maps to the even part form a 0-dimensional space, expected a Schur line"),
    (_double(QQ), "_action_kernel", lambda g: [], "no trivial line pairs with the adjoint summand"),
    (_double(QQ), "_proportionality", lambda t, r: None, "pairing is not proportional to the Schur line"),
]


@pytest.mark.parametrize("g,name,patched,reason", RAISES, ids=[r[3][:40] for r in RAISES])
def test_each_guard_ends_in_not_applicable(g, name, patched, reason, monkeypatch):
    monkeypatch.setattr(CLASSIFY, name, patched)
    assert classify(g) == CLASSIFY.ClassificationResult("not_applicable", reason=reason)


def test_every_raise_in_classify_is_reached():
    # every _TheoremViolated raise, keyed by the literal text its message
    # starts with, is matched by a reason above or by the certificate test
    reached = [r[3] for r in RAISES] + ["internal certificate failed verification: "]
    with open(CLASSIFY.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    messages = [
        node.exc.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "_TheoremViolated"
    ]
    # an f-string's head is its first literal part
    heads = [m.value if isinstance(m, ast.Constant) else m.values[0].value for m in messages]
    assert len(heads) == len(RAISES) + 1
    for head in heads:
        assert any(reason.startswith(head) for reason in reached), head
