import hashlib
import random
from fractions import Fraction

import pytest
from conftest import action_matrix, restrict_odd, square_vec

from superbracket.constructions import (
    AssembleError,
    BilinearFormPair,
    add_centre,
    assemble,
    build_char2_example,
    build_char3_example,
    build_double,
    build_osp,
    build_osp12,
    sl2_algebra,
)
from superbracket.fields import GF, QQ
from superbracket.linalg import Matrix, Vector
from superbracket.schema import serialize_algebra
from superbracket.sl2 import RepMatrices
from superbracket.superalgebra import (
    MorphismCertificate,
    SuperAlgebra,
    check_morphism,
    supercentre,
    validate,
)

F3 = GF(3)
F5 = GF(5)


def test_osp12_moment_map_values():
    g = build_osp12(QQ)
    assert g.odd_bracket[0][0] == (2, 0, 0)  # {e0,e0} = 2E
    assert g.odd_bracket[0][1] == (0, -1, 0)  # {e0,e1} = -H
    assert g.odd_bracket[1][1] == (0, 0, -2)  # {e1,e1} = -2F
    assert validate(g).ok


def test_osp12_rejects_char2():
    with pytest.raises(ValueError):
        build_osp12(GF(2))


def test_osp12_char3_mode():
    g = build_osp12(F3)
    assert g.mode == "char3"
    assert validate(g).ok


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize(
    "d0,d1", [(1, 2), (2, 2), (1, 4), (3, 2)]
)
def test_osp_dimension_formula(field, d0, d1):
    g = build_osp(BilinearFormPair.standard(field, d0, d1), field)
    assert g.dim_even == d0 * (d0 - 1) // 2 + d1 * (d1 + 1) // 2
    assert g.dim_odd == d0 * d1
    assert validate(g).ok


# sha256 over d0 in 0..3, d1 in (0, 2, 4) and the q diagonals (1, 1, 1) and
# (2, -1, 3), cut to d0, of each serialized build_osp or its error message
OSP_DIGESTS = {
    "Q": "1c598971576fe137353b549c7289284ef1edc1a865ffbcf624ed3e64dd77575a",
    "F_3": "95c5fc70967b381189a8c3dc406ae4ced8bc2ed010ae42527f417cf0c969ad82",
    "F_5": "2a829f952da2bcc3635932c9f0ed3a363c583c7e25bac9753425dff34f6c02e1",
    "F_7": "130752dcd6a122b91e72bdc0f762afe8fb4d27a42e6c0e324ece3528c4af1bb5",
    "F_11": "36667c28c41ca2a17a5ac685b07b4242dc625efd794c1281a6b4f1c737c2d931",
}


@pytest.mark.parametrize("field", [QQ, F3, F5, GF(7), GF(11)], ids=str)
def test_osp_bytes_are_pinned(field):
    digest, errors = hashlib.sha256(), []
    for d0 in range(4):
        for d1 in (0, 2, 4):
            for diag in ([1, 1, 1], [2, -1, 3]):
                try:
                    omega = BilinearFormPair.standard(field, 0, d1).omega
                    forms = BilinearFormPair(Matrix.diagonal(field, diag[:d0]), omega)
                    out = serialize_algebra(build_osp(forms, field))
                except ValueError as exc:
                    out = f"error: {exc}\n"
                    errors.append(out)
                digest.update(out.encode())
    assert digest.hexdigest() == OSP_DIGESTS[str(field)]
    # 3 = 0 in F_3 makes the second diagonal degenerate at d0 = 3
    assert errors == (["error: q is degenerate\n"] * 3 if field == F3 else [])


# sha256 of the serialized build_osp at the CLI's shapes, `construct osp
# --d0 5 --d1 6` and `--d0 7 --d1 8` with q the identity, as the dense
# matrix products wrote them
CLI_OSP_DIGESTS = {
    ("Q", 5, 6): "832da2107c94e37e5c5983b533c9926ab5e990618b3980079bfb3ee733cde112",
    ("Q", 7, 8): "5cb9c9b9f280ee92e885a1fbdda005f8629c0c2d2de3436276ad519d3b55594e",
    ("F_7", 5, 6): "a00cc1e0d26d72e96b3da26b259e09771a010c3365292a234b270430a70d95e4",
    ("F_7", 7, 8): "8a9c5fafc8ff1bff566df7beaf5d74fdb2e3c584069825f696195ab3c363fcee",
}


@pytest.mark.parametrize("field,d0,d1", [(QQ, 5, 6), (QQ, 7, 8), (GF(7), 5, 6), (GF(7), 7, 8)], ids=str)
def test_osp_bytes_at_the_cli_shapes_are_pinned(field, d0, d1):
    out = serialize_algebra(build_osp(BilinearFormPair.standard(field, d0, d1), field))
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_OSP_DIGESTS[str(field), d0, d1]


def random_forms(field, d0, d1, rng):
    """A random diagonal q, its entries drawn with negative and non-square
    values among them, and the standard omega."""
    if field.characteristic:
        diag = [rng.randrange(1, field.characteristic) for _ in range(d0)]
    else:
        diag = [rng.choice([1, -1, 2, -2, 3, -3, 5, Fraction(1, 2), Fraction(-2, 3)]) for _ in range(d0)]
    return BilinearFormPair(Matrix.diagonal(field, diag), BilinearFormPair.standard(field, 0, d1).omega)


@pytest.mark.parametrize("field", [QQ, F3, F5, GF(7), GF(11)], ids=str)
def test_osp_matches_the_dense_products(field):
    # the structure constants read off each basis element's free cell
    # against dense matrix products read back through a Span
    from conftest import dense_build_osp

    rng = random.Random(20250808)
    for d0 in range(5):
        for d1 in (0, 2, 4):
            forms = random_forms(field, d0, d1, rng)
            expected = serialize_algebra(dense_build_osp(forms, field))
            assert serialize_algebra(build_osp(forms, field)) == expected, (d0, d1, forms)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_osp_matches_the_dense_products_on_general_forms(field):
    # a symmetric q off the diagonal and an omega other than the standard
    # form: basis elements with several nonzeros, products that mix them
    from conftest import dense_build_osp

    q = Matrix(field, [[1, 2, 0], [2, -1, 3], [0, 3, 2]])
    omega = Matrix(field, [[0, 1, 2, 0], [-1, 0, 1, 3], [-2, -1, 0, 1], [0, -3, -1, 0]])
    for forms in (
        BilinearFormPair(q, BilinearFormPair.standard(field, 0, 2).omega),
        BilinearFormPair(Matrix.identity(field, 2), omega),
        BilinearFormPair(q, omega),
    ):
        expected = serialize_algebra(dense_build_osp(forms, field))
        assert serialize_algebra(build_osp(forms, field)) == expected


def test_osp_without_odd_part_is_sp2():
    g = build_osp(BilinearFormPair.standard(QQ, 0, 2), QQ)
    assert (g.dim_even, g.dim_odd) == (3, 0)
    assert validate(g).ok


def test_osp_degenerate_forms_rejected():
    with pytest.raises(ValueError):
        BilinearFormPair(Matrix(QQ, [[0]]), BilinearFormPair.standard(QQ, 0, 2).omega)
    with pytest.raises(ValueError):
        BilinearFormPair.standard(QQ, 1, 3)  # odd symplectic dimension


@pytest.mark.parametrize("d0,d1", [(-1, -2), (1, -3), (-1, 2), (0, -2)])
def test_standard_forms_refuse_negative_dimensions(d0, d1):
    # range() of a negative bound is empty, so the pair would come out smaller
    with pytest.raises(ValueError, match="dimensions must be nonnegative"):
        BilinearFormPair.standard(QQ, d0, d1)


def test_double_shape_and_rules():
    dbl = build_double(sl2_algebra(QQ), Matrix.identity(QQ, 3))
    assert (dbl.dim_even, dbl.dim_odd) == (3, 4)
    # {x, f} = 0 for the centralizer line
    for x in range(3):
        col = action_matrix(dbl, x).column(3)
        assert col.is_zero()
    # {v, w} = 0 inside the copy of the even part
    for u in range(3):
        for v in range(3):
            assert not any(dbl.odd_bracket[u][v])
    # {v_i, f} = e_i for phi = f = id
    for i in range(3):
        assert dbl.odd_bracket[i][3] == tuple(
            QQ.one() if k == i else QQ.zero() for k in range(3)
        )
    assert supercentre(dbl) == ([], [])


def test_double_rejects_non_isomorphism():
    with pytest.raises(ValueError):
        build_double(sl2_algebra(QQ), Matrix.diagonal(QQ, [1, 1, 2]))
    with pytest.raises(ValueError):
        build_double(sl2_algebra(QQ), Matrix.zero(QQ, 3, 3))


def test_double_with_nontrivial_iso():
    # Ad of diag(1, -1): E -> -E, H -> H, F -> -F is an automorphism
    phi = Matrix.diagonal(QQ, [-1, 1, -1])
    dbl = build_double(sl2_algebra(QQ), phi)
    assert validate(dbl).ok
    assert (dbl.dim_even, dbl.dim_odd) == (3, 4)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_double_acts_by_ad_phi_in_a_random_basis(field):
    # the action on the copy of g, read off g's bracket entries, is
    # [phi(x), e_j] in g's own basis, and the centralizer is killed
    from conftest import random_invertible

    t = random_invertible(field, 3, random.Random(3))
    g = sl2_algebra(field).conjugated(t, Matrix.identity(field, 0))
    phi = t.inverse() @ Matrix.diagonal(field, [-1, 1, -1]) @ t
    dbl = build_double(g, phi)
    assert dbl.dim_odd == 4
    for x in range(3):
        for j in range(3):
            img = g.even_bracket_vec(phi.column(x), Vector.unit(field, 3, j))
            assert dbl.action[x][j] == (*img.entries, field.zero())
        assert not any(dbl.action[x][3])


# sha256 of the serialized doubles of sl(2) under the identity, Ad diag(1, -1)
# and the E <-> F swap with H -> -H, in that order
DOUBLE_DIGESTS = {
    "Q": "a4b582f76721454c781b99406c465dd21add160e688c9b0b1b6ebb0fb7f3d0a3",
    "F_5": "bd260d551ecf1b4fc997b21b86bc6e4aedd0c334a066d926be313047483266e3",
    "F_7": "508458fb270c002f4d630363c1ea5cbea1ca6c825258dfd3959484a6f58b76da",
    "F_11": "608ef10f2e27002d76ffc3499113b2aa0be36c2ef293be0d2d221bc997223d22",
}


@pytest.mark.parametrize("field", [QQ, F5, GF(7), GF(11)], ids=str)
def test_double_bytes_are_pinned(field):
    digest = hashlib.sha256()
    for phi in (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[-1, 0, 0], [0, 1, 0], [0, 0, -1]],
        [[0, 0, 1], [0, -1, 0], [1, 0, 0]],
    ):
        dbl = build_double(sl2_algebra(field), Matrix(field, phi))
        digest.update(serialize_algebra(dbl).encode())
    assert digest.hexdigest() == DOUBLE_DIGESTS[str(field)]


def test_add_centre_zero_is_identity():
    g = build_osp12(QQ)
    assert add_centre(g, 0) is g


def test_add_centre_grows_supercentre():
    g = add_centre(build_osp12(QQ), 3)
    assert g.dim_odd == 5
    even, odd = supercentre(g)
    assert even == [] and len(odd) == 3
    assert validate(g).ok


def test_assemble_reproduces_double():
    # adjoint + trivial module with the double's pairing equals the double
    dbl = build_double(sl2_algebra(QQ), Matrix.identity(QQ, 3))
    sl2 = sl2_algebra(QQ)
    rep = RepMatrices.from_matrices(
        *[
            Matrix(
                QQ,
                [
                    [dbl.action[x][v][w] for v in range(4)]
                    for w in range(4)
                ],
            )
            for x in range(3)
        ]
    )
    entries = [
        (u, v, x, dbl.odd_bracket[u][v][x])
        for u in range(4)
        for v in range(u, 4)
        for x in range(3)
        if dbl.odd_bracket[u][v][x]
    ]
    g = assemble(sl2, rep, entries)
    assert g == dbl
    cert = MorphismCertificate(g, dbl, Matrix.identity(QQ, 3), Matrix.identity(QQ, 4))
    assert check_morphism(cert) == (True, None)


def test_assemble_surfaces_validation_report():
    from superbracket.sl2 import IrrepSpec, build_irrep

    rep = build_irrep(IrrepSpec.standard_params(QQ, 1), QQ)
    with pytest.raises(AssembleError) as err:
        assemble(sl2_algebra(QQ), rep, [(0, 0, 0, 1)])  # not a valid bracket
    assert err.value.report.violations


def test_char3_example_matrices_and_validity():
    g = build_char3_example()
    assert g.mode == "char3" and (g.dim_even, g.dim_odd) == (3, 3)
    assert action_matrix(g, 1) == Matrix.diagonal(F3, [1, -1, 0])  # rho(H)
    assert action_matrix(g, 0) == Matrix(F3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert action_matrix(g, 2) == Matrix(F3, [[0, 0, 1], [1, 0, 0], [0, 0, 0]])
    assert validate(g).ok


def test_char3_restriction_is_osp12():
    g = build_char3_example()
    sub = restrict_odd(g, [0, 1])
    assert validate(sub).ok
    target = build_osp12(F3)
    cert = MorphismCertificate(
        sub,
        target,
        Matrix.diagonal(F3, [-1, 1, -1]),
        Matrix.diagonal(F3, [1, -1]),
    )
    assert check_morphism(cert) == (True, None)


def test_char3_restriction_requires_closure():
    g = build_char3_example()
    with pytest.raises(ValueError):
        restrict_odd(g, [0, 2])  # E moves v to e1, outside the subset
    # a subset names each odd coordinate once, and only those of g
    for indices in ([0, 0], [0, 1, 3], [-1]):
        with pytest.raises(ValueError, match="not distinct odd indices"):
            restrict_odd(g, indices)


def test_char2_example_squaring():
    g = build_char2_example()
    assert g.mode == "char2"
    # (pE)^2 = 0, (pE + pF)^2 = H, polarization {pE, pF} = H
    f2 = g.field
    assert square_vec(g, Vector.unit(f2, 3, 0)).is_zero()
    assert square_vec(g, Vector(f2, [1, 0, 1])) == Vector.unit(f2, 3, 1)
    assert g.odd_bracket[0][2] == (0, 1, 0)
    assert g.odd_bracket[0][0] == (0, 0, 0)
    assert validate(g).ok


def test_char2_squaring_distinguishes_beyond_polarization():
    # adding a diagonal square (pH)^2 = H leaves the polarized bracket and
    # the axioms intact but changes the structure; the morphism check sees it
    g1 = build_char2_example()
    g2 = SuperAlgebra.from_entries(
        GF(2),
        3,
        3,
        bracket=[(0, 2, 1, 1)],
        action=[(0, 2, 1, 1), (2, 0, 1, 1)],
        mode="char2",
        squaring=[(0, 2, 1, 1), (1, 1, 1, 1)],
    )
    assert validate(g2).ok
    assert g2.odd_bracket == g1.odd_bracket
    ident = MorphismCertificate(
        g1, g2, Matrix.identity(GF(2), 3), Matrix.identity(GF(2), 3)
    )
    ok, why = check_morphism(ident)
    assert not ok and "squaring" in why
    same = MorphismCertificate(
        g1, g1, Matrix.identity(GF(2), 3), Matrix.identity(GF(2), 3)
    )
    assert check_morphism(same) == (True, None)


def test_char2_elementary_symmetric_squaring_rejected():
    # polarizing ab + ac + bc instead of ac breaks the squaring axiom
    g = SuperAlgebra.from_entries(
        GF(2),
        3,
        3,
        bracket=[(0, 2, 1, 1)],
        action=[(0, 2, 1, 1), (2, 0, 1, 1)],
        mode="char2",
        squaring=[(0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 1, 1)],
    )
    report = validate(g)
    assert not report.ok
    assert report.identities() == {"char2_square"}
