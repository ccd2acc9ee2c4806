"""validate and check_morphism clear denominators once and run on integers;
here they are compared with the Fraction oracles they replaced."""

import random
import time
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from conftest import (
    action_matrix,
    collect,
    dense_representation_failures,
    fraction_bilinear,
    fraction_check_morphism,
    fraction_validate,
    nonzero_columns,
    random_invertible,
)

from superbracket import moduli
from superbracket.constructions import (
    add_centre,
    build_char2_example,
    build_char3_example,
    build_double,
    build_osp12,
    sl2_algebra,
)
from superbracket.fields import GF, MAX_SCALAR_DIGITS, PRIME_BOUND, QQ, _is_prime
from superbracket.linalg import Matrix, Vector
from superbracket.schema import parse_algebra, serialize_algebra
from superbracket.sl2 import IrrepSpec, build_irrep
from superbracket.superalgebra import (
    MorphismCertificate,
    SuperAlgebra,
    _columns,
    _high_bits,
    _is_zero,
    _slot_width,
    check_morphism,
    clear_denominators,
    compatibility_equations,
    killing_form,
    odd_unknowns,
    representation_failures,
    validate,
)

FIELDS = [QQ, GF(7), GF(10**9 + 7)]


def odd_scaled(g, c):
    """g with its odd bracket times c: still a superalgebra, since every
    relation is linear in the odd bracket, but with other denominators."""
    f = g.field
    c = f.coerce(c)
    odd = [[[f.mul(c, x) for x in row] for row in plane] for plane in g.odd_bracket]
    return SuperAlgebra.from_tensors(f, g.bracket, g.action, odd, mode=g.mode)


def bases(field):
    return build_osp12(field), build_double(sl2_algebra(field), Matrix.identity(field, 3))


def random_basis(g, rng):
    """g in a random graded basis: the new basis vectors are the columns of
    the returned blocks, so (h, g, me, mo) is a certificate."""
    me = random_invertible(g.field, g.dim_even, rng)
    mo = random_invertible(g.field, g.dim_odd, rng, span=6)
    return g.conjugated(me, mo), me, mo


def documents(field, rng):
    """Valid documents in random graded bases, their odd brackets scaled by
    1/11 on half of them so the odd bracket has a denominator of its own."""
    for z in (0, 1, 2):
        for base in bases(field):
            g = add_centre(base, z)
            h, _, _ = random_basis(g, rng)
            yield h
            yield odd_scaled(h, Fraction(1, 11))


def perturbed(g, rng, which=None):
    """g with one entry of one tensor (0 bracket, 1 action, 2 odd bracket;
    random if which is None) moved by c / 13 for a random c != 0."""
    f, d0, d1 = g.field, g.dim_even, g.dim_odd
    c = f.coerce(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), 13))
    while not c:  # over F_3, 3/13 is zero
        c = f.coerce(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), 13))
    bracket = [[list(r) for r in plane] for plane in g.bracket]
    action = [[list(r) for r in plane] for plane in g.action]
    odd = [[list(r) for r in plane] for plane in g.odd_bracket]
    if which is None:
        which = rng.randrange(3)
    if which == 0:
        i = rng.randrange(d0 - 1)
        j, k = rng.randrange(i + 1, d0), rng.randrange(d0)
        bracket[i][j][k] = f.add(bracket[i][j][k], c)
    elif which == 1:
        x, v, w = rng.randrange(d0), rng.randrange(d1), rng.randrange(d1)
        action[x][v][w] = f.add(action[x][v][w], c)
    else:
        u = rng.randrange(d1)
        v, x = rng.randrange(u, d1), rng.randrange(d0)
        odd[u][v][x] = f.add(odd[u][v][x], c)
    return SuperAlgebra.from_tensors(f, bracket, action, odd, mode=g.mode)


def test_clear_denominators():
    t = ((Fraction(1, 2), Fraction(0)), [Fraction(-2, 3), Fraction(5)])
    assert clear_denominators(QQ, t) == (6, [[3, 0], [-4, 30]])
    assert all(type(x) is int for row in clear_denominators(QQ, t)[1] for x in row)
    assert clear_denominators(QQ, []) == (1, [])
    f7 = ((3, 0), (6, 1))
    assert clear_denominators(GF(7), f7) == (1, f7)
    # nested tuples, and D = 1, where the numerators are taken as they are
    nested = (((Fraction(1, 4),), (Fraction(3),)), ((Fraction(-5, 6),), (Fraction(0),)))
    assert clear_denominators(QQ, nested) == (12, [[[3], [36]], [[-10], [0]]])
    ints = ((Fraction(2), Fraction(-7)), (Fraction(0), Fraction(1)))
    assert clear_denominators(QQ, ints) == (1, [[2, -7], [0, 1]])
    # a (bracket, action) pair whose action planes are empty, as even_part()
    # builds it: one scale, set by the bracket alone
    bracket = sl2_algebra(QQ).bracket
    half = tuple(tuple(tuple(x / 2 for x in row) for row in plane) for plane in bracket)
    d, (b, a) = clear_denominators(QQ, (half, ((), (), ())))
    assert d == 2 and b == [[list(row) for row in plane] for plane in bracket] and a == [[], [], []]
    # D = 2**2047 has 2048 bits and is cleared; 2**2048 is one bit past the
    # cut-off, and the tensor comes back as it is
    for e in (2047, 2048):
        big = ((Fraction(1, 2**e), Fraction(3)), (Fraction(-1, 2), Fraction(0)))
        d, got = clear_denominators(QQ, big)
        if e == 2047:
            assert d == 2**e and got == [[1, 3 * d], [-d // 2, 0]]
        else:
            assert (d, got) == (1, big)


def test_documents_have_three_different_denominators(rng):
    # the precondition of the scale tests below: bracket, action and odd
    # bracket do not share one denominator, so a scale applied to the wrong
    # tensor changes a verdict
    distinct = 0
    for h in documents(QQ, rng):
        scales = [clear_denominators(QQ, t)[0] for t in (h.bracket, h.action, h.odd_bracket)]
        distinct += len(set(scales)) == 3
    assert distinct >= 6


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_validate_matches_fraction_oracle(field, rng):
    for h in documents(field, rng):
        assert validate(h).ok and fraction_validate(h).ok
        for _ in range(8):
            bad = perturbed(h, rng)
            got = validate(bad)
            assert got.violations == fraction_validate(bad).violations
            assert not got.ok


def flipped_square(g, rng):
    """g over F_2 with one squaring coefficient S(v,w)_x flipped, and the
    odd bracket with it, so that it stays the squaring's polarization."""
    d0, d1 = g.dim_even, g.dim_odd
    sq = [[list(r) for r in plane] for plane in g.squaring]
    odd = [[list(r) for r in plane] for plane in g.odd_bracket]
    v = rng.randrange(d1)
    w, x = rng.randrange(v, d1), rng.randrange(d0)
    sq[v][w][x] ^= 1
    if v < w:
        odd[v][w][x] ^= 1
    return SuperAlgebra.from_tensors(g.field, g.bracket, g.action, odd, mode="char2", squaring=sq)


@pytest.mark.parametrize(
    "d1,field", [(d1, f) for d1 in (12, 24) for f in FIELDS] + [(20, GF(3)), (20, GF(2))], ids=str
)
def test_validate_matches_collected_equations_on_dense_documents(field, d1, rng):
    # osp(1|2) + z in a random graded basis, or over F_3 and F_2 the char-3
    # and char-2 examples + z: each output of an instance sums many blocks,
    # which validate packs into one residual and the oracle first collects
    # into per-output equations (the char-2 axiom: evaluates monomial by
    # monomial)
    base = {3: build_char3_example, 2: build_char2_example}.get(field.characteristic)
    base = base() if base else build_osp12(field)
    g, _, _ = random_basis(add_centre(base, d1 - base.dim_odd), rng)
    assert g.dim_odd == d1
    assert validate(g).ok and fraction_validate(g).ok
    bad = flipped_square(g, rng) if g.mode == "char2" else perturbed(g, rng)
    got = validate(bad)
    assert got.violations == fraction_validate(bad).violations
    assert not got.ok


def test_validate_keeps_the_rational_even_jacobi_detail():
    f = QQ
    g = sl2_algebra(f)
    bracket = [[list(r) for r in plane] for plane in g.bracket]
    bracket[0][1][0] = f.add(bracket[0][1][0], Fraction(1, 3))
    bracket[1][0][0] = f.neg(bracket[0][1][0])
    h = SuperAlgebra.from_tensors(f, bracket, g.action, g.odd_bracket)
    got = validate(h).violations
    assert got == fraction_validate(h).violations
    assert got[0].identity == "even_jacobi" and "/3" in got[0].detail


# --- packed residuals: the slot width and the largest admitted magnitudes ------


def packed(slots, k):
    return sum(s << (k * t) for t, s in enumerate(slots))


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 8, 9, 36, 64, 100])
def test_slot_width_over_q_holds_the_bound_and_not_one_bit_less(bound):
    k, _ = _slot_width(bound, None)
    # signed slots within the bound pack to zero only when all are zero
    for s in product(range(-bound, bound + 1), repeat=2):
        assert _is_zero(packed(s, k), None, 0) == (s == (0, 0))
    # at k - 1 bits the slots (2^(k-1), -1), within the bound, alias to 0
    assert 1 << (k - 1) <= bound and packed((1 << (k - 1), -1), k - 1) == 0


@pytest.mark.parametrize("p,products", [(2, 9), (3, 9), (5, 4), (7, 1), (7, 3), (11, 1)])
def test_slot_width_over_fp_holds_the_bound_and_not_one_bit_less(p, products):
    # slots of (p - 1)^2 * products, the bound validate uses: every pair of
    # slots in [0, bound] is judged right at the rule's width, and some pair
    # is misjudged one bit narrower
    bound = (p - 1) ** 2 * products
    k, j = _slot_width(bound, p)
    slots = list(product(range(bound + 1), repeat=2))

    def misjudged(width):
        high = _high_bits(width, j, 2)
        return [s for s in slots if _is_zero(packed(s, width), p, high) != all(x % p == 0 for x in s)]

    assert misjudged(k) == [] and misjudged(k - 1)


def largest_prime_below(n):
    return next(q for q in range(n - 1, 1, -1) if _is_prime(q))


P_MAX = largest_prime_below(PRIME_BOUND)


@pytest.mark.parametrize("field", [QQ, GF(P_MAX)], ids=["Q", "F_pmax"])
def test_slot_width_at_the_largest_bounds(field):
    # residuals whose slots sit at the bound of the largest admitted
    # entries are judged right at the rule's width, and one bit narrower
    # a nonzero residual reads as zero
    p = field.p if field.kind == "prime" else None
    top = p - 1 if p else 10**MAX_SCALAR_DIGITS - 1
    bound = top * top * 9
    k, j = _slot_width(bound, p)
    high = _high_bits(k, j, 3)
    if p is None:
        assert not _is_zero(packed((bound, -bound, bound), k), None, 0)
        assert _is_zero(packed((1 << (k - 1), -1), k - 1), None, 0)
        return
    multiple = bound - bound % p
    assert not _is_zero(packed((bound, bound, 0), k), p, high)
    assert _is_zero(packed((multiple, multiple, multiple), k), p, high)
    assert not _is_zero(packed((multiple, 1, multiple), k), p, high)
    # (p q - 2^(k-1), 1) at k - 1 bits packs to p q, a multiple of p whose
    # quotient fits j bits, though neither slot is a multiple of p
    q = -(-(1 << (k - 1)) // p)
    hidden = (p * q - (1 << (k - 1)), 1)
    assert max(hidden) <= bound and all(x % p for x in hidden)
    assert _is_zero(packed(hidden, k - 1), p, _high_bits(k - 1, j, 2))
    assert not _is_zero(packed(hidden, k), p, _high_bits(k, j, 2))


def admitted(g):
    """g after a round trip through the document format: the parser admits
    every entry."""
    h, _ = parse_algebra(serialize_algebra(g))
    assert h == g
    return h


def largest_slot(g):
    """The largest sum over an instance's output of |known| * |coefficient|,
    over the raw tensors: the most any slot of validate's residual holds."""
    f, d0, d1 = g.field, g.dim_even, g.dim_odd
    base = odd_unknowns(d0, d1)
    known = {base[u][v] + x: c for u in range(d1) for v in range(u, d1) for x, c in enumerate(g.odd_bracket[u][v])}
    top = 0
    for _, _, terms in compatibility_equations(nonzero_columns(g.bracket), nonzero_columns(g.action), g.mode):
        for eq in collect(terms).values():
            top = max(top, sum(abs(c) * abs(known[k]) for k, c in eq.items()))
    return top


def at_most_digits(g, digits, rng):
    """g with its bracket and action scaled by one integer and its odd
    bracket by another, each as large as keeps every numerator within
    ``digits`` digits: a superalgebra again, since every axiom is
    homogeneous of degree 2 in (bracket, action), or of degree 1 in it and
    in the odd bracket."""
    f = g.field
    cap = 10**digits - 1

    def scaled(tensors):
        top = max(abs(x.numerator) for t in tensors for plane in t for row in plane for x in row)
        c = cap // top * rng.choice([1, -1])
        return [[[[x * c for x in row] for row in plane] for plane in t] for t in tensors]

    (bracket, action), (odd,) = scaled((g.bracket, g.action)), scaled((g.odd_bracket,))
    return SuperAlgebra.from_tensors(f, bracket, action, odd)


def negated_entry(g, rng):
    """g with one nonzero odd-bracket coefficient {f_u,f_v}_x negated: the
    same magnitude, a different document."""
    f = g.field
    odd = [[list(r) for r in plane] for plane in g.odd_bracket]
    spots = [(u, v, x) for u in range(g.dim_odd) for v in range(u, g.dim_odd) for x in range(g.dim_even) if odd[u][v][x]]
    u, v, x = rng.choice(spots)
    odd[u][v][x] = f.neg(odd[u][v][x])
    return SuperAlgebra.from_tensors(f, g.bracket, g.action, odd, mode=g.mode)


@pytest.mark.parametrize("field", [QQ, GF(P_MAX)], ids=["Q", "F_pmax"])
def test_validate_matches_fraction_oracle_at_the_largest_admitted_magnitudes(field, rng):
    # over F_p at the largest admitted prime: a random graded basis, whose
    # entries range up to p - 1, and a 3|3 document with every entry p - 1
    # (not a superalgebra), where relation 1 at (u, u, u) sums 9 products
    # of (p - 1)^2, the bound validate's slot width is made for.  Over Q:
    # numerators of MAX_SCALAR_DIGITS digits and mixed sign, and one such
    # numerator in every entry of a 3|3 document.
    g, _, _ = random_basis(add_centre(build_osp12(field), 2), rng)
    if field == QQ:
        g = at_most_digits(g, MAX_SCALAR_DIGITS, rng)
        for t in (g.bracket + g.action, g.odd_bracket):
            top = max(abs(x.numerator) for plane in t for row in plane for x in row)
            assert len(str(top)) == MAX_SCALAR_DIGITS
        # small denominators: validate packs these, past no cut-off
        assert clear_denominators(QQ, g.odd_bracket)[0].bit_length() <= 64
        assert clear_denominators(QQ, (g.bracket, g.action))[0].bit_length() <= 64
        extreme = [10**MAX_SCALAR_DIGITS - 1, -(10**MAX_SCALAR_DIGITS - 1)]
    else:
        extreme = [field.p - 1]
    g = admitted(g)
    assert validate(g).ok and fraction_validate(g).ok
    for _ in range(3):
        bad = admitted(negated_entry(g, rng))
        got = validate(bad)
        assert got.violations == fraction_validate(bad).violations and not got.ok

    def full(*shape):
        return [[[rng.choice(extreme) for _ in range(shape[2])] for _ in range(shape[1])] for _ in range(shape[0])]

    g = admitted(SuperAlgebra.from_tensors(field, full(3, 3, 3), full(3, 3, 3), full(3, 3, 3)))
    if field != QQ:
        assert largest_slot(g) == (field.p - 1) ** 2 * 9
    for h in (g, admitted(negated_entry(g, rng))):
        got = validate(h)
        assert got.violations == fraction_validate(h).violations and not got.ok


def certificates(field, rng):
    """(source, target, m_even, m_odd) isomorphisms between random bases of
    one algebra, with both sides non-integral over Q."""
    for z in (0, 1, 2):
        for base in bases(field):
            g = add_centre(base, z)
            h1, me1, mo1 = random_basis(g, rng)
            yield h1, g, me1, mo1
            yield g, h1, me1.inverse(), mo1.inverse()
            h2, me2, mo2 = random_basis(g, rng)
            yield h1, h2, me2.inverse() @ me1, mo2.inverse() @ mo1


def moved(m, rng):
    f = m.field
    data = [list(r) for r in m.data]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    data[i][j] = f.add(data[i][j], f.coerce(Fraction(1, 5)))
    return Matrix(f, data)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_check_morphism_matches_fraction_oracle(field, rng):
    messages = set()
    for s, t, me, mo in certificates(field, rng):
        cert = MorphismCertificate(s, t, me, mo)
        assert check_morphism(cert) == fraction_check_morphism(cert) == (True, None)
        variants = [
            MorphismCertificate(s, t, moved(me, rng), mo),
            MorphismCertificate(s, t, me, moved(mo, rng)),
            MorphismCertificate(perturbed(s, rng), t, me, mo),
            MorphismCertificate(s, perturbed(t, rng), me, mo),
            # scaling the odd block by c preserves the action, not the odd bracket
            MorphismCertificate(s, t, me, mo.scaled(3)),
        ]
        for bad in variants:
            got = check_morphism(bad)
            assert got == fraction_check_morphism(bad)
            messages.add(got[1].split(" not preserved")[0] if got[1] else None)
    assert {"even bracket", "action", "odd bracket"} <= messages


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_check_morphism_matches_fraction_oracle_at_large_d1(field, rng):
    # osp(1|2) + 28 in a random graded basis onto the canonical model, where
    # the pair-by-pair check made 465 O(d1^2) bilinear sums in the odd
    # sector alone; then one mutation of each block and of each of the six
    # tensors, each rejected in the sector it belongs to
    g = add_centre(build_osp12(field), 28)
    h, me, mo = random_basis(g, rng)
    cert = MorphismCertificate(h, g, me, mo)
    assert check_morphism(cert) == fraction_check_morphism(cert) == (True, None)
    variants = [
        (MorphismCertificate(h, g, moved(me, rng), mo), None),
        (MorphismCertificate(h, g, me, moved(mo, rng)), None),
    ]
    sectors = ("even bracket", "action", "odd bracket")
    for which, sector in enumerate(sectors):
        variants.append((MorphismCertificate(perturbed(h, rng, which), g, me, mo), sector))
        variants.append((MorphismCertificate(h, perturbed(g, rng, which), me, mo), sector))
    for bad, sector in variants:
        got = check_morphism(bad)
        assert got == fraction_check_morphism(bad)
        assert not got[0] and (sector is None or got[1].startswith(f"{sector} not preserved"))


def with_squaring_flipped(g, v, w, k):
    """The char2 algebra g with squaring coefficient (v, w, k), v <= w,
    flipped; the odd bracket follows as its polarization, so a diagonal
    flip leaves it unchanged."""
    d0, d1 = g.dim_even, g.dim_odd
    sq = [[list(r) for r in plane] for plane in g.squaring]
    sq[v][w][k] ^= 1
    odd = [[sq[min(a, b)][max(a, b)] if a != b else [0] * d0 for b in range(d1)] for a in range(d1)]
    return SuperAlgebra.from_tensors(g.field, g.bracket, g.action, odd, mode="char2", squaring=sq)


def test_check_morphism_matches_fraction_oracle_in_char2(rng):
    # char2_example + z, every third one with a squaring coefficient flipped
    # first, in random F_2 bases; a flipped diagonal square of the source
    # changes nothing else, so only the squaring sector can report it
    f2 = GF(2)
    messages = set()
    for n in range(30):
        g = add_centre(build_char2_example(), rng.randrange(4))
        d1 = g.dim_odd
        if n % 3 == 0:
            v = rng.randrange(d1)
            g = with_squaring_flipped(g, v, rng.randrange(v, d1), rng.randrange(3))
        me, mo = random_invertible(f2, 3, rng), random_invertible(f2, d1, rng)
        h = g.conjugated(me, mo)
        cert = MorphismCertificate(h, g, me, mo)
        assert check_morphism(cert) == fraction_check_morphism(cert) == (True, None)
        v = rng.randrange(d1)
        square = MorphismCertificate(with_squaring_flipped(h, v, v, rng.randrange(3)), g, me, mo)
        assert check_morphism(square) == fraction_check_morphism(square) == (False, f"squaring not preserved at ({v})")
        u = rng.randrange(d1 - 1)
        variants = [
            MorphismCertificate(h, g, moved(me, rng), mo),
            MorphismCertificate(h, g, me, moved(mo, rng)),
            MorphismCertificate(with_squaring_flipped(h, u, rng.randrange(u + 1, d1), rng.randrange(3)), g, me, mo),
        ]
        for bad in variants:
            got = check_morphism(bad)
            assert got == fraction_check_morphism(bad)
            messages.add(got[1].split(" not preserved")[0] if got[1] else None)
    assert "odd bracket" in messages


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_check_morphism_agrees_with_conjugation(field, rng):
    # a certificate holds exactly when the target, transported into the
    # basis of the block columns, is the source
    for s, t, me, mo in certificates(field, rng):
        for cert in (
            MorphismCertificate(s, t, me, mo),
            MorphismCertificate(s, t, moved(me, rng), mo),
            MorphismCertificate(s, t, me, moved(mo, rng)),
            MorphismCertificate(perturbed(s, rng), t, me, mo),
        ):
            try:
                same = cert.target.conjugated(cert.m_even, cert.m_odd) == cert.source
            except ValueError:  # a moved block may be singular
                same = False
            assert check_morphism(cert)[0] == same


def random_sparse_vector(field, n, rng):
    """n entries, about a third of them zero, the rest random and nonzero."""
    def entry():
        if rng.randrange(3) == 0:
            return 0
        if field.kind == "prime":
            return rng.randrange(1, field.p)
        return Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 9))

    return Vector(field, [entry() for _ in range(n)])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_bilinear_maps_match_the_field_ops_oracle(field, rng):
    # the maps run on each algebra's cleared integer form; the oracle uses
    # only field.add and field.mul on the raw tensors.  Over Q the coprime
    # document is past the cut-off of clear_denominators, so its maps and
    # Killing form run on Fractions
    docs = [h for h, _ in zip(documents(field, rng), range(4))]
    if field == QQ:
        docs.append(coprime_document(12))
        assert clear_denominators(QQ, docs[-1].odd_bracket)[0] == 1
    for g in docs:
        d0, d1 = g.dim_even, g.dim_odd
        maps = (
            (g.even_bracket_vec, g.bracket, d0, d0),
            (g.act_vec, g.action, d0, d1),
            (g.odd_bracket_vec, g.odd_bracket, d1, d1),
        )
        for vec_map, tensor, nx, ny in maps:
            for _ in range(6):
                x, y = random_sparse_vector(field, nx, rng), random_sparse_vector(field, ny, rng)
                assert vec_map(x, y) == fraction_bilinear(field, tensor, x, y)
        ads = [g.ad(i) for i in range(d0)]
        expected = [[(ads[i] @ ads[j]).trace().value for j in range(d0)] for i in range(d0)]
        assert killing_form(g) == Matrix(field, expected)


def coprime_document(d1, odd_only=False):
    """sl(2) + a 3|d1 document whose action and odd bracket entries each
    have their own prime denominator (odd bracket only if odd_only): the
    common denominator has thousands of digits.  Not a superalgebra."""
    primes, k = [], 2
    while len(primes) < 25 + 6 * d1 * d1:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 1
    it = iter(primes[25:])
    rng = random.Random(d1)

    def entry():
        return Fraction(rng.choice([-2, -1, 1, 2]), next(it))

    if odd_only:
        action = [[[rng.choice([0, 1]) for _ in range(d1)] for _ in range(d1)] for _ in range(3)]
    else:
        action = [[[entry() for _ in range(d1)] for _ in range(d1)] for _ in range(3)]
    odd = [[None] * d1 for _ in range(d1)]
    for u in range(d1):
        for v in range(u, d1):
            odd[u][v] = odd[v][u] = [entry() for _ in range(3)]
    return SuperAlgebra.from_tensors(QQ, sl2_algebra(QQ).bracket, action, odd)


def test_validate_packs_unless_the_integer_form_holds_fractions(monkeypatch, rng):
    # the per-output list loop runs only past the cut-off of
    # clear_denominators, where the integer form keeps Fractions
    import superbracket.superalgebra as sa

    coprime = coprime_document(12, odd_only=True)
    assert clear_denominators(QQ, coprime.odd_bracket)[0] == 1
    docs = [coprime] + [next(documents(f, rng)) for f in FIELDS]
    calls = []
    for name in ("_packed_violations", "_listed_violations"):
        real = getattr(sa, name)
        monkeypatch.setattr(sa, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for g in docs:
        validate(g)
    assert calls == ["_listed_violations"] + ["_packed_violations"] * len(FIELDS)


def timed(fn, g):
    start = time.perf_counter()
    out = fn(g)
    return out, time.perf_counter() - start


@pytest.mark.parametrize("odd_only", [False, True], ids=["all", "odd_only"])
def test_many_coprime_denominators_stay_within_the_oracles_time(odd_only):
    g = coprime_document(24, odd_only)
    dens = {x.denominator for plane in g.odd_bracket for row in plane for x in row}
    assert lcm(*dens).bit_length() > 10_000
    runs = [timed(fraction_validate, g) for _ in range(3)]
    expected, oracle_s = runs[0][0], min(t for _, t in runs)
    # a common denominator of this size would make validate ~30x slower; a
    # generous bound, and up to three tries, keep a scheduling stall from
    # failing the test
    budget = 10 * oracle_s + 1.0
    for _ in range(3):
        got, elapsed = timed(validate, g)
        assert got.violations == expected.violations and not got.ok
        if elapsed < budget:
            break
    assert elapsed < budget, (elapsed, oracle_s)


# --- the packed representation check ------------------------------------------


def packed_and_dense(field, bracket, mats):
    """representation_failures on (bracket, mats) as plain integers, which
    it packs, and the dense oracle on the same values as field elements."""

    def ints(rows):
        return [[int(x) for x in row] for row in rows]

    act = nonzero_columns([ints(m.transpose().data) for m in mats])
    got = representation_failures(field, nonzero_columns([ints(plane) for plane in bracket]), act)
    coerced = [[[field.coerce(x) for x in row] for row in plane] for plane in bracket]
    return got, dense_representation_failures(field, coerced, mats)


def test_packed_representation_check_at_the_largest_prime(rng):
    # every entry p - 1, and an irreducible module in a random basis, whose
    # entries range up to p - 1, with and without one entry moved to p - 1
    f = GF(P_MAX)
    top = f.p - 1
    sl2 = sl2_algebra(f).bracket
    full = [[[top] * 3 for _ in range(3)] for _ in range(3)]
    outcomes = set()
    for d1 in (1, 3, 6):
        every = [Matrix(f, [[top] * d1 for _ in range(d1)]) for _ in range(3)]
        rep = build_irrep(IrrepSpec.standard_params(f, d1 - 1), f)
        mats = list(rep.conjugated(random_invertible(f, d1, rng)).matrices())
        data = [list(r) for r in mats[1].data]
        data[rng.randrange(d1)][rng.randrange(d1)] = top
        moved = [mats[0], Matrix(f, data), mats[2]]
        for bracket, ms in [(full, every), (sl2, every), (full, mats), (sl2, mats), (sl2, moved)]:
            got, expected = packed_and_dense(f, bracket, ms)
            assert got == expected
            outcomes.add(bool(expected))
    assert outcomes == {True, False}


def test_packed_representation_check_at_the_largest_numerators(rng):
    # numerators of MAX_SCALAR_DIGITS digits and mixed sign: osp(1|2) + 2 in
    # a random graded basis, scaled (a representation again), and one such
    # numerator in every entry, as validate hands them over from the
    # integer form
    cap = 10**MAX_SCALAR_DIGITS - 1
    g, _, _ = random_basis(add_centre(build_osp12(QQ), 2), rng)
    g = at_most_digits(g, MAX_SCALAR_DIGITS, rng)
    docs = [g, at_most_digits(perturbed(g, rng, which=1), MAX_SCALAR_DIGITS, rng)]

    def full(*shape):
        return [[[rng.choice([cap, -cap]) for _ in range(shape[2])] for _ in range(shape[1])] for _ in range(shape[0])]

    docs.append(SuperAlgebra.from_tensors(QQ, full(3, 3, 3), full(3, 4, 4), full(4, 4, 3)))
    outcomes = []
    for h in docs:
        form, d1 = h._integer_form(), h.dim_odd
        ecols, act = _columns(form.bracket, 3, 3, QQ.neg), _columns(form.action, 3, d1)
        assert all(type(c) is int for plane in act for col in plane for _, c in col)
        got = representation_failures(QQ, ecols, act)
        mats = [action_matrix(h, x) for x in range(3)]
        assert got == dense_representation_failures(QQ, h.bracket, mats)
        outcomes.append(bool(got))
    assert outcomes == [False, True, True]


@pytest.mark.parametrize("field,c", [(QQ, (-1, 0)), (GF(3), (0, 1))], ids=["Q", "F_3"])
def test_packed_representation_width_holds_the_bound_and_not_one_bit_less(field, c, monkeypatch):
    # every 2|2 action with entries in {-1, 0, 1} (over F_3 their residues),
    # against [e_0, e_1] = c_0 e_0 + c_1 e_1: each judged right at the slot
    # width of the rule, and some misjudged one bit narrower
    import superbracket.superalgebra as sa

    bracket = [[[0, 0], list(c)], [[0, 0], [0, 0]]]
    cases = []
    for e in product((-1, 0, 1), repeat=8):
        e = [field.coerce(x) for x in e]
        mats = [Matrix(field, [e[0:2], e[2:4]]), Matrix(field, [e[4:6], e[6:8]])]
        got, expected = packed_and_dense(field, bracket, mats)
        assert got == expected
        cases.append((mats, expected))
    real = sa._slot_width
    monkeypatch.setattr(sa, "_slot_width", lambda bound, p: (real(bound, p)[0] - 1, real(bound, p)[1]))
    assert any(packed_and_dense(field, bracket, mats)[0] != expected for mats, expected in cases)


def test_packed_representation_bound_is_reached(monkeypatch):
    # over Q at 2|2 with entries of absolute value 1, one output of the
    # check sums 2 d1 + d0 = 6 products of one sign: the slot bound handed
    # to _slot_width is reached, so no smaller product count would hold
    import superbracket.superalgebra as sa

    real = sa._slot_width
    bounds = []
    monkeypatch.setattr(sa, "_slot_width", lambda bound, p: bounds.append(bound) or real(bound, p))
    rho = [Matrix(QQ, [[1, 1], [0, -1]]), Matrix(QQ, [[-1, 1], [0, 1]])]
    bracket = [[[0, 0], [-1, -1]], [[1, 1], [0, 0]]]  # [e_0, e_1] = -e_0 - e_1
    residual = rho[0] @ rho[1] - rho[1] @ rho[0] + rho[0] + rho[1]
    assert residual.data[0][1] == 6
    got, expected = packed_and_dense(QQ, bracket, rho)
    assert got == expected == [(0, 1)] and bounds == [6]


def test_representation_check_packs_unless_its_inputs_hold_fractions(monkeypatch, rng):
    # the per-output dict loop runs only on Fractions, past the cut-off of
    # clear_denominators: in validate's integer form, and in the solver,
    # which reads the same integer form and so packs over Q below the
    # cut-off
    import superbracket.superalgebra as sa

    coprime = coprime_document(12)
    assert clear_denominators(QQ, (coprime.bracket, coprime.action))[0] == 1
    docs = [coprime] + [next(documents(f, rng)) for f in FIELDS]
    modules = [build_osp12(QQ), build_osp12(GF(7))]
    calls = []
    for name in ("_packed_failures", "_listed_failures"):
        real = getattr(sa, name)
        monkeypatch.setattr(sa, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for g in docs:
        validate(g)
    for g in modules:
        moduli.odd_bracket_space(g)
    # the coprime action is no representation: the solver stops at the check
    with pytest.raises(moduli.NotARepresentation):
        moduli.odd_bracket_space(coprime)
    # validate runs the check twice per document: on the even bracket as
    # its own action (the even Jacobi identity), then on the action
    packed = ["_packed_failures"] * (2 * len(FIELDS))
    assert calls == ["_listed_failures"] * 2 + packed + ["_packed_failures", "_packed_failures", "_listed_failures"]
