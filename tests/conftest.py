import json
import os
import random
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import HealthCheck, settings

from superbracket import constructions
from superbracket import superalgebra as sa
from superbracket.fields import Field, FieldError
from superbracket.linalg import DimensionMismatch, Matrix, Span, Vector, _densified, _kernel_vectors, kernel_basis

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# SUPERBRACKET_SEED fixes every randomized driver in the suite
SEED = int(os.environ.get("SUPERBRACKET_SEED", "20250808"))


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_invertible(field, n, rng, span=4):
    """Random invertible n x n matrix over the field."""
    if n == 0:
        return Matrix(field, [])
    while True:
        if field.kind == "prime":
            m = Matrix(
                field,
                [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)],
            )
        else:
            m = Matrix(
                field,
                [
                    [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)
                ],
            )
        if m.det():
            return m


def random_monomial(field, n, rng):
    """Random permutation times nonzero scalars: a change of basis that
    keeps every system as sparse and shuffles its columns."""
    perm = list(range(n))
    rng.shuffle(perm)
    if field.kind == "prime":
        scalars = [rng.randrange(1, field.p) for _ in range(n)]
    else:
        scalars = [Fraction(rng.choice((1, -1, 2, -2)), rng.randint(1, 3)) for _ in range(n)]
    return Matrix(field, [[scalars[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)])


def nonzero_columns(tensor):
    """cols[x][w]: the nonzeros (t, c) of tensor[x][w], t increasing: the
    layout in which representation_failures and compatibility_equations
    take the even bracket ([e_x, e_w]) and the action (e_x(f_w)), from a
    dense tensor laid out like SuperAlgebra.bracket or .action."""
    return [[[(t, c) for t, c in enumerate(col) if c] for col in plane] for plane in tensor]


def columns(mats):
    """The action's nonzero columns, act[x][w] = [(t, c), ...] for e_x(f_w),
    that the relations are built from, from action matrices whose columns
    are images."""
    return nonzero_columns([m.transpose().data for m in mats])


def module_algebra(field, bracket, mats):
    """The algebra with even bracket ``bracket`` (a dense tensor, read at
    i < j), acting by the matrices ``mats`` (columns the images e_x(f_v)),
    and zero odd bracket, in mode "char3" over F_3 and "standard"
    otherwise: what moduli.odd_bracket_space solves on."""
    d0, d1 = len(bracket), mats[0].rows if mats else 0
    zero = [[[0] * d0 for _ in range(d1)] for _ in range(d1)]
    mode = "char3" if field.characteristic == 3 else "standard"
    action = [m.transpose().data for m in mats]
    return sa.SuperAlgebra.from_tensors(field, bracket, action, zero, mode=mode)


def action_matrix(g, x):
    """The matrix of e_x acting on g's odd part: its columns are the
    images e_x(f_v)."""
    return Matrix(g.field, [list(row) for row in zip(*g.action[x])])


def square_vec(g, v):
    """The squaring of a char2-mode algebra at the odd vector v: the sum
    over u <= w of v_u v_w S(u, w), since g.squaring is zero below the
    diagonal."""
    return fraction_bilinear(g.field, g.squaring, v, v)


def restrict_odd(g, indices):
    """The sub-superalgebra of g on a subset of its odd coordinates, in
    the order given, read off g's dense tensors.  The coordinates must be
    distinct odd indices, closed under the action, or this raises
    ValueError."""
    idx = list(indices)
    if len(set(idx)) != len(idx) or not all(0 <= v < g.dim_odd for v in idx):
        raise ValueError(f"odd coordinates {idx} are not distinct odd indices")
    rest = set(range(g.dim_odd)) - set(idx)
    if any(g.action[x][v][w] for x in range(g.dim_even) for v in idx for w in rest):
        raise ValueError(f"odd coordinates {idx} are not action-closed")
    action = [[[plane[v][w] for w in idx] for v in idx] for plane in g.action]
    odd = [[g.odd_bracket[u][v] for v in idx] for u in idx]
    sq = None if g.squaring is None else [[g.squaring[min(u, v)][max(u, v)] for v in idx] for u in idx]
    return sa.SuperAlgebra.from_tensors(g.field, g.bracket, action, odd, mode=g.mode, squaring=sq)


def dense_solution_to_algebra(g, space, index):
    """g's dense even bracket and action with the dense basis tensor
    ``index`` of the space as its odd bracket, as solution_to_algebra built
    it before it read g's entries and the sparse vector.  Slow reference
    for moduli.solution_to_algebra."""
    return sa.SuperAlgebra.from_tensors(g.field, g.bracket, g.action, space.basis[index], mode=g.mode)


def random_graded_change(g, rng):
    """Random invertible graded basis change for a superalgebra."""
    return (
        random_invertible(g.field, g.dim_even, rng),
        random_invertible(g.field, g.dim_odd, rng),
    )


def bumped(g, tensor, cells=None):
    """g with 1 added at each cell (i, j, k) of one of its tensors
    ("bracket", "action" or "odd_bracket"), or at its first nonzero entry
    in the order in which from_tensors reads them (i < j, every (x, v),
    u <= v) for None; the cells must lie where from_tensors reads.  An
    entry that becomes zero is dropped.  Not char2 mode."""
    f = g.field
    tensors = {
        name: [[list(row) for row in plane] for plane in getattr(g, name)]
        for name in ("bracket", "action", "odd_bracket")
    }
    t = tensors[tensor]
    if cells is None:
        start = {"bracket": 1, "action": None, "odd_bracket": 0}[tensor]
        cells = [
            next(
                (i, j, k)
                for i, plane in enumerate(t)
                for j in range(0 if start is None else i + start, len(plane))
                for k, c in enumerate(plane[j])
                if c
            )
        ]
    for i, j, k in cells:
        t[i][j][k] = f.add(t[i][j][k], 1)
    return sa.SuperAlgebra.from_tensors(f, *tensors.values(), mode=g.mode)


def coprime_bracket_algebra(d0, d1):
    """A d0|d1 algebra over Q, zero action and odd bracket, whose even
    bracket entries at i < j each have their own prime denominator: at
    d0 = 9 the common denominator has over 3,000 bits, past the cut-off of
    clear_denominators, so the integer form keeps Fractions.  Not a Lie
    algebra: most Jacobi triples fail."""
    cells = [(i, j, k) for i in range(d0) for j in range(i + 1, d0) for k in range(d0)]
    primes, q = [], 2
    while len(primes) < 25 + len(cells):
        if all(q % r for r in primes if r * r <= q):
            primes.append(q)
        q += 1
    rng = random.Random(d0)
    entries = [(*cell, Fraction(rng.choice([-2, -1, 1, 2]), q)) for cell, q in zip(cells, primes[25:])]
    return sa.SuperAlgebra.from_entries(Field.rationals(), d0, d1, bracket=entries)


# --- dense oracle for the sparse storage of SuperAlgebra ------------------------


def dense_from_entries(field, d0, d1, bracket=(), action=(), odd_bracket=(), mode="standard", squaring=None):
    """The dense tensors (bracket, action, odd bracket, squaring) that
    SuperAlgebra.from_entries filled before it kept only the nonzero
    entries: each entry summed into a zero tensor, the even bracket
    mirrored with a sign, the odd bracket symmetrically, and in char2 mode
    the odd bracket the squaring's polarization; the squaring is None
    outside char2 mode.  Slow reference for the dense views."""

    def zeros(a, b, c):
        z = field.zero()
        return [[[z] * c for _ in range(b)] for _ in range(a)]

    c = zeros(d0, d0, d0)
    for i, j, k, coeff in bracket:
        c[i][j][k] = field.add(c[i][j][k], field.coerce(coeff))
        c[j][i][k] = field.neg(c[i][j][k])
    a = zeros(d0, d1, d1)
    for x, v, w, coeff in action:
        a[x][v][w] = field.add(a[x][v][w], field.coerce(coeff))
    p, s = zeros(d1, d1, d0), None
    if mode == "char2":
        s = zeros(d1, d1, d0)
        for v, w, x, coeff in squaring or ():
            s[v][w][x] = field.add(s[v][w][x], field.coerce(coeff))
        for v in range(d1):
            for w in range(v + 1, d1):
                p[v][w] = list(s[v][w])
                p[w][v] = list(s[v][w])
    else:
        for u, v, x, coeff in odd_bracket:
            val = field.add(p[u][v][x], field.coerce(coeff))
            p[u][v][x] = val
            p[v][u][x] = val
    return c, a, p, s


def dense_integer_form(field, bracket, action, odd_bracket):
    """(D, D bracket, D action, D_p, D_p odd bracket), each algebra's
    integer form as it was cleared from the dense tensors, zeros included.
    Slow reference for SuperAlgebra._integer_form."""
    d, (b, a) = sa.clear_denominators(field, (bracket, action))
    dp, p = sa.clear_denominators(field, odd_bracket)
    return d, b, a, dp, p


def dense_serialization(field, mode, tensors) -> str:
    """The canonical document as serialize_algebra wrote it from the dense
    tensors (bracket, action, odd bracket, squaring): the nonzeros of the
    even bracket at i < j, of the action everywhere and of the odd bracket,
    or in char2 mode the squaring, at u <= v, each scanned in index order.
    Slow reference for serialize_algebra."""
    from superbracket.schema import field_to_json

    c, a, p, s = tensors

    def scanned(tensor, start):
        return [
            [i, j, k, field.format(x)]
            for i, plane in enumerate(tensor)
            for j, row in enumerate(plane)
            if start is None or j >= i + start
            for k, x in enumerate(row)
            if x
        ]

    doc = {
        "field": field_to_json(field),
        "dim_even": len(c),
        "dim_odd": len(p),
        "axiom_mode": mode,
        "bracket_even": scanned(c, 1),
        "action": scanned(a, None),
    }
    if mode == "char2":
        doc["squaring"] = scanned(s, 0)
    else:
        doc["p_map"] = scanned(p, 0)
    return json.dumps(doc, indent=2) + "\n"


# --- dense oracle for the sparse eliminator and kernel --------------------------


def dense_rref(field, rows):
    """Textbook dense Gauss-Jordan over any field: leftmost pivot, row swap,
    scale to 1, clear the column everywhere.  Slow reference for _rref_raw."""
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if f and i != r:
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def dense_product(a, b):
    """a @ b as one dot product per (row, column) over every k, as
    Matrix.__matmul__ computed it before it followed the nonzeros."""
    f = a.field
    return Matrix._from_raw(
        f, [[reduce(f.add, map(f.mul, row, col), f.zero()) for col in zip(*b.data)] for row in a.data]
    )


def dense_kernel(field, rows, n_cols):
    """Kernel basis read off dense_rref: one vector per free column, in
    index order, with a 1 there and minus that column of each RREF row at
    the row's pivot.  Slow reference for sparse_kernel_basis."""
    red, pivots = dense_rref(field, rows) if rows else ([], [])
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        v = [field.zero()] * n_cols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def solve_linear(m, b):
    """One particular solution of Mx = b (free variables 0), or None, read
    off dense_rref of [M | b].  Reference for Span.coordinates."""
    if not isinstance(b, Vector) or b.field != m.field:
        raise FieldError("mixed-field solve")
    if len(b) != m.rows:
        raise DimensionMismatch(f"matrix has {m.rows} rows, b has {len(b)}")
    f = m.field
    aug = [list(row) + [be] for row, be in zip(m.data, b.entries)]
    if not aug:
        return Vector.zero(f, m.cols)
    red, pivots = dense_rref(f, aug)
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][m.cols]
    return Vector._from_raw(f, x)


def echelon_span(field, vectors):
    """The RREF rows of the span of the vectors, from dense_rref.
    Reference for Span.basis."""
    vecs = [v for v in vectors if not v.is_zero()]
    if not vecs:
        return []
    red, pivots = dense_rref(field, [v.entries for v in vecs])
    return [Vector._from_raw(field, red[i]) for i in range(len(pivots))]


# --- dense oracles for the sl(2) weight spaces and the Jacobson test -------------


def sparse_columns(m):
    """The nonzeros (row, value) of each column of a matrix: the layout in
    which sl2._weight_spaces takes an operator."""
    return [[(w, c) for w, c in enumerate(col.entries) if c] for col in m.columns()]


def dense_eigenspace(m, lam):
    """Kernel basis of the dense M - lambda * Id: linalg.eigenspace, as sl2
    found every weight space before sl2._weight_spaces."""
    return kernel_basis(m - Matrix.identity(m.field, m.rows).scaled(lam))


def dense_weight_spaces(m, candidates):
    """``{m: dense_eigenspace(M, m)}`` over the candidates, in their order,
    where the space is not zero: one dense eigenspace per candidate, the
    slow reference for sl2._weight_spaces."""
    spaces = {c: dense_eigenspace(m, c) for c in candidates}
    return {c: space for c, space in spaces.items() if space}


def dense_power(m, k):
    """M^k by repeated squaring of dense matrices: Matrix.power, as
    sl2.jacobson_test took the powers rho^(p-1) before it applied sparse
    columns."""
    result, base = Matrix.identity(m.field, m.rows), m
    while k:
        if k & 1:
            result = result @ base
        base = base @ base if k > 1 else base
        k >>= 1
    return result


def dense_jacobson(rep):
    """sl2.jacobson_test on dense powers: the slow reference for its sparse
    nilpotency check."""
    from superbracket.sl2 import CHAR_ZERO, INCONCLUSIVE, SUFFICIENT

    p = rep.field.characteristic
    if p == 0:
        return CHAR_ZERO
    e, _, f = rep.matrices()
    if dense_power(e, p - 1).is_zero() and dense_power(f, p - 1).is_zero():
        return SUFFICIENT
    return INCONCLUSIVE


# --- dense oracles for the sl(2) submodule routines ----------------------------


def dense_invariant_closure(mats, seeds):
    """Echelon basis of the smallest subspace containing the seeds and
    invariant under all the given operators, one Span rebuilt per new
    image: sl2.invariant_closure as it ran on dense matrices."""
    span = Span(seeds[0].field, seeds)
    frontier = list(span.basis)
    while frontier:
        new = []
        for v in frontier:
            for m in mats:
                img = m @ v
                if img not in span:
                    new.append(img)
                    span = Span(span.field, [*span.basis, img])
        frontier = new
    return list(span.basis)


def dense_joint_kernel(rep):
    """The trivial vectors of a module: the kernel of E, H and F stacked."""
    return kernel_basis(Matrix(rep.field, [row for m in rep.matrices() for row in m.data]))


def dense_weight_closures(rep):
    """The dense invariant closure of each highest weight vector of
    sl2._highest_weight_vectors, by descending weight."""
    from superbracket.sl2 import _highest_weight_vectors

    for _, w in _highest_weight_vectors(rep)[1] or ():
        yield dense_invariant_closure(rep.matrices(), [_densified(rep.field, w, rep.dim)])


def dense_socle_member(rep):
    """An irreducible submodule of least dimension (ties by echelon order),
    refined in the ambient space: sl2._socle_member on dense views."""
    joint = dense_joint_kernel(rep)
    if joint:
        return [joint[0]]
    candidates = list(dense_weight_closures(rep))
    if not candidates:
        raise ValueError(
            "no trivial line or highest weight vector found; "
            "unsupported module structure"
        )
    best = min(candidates, key=len)
    while (sub := dense_proper_submodule_inside(rep, best)) is not None:
        best = sub
    return best


def dense_proper_submodule_inside(rep, basis):
    """A proper nonzero submodule of the invariant span of the vectors, in
    the ambient space, or None: the module restricted by Span coordinates
    in the given vectors, and a submodule found there lifted by a Matrix."""
    from superbracket.sl2 import RepMatrices

    if len(basis) <= 1:
        return None
    span = Span(rep.field, basis)
    mats = [span.coordinate_matrix([m @ v for v in basis]) for m in rep.matrices()]
    if None in mats:
        raise ValueError("subspace is not invariant")
    sub = RepMatrices.from_matrices(*mats)
    lift = Matrix.from_columns(rep.field, basis)
    joint = dense_joint_kernel(sub)
    if joint:
        return [lift @ joint[0]]
    closure = next((c for c in dense_weight_closures(sub) if len(c) < len(basis)), None)
    return None if closure is None else [lift @ v for v in closure]


def dense_composition_series(rep):
    """sl2.composition_series on dense views: each quotient written on the
    unit vectors of the non-pivot columns by dense remainders modulo the
    flag's Span, and each factor lifted by a Matrix."""
    from superbracket.sl2 import RepMatrices

    field, dim = rep.field, rep.dim
    trivial = dense_joint_kernel(rep)
    factors = []
    flag = Span(field, [], dim)
    while len(flag.basis) < dim:
        complement = [c for c in range(dim) if c not in flag.pivots]
        units = [Vector.unit(field, dim, c) for c in complement]
        qmats = []
        for m in rep.matrices():
            rests = []
            for u in units:
                rest = list((m @ u).entries)
                for c, row in zip(flag.pivots, flag.basis):
                    a = rest[c]
                    rest = [field.sub(x, field.mul(a, y)) for x, y in zip(rest, row.entries)]
                rests.append(rest)
            qmats.append(Matrix(field, [[x[r] for x in rests] for r in complement]))
        member = dense_socle_member(RepMatrices.from_matrices(*qmats))
        factors.append(len(member))
        lift = Matrix.from_columns(field, units)
        flag = Span(field, [*flag.basis, *(lift @ v for v in member)])
    return factors, trivial


def dense_has_proper_submodule(rep):
    """sl2.has_proper_submodule with dense invariant closures."""
    from superbracket.sl2 import _weight_spaces

    dim = rep.dim
    if dim <= 1:
        return False
    if dense_joint_kernel(rep):
        return True
    field = rep.field
    p = field.characteristic
    spaces = _weight_spaces(field, rep._columns()[1], dim, range(p) if p else range(1 - dim, dim))
    mats = rep.matrices()
    return any(
        len(dense_invariant_closure(mats, [_densified(field, w, dim)])) < dim for space in spaces.values() for w in space
    )


# --- dense oracle for the sparse representation check ---------------------------


def dense_representation_failures(field, bracket, mats):
    """Pairs i < j with [rho_i, rho_j] != sum_k c_ijk rho_k, from dense
    commutators of the action matrices.  Slow reference for
    superalgebra.representation_failures."""
    d0 = len(bracket)
    d1 = mats[0].rows if mats else 0
    bad = []
    for i in range(d0):
        for j in range(i + 1, d0):
            expected = Matrix.zero(field, d1, d1)
            for k in range(d0):
                if bracket[i][j][k]:
                    expected = expected + mats[k].scaled(bracket[i][j][k])
            if mats[i] @ mats[j] - mats[j] @ mats[i] != expected:
                bad.append((i, j))
    return bad


# --- every instance of the relations, by enumeration ----------------------------


def naive_equations(ecols, act, mode="standard"):
    """Every instance of superalgebra.compatibility_equations(ecols, act,
    mode) that has a term, without the support selectors: each generator
    of superalgebra._Relations runs over every index, in the order of
    combinations_with_replacement and product, and the instances without
    a term are dropped.  Nothing for d0 = 0, whose empty act gives no d1.
    Slow reference for the full support."""
    if not act:
        return []
    rel = sa._Relations(ecols, act)
    d0, d1 = rel.d0, rel.d1
    pairs = list(combinations_with_replacement(range(d1), 2))
    triples = list(combinations_with_replacement(range(d1), 3))
    if mode == "char2":
        instances = rel.char2_square((v, w, range(d0), range(d1)) for v, w in pairs)
    else:
        instances = [*rel.relation_1(triples), *rel.relation_2(product(range(d0), pairs))]
        if mode == "char3":
            instances += rel.cubic(triples)
    return [e for e in instances if e[2]]


# --- oracle collector for the solver's rows ------------------------------------


def collect(terms, dead=frozenset()) -> dict:
    """{output: {unknown: coeff}} summed from one instance's terms (base,
    group) of superalgebra.compatibility_equations, without the ``dead``
    unknowns, on whatever tensors the terms were built from (raw Fractions
    over Q).  Dicts are made on first use and a sum starts from its first
    term; zero sums are kept.  Slow reference for the collection pass of
    moduli.odd_bracket_space."""
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
    return eqs


def collected_rows(terms, p, dead=frozenset()) -> list[dict]:
    """The equations of collect(terms, dead), each reduced mod p (if p) and
    without its zero entries, the empty ones dropped."""
    rows = []
    for eq in collect(terms, dead).values():
        row = {k: c % p if p else c for k, c in eq.items() if (c % p if p else c)}
        if row:
            rows.append(row)
    return rows


# --- Fraction oracles for the integer paths of validate and check_morphism ---


def fraction_validate(g):
    """validate as it ran before denominators were cleared and before it
    packed residuals: every relation evaluated on g's own raw Fraction (or
    residue) tensors, the even Jacobi identity by fraction_bilinear, the
    representation check by dense_representation_failures, each
    instance's terms first collected into per-output equations by the
    oracle collector collect, and the char2 axiom by
    naive_char2_violations.  It shares no arithmetic with validate's
    integer form.  Slow reference for superalgebra.validate."""
    f = g.field
    d0, d1 = g.dim_even, g.dim_odd
    bad = []
    units_e = [Vector.unit(f, d0, i) for i in range(d0)]
    br, _, _ = raw_maps(g)
    for i in range(d0):
        for j in range(i + 1, d0):
            for k in range(j + 1, d0):
                s = (
                    br(units_e[i], Vector(f, g.bracket[j][k]))
                    + br(units_e[j], Vector(f, g.bracket[k][i]))
                    + br(units_e[k], Vector(f, g.bracket[i][j]))
                )
                if not s.is_zero():
                    bad.append(sa.Violation("even_jacobi", (i, j, k), repr(s)))
    mats = [action_matrix(g, x) for x in range(d0)]
    bad.extend(
        sa.Violation("representation", pair)
        for pair in dense_representation_failures(f, g.bracket, mats)
    )
    act = nonzero_columns(g.action)
    if g.mode in ("standard", "char3"):
        base = sa.odd_unknowns(d0, d1)
        known = {
            base[u][v] + x: c
            for u in range(d1)
            for v in range(u, d1)
            for x, c in enumerate(g.odd_bracket[u][v])
            if c
        }
        p = f.p if f.kind == "prime" else None
        for identity, indices, terms in sa.compatibility_equations(nonzero_columns(g.bracket), act, g.mode):
            for eq in collect(terms).values():
                r = sum(c * known[k] for k, c in eq.items() if k in known)
                if r % p if p else r:
                    bad.append(sa.Violation(identity, indices))
                    break
    if g.mode == "char2":
        bad += [sa.Violation(identity, t) for identity, t in naive_char2_violations(g)]
    return sa.ValidationReport(tuple(bad))


def naive_char2_violations(g):
    """("char2_square", (sector, y, v, w)) for every monomial t_v t_w (v <= w)
    at which {x^2, y} - {x, {x, y}} (x = sum t f) has a nonzero coefficient,
    for the even y and then the odd y, from square_vec and fraction_bilinear
    on the raw tensors and unit vectors: the value at x = f_v, or at
    x = f_v + f_w minus the values at f_v and f_w.  In characteristic 2,
    {x, e} = [e, x] = e(x) and every sign is +.  Slow reference for
    validate in char2 mode."""
    f, d0, d1 = g.field, g.dim_even, g.dim_odd
    e = [Vector.unit(f, d0, i) for i in range(d0)]
    o = [Vector.unit(f, d1, i) for i in range(d1)]
    br, act, ob = raw_maps(g)

    def defect(x, sector, y):
        sq = square_vec(g, x)
        if sector == "even":
            return br(sq, e[y]) - ob(x, act(e[y], x))
        return act(sq, o[y]) - act(ob(x, o[y]), x)

    # the values at a single f_v, each needed once per w
    single = {
        (v, sector, y): defect(o[v], sector, y)
        for v in range(d1)
        for sector, n in (("even", d0), ("odd", d1))
        for y in range(n)
    }
    bad = []
    for v in range(d1):
        for w in range(v, d1):
            for sector, n in (("even", d0), ("odd", d1)):
                for y in range(n):
                    c = single[v, sector, y]
                    if v < w:
                        c = defect(o[v] + o[w], sector, y) - c - single[w, sector, y]
                    if not c.is_zero():
                        bad.append(("char2_square", (sector, y, v, w)))
    return bad


def fraction_bilinear(field, tensor, x, y):
    """The Vector of sums over a, b of x_a y_b tensor[a][b], by field.add and
    field.mul on the raw tensor and the entries of the Vectors x and y,
    skipping zero factors.  Slow reference for the bilinear maps
    even_bracket_vec, act_vec and odd_bracket_vec, which run on each
    algebra's cleared integer form."""
    n = len(tensor[0][0]) if tensor and tensor[0] else 0
    out = [field.zero()] * n
    for a, xa in enumerate(x.entries):
        if not xa:
            continue
        for b, yb in enumerate(y.entries):
            if yb:
                c = field.mul(xa, yb)
                for k, z in enumerate(tensor[a][b]):
                    if z:
                        out[k] = field.add(out[k], field.mul(c, z))
    return Vector(field, out)


def raw_maps(g):
    """g's even bracket, action and odd bracket as maps of two Vectors,
    each fraction_bilinear on g's raw tensor."""
    return tuple(partial(fraction_bilinear, g.field, t) for t in (g.bracket, g.action, g.odd_bracket))


def fraction_check_morphism(cert):
    """check_morphism as it ran before denominators were cleared and before
    it contracted the target tensors: Matrix and Vector products of the raw
    blocks, pair by pair, with each target image from fraction_bilinear.
    Slow reference for superalgebra.check_morphism."""
    s, t = cert.source, cert.target
    if s.field != t.field:
        return False, "source and target fields differ"
    if s.dim_even != t.dim_even or s.dim_odd != t.dim_odd:
        return False, "graded dimensions differ"
    me, mo = cert.m_even, cert.m_odd
    if me.rows != s.dim_even or me.cols != s.dim_even:
        return False, "even block has wrong shape"
    if mo.rows != s.dim_odd or mo.cols != s.dim_odd:
        return False, "odd block has wrong shape"
    if me.inverse() is None:
        return False, "even block singular"
    if mo.inverse() is None:
        return False, "odd block singular"
    f = s.field
    ecols = me.columns()
    ocols = mo.columns()
    for i in range(s.dim_even):
        for j in range(i + 1, s.dim_even):
            if me @ Vector(f, s.bracket[i][j]) != fraction_bilinear(f, t.bracket, ecols[i], ecols[j]):
                return False, f"even bracket not preserved at ({i},{j})"
    for x in range(s.dim_even):
        for v in range(s.dim_odd):
            if mo @ Vector(f, s.action[x][v]) != fraction_bilinear(f, t.action, ecols[x], ocols[v]):
                return False, f"action not preserved at ({x},{v})"
    for u in range(s.dim_odd):
        for v in range(u, s.dim_odd):
            if me @ Vector(f, s.odd_bracket[u][v]) != fraction_bilinear(
                f, t.odd_bracket, ocols[u], ocols[v]
            ):
                return False, f"odd bracket not preserved at ({u},{v})"
    if s.mode == "char2":
        if t.mode != "char2":
            return False, "axiom modes differ"
        for v in range(s.dim_odd):
            if me @ Vector(f, s.squaring[v][v]) != square_vec(t, ocols[v]):
                return False, f"squaring not preserved at ({v})"
    return True, None


def dense_build_osp(forms, field):
    """The dense reference for constructions.build_osp: each basis element
    written out as an n x n Matrix, every (anti)commutator a dense product,
    and its coordinates read back through a linalg.Span.  Orthosymplectic
    algebra of V = V0 + V1 with the form B = diag(q, omega).

    A graded f in End(V) of parity |f| lies in it when, for every cell (i, j),

        (f^T B)[i][j] + (-1)^{|f||i|} (B f)[i][j] = 0,

    with |i| = 1 for i >= d0.  Both terms vanish off the cells of f's parity,
    so each parity is one linear system over its own cells: the even cells
    (V0 -> V0 and V1 -> V1) flattened row-major, the odd cells flattened
    row-major with the V0 -> V1 block (rows >= d0) first.  Structure
    constants are the coordinates of (anti)commutators in the echelon bases
    of the two solution spaces.  Characteristic 2 is refused: there the
    condition's solution spaces have other dimensions, and char2 mode would
    need a squaring.
    """
    if field.characteristic == 2:
        raise ValueError("build_osp is not defined in characteristic 2")
    q, om = forms.q, forms.omega
    d0, d1 = q.rows, om.rows
    n = d0 + d1
    zero = field.zero()
    form = [list(row) + [zero] * d1 for row in q.data]
    form += [[zero] * d0 + list(row) for row in om.data]
    # the nonzeros of each column and of each row of B
    cols_b = [[(l, form[l][j]) for l in range(n) if form[l][j]] for j in range(n)]
    rows_b = [[(l, x) for l, x in enumerate(form[i]) if x] for i in range(n)]

    cells, bases = [], []
    for parity in (0, 1):
        order = [*range(d0, n), *range(d0)] if parity else range(n)
        sector = [(r, c) for r in order for c in range(n) if (r >= d0) ^ (c >= d0) == parity]
        index = {cell: t for t, cell in enumerate(sector)}
        rows = []
        for i, j in sector:
            # B is block diagonal, so the cells (l, i) and (l, j) below lie
            # in the sector; the second sum carries the sign (-1)^{|f||i|}
            signed = field.sub if parity and i >= d0 else field.add
            row = {}
            for l, x in cols_b[j]:
                t = index[l, i]
                row[t] = field.add(row.get(t, zero), x)
            for l, x in rows_b[i]:
                t = index[l, j]
                row[t] = signed(row.get(t, zero), x)
            rows.append(row)
        cells.append(sector)
        bases.append(_kernel_vectors(field, rows, len(sector)))
    dims = (d0 * (d0 - 1) // 2 + d1 * (d1 + 1) // 2, d0 * d1)
    assert tuple(map(len, bases)) == dims, "solution space has the wrong dimension"
    spans = [Span(field, basis, len(sector)) for basis, sector in zip(bases, cells)]

    def matrix(flat: Vector, parity: int) -> Matrix:
        m = [[zero] * n for _ in range(n)]
        for (r, c), x in zip(cells[parity], flat.entries):
            m[r][c] = x
        return Matrix._from_raw(field, m)

    def coords(m: Matrix, parity: int) -> list:
        flat = Vector._from_raw(field, [m.data[r][c] for r, c in cells[parity]])
        sol = spans[parity].coordinates(flat)
        assert sol is not None, "bracket left the solution space"
        return list(sol.entries)

    even, odd = ([matrix(v, parity) for v in bases[parity]] for parity in (0, 1))
    # from_tensors reads the even bracket at j > i and the odd one at j >= i
    bracket = [
        [coords(a @ b - b @ a, 0) if j > i else None for j, b in enumerate(even)]
        for i, a in enumerate(even)
    ]
    action = [[coords(a @ o - o @ a, 1) for o in odd] for a in even]
    odd_bracket = [
        [coords(a @ b + b @ a, 0) if j >= i else None for j, b in enumerate(odd)]
        for i, a in enumerate(odd)
    ]
    g = sa.SuperAlgebra.from_tensors(
        field, bracket, action, odd_bracket, mode=constructions._mode_for(field)
    )
    report = sa.validate(g)
    if not report.ok:
        raise constructions.AssembleError(report)
    return g
