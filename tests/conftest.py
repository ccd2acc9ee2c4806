import os
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from superbracket.linalg import Matrix

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


def random_graded_change(g, rng):
    """Random invertible graded basis change for a superalgebra."""
    return (
        random_invertible(g.field, g.dim_even, rng),
        random_invertible(g.field, g.dim_odd, rng),
    )


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
            if mats[i].commutator(mats[j]) != expected:
                bad.append((i, j))
    return bad
