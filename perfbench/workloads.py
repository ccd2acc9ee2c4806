"""Workload definitions: the documents each workload feeds to the CLI, the
argv of one op, and what the output must say given how the input was built.

Every document comes from a fixed pool of ``VARIANTS`` variants; variant
``k`` of document ``d`` is generated from ``random.Random(f"{workload}:{d}:{k}")``
and nothing else, and a perturbed document perturbs the same variant of the
document it is built from.  The run seed picks one variant per document and
the op order, so the same seed gives the same inputs, and every input any
seed can produce has a pinned reference output in ``reference.json``.

Only the generated document files reach the program: each op is the argv a
user would type, with the document's path.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VARIANTS = 8
FP_LARGE = 1_000_000_007

P_MAP_IDENTITIES = ("relation_1", "relation_2", "char3_cubic")
SQUARING_IDENTITIES = ("char2_square",)


@dataclass(frozen=True)
class Doc:
    """One document of a workload.

    ``make(sb, rng)`` returns the algebra of one variant, given the imported
    ``superbracket`` package and the variant's generator.  A document with
    a ``base`` instead perturbs one coefficient of that document's algebra.
    ``expect`` states what the output must say, from the construction alone.
    """

    name: str
    group: str
    make: Callable | None
    expect: dict
    base: str | None = None


@dataclass(frozen=True)
class Op:
    """One timed op: one or more CLI invocations, run back to back."""

    key: str
    group: str
    argvs: tuple
    expect: dict


@dataclass(frozen=True)
class Workload:
    """A named set of documents; each op runs the subcommand of that name."""

    name: str
    docs: tuple


# --- generators ---------------------------------------------------------------


def _field(sb, name):
    return {
        "q": sb.QQ,
        "f7": sb.GF(7),
        "fp": sb.GF(FP_LARGE),
        "f3": sb.GF(3),
    }[name]


def _random_invertible(sb, field, n, rng):
    """Random invertible n x n matrix; small entries over Q, uniform over F_p."""
    if field.kind == "rationals":
        draw = lambda: rng.randint(-2, 2)  # noqa: E731
    else:
        draw = lambda: rng.randrange(field.p)  # noqa: E731
    while True:
        m = sb.Matrix(field, [[draw() for _ in range(n)] for _ in range(n)])
        if m.inverse() is not None:
            return m


def _random_graded_basis(sb, g, rng):
    f = g.field
    return g.conjugated(
        _random_invertible(sb, f, g.dim_even, rng),
        _random_invertible(sb, f, g.dim_odd, rng),
    )


def _monomial_odd_basis(sb, g, rng):
    """Permutation times nonzero scalars on the odd part: the sparsity of
    every system is kept, the column order is not."""
    f = g.field
    n = g.dim_odd
    perm = list(range(n))
    rng.shuffle(perm)
    if f.kind == "rationals":
        scalars = [rng.choice((1, -1, 2, -2)) for _ in range(n)]
    else:
        scalars = [rng.randrange(1, f.p) for _ in range(n)]
    m = sb.Matrix(
        f, [[scalars[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]
    )
    return g.conjugated(sb.Matrix.identity(f, g.dim_even), m)


def _perturb(sb, g, rng):
    """Change one coefficient of the odd bracket (or, in char2 mode, of the
    squaring): c -> c + 1, or c + 2 where c + 1 would vanish.

    Over F_2 that rule only moves a zero coefficient, and H is central in
    characteristic 2, so a square moved onto H can stay valid; there the
    draw is among zero diagonal coefficients v^2 -> E or F, which always
    break {x^2, F} = {x, {x, F}} or {x^2, E} = {x, {x, E}}."""
    f = g.field
    key = "squaring" if g.mode == "char2" else "odd_bracket"
    tensor = [[list(row) for row in plane] for plane in getattr(g, key)]
    if f.characteristic == 2:
        spots = [
            (v, v, x)
            for v in range(g.dim_odd)
            for x in (0, 2)
            if not tensor[v][v][x]
        ]
    else:
        spots = [
            (u, v, x)
            for u in range(g.dim_odd)
            for v in range(u, g.dim_odd)
            for x in range(g.dim_even)
        ]
    u, v, x = spots[rng.randrange(len(spots))]
    new = f.add(tensor[u][v][x], f.one())
    if not new:
        new = f.add(new, f.one())
    tensor[u][v][x] = new
    tensor[v][u][x] = new
    kwargs = {"mode": g.mode}
    if g.mode == "char2":
        kwargs["squaring"] = tensor
        odd = g.odd_bracket
    else:
        odd = tensor
    return sb.SuperAlgebra.from_tensors(f, g.bracket, g.action, odd, **kwargs)


def _module_algebra(sb, field, comp):
    """sl(2) plus a direct sum of standard irreducibles of the given
    dimensions, zero odd bracket."""
    from superbracket.sl2 import IrrepSpec, RepMatrices

    rep = RepMatrices.direct_sum(
        [sb.build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in comp]
    )
    return sb.assemble(sb.sl2_algebra(field), rep, ())


def _osp_z(sb, field, z):
    return sb.add_centre(sb.build_osp12(field), z)


def _double_z(sb, field, z):
    return sb.add_centre(
        sb.build_double(sb.sl2_algebra(field), sb.Matrix.identity(field, 3)), z
    )


def _irrep_zero_bracket(sb, field, m):
    from superbracket.sl2 import IrrepSpec

    rep = sb.build_irrep(IrrepSpec.standard_params(field, m), field)
    return sb.assemble(sb.sl2_algebra(field), rep, ())


# --- pspace -------------------------------------------------------------------

# (field, composition, solution dimension); the dimension is the same over
# Q and F_7, and nonzero only when the composition holds a 2, or both a 3
# and a 1.  Twelve documents keep a cycle near 10 s.  The median op falls
# among the copies of the three documents of middle cost, F_7 (5,3,3,1),
# Q (2,1^8) and Q (3,1^7), rather than on one side of a gap between two
# documents, which would make it jump from run to run.
ONES_7, ONES_8, ONES_9 = (1,) * 7, (1,) * 8, (1,) * 9
PSPACE_MODULES = (
    ("q", (5, 3, 3, 1), 0),
    ("q", (4, 3, 2, 1), 0),
    ("q", (2, 2, 2, 2, 2), 0),
    ("q", (3,) + ONES_7, 7),
    ("q", (3,) + ONES_9, 9),
    ("q", (2,) + ONES_8, 1),
    ("f7", (5, 3, 3, 1), 0),
    ("f7", (4, 3, 2, 1), 0),
    ("f7", (5, 5), 0),
    ("f7", (2, 2, 2, 2, 2), 0),
    ("f7", (3,) + ONES_7, 7),
    ("f7", (2,) + ONES_8, 1),
)


def _pspace_doc(fname, comp, dim):
    def make(sb, rng):
        return _monomial_odd_basis(sb, _module_algebra(sb, _field(sb, fname), comp), rng)

    label = "-".join(map(str, comp))
    return Doc(f"{fname}_{label}", fname, make, {"exit": 0, "dim": dim})


PSPACE = Workload("pspace", tuple(_pspace_doc(*m) for m in PSPACE_MODULES))


# --- classify -----------------------------------------------------------------


def _classify_docs():
    not_applicable = {"exit": 2, "case": "not_applicable"}
    docs = []
    for fname in ("q", "fp"):
        for z in range(7):
            docs.append(Doc(
                f"osp12+{z}_{fname}", fname,
                lambda sb, rng, f=fname, z=z: _random_graded_basis(
                    sb, _osp_z(sb, _field(sb, f), z), rng),
                {"exit": 0, "case": "C", "centre_dim": z},
            ))
            docs.append(Doc(
                f"double+{z}_{fname}", fname,
                lambda sb, rng, f=fname, z=z: _random_graded_basis(
                    sb, _double_z(sb, _field(sb, f), z), rng),
                {"exit": 0, "case": "B", "centre_dim": z},
            ))
        for m in (2, 4, 6):
            docs.append(Doc(
                f"V{m}_{fname}", fname,
                lambda sb, rng, f=fname, m=m: _random_graded_basis(
                    sb, _irrep_zero_bracket(sb, _field(sb, f), m), rng),
                {"exit": 0, "case": "A", "centre_dim": 0},
            ))
        for base in (f"osp12+3_{fname}", f"double+3_{fname}"):
            docs.append(Doc(f"{base}-perturbed", fname, None, not_applicable, base))
    docs.append(Doc(
        "char3_f3", "f3",
        lambda sb, rng: _random_graded_basis(sb, sb.build_char3_example(), rng),
        not_applicable,
    ))
    return tuple(docs)


CLASSIFY = Workload("classify", _classify_docs())


# --- validate -----------------------------------------------------------------


def _validate_docs():
    # Nine 3|d1 documents whose validation costs form a ladder (each about
    # twice the one below it at the middle rung), each with its perturbed
    # twin: an odd number of rungs puts the median op inside one rung's ops
    # instead of across a gap between two rungs.
    osp_q = lambda z: lambda sb, rng: _osp_z(sb, sb.QQ, z)  # noqa: E731
    dense = lambda f, z: lambda sb, rng: _random_graded_basis(  # noqa: E731
        sb, _osp_z(sb, _field(sb, f), z), rng)
    char3 = lambda z: lambda sb, rng: sb.add_centre(sb.build_char3_example(), z)  # noqa: E731
    char2 = lambda z: lambda sb, rng: sb.add_centre(sb.build_char2_example(), z)  # noqa: E731
    bases = (
        ("char3+9_f3", "f3", P_MAP_IDENTITIES, char3(9)),
        ("osp12+10-dense_f7", "f7", P_MAP_IDENTITIES, dense("f7", 10)),
        ("char3+21_f3", "f3", P_MAP_IDENTITIES, char3(21)),
        ("char2+21_f2", "f2", SQUARING_IDENTITIES, char2(21)),
        ("osp12+18_q", "q", P_MAP_IDENTITIES, osp_q(18)),
        ("osp12+22-dense_f7", "f7", P_MAP_IDENTITIES, dense("f7", 22)),
        ("osp12+10-dense_q", "q", P_MAP_IDENTITIES, dense("q", 10)),
        ("osp12+28-dense_f7", "f7", P_MAP_IDENTITIES, dense("f7", 28)),
        ("osp12+30_q", "q", P_MAP_IDENTITIES, osp_q(30)),
    )
    docs = []
    for name, group, blamed, make in bases:
        docs.append(Doc(name, group, make, {"exit": 0, "valid": True}))
        docs.append(Doc(
            f"{name}-perturbed", group, None,
            {"exit": 1, "valid": False, "identities": blamed}, name,
        ))
    return tuple(docs)


VALIDATE = Workload("validate", _validate_docs())


# --- sweep --------------------------------------------------------------------

SWEEP_ARGVS = (
    ("sweep", "--field", "fp:5", "--max-odd-dim", "8"),
    ("sweep", "--field", "fp:7", "--max-odd-dim", "8"),
)

SWEEP = Workload("sweep", ())

WORKLOADS = {w.name: w for w in (SWEEP, PSPACE, CLASSIFY, VALIDATE)}


# --- materialising ops ----------------------------------------------------------


def variant_rng(workload: str, doc: str, variant: int) -> random.Random:
    return random.Random(f"{workload}:{doc}:{variant}")


def chosen_variants(workload: Workload, seed: int) -> dict:
    """The variant of each document that runs under this seed."""
    rng = random.Random(f"{workload.name}:variants:{seed}")
    chosen = {}
    for d in workload.docs:
        chosen[d.name] = chosen[d.base] if d.base else rng.randrange(VARIANTS)
    return chosen


def op_key(workload: str, doc: str, variant: int) -> str:
    return f"{workload}/{doc}/{variant}"


def write_docs(sb, workload: Workload, variants: dict, out_dir: Path):
    """Generate and write the chosen variant of every document; return the
    ops and the sha256 of each input, keyed like the reference."""
    if not workload.docs:
        return [Op("sweep/fp5+fp7", "fp5+fp7", SWEEP_ARGVS, {"exit": 0})], {}
    out_dir.mkdir(parents=True, exist_ok=True)
    ops, inputs, algebras = [], {}, {}
    for doc in workload.docs:
        k = variants[doc.name]
        rng = variant_rng(workload.name, doc.name, k)
        if doc.base:
            g = _perturb(sb, algebras[doc.base], rng)
        else:
            g = algebras[doc.name] = doc.make(sb, rng)
        text = sb.serialize_algebra(g)
        path = out_dir / f"{doc.name}.json"
        path.write_text(text, encoding="utf-8")
        key = op_key(workload.name, doc.name, k)
        inputs[key] = hashlib.sha256(text.encode()).hexdigest()
        ops.append(Op(key, doc.group, ((workload.name, str(path)),), doc.expect))
    return ops, inputs
