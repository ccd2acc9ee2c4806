"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every expected value is exact; there are no tolerances anywhere.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

from conftest import random_graded_change, restrict_odd

from superbracket.classify import classify
from superbracket.constructions import (
    add_centre,
    assemble,
    build_char2_example,
    build_char3_example,
    build_double,
    build_osp12,
    sl2_algebra,
)
from superbracket.fields import GF, QQ
from superbracket.linalg import Matrix, Vector
from superbracket.moduli import (
    odd_bracket_space,
    solution_to_algebra,
    sweep_irrep_sums,
)
from superbracket.sl2 import (
    SUFFICIENT,
    IrrepSpec,
    RepMatrices,
    annihilator,
    build_irrep,
    casimir,
    decompose,
    jacobson_test,
)
from superbracket.superalgebra import (
    MorphismCertificate,
    SuperAlgebra,
    check_morphism,
    validate,
)

F5 = GF(5)
F7 = GF(7)


def _finish(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = f"  [{'; '.join(failures)}]" if failures else ""
    print(f"ACCEPTANCE {number} {name}: {status}{detail}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _space(field, dims):
    rep = RepMatrices.direct_sum(
        [build_irrep(IrrepSpec.standard_params(field, d - 1), field) for d in dims]
    )
    even = sl2_algebra(field)
    return (
        even,
        rep,
        odd_bracket_space(assemble(even, rep)),
    )


def test_criterion_1_axiom_validation():
    failures = []
    for field in (QQ, F5, F7):
        g = build_osp12(field)
        report = validate(g)
        if not report.ok:
            failures.append(f"osp12 over {field} has violations: {report}")
            continue
        one = field.one()
        for u in range(2):
            for v in range(u, 2):
                for x in range(3):
                    tensors = [
                        [list(r) for r in plane] for plane in g.odd_bracket
                    ]
                    tensors[u][v][x] = field.add(tensors[u][v][x], one)
                    perturbed = SuperAlgebra.from_tensors(
                        field, g.bracket, g.action, tensors
                    )
                    rep = validate(perturbed)
                    bad_ids = rep.identities()
                    if rep.ok:
                        failures.append(
                            f"{field}: perturbing entry ({u},{v},{x}) went unnoticed"
                        )
                    elif not bad_ids & {"relation_1", "relation_2"}:
                        failures.append(
                            f"{field}: perturbation ({u},{v},{x}) blamed {bad_ids}"
                        )
    _finish(1, "axiom validation", failures)


def test_criterion_2_single_irrep_table():
    failures = []
    expected = {1: 0, 2: 1, 3: 0, 4: 0}
    for field in (QQ, F5):
        for dim, want in expected.items():
            got = _space(field, (dim,))[2].dimension
            if got != want:
                failures.append(f"dim(W)={dim} over {field}: {got} != {want}")
    for field in (QQ, F7):
        got = _space(field, (5,))[2].dimension
        if got != 0:
            failures.append(f"dim(W)=5 over {field}: {got} != 0")
    # the one-dimensional solution for the standard module is the moment line
    for field in (QQ, F5):
        tensor = _space(field, (2,))[2].basis[0]
        gamma = tensor[0][1][1]
        zero = field.zero()
        want = {
            (0, 0): (field.mul(field.from_int(-2), gamma), zero, zero),
            (0, 1): (zero, gamma, zero),
            (1, 1): (zero, zero, field.mul(field.from_int(2), gamma)),
        }
        if not gamma:
            failures.append(f"{field}: moment line has zero H-coefficient")
        for (u, v), row in want.items():
            if tuple(tensor[u][v]) != row:
                failures.append(
                    f"{field}: basis element deviates from (-2gE, gH, 2gF) at ({u},{v})"
                )
    _finish(2, "single-irreducible solution table", failures)


def test_criterion_3_mixed_module_table():
    failures = []
    checks = [
        ((3, 1), 1, "adjoint+trivial(1)"),
        ((3, 1, 1), 2, "adjoint+trivial(2)"),
        ((4, 1), 0, "irrep(4)+trivial(1)"),
        ((1,), 0, "trivial(1)"),
        ((1, 1), 0, "trivial(2)"),
        ((1, 1, 1), 0, "trivial(3)"),
        ((1, 1, 1, 1), 0, "trivial(4)"),
    ]
    for dims, want, label in checks:
        got = _space(QQ, dims)[2].dimension
        if got != want:
            failures.append(f"{label}: {got} != {want}")
    # adjoint + k trivial lines: one pairing parameter per trivial line, and
    # every solution is the double with a (k-1)-dimensional centre
    for k in (1, 2):
        failures.extend(_adjoint_plus_trivial_failures(k))
    _finish(3, "mixed-module solution table", failures)


def _adjoint_plus_trivial_failures(k):
    label = f"adjoint+trivial({k})"
    even, rep, space = _space(QQ, (3,) + (1,) * k)
    if space.dimension != k:
        return [f"{label}: basis has {space.dimension} tensors, expected {k}"]
    failures = []
    lines = range(3, 3 + k)
    module_blocks = [
        Matrix(QQ, [[m.data[w][v] for v in range(3)] for w in range(3)])
        for m in rep.matrices()
    ]
    ad_mats = [even.ad(x) for x in range(3)]
    for i, tensor in enumerate(space.basis):
        if any(any(tensor[u][v]) for u in range(3) for v in range(3)):
            failures.append(f"{label}: tensor {i} is nonzero on adjoint x adjoint")
        if any(any(tensor[s][t]) for s in lines for t in lines):
            failures.append(f"{label}: tensor {i} is nonzero on trivial x trivial")
        for j, t in enumerate(lines):
            # psi: adjoint block -> even part, v -> {v, t}
            psi = Matrix(QQ, [[tensor[v][t][y] for v in range(3)] for y in range(3)])
            if any(psi @ m != ad @ psi for m, ad in zip(module_blocks, ad_mats)):
                failures.append(f"{label}: tensor {i}, line {j}: not equivariant")
            if j == i and not psi.det():
                failures.append(f"{label}: tensor {i}, line {j}: singular pairing")
            if j != i and any(any(row) for row in psi.data):
                failures.append(f"{label}: tensor {i} pairs with line {j} as well")
    holder = assemble(even, rep, ())
    points = [solution_to_algebra(holder, space, i) for i in range(k)]
    if k > 1:
        d1 = rep.dim
        total = [
            [[sum(c) for c in zip(*(b[u][v] for b in space.basis))] for v in range(d1)]
            for u in range(d1)
        ]
        points.append(SuperAlgebra.from_tensors(QQ, even.bracket, holder.action, total))
    for i, g in enumerate(points):
        name = f"solution {i}" if i < k else "sum of the basis"
        if not validate(g).ok:
            failures.append(f"{label}: {name} is not a superalgebra")
            continue
        result = classify(g)
        if (result.case, result.centre_dim) != ("B", k - 1):
            failures.append(
                f"{label}: {name} classifies as {result.case} with centre "
                f"{result.centre_dim}, expected B with centre {k - 1}"
            )
    return failures


def test_criterion_4_classification_round_trips(rng):
    failures = []
    instances = []
    for field in (QQ, F5):
        for z in (0, 1, 3):
            instances.append(
                (add_centre(build_osp12(field), z), "C", z, f"osp12+{z} {field}")
            )
        instances.append(
            (
                build_double(sl2_algebra(field), Matrix.identity(field, 3)),
                "B",
                0,
                f"double {field}",
            )
        )
        rep = build_irrep(IrrepSpec.standard_params(field, 3), field)
        instances.append(
            (assemble(sl2_algebra(field), rep, ()), "A", None, f"V(3) zero {field}")
        )
    for g, want_case, want_z, label in instances:
        result = classify(g)
        if result.case != want_case:
            failures.append(f"{label}: case {result.case} != {want_case}")
            continue
        if want_z is not None and result.centre_dim != want_z:
            failures.append(f"{label}: centre {result.centre_dim} != {want_z}")
        if result.certificate is not None:
            ok, why = check_morphism(result.certificate)
            if not ok:
                failures.append(f"{label}: certificate rejected ({why})")
        for trial in range(20):
            a, b = random_graded_change(g, rng)
            moved = classify(g.conjugated(a, b))
            if moved.case != want_case:
                failures.append(
                    f"{label}: trial {trial} case {moved.case} != {want_case}"
                )
                break
            if moved.certificate is not None and not check_morphism(moved.certificate)[0]:
                failures.append(f"{label}: trial {trial} certificate rejected")
                break
    _finish(4, "classification round-trips", failures)


def test_criterion_5_sl2_toolkit():
    failures = []
    for m in range(5):
        rep = build_irrep(IrrepSpec.standard_params(QQ, m), QQ)
        if not rep.satisfies_triple_relations():
            failures.append(f"triple relations fail for m={m} over Q")
    for field in (F5, F7):
        p = field.characteristic
        specs = [IrrepSpec.standard_params(field, m) for m in range(p - 1)]
        specs += [
            IrrepSpec(p - 1, field.scalar(p - 1), field.scalar(b)) for b in range(p)
        ]
        for spec in specs:
            rep = build_irrep(spec, field)
            if not rep.satisfies_triple_relations():
                failures.append(
                    f"triple relations fail for m={spec.m}, beta={spec.beta} over {field}"
                )
    # annihilator matches the case table for m in {1,2,3,4}
    e_line = [Vector.unit(QQ, 3, 0)]
    h_line = [Vector.unit(QQ, 3, 1)]
    f_line = [Vector.unit(QQ, 3, 2)]
    for m in (1, 2, 3, 4):
        spec = IrrepSpec.standard_params(QQ, m)
        for i in range(m + 1):
            got = annihilator(spec, i, QQ)
            if i == 0:
                want = e_line
            elif i == m:
                want = f_line
            elif 2 * i == m:
                want = h_line
            else:
                want = []
            if got != want:
                failures.append(f"annihilator(m={m}, i={i}) wrong: {got}")
    trivial = build_irrep(IrrepSpec.standard_params(QQ, 0), QQ)
    if casimir(trivial) != Matrix(QQ, [[1]]):
        failures.append("casimir on the trivial module is not [1]")
    for field in (QQ, F5, F7):
        top = 5 if field.characteristic == 0 else field.characteristic - 1
        for m in range(top):
            rep = build_irrep(IrrepSpec.standard_params(field, m), field)
            om = casimir(rep)
            if om != Matrix.identity(field, m + 1).scaled(om.data[0][0]):
                failures.append(f"casimir not scalar on m={m} over {field}")
    if jacobson_test(build_irrep(IrrepSpec.standard_params(F5, 1), F5)) != SUFFICIENT:
        failures.append("jacobson test on the standard module over F_5")
    rep = RepMatrices.direct_sum(
        [
            build_irrep(IrrepSpec.standard_params(QQ, 2), QQ),
            build_irrep(IrrepSpec.standard_params(QQ, 0), QQ),
        ]
    )
    dims = [len(chain) for chain, _ in decompose(rep)]
    if dims != [3, 1]:
        failures.append(f"decompose(adjoint+trivial) returned dims {dims}")
    _finish(5, "sl(2) toolkit", failures)


def test_criterion_6_counterexample_fidelity():
    failures = []
    c3 = build_char3_example()
    report = validate(c3)
    if not report.ok:
        failures.append(f"char3 structure rejected: {report}")
    sub = restrict_odd(c3, [0, 1])
    cert = MorphismCertificate(
        sub,
        build_osp12(GF(3)),
        Matrix.diagonal(GF(3), [-1, 1, -1]),
        Matrix.diagonal(GF(3), [1, -1]),
    )
    ok, why = check_morphism(cert)
    if not ok:
        failures.append(f"char3 restriction is not the 3|2 model: {why}")
    c2 = build_char2_example()
    report = validate(c2)
    if not report.ok:
        failures.append(f"char2 structure rejected: {report}")
    if classify(c3).case != "not_applicable":
        failures.append("char3 structure was classified")
    if classify(c2).case != "not_applicable":
        failures.append("char2 structure was classified")
    _finish(6, "small-characteristic fidelity", failures)


def test_criterion_7_sweep_completeness():
    failures = []
    t0 = time.time()
    rows = sweep_irrep_sums(F5, 6)
    even = sl2_algebra(F5)
    for row in rows:
        if row.dimension == 0:
            continue
        has_std = 2 in row.composition
        has_adj_triv = 3 in row.composition and 1 in row.composition
        if not (has_std or has_adj_triv):
            failures.append(
                f"unexpected nonzero space for composition {row.composition}"
            )
            continue
        rep = RepMatrices.direct_sum(
            [
                build_irrep(IrrepSpec.standard_params(F5, d - 1), F5)
                for d in row.composition
            ]
        )
        holder = assemble(even, rep, ())
        space = odd_bracket_space(holder)
        want = "C" if has_std else "B"
        for i in range(space.dimension):
            result = classify(solution_to_algebra(holder, space, i))
            if result.case != want:
                failures.append(
                    f"composition {row.composition} solution {i}: case "
                    f"{result.case} != {want} ({result.reason})"
                )
    elapsed = time.time() - t0
    if elapsed >= 60:
        failures.append(f"sweep + classification took {elapsed:.1f}s >= 60s")
    _finish(7, "sweep completeness", failures)
