"""End-to-end and per-layer benchmark of the superbracket CLI.

Run from the repository root:

    python3 perfbench/run.py --workload pspace --seed 1 --seconds 20 --trace 0

One op is one in-process call of ``superbracket.cli.main(argv)`` with the
argv a user would type; stdout is captured and the exit code recorded, and
both are compared with the reference outputs pinned in ``reference.json``.
All load comes from this one process and thread; each workload runs in its
own process.  Ops run in whole cycles over the workload's op list (shuffled
per cycle by the seed) until ``--seconds`` have passed, so every run times
the same mix.

``--trace 0`` prints the end-to-end metrics; op and set-up times in them
are scaled to a reference host speed measured during the run (see
``hostspeed.py``).
``--trace 1`` spends the first half of the time untraced and the second
half with every public function of the package wrapped in a span (see
``tracing.py``), and prints the per-layer metrics, including
``trace.overhead`` between the two halves.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a fuller
record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DOCS = OUT.relative_to(ROOT) / "docs"  # relative: ops take the paths a user would type
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only",
        action="store_true",
        help="Import, generate and write the documents, print their hashes, exit.",
    )
    return ap.parse_args(argv)


def import_package():
    """Import the package from the checkout's src/, or exit 2."""
    if not (SRC / "superbracket" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no superbracket sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import superbracket
    import superbracket.cli  # noqa: F401

    return superbracket


def setup(sb, workload, seed):
    variants = wl.chosen_variants(workload, seed)
    return wl.write_docs(sb, workload, variants, DOCS / workload.name)


# --- one op ---------------------------------------------------------------------


def call_cli(argv):
    """Run the CLI in-process; returns (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            sys.modules["superbracket.cli"].main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue().encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs ops, checks each against the reference, keeps one output per op."""

    def __init__(self, reference, inputs):
        self.reference = reference
        self.inputs = inputs
        self.outputs: dict = {}
        self.errors: list = []
        self.host_units: list = []

    def check_reference(self, op, results):
        ref = self.reference.get(op.key)
        if ref is None:
            return f"{op.key}: no reference output"
        if ref["input"] != self.inputs.get(op.key, ""):
            return f"{op.key}: input differs from the one the reference was recorded on"
        got = [[code, sha(out)] for code, out in results]
        if got != ref["calls"]:
            return f"{op.key}: output {got} differs from reference {ref['calls']}"
        return None

    def run_op(self, op, tracer=None, op_id=0):
        failure = None
        if tracer is not None:
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            results = [call_cli(argv) for argv in op.argvs]
        except Exception as exc:  # an op that raises is a failed op
            results = None
            failure = f"{op.key}: raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        if failure is None:
            failure = self.check_reference(op, results)
            self.outputs.setdefault(op.key, results)
        if failure is not None:
            self.errors.append(failure)
        return t0, t1, failure is None

    def measure(self, ops, seconds, rng, tracer=None):
        """Whole shuffled cycles over ops until seconds have passed, under
        host-speed calibration; returns [Timed] and the elapsed wall time."""
        spans = []
        gc.collect()
        with hostspeed.Calibration() as cal:
            start = time.perf_counter()
            while True:
                order = list(ops)
                rng.shuffle(order)
                for op in order:
                    # every op starts from a collected heap, as in a fresh process
                    gc.collect()
                    spans.append((op, *self.run_op(op, tracer, len(spans))))
                elapsed = time.perf_counter() - start
                if elapsed >= seconds:
                    break
        self.host_units += cal.durations
        done = [Timed(op, *cal.op_time(t0, t1), ok) for op, t0, t1, ok in spans]
        return done, elapsed


@dataclass(frozen=True)
class Timed:
    """One measured op: raw wall seconds and host-speed-scaled seconds."""

    op: wl.Op
    wall: float
    scaled: float
    ok: bool


# --- output checks from how each input was built -----------------------------------


def _partition_count(total, max_part):
    if total == 0:
        return 1
    return sum(_partition_count(total - k, k) for k in range(1, min(total, max_part) + 1))


def check_sweep(sb, op, results):
    bad = []
    for argv, (code, out) in zip(op.argvs, results):
        p, top = int(argv[2][3:]), int(argv[4])
        lines = out.decode().splitlines()
        want = sum(_partition_count(n, p) for n in range(1, top + 1))
        if code != 0 or lines[0] != "p,composition,dim" or len(lines) - 1 != want:
            bad.append(f"sweep fp:{p}: exit {code}, {len(lines) - 1} rows, want {want}")
            continue
        for line in lines[1:]:
            _, comp, dim = line.split(",")
            parts = [int(x) for x in comp.split("+")]
            if int(dim) and not (2 in parts or (3 in parts and 1 in parts)):
                bad.append(f"sweep fp:{p}: {comp} has dimension {dim}")
    return bad


def check_pspace(sb, op, results):
    (code, out), = results
    path = op.argvs[0][1]
    if code != op.expect["exit"]:
        return [f"{op.key}: exit {code}"]
    doc = json.loads(out)
    if doc["dim"] != op.expect["dim"] or len(doc["basis"]) != doc["dim"]:
        return [f"{op.key}: dimension {doc['dim']}, want {op.expect['dim']}"]
    from superbracket.moduli import OddBracketSpace

    g, _ = sb.parse_algebra(Path(path).read_text(encoding="utf-8"))
    f = g.field
    tensors = []
    for entries in doc["basis"]:
        t = [[[f.zero()] * g.dim_even for _ in range(g.dim_odd)] for _ in range(g.dim_odd)]
        for u, v, x, c in entries:
            t[u][v][x] = t[v][u][x] = f.parse(c)
        tensors.append(t)
    space = OddBracketSpace(f, g.dim_even, g.dim_odd, tuple(tensors))
    return [
        f"{op.key}: basis tensor {i} fails validation"
        for i in range(space.dimension)
        if not sb.validate(sb.solution_to_algebra(g, space, i)).ok
    ]


def check_classify(sb, op, results):
    (code, out), = results
    doc = json.loads(out)
    want = op.expect
    if code != want["exit"] or doc["case"] != want["case"]:
        return [f"{op.key}: exit {code} case {doc['case']}, want {want['exit']} {want['case']}"]
    if "centre_dim" in want and doc.get("centre_dim") != want["centre_dim"]:
        return [f"{op.key}: centre {doc.get('centre_dim')}, want {want['centre_dim']}"]
    return []


def check_validate(sb, op, results):
    (code, out), = results
    text = out.decode()
    want = op.expect
    if code != want["exit"]:
        return [f"{op.key}: exit {code}, want {want['exit']}"]
    if want["valid"]:
        return [] if text == "valid\n" else [f"{op.key}: printed {text[:60]!r}"]
    blamed = {line.split(" violated at ")[0] for line in text.splitlines()}
    if not blamed or not blamed <= set(want["identities"]):
        return [f"{op.key}: blames {sorted(blamed)}, want a subset of {want['identities']}"]
    return []


CHECKS = {
    "sweep": check_sweep,
    "pspace": check_pspace,
    "classify": check_classify,
    "validate": check_validate,
}


def check_outputs(sb, workload, ops, outputs):
    """Expectations from the construction, plus re-validation of every
    pspace basis tensor; outside the timed region, once per distinct op.
    Returns {op key: [problems]} for the ops that fail."""
    bad = {}
    for op in ops:
        results = outputs.get(op.key)
        if results is None:
            continue
        try:
            problems = CHECKS[workload.name](sb, op, results)
        except (ValueError, KeyError, IndexError) as exc:
            problems = [f"{op.key}: unreadable output ({type(exc).__name__}: {exc})"]
        if problems:
            bad[op.key] = problems
    return bad


# --- metrics --------------------------------------------------------------------------


def rate(done):
    """Ops per second of host-speed-scaled op time (see hostspeed.py)."""
    return len(done) / sum(t.scaled for t in done)


def end_to_end(done, setup_runs):
    """The metrics BENCHMARK.json bounds."""
    return {
        "setup_s": (statistics.median(setup_runs), "s"),
        "ops_per_s": (rate(done), "ops/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def latency(done):
    """Per-op percentiles, printed and recorded but not bounded: on a
    heterogeneous op mix the median op is a few copies of one or two
    documents, and their noise on a shared host spread it by up to 17% over
    ten seeds, against 3-8% for the throughput, which sums every op."""
    scaled = [t.scaled for t in done]
    out = {"op_p50_ms": (statistics.median(scaled) * 1e3, "ms")}
    if len(scaled) >= 100:
        out["op_p90_ms"] = (statistics.quantiles(scaled, n=10)[-1] * 1e3, "ms")
    return out


def per_layer(spans, n_ops, untraced_rate, traced_rate):
    table = tracing.layer_table(spans)
    NAME, ATTRS = tracing.NAME, tracing.ATTRS

    def per_op(name, key):
        return table.get(name, {}).get(key, 0) / n_ops

    def attr_sum(name, key, under=None):
        return sum(
            s[ATTRS][key]
            for i, s in enumerate(spans)
            if s[NAME] == name and s[ATTRS] is not None
            and (under is None or tracing.has_ancestor(spans, i, under))
        )

    rrefs = [s[ATTRS] for s in spans if s[NAME] == "linalg.Matrix.rref" and s[ATTRS]]
    dens = sorted(a["nnz"] / (a["rows"] * a["cols"]) for a in rrefs if a["rows"] * a["cols"])
    cells = sum(a["rows"] * a["cols"] for a in rrefs)
    ob_rows = attr_sum("linalg.Matrix.rref", "rows", "moduli.odd_bracket_space")
    ob_rank = attr_sum("linalg.Matrix.rref", "rank", "moduli.odd_bracket_space")
    cases = [s[ATTRS]["case"] for s in spans if s[NAME] == "classify.classify" and s[ATTRS]]

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for name in ("calls", "self_s"):
        put(f"linalg.Matrix.__init__.{name}", per_op("linalg.Matrix.__init__", name),
            "s/op" if name == "self_s" else "count/op")
    put("linalg.Matrix.__init__.entries", attr_sum("linalg.Matrix.__init__", "entries") / n_ops, "count/op")
    put("linalg.Matrix.rref.calls", per_op("linalg.Matrix.rref", "calls"), "count/op")
    put("linalg.Matrix.rref.self_s", per_op("linalg.Matrix.rref", "self_s"), "s/op")
    for key in ("rows", "cols", "nnz", "rank"):
        put(f"linalg.Matrix.rref.{key}", attr_sum("linalg.Matrix.rref", key) / n_ops, "count/op")
    put("linalg.rref.density", sum(a["nnz"] for a in rrefs) / cells if cells else 0.0, "fraction")
    put("linalg.rref.density_p50", statistics.median(dens) if dens else 0.0, "fraction")
    put("linalg.rref.density_max", dens[-1] if dens else 0.0, "fraction")
    for name in ("linalg.kernel_basis", "linalg.solve_linear", "linalg.echelon_span",
                 "linalg.Matrix.inverse", "moduli.sweep_irrep_sums", "sl2.build_irrep",
                 "sl2.RepMatrices.direct_sum", "superalgebra.supercentre",
                 "classify.classify", "cli"):
        put(f"{name}.self_s", per_op(name, "self_s"), "s/op")
    put("moduli.odd_bracket_space.calls", per_op("moduli.odd_bracket_space", "calls"), "count/op")
    put("moduli.odd_bracket_space.self_s", per_op("moduli.odd_bracket_space", "self_s"), "s/op")
    put("moduli.odd_bracket_space.rows", ob_rows / n_ops, "count/op")
    put("moduli.rows_per_rank", ob_rows / ob_rank if ob_rank else 0.0, "ratio")
    put("schema.parse_algebra.calls", per_op("schema.parse_algebra", "calls"), "count/op")
    put("schema.parse_algebra.bytes", attr_sum("schema.parse_algebra", "bytes") / n_ops, "bytes/op")
    put("schema.parse_algebra.self_s", per_op("schema.parse_algebra", "self_s"), "s/op")
    put("superalgebra.validate.calls", per_op("superalgebra.validate", "calls"), "count/op")
    put("superalgebra.validate.self_s", per_op("superalgebra.validate", "self_s"), "s/op")
    put("superalgebra.validate.violations",
        attr_sum("superalgebra.validate", "violations") / n_ops, "count/op")
    put("superalgebra.check_morphism.calls", per_op("superalgebra.check_morphism", "calls"), "count/op")
    put("superalgebra.check_morphism.self_s", per_op("superalgebra.check_morphism", "self_s"), "s/op")
    put("superalgebra.check_morphism.rejected",
        attr_sum("superalgebra.check_morphism", "rejected") / n_ops, "count/op")
    for case in ("A", "B", "C", "not_applicable"):
        put(f"classify.case.{case}", cases.count(case) / n_ops, "count/op")
    put("trace.ops_per_s", traced_rate, "ops/s")
    put("trace.overhead", untraced_rate / traced_rate - 1.0, "fraction")
    return m


def layer_rows(spans, ops=None):
    table = tracing.layer_table(spans, ops)
    total = sum(r["self_s"] for r in table.values()) or 1.0
    return sorted(
        ((name, r["calls"], r["self_s"], r["self_s"] / total) for name, r in table.items()),
        key=lambda row: -row[2],
    )


def print_layers(title, rows, n_ops):
    print(f"per-layer self time, {title} ({n_ops} traced ops):")
    print(f"  {'layer':38s} {'calls/op':>10s} {'self ms/op':>11s} {'share':>7s}")
    for name, calls, self_s, share in rows:
        print(f"  {name:38s} {calls / n_ops:10.1f} {self_s / n_ops * 1e3:11.3f} {share:7.1%}")


# --- provenance ----------------------------------------------------------------------


def provenance(sb):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "superbracket").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "compiled_kernel": sb.using_compiled_kernel(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def comparability(prov):
    """Whether this run can be compared with the recorded baseline."""
    path = HERE / "BENCH_baseline.json"
    if not path.is_file():
        return "no baseline recorded"
    base = json.loads(path.read_text(encoding="utf-8"))["provenance"]
    diffs = [
        f"{k} {prov[k]} vs baseline {base[k]}"
        for k in ("python", "implementation", "compiled_kernel")
        if prov[k] != base[k]
    ]
    return "NOT comparable: " + "; ".join(diffs) if diffs else "comparable"


# --- main ------------------------------------------------------------------------------


def timed_setups(args):
    """SETUP_REPEATS fresh processes, each timed from interpreter start to
    its documents written; returns their wall times, the same scaled by
    the host-speed units each measured during its set-up, and the input
    hashes each produced."""
    walls, scaled, hashes = [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up process exited {proc.returncode}")
        child = json.loads(proc.stdout.splitlines()[-1])
        scaled.append(hostspeed.scaled(walls[-1], child["host_units"]))
        hashes.append(child["inputs"])
    return walls, scaled, hashes


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    workload = wl.WORKLOADS[args.workload]
    os.chdir(ROOT)
    with hostspeed.Calibration() as cal:
        sb = import_package()
        ops, inputs = setup(sb, workload, args.seed)
    if args.setup_only:
        print(json.dumps({"inputs": inputs, "host_units": cal.durations}, sort_keys=True))
        return 0

    setup_walls, setup_runs, child_inputs = timed_setups(args)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["ops"]
    runner = Runner(reference, inputs)
    for other in child_inputs:
        if other != inputs:
            runner.errors.append("set-up is not deterministic: documents differ between processes")
    rng = random.Random(f"{workload.name}:order:{args.seed}")
    prov = dict(provenance(sb), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)

    tracer = None
    untraced = []
    if args.trace:
        untraced, _ = runner.measure(ops, args.seconds / 2, rng)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            done, elapsed = runner.measure(ops, args.seconds / 2, rng, tracer)
        finally:
            tracer.uninstall()
    else:
        done, elapsed = runner.measure(ops, args.seconds, rng)

    post = check_outputs(sb, workload, ops, runner.outputs)
    for problems in post.values():
        runner.errors += problems
    attempted = len(untraced) + len(done)
    failed = sum(not t.ok or t.op.key in post for t in untraced + done)
    correct = not runner.errors

    if args.trace:
        metrics = per_layer(tracer.spans, len(done), rate(untraced), rate(done))
    else:
        metrics = end_to_end(done, setup_runs)
    comparable = comparability(prov)

    print(f"workload {workload.name}  seed {args.seed}  ops {len(done)} in {elapsed:.2f} s  "
          f"({len(ops)} ops per cycle)")
    for key in ("python", "nproc", "cpu", "compiled_kernel", "commit", "source_sha256"):
        print(f"  {key}: {prov[key]}")
    print(f"  baseline: {comparable}")
    if workload.name == "sweep":
        print("  (sweep inputs do not depend on the seed)")
    print(f"  set-up processes: {', '.join(f'{s:.3f}' for s in setup_walls)} s wall, "
          f"{', '.join(f'{s:.3f}' for s in setup_runs)} s scaled")
    host_unit = statistics.median(runner.host_units)
    print(f"  host-speed unit: median {host_unit * 1e3:.3f} ms over {len(runner.host_units)} samples "
          f"(times scaled to {hostspeed.REFERENCE_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {failed / attempted:.6g} fraction ({failed} of {attempted} ops)")
    extra = latency(done)
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value:.6g} {unit} (n = {len(done)})")
    if "op_p90_ms" not in extra:
        print(f"  op_p90_ms omitted: {len(done)} ops, fewer than 100")
    wall = [t.wall for t in done]
    print(f"  unscaled: ops_per_s = {len(done) / sum(wall):.6g} ops/s, "
          f"op_p50_ms = {statistics.median(wall) * 1e3:.6g} ms")
    for err in runner.errors[:20]:
        print(f"  ERROR {err}", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, provenance=prov, comparable=comparable, errors=runner.errors,
                  latency={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                  error_rate=failed / attempted,
                  setup_wall_s=setup_walls, setup_scaled_s=setup_runs,
                  host_unit_s=runner.host_units,
                  ops=[[t.op.key, t.wall, t.scaled] for t in untraced + done])
    if tracer is not None:
        print_layers("all ops", layer_rows(tracer.spans), len(done))
        groups = sorted({op.group for op in ops})
        for group in groups if len(groups) > 1 else ():
            ids = {i for i, t in enumerate(done) if t.op.group == group}
            print_layers(f"{group} documents", layer_rows(tracer.spans, ids), len(ids))
        tracer.write_tsv(OUT / f"spans-{workload.name}-seed{args.seed}.tsv")
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
