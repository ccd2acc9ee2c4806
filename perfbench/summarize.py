"""Summarize benchmark results into ``BENCH_<label>.json`` and compare them
with the baseline.

Reads ``perfbench/out/result-<workload>-seed<n>-trace<t>.json`` for the
given seeds (untraced) and traced seeds, and writes per workload and metric
the median, quartiles and spread (quartile distance over median) of the
untraced runs, plus the per-layer metrics of the traced runs.  When
``BENCH_baseline.json`` exists, prints each bounded median against the
baseline's and the metric's bound from ``BENCHMARK.json``, and whether the
two are comparable (same Python and kernel).  Run from the repository root
after the runs, for example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload pspace --seed $s --seconds 20 --trace 0
    done
    python3 perfbench/run.py --workload pspace --seed 11 --seconds 20 --trace 1
    python3 perfbench/summarize.py --label mychange --seeds 1-10 --traced 11
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def stats(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / med if med else 0.0,
            "values": values}


def load(workload, seed, trace):
    path = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def summarize(workload, run_seeds, traced_seeds):
    runs = [r for r in (load(workload, s, 0) for s in run_seeds) if r]
    if not runs:
        return None
    metrics = {}
    for name in runs[0]["metrics"]:
        metrics[name] = dict(stats([r["metrics"][name]["value"] for r in runs]),
                             unit=runs[0]["metrics"][name]["unit"])
    for name in ("op_p50_ms", "op_p90_ms"):
        values = [r["latency"][name]["value"] for r in runs if name in r["latency"]]
        if len(values) == len(runs):
            metrics[name] = dict(stats(values), unit="ms", bounded=False)
    traced = [r for r in (load(workload, s, 1) for s in traced_seeds) if r]
    return {
        "seeds": [r["provenance"]["seed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        "metrics": metrics,
        "traced": {str(r["provenance"]["seed"]): r["metrics"] for r in traced},
        "provenance": runs[0]["provenance"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--traced", type=seeds, default=[])
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = {"workloads": {}}
    for w in spec["workloads"]:
        summary = summarize(w["name"], args.seeds, args.traced)
        if summary:
            out["workloads"][w["name"]] = summary
    if not out["workloads"]:
        sys.exit("perfbench: no results for those seeds")
    first = next(iter(out["workloads"].values()))["provenance"]
    out["provenance"] = {k: first[k] for k in (
        "python", "implementation", "nproc", "cpu", "compiled_kernel", "commit", "source_sha256")}
    base_path = HERE / "BENCH_baseline.json"
    base = json.loads(base_path.read_text(encoding="utf-8")) if base_path.is_file() else None
    for name, w in out["workloads"].items():
        print(f"{name}: seeds {w['seeds']}, correct {w['correct']}, error_rate {w['error_rate']:.3g}")
        for metric, m in w["metrics"].items():
            line = (f"  {metric:12s} median {m['median']:.6g} {m['unit']}  "
                    f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.3f}")
            b = base and base["workloads"].get(name, {}).get("metrics", {}).get(metric)
            if b and metric in bounds and args.label != "baseline":
                better = bounds[metric]["better"]
                change = m["median"] / b["median"] - 1
                worse = -change if better == "higher" else change
                verdict = "WORSE than bound" if worse > bounds[metric]["bound"] else "within bound"
                line += f"  vs baseline {change:+.1%} ({verdict} {bounds[metric]['bound']:.0%})"
            print(line)
    if base:
        print(f"baseline: {run.comparability(out['provenance'])}")
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
