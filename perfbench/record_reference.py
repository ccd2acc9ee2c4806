"""Record the reference outputs that ``run.py`` compares every op against.

Runs every variant of every document of the named workloads (all when none
are named) once, checks the output against the expectations from how the
input was built, and writes the exit code and stdout sha256 of each call to
``reference.json``.  Refuses to record an output that fails its checks.
Run from the repository root, on the commit whose outputs are canonical:

    python3 perfbench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads as wl


def record(sb, workload):
    entries, failures = {}, []
    pool = [{d.name: k for d in workload.docs} for k in range(wl.VARIANTS)]
    for variants in pool if workload.docs else [{}]:
        ops, inputs = wl.write_docs(sb, workload, variants, run.DOCS / workload.name)
        for op in ops:
            results = [run.call_cli(argv) for argv in op.argvs]
            problems = run.CHECKS[workload.name](sb, op, results)
            failures += problems
            entries[op.key] = {
                "input": inputs.get(op.key, ""),
                "calls": [[code, run.sha(out)] for code, out in results],
            }
            print(f"{op.key}: {entries[op.key]['calls']}", file=sys.stderr)
    return entries, failures


def main(names):
    os.chdir(run.ROOT)
    sb = run.import_package()
    path = run.HERE / "reference.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"ops": {}}
    failures = []
    for name in names or sorted(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        entries, bad = record(sb, workload)
        failures += bad
        doc["ops"] = {k: v for k, v in doc["ops"].items() if not k.startswith(f"{name}/")}
        doc["ops"].update(entries)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    prov = run.provenance(sb)
    doc["recorded_on"] = {k: prov[k] for k in ("commit", "source_sha256", "python")}
    doc["ops"] = dict(sorted(doc["ops"].items()))
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
