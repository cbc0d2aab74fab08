"""Write the summary of two sets of benchmark results as one JSON file.

    python3 tools/bench_json.py BASE_DIR NEW_DIR OUT

BASE_DIR and NEW_DIR hold result files written by perfbench/run.py (the
.perfbench/results/ of a checkout, or a copy of it): BASE_DIR from the
parent commit, NEW_DIR from the change.  For every workload and metric
found on either side, OUT gets each side's median, quartiles and run
count, as perfbench/compare.py computes them, with the metric's unit and
direction from BENCHMARK.json.  Traced and untraced runs of a workload
report different metrics, so both land under the workload's name.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from compare import load, summary  # noqa: E402


def side(values: list | None) -> dict | None:
    if not values:
        return None
    median, q1, q3, _ = summary(values)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def by_workload(results: dict) -> dict:
    """(workload, trace) -> metric -> values, as workload -> metric -> values."""
    out = {}
    for (workload, _), metrics in results.items():
        out.setdefault(workload, {}).update(metrics)
    return out


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = by_workload(load(argv[0])), by_workload(load(argv[1]))
    workloads = {}
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload, {}), new.get(workload, {})
        workloads[workload] = {}
        for name in sorted(set(b) | set(n)):
            spec = specs.get(name, {})
            workloads[workload][name] = {
                "unit": spec.get("unit"), "better": spec.get("better", "lower"),
                "base": side(b.get(name)), "new": side(n.get(name))}
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump({"workloads": workloads}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
