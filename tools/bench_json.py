"""Write the summary of two sets of benchmark results as one JSON file.

    python3 tools/bench_json.py BASE_DIR NEW_DIR OUT

BASE_DIR and NEW_DIR hold result files written by perfbench/run.py (the
.perfbench/results/ of a checkout, or a copy of it): BASE_DIR from the
parent commit, NEW_DIR from the change.  For every workload and metric
found on either side, OUT gets each side's median, quartiles and run
count, as perfbench/compare.py computes them, with the metric's unit and
direction from BENCHMARK.json.  Traced and untraced runs of a workload
report different metrics, so both land under the workload's name.  Each
workload also gets "extra.ops", the same summary of the op count that
each record's extra.ops holds (untraced runs write it): a run that does
more ops reads a higher peak_rss_mb on exact-small, so that metric is read
against it.  "peak_rss_mb_at_base_ops" gives each side's peak_rss_mb at
BASE's median op count, read off the least-squares line through that
side's (extra.ops, peak_rss_mb) runs; it is null for a side with fewer
than two distinct op counts.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
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


def op_runs(directory: str) -> dict:
    """workload -> (extra.ops, peak_rss_mb or None) of each correct record
    that has extra.ops."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("correct") and "ops" in record.get("extra", {}):
            rss = record["metrics"].get("peak_rss_mb", {}).get("value")
            out.setdefault(record["workload"], []).append((record["extra"]["ops"], rss))
    return out


def rss_at(runs: list, ops) -> float | None:
    """peak_rss_mb at `ops` ops on the least-squares line through the runs,
    or None with fewer than two distinct op counts."""
    points = [(x, y) for x, y in runs if y is not None]
    if ops is None or len({x for x, _ in points}) < 2:
        return None
    slope, intercept = statistics.linear_regression(*zip(*points))
    return intercept + slope * ops


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = by_workload(load(argv[0])), by_workload(load(argv[1]))
    base_runs, new_runs = op_runs(argv[0]), op_runs(argv[1])
    workloads = {}
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload, {}), new.get(workload, {})
        workloads[workload] = {}
        for name in sorted(set(b) | set(n)):
            spec = specs.get(name, {})
            workloads[workload][name] = {
                "unit": spec.get("unit"), "better": spec.get("better", "lower"),
                "base": side(b.get(name)), "new": side(n.get(name))}
        b_runs, n_runs = base_runs.get(workload, []), new_runs.get(workload, [])
        ops = side([x for x, _ in b_runs])
        workloads[workload]["extra.ops"] = {
            "unit": "count", "better": None, "base": ops, "new": side([x for x, _ in n_runs])}
        at = ops and ops["median"]
        workloads[workload]["peak_rss_mb_at_base_ops"] = {
            "unit": "MB", "better": "lower", "ops": at,
            "base": rss_at(b_runs, at), "new": rss_at(n_runs, at)}
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump({"workloads": workloads}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
