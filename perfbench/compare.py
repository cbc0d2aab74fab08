"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (.perfbench/results/
of a checkout, or a copy of it).  For every (metric, workload) pair found
in both, prints each side's median with its quartiles and run count, and
for end-to-end metrics:

* spread: the quartile distance over the median, per side, against the
  metric's bound in BENCHMARK.json (setup_s is exempt from this test);
* verdict: "ok" when NEW's median is no worse than BASE's by more than the
  bound, "WORSE" otherwise, and "unresolved" when a side's spread exceeds
  the bound, unless every NEW run reads better than every BASE run.

Exits 1 if any end-to-end pair is WORSE or unresolved.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """(workload, trace) -> metric -> list of values."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if not record.get("correct"):
            print(f"note: {path} is not correct; skipped", file=sys.stderr)
            continue
        metrics = out.setdefault((record["workload"], record["trace"]), {})
        for name, entry in record["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def summary(values: list) -> tuple:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    failing = 0
    print(f"{'workload':12} {'metric':26} {'base median [q1, q3] n':36} "
          f"{'new median [q1, q3] n':36} {'change':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        for name in sorted(set(base[key]) & set(new[key])):
            spec = specs.get(name, {"better": "lower"})
            b, n = base[key][name], new[key][name]
            bm, bq1, bq3, bspread = summary(b)
            nm, nq1, nq3, nspread = summary(n)
            sign = 1 if spec["better"] == "lower" else -1
            change = sign * (nm - bm) / bm if bm else 0.0
            verdict = ""
            if "bound" in spec:
                bound = spec["bound"]
                all_better = (max(n) < min(b)) if sign == 1 else (min(n) > max(b))
                spread_ok = name == "setup_s" or max(bspread, nspread) <= bound
                if change > bound:
                    verdict = "WORSE"
                elif not spread_ok and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                verdict += f" (bound {bound:.0%}, spread {bspread:.1%}/{nspread:.1%})"
                failing += not verdict.startswith("ok")
            print(f"{workload:12} {name:26} "
                  f"{f'{bm:.4g} [{bq1:.4g}, {bq3:.4g}] {len(b)}':36} "
                  f"{f'{nm:.4g} [{nq1:.4g}, {nq3:.4g}] {len(n)}':36} {change:+8.1%}  {verdict}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
