"""tools/bench_json.py: the committed summary of two benchmark result sets."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"


def _write(directory: Path, seed: int, trace: int, metrics: dict, correct=True):
    directory.mkdir(exist_ok=True)
    record = {"correct": correct, "workload": "expand", "trace": trace, "seed": seed,
              "metrics": {name: {"value": value} for name, value in metrics.items()}}
    (directory / f"expand-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_medians_quartiles_and_counts_per_side(tmp_path):
    base, new, out = tmp_path / "base", tmp_path / "new", tmp_path / "out.json"
    for seed, wall in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
        _write(base, seed, 0, {"wall_s": wall})
    _write(base, 9, 0, {"wall_s": 100.0}, correct=False)  # skipped, as compare.py does
    _write(base, 0, 1, {"expansion.expand_s": 0.5})
    _write(new, 0, 0, {"wall_s": 2.0})
    subprocess.run([sys.executable, str(SCRIPT), str(base), str(new), str(out)],
                   check=True, capture_output=True)
    expand = json.loads(out.read_text())["workloads"]["expand"]
    assert expand["wall_s"] == {
        "unit": "s", "better": "lower",
        "base": {"median": 3.0, "q1": 1.5, "q3": 4.5, "runs": 5},
        "new": {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": 1}}
    assert expand["expansion.expand_s"]["base"]["runs"] == 1
    assert expand["expansion.expand_s"]["new"] is None


def test_usage_exits_two():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert done.returncode == 2 and "BASE_DIR NEW_DIR OUT" in done.stderr
