"""tools/bench_json.py: the committed summary of two benchmark result sets."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"


def _write(directory: Path, seed: int, trace: int, metrics: dict, correct=True, extra=None):
    directory.mkdir(exist_ok=True)
    record = {"correct": correct, "workload": "expand", "trace": trace, "seed": seed,
              "metrics": {name: {"value": value} for name, value in metrics.items()},
              "extra": extra or {}}
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


def test_op_counts_per_side(tmp_path):
    # extra.ops of each correct record; a traced record has none
    base, new, out = tmp_path / "base", tmp_path / "new", tmp_path / "out.json"
    for seed, ops in enumerate([100, 300, 200]):
        _write(base, seed, 0, {"wall_s": 1.0}, extra={"ops": ops})
    _write(base, 8, 0, {"wall_s": 1.0}, correct=False, extra={"ops": 10**6})
    _write(base, 0, 1, {"expansion.expand_s": 0.5}, extra={"layer_totals": {}})
    _write(new, 0, 1, {"expansion.expand_s": 0.5})
    subprocess.run([sys.executable, str(SCRIPT), str(base), str(new), str(out)],
                   check=True, capture_output=True)
    ops = json.loads(out.read_text())["workloads"]["expand"]["extra.ops"]
    assert ops == {"unit": "count", "better": None,
                   "base": {"median": 200, "q1": 100, "q3": 300, "runs": 3}, "new": None}


def test_peak_rss_at_the_base_median_op_count(tmp_path):
    # each side's least-squares line, read at BASE's median op count (200)
    base, new, out = tmp_path / "base", tmp_path / "new", tmp_path / "out.json"
    for seed, (ops, rss) in enumerate([(100, 40.0), (300, 44.0), (200, 42.5)]):
        _write(base, seed, 0, {"peak_rss_mb": rss}, extra={"ops": ops})
    _write(base, 7, 0, {"peak_rss_mb": 99.0}, correct=False, extra={"ops": 250})
    for seed, (ops, rss) in enumerate([(250, 46.0), (350, 48.0)]):
        _write(new, seed, 0, {"peak_rss_mb": rss}, extra={"ops": ops})
    subprocess.run([sys.executable, str(SCRIPT), str(base), str(new), str(out)],
                   check=True, capture_output=True)
    at = json.loads(out.read_text())["workloads"]["expand"]["peak_rss_mb_at_base_ops"]
    assert at["unit"] == "MB" and at["better"] == "lower" and at["ops"] == 200
    assert at["base"] == pytest.approx(42.0 + 0.5 / 3) and at["new"] == pytest.approx(45.0)


def test_peak_rss_at_base_ops_needs_two_op_counts(tmp_path):
    # one distinct op count on a side, or no op count at all, gives null
    base, new, out = tmp_path / "base", tmp_path / "new", tmp_path / "out.json"
    for seed in range(2):
        _write(base, seed, 0, {"peak_rss_mb": 40.0 + seed}, extra={"ops": 100})
        _write(new, seed, 0, {"peak_rss_mb": 40.0}, extra={"ops": 100 + seed})
    subprocess.run([sys.executable, str(SCRIPT), str(base), str(new), str(out)],
                   check=True, capture_output=True)
    at = json.loads(out.read_text())["workloads"]["expand"]["peak_rss_mb_at_base_ops"]
    assert at == {"unit": "MB", "better": "lower", "ops": 100, "base": None, "new": 40.0}
    _write(tmp_path / "empty", 0, 1, {"expansion.expand_s": 0.5})
    subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "empty"), str(new), str(out)],
                   check=True, capture_output=True)
    at = json.loads(out.read_text())["workloads"]["expand"]["peak_rss_mb_at_base_ops"]
    assert at["ops"] is None and at["base"] is None and at["new"] is None
