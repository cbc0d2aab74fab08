"""quantoid benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
`src/quantoid`, started as `python -m quantoid ...` with PYTHONPATH=src.
All files go under `.perfbench/` in the working directory.

--trace 0 measures end to end.  The run and every child are pinned to one
CPU.  After a warm-up (one `--help` process to compile .pyc files, and a
read of every input file), `setup_s` is the median wall time of
SETUP_REPEATS `python -m quantoid --help` processes, half run before the
passes and half after.  Passes over the workload's op list run back to
back, one op at a time (a closed loop with one client), until S seconds
are up; at least one pass always runs.  CLI ops are child processes timed
from here, with max-RSS read by os.wait4; exact-small runs in one
in-process runner child (inproc.py) that times its ops itself.  A
calibration unit (speed.py) is timed before the first and after every timed
child and unit of the in-process runner, and every timed sample is
reported at the reference speed: its raw value times speed.scale() of the
two units around it.

--trace 1 measures per layer: `python -X importtime` probes, then the same
op list in process, once plain and once with spans around every public
quantoid function (tracer.py).  Spans are written as JSON lines.

Every output is checked (see check_op); the last line of stdout is
{"correct", "attempted", "failed", "metrics"}.  The full record of the run
goes to .perfbench/results/.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, here and in every child, before numpy is imported.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 11
PROBE_REPEATS = 5
RUN_LIMIT_S = 170  # every child is killed once the run has lasted this long
MAX_TOL = 1e-6  # a float document's own tol must be at least this strict
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_gmean_s": "s", "peak_rss_mb": "MB"}


class RunOver(Exception):
    """The run hit RUN_LIMIT_S."""


class Runner:
    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.started = time.perf_counter()
        self.peak_rss_kb = 0
        self.calibration = []  # speed.unit() samples of the run
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREAD_ENV)
        self.env.pop("PYTHONOPTIMIZE", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, argv: list, tag: str) -> tuple:
        """Run one child to completion: (seconds, exit code, stdout, stderr)."""
        out_path = os.path.join(self.workdir, f"{tag}.out")
        err_path = os.path.join(self.workdir, f"{tag}.err")
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise RunOver(tag)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(left, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0 and time.perf_counter() - self.started >= RUN_LIMIT_S:
            raise RunOver(tag)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        return seconds, proc.returncode, stdout, stderr

    def quantoid(self, argv: list, tag: str) -> tuple:
        return self.child([sys.executable, "-m", "quantoid", *argv], tag)

    def timed(self, argv: list, tag: str) -> tuple:
        """`quantoid` between two calibration units: (seconds at the reference
        speed, raw seconds, exit code, stdout, stderr)."""
        if not self.calibration:
            self.calibration.append(speed.unit())
        seconds, code, out, err = self.quantoid(argv, tag)
        self.calibration.append(speed.unit())
        return seconds * speed.scale(*self.calibration[-2:]), seconds, code, out, err

    def inproc(self, spec: dict, tag: str) -> dict:
        spec_path = os.path.join(self.workdir, f"{tag}.spec.json")
        result_path = os.path.join(self.workdir, f"{tag}.result.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        _, code, _, err = self.child(
            [sys.executable, os.path.join(HERE, "inproc.py"), spec_path, result_path], tag)
        if code != 0:
            raise RuntimeError(f"in-process runner failed ({code}):\n{err}")
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)


# -- output checks -----------------------------------------------------------

def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_digest(paths: list) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def check_float_doc(out: str, labels: tuple, values: np.ndarray) -> str | None:
    doc = json.loads(out)
    tol = doc.get("tol")
    if doc.get("ground_set") != list(labels):
        return "wrong ground set"
    if not isinstance(tol, float) or not 0 < tol <= MAX_TOL:
        return f"tol {tol!r} is not a float in (0, {MAX_TOL}]"
    if list(doc["values"]) != list(ref.subset_keys(labels)):
        return "subset keys differ from the canonical order"
    got = np.array(list(doc["values"].values()), dtype=float)
    worst = float(np.abs(got - values).max())
    if not worst <= tol:
        return f"differs from the reference by {worst:.3g} > tol {tol}"
    return None


def check_op(workload: str, op, code: int, out: str, err: str, digests: dict | None) -> list:
    """Reasons the op's result is wrong: an unexpected exit code, any
    traceback, a mismatch with a reference text or a recorded digest (unless
    `digests` is None), or a float document off its reference by more than
    its own tol."""
    problems = []
    if "Traceback" in err:
        problems.append("traceback on stderr")
    if code != op.code:
        problems.append(f"exit code {code}, expected {op.code}: {err.strip()[-300:]}")
    for reason, text in op.expected:
        if out != text:
            problems.append(f"output differs: {reason}")
    if op.float_ref is not None:
        try:
            problem = check_float_doc(out, *op.float_ref)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problem = f"unreadable float document: {exc!r}"
        if problem:
            problems.append(problem)
    if op.fixed and digests is not None:
        key = f"{workload}/{op.id}"
        recorded = digests.get(key)
        now = {"input": input_digest(op.inputs), "code": code, "stdout": sha256_text(out)}
        if recorded != now:
            problems.append(f"digest differs from the recorded {key}")
    return [f"{op.id}: {p}" for p in problems]


def check_small(outputs: dict, wl, digests: dict) -> list:
    problems = []
    for name, got in outputs["families"].items():
        key = f"exact-small/{name}"
        if digests.get(key) != got:
            problems.append(f"{key}: digest or count differs from the recorded one")
    for i, (got, want) in enumerate(zip(outputs["randoms"], wl.small["expected"])):
        if got != want:
            problems.append(f"exact-small/random-{i}: output differs from the reference")
    if len(outputs["randoms"]) != len(wl.small["expected"]):
        problems.append("exact-small: wrong number of random ops")
    return problems


# -- runs --------------------------------------------------------------------

def warm_up(runner: Runner, wl) -> None:
    code = runner.quantoid(["--help"], "warmup")[1]
    if code != 0:
        raise RuntimeError(f"`python -m quantoid --help` exited {code}")
    for op in wl.ops:
        for path in op.inputs:
            with open(path, "rb") as handle:
                handle.read()


def setup_samples(runner: Runner, count: int) -> list:
    return [runner.timed(["--help"], "setup")[:2] for _ in range(count)]


def run_untraced(runner: Runner, wl, seconds: float, digests: dict) -> dict:
    # set-up is sampled before and after the passes, so its median spans the run
    setup = setup_samples(runner, SETUP_REPEATS // 2)
    # per_unit: wall samples of each unit of a pass (a CLI op; an exact-small family)
    problems, passes, per_unit, per_op, raw, attempted = [], 0, {}, {}, {}, 0
    if wl.small is not None:
        spec = {"mode": "small", "families": wl.small["families"], "randoms": wl.small["randoms"],
                "seconds": seconds, "trace": False}
        result = runner.inproc(spec, "small")
        runner.calibration += result["calibration"]
        problems += check_small(result["outputs"], wl, digests)
        per_pass = len(result["passes"][0]["latencies"])
        raw["pass_walls_s"] = [p["wall"] for p in result["passes"] if p["wall"] is not None]
        for p in result["passes"]:
            passes += p["wall"] is not None
            for i, wall in enumerate(p["unit_walls"]):
                per_unit.setdefault(i, []).append(wall)
            for i, latency in enumerate(p["latencies"]):
                per_op.setdefault(i, []).append(latency)
            attempted += len(p["latencies"])
        failed = min(attempted, per_pass * bool(problems) + result["mismatches"])
    else:
        first, failed, start = {}, 0, time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            for op in wl.ops:
                if passes and time.perf_counter() - start >= seconds:
                    break  # the time is up; a cut pass still adds its op samples
                elapsed, raw_s, code, out, err = runner.timed(op.argv, op.id)
                per_op.setdefault(op.id, []).append(elapsed)
                raw.setdefault(op.id, []).append(raw_s)
                attempted += 1
                if op.id not in first:
                    first[op.id] = (code, out)
                    found = check_op(wl.name, op, code, out, err, digests)
                else:
                    found = ([] if first[op.id] == (code, out)
                             else [f"{op.id}: output changed between passes"])
                problems += found
                failed += bool(found)
            else:
                passes += 1
        per_unit = per_op
    setup += setup_samples(runner, SETUP_REPEATS - len(setup))
    op_medians = {k: statistics.median(v) for k, v in per_op.items()}
    latencies = [x for v in per_op.values() for x in v]
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        # a pass is its units; each unit's median over the run, so a cut pass counts too
        "wall_s": sum(statistics.median(v) for v in per_unit.values()),
        # each op's median over the passes, then the geometric mean over ops: every
        # op weighs the same, and no single op's few samples decide it as in a median
        "op_gmean_s": statistics.geometric_mean(op_medians.values()),
        "peak_rss_mb": runner.peak_rss_kb / 1024,
    }
    extra = {
        "passes": passes,
        "ops": len(latencies),
        "op_p50_s": statistics.median(op_medians.values()),
        "op_p90_s": statistics.quantiles(latencies, n=10)[-1] if len(latencies) >= 100 else None,
        "fail_ratio": failed / attempted,
        "calibration_s": runner.calibration,
        "setup_samples_s": [s for s, _ in setup],
        "raw_setup_samples_s": [r for _, r in setup],
        "unit_samples_s": list(per_unit.values()) if wl.small is not None else None,
        "raw_samples_s": raw,
    }
    if wl.small is None:
        extra["op_samples_s"] = per_op
    return {"metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            "attempted": attempted, "failed": failed, "problems": problems, "extra": extra}


def import_times(runner: Runner, probe: list) -> dict:
    """Median cumulative import time of quantoid and numpy, from -X importtime."""
    samples = {"quantoid": [], "numpy": []}
    for _ in range(PROBE_REPEATS):
        code, err = runner.child([sys.executable, "-X", "importtime", *probe], "probe")[1::2]
        if code != 0:
            raise RuntimeError(f"import probe exited {code}:\n{err[-2000:]}")
        quantoid_s, numpy_s = 0.0, 0.0
        for line in err.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 \
                    or not parts[1].strip().isdigit():
                continue
            depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
            name, seconds = parts[2].strip(), int(parts[1]) / 1e6
            # `-m quantoid` imports the package, then quantoid.cli from __main__
            if depth == 0 and (name == "quantoid" or name.startswith("quantoid.")):
                quantoid_s += seconds
            if name == "numpy":
                numpy_s = seconds
        samples["quantoid"].append(quantoid_s)
        samples["numpy"].append(numpy_s)
    return {f"import.{name}_s": statistics.median(v) for name, v in samples.items()}


def run_traced(runner: Runner, wl, seed: int, digests: dict, results_dir: str) -> dict:
    extra = import_times(runner, wl.probe)
    trace_file = os.path.join(results_dir, f"{wl.name}-seed{seed}.spans.jsonl")
    if wl.small is not None:
        spec = {"mode": "small", "families": wl.small["families"],
                "randoms": wl.small["randoms"], "trace": True, "trace_file": trace_file}
    else:
        spec = {"mode": "cli", "ops": [{"id": op.id, "argv": op.argv} for op in wl.ops],
                "trace": True, "trace_file": trace_file}
    result = runner.inproc(spec, "traced")
    if wl.small is not None:
        problems = check_small(result["outputs"], wl, digests)
        attempted = len(result["passes"][0]["latencies"])
        failed = min(attempted, attempted * bool(problems) + result["mismatches"])
    else:
        problems = []
        for op in wl.ops:
            got = result["outputs"]["cli"][op.id]
            problems += check_op(wl.name, op, got["code"], got["out"], got["err"], digests)
        attempted = len(wl.ops)
        failed = min(attempted, len({p.split(":")[0] for p in problems}) + result["mismatches"])
    if result["mismatches"]:
        problems.append(f"{result['mismatches']} ops changed output under tracing")
    extra["trace.overhead_s"] = result["overhead_s"]
    metrics = tracer.layer_metrics(result["layer_totals"], extra)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "extra": {"layer_totals": result["layer_totals"], "unwrapped": result["unwrapped"],
                      "trace_file": os.path.relpath(trace_file, runner.root),
                      "layer_moves": {m[0]: m[4] for m in tracer.LAYER_METRICS}}}


def environment(root: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    src.update(name.encode() + handle.read())
    return {
        "speed_reference_s": speed.REFERENCE_S,
        "python": sys.version,
        "executable_flags": "plain python (no -O), as users run it",
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quantoid", "__main__.py")):
        print("perfbench: no src/quantoid here; run from the root of a quantoid checkout",
              file=sys.stderr)
        return 2
    state = os.path.join(root, ".perfbench")
    workdir = os.path.join(state, "work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    results_dir = os.path.join(state, "results")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(results_dir, exist_ok=True)

    # one CPU for the run and its children, so the calibration units and the
    # ops they scale run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = workloads.build(args.workload, args.seed, workdir)
    runner = Runner(root, workdir)
    digests = load_digests()
    try:
        warm_up(runner, wl)
        if args.trace:
            run = run_traced(runner, wl, args.seed, digests, results_dir)
        else:
            run = run_untraced(runner, wl, args.seconds, digests)
    except RunOver as exc:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s at {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run["problems"]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    bad = [k for k, v in run["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 3
    summary = {"correct": not run["problems"], "attempted": run["attempted"],
               "failed": run["failed"], "metrics": run["metrics"]}
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problems=run["problems"], extra=run["extra"],
                  env=environment(root))
    out = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
