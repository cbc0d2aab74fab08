"""In-process runner, started by run.py as one child process.

    python perfbench/inproc.py SPEC.json RESULT.json

Two kinds of op list, chosen by the spec's "mode":

* "small": the exact-small workload.  Each op is one function's pipeline
  (classify, dual, hat or vee, a document round trip, and analyze_sharing
  for every dealer), over every function enumerated for the listed
  families plus the seeded random inputs.  Enumeration runs inside the
  pass but outside the op timings.
* "cli": the ops of a CLI workload, each a call of quantoid.cli.main(argv)
  with stdout and stderr captured.

A pass is a list of units (a CLI op; an enumerated family; the random
inputs).  Untraced, units run round after round until the spec's
"seconds" are up, but at least one whole pass; a pass cut short adds the
op latencies and unit walls it finished, and no pass wall time.  A
calibration unit (speed.py) is timed before the first unit and after every
unit, and each unit's wall and op latencies are scaled by the two around
it; the pass wall stays raw.  Traced, every unit
runs twice, once plain and once with the tracer installed, alternating
which goes first; the difference of the two totals is the tracing
overhead, and the two runs' outputs must agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback

import speed
from tracer import Tracer


def cli_op(argv: list) -> dict:
    from quantoid import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def small_op(f, kind: str) -> str:
    """One exact-small op; its output is compared with reference texts."""
    from quantoid import correspondence, documents, duality, setfn, sharing

    partner = (correspondence.to_polymatroid(f) if kind == setfn.POLYQUANTOID
               else correspondence.to_polyquantoid(f))
    text = documents.dumps(documents.set_function_to_doc(f))
    again = documents.set_function_from_doc(json.loads(text))
    shares = [documents.sharing_report_to_doc(sharing.analyze_sharing(f, d, kind))
              for d in f.labels]
    return documents.dumps([setfn.classify(f).as_dict(),
                            documents.set_function_to_doc(duality.dual(f)),
                            documents.set_function_to_doc(partner),
                            again == f, shares])


class Recorder:
    """Latencies, per-op output digests and outputs of one pass."""

    def __init__(self, tracer=None, record=False):
        self.tracer = tracer
        self.record = record
        self.wall = 0.0
        self.unit_walls = []
        self.cut = False
        self.latencies = []
        self.digests = []
        self.outputs = {"families": {}, "randoms": [], "cli": {}}
        self.recorded = {"docs": [], "texts": []}

    def op(self, fn, *args):
        if self.tracer:
            self.tracer.op = len(self.latencies)
        start = time.perf_counter()
        result = fn(*args)
        self.latencies.append(time.perf_counter() - start)
        if self.tracer:
            self.tracer.op = None
        text = result if isinstance(result, str) else json.dumps(result, sort_keys=True)
        self.digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        return result


def family_unit(kind: str, n: int, cap: int):
    def unit(rec: Recorder):
        from quantoid import setfn

        family = hashlib.sha256()
        count = 0
        for f in setfn.enumerate_rank_functions(kind, n, cap):
            text = rec.op(small_op, f, kind)
            family.update(text.encode("utf-8"))
            count += 1
            if rec.record:
                rec.recorded["docs"].append((kind, [str(v) for v in f.values]))
                rec.recorded["texts"].append(text)
        rec.outputs["families"][f"{kind}-{n}-{cap}"] = {"count": count,
                                                        "sha256": family.hexdigest()}
    return unit


def randoms_unit(randoms: list):
    def unit(rec: Recorder):
        rec.outputs["randoms"] = [rec.op(small_op, f, "polymatroid") for f in randoms]
    return unit


def cli_unit(op: dict):
    def unit(rec: Recorder):
        rec.outputs["cli"][op["id"]] = rec.op(cli_op, op["argv"])
    return unit


def run_unit(unit, rec: Recorder, calibration: list | None = None):
    first = len(rec.latencies)
    start = time.perf_counter()
    if rec.tracer:
        rec.tracer.install()
    try:
        unit(rec)
    finally:
        if rec.tracer:
            rec.tracer.uninstall()
    wall = time.perf_counter() - start
    rec.wall += wall
    if calibration is not None:  # scale the unit to the reference speed
        calibration.append(speed.unit())
        k = speed.scale(*calibration[-2:])
        rec.latencies[first:] = [x * k for x in rec.latencies[first:]]
        wall *= k
    rec.unit_walls.append(wall)


def units_of(spec: dict) -> list:
    if spec["mode"] == "cli":
        return [cli_unit(op) for op in spec["ops"]]
    from quantoid import documents

    with open(spec["randoms"], encoding="utf-8") as handle:
        randoms = [documents.set_function_from_doc(d) for d in json.load(handle)]
    return [family_unit(*family) for family in spec["families"]] + [randoms_unit(randoms)]


def summary(rec: Recorder) -> dict:
    return {"wall": None if rec.cut else rec.wall, "unit_walls": rec.unit_walls,
            "latencies": rec.latencies}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    units = units_of(spec)

    if spec["trace"]:
        tracer = Tracer()
        plain, traced = Recorder(), Recorder(tracer)
        for i, unit in enumerate(units):
            for rec in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                run_unit(unit, rec)
        tracer.write(spec["trace_file"])
        first = traced
        result = {"passes": [summary(traced)],
                  "mismatches": sum(a != b for a, b in zip(plain.digests, traced.digests)),
                  "layer_totals": tracer.layer_totals(),
                  "overhead_s": traced.wall - plain.wall,
                  "unwrapped": tracer.missing}
    else:
        passes, calibration, started = [], [speed.unit()], time.perf_counter()
        while not passes or time.perf_counter() - started < spec["seconds"]:
            rec = Recorder(record=spec.get("record", False) and not passes)
            for unit in units:
                if passes and time.perf_counter() - started >= spec["seconds"]:
                    rec.cut = True  # time is up: finished units count, the pass wall does not
                    break
                run_unit(unit, rec, calibration)
            passes.append(rec)
        first = passes[0]
        result = {"passes": [summary(p) for p in passes], "calibration": calibration,
                  "mismatches": sum(a != b for p in passes[1:]
                                    for a, b in zip(first.digests, p.digests))}
        if first.record:
            result["record"] = first.recorded
    result["outputs"] = first.outputs
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
