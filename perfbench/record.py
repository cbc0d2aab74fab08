"""Record the output digests that later runs compare byte for byte.

    python3 perfbench/record.py

Run from the root of a checkout of the commit whose outputs are the
baseline.  Every seed-independent CLI op is run once and must first pass
its reference checks; its input digest, exit code and stdout digest are
stored.  For exact-small, every enumerated function's output is checked
against the reference, then each family's count and digest are stored.
Writes perfbench/digests.json.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads
from reference import Table


def main() -> int:
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench", "record")
    shutil.rmtree(workdir, ignore_errors=True)
    digests, problems = {}, []
    try:
        for name in sorted(workloads.WORKLOADS):
            wl = workloads.build(name, 0, os.path.join(workdir, name))
            runner = run.Runner(root, os.path.join(workdir, name))
            for op in wl.ops:
                if not op.fixed:
                    continue
                _, code, out, err = runner.quantoid(op.argv, op.id)
                problems += run.check_op(name, op, code, out, err, None)
                digests[f"{name}/{op.id}"] = {"input": run.input_digest(op.inputs), "code": code,
                                              "stdout": run.sha256_text(out)}
            if wl.small is not None:
                spec = {"mode": "small", "families": wl.small["families"],
                        "randoms": wl.small["randoms"], "seconds": 0, "trace": False,
                        "record": True}
                result = runner.inproc(spec, "small")
                recorded = result["record"]
                for (kind, values), text in zip(recorded["docs"], recorded["texts"]):
                    n = len(values).bit_length() - 1
                    table = Table.from_fractions(workloads.labels_for(n), values)
                    if text != workloads.small_pipeline_text(table, kind):
                        problems.append(f"exact-small {kind} {values}: differs from the reference")
                for family, entry in result["outputs"]["families"].items():
                    digests[f"exact-small/{family}"] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = os.path.join(run.HERE, "digests.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {os.path.relpath(path, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
