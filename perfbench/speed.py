"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on small shared virtual machines whose speed drifts by
20-30 % over minutes with load outside the machine (the process's CPU time
drifts with its wall time, so it is not time stolen by the hypervisor).
Medians within one run cannot remove a drift that spans the whole run, so
the benchmark times `unit()`, a fixed piece of work that does not touch
quantoid, before the first and after every timed sample (a child process,
or a unit of the in-process runner), and scales each sample by `scale()`
of the two units around it: REFERENCE_S over their mean.  A time is then
"seconds at the speed where one unit takes REFERENCE_S"; the raw times and
the unit samples are kept in the run's result record.  Scaling each sample
by its neighbours, not the whole run by the run's median unit, also
follows the drift within a run.

The unit mixes the kinds of work quantoid does on exact tables: Fraction
arithmetic on growing denominators, dict and list building, a JSON round
trip, and integer bit operations, in this process; plus one start-up of
an isolated interpreter (`python -I`) that imports a few standard modules,
since every CLI op starts a process too.  Both halves are needed: on their
own each follows the drift less well than their sum.  Because the unit is
the benchmark's own code and the standard library, a change to quantoid
cannot move it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.1  # about the unit's median time on the 2-vCPU VM the bounds were set on
STARTUP = [sys.executable, "-I", "-c", "import argparse, decimal, fractions, json"]


def unit() -> float:
    """Seconds one fixed unit of work takes now."""
    start = time.perf_counter()
    total, acc = Fraction(0), 0
    for _ in range(4):
        for i in range(1, 200):
            total += Fraction(i % 7 + 1, i)
        table = {str(mask): [mask.bit_count(), mask & 0x55] for mask in range(4096)}
        json.loads(json.dumps(table))
        for i in range(40000):
            acc += (i * i) % 7 ^ (i >> 3)
    subprocess.run(STARTUP, check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from a raw time measured between two unit samples to the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
