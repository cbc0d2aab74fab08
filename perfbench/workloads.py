"""Seeded fixture generator: the inputs and argv of every workload.

`build(name, seed, workdir)` writes the input documents of one workload
into `workdir` and returns its ops.  The same seed always gives the same
files.  Each op carries the exit code and outputs it must produce; those
come from `reference`, never from the program under test, plus closed-form
known answers (U_{k,2k} is selfdual, hat(vee(h)) = h, modular sources
expand to |K|, Bell-pair and code entropies are integers).

Sizes are chosen so that a pass of every workload takes 6-10 s at the
reference speed (speed.py): a run of BENCHMARK.json's run_seconds holds
two to four passes, and many runs of every workload fit in an hour.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import reference as ref
from reference import Table

EXACT_SMALL_FAMILIES = (("polymatroid", 4, 3), ("polyquantoid", 4, 3), ("polyquantoid", 5, 2))
EXACT_SMALL_RANDOM = ((6, 12), (8, 4))  # (n, how many) seeded random rational polymatroids
EXPAND_SHAPES = {"6-6-2": (6, 6, 2), "7x2": (2,) * 7}


@dataclass
class Op:
    """One CLI invocation: `python -m quantoid *argv`."""

    id: str
    argv: list
    code: int
    expected: list = field(default_factory=list)  # (reason, exact stdout text)
    float_ref: tuple | None = None  # (labels, reference values) for float documents
    inputs: list = field(default_factory=list)
    fixed: bool = False  # inputs do not depend on the seed: a digest is recorded


@dataclass
class Workload:
    name: str
    ops: list
    probe: list  # argv after `python` for the -X importtime probe
    small: dict | None = None  # exact-small: families and random inputs for the in-process runner


def labels_for(n: int) -> tuple:
    return tuple(str(i + 1) for i in range(n))


def popcounts(n: int) -> np.ndarray:
    return ref.membership(n).sum(axis=1)


def uniform(k: int, n: int) -> Table:
    return Table.from_ints(labels_for(n), np.minimum(popcounts(n), k))


def random_rational_polymatroid(rng: random.Random, n: int) -> Table:
    """The recipe of tests/helpers.py, drawing the same random numbers: a
    nonnegative modular part plus one to three scaled uniform-minor ranks
    w * min(|I & A|, r).  Computed on integers over a common denominator."""
    weights = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
    minors = []
    for _ in range(rng.randint(1, 3)):
        area = rng.randrange(1, 1 << n)
        r = rng.randint(1, area.bit_count())
        minors.append((area, r, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    den = math.lcm(*(w.denominator for w in weights), *(w.denominator for _, _, w in minors))
    masks = np.arange(1 << n, dtype=np.int64)
    num = ref.membership(n) @ np.array([int(w * den) for w in weights], dtype=np.int64)
    for area, r, w in minors:
        num += int(w * den) * np.minimum(popcounts(n)[masks & area], r)
    return Table.from_ints(labels_for(n), num, den)


def truncated(sizes, k: int, quantum: bool) -> Table:
    """min(s(J), k) -- or min(s(J), s(N\\J), k) for a polyquantoid -- with
    s the modular function of the given singleton sizes: integer, and a
    polymatroid (polyquantoid), since it is a concave function of s."""
    n = len(sizes)
    s = ref.membership(n) @ np.asarray(sizes, dtype=np.int64)
    values = np.minimum(s, k)
    if quantum:
        values = np.minimum(values, sum(sizes) - s)
    return Table.from_ints(labels_for(n), values)


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name: str, doc) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path


def _exact_large(seed: int, w: _Writer) -> Workload:
    rng = random.Random(seed)
    r14 = random_rational_polymatroid(rng, 14)
    r12 = random_rational_polymatroid(rng, 12)
    u14, u12 = uniform(7, 14), uniform(6, 12)
    e14, e12 = ref.vee(u14), ref.vee(u12)
    files = {name: w.write(name, t.doc()) for name, t in
             [("r14", r14), ("r12", r12), ("u14", u14), ("u12", u12), ("e14", e14), ("e12", e12)]}
    u14_text = ref.dumps(u14.doc())

    def share(name, t, quantum, fixed):
        doc, code = ref.sharing_report(t, "1", quantum)
        kind = ["--kind", "polyquantoid"] if quantum else []
        return Op(f"share-{name}", ["share", files[name], "--dealer", "1", *kind], code,
                  [("reference sharing report", ref.dumps(doc))], inputs=[files[name]], fixed=fixed)

    ops = [
        Op("check-r14", ["check", files["r14"]], 0,
           [("reference classification", ref.dumps(ref.classification(r14)))], inputs=[files["r14"]]),
        Op("dual-u14", ["dual", files["u14"]], 0,
           [("reference dual", ref.dumps(ref.dual(u14).doc())),
            ("U_{7,14} is selfdual", u14_text)], inputs=[files["u14"]], fixed=True),
        Op("hat-e14", ["hat", files["e14"]], 0,
           [("reference hat", ref.dumps(ref.hat(e14).doc())),
            ("hat(vee(U_{7,14})) is U_{7,14}", u14_text)], inputs=[files["e14"]], fixed=True),
        Op("vee-r14", ["vee", files["r14"]], 0,
           [("reference vee", ref.dumps(ref.vee(r14).doc()))], inputs=[files["r14"]]),
        share("u12", u12, False, True),
        share("e12", e12, True, True),
        share("r12", r12, False, False),
    ]
    probe = ["-m", "quantoid", "check", w.write("probe", uniform(1, 2).doc())]
    return Workload("exact-large", ops, probe)


def _exact_small(seed: int, w: _Writer) -> Workload:
    rng = random.Random(seed)
    randoms = []
    for n, count in EXACT_SMALL_RANDOM:
        for _ in range(count):
            t = random_rational_polymatroid(rng, n)
            randoms.append({"doc": t.doc(), "expected": small_pipeline_text(t, "polymatroid")})
    path = w.write("randoms", [r["doc"] for r in randoms])
    small = {"families": [list(f) for f in EXACT_SMALL_FAMILIES], "randoms": path,
             "expected": [r["expected"] for r in randoms]}
    return Workload("exact-small", [], ["-c", "import quantoid"], small)


def small_pipeline_text(t: Table, kind: str) -> str:
    """Expected output of one exact-small op (see inproc.small_op)."""
    partner = ref.hat(t) if kind == "polyquantoid" else ref.vee(t)
    shares = [ref.sharing_report(t, d, kind == "polyquantoid")[0] for d in t.labels]
    return ref.dumps([ref.classification(t), ref.dual(t).doc(), partner.doc(), True, shares])


def _expand(seed: int, w: _Writer) -> Workload:
    rng = random.Random(seed)
    ops = []
    for shape, sizes in EXPAND_SHAPES.items():
        total = sum(sizes)
        for mode in ("matroid", "quantoid", "two-factor"):
            quantum = mode == "quantoid"
            modular = mode == "matroid" and shape == "6-6-2"
            k = total if modular else rng.randint(max(sizes), total // 2 if quantum else total)
            source = truncated(sizes, k, quantum)
            path = w.write(f"{mode}-{shape}", source.doc())
            expected = ref.expansion_doc(source, mode)
            checks = [("reference expansion", ref.dumps(expected))]
            if modular:
                known = dict(expected, expanded=Table.from_ints(
                    expected["expanded"]["ground_set"], popcounts(total)).doc())
                checks.append(("a modular source expands to |K|", ref.dumps(known)))
            ops.append(Op(f"{mode}-{shape}", ["expand", path, "--mode", mode], 0, checks,
                          inputs=[path]))
    q24x2 = truncated((2, 2, 2, 2), 8, quantum=True)  # 2 * min(|I|, 4 - |I|)
    path = w.write("q24x2", q24x2.doc())
    ops.append(Op("lemma52-q24x2", ["expand", path, "--verify-lemma52"], 0,
                  [("Lemma 5.2 holds", ref.dumps({"lemma52": True}))], inputs=[path], fixed=True))
    probe = ["-m", "quantoid", "expand", w.write("probe", uniform(1, 2).doc()), "--mode", "matroid"]
    return Workload("expand", ops, probe)


def _distribution_doc(probs: np.ndarray, n: int) -> dict:
    return {"parties": list(labels_for(n)), "alphabets": [2] * n, "probs": probs.tolist()}


def _state_doc(psi: np.ndarray, n: int) -> dict:
    return {"parties": list(labels_for(n)), "dims": [2] * n,
            "amplitudes": [[float(z.real), float(z.imag)] for z in psi]}


def _entropy(seed: int, w: _Writer) -> Workload:
    gen = np.random.default_rng(seed)
    ops = []
    for n in (11, 12, 13):
        probs = gen.random(1 << n)
        probs /= probs.sum()
        path = w.write(f"dist{n}", _distribution_doc(probs, n))
        ops.append(Op(f"shannon-{n}", ["entropy", "--classical", path], 0,
                      float_ref=(labels_for(n), ref.shannon_entropies(probs, n)), inputs=[path]))

    # uniform distribution on the codewords x G of a random rank-6 binary code
    # of length 12: H(A) is the GF(2) rank of the columns of G in A
    n, k = 12, 6
    while True:
        columns = [int(c) for c in gen.integers(0, 1 << k, size=n)]
        if ref.gf2_rank(columns) == k:
            break
    probs = np.zeros(1 << n)
    for message in range(1 << k):
        word = [(message & c).bit_count() & 1 for c in columns]  # party 1 is the slowest index
        probs[int("".join(map(str, word)), 2)] += 1 / (1 << k)
    ranks = [ref.gf2_rank([columns[i] for i in range(n) if m >> i & 1]) for m in range(1 << n)]
    path = w.write("code12", _distribution_doc(probs, n))
    ops.append(Op("code-12-snap", ["entropy", "--classical", path, "--snap", "1"], 0,
                  [("code entropies are GF(2) ranks",
                    ref.dumps(Table.from_ints(labels_for(n), ranks).doc()))], inputs=[path]))

    for n in (9, 10):
        psi = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        path = w.write(f"state{n}", _state_doc(psi, n))
        ops.append(Op(f"von-neumann-{n}", ["entropy", "--quantum", path], 0,
                      float_ref=(labels_for(n), ref.von_neumann_entropies(psi, n)), inputs=[path]))

    # five Bell pairs on a seeded pairing of ten qubits: S(A) counts the pairs A splits
    n = 10
    order = [int(x) for x in gen.permutation(n)]
    pairs = [(order[2 * j], order[2 * j + 1]) for j in range(n // 2)]
    psi = np.zeros(1 << n, dtype=complex)
    for choice in range(1 << len(pairs)):
        index = 0
        for j, (a, b) in enumerate(pairs):
            if choice >> j & 1:
                index |= (1 << (n - 1 - a)) | (1 << (n - 1 - b))  # party 1 is the slowest index
        psi[index] = 1
    psi /= math.sqrt(1 << len(pairs))
    cuts = [sum((m >> a & 1) != (m >> b & 1) for a, b in pairs) for m in range(1 << n)]
    path = w.write("bell10", _state_doc(psi, n))
    ops.append(Op("bell-10-snap", ["entropy", "--quantum", path, "--snap", "1"], 0,
                  [("Bell-pair entropies count split pairs",
                    ref.dumps(Table.from_ints(labels_for(n), cuts).doc()))], inputs=[path]))

    probe = ["-m", "quantoid", "entropy", "--classical",
             w.write("probe", _distribution_doc(np.array([0.5, 0, 0, 0.5]), 2))]
    return Workload("entropy", ops, probe)


WORKLOADS = {"exact-large": _exact_large, "exact-small": _exact_small,
            "expand": _expand, "entropy": _entropy}


def build(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, _Writer(workdir))
