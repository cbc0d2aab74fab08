"""Independent reference answers for every output the benchmark checks.

Nothing here imports quantoid.  Exact set functions are held as a common
denominator `den` and an int64 numerator table indexed by subset mask, so
every axiom test is a vectorised integer comparison.  The expected CLI
output is rebuilt from these answers in the documented canonical form
(two-space indented JSON, subset keys in mask order) and compared byte for
byte.  Float outputs are compared within the document's own `tol`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

_INT_LIMIT = 1 << 40  # sums of a few table entries stay far below 2**63


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@lru_cache(maxsize=8)
def subset_keys(labels: tuple) -> tuple:
    """Canonical subset keys in mask order: members in ground-set order, comma-joined."""
    keys = [""]
    for label in labels:
        keys += [f"{k},{label}" if k else label for k in keys]
    return tuple(keys)


@lru_cache(maxsize=8)
def membership(n: int) -> np.ndarray:
    """Row m holds the membership bits of mask m, shape (2^n, n)."""
    masks = np.arange(1 << n, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(np.int64)


@dataclass(frozen=True)
class Table:
    """Exact set function: value on mask m is num[m] / den."""

    labels: tuple
    num: np.ndarray
    den: int

    @classmethod
    def from_fractions(cls, labels, values) -> "Table":
        den = math.lcm(*(Fraction(v).denominator for v in values))
        nums = [int(Fraction(v) * den) for v in values]
        return cls.from_ints(labels, nums, den)

    @classmethod
    def from_ints(cls, labels, nums, den: int = 1) -> "Table":
        g = math.gcd(den, *(int(x) for x in np.unique(nums)))
        num = np.asarray(nums, dtype=np.int64) // g
        if len(num) != 1 << len(labels) or int(np.abs(num).max(initial=0)) >= _INT_LIMIT:
            raise ValueError("table has the wrong size or too large values")
        return cls(tuple(labels), num, den // g)

    @property
    def n(self) -> int:
        return len(self.labels)

    def strings(self) -> list:
        den = self.den
        if den == 1:
            return [str(x) for x in self.num.tolist()]
        return [str(Fraction(x, den)) for x in self.num.tolist()]

    def doc(self) -> dict:
        return {"ground_set": list(self.labels),
                "values": dict(zip(subset_keys(self.labels), self.strings()))}

    def singleton_sums(self) -> np.ndarray:
        singles = self.num[[1 << i for i in range(self.n)]]
        return membership(self.n) @ singles


def classification(t: Table) -> dict:
    """The eleven axiom flags, in the order the CLI prints them."""
    a, n = t.num, t.n
    full = (1 << n) - 1
    masks = np.arange(1 << n)
    normalized = bool(a[0] == 0)
    nondecreasing = True
    for i in range(n):
        with_i = masks[masks >> i & 1 == 1]
        nondecreasing &= bool((a[with_i ^ (1 << i)] <= a[with_i]).all())
    submodular = True
    for i in range(n):
        for j in range(i + 1, n):
            both = masks[(masks >> i & 1 == 1) & (masks >> j & 1 == 1)]
            bi, bj = 1 << i, 1 << j
            submodular &= bool((a[both ^ bi] + a[both ^ bj] >= a[both] + a[both ^ bi ^ bj]).all())
    complementary = bool((a == a[full ^ masks]).all())
    tight = all(a[full ^ (1 << i)] == a[full] for i in range(n))
    integer = t.den == 1  # tables are kept in lowest terms
    partner = dual(t)
    selfdual = partner.den == t.den and bool((partner.num == a).all())
    singles_01 = all(a[1 << i] in (0, t.den) for i in range(n))
    polymatroid = normalized and nondecreasing and submodular
    polyquantoid = normalized and complementary and submodular
    return {
        "normalized": normalized,
        "nondecreasing": nondecreasing,
        "submodular": submodular,
        "complementary": complementary,
        "tight": tight,
        "integer": integer,
        "selfdual": selfdual,
        "polymatroid": polymatroid,
        "polyquantoid": polyquantoid,
        "matroid": polymatroid and integer and singles_01,
        "quantoid": polyquantoid and integer and singles_01,
    }


def dual(t: Table) -> Table:
    """f'(I) = f(N\\I) + f({}) - f(N) + sum over i in I of [f(i) - f({}) + f(N) - f(N\\i)]."""
    a, n = t.num, t.n
    full = (1 << n) - 1
    gain = np.array([a[1 << i] - a[0] + a[full] - a[full ^ (1 << i)] for i in range(n)],
                    dtype=np.int64)
    out = a[full ^ np.arange(1 << n)] + a[0] - a[full] + membership(n) @ gain
    return Table.from_ints(t.labels, out, t.den)


def hat(t: Table) -> Table:
    return Table.from_ints(t.labels, t.num + t.singleton_sums(), t.den)


def vee(t: Table) -> Table:
    return Table.from_ints(t.labels, 2 * t.num - t.singleton_sums(), 2 * t.den)


def sharing_report(t: Table, dealer: str, quantum: bool) -> tuple:
    """(report document, exit code) for `quantoid share`, by the definitions
    in the sharing module's docstring, computed on the whole lattice at once."""
    a, n = t.num, t.n
    d = t.labels.index(dealer)
    dbit = 1 << d
    masks = np.arange(1 << n)
    coalition = masks & dbit == 0
    secret = a[dbit]
    target = -secret if quantum else 0
    inc = np.zeros(1 << n, dtype=np.int64)
    inc[coalition] = a[masks[coalition] | dbit] - a[masks[coalition]]
    authorized = coalition & (inc == target)
    perfect = bool(((inc == target) | (inc == secret))[coalition].all())

    # below[m]: some authorized set lies inside m (subset-sum "zeta" closure)
    below = authorized.copy()
    for i in range(n):
        with_i = masks >> i & 1 == 1
        below[with_i] |= below[masks[with_i] ^ (1 << i)]
    proper = np.zeros(1 << n, dtype=bool)
    for i in range(n):
        with_i = masks >> i & 1 == 1
        proper[with_i] |= below[masks[with_i] ^ (1 << i)]
    minimal = authorized & ~proper

    essential = []
    for i in range(n):
        if i == d:
            continue
        hit = masks[authorized & (masks >> i & 1 == 1)]
        if (inc[hit ^ (1 << i)] == secret).any():
            essential.append(i)
    ideal = perfect and len(essential) == n - 1 and all(a[1 << i] == secret for i in essential)

    keys = subset_keys(t.labels)
    doc = {
        "dealer": dealer,
        "perfect": perfect,
        "authorized": [keys[m] for m in masks[authorized].tolist()],
        "minimal_authorized": [keys[m] for m in masks[minimal].tolist()],
        "essential": [t.labels[i] for i in essential],
        "ideal": ideal,
        "extraction": None,
    }
    if ideal:
        h = hat(t) if quantum else t
        scale = int(h.num[dbit])
        if scale == 0:
            doc["extraction"] = {"t": "1", "rank": Table.from_ints(t.labels, h.num * 0).doc()}
        else:
            doc["extraction"] = {"t": str(Fraction(scale, h.den)),
                                 "rank": Table.from_ints(t.labels, h.num, scale).doc()}
    return doc, 0 if ideal else 1


# -- free expansions ---------------------------------------------------------

def _count_table(t: Table, sizes, quantum: bool, step: int = 1) -> np.ndarray:
    """Expanded value for every count vector c (c_i copies of element i):
    min over J of f(J) + |K \\ blocks(J)|, plus |blocks(J) \\ K| for quantoids.
    Counts run over 0, step, ..., s_i; result is flattened row-major."""
    n = t.n
    grids = np.indices([s // step + 1 for s in sizes]).reshape(n, -1) * step
    sizes = np.asarray(sizes, dtype=np.int64)[:, None]
    inside = membership(n)  # (2^n, n): which elements J takes whole
    cost = t.num[:, None] + (1 - inside) @ grids
    if quantum:
        cost = cost + inside @ (sizes - grids)
    return cost.min(axis=0)


def _count_index(widths, strides, total_bits: int) -> np.ndarray:
    """For every mask over consecutive blocks of the given widths, the row-major
    index of its per-block popcount vector."""
    masks = np.arange(1 << total_bits, dtype=np.int64)
    popcount = np.zeros(1 << total_bits, dtype=np.int64)
    for b in range(total_bits):
        popcount += masks >> b & 1
    index = np.zeros(1 << total_bits, dtype=np.int64)
    offset = 0
    for width, stride in zip(widths, strides):
        block = (masks >> offset) & ((1 << width) - 1)
        index += popcount[block] * stride
        offset += width
    return index


def _strides(radices) -> list:
    out, acc = [], 1
    for r in reversed(radices):
        out.append(acc)
        acc *= r
    return out[::-1]


def expansion_doc(t: Table, mode: str) -> dict:
    """Expected document of `quantoid expand --mode {matroid,quantoid,two-factor}`
    on an integer source, via per-block copy counts (copies in one block are
    interchangeable, so the value depends only on how many each K holds)."""
    sizes = [int(t.num[1 << i]) for i in range(t.n)]
    if mode == "two-factor":
        widths = [s // 2 for s in sizes]
        values = _count_table(t, sizes, quantum=False, step=2)
        kind = "two-factor"
    else:
        widths = sizes
        values = _count_table(t, sizes, quantum=mode == "quantoid")
        kind = f"{mode}-expansion"
    strides = _strides([w + 1 for w in widths])
    index = _count_index(widths, strides, sum(widths))
    blocks = {label: [f"{label}.{k}" for k in range(w)] for label, w in zip(t.labels, widths)}
    ground = tuple(x for b in blocks.values() for x in b)
    expanded = Table.from_ints(ground, values[index])
    return {"kind": kind, "blocks": blocks, "expanded": expanded.doc()}


# -- entropies ---------------------------------------------------------------

def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def shannon_entropies(probs: np.ndarray, n: int) -> np.ndarray:
    """H(A) for every party subset A of n binary parties.  Each marginal is
    summed out of a parent marginal one axis at a time (depth-first), so the
    whole lattice costs 3^n additions rather than 4^n."""
    out = np.zeros(1 << n)
    full = (1 << n) - 1

    def visit(arr, mask, axes, start):
        # `arr` is the marginal on `mask`; its axes hold parties `axes`, in order
        out[mask] = _entropy_bits(arr.reshape(-1))
        for pos in range(start, len(axes)):
            visit(arr.sum(axis=pos), mask ^ (1 << axes[pos]), axes[:pos] + axes[pos + 1:], pos)

    visit(probs.reshape([2] * n), full, list(range(n)), 0)
    return out


def von_neumann_entropies(psi: np.ndarray, n: int) -> np.ndarray:
    """S(A) for every subset A of n qubits of a pure state, from the singular
    values of the amplitude tensor reshaped to (A, complement)."""
    tensor = psi.reshape([2] * n)
    out = np.zeros(1 << n)
    for mask in range(1, (1 << n) - 1):
        keep = [i for i in range(n) if mask >> i & 1]
        drop = [i for i in range(n) if not mask >> i & 1]
        matrix = tensor.transpose(keep + drop).reshape(1 << len(keep), -1)
        sv = np.linalg.svd(matrix, compute_uv=False)
        out[mask] = _entropy_bits(sv * sv)
    return out


def gf2_rank(rows: list) -> int:
    """Rank over GF(2) of vectors given as int bit masks."""
    pivots = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)
