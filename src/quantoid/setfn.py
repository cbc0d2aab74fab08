"""Exact set functions on small ground sets.

A set function assigns one exact rational to every subset of a finite
labeled ground set.  Subsets are bitmasks: element i of the ground set
corresponds to bit i, so the whole function is a dense table of length
2^n.  Everything here is immutable and pure.

Whole-table work runs on one exact integer kernel.  Every axiom is a
homogeneous linear test on the table, and the duality and correspondence
maps are linear, so the table is multiplied by den, the lcm of its
denominators, and computed on as integers with numpy vector operations,
one per element or pair of elements; results turn back into Fractions
once, at the end.  The integers are int64 only when the largest
expression any check or map forms on them fits: the bound is
max|x| * (4n + 4) < 2**63 (a dual value is three table values plus n
gains of four).  Otherwise the same code runs on Python ints in an
object array, so the result is exact either way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateLabel,
    GroundSetTooLarge,
    InvalidLabel,
    MalformedRational,
    MissingSubset,
    NonpositiveScale,
    UnknownElement,
    UnknownSubsetKey,
)

MAX_GROUND_SIZE = 16

POLYMATROID = "polymatroid"
POLYQUANTOID = "polyquantoid"


def as_rational(value) -> Fraction:
    """Read an exact rational from an int, a Fraction, or a "p" / "p/q" string.

    Floats are rejected: they are not exact and must be snapped explicitly
    (see quantoid.entropic.snap_to_rational).  Booleans are rejected too,
    although Python counts them as ints.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedRational(value) from exc
    raise MalformedRational(repr(value))


@dataclass(frozen=True)
class GroundSet:
    """Ordered, distinct element labels; label i corresponds to subset-mask bit i."""

    labels: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for x in self.labels:
            if isinstance(x, bool):
                raise InvalidLabel(repr(x))
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) > MAX_GROUND_SIZE:
            raise GroundSetTooLarge(f"{len(labels)} elements (maximum {MAX_GROUND_SIZE})")
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not label or "," in label:
                raise InvalidLabel(repr(label))
            if label in index:
                raise DuplicateLabel(label)
            index[label] = i
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def subsets(self) -> range:
        """All subset masks in increasing numeric order."""
        return range(1 << len(self.labels))

    def index_of(self, label) -> int:
        try:
            return self._index[str(label)]
        except KeyError:
            raise UnknownElement(str(label)) from None

    def mask_of(self, members: Iterable) -> int:
        mask = 0
        for label in members:
            mask |= 1 << self.index_of(label)
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in range(len(self.labels)) if mask >> i & 1)

    def key_of(self, mask: int) -> str:
        """Canonical subset key: member labels in ground-set order, comma-joined.

        The empty set is the empty string.
        """
        return ",".join(self.members(mask))

    def mask_of_key(self, key: str) -> int:
        """Inverse of key_of.  Accepts members in any order but rejects repeats."""
        if key == "":
            return 0
        mask = 0
        for part in key.split(","):
            bit = 1 << self.index_of(part)
            if mask & bit:
                raise DuplicateLabel(part)
            mask |= bit
        return mask


@dataclass(frozen=True)
class SetFunction:
    """One exact rational per subset of the ground set, indexed by bitmask."""

    ground: GroundSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        expected = 1 << self.ground.n
        if len(self.values) != expected:
            raise MissingSubset(f"expected {expected} values, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(
            v if type(v) is Fraction else Fraction(v) for v in self.values))

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.ground.labels

    @property
    def full_mask(self) -> int:
        return self.ground.full_mask

    def __getitem__(self, mask: int) -> Fraction:
        return self.values[mask]

    def value(self, members: Iterable) -> Fraction:
        """Value on the subset given by its member labels."""
        return self.values[self.ground.mask_of(members)]

    def table(self) -> dict:
        """Mapping from canonical subset key to value, in mask order."""
        return {self.ground.key_of(m): self.values[m] for m in self.ground.subsets()}


def build(labels: Sequence, values: Mapping) -> SetFunction:
    """Build a SetFunction from labels and a complete subset-key -> rational table.

    Every one of the 2^n canonical keys must be present; floats are rejected.
    """
    ground = GroundSet(tuple(labels))
    canonical = [ground.key_of(m) for m in ground.subsets()]
    table = []
    for key in canonical:
        if key not in values:
            raise MissingSubset(key)
        raw = values[key]
        if isinstance(raw, float):
            raise MalformedRational(f"{key!r}: {raw!r} (floats are not exact; pass a string or Fraction)")
        try:
            table.append(as_rational(raw))
        except MalformedRational:
            raise MalformedRational(f"{key!r}: {raw!r}") from None
    if len(values) != len(canonical):
        extras = sorted(set(values) - set(canonical))
        raise UnknownSubsetKey(repr(extras[0]))
    return SetFunction(ground, tuple(table))


def from_table(labels: Sequence, values: Iterable) -> SetFunction:
    """Build a SetFunction from a value table already in subset-mask order."""
    ground = GroundSet(tuple(labels))
    return SetFunction(ground, tuple(as_rational(v) for v in values))


def submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, in ascending order, from 0 up to mask itself."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


# -- the exact integer kernel ------------------------------------------------

def _scaled(values: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """The table times den = lcm of its denominators, as integers, and den.

    int64 when max|x| * (4n + 4) < 2**63, else Python ints (dtype=object).
    """
    den = math.lcm(*{x.denominator for x in values})
    nums = [x.numerator * (den // x.denominator) for x in values]
    n = len(nums).bit_length() - 1
    dtype = np.int64 if max(map(abs, nums)) * (4 * n + 4) < 2**63 else object
    return np.array(nums, dtype=dtype), den


def _from_scaled(ground: GroundSet, table: np.ndarray, unit: Fraction) -> SetFunction:
    """The set function with value x * unit on each mask, x read from table.

    Tables repeat values, so each distinct x becomes a Fraction once.
    """
    ints = table.tolist()
    value = {x: unit * x for x in set(ints)}
    return SetFunction(ground, tuple(map(value.__getitem__, ints)))


def _modular(weights: Sequence, dtype) -> np.ndarray:
    """For every subset mask, the sum of its members' weights, by doubling."""
    sums = np.zeros(1, dtype=dtype)
    for w in weights:
        sums = np.concatenate((sums, sums + w))
    return sums


def _singleton_sums(a: np.ndarray, n: int) -> np.ndarray:
    return _modular([a[1 << i] for i in range(n)], a.dtype)


def _nondecreasing(a: np.ndarray, n: int) -> bool:
    # axis 1 is bit i: f(S) <= f(S+i) for every S without i
    for i in range(n):
        r = a.reshape(-1, 2, 1 << i)
        if not (r[:, 0] <= r[:, 1]).all():
            return False
    return True


def _submodular(a: np.ndarray, n: int) -> bool:
    # Two-point criterion: for every S and distinct b, c outside S,
    # f(S+b) + f(S+c) >= f(S+b+c) + f(S), that is, the gain of b does not
    # grow when c joins.  Equivalent to the all-pairs definition for
    # functions on the full subset lattice.  One pair at a time keeps
    # memory at one table.
    for b in range(1, n):
        r = a.reshape(-1, 2, 1 << b)
        gain = (r[:, 1] - r[:, 0]).ravel()  # over the other elements; c < b keeps bit c
        for c in range(b):
            g = gain.reshape(-1, 2, 1 << c)
            if not (g[:, 0] >= g[:, 1]).all():
                return False
    return True


def _tight(v: Sequence, n: int) -> bool:
    full = (1 << n) - 1
    return all(v[full ^ (1 << i)] == v[full] for i in range(n))


def _dual(a: np.ndarray, n: int) -> np.ndarray:
    # f'(I) = f(N-I) + f({}) - f(N) + sum over i in I of
    # [f(i) - f({}) + f(N) - f(N-i)]; N-I is the reversed table
    full = len(a) - 1
    gains = [a[1 << i] - a[0] + a[full] - a[full ^ (1 << i)] for i in range(n)]
    return a[::-1] + (a[0] - a[full]) + _modular(gains, a.dtype)


def _selfdual(a: np.ndarray, n: int) -> bool:
    return bool((_dual(a, n) == a).all())


@dataclass(frozen=True)
class Classification:
    """Boolean axiom report for a set function."""

    normalized: bool
    nondecreasing: bool
    submodular: bool
    complementary: bool
    tight: bool
    integer: bool
    selfdual: bool
    polymatroid: bool
    polyquantoid: bool
    matroid: bool
    quantoid: bool

    def as_dict(self) -> dict:
        return {
            "normalized": self.normalized,
            "nondecreasing": self.nondecreasing,
            "submodular": self.submodular,
            "complementary": self.complementary,
            "tight": self.tight,
            "integer": self.integer,
            "selfdual": self.selfdual,
            "polymatroid": self.polymatroid,
            "polyquantoid": self.polyquantoid,
            "matroid": self.matroid,
            "quantoid": self.quantoid,
        }


def classify(f: SetFunction) -> Classification:
    """Compute every axiom flag, exactly, on the integer-scaled table.

    The table is scaled by the lcm of its denominators (see the module
    docstring for the int64 overflow guard); every linear axiom is checked
    there with one vector comparison per element or pair of elements.
    Submodularity uses the local two-point criterion.  Only `integer` (the
    lcm is 1) and the singletons-in-{0, 1} part of matroid and quantoid
    need the unscaled values.
    """
    v = f.values
    n = f.n
    a, den = _scaled(v)

    normalized = v[0] == 0
    nondecreasing = _nondecreasing(a, n)
    submodular = _submodular(a, n)
    complementary = bool((a == a[::-1]).all())  # N-m is full - m
    tight = _tight(a, n)
    integer = den == 1
    selfdual = _selfdual(a, n)
    singles_01 = all(v[1 << i] in (0, 1) for i in range(n))

    polymatroid = normalized and nondecreasing and submodular
    polyquantoid = normalized and complementary and submodular
    return Classification(
        normalized=normalized,
        nondecreasing=nondecreasing,
        submodular=submodular,
        complementary=complementary,
        tight=tight,
        integer=integer,
        selfdual=selfdual,
        polymatroid=polymatroid,
        polyquantoid=polyquantoid,
        matroid=polymatroid and integer and singles_01,
        quantoid=polyquantoid and integer and singles_01,
    )


def scale(f: SetFunction, t) -> SetFunction:
    """Multiply every value by the positive rational t, exactly."""
    t = as_rational(t)
    if t <= 0:
        raise NonpositiveScale(str(t))
    a, den = _scaled(f.values)
    return _from_scaled(f.ground, a, t / den)


def enumerate_rank_functions(kind: str, n: int, cap: int,
                             labels: Sequence | None = None) -> Iterator[SetFunction]:
    """Yield every integer-valued function on n elements with values in [0, cap]
    that satisfies the axioms of `kind` ("polymatroid" or "polyquantoid").

    Deterministic: functions come out in lexicographic order of the value
    table.  Backtracking assigns values mask by mask, pruning with the local
    monotonicity/submodularity bounds (and forced complement values for
    polyquantoids), so only valid tables are ever completed.
    """
    if kind not in (POLYMATROID, POLYQUANTOID):
        raise ValueError(f"unknown kind {kind!r}")
    if n < 0 or cap < 0:
        raise ValueError("n and cap must be nonnegative")
    if labels is None:
        labels = tuple(str(i + 1) for i in range(n))
    ground = GroundSet(tuple(labels))
    if ground.n != n:
        raise ValueError("labels length does not match n")

    size = 1 << n
    full = size - 1
    table = [0] * size

    def candidates(m: int) -> range:
        if m == 0:
            return range(0, 1)  # normalized
        bits = [i for i in range(n) if m >> i & 1]
        hi = cap
        for a, b in itertools.combinations(bits, 2):
            hi = min(hi, table[m ^ (1 << a)] + table[m ^ (1 << b)]
                     - table[m ^ (1 << a) ^ (1 << b)])
        lo = 0
        if kind == POLYMATROID:
            for i in bits:
                lo = max(lo, table[m ^ (1 << i)])
        else:
            comp = full ^ m
            if comp < m:
                forced = table[comp]
                return range(forced, forced + 1) if lo <= forced <= hi else range(0)
        return range(lo, hi + 1)

    def walk(m: int) -> Iterator[SetFunction]:
        if m == size:
            yield SetFunction(ground, tuple(Fraction(x) for x in table))
            return
        for val in candidates(m):
            table[m] = val
            yield from walk(m + 1)

    yield from walk(0)
