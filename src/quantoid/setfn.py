"""Exact set functions on small ground sets.

A set function assigns one exact rational to every subset of a finite
labeled ground set.  Subsets are bitmasks: element i of the ground set
corresponds to bit i, so the whole function is a dense table of length
2^n.  Everything here is immutable and pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

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
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

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
    ground = GroundSet(tuple(str(x) for x in labels))
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
    ground = GroundSet(tuple(str(x) for x in labels))
    return SetFunction(ground, tuple(as_rational(v) for v in values))


def modular_sums(weights: Sequence[Fraction]) -> list[Fraction]:
    """For every subset mask of len(weights) elements, the sum of the weights
    of its members."""
    sums = [Fraction(0)] * (1 << len(weights))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + weights[low.bit_length() - 1]
    return sums


def singleton_sums(f: SetFunction) -> tuple[Fraction, ...]:
    """For every subset mask, the sum of f over the subset's singletons."""
    return tuple(modular_sums([f.values[1 << i] for i in range(f.n)]))


def submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, in ascending order, from 0 up to mask itself."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def _submodular_local(values: Sequence[Fraction], n: int) -> bool:
    # Two-point criterion: for every S and distinct a, b outside S,
    # f(S+a) + f(S+b) >= f(S+a+b) + f(S).  Equivalent to the all-pairs
    # definition for functions on the full subset lattice.
    for m in range(1 << n):
        bits = [i for i in range(n) if m >> i & 1]
        for a, b in itertools.combinations(bits, 2):
            if (values[m ^ (1 << a)] + values[m ^ (1 << b)]
                    < values[m] + values[m ^ (1 << a) ^ (1 << b)]):
                return False
    return True


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
    """Compute every axiom flag by checks over every subset.

    Submodularity is checked by the local two-point criterion.
    """
    from .duality import dual, is_tight  # deferred: duality builds on this module

    v = f.values
    n = f.n
    full = f.full_mask
    size = 1 << n

    normalized = v[0] == 0
    nondecreasing = all(
        v[m ^ (1 << i)] <= v[m]
        for m in range(size)
        for i in range(n)
        if m >> i & 1
    )
    submodular = _submodular_local(v, n)
    complementary = all(v[m] == v[full ^ m] for m in range(size))
    tight = is_tight(f)
    integer = all(x.denominator == 1 for x in v)
    selfdual = dual(f).values == v
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
    return SetFunction(f.ground, tuple(x * t for x in f.values))


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
    ground = GroundSet(tuple(str(x) for x in labels))
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
