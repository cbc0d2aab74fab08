"""Exact set functions on small ground sets.

A set function assigns one exact rational to every subset of a finite
labeled ground set.  Subsets are bitmasks: element i of the ground set
corresponds to bit i, so the whole function is a dense table of length
2^n.  Everything here is immutable and pure.

Whole-table work runs on one exact integer kernel.  Every axiom is a
homogeneous linear test on the table, and the duality and correspondence
maps are linear, so the table is multiplied by den, the lcm of its
denominators, and computed on as integers with numpy vector operations;
results turn back into Fractions once, at the end.  The integers are
int64 only when the largest expression any check or map forms on them
fits: the bound is max|x| * (4n + 4) < 2**63 (a dual value is three
table values plus n gains of four).  Otherwise the same code runs on
Python ints in an object array, so the result is exact either way, and
one helper, _dtype, picks the dtype for every table.

One size rule, _GATHER_UP_TO = 8 elements, picks how the increments
f(S + i) - f(S) are read.  A table of at most 8 elements is worked on
whole, one numpy call per job: classify's submodularity test gathers its
increments, inc[i, k] = the gain of i at the k-th mask without i
(_gains), and compares them with themselves one element below, and a
modular sum (the dual's, hat's and vee's) is one product with the
membership matrix.  A larger table walks, one vector operation per
element or pair of elements through _halves, which is the faster way
from 12 elements up (classify by gather against walk, one CPU: 0.9
against 0.4 ms at n = 12, 30-39 against 4.5-4.7 ms at n = 16).  The
dual's per-element gains, and f(N) - f(N - i) (_top_gains), are one
gather of the singleton and co-singleton masks at every size, and
quantoid.sharing gathers the increments of the dealers it flags.  The
index plans the gathers read (_coalition_rows, _one_smaller,
_singleton_masks) depend only on n; each is built on first use, once per
n, and kept read-only, here for quantoid.sharing too.  Over every size 0..16 they
hold at most about 26 MB: 17.7 MB of _one_smaller (9.4 MB at n = 16) and
7.9 MB of _coalition_rows, whose row i is the coalitions of dealer i.

Every SetFunction carries its integer table, read-only, from the moment
it exists: (table, den) = _scaled(values) is its _scaled_table, and the
integer table runs from parse to print.  SetFunction and from_table
scale the checked values once, in __post_init__.  Every function the
library builds skips those checks and is handed its table alone
(_handed): a parsed function (build) and a snapped one
(quantoid.entropic.snap_to_rational) from _gathered, which scales only
their distinct values and gathers the table from them; a kernel output
(an enumerated table, dual, hat, vee, scale, an expansion or 2-factor)
from _from_scaled, which divides the integer table it was built from by
g = gcd(q, table) and multiplies it by p for a unit p/q.  The values of
such a function, one Fraction per mask, are made from (table, den) on
first read and kept; no output needs them.  Whole-function results are
computed once per SetFunction object, on first use, and kept: its dual
table (read-only), the Classification, and quantoid.sharing's flags, one
tuple per kind.  Equality and quantoid.documents' printing read the
table, so printing calls str once per distinct value.

_halves is the one split of a table: it gives the views (f(S), f(S+i))
of the masks S without element i, and every walk over elements or pairs
of elements, in this module and the others, exact or float, reads them.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
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
    ValueTooLarge,
)

MAX_GROUND_SIZE = 16

POLYMATROID = "polymatroid"
POLYQUANTOID = "polyquantoid"


def as_rational(value) -> Fraction:
    """Read an exact rational from an int, a Fraction, or a Fraction string.

    Other types, numpy scalars among them, are rejected.  Floats are not
    exact and must be snapped explicitly (see quantoid.entropic.snap_to_rational).
    Booleans are rejected too, although Python counts them as ints.
    A string may not pass int's str limit, sys.get_int_max_str_digits():
    the digits on the longer side of "/", plus the exponent's magnitude,
    must stay within it.  So "1e5000" is rejected before Fraction builds
    10**5000, and "0." followed by 4300 ones (denominator 10**4300) is
    rejected at the default limit of 4300.  A string of decimal digits
    alone, within the limit (or any length, with the limit off), is read
    by int, as Fraction would read it.  Every other string is read in
    Python 3.10's Fraction syntax on every Python: one with "_" or with
    whitespace inside the value ("1_000", "1 / 3"), which Fraction reads
    from 3.11 or 3.12 on, is rejected before Fraction's parse, and the
    rest takes that parse.  Which characters are decimal digits still
    follows each Python's Unicode database.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        if value.isdecimal() and (len(value) <= limit or not limit):
            return Fraction(int(value))
        if "_" in value or len(value.split()) > 1:
            raise MalformedRational(repr(value))
        mantissa, e, exponent = value.lower().partition("e")
        try:
            # a string no longer than the limit, with no exponent, cannot pass it
            if limit and (e or len(value) > limit):
                digits = max(sum(map(str.isdigit, side)) for side in mantissa.split("/"))
                if digits + abs(int(exponent or 0)) > limit:
                    raise ValueTooLarge(f"{value!r} (past the {limit}-digit limit)")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedRational(repr(value)) from exc
    if isinstance(value, (float, np.floating)):
        raise MalformedRational(f"{value!r} (floats are not exact; pass a string or Fraction)")
    raise MalformedRational(repr(value))


def _in_range(name: str, x: int, end: int, n: int) -> int:
    """x, when 0 <= x < end; otherwise a ValueError naming the range.  A
    bool is a TypeError: Python counts it as an int, but it is no mask,
    element index or count."""
    if isinstance(x, bool):
        raise TypeError(f"{name} {x!r} is a bool, not an int")
    if 0 <= x < end:
        return x
    raise ValueError(f"{name} {x} is outside 0 .. {end - 1} for {n} elements")


def _show(x) -> str:
    """str(x) for an error message; where that text would pass int's str
    limit, a note naming the limit in its place."""
    try:
        return str(x)
    except ValueError:
        return f"<a value past the {sys.get_int_max_str_digits()}-digit limit>"


@dataclass(frozen=True)
class GroundSet:
    """Ordered, distinct element labels; label i corresponds to subset-mask bit i."""

    labels: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.labels, str):
            raise TypeError(f"labels {self.labels!r} is a string, not a list of labels")
        labels = tuple(self.labels)
        for x in labels:
            if isinstance(x, bool):
                raise InvalidLabel(repr(x))
        labels = tuple(map(str, labels))
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
        """Mask of the subset with these member labels, given in any order
        but each at most once.  A bare string is a TypeError, not a list of
        one-character labels."""
        if isinstance(members, str):
            raise TypeError(f"members {members!r} is a string, not a list of labels")
        mask = 0
        for label in members:
            bit = 1 << self.index_of(label)
            if mask & bit:
                raise DuplicateLabel(str(label))
            mask |= bit
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        """Member labels of the subset, in ground-set order, read from the
        cached member tuples (_subset_members).  A mask outside
        0 .. 2^n - 1 is a ValueError, and a bool a TypeError (see
        _in_range).  matroid_structure, access_from_circuits and
        adapted_sets call it; the sharing reports read _subset_members."""
        return self._subset_members[_in_range("mask", mask, 1 << self.n, self.n)]

    def key_of(self, mask: int) -> str:
        """Canonical subset key: member labels in ground-set order, comma-joined.

        The empty set is the empty string.  A mask outside 0 .. 2^n - 1 is a
        ValueError, and a bool a TypeError (see _in_range).  The key is read
        from the cached subset keys, so the first call on a ground set
        builds all 2^n of them (about 8 ms at n = 16 on one CPU of a 2-vCPU
        VM).  Only error messages call it
        (sharing._not_ideal_reason, entropic.snap_to_rational), possibly on
        a ground set whose keys are not built yet.
        """
        return self._subset_keys[_in_range("mask", mask, 1 << self.n, self.n)]

    def subset_keys(self) -> list[str]:
        """key_of(m) for every subset mask m, in increasing order.

        The keys are built once per GroundSet object; each call returns a
        fresh list of them.
        """
        return list(self._subset_keys)

    @functools.cached_property
    def _subset_keys(self) -> tuple[str, ...]:
        """The keys of subset_keys, built by doubling: the keys of the masks
        with top bit i are those below it, each with label i appended."""
        keys = [""]
        for label in self.labels:
            keys += [f"{x},{label}" if x else label for x in keys]
        return tuple(keys)

    @functools.cached_property
    def _subset_members(self) -> tuple[tuple[str, ...], ...]:
        """members(m) for every subset mask m, built by doubling as
        _subset_keys is, once per GroundSet object."""
        members = [()]
        for label in self.labels:
            members += [x + (label,) for x in members]
        return tuple(members)

    def mask_of_key(self, key: str) -> int:
        """Inverse of key_of.  Accepts members in any order but rejects repeats."""
        return self.mask_of(key.split(",")) if key else 0


@dataclass(frozen=True)
class SetFunction:
    """One exact rational per subset of the ground set, indexed by bitmask.

    Each carries _scaled_table = _scaled(values), (table, den) with the
    table read-only, from the moment it exists: __post_init__ scales the
    checked values, and _handed hands a table to the functions the library
    builds, whose values are made from it on first read (__getattr__).
    """

    ground: GroundSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        expected = 1 << self.ground.n
        if len(self.values) != expected:
            raise MissingSubset(f"expected {expected} values, got {len(self.values)}")
        values = tuple(map(as_rational, self.values))
        a, den = _scaled(values)
        a.flags.writeable = False
        self.__dict__.update(values=values, _scaled_table=(a, den))

    def __getattr__(self, name: str):
        """values, made from (table, den) on first read, one Fraction per
        distinct int, and kept in __dict__, where lookup finds it from then
        on.  Any other name, or values before the table is set, is an
        AttributeError."""
        if name != "values" or "_scaled_table" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ints, den = self._scaled_table[0].tolist(), self._scaled_table[1]
        value = {x: Fraction(x, den) for x in set(ints)}
        return self.__dict__.setdefault("values", tuple(map(value.__getitem__, ints)))

    def __setstate__(self, state: dict):
        # copy.deepcopy and pickle rebuild each array writeable: mark the
        # table and any cached dual table read-only again
        self.__dict__.update(state)
        if "_dual_table" in state:
            state["_dual_table"].flags.writeable = False
        state["_scaled_table"][0].flags.writeable = False

    @functools.cached_property
    def _dual_table(self) -> np.ndarray:
        """_dual of _scaled_table, over the same den, computed on first use
        and read-only: dual, is_selfdual and classify's selfdual read it."""
        d = _dual(self._scaled_table[0], self.n)
        d.flags.writeable = False
        return d

    @functools.cached_property
    def _classification(self) -> Classification:
        """_classify(self), computed on first use."""
        return _classify(self)

    @functools.cached_property
    def _dealer_flags(self) -> dict:
        """quantoid.sharing's flags of every dealer, one tuple per kind,
        which sharing computes on first use and keeps here."""
        return {}

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.ground.labels

    @property
    def full_mask(self) -> int:
        return self.ground.full_mask

    def __eq__(self, other):
        """Equal ground sets, then equal den and integer table: equal values
        scale to the same den and table, so this is (ground, values) ==
        (other.ground, other.values), without a Fraction comparison per
        mask.  Another type gives NotImplemented.  The hash stays the
        dataclass hash of (ground, values)."""
        if not isinstance(other, SetFunction):
            return NotImplemented
        if self.ground != other.ground:
            return False
        (a, den), (b, den2) = self._scaled_table, other._scaled_table
        return den == den2 and bool((a == b).all())

    def __getitem__(self, mask: int) -> Fraction:
        """The value on mask; a mask outside 0 .. 2^n - 1 is a ValueError."""
        return self.values[_in_range("mask", mask, len(self.values), self.n)]

    def value(self, members: Iterable) -> Fraction:
        """Value on the subset given by its member labels."""
        return self.values[self.ground.mask_of(members)]

    def table(self) -> dict:
        """Mapping from canonical subset key to value, in mask order."""
        return dict(zip(self.ground._subset_keys, self.values))


def build(labels: Sequence, values: Mapping) -> SetFunction:
    """Build a SetFunction from labels and a complete subset-key -> rational table.

    Every one of the 2^n canonical keys must be present; floats are rejected.
    The keys are read in mask order, and the first bad one is named.  Each
    distinct value string is parsed once; a value of any other type (1, 1.0
    and True compare equal) is read on its own, every time.  The function
    carries its integer table from the start: only the distinct parsed
    values are scaled, and the table is gathered from them (see _gathered).
    """
    ground = GroundSet(labels)
    slot: dict[str, int] = {}  # each distinct value string -> its place in parsed
    parsed: list[Fraction] = []
    index = []
    for key in ground._subset_keys:
        if key not in values:
            raise MissingSubset(key)
        value = values[key]
        if type(value) is not str or (i := slot.get(value)) is None:
            try:
                parsed.append(as_rational(value))
            except MalformedRational as exc:
                raise MalformedRational(f"{key!r}: {exc}") from None
            i = len(parsed) - 1
            if type(value) is str:
                slot[value] = i
        index.append(i)
    if len(values) != len(index):
        extras = sorted(set(values) - set(ground._subset_keys))
        raise UnknownSubsetKey(repr(extras[0]))
    return _gathered(ground, parsed, index)


def from_table(labels: Sequence, values: Iterable) -> SetFunction:
    """Build a SetFunction from a value table already in subset-mask order."""
    return SetFunction(GroundSet(labels), tuple(values))


def submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, in ascending order, from 0 up to mask itself."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


# -- the exact integer kernel ------------------------------------------------

def _dtype(ints: Iterable[int], n: int):
    """The overflow guard: int64 when max|x| * (4n + 4) < 2**63, else object."""
    return np.int64 if max(map(abs, ints)) * (4 * n + 4) < 2**63 else object


def _scaled(values: Sequence[Fraction], n: int | None = None) -> tuple[np.ndarray, int]:
    """The values times den = lcm of their denominators, as integers, and
    den, in _dtype's dtype for n elements: by default the n of a whole
    table of 2^n values."""
    den = math.lcm(*{x.denominator for x in values})
    nums = [x.numerator * (den // x.denominator) for x in values]
    n = len(nums).bit_length() - 1 if n is None else n
    return np.array(nums, dtype=_dtype(nums, n)), den


def _handed(ground: GroundSet, table: np.ndarray, den: int) -> SetFunction:
    """The set function with values table / den, built without
    SetFunction's checks; (table, den) must be what _scaled gives for
    those values, and becomes its _scaled_table, read-only.  Its values
    are made on first read (SetFunction.__getattr__)."""
    table.flags.writeable = False
    f = object.__new__(SetFunction)
    f.__dict__.update(ground=ground, _scaled_table=(table, den))
    return f


def _gathered(ground: GroundSet, distinct: list, index: list) -> SetFunction:
    """The set function with value distinct[index[m]] on each mask m,
    handed its table alone: only the distinct Fractions are scaled, and
    the table is gathered from them; no Fraction is gathered per mask.
    den is the lcm of their reduced denominators, so gcd(den, table) = 1,
    as in _scaled(values)."""
    nums, den = _scaled(distinct, ground.n)
    return _handed(ground, nums.take(index), den)


def _from_scaled(ground: GroundSet, table: np.ndarray, unit: Fraction) -> SetFunction:
    """The set function with value x * unit on each mask, x read from table,
    handed its table.  With unit p/q and g = gcd(q, table), that table is
    (table // g) * p over den q // g, in the dtype _dtype picks for those
    integers: the table itself when g = p = 1 and its dtype is that one, a
    new array otherwise.  No Fraction is made.
    """
    distinct = set(table.tolist())
    p, q = unit.numerator, unit.denominator
    g = math.gcd(q, *distinct)
    dtype = _dtype((x // g * p for x in distinct), ground.n)
    if g != 1 or p != 1 or table.dtype != dtype:
        table = (table // g).astype(dtype) * p
    return _handed(ground, table, q // g)


# tables of at most this many elements are worked on whole, one gather or
# product per job, and larger ones walk (see the module docstring)
_GATHER_UP_TO = 8


@functools.cache
def _coalition_rows(n: int) -> np.ndarray:
    """Row i holds the masks without bit i, ascending: a table's order along
    element i's axis.  Built once per n and read-only."""
    masks = np.arange(1 << n)
    rows = np.array([_halves(masks, 1 << i)[0].ravel() for i in range(n)],
                    dtype=masks.dtype).reshape(n, len(masks) // 2)
    rows.flags.writeable = False
    return rows


@functools.cache
def _one_smaller(n: int) -> tuple:
    """below[m, i] is mask m without element i, for every mask m over n
    elements; smaller[m, i] says whether i was in m, so smaller is also
    the membership matrix of the masks.  Built once per n and read-only."""
    masks = np.arange(1 << n)
    below = masks[:, None] & ~(1 << np.arange(n))
    smaller = below != masks[:, None]
    below.flags.writeable = smaller.flags.writeable = False
    return below, smaller


@functools.cache
def _singleton_masks(n: int) -> np.ndarray:
    """Row 0 holds the singletons 1 << i, row 1 the co-singletons N - i,
    for every element i.  Built once per n and read-only."""
    bits = 1 << np.arange(n)
    masks = np.array([bits, ((1 << n) - 1) ^ bits])
    masks.flags.writeable = False
    return masks


def _gains(a: np.ndarray, rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Row k: f(S + i) - f(S) with i the element of bits[k], for S over
    rows[k], the masks without i: one gather of each side."""
    return a.take(rows | bits[:, None]) - a.take(rows)


def _top_gains(a: np.ndarray, n: int) -> np.ndarray:
    """f(N) - f(N - i) for every element i."""
    return a[-1] - a.take(_singleton_masks(n)[1])


def _modular(weights: Sequence, dtype) -> np.ndarray:
    """For every subset mask, the sum of its members' weights: one product
    with the membership matrix for an int64 table of at most _GATHER_UP_TO
    elements, by doubling otherwise."""
    if dtype == np.int64 and len(weights) <= _GATHER_UP_TO:
        return _one_smaller(len(weights))[1] @ np.asarray(weights, dtype=np.int64)
    sums = np.zeros(1, dtype=dtype)
    for w in weights:
        sums = np.concatenate((sums, sums + w))
    return sums


def _singleton_sums(a: np.ndarray, n: int) -> np.ndarray:
    return _modular(a.take(_singleton_masks(n)[0]), a.dtype)


def _halves(a: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The views (f(S), f(S+i)) of table a for stride = 1 << i, with S
    over the masks without bit i, ascending.  A mixed-radix count table
    splits the same way at the stride of a radix-2 digit."""
    r = a.reshape(-1, 2, stride)
    return r[:, 0], r[:, 1]


def _increments(a: np.ndarray, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """_halves(a, 1 << i) for every element i: (f(S), f(S+i))."""
    for i in range(n):
        yield _halves(a, 1 << i)


def _two_point_gains(a: np.ndarray, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For every pair c < b, the gain of b at S+c and at S, over the S
    without b and c.  One gain table at a time keeps memory at one table."""
    for b in range(1, n):
        without, with_b = _halves(a, 1 << b)
        gain = (with_b - without).ravel()  # over the other elements; c < b keeps bit c
        for c in range(b):
            at_s, at_sc = _halves(gain, 1 << c)
            yield at_sc, at_s


def _nondecreasing(a: np.ndarray, n: int) -> bool:
    return all((lo <= hi).all() for lo, hi in _increments(a, n))


def _submodular(a: np.ndarray, n: int) -> bool:
    # Two-point criterion: for every S and distinct b, c outside S,
    # f(S+b) + f(S+c) >= f(S+b+c) + f(S), that is, the gain of b does not
    # grow when c joins.  Equivalent to the all-pairs definition for
    # functions on the full subset lattice.
    return all((at_sc <= at_s).all() for at_sc, at_s in _two_point_gains(a, n))


def _dual(a: np.ndarray, n: int) -> np.ndarray:
    # f'(I) = f(N-I) + f({}) - f(N) + sum over i in I of
    # [f(i) - f({}) + f(N) - f(N-i)]; N-I is the reversed table
    singles, co_singles = a.take(_singleton_masks(n))
    return a[::-1] + (a[0] - a[-1]) + _modular(singles - a[0] + a[-1] - co_singles, a.dtype)


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
        return dict(vars(self))


def classify(f: SetFunction) -> Classification:
    """Every axiom flag of f, exactly.

    Computed once per SetFunction object, on first use, and shared by every
    later call on the same object; a Classification is frozen.
    """
    return f._classification


def _classify(f: SetFunction) -> Classification:
    """Compute every axiom flag, exactly, on the integer-scaled table.

    The table is scaled by the lcm of its denominators (see the module
    docstring for the int64 overflow guard).  Submodularity is the local
    two-point criterion: the gain of i at S is at least its gain at S + j.
    For 0 < n <= _GATHER_UP_TO it gathers the increments and compares them
    with themselves one element below; past that, one vector comparison
    per pair of elements.  On a submodular table, nondecreasing needs only
    f(N - i) <= f(N) for every i; other tables walk every gain.  Tight is
    f(N - i) == f(N).  Selfduality compares the table with the cached dual
    table.  No flag reads the unscaled values: `integer` is den == 1, and
    the singletons-in-{0, 1} part of matroid and quantoid reads the table,
    which then holds the values.
    """
    n = f.n
    a, den = f._scaled_table

    normalized = bool(a[0] == 0)
    if 0 < n <= _GATHER_UP_TO:
        # below[k, j] is k without j, or k itself, where the test holds trivially
        inc = _gains(a, _coalition_rows(n), _singleton_masks(n)[0])
        submodular = bool((inc.take(_one_smaller(n - 1)[0], axis=1) >= inc[:, :, None]).all())
    else:
        submodular = _submodular(a, n)
    top = _top_gains(a, n)
    # a submodular f's gains of i shrink as S grows: the least is at N - i
    nondecreasing = bool((top >= 0).all()) if submodular else _nondecreasing(a, n)
    complementary = bool((a == a[::-1]).all())  # N-m is full - m
    tight = bool((top == 0).all())
    integer = den == 1
    selfdual = bool((f._dual_table == a).all())
    # matroid and quantoid read it only with integer, where den is 1: the table is the values
    singles_01 = set(a.take(_singleton_masks(n)[0]).tolist()) <= {0, 1}

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
        raise NonpositiveScale(_show(t))
    a, den = f._scaled_table
    return _from_scaled(f.ground, a, t / den)


_PAIR_PLAN_UP_TO = 10  # C(10, 2) * 2^8 = 11,520 triples


def enumerate_rank_functions(kind: str, n: int, cap: int) -> Iterator[SetFunction]:
    """Yield every integer-valued function on n elements with values in [0, cap]
    that satisfies the axioms of `kind` ("polymatroid" or "polyquantoid").

    Lazy and deterministic: functions come out one at a time, in
    lexicographic order of the value table, for every n up to
    MAX_GROUND_SIZE.  A flat depth-first walk assigns values mask by mask,
    pruning with the local submodularity bounds from above.  From below,
    a polymatroid mask gets the monotonicity bound; a polyquantoid mask S
    with |S| >= 2 gets the Araki-Lieb bound e(S) >= |e(S - i) - e(i)| over
    its members i, which normalization, complementarity and submodularity
    imply, and a mask above its complement takes the complement's value.
    Every valid table meets these bounds, so they change only how many
    dead branches the walk enters, not the sequence; only valid tables
    are ever completed.
    """
    if kind not in (POLYMATROID, POLYQUANTOID):
        raise ValueError(f"unknown kind {kind!r}")
    if isinstance(n, bool) or isinstance(cap, bool):
        raise TypeError(f"n {n!r} and cap {cap!r} must be ints, not bools")
    if n < 0 or cap < 0:
        raise ValueError("n and cap must be nonnegative")
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))

    full = (1 << n) - 1
    below = [[m ^ 1 << i for i in range(n) if m >> i & 1] for m in range(full + 1)]
    table = [0] * (full + 1)

    def pairs(m: int) -> list:
        """(x, y, x & y) for every pair x, y of masks one element below m."""
        return [(x, y, x & y) for x, y in itertools.combinations(below[m], 2)]

    # a walk that revisits masks reads each mask's pairs from one plan (1.2 MB
    # at 10 elements, 7 MB at 12); a larger walk that finishes runs down about
    # one path, where a plan would only hold memory, so it forms them per visit
    plan = list(map(pairs, range(full + 1))) if n <= _PAIR_PLAN_UP_TO else None

    def choices(m: int) -> range:
        xs = below[m]  # the masks one element smaller
        hi = min([cap] + [table[x] + table[y] - table[z]
                          for x, y, z in (plan[m] if plan else pairs(m))])
        if kind == POLYMATROID:
            return range(max(map(table.__getitem__, xs)), hi + 1)
        # Araki-Lieb: e(S) >= |e(S - i) - e(i)|, with S - i = x and {i} = m ^ x;
        # for a singleton m ^ x is m itself, so the bound needs |S| >= 2
        lo = max(abs(table[x] - table[m ^ x]) for x in xs) if len(xs) > 1 else 0
        if full ^ m < m:  # the complement's value is forced
            lo, hi = max(lo, table[full ^ m]), min(hi, table[full ^ m])
        return range(lo, hi + 1)

    # depth-first: stack[m] runs through the values left for mask m
    stack = [iter(range(1))]  # normalized
    while stack:
        m = len(stack) - 1
        table[m] = next(stack[-1], -1)  # values are nonnegative: -1 is "none left"
        if table[m] < 0:
            stack.pop()
        elif m == full:
            # int64 holds the table: no value passes the sum of the singletons,
            # which the walk counts up from 0, one value at a time
            yield _from_scaled(ground, np.array(table), Fraction(1))
        else:
            stack.append(iter(choices(m + 1)))
