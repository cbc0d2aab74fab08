"""Free expansions of integer polymatroids to matroids and of integer
polyquantoids to quantoids.

Each source element i is replaced by a block of s_i = f(i) fresh elements,
one per unit of its singleton value, named "<label>.<k>" with k counting
from 0.  The expanded value on K is a minimization over source subsets J:

    matroid expansion:   min over J of  source(J) + |K \\ blocks(J)|
    quantoid expansion:  min over J of  source(J) + |K symdiff blocks(J)|

Copies inside a block are interchangeable, so the value depends only on
the count vector c_i = |K & block_i|:

    matroid:   min over J of  h(J) + sum over i not in J of c_i
    quantoid:  min over J of  e(J) + sum over i in J of (s_i - c_i)
                                   + sum over i not in J of c_i

There are prod(s_i + 1) count vectors, at most the 2^|E| expanded masks
and far fewer when blocks are large.  The cost is a sum of one term per
element, so the minimum over J is taken one element at a time: the axis
"i in J or not" of the integer table becomes the axis c_i = 0..s_i, each
entry the smaller of the two costs.  That is O(n * max(2^n, prod(s_i + 1)))
work, where a minimum over all J for each count vector would be the
product of the two.  Every expanded mask then reads its value from the
count table at the mixed-radix index of its per-block popcounts, which is
a modular sum over the copies.  An expansion has at most MAX_GROUND_SIZE
elements.

One check, _checked, tests a source before it is expanded, and on a
source with more than one fault the first in this order names the error:
not an integer polymatroid (NotIntegerPolymatroid) or, for a quantoid
expansion, not an integer polyquantoid (NotIntegerPolyquantoid); for a
2-factor, an odd singleton value (OddSingletonValue); more than
MAX_GROUND_SIZE copies in all (ExpansionTooLarge).

The arithmetic is int64, like SetFunction._scaled_table, and it cannot
overflow: a validated source is integer, normalized and submodular, and
either monotone or complementary, so 0 <= f(J) <= sum of s_i <=
MAX_GROUND_SIZE (twice that for the polymatroid partner in the Lemma 5.2
check), and every cost is at most twice that bound.

A 2-factor groups the copies of a matroid expansion into two-element
blocks (consecutive copies are paired) and restricts the expanded function
to unions of whole blocks, producing a polymatroid on the blocks.  On the
pair counts p_i it is min over J of h(J) + 2 * sum over i not in J of p_i,
the same kernel with each pair costing 2, so the copy-level expansion is
never built.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .correspondence import to_polymatroid, to_polyquantoid
from .errors import (
    ExpansionTooLarge,
    NotIntegerPolymatroid,
    NotIntegerPolyquantoid,
    OddSingletonValue,
)
from .setfn import (
    MAX_GROUND_SIZE,
    GroundSet,
    SetFunction,
    _from_scaled,
    _halves,
    _in_range,
    _modular,
    _show,
    classify,
    submasks,
)

MATROID_EXPANSION = "matroid-expansion"
QUANTOID_EXPANSION = "quantoid-expansion"
TWO_FACTOR = "two-factor"


@dataclass(frozen=True)
class BlockMap:
    """Per source element, an ordered block of expanded-element names.

    Blocks are pairwise disjoint and their concatenation, in source order,
    is exactly the expanded ground set.
    """

    source: GroundSet
    blocks: tuple
    expanded: GroundSet

    def __post_init__(self):
        flat = tuple(itertools.chain.from_iterable(self.blocks))
        if len(self.blocks) != self.source.n or flat != self.expanded.labels:
            raise ValueError("blocks do not partition the expanded ground set")

    @classmethod
    def from_sizes(cls, source: GroundSet, sizes: Sequence[int]) -> "BlockMap":
        blocks = tuple(
            tuple(f"{label}.{k}" for k in range(size))
            for label, size in zip(source.labels, sizes)
        )
        expanded = GroundSet(tuple(itertools.chain.from_iterable(blocks)))
        return cls(source=source, blocks=blocks, expanded=expanded)

    def block_mask(self, i: int) -> int:
        """Mask of source element i's block within the expanded ground set.
        An index outside 0 .. n - 1 is a ValueError."""
        n = self.source.n
        return self.expanded.mask_of(self.blocks[_in_range("element", i, n, n)])

    def image_mask(self, source_mask: int) -> int:
        """Mask of the union of blocks of a source subset.  A mask outside
        0 .. 2^n - 1 is a ValueError."""
        n = self.source.n
        _in_range("mask", source_mask, 1 << n, n)
        # blocks are disjoint, so the sum of their masks is their union
        return sum(self.block_mask(i) for i in range(n) if source_mask >> i & 1)


@dataclass(frozen=True)
class Expansion:
    map: BlockMap
    expanded_fn: SetFunction
    kind: str


def adapted_sets(block_map: BlockMap, subset) -> tuple:
    """All source subsets J adapted to K: every element whose nonempty block
    lies inside K belongs to J, and every element of J has a block meeting K.

    `subset` is a mask in the expanded ground set, of any integer type (a
    mask outside 0 .. 2^n - 1 is a ValueError, and a bool a TypeError), or
    an iterable of expanded labels.
    Returns member-label tuples in ascending mask order.
    """
    g = block_map.expanded
    K = (_in_range("mask", subset, 1 << g.n, g.n) if isinstance(subset, numbers.Integral)
         else g.mask_of(subset))
    upper = 0
    lower = 0
    for i in range(block_map.source.n):
        b = block_map.block_mask(i)
        if b & K:
            upper |= 1 << i
            if b & K == b:
                lower |= 1 << i
    return tuple(block_map.source.members(lower | s) for s in submasks(upper & ~lower))


def _count_table(a: np.ndarray, sizes: Sequence[int], weight: int,
                 symmetric: bool) -> np.ndarray:
    """For every count vector c, 0 <= c_i <= sizes[i], the minimum over
    source subsets J of

        a[J] + weight * (sum over i not in J of c_i
                         + [symmetric] sum over i in J of (sizes[i] - c_i)).

    The result is indexed in mixed radix sizes[i] + 1, element 0 fastest.
    """
    radix = [2] * len(sizes)
    # zero-size blocks first: the table only shrinks before it grows, so it
    # never holds more than max(2^n, prod(s_i + 1)) entries
    for i in sorted(range(len(sizes)), key=lambda i: sizes[i] > 0):
        s = sizes[i]
        out, inside = _halves(a, math.prod(radix[:i]))  # i not in J, i in J
        c = np.arange(s + 1).reshape(-1, 1)
        a = np.minimum(out[:, None] + weight * c,
                       inside[:, None] + (weight * (s - c) if symmetric else 0)).ravel()
        radix[i] = s + 1
    return a


def _checked(f: SetFunction, kind: str):
    """Raise unless f meets the preconditions of a `kind` expansion, tested
    in this order: an integer polymatroid (an integer polyquantoid for a
    quantoid expansion), then for a 2-factor even singleton values, then
    at most MAX_GROUND_SIZE copies, the sum of the singleton values, which
    a 2-factor's pairs stand for too."""
    cls = classify(f)
    quantum = kind == QUANTOID_EXPANSION
    if not (cls.integer and (cls.polyquantoid if quantum else cls.polymatroid)):
        error = NotIntegerPolyquantoid if quantum else NotIntegerPolymatroid
        raise error(f"values on {f.labels}")
    singles = [int(f._scaled_table[0][1 << i]) for i in range(f.n)]  # den is 1
    if kind == TWO_FACTOR and (odd := [x for x, s in zip(f.labels, singles) if s % 2]):
        raise OddSingletonValue(odd[0])
    if (total := sum(singles)) > MAX_GROUND_SIZE:
        raise ExpansionTooLarge(f"{_show(total)} expanded elements (maximum {MAX_GROUND_SIZE})")


def _expand(f: SetFunction, kind: str) -> Expansion:
    """The `kind` expansion of a validated f, with no size check.

    The block sizes come from f's singleton values, read off its integer
    table (a validated f has den 1), and one unit, pair: 2
    for a 2-factor, whose block k of element i stands for copies i.(2k)
    and i.(2k+1), and 1 otherwise.  Block i has f(i) / pair elements, each
    costing pair; only a quantoid expansion also charges the copies of J
    that K misses.
    """
    pair = 2 if kind == TWO_FACTOR else 1
    sizes = [int(f._scaled_table[0][1 << i]) // pair for i in range(f.n)]
    bmap = BlockMap.from_sizes(f.ground, sizes)
    table = _count_table(f._scaled_table[0], sizes, pair, kind == QUANTOID_EXPANSION)
    # each copy in block i adds the place value of digit i to the index
    index = _modular([math.prod(t + 1 for t in sizes[:i])
                      for i, s in enumerate(sizes) for _ in range(s)], np.int64)
    return Expansion(bmap, _from_scaled(bmap.expanded, table[index], Fraction(1)), kind)


def _expansion(f: SetFunction, kind: str) -> Expansion:
    _checked(f, kind)
    return _expand(f, kind)


def free_expand_polymatroid(h: SetFunction) -> Expansion:
    """Free expansion of an integer polymatroid; the result is a matroid."""
    return _expansion(h, MATROID_EXPANSION)


def free_expand_polyquantoid(e: SetFunction) -> Expansion:
    """Free expansion of an integer polyquantoid; the result is a quantoid."""
    return _expansion(e, QUANTOID_EXPANSION)


def two_factor(h: SetFunction) -> Expansion:
    """Pair consecutive copies of a free expansion into two-element blocks.

    Requires every singleton value of h to be even.  The returned function
    lives on the blocks (labeled "<label>.<k>", k indexing pairs) and takes
    the expansion's value on the union of the chosen blocks.
    """
    _checked(h, TWO_FACTOR)
    return _expand(h, TWO_FACTOR)


def expansion_correspondence_holds(e: SetFunction) -> bool:
    """Cross-check the two expansion routes of an integer polyquantoid.

    Route one expands e directly to a quantoid.  Route two maps e to its
    polymatroid partner, freely expands that, takes the 2-factor on the
    same block labels, and maps back.  The two must agree value for value.
    The 2-factor is computed on pair counts, so the partner's expansion,
    twice the size of the direct one, is never built: the check is limited
    only by the direct expansion.
    """
    direct = _expansion(e, QUANTOID_EXPANSION)
    # the partner is an integer polymatroid with even singletons 2 e(i)
    factored = _expand(to_polymatroid(e), TWO_FACTOR)
    return to_polyquantoid(factored.expanded_fn) == direct.expanded_fn
