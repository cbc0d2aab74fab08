"""Free expansions of integer polymatroids to matroids and of integer
polyquantoids to quantoids.

Each source element i is replaced by a block of fresh elements, one per
unit of its singleton value, named "<label>.<k>" with k counting from 0.
The expanded value on K is a minimization over source subsets J:

    matroid expansion:   min over J of  source(J) + |K \\ blocks(J)|
    quantoid expansion:  min over J of  source(J) + |K symdiff blocks(J)|

The minimum is attained on the *adapted* sets, those J sandwiched between
the elements whose block meets K and the elements whose nonempty block
lies inside K, so only they are searched.  An expansion has at most
MAX_GROUND_SIZE elements.

A 2-factor groups the copies of a matroid expansion into two-element
blocks (consecutive copies are paired) and restricts the expanded function
to unions of whole blocks, producing a polymatroid on the blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .correspondence import to_polymatroid, to_polyquantoid
from .errors import (
    ExpansionTooLarge,
    NotIntegerPolymatroid,
    NotIntegerPolyquantoid,
    OddSingletonValue,
)
from .setfn import MAX_GROUND_SIZE, GroundSet, SetFunction, classify, submasks

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
        """Mask of source element i's block within the expanded ground set."""
        return self.expanded.mask_of(self.blocks[i])

    def image_mask(self, source_mask: int) -> int:
        """Mask of the union of blocks of a source subset."""
        mask = 0
        for i in range(self.source.n):
            if source_mask >> i & 1:
                mask |= self.block_mask(i)
        return mask


@dataclass(frozen=True)
class Expansion:
    map: BlockMap
    expanded_fn: SetFunction
    kind: str


def adapted_sets(block_map: BlockMap, subset) -> tuple:
    """All source subsets J adapted to K: every element whose nonempty block
    lies inside K belongs to J, and every element of J has a block meeting K.

    `subset` is a mask in the expanded ground set, or an iterable of
    expanded labels.  Returns member-label tuples in ascending mask order.
    """
    K = subset if isinstance(subset, int) else block_map.expanded.mask_of(subset)
    upper = 0
    lower = 0
    for i in range(block_map.source.n):
        b = block_map.block_mask(i)
        if b & K:
            upper |= 1 << i
            if b & K == b:
                lower |= 1 << i
    out = sorted(lower | s for s in submasks(upper & ~lower))
    return tuple(block_map.source.members(m) for m in out)


def _expanded_values(src: SetFunction, bmap: BlockMap, symmetric: bool) -> tuple:
    n = src.n
    v = src.values
    images = [bmap.image_mask(j) for j in range(1 << n)]
    blocks = [bmap.block_mask(i) for i in range(n)]

    def cost(j: int, K: int) -> Fraction:
        d = (K ^ images[j]) if symmetric else (K & ~images[j])
        return v[j] + d.bit_count()

    out = []
    for K in range(1 << bmap.expanded.n):
        upper = 0
        lower = 0
        for i, b in enumerate(blocks):
            if b & K:
                upper |= 1 << i
                if b & K == b:
                    lower |= 1 << i
        out.append(min(cost(lower | s, K) for s in submasks(upper & ~lower)))
    return tuple(out)


def _require_integer(f: SetFunction, kind: str):
    cls = classify(f)
    if kind == MATROID_EXPANSION and not (cls.polymatroid and cls.integer):
        raise NotIntegerPolymatroid(f"values on {f.labels}")
    if kind == QUANTOID_EXPANSION and not (cls.polyquantoid and cls.integer):
        raise NotIntegerPolyquantoid(f"values on {f.labels}")


def _block_sizes(f: SetFunction) -> list:
    sizes = [int(f.values[1 << i]) for i in range(f.n)]
    total = sum(sizes)
    if total > MAX_GROUND_SIZE:
        raise ExpansionTooLarge(f"{total} expanded elements (maximum {MAX_GROUND_SIZE})")
    return sizes


def _expansion(f: SetFunction, kind: str) -> Expansion:
    bmap = BlockMap.from_sizes(f.ground, _block_sizes(f))
    values = _expanded_values(f, bmap, symmetric=kind == QUANTOID_EXPANSION)
    return Expansion(map=bmap, expanded_fn=SetFunction(bmap.expanded, values), kind=kind)


def free_expand_polymatroid(h: SetFunction) -> Expansion:
    """Free expansion of an integer polymatroid; the result is a matroid."""
    _require_integer(h, MATROID_EXPANSION)
    return _expansion(h, MATROID_EXPANSION)


def free_expand_polyquantoid(e: SetFunction) -> Expansion:
    """Free expansion of an integer polyquantoid; the result is a quantoid."""
    _require_integer(e, QUANTOID_EXPANSION)
    return _expansion(e, QUANTOID_EXPANSION)


def two_factor(h: SetFunction) -> Expansion:
    """Pair consecutive copies of a free expansion into two-element blocks.

    Requires every singleton value of h to be even.  The returned function
    lives on the blocks (labeled "<label>.<k>", k indexing pairs) and takes
    the expansion's value on the union of the chosen blocks.
    """
    _require_integer(h, MATROID_EXPANSION)
    for i in range(h.n):
        if int(h.values[1 << i]) % 2:
            raise OddSingletonValue(h.labels[i])
    return _two_factor(h)


def _two_factor(h: SetFunction) -> Expansion:
    inner = _expansion(h, MATROID_EXPANSION)
    pair_blocks = tuple(
        tuple(f"{label}.{k}" for k in range(int(h.values[1 << i]) // 2))
        for i, label in enumerate(h.labels)
    )
    bmap = BlockMap(source=h.ground, blocks=pair_blocks,
                    expanded=GroundSet(tuple(itertools.chain.from_iterable(pair_blocks))))

    # block k of source element i covers copies i.(2k) and i.(2k+1)
    pair_masks = []
    offset = 0
    for i in range(h.n):
        width = int(h.values[1 << i])
        for k in range(width // 2):
            pair_masks.append(0b11 << (offset + 2 * k))
        offset += width

    inner_values = inner.expanded_fn.values
    values = []
    for M in range(1 << bmap.expanded.n):
        union = 0
        for j in range(len(pair_masks)):
            if M >> j & 1:
                union |= pair_masks[j]
        values.append(inner_values[union])
    return Expansion(map=bmap, expanded_fn=SetFunction(bmap.expanded, tuple(values)),
                     kind=TWO_FACTOR)


def expansion_correspondence_holds(e: SetFunction) -> bool:
    """Cross-check the two expansion routes of an integer polyquantoid.

    Route one expands e directly to a quantoid.  Route two maps e to its
    polymatroid partner, freely expands that, takes the 2-factor on the
    same block labels, and maps back.  The two must agree value for value.
    """
    _require_integer(e, QUANTOID_EXPANSION)
    direct = _expansion(e, QUANTOID_EXPANSION)
    # the partner is an integer polymatroid with even singletons 2 e(i)
    factored = _two_factor(to_polymatroid(e))
    return to_polyquantoid(factored.expanded_fn) == direct.expanded_fn
