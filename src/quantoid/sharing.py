"""Ideal secret-sharing analysis on polymatroids and polyquantoids.

A dealer element is *perfect* when revealing it to any coalition either
gives full information or none: in a polymatroid h the increment
h(dealer+I) - h(I) must equal h(dealer) or 0 for every coalition I, and in
a polyquantoid e it must equal e(dealer) or -e(dealer).  Coalitions hitting
the second value are *authorized*.  A participant is *essential* when some
authorized coalition stops being authorized without it, and the dealer is
*ideal* when every participant is essential and carries the dealer's rank.

The flags come from the dealer's increment h(dealer+I) - h(I) on every
coalition I, in ascending order, on the integer table classify also
reads, and each flag compares it, or compares every coalition with
those one element smaller.  One pass flags a batch of dealers, every
array with one row per dealer.  On a validated function the increment
never grows as a coalition grows (submodularity) and never falls below
the authorized value, so the authorized family is upward closed: a
coalition is minimal exactly when no coalition one element smaller is
authorized.  Circuits, the minimal dependent sets, are found the same way.

The batching follows quantoid.setfn's one size rule, _GATHER_UP_TO = 8.
analyze_sharing (and the extractions) flag every dealer of a function
with at most 8 elements in one pass on the first request, gathering the
increments of every dealer at once, and keep the flags on the
SetFunction, one tuple per kind (at most 2 * 8 * 128 masks a kind).  A
larger function gathers the increment of the requested dealer alone,
and flags it, each time: a pass over every dealer would cost n rows per
request, about 3 ms at n = 12.  The index plans (_one_smaller,
_coalition_rows, _singleton_masks) live in quantoid.setfn, built once
per n.  analyze_sharing names each family of coalitions with one map
over the ground set's member tuples (GroundSet._subset_members), built
once per ground set, and only when a family is not empty.

Ideal dealers force matroid structure: the polymatroid is a positive
multiple of a matroid rank function, which extract_matroid recovers; for
polyquantoids the matroid is additionally tight and selfdual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Sequence

import numpy as np

from .correspondence import to_polymatroid
from .errors import NotAMatroid, NotIdeal, NotOfKind
from .setfn import (
    _GATHER_UP_TO,
    POLYMATROID,
    POLYQUANTOID,
    SetFunction,
    _coalition_rows,
    _gains,
    _halves,
    _increments,
    _one_smaller,
    _show,
    _singleton_masks,
    _top_gains,
    classify,
    scale,
)


@dataclass(frozen=True)
class SharingReport:
    """Per-dealer analysis; families are tuples of member-label tuples."""

    dealer: str
    perfect: bool
    authorized: tuple
    minimal_authorized: tuple
    essential: tuple
    ideal: bool
    extraction: tuple | None  # (t, rank SetFunction) present iff ideal


@dataclass(frozen=True)
class MatroidStructure:
    """Circuits, loops, coloops, and connectivity of a matroid rank function."""

    rank: SetFunction
    circuits: tuple
    loops: tuple
    coloops: tuple
    connected: bool


class _Flags(NamedTuple):
    perfect: bool
    authorized: tuple  # coalition masks, ascending
    minimal: tuple
    essential: tuple  # element indices, ascending
    ideal: bool
    imperfect: int | None  # first coalition whose increment is neither allowed value


def _flag_rows(f: SetFunction, dealers: Sequence[int], quantum: bool) -> tuple:
    """The _Flags of each dealer index in dealers, in one pass: every array
    has a leading axis with one row per dealer."""
    a, _ = f._scaled_table
    n = f.n
    rows = np.array(list(dealers), dtype=np.int64)
    coalitions = _coalition_rows(n)[rows]
    singletons = _singleton_masks(n)[0]
    singles = a.take(singletons)
    secret = singles[rows][:, None]
    inc = _gains(a, coalitions, singletons[rows])  # each dealer's increment
    authorized = inc == (-secret if quantum else 0)
    full_info = inc == secret
    allowed = authorized | full_info
    perfect = allowed.all(axis=1)
    first = allowed.argmin(axis=1)  # each dealer's first coalition not allowed, if any

    # bit p of a coalition's index is the p-th element other than the dealer;
    # take gathers along the rows about twice as fast as authorized[:, below]
    below, smaller = _one_smaller(n - 1)
    minimal = authorized & ~(authorized.take(below, axis=1) & smaller).any(axis=2)
    hits = (authorized[:, :, None] & smaller & full_info.take(below, axis=1)).any(axis=1)
    same = (singles == secret).all(axis=1)  # singletons equal the secret
    ideal = perfect & hits.all(axis=1) & same
    return tuple(
        _Flags(perf, tuple(compress(masks, auth)), tuple(compress(masks, mini)),
               tuple(compress([j for j in range(n) if j != i], hit)), ok,
               None if perf else masks[at])
        for i, masks, auth, mini, hit, perf, ok, at in zip(
            rows.tolist(), coalitions.tolist(), authorized.tolist(), minimal.tolist(),
            hits.tolist(), perfect.tolist(), ideal.tolist(), first.tolist()))


def _not_ideal_reason(f: SetFunction, dealer_idx: int, flags: _Flags) -> str:
    """The first clause of ideal that fails; flags.ideal is false, so one of
    the three returns."""
    g = f.ground
    dealer = g.labels[dealer_idx]
    dbit = 1 << dealer_idx
    secret = f.values[dbit]
    if not flags.perfect:
        m = flags.imperfect
        return (f"dealer {dealer!r} is not perfect: increment "
                f"{_show(f.values[m | dbit] - f.values[m])} on coalition {{{g.key_of(m)}}}")
    for i in range(f.n):
        if i != dealer_idx and i not in flags.essential:
            return f"element {g.labels[i]!r} is not essential for dealer {dealer!r}"
    for i in range(f.n):
        if i != dealer_idx and f.values[1 << i] != secret:
            return (f"element {g.labels[i]!r} has value {_show(f.values[1 << i])}, "
                    f"dealer {dealer!r} has {_show(secret)}")


def _validated_flags(f: SetFunction, dealer, kind: str) -> tuple:
    """Validate f as `kind` with its one classify; return (dealer index, flags)."""
    if kind not in (POLYMATROID, POLYQUANTOID):
        raise ValueError(f"unknown kind {kind!r}")
    cls = classify(f)
    if not (cls.polymatroid if kind == POLYMATROID else cls.polyquantoid):
        raise NotOfKind(f"not a {kind}")
    idx = f.ground.index_of(dealer)
    quantum = kind == POLYQUANTOID
    if f.n > _GATHER_UP_TO:
        return idx, _flag_rows(f, [idx], quantum)[0]
    if (every := f._dealer_flags.get(kind)) is None:
        every = f._dealer_flags[kind] = _flag_rows(f, range(f.n), quantum)
    return idx, every[idx]


def _extraction(f: SetFunction, idx: int, quantum: bool) -> tuple:
    # f is validated and dealer idx is ideal, so the polymatroid h (f, or the
    # to_polymatroid partner of a polyquantoid) is t times a matroid rank
    h = to_polymatroid(f) if quantum else f
    a, den = h._scaled_table
    t = Fraction(int(a[1 << idx]), den) or Fraction(1)  # a zero dealer makes h zero; take t = 1
    return t, scale(h, 1 / t)


def analyze_sharing(f: SetFunction, dealer, kind: str = POLYMATROID) -> SharingReport:
    """Full sharing analysis of one dealer; f must pass classify for `kind`."""
    idx, flags = _validated_flags(f, dealer, kind)
    extraction = _extraction(f, idx, kind == POLYQUANTOID) if flags.ideal else None
    # the member tuples are built only for a family that has a coalition
    authorized, minimal = (tuple(map(f.ground._subset_members.__getitem__, masks))
                           if masks else () for masks in (flags.authorized, flags.minimal))

    return SharingReport(
        dealer=f.ground.labels[idx],
        perfect=flags.perfect,
        authorized=authorized,
        minimal_authorized=minimal,
        essential=tuple(f.ground.labels[i] for i in flags.essential),
        ideal=flags.ideal,
        extraction=extraction,
    )


def _checked_extraction(f: SetFunction, dealer, kind: str) -> tuple:
    idx, flags = _validated_flags(f, dealer, kind)
    if not flags.ideal:
        raise NotIdeal(_not_ideal_reason(f, idx, flags))
    return _extraction(f, idx, kind == POLYQUANTOID)


def extract_matroid(h: SetFunction, dealer) -> tuple:
    """Write a polymatroid with an ideal dealer as t * (matroid rank), t > 0.

    Returns (t, rank).  When h(dealer) > 0, t = h(dealer); when
    h(dealer) = 0 the whole function is zero and t = 1 is chosen.
    """
    return _checked_extraction(h, dealer, POLYMATROID)


def extract_selfdual_matroid(e: SetFunction, dealer) -> tuple:
    """Write a polyquantoid with an ideal dealer as t * to_polyquantoid(rank).

    The rank function is a tight selfdual matroid, obtained by extracting
    from the to_polymatroid partner.  Returns (t, rank).
    """
    return _checked_extraction(e, dealer, POLYQUANTOID)


def _matroid_circuits(r: SetFunction) -> np.ndarray:
    """The circuit masks of r, ascending; NotAMatroid unless r is a matroid."""
    if not classify(r).matroid:
        raise NotAMatroid(f"values on {r.labels}")
    # circuits are the minimal dependent sets, those of rank below their size
    below, smaller = _one_smaller(r.n)
    dependent = r._scaled_table[0] < smaller.sum(axis=1)
    return np.flatnonzero(dependent & ~(dependent[below] & smaller).any(axis=1))


def matroid_structure(r: SetFunction) -> MatroidStructure:
    """Circuits, loops, coloops, connectivity, all read off the integer
    table, which for a matroid holds the ranks themselves: the circuits
    from every subset, a loop where a singleton has rank 0 and a coloop
    where r(N) - r(N - i) = 1.

    Convention for connectivity (the degenerate cases are a documented
    choice): the empty matroid is connected; a single element is connected
    iff it is not a loop; with two or more elements, connected means every
    pair of distinct elements lies in a common circuit.
    """
    circuits = _matroid_circuits(r)
    a = r._scaled_table[0]  # a matroid's den is 1: the table holds the ranks
    n = r.n
    loops = a.take(_singleton_masks(n)[0]) == 0  # loops[i]: element i has rank 0

    if n == 1:
        connected = not loops[0]
    else:  # every pair lies in a common circuit: the circuits through i cover N,
        # which holds vacuously for the empty matroid
        connected = all(np.bitwise_or.reduce(circuits[circuits >> i & 1 == 1], initial=0)
                        == r.full_mask for i in range(n))

    return MatroidStructure(
        rank=r,
        circuits=tuple(map(r.ground.members, circuits.tolist())),
        loops=tuple(compress(r.labels, loops)),
        coloops=tuple(compress(r.labels, _top_gains(a, n) == 1)),
        connected=connected,
    )


def access_from_circuits(r: SetFunction, dealer) -> tuple:
    """Coalitions I (subsets of N minus the dealer) such that some circuit
    through the dealer fits inside dealer+I.  For matroids this is exactly
    the authorized family of the dealer."""
    circuits = _matroid_circuits(r)
    idx = r.ground.index_of(dealer)
    dbit = 1 << idx
    # the upward closure of the circuits through the dealer, one OR per
    # element, read at dealer+I for every coalition I
    closure = np.zeros(1 << r.n, dtype=bool)
    closure[circuits[circuits & dbit != 0]] = True
    for without, with_i in _increments(closure, r.n):
        with_i |= without
    family = _coalition_rows(r.n)[idx][_halves(closure, dbit)[1].ravel()]
    return tuple(map(r.ground.members, family.tolist()))
