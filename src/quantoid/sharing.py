"""Ideal secret-sharing analysis on polymatroids and polyquantoids.

A dealer element is *perfect* when revealing it to any coalition either
gives full information or none: in a polymatroid h the increment
h(dealer+I) - h(I) must equal h(dealer) or 0 for every coalition I, and in
a polyquantoid e it must equal e(dealer) or -e(dealer).  Coalitions hitting
the second value are *authorized*.  A participant is *essential* when some
authorized coalition stops being authorized without it, and the dealer is
*ideal* when every participant is essential and carries the dealer's rank.

Ideal dealers force matroid structure: the polymatroid is a positive
multiple of a matroid rank function, which extract_matroid recovers; for
polyquantoids the matroid is additionally tight and selfdual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .correspondence import to_polymatroid
from .errors import NotAMatroid, NotIdeal, NotOfKind
from .setfn import POLYMATROID, POLYQUANTOID, SetFunction, classify, scale, submasks


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


def _sharing_flags(f: SetFunction, dealer_bit: int, quantum: bool) -> _Flags:
    v = f.values
    full = f.full_mask
    secret = v[dealer_bit]
    authorized_target = -secret if quantum else Fraction(0)

    perfect = True
    authorized = []
    for m in submasks(full ^ dealer_bit):
        inc = v[m | dealer_bit] - v[m]
        if inc == authorized_target:
            authorized.append(m)
        elif inc != secret:
            perfect = False

    # f is validated, so the authorized family is upward closed (the
    # increment shrinks as coalitions grow) and one step down decides
    # minimality
    authorized_set = set(authorized)
    minimal = [
        m for m in authorized
        if not any(m >> i & 1 and m ^ (1 << i) in authorized_set for i in range(f.n))
    ]

    essential = []
    for i in range(f.n):
        bit = 1 << i
        if bit == dealer_bit:
            continue
        if any(m & bit and v[(m ^ bit) | dealer_bit] - v[m ^ bit] == secret
               for m in authorized):
            essential.append(i)

    ideal = (
        perfect
        and len(essential) == f.n - 1
        and all(v[1 << i] == secret for i in essential)
    )
    return _Flags(perfect, tuple(authorized), tuple(minimal), tuple(essential), ideal)


def _not_ideal_reason(f: SetFunction, dealer_idx: int, flags: _Flags, quantum: bool) -> str:
    g = f.ground
    dealer = g.labels[dealer_idx]
    dbit = 1 << dealer_idx
    secret = f.values[dbit]
    if not flags.perfect:
        allowed = (secret, -secret) if quantum else (secret, Fraction(0))
        for m in submasks(f.full_mask ^ dbit):
            inc = f.values[m | dbit] - f.values[m]
            if inc not in allowed:
                return (f"dealer {dealer!r} is not perfect: "
                        f"increment {inc} on coalition {{{g.key_of(m)}}}")
    for i in range(f.n):
        if i != dealer_idx and i not in flags.essential:
            return f"element {g.labels[i]!r} is not essential for dealer {dealer!r}"
    for i in range(f.n):
        if i != dealer_idx and f.values[1 << i] != secret:
            return (f"element {g.labels[i]!r} has value {f.values[1 << i]}, "
                    f"dealer {dealer!r} has {secret}")
    return "not ideal"


def _members_of(f: SetFunction, masks) -> tuple:
    return tuple(f.ground.members(m) for m in masks)


def _validated_flags(f: SetFunction, dealer, kind: str) -> tuple:
    """Validate f as `kind` with its one classify; return (dealer index, flags)."""
    if kind not in (POLYMATROID, POLYQUANTOID):
        raise ValueError(f"unknown kind {kind!r}")
    cls = classify(f)
    if not (cls.polymatroid if kind == POLYMATROID else cls.polyquantoid):
        raise NotOfKind(kind)
    idx = f.ground.index_of(dealer)
    return idx, _sharing_flags(f, 1 << idx, kind == POLYQUANTOID)


def _extraction(f: SetFunction, idx: int, quantum: bool) -> tuple:
    # f is validated and dealer idx is ideal, so the polymatroid h (f, or the
    # to_polymatroid partner of a polyquantoid) is t times a matroid rank
    h = to_polymatroid(f) if quantum else f
    t = h.values[1 << idx]
    if t == 0:
        # all singletons equal the dealer's 0, so the polymatroid h is 0
        return Fraction(1), h
    return t, scale(h, 1 / t)


def analyze_sharing(f: SetFunction, dealer, kind: str = POLYMATROID) -> SharingReport:
    """Full sharing analysis of one dealer; f must pass classify for `kind`."""
    idx, flags = _validated_flags(f, dealer, kind)
    extraction = _extraction(f, idx, kind == POLYQUANTOID) if flags.ideal else None

    return SharingReport(
        dealer=f.ground.labels[idx],
        perfect=flags.perfect,
        authorized=_members_of(f, flags.authorized),
        minimal_authorized=_members_of(f, flags.minimal),
        essential=tuple(f.ground.labels[i] for i in flags.essential),
        ideal=flags.ideal,
        extraction=extraction,
    )


def extract_matroid(h: SetFunction, dealer) -> tuple:
    """Write a polymatroid with an ideal dealer as t * (matroid rank), t > 0.

    Returns (t, rank).  When h(dealer) > 0, t = h(dealer); when
    h(dealer) = 0 the whole function is zero and t = 1 is chosen.
    """
    idx, flags = _validated_flags(h, dealer, POLYMATROID)
    if not flags.ideal:
        raise NotIdeal(_not_ideal_reason(h, idx, flags, quantum=False))
    return _extraction(h, idx, quantum=False)


def extract_selfdual_matroid(e: SetFunction, dealer) -> tuple:
    """Write a polyquantoid with an ideal dealer as t * to_polyquantoid(rank).

    The rank function is a tight selfdual matroid, obtained by extracting
    from the to_polymatroid partner.  Returns (t, rank).
    """
    idx, flags = _validated_flags(e, dealer, POLYQUANTOID)
    if not flags.ideal:
        raise NotIdeal(_not_ideal_reason(e, idx, flags, quantum=True))
    return _extraction(e, idx, quantum=True)


def _circuit_masks(r: SetFunction) -> tuple:
    v = r.values
    circuits = []
    for m in range(1, (1 << r.n)):
        size = m.bit_count()
        if v[m] >= size:
            continue  # independent or larger-rank set
        minimal = True
        mm = m
        while mm:
            bit = mm & -mm
            if v[m ^ bit] < size - 1:
                minimal = False
                break
            mm ^= bit
        if minimal:
            circuits.append(m)
    return tuple(circuits)


def matroid_structure(r: SetFunction) -> MatroidStructure:
    """Circuits, loops, coloops, connectivity -- all by enumerating every subset.

    Convention for connectivity (the degenerate cases are a documented
    choice): the empty matroid is connected; a single element is connected
    iff it is not a loop; with two or more elements, connected means every
    pair of distinct elements lies in a common circuit.
    """
    if not classify(r).matroid:
        raise NotAMatroid(f"values on {r.labels}")
    v = r.values
    n = r.n
    full = r.full_mask

    circuits = _circuit_masks(r)
    loops = tuple(i for i in range(n) if v[1 << i] == 0)
    coloops = tuple(i for i in range(n) if v[full] - v[full ^ (1 << i)] == 1)

    if n == 0:
        connected = True
    elif n == 1:
        connected = not loops
    else:
        connected = all(
            any(c >> i & 1 and c >> j & 1 for c in circuits)
            for i in range(n) for j in range(i + 1, n)
        )

    labels = r.ground.labels
    return MatroidStructure(
        rank=r,
        circuits=tuple(r.ground.members(c) for c in circuits),
        loops=tuple(labels[i] for i in loops),
        coloops=tuple(labels[i] for i in coloops),
        connected=connected,
    )


def access_from_circuits(r: SetFunction, dealer) -> tuple:
    """Coalitions I (subsets of N minus the dealer) such that some circuit
    through the dealer fits inside dealer+I.  For matroids this is exactly
    the authorized family of the dealer."""
    if not classify(r).matroid:
        raise NotAMatroid(f"values on {r.labels}")
    idx = r.ground.index_of(dealer)
    dbit = 1 << idx
    through = [c for c in _circuit_masks(r) if c & dbit]
    family = [
        m for m in submasks(r.full_mask ^ dbit)
        if any(c & ~(dbit | m) == 0 for c in through)
    ]
    return _members_of(r, family)
