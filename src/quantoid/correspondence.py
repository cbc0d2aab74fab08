"""Linear bijection between polyquantoids and tight selfdual polymatroids.

Two mutually inverse linear maps on set functions:

    to_polymatroid(e):  I -> e(I) + sum of e over the singletons of I
    to_polyquantoid(h): I -> h(I) - 1/2 * sum of h over the singletons of I

Restricted to polyquantoids, the first lands exactly on the tight selfdual
polymatroids, and the second inverts it.  Both maps are total: they are
defined on every set function, and classifying inputs/outputs is the
caller's job (see quantoid.setfn.classify).
"""

from __future__ import annotations

from fractions import Fraction

from .setfn import SetFunction, _from_scaled, _scaled, _singleton_sums


def to_polymatroid(e: SetFunction) -> SetFunction:
    """Add the singleton sum to every value (polyquantoid -> tight selfdual polymatroid)."""
    a, den = _scaled(e.values)
    return _from_scaled(e.ground, a + _singleton_sums(a, e.n), Fraction(1, den))


def to_polyquantoid(h: SetFunction) -> SetFunction:
    """Subtract half the singleton sum from every value; half-integers may appear."""
    a, den = _scaled(h.values)
    return _from_scaled(h.ground, 2 * a - _singleton_sums(a, h.n), Fraction(1, 2 * den))
