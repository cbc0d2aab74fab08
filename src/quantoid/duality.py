"""Singleton-preserving duality of set functions.

The dual of a set function f on ground set N is

    f'(I) = f(N\\I) + f({}) - f(N) + sum over i in I of
            [f(i) - f({}) + f(N) - f(N\\i)]

It is an involution on all set functions, conserves values on singletons,
and differs from classical matroid duality (which is not implemented here).
"""

from __future__ import annotations

from fractions import Fraction

from .setfn import SetFunction, _from_scaled, _top_gains


def dual(f: SetFunction) -> SetFunction:
    """Apply the duality mapping; total on every set function, computed exactly."""
    return _from_scaled(f.ground, f._dual_table, Fraction(1, f._scaled_table[1]))


def is_tight(f: SetFunction) -> bool:
    """True when dropping any single element does not change the total value."""
    return bool((_top_gains(f._scaled_table[0], f.n) == 0).all())


def is_selfdual(f: SetFunction) -> bool:
    """True when f is a fixed point of the duality mapping (exact comparison)."""
    return bool((f._dual_table == f._scaled_table[0]).all())
