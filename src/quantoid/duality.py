"""Singleton-preserving duality of set functions.

The dual of a set function f on ground set N is

    f'(I) = f(N\\I) + f({}) - f(N) + sum over i in I of
            [f(i) - f({}) + f(N) - f(N\\i)]

It is an involution on all set functions, conserves values on singletons,
and differs from classical matroid duality (which is not implemented here).
"""

from __future__ import annotations

from fractions import Fraction

from .setfn import SetFunction, _dual, _from_scaled, _scaled, _selfdual, _tight


def dual(f: SetFunction) -> SetFunction:
    """Apply the duality mapping; total on every set function, computed exactly."""
    a, den = _scaled(f.values)
    return _from_scaled(f.ground, _dual(a, f.n), Fraction(1, den))


def is_tight(f: SetFunction) -> bool:
    """True when dropping any single element does not change the total value."""
    return _tight(f.values, f.n)


def is_selfdual(f: SetFunction) -> bool:
    """True when f is a fixed point of the duality mapping (exact comparison)."""
    return _selfdual(_scaled(f.values)[0], f.n)
