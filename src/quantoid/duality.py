"""Singleton-preserving duality of set functions.

The dual of a set function f on ground set N is

    f'(I) = f(N\\I) + f({}) - f(N) + sum over i in I of
            [f(i) - f({}) + f(N) - f(N\\i)]

It is an involution on all set functions, conserves values on singletons,
and differs from classical matroid duality (which is not implemented here).
"""

from __future__ import annotations

from .setfn import SetFunction, modular_sums


def dual(f: SetFunction) -> SetFunction:
    """Apply the duality mapping; total on every set function, computed exactly."""
    v = f.values
    n = f.n
    full = f.full_mask
    size = 1 << n

    gain = [v[1 << i] - v[0] + v[full] - v[full ^ (1 << i)] for i in range(n)]
    gain_sum = modular_sums(gain)
    base = v[0] - v[full]
    out = tuple(v[full ^ m] + base + gain_sum[m] for m in range(size))
    return SetFunction(f.ground, out)


def is_tight(f: SetFunction) -> bool:
    """True when dropping any single element does not change the total value."""
    v = f.values
    full = f.full_mask
    return all(v[full ^ (1 << i)] == v[full] for i in range(f.n))


def is_selfdual(f: SetFunction) -> bool:
    """True when f is a fixed point of the duality mapping (exact comparison)."""
    return dual(f).values == f.values
