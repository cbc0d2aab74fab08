"""Entropy-function constructors.

Two ways to produce a set function on a party set: Shannon entropies of
the marginals of a joint distribution (always an approximate polymatroid),
and von Neumann entropies of the reductions of a multiparty pure state
(always an approximate polyquantoid; purity gives the complementarity).

These are the only floating-point surfaces of the package.  Outputs carry
a tolerance and can be snapped onto exact rationals to enter the exact
pipeline.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    NotNormalized,
    SnapFailed,
)
from .setfn import GroundSet, SetFunction

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ApproxSetFunction:
    """Float-valued set function with an attached tolerance."""

    ground: GroundSet
    values: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if len(self.values) != 1 << self.ground.n:
            raise DimensionMismatch(
                f"expected {1 << self.ground.n} values, got {len(self.values)}")
        values = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in values):
            raise InvalidDistribution("non-finite value")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.ground.n

    def __getitem__(self, mask: int) -> float:
        return self.values[mask]


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over a product alphabet, row-major, last party fastest."""

    parties: GroundSet
    alphabet_sizes: tuple
    probs: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        sizes = _sizes_per_party(self.alphabet_sizes, self.parties.n, InvalidDistribution,
                                 "alphabet sizes must be positive integers, one per party")
        object.__setattr__(self, "alphabet_sizes", sizes)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != math.prod(sizes):
            raise InvalidDistribution(
                f"expected {math.prod(sizes)} probabilities, got {len(probs)}")
        if not all(math.isfinite(p) for p in probs):
            raise InvalidDistribution("non-finite probability")
        if any(p < 0 for p in probs):
            raise InvalidDistribution("negative mass")
        total = math.fsum(probs)
        if abs(total - 1.0) > self.tol:
            raise InvalidDistribution(f"total mass {total!r} is not 1")


@dataclass(frozen=True)
class PureState:
    """Unit vector on a tensor product of finite-dimensional party spaces.

    Amplitudes are complex, in lexicographic basis order with the last
    party's index varying fastest.
    """

    parties: GroundSet
    dims: tuple
    amplitudes: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        dims = _sizes_per_party(self.dims, self.parties.n, DimensionMismatch,
                                "dimensions must be positive integers, one per party")
        object.__setattr__(self, "dims", dims)
        amps = tuple(complex(a) for a in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if len(amps) != math.prod(dims):
            raise DimensionMismatch(
                f"expected {math.prod(dims)} amplitudes, got {len(amps)}")
        if not all(cmath.isfinite(a) for a in amps):
            raise NotNormalized("non-finite amplitude")
        norm2 = math.fsum(abs(a) ** 2 for a in amps)
        if abs(norm2 - 1.0) > self.tol:
            raise NotNormalized(f"squared norm {norm2!r} is not 1")


def _sizes_per_party(raw, n: int, error: type, message: str) -> tuple:
    try:
        sizes = tuple(operator.index(s) for s in raw)
    except TypeError:
        raise error(message) from None
    if (len(sizes) != n or any(s < 1 for s in sizes)
            or any(isinstance(s, bool) for s in raw)):
        raise error(message)
    return sizes


def _entropy_of(probabilities, base: float) -> float:
    lam = np.asarray(probabilities, dtype=float)
    lam = lam[lam > 0]
    if lam.size == 0:
        return 0.0
    return float(-(lam * np.log(lam)).sum() / math.log(base)) + 0.0  # avoid -0.0


def shannon_entropy_function(dist: JointDistribution, *, base: float = 2.0) -> ApproxSetFunction:
    """Entropy of the marginal on every subset of parties (0 log 0 = 0)."""
    arr = np.asarray(dist.probs, dtype=float).reshape(dist.alphabet_sizes)
    n = dist.parties.n
    values = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        drop = tuple(i for i in range(n) if not mask >> i & 1)
        marginal = arr.sum(axis=drop) if drop else arr
        values[mask] = _entropy_of(marginal.reshape(-1), base)
    return ApproxSetFunction(dist.parties, tuple(values), tol=dist.tol)


def reduced_spectrum(state: PureState, members: Iterable) -> tuple:
    """Ascending eigenvalues of the state's reduction onto the given parties.

    The complement parties are traced out of the rank-one projector; the
    eigensolve is Hermitian, so the spectrum is real and sums to 1 up to
    rounding.
    """
    mask = state.parties.mask_of(members)
    return _spectrum(state, mask)


def _spectrum(state: PureState, mask: int) -> tuple:
    n = state.parties.n
    psi = np.asarray(state.amplitudes, dtype=complex).reshape(state.dims)
    keep = [i for i in range(n) if mask >> i & 1]
    drop = [i for i in range(n) if not mask >> i & 1]
    dim_keep = math.prod(state.dims[i] for i in keep) if keep else 1
    matrix = psi.transpose(keep + drop).reshape(dim_keep, -1)
    rho = matrix @ matrix.conj().T
    return tuple(float(x) for x in np.linalg.eigvalsh(rho))


def von_neumann_entropy_function(state: PureState, *, base: float = 2.0) -> ApproxSetFunction:
    """Entropy of the reduced density operator on every subset of parties."""
    n = state.parties.n
    values = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        values[mask] = _entropy_of(_spectrum(state, mask), base)
    return ApproxSetFunction(state.parties, tuple(values), tol=state.tol)


def snap_to_rational(f: ApproxSetFunction, max_denominator: int) -> SetFunction:
    """Replace each value by the nearest rational with a bounded denominator.

    Fails if any value sits farther than the function's tolerance from its
    snap target.
    """
    if max_denominator < 1:
        raise SnapFailed(f"max_denominator {max_denominator} is not at least 1")
    out = []
    for mask, v in enumerate(f.values):
        target = Fraction(v).limit_denominator(max_denominator)
        if abs(v - target) > f.tol:
            key = f.ground.key_of(mask)
            raise SnapFailed(
                f"{{{key}}}: {v!r} is not within {f.tol} of a rational "
                f"with denominator <= {max_denominator}")
        out.append(target)
    return SetFunction(f.ground, tuple(out))


def is_approx_polymatroid(f: ApproxSetFunction) -> bool:
    """Normalized, nondecreasing, and submodular, all within the tolerance."""
    v = f.values
    n = f.n
    if abs(v[0]) > f.tol:
        return False
    monotone = all(
        v[m ^ (1 << i)] <= v[m] + f.tol
        for m in range(1 << n) for i in range(n) if m >> i & 1
    )
    return monotone and _approx_submodular(f)


def is_approx_polyquantoid(f: ApproxSetFunction) -> bool:
    """Normalized, complementary, and submodular, all within the tolerance."""
    v = f.values
    full = (1 << f.n) - 1
    if abs(v[0]) > f.tol:
        return False
    complementary = all(abs(v[m] - v[full ^ m]) <= f.tol for m in range(1 << f.n))
    return complementary and _approx_submodular(f)


def _approx_submodular(f: ApproxSetFunction) -> bool:
    v = f.values
    size = 1 << f.n
    return all(
        v[i] + v[j] >= v[i | j] + v[i & j] - f.tol
        for i in range(size) for j in range(i, size)
    )
