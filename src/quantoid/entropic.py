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
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    NotNormalized,
    SnapFailed,
)
from .setfn import (
    GroundSet,
    SetFunction,
    _gathered,
    _in_range,
    _increments,
    _show,
    _two_point_gains,
)

DEFAULT_TOL = 1e-9
LOW_BLOCK_CELLS = 243  # 3^5: five binary parties, each at a letter or summed out
SPECTRUM_BATCH = 1 << 14  # eigenvalues held before their entropies are summed: 128 KiB


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
        values = _numbers(self.values, float, InvalidDistribution, "value")
        if not _numbers((self.tol,), float, InvalidDistribution, "tol")[0] > 0:
            raise InvalidDistribution(f"tol {self.tol!r} is not positive")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.ground.n

    def __getitem__(self, mask: int) -> float:
        """The value on mask; a mask outside 0 .. 2^n - 1 is a ValueError."""
        return self.values[_in_range("mask", mask, len(self.values), self.n)]


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over a product alphabet, row-major, last party fastest."""

    parties: GroundSet
    alphabet_sizes: tuple
    probs: tuple

    def __post_init__(self):
        sizes = _sizes_per_party(self.alphabet_sizes, self.parties.n, InvalidDistribution,
                                 "alphabet sizes must be positive integers, one per party")
        object.__setattr__(self, "alphabet_sizes", sizes)
        if len(self.probs) != math.prod(sizes):
            raise InvalidDistribution(
                f"expected {math.prod(sizes)} probabilities, got {len(self.probs)}")
        probs = _numbers(self.probs, float, InvalidDistribution, "probability")
        object.__setattr__(self, "probs", probs)
        if min(probs) < 0:
            raise InvalidDistribution("negative mass")
        total = _total(probs)
        if abs(total - 1.0) > DEFAULT_TOL:
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

    def __post_init__(self):
        dims = _sizes_per_party(self.dims, self.parties.n, DimensionMismatch,
                                "dimensions must be positive integers, one per party")
        object.__setattr__(self, "dims", dims)
        if len(self.amplitudes) != math.prod(dims):
            raise DimensionMismatch(
                f"expected {math.prod(dims)} amplitudes, got {len(self.amplitudes)}")
        amps = _numbers(self.amplitudes, complex, NotNormalized, "amplitude")
        object.__setattr__(self, "amplitudes", amps)
        norm2 = _total(map(pow, map(abs, amps), repeat(2)))
        if abs(norm2 - 1.0) > DEFAULT_TOL:
            raise NotNormalized(f"squared norm {norm2!r} is not 1")


def _numbers(raw, kind: type, error: type, what: str) -> tuple:
    """Each entry of raw as a finite float (kind float) or complex (kind
    complex).  Only numbers of that kind are read: never a bool or a
    string, which float() and complex() would otherwise convert.  A
    number beyond the float range counts as non-finite."""
    plain = {float, int} if kind is float else {complex, float, int}  # skips the slow ABC test
    accepted = numbers.Real if kind is float else numbers.Complex
    if not set(map(type, raw)) <= plain:
        for x in raw:
            if type(x) not in plain and (isinstance(x, (bool, np.bool_))
                                         or not isinstance(x, accepted)):
                raise error(f"{what} {x!r} is not a {'real' if kind is float else 'complex'} number")
    try:
        out = tuple(map(kind, raw))
        finite = all(map(cmath.isfinite, out))
    except OverflowError:  # an int or Fraction too large for a float
        finite = False
    if not finite:
        raise error(f"non-finite {what}")
    return out


def _total(terms) -> float:
    """math.fsum of the terms, or inf when they pass the float range:
    finite floats can, as a square (** past about 1.3e154) or as a sum,
    and both raise OverflowError there."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _sizes_per_party(raw, n: int, error: type, message: str) -> tuple:
    try:
        sizes = tuple(operator.index(s) for s in raw)
    except TypeError:
        raise error(message) from None
    if (len(sizes) != n or any(s < 1 for s in sizes)
            or any(isinstance(s, bool) for s in raw)):
        raise error(message)
    return sizes


def _base(base) -> float:
    """The logarithm base as a float: a finite real number > 0, other than 1."""
    b = _numbers((base,), float, InvalidDistribution, "base")[0]
    if not (b > 0 and b != 1):
        raise InvalidDistribution(f"base {base!r} is not a positive number other than 1")
    return b


def shannon_entropy_function(dist: JointDistribution, *, base: float = 2.0) -> ApproxSetFunction:
    """Entropy of the marginal on every subset of parties (0 log 0 = 0).

    The last parties whose alphabets, each grown by one, multiply to at
    most LOW_BLOCK_CELLS form the low block; the other parties are high.
    The high subsets are walked depth-first from the full table: each
    marginal is its parent's, one high party larger, with that party's
    axis summed out, so each high subset is reached once and the low
    block stays one flat last axis, never summed.  At each node one
    matrix product with the Kronecker product, over the low parties, of
    [1 | I_a] gives every marginal on the node's high parties and any
    subset of the low block: each low party either at one of its letters
    or summed out.  Column sums of q log q, grouped by the low parties a
    column keeps, are then the entropies of all such subsets.  Rows go
    through the product in chunks, so no chunk of the product is larger
    than the table.  f({}) is exactly 0.0.
    """
    log_base = math.log(_base(base))
    n, sizes = dist.parties.n, dist.alphabet_sizes
    high, cells = n, 1
    while high and cells * (sizes[high - 1] + 1) <= LOW_BLOCK_CELLS:
        high -= 1
        cells *= sizes[high] + 1
    # spread[x, j]: low cell x matches column j, whose low parties are each
    # at a letter or summed out; support[j]: the low parties column j keeps
    spread, support = np.ones((1, 1)), np.zeros(1, dtype=np.intp)
    for i, a in enumerate(sizes[high:]):
        spread = np.kron(spread, np.hstack([np.ones((a, 1)), np.eye(a)]))
        support = (support[:, None] | (np.arange(a + 1) > 0) << i).ravel()
    table = np.asarray(dist.probs, dtype=float)
    chunk = max(1, table.size // cells)  # rows per product: no q larger than the table
    out = np.empty((1 << n - high, 1 << high))  # out[t, m] is f(t << high | m)

    def visit(marginal: np.ndarray, mask: int, parties: tuple, start: int):
        # axis k < len(parties) of marginal holds high party parties[k]; the
        # last axis is the low block; only axes >= start may drop
        rows = marginal.reshape(-1, spread.shape[0])
        xlogx = np.zeros(cells)
        for r in range(0, len(rows), chunk):
            q = rows[r:r + chunk] @ spread
            xlogx += (q * np.log(q, out=np.zeros_like(q), where=q > 0)).sum(axis=0)
        out[:, mask] = np.bincount(support, xlogx, len(out)) / -log_base + 0.0  # no -0.0
        for k in range(start, len(parties)):
            visit(marginal.sum(axis=k), mask ^ 1 << parties[k],
                  parties[:k] + parties[k + 1:], k)

    visit(table.reshape(sizes[:high] + (-1,)), (1 << high) - 1, tuple(range(high)), 0)
    values = out.ravel()
    values[0] = 0.0
    return ApproxSetFunction(dist.parties, tuple(values.tolist()))


def reduced_spectrum(state: PureState, members: Iterable) -> tuple:
    """Ascending eigenvalues of the state's reduction onto the given parties.

    One eigenvalue per basis state of the kept parties: the complement is
    traced out of the rank-one projector, and the Hermitian eigensolve runs
    on the kept side whatever its size, so the spectrum is real, sums to 1
    up to rounding, and is zero beyond the Schmidt rank.  A state with no
    nonzero imaginary part is solved in real arithmetic.
    """
    mask = state.parties.mask_of(members)
    return tuple(np.linalg.eigvalsh(_gram(_amplitude_tensor(state), mask)).tolist())


def _amplitude_tensor(state: PureState) -> np.ndarray:
    """The amplitudes in an array of shape dims: real when no amplitude has
    a nonzero imaginary part, else complex."""
    psi = np.asarray(state.amplitudes, dtype=complex)
    if not psi.imag.any():
        psi = psi.real.copy()
    return psi.reshape(state.dims)


def _gram(psi: np.ndarray, mask: int) -> np.ndarray:
    """m @ m^H, the reduction onto the parties in mask, with m the amplitude
    tensor psi reshaped to (parties in mask, the other parties)."""
    keep = [i for i in range(psi.ndim) if mask >> i & 1]
    drop = [i for i in range(psi.ndim) if not mask >> i & 1]
    t = psi.transpose(keep + drop)
    m = t.reshape(math.prod(t.shape[:len(keep)]), -1)
    return m @ m.conj().T


def _entropies(spectra: list, log_base: float) -> np.ndarray:
    """The entropy of each spectrum in the list (0 log 0 = 0, never -0.0):
    one x log x over all of them and one segmented sum."""
    lam = np.concatenate(spectra)
    xlogx = lam * np.log(lam, out=np.zeros_like(lam), where=lam > 0)
    segment = np.repeat(np.arange(len(spectra)), list(map(len, spectra)))
    return np.bincount(segment, xlogx, len(spectra)) / -log_base + 0.0


def von_neumann_entropy_function(state: PureState, *, base: float = 2.0) -> ApproxSetFunction:
    """Entropy of the reduced density operator on every subset of parties.

    A pure state's reductions onto A and N-A have the same nonzero spectrum
    (the Schmidt decomposition), so each complementary pair {A, N-A} is
    solved once, on the side with the smaller dimension (product of party
    dims), and both masks get the same entropy: f(A) == f(N-A) exactly,
    and f({}) = f(N) = 0.0.  That is 2^(n-1) - 1 eigensolves for n >= 1.
    A state with no nonzero imaginary part is solved in real arithmetic.

    The solved sides are walked depth-first: a side's parent adds its
    lowest missing party, and a side whose parent is solved too is that
    parent's reduction with one party traced out.  Only the other sides
    take a Gram product of the amplitude matrix: the largest ones and, on
    an even number of qubits, those with party n-1 one below the balanced
    cut, whose parents hold party n-1 and are not solved.  Memory
    holds one path of reductions, and the spectra go through one x log x
    and one segmented sum per batch of SPECTRUM_BATCH eigenvalues.

    The cost follows the sum of d^3 over the solved sides, d the dimension
    of each, where the 6,435 balanced cuts of 16 qubits alone are
    eigensolves of 256 x 256 matrices; a real state's eigensolve takes
    0.4 times a complex state's at d = 256.  In process on one CPU, on
    random complex and real states: 0.24-0.27 and 0.14-0.15 s at 12
    qubits, 3.9-4.1 and 2.0-2.1 s at 14, 86-93 and 32-36 s at 16.  A
    16-qubit call peaks at 6.2 (complex) and 5.1 MiB (real) under
    tracemalloc.
    """
    log_base = math.log(_base(base))
    n, dims = state.parties.n, state.dims
    psi = _amplitude_tensor(state)
    full = (1 << n) - 1
    dim = np.ones(1, dtype=np.int64)  # dim[m]: the dimension of the parties in m
    for d in dims:
        dim = np.concatenate([dim, dim * d])
    masks = np.arange(1, (full + 1) >> 1)  # the masks without party n-1, one per pair
    sides = np.where(dim[masks] <= psi.size // dim[masks], masks, full ^ masks)
    solved = np.zeros(full + 1, dtype=bool)
    solved[sides] = True
    roots = sides[~solved[sides | ~sides & sides + 1]].tolist()
    prefix = [math.prod(dims[:i]) for i in range(n)]
    eigvalsh = np.linalg.eigvalsh
    values = np.zeros(full + 1)
    spectra, order, held = [], [], 0

    def visit(rho: np.ndarray, side: int, low: int):
        # parties 0 .. low-1 are in side; tracing out party i < low gives
        # the side whose lowest missing party is i
        nonlocal held
        spectra.append(eigvalsh(rho))
        order.append(side)
        held += len(rho)
        for i in range(low):
            if side != 1 << i:  # the empty side is not solved
                a, d = prefix[i], dims[i]
                b = len(rho) // (a * d)
                child = rho.reshape(a, d, b, a, d, b).trace(axis1=1, axis2=4)
                visit(child.reshape(a * b, a * b), side ^ 1 << i, i)

    for k, root in enumerate(roots, 1):
        visit(_gram(psi, root), root, (~root & root + 1).bit_length() - 1)
        if held >= SPECTRUM_BATCH or k == len(roots):
            at = np.array(order)
            values[at] = values[full ^ at] = _entropies(spectra, log_base)
            spectra, order, held = [], [], 0
    return ApproxSetFunction(state.parties, tuple(values.tolist()))


def snap_to_rational(f: ApproxSetFunction, max_denominator: int) -> SetFunction:
    """Replace each value by the nearest rational with a bounded denominator,
    found once per distinct value.

    Fails if any value sits farther than the function's tolerance from its
    snap target; the message names the first such value, then the worst
    residual and its subset.  The result carries its integer table from
    the start: only the distinct targets are scaled, as setfn.build does.
    """
    try:
        cap = operator.index(max_denominator)
    except TypeError:
        cap = None
    if cap is None or isinstance(max_denominator, bool):
        raise SnapFailed(f"max_denominator {_show(max_denominator)} is not an integer")
    if cap < 1:
        raise SnapFailed(f"max_denominator {_show(cap)} is not at least 1")
    target = {v: Fraction(v).limit_denominator(cap) for v in set(f.values)}
    residual = {v: abs(v - t) for v, t in target.items()}
    # (mask, residual) of each value farther than tol from its target
    off = [(mask, residual[v]) for mask, v in enumerate(f.values) if residual[v] > f.tol]
    if off:
        first = off[0][0]
        worst, largest = max(off, key=lambda item: item[1])
        raise SnapFailed(
            f"{{{f.ground.key_of(first)}}}: {f.values[first]!r} is not within {f.tol} of a "
            f"rational with denominator <= {cap}; worst residual "
            f"{largest!r} at {{{f.ground.key_of(worst)}}}")
    slot = {v: i for i, v in enumerate(target)}
    return _gathered(f.ground, list(target.values()), list(map(slot.__getitem__, f.values)))


def is_approx_polymatroid(f: ApproxSetFunction) -> bool:
    """Normalized, nondecreasing and submodular, each within f.tol.

    Each axiom is tested on the local inequalities setfn.classify uses,
    and each must hold within tol: |f({})| <= tol, f(S) <= f(S+i) + tol,
    and the two-point test f(S+b+c) + f(S) <= f(S+b) + f(S+c) + tol.  A
    pair (A, B) then holds within floor(n/2) * ceil(n/2) * tol, as its
    gap is the sum of |A-B| * |B-A| two-point gaps.
    """
    v = np.array(f.values)
    return (abs(f.values[0]) <= f.tol
            and all((lo <= hi + f.tol).all() for lo, hi in _increments(v, f.n))
            and _approx_submodular(v, f.n, f.tol))


def is_approx_polyquantoid(f: ApproxSetFunction) -> bool:
    """Normalized, complementary and submodular, each within f.tol.

    Within tol as in is_approx_polymatroid, with |f(S) - f(N-S)| <= tol
    for every S as the complement test.
    """
    v = np.array(f.values)
    return (abs(f.values[0]) <= f.tol
            and bool((abs(v - v[::-1]) <= f.tol).all())
            and _approx_submodular(v, f.n, f.tol))


def _approx_submodular(v: np.ndarray, n: int, tol: float) -> bool:
    # setfn._submodular's two-point test: the gain of b grows by at most
    # tol when c < b joins
    return all((at_sc <= at_s + tol).all() for at_sc, at_s in _two_point_gains(v, n))
