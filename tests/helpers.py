"""Shared fixtures: canonical rank functions, a random polymatroid source,
and slow reference oracles for the shortcuts the library takes."""

from dataclasses import replace
from fractions import Fraction
import itertools
import math
import random
import re

import numpy as np

from quantoid.entropic import ApproxSetFunction, _numbers
from quantoid.errors import MalformedDocument, NotNormalized
from quantoid.expansion import QUANTOID_EXPANSION, TWO_FACTOR, adapted_sets
from quantoid.setfn import (
    Classification,
    GroundSet,
    SetFunction,
    enumerate_rank_functions,
    from_table,
    scale,
    submasks,
)
from quantoid.sharing import MatroidStructure


def labels_for(n):
    return tuple(str(i + 1) for i in range(n))


def uniform(k, n, labels=None):
    """Rank function of the uniform matroid: min(|I|, k) on n elements."""
    return from_table(labels or labels_for(n),
                      [min(m.bit_count(), k) for m in range(1 << n)])


# Python 3.10's fractions._RATIONAL_FORMAT, copied: the value syntax
# as_rational reads on every supported Python, whatever the running
# interpreter's Fraction accepts besides.
RATIONAL_FORMAT_3_10 = re.compile(r"""
    \A\s*                      # optional whitespace at the start, then
    (?P<sign>[-+]?)            # an optional sign, then
    (?=\d|\.\d)                # lookahead for digit or .digit
    (?P<num>\d*)               # numerator (possibly empty)
    (?:                        # followed by
       (?:/(?P<denom>\d+))?    # an optional denominator
    |                          # or
       (?:\.(?P<decimal>\d*))? # an optional fractional part
       (?:E(?P<exp>[-+]?\d+))? # and optional exponent
    )
    \s*\Z                      # and optional whitespace to finish
""", re.VERBOSE | re.IGNORECASE)


def members_loops(g, mask):
    """The member labels of a mask, one bit at a time: the reference for
    GroundSet.members, which reads the cached member tuples."""
    return tuple(g.labels[i] for i in range(g.n) if mask >> i & 1)


def zero_fn(n, labels=None):
    return from_table(labels or labels_for(n), [0] * (1 << n))


def bell():
    """The polyquantoid (0; 1, 1; 0) on two elements."""
    return from_table(["1", "2"], [0, 1, 1, 0])


def ghz3():
    """The quantoid (0; 1,1,1; 1,1,1; 0) on three elements."""
    return from_table(["1", "2", "3"], [0, 1, 1, 1, 1, 1, 1, 0])


def q24():
    """The quantoid min(|I|, 4-|I|) on four elements."""
    return from_table(labels_for(4),
                      [min(m.bit_count(), 4 - m.bit_count()) for m in range(16)])


def e22():
    """The integer polyquantoid (0; 2, 2; 0) on two elements."""
    return from_table(["1", "2"], [0, 2, 2, 0])


def random_rational_polymatroid(rng: random.Random, n: int) -> SetFunction:
    """A random polymatroid with rational values: a nonnegative modular part
    plus a few scaled uniform-minor ranks w * min(|I & A|, r).  Each summand
    is normalized, nondecreasing, and submodular, hence so is the sum."""
    size = 1 << n
    table = [Fraction(0)] * size
    weights = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
    for m in range(size):
        table[m] = sum((weights[i] for i in range(n) if m >> i & 1), Fraction(0))
    for _ in range(rng.randint(1, 3)):
        area = rng.randrange(1, size)
        r = rng.randint(1, area.bit_count())
        w = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        for m in range(size):
            table[m] += w * min((m & area).bit_count(), r)
    return from_table(labels_for(n), table)


def kernel_corpus():
    """(function, kind) pairs: every enumerated polymatroid (n <= 3 with
    cap 3, n = 4 with cap 2) and polyquantoid (n <= 5, cap 2), random
    rational polymatroids with n <= 8, more tables with n = 1, and three
    whose values are past the int64 guard, so the kernel runs on Python ints."""
    cases = [(f, kind) for kind, n, cap in [("polymatroid", n, 3) for n in range(4)]
             + [("polymatroid", 4, 2)] + [("polyquantoid", n, 2) for n in range(6)]
             for f in enumerate_rank_functions(kind, n, cap)]
    rng = random.Random(2012)
    cases += [(random_rational_polymatroid(rng, n), "polymatroid")
              for n in range(1, 9) for _ in range(3)]
    cases += [(from_table(["1"], values), "polymatroid")
              for values in ([0, 0], [0, 1], [0, Fraction(5, 3)])]
    cases += [(scale(uniform(2, 4), Fraction(2**70 + 1, 3)), "polymatroid"),
              (scale(from_table(["1", "2"], [0, 2, 1, 2]), 2**70), "polymatroid"),
              (scale(q24(), 2**70), "polyquantoid")]
    return cases


def enumerate_rank_functions_unpruned(kind, n, cap):
    """enumerate_rank_functions without the Araki-Lieb lower bound: a
    polyquantoid mask below its complement may take any value from 0 up to
    its submodularity bound.  The same flat walk, so the same lazy,
    lexicographic sequence, reached through more dead branches."""
    ground = GroundSet(labels_for(n))
    full = (1 << n) - 1
    below = [[m ^ 1 << i for i in range(n) if m >> i & 1] for m in range(full + 1)]
    table = [0] * (full + 1)

    def choices(m):
        xs = below[m]  # the masks one element smaller
        hi = min([cap] + [table[x] + table[y] - table[x & y]
                          for x, y in itertools.combinations(xs, 2)])
        lo = max(map(table.__getitem__, xs)) if kind == "polymatroid" else 0
        if kind == "polyquantoid" and full ^ m < m:  # the complement's value is forced
            lo = table[full ^ m]
            hi = min(hi, lo)
        return range(lo, hi + 1)

    stack = [iter(range(1))]  # normalized
    while stack:
        m = len(stack) - 1
        table[m] = next(stack[-1], -1)  # values are nonnegative: -1 is "none left"
        if table[m] < 0:
            stack.pop()
        elif m == full:
            yield SetFunction(ground, tuple(map(Fraction, table)))
        else:
            stack.append(iter(choices(m + 1)))


def submodular_all_pairs(values, n):
    """Submodularity by its definition: every pair of subsets."""
    size = 1 << n
    for i in range(size):
        for j in range(i, size):
            if values[i] + values[j] < values[i | j] + values[i & j]:
                return False
    return True


def modular_sums_loops(weights):
    """For every subset mask of len(weights) elements, the sum of the
    weights of its members, one mask at a time."""
    sums = [Fraction(0)] * (1 << len(weights))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + weights[low.bit_length() - 1]
    return sums


def singleton_sums_loops(f):
    return modular_sums_loops([f.values[1 << i] for i in range(f.n)])


def dual_loops(f):
    """The duality mapping on Fractions, one mask at a time."""
    v = f.values
    full = f.full_mask
    gain = [v[1 << i] - v[0] + v[full] - v[full ^ (1 << i)] for i in range(f.n)]
    gain_sum = modular_sums_loops(gain)
    return SetFunction(f.ground, tuple(v[full ^ m] + v[0] - v[full] + gain_sum[m]
                                       for m in range(1 << f.n)))


def to_polymatroid_loops(e):
    return SetFunction(e.ground, tuple(
        x + s for x, s in zip(e.values, singleton_sums_loops(e))))


def to_polyquantoid_loops(h):
    return SetFunction(h.ground, tuple(
        x - s / 2 for x, s in zip(h.values, singleton_sums_loops(h))))


def scale_loops(f, t):
    return SetFunction(f.ground, tuple(x * t for x in f.values))


def submodular_local_loops(values, n):
    """The two-point criterion, one mask and one pair of its members at a
    time: f(S+a) + f(S+b) >= f(S+a+b) + f(S)."""
    for m in range(1 << n):
        bits = [i for i in range(n) if m >> i & 1]
        for a, b in itertools.combinations(bits, 2):
            if (values[m ^ (1 << a)] + values[m ^ (1 << b)]
                    < values[m] + values[m ^ (1 << a) ^ (1 << b)]):
                return False
    return True


def classify_loops(f):
    """Every axiom flag by Fraction comparisons, one mask at a time: the
    reference for the library's integer-table classify."""
    v = f.values
    n = f.n
    full = f.full_mask
    size = 1 << n

    normalized = v[0] == 0
    nondecreasing = all(v[m ^ (1 << i)] <= v[m]
                        for m in range(size) for i in range(n) if m >> i & 1)
    submodular = submodular_local_loops(v, n)
    complementary = all(v[m] == v[full ^ m] for m in range(size))
    tight = all(v[full ^ (1 << i)] == v[full] for i in range(n))
    integer = all(x.denominator == 1 for x in v)
    selfdual = dual_loops(f).values == v
    singles_01 = all(v[1 << i] in (0, 1) for i in range(n))

    polymatroid = normalized and nondecreasing and submodular
    polyquantoid = normalized and complementary and submodular
    return Classification(
        normalized=normalized, nondecreasing=nondecreasing, submodular=submodular,
        complementary=complementary, tight=tight, integer=integer, selfdual=selfdual,
        polymatroid=polymatroid, polyquantoid=polyquantoid,
        matroid=polymatroid and integer and singles_01,
        quantoid=polyquantoid and integer and singles_01)


def classify_exhaustive(f):
    """classify_loops(f), but with submodularity checked on every pair of
    subsets instead of the two-point criterion (same verdict, slower)."""
    c = classify_loops(f)
    submodular = submodular_all_pairs(f.values, f.n)
    singles_01 = all(f.values[1 << i] in (0, 1) for i in range(f.n))
    polymatroid = c.normalized and c.nondecreasing and submodular
    polyquantoid = c.normalized and c.complementary and submodular
    return replace(c, submodular=submodular, polymatroid=polymatroid,
                   polyquantoid=polyquantoid,
                   matroid=polymatroid and c.integer and singles_01,
                   quantoid=polyquantoid and c.integer and singles_01)


def minimal_by_submasks(authorized):
    """The members of a coalition family that contain no other member,
    found by walking every submask of every member."""
    family = set(authorized)
    return tuple(m for m in authorized
                 if not any(s != m and s in family for s in submasks(m)))


def full_minimization(src, exp):
    """The values of an expansion or 2-factor of src, minimizing over every
    source subset J rather than only the adapted ones.

    A 2-factor block stands for two copies, so it costs 2 where a copy of a
    free expansion costs 1."""
    symmetric = exp.kind == QUANTOID_EXPANSION
    weight = 2 if exp.kind == TWO_FACTOR else 1
    images = [exp.map.image_mask(j) for j in range(1 << src.n)]

    def value(K):
        return min(src.values[j] + weight * ((K ^ images[j]) if symmetric
                                             else (K & ~images[j])).bit_count()
                   for j in range(1 << src.n))

    return tuple(value(K) for K in range(1 << exp.map.expanded.n))


def adapted_minimization(src, exp):
    """The values of an expansion or 2-factor of src, one expanded mask at a
    time, minimizing only over the source subsets adapted to it (the search
    the library ran before it computed on count vectors)."""
    symmetric = exp.kind == QUANTOID_EXPANSION
    weight = 2 if exp.kind == TWO_FACTOR else 1

    def cost(J, K):
        image = exp.map.image_mask(src.ground.mask_of(J))
        d = (K ^ image) if symmetric else (K & ~image)
        return src.value(J) + weight * d.bit_count()

    return tuple(min(cost(J, K) for J in adapted_sets(exp.map, K))
                 for K in range(1 << exp.map.expanded.n))


def sharing_flags_loops(f, dealer_bit, quantum):
    """(perfect, authorized, minimal, essential, ideal) of a dealer, by one
    Fraction increment per coalition: the fields the library's sharing
    flags share with it."""
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
    return (perfect, tuple(authorized), tuple(minimal), tuple(essential), ideal)


def not_ideal_reason_loops(f, dealer_idx, flags, quantum):
    """The NotIdeal message, rescanning every coalition for the first bad
    increment; flags is the tuple of sharing_flags_loops."""
    perfect, _, _, essential, _ = flags
    g = f.ground
    dealer = g.labels[dealer_idx]
    dbit = 1 << dealer_idx
    secret = f.values[dbit]
    if not perfect:
        allowed = (secret, -secret) if quantum else (secret, Fraction(0))
        for m in submasks(f.full_mask ^ dbit):
            inc = f.values[m | dbit] - f.values[m]
            if inc not in allowed:
                return (f"dealer {dealer!r} is not perfect: "
                        f"increment {inc} on coalition {{{','.join(members_loops(g, m))}}}")
    for i in range(f.n):
        if i != dealer_idx and i not in essential:
            return f"element {g.labels[i]!r} is not essential for dealer {dealer!r}"
    for i in range(f.n):
        if i != dealer_idx and f.values[1 << i] != secret:
            return (f"element {g.labels[i]!r} has value {f.values[1 << i]}, "
                    f"dealer {dealer!r} has {secret}")
    return "not ideal"


def circuit_masks_loops(r):
    """Circuit masks of a matroid rank function, one mask at a time."""
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


def matroid_structure_loops(r):
    """matroid_structure from circuit_masks_loops, with connectivity tested
    on every pair of elements and every circuit."""
    v = r.values
    n = r.n
    full = r.full_mask

    circuits = circuit_masks_loops(r)
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
        circuits=tuple(members_loops(r.ground, c) for c in circuits),
        loops=tuple(labels[i] for i in loops),
        coloops=tuple(labels[i] for i in coloops),
        connected=connected,
    )


def access_from_circuits_loops(r, dealer):
    """The coalitions that hold a circuit through the dealer, testing every
    coalition against every such circuit."""
    idx = r.ground.index_of(dealer)
    dbit = 1 << idx
    through = [c for c in circuit_masks_loops(r) if c & dbit]
    family = [
        m for m in submasks(r.full_mask ^ dbit)
        if any(c & ~(dbit | m) == 0 for c in through)
    ]
    return tuple(members_loops(r.ground, m) for m in family)


def is_approx_polymatroid_all_pairs(f):
    """Normalized, nondecreasing, and submodular, all within the tolerance,
    with submodularity on every pair of subsets: the reference for the
    library's local is_approx_polymatroid."""
    v = f.values
    n = f.n
    if abs(v[0]) > f.tol:
        return False
    monotone = all(
        v[m ^ (1 << i)] <= v[m] + f.tol
        for m in range(1 << n) for i in range(n) if m >> i & 1
    )
    return monotone and approx_submodular_all_pairs(f)


def is_approx_polyquantoid_all_pairs(f):
    """Normalized, complementary, and submodular, all within the tolerance,
    with submodularity on every pair of subsets: the reference for the
    library's local is_approx_polyquantoid."""
    v = f.values
    full = (1 << f.n) - 1
    if abs(v[0]) > f.tol:
        return False
    complementary = all(abs(v[m] - v[full ^ m]) <= f.tol for m in range(1 << f.n))
    return complementary and approx_submodular_all_pairs(f)


def approx_submodular_all_pairs(f):
    """Submodularity within f.tol on every pair of subsets."""
    v = f.values
    size = 1 << f.n
    return all(
        v[i] + v[j] >= v[i | j] + v[i & j] - f.tol
        for i in range(size) for j in range(i, size)
    )


def shannon_entropy_function_dfs(dist, base=2.0):
    """Entropy of every marginal, one numpy sum and one entropy per subset:
    the subset lattice is walked depth-first from the full table, and each
    marginal is its parent's, one party larger, with that party's axis
    summed out.  Parties are dropped in increasing index order, so each
    subset is reached once, and the marginals held at any time, the full
    table among them, add up to less than twice its size.  The reference
    for the library's blocked shannon_entropy_function."""
    values = [0.0] * (1 << dist.parties.n)

    def visit(marginal, mask, parties, start):
        # axis k of marginal holds party parties[k]; only axes >= start may drop
        if mask:
            values[mask] = entropy_of(marginal.reshape(-1), base)
        for k in range(start, len(parties)):
            visit(marginal.sum(axis=k), mask ^ 1 << parties[k],
                  parties[:k] + parties[k + 1:], k)

    table = np.asarray(dist.probs, dtype=float).reshape(dist.alphabet_sizes)
    visit(table, len(values) - 1, tuple(range(dist.parties.n)), 0)
    return ApproxSetFunction(dist.parties, tuple(values))


def shannon_entropy_function_loops(dist, base=2.0):
    """Entropy of every marginal, each summed out of the full table: the
    reference for the library's shannon_entropy_function."""
    arr = np.asarray(dist.probs, dtype=float).reshape(dist.alphabet_sizes)
    n = dist.parties.n
    values = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        drop = tuple(i for i in range(n) if not mask >> i & 1)
        marginal = arr.sum(axis=drop) if drop else arr
        values[mask] = entropy_of(marginal.reshape(-1), base)
    return ApproxSetFunction(dist.parties, tuple(values))


def entropy_of(probabilities, base: float) -> float:
    """-sum p log p over the positive p, in the given base, never -0.0: the
    per-spectrum entropy the reference constructors use."""
    lam = np.asarray(probabilities, dtype=float)
    lam = lam[lam > 0]
    return float(-(lam * np.log(lam)).sum() / math.log(base)) + 0.0


def complex_tensor(state):
    """The state's amplitudes as a complex array of shape dims."""
    return np.asarray(state.amplitudes, dtype=complex).reshape(state.dims)


def complex_spectrum(psi, mask):
    """Eigenvalues of the reduction onto mask, from the complex Gram matrix
    of the amplitude tensor psi reshaped to (parties in mask, the others):
    the reference for reduced_spectrum, which solves real states in reals."""
    keep = [i for i in range(psi.ndim) if mask >> i & 1]
    drop = [i for i in range(psi.ndim) if not mask >> i & 1]
    m = psi.transpose(keep + drop).reshape(math.prod(psi.shape[i] for i in keep), -1)
    return np.linalg.eigvalsh(m @ m.conj().T)


def von_neumann_entropy_function_loops(state, base=2.0):
    """Entropy of every reduction, one complex Gram matrix and eigensolve
    per complementary pair, on the side with the smaller dimension: the
    reference for the library's von_neumann_entropy_function."""
    psi = complex_tensor(state)
    full = (1 << state.parties.n) - 1
    values = [0.0] * (full + 1)
    for mask in range(1, (full + 1) >> 1):  # the masks without party n-1, one per pair
        dim = math.prod(d for i, d in enumerate(state.dims) if mask >> i & 1)
        side = mask if dim * dim <= psi.size else full ^ mask
        values[mask] = values[full ^ mask] = entropy_of(complex_spectrum(psi, side), base)
    return ApproxSetFunction(state.parties, tuple(values))


def amplitudes_by_entry(raw):
    """The amplitudes of a state document's list, one entry at a time, so
    that the first bad entry raises its own error: MalformedDocument for an
    entry that is not a pair of numbers (a bool is none), NotNormalized for
    a pair with a part that is not a finite float.  The reference for
    documents.pure_state_from_doc, which reads the run of good pairs in bulk."""
    amplitudes = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                        for x in entry)):
            raise MalformedDocument("amplitudes: expected [re, im] pairs")
        amplitudes.append(complex(*_numbers(entry, float, NotNormalized, "amplitude")))
    return tuple(amplitudes)
