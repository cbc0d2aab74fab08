"""Shared fixtures: canonical rank functions, a random polymatroid source,
and slow reference oracles for the shortcuts the library takes."""

from dataclasses import replace
from fractions import Fraction
import random

from quantoid.expansion import QUANTOID_EXPANSION, TWO_FACTOR
from quantoid.setfn import SetFunction, classify, from_table


def labels_for(n):
    return tuple(str(i + 1) for i in range(n))


def uniform(k, n, labels=None):
    """Rank function of the uniform matroid: min(|I|, k) on n elements."""
    return from_table(labels or labels_for(n),
                      [min(m.bit_count(), k) for m in range(1 << n)])


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


def submodular_all_pairs(values, n):
    """Submodularity by its definition: every pair of subsets."""
    size = 1 << n
    for i in range(size):
        for j in range(i, size):
            if values[i] + values[j] < values[i | j] + values[i & j]:
                return False
    return True


def classify_exhaustive(f):
    """classify(f), but with submodularity checked on every pair of subsets
    instead of the two-point criterion (same verdict, slower)."""
    c = classify(f)
    submodular = submodular_all_pairs(f.values, f.n)
    singles_01 = all(f.values[1 << i] in (0, 1) for i in range(f.n))
    polymatroid = c.normalized and c.nondecreasing and submodular
    polyquantoid = c.normalized and c.complementary and submodular
    return replace(c, submodular=submodular, polymatroid=polymatroid,
                   polyquantoid=polyquantoid,
                   matroid=polymatroid and c.integer and singles_01,
                   quantoid=polyquantoid and c.integer and singles_01)


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
