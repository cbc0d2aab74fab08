"""The integer-table kernel behind classify, dual, hat/vee and scale,
against the Fraction loop oracles in helpers, and its int64 overflow guard."""

from fractions import Fraction
import random

import numpy as np
import pytest

from quantoid.correspondence import to_polymatroid, to_polyquantoid
from quantoid.duality import dual, is_selfdual, is_tight
from quantoid.setfn import _scaled, classify, enumerate_rank_functions, from_table, scale

from helpers import (
    classify_loops,
    dual_loops,
    labels_for,
    random_rational_polymatroid,
    scale_loops,
    to_polymatroid_loops,
    to_polyquantoid_loops,
    uniform,
)

SCALES = (Fraction(3), Fraction(2, 7))


def assert_matches_loops(f):
    c = classify(f)
    assert all(type(flag) is bool for flag in c.as_dict().values())
    assert c == classify_loops(f)
    assert is_tight(f) == c.tight and is_selfdual(f) == c.selfdual
    assert dual(f) == dual_loops(f)
    assert to_polymatroid(f) == to_polymatroid_loops(f)
    assert to_polyquantoid(f) == to_polyquantoid_loops(f)
    for t in SCALES:
        assert scale(f, t) == scale_loops(f, t)
    return c


def perturbed(f, rng):
    """f with one value, at a random mask, moved by a small rational."""
    values = list(f.values)
    mask = rng.randrange(len(values))
    values[mask] += rng.choice((1, -1, Fraction(1, 2), Fraction(-1, 3)))
    return from_table(f.labels, values)


def small_corpus():
    return [from_table([], [0]), from_table([], [Fraction(-1, 2)]),
            from_table(["1"], [0, 1]), from_table(["1"], [0, Fraction(5, 3)]),
            from_table(["1"], [1, 0])]


def random_corpus():
    rng = random.Random(2012)
    return [random_rational_polymatroid(rng, n) for n in range(1, 9) for _ in range(3)]


CORPORA = {
    "polymatroids": lambda: [f for n in range(4)
                             for f in enumerate_rank_functions("polymatroid", n, 3)],
    "polyquantoids": lambda: [f for n in range(5)
                              for f in enumerate_rank_functions("polyquantoid", n, 2)],
    "random": random_corpus,
    "small": small_corpus,
}


def corpus_with_perturbations(name):
    rng = random.Random(name)
    fns = CORPORA[name]()
    return fns + [perturbed(f, rng) for f in fns]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_kernel_equals_loops(name):
    for f in corpus_with_perturbations(name):
        assert_matches_loops(f)


def test_corpus_sees_every_flag_both_ways():
    seen = {}
    for name in CORPORA:
        for f in corpus_with_perturbations(name):
            for flag, value in classify(f).as_dict().items():
                seen.setdefault(flag, set()).add(value)
    assert all(values == {True, False} for values in seen.values()), seen


@pytest.mark.parametrize("top,dtype", [(1, np.int64), (2**70, object)], ids=["int64", "object"])
def test_cached_table_is_read_only(top, dtype):
    f = scale(uniform(2, 3), top)
    a, _ = f._scaled_table
    assert a.dtype == dtype and f._scaled_table[0] is a
    with pytest.raises(ValueError):
        a[0] = 1
    with pytest.raises(ValueError):
        a += a


# -- the overflow guard -----------------------------------------------------------

def test_huge_numerators_use_python_ints():
    base = random_rational_polymatroid(random.Random(7), 5)
    huge = scale(base, Fraction(2**70 + 1, 3))
    assert _scaled(huge.values)[0].dtype == object
    assert assert_matches_loops(huge).polymatroid
    assert_matches_loops(perturbed(huge, random.Random(8)))


def test_lcm_of_denominators_above_int64_uses_python_ints():
    primes = (2**61 - 1, 2**31 - 1, 1_000_000_007)
    # modular part 1/p_i plus the rank of U_{1,3}: a polymatroid, not tight
    values = [sum((Fraction(1, p) for i, p in enumerate(primes) if m >> i & 1), Fraction(0))
              + min(m.bit_count(), 1) for m in range(8)]
    f = from_table(labels_for(3), values)
    a, den = _scaled(f.values)
    assert den > 2**63 and a.dtype == object
    c = assert_matches_loops(f)
    assert c.polymatroid and not c.integer and not c.tight


@pytest.mark.parametrize("top,dtype", [(2**59 - 1, np.int64), (2**59, object)])
def test_guard_bound(top, dtype):
    # n = 3: int64 iff max|x| * (4n + 4) < 2**63, that is max|x| < 2**59.
    # Singletons at +top and their complements at -top push every dual gain
    # to 4 * top, the largest expression the bound allows for.
    values = [-top, top, top, -top, top, -top, -top, top]
    f = from_table(labels_for(3), values)
    assert _scaled(f.values)[0].dtype == dtype
    assert_matches_loops(f)


def test_matroid_just_under_the_bound_stays_int64():
    rank = scale(uniform(2, 3), 2**58 - 1)  # max value 2**59 - 2
    assert _scaled(rank.values)[0].dtype == np.int64
    c = assert_matches_loops(rank)
    assert c.polymatroid and c.tight and not c.selfdual
