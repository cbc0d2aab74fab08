"""Duality mapping: involution, conservation laws, and the polymatroid corollary."""

import random

from hypothesis import given, strategies as st

from quantoid.duality import dual, is_selfdual, is_tight
from quantoid.setfn import classify, enumerate_rank_functions, from_table

from helpers import bell, ghz3, labels_for, random_rational_polymatroid, uniform, zero_fn


def test_dual_zero_is_zero():
    z = zero_fn(3)
    assert dual(z) == z


def test_dual_u13_is_u23():
    assert dual(uniform(1, 3)) == uniform(2, 3)
    assert dual(uniform(2, 3)) == uniform(1, 3)


def test_u24_is_selfdual():
    assert dual(uniform(2, 4)) == uniform(2, 4)
    assert is_selfdual(uniform(2, 4))


def test_u13_is_not_selfdual():
    assert not is_selfdual(uniform(1, 3))


def test_complementary_functions_are_selfdual():
    assert is_selfdual(bell())
    assert is_selfdual(ghz3())


def _set_functions():
    vals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.integers(min_value=0, max_value=3).flatmap(
        lambda n: st.lists(vals, min_size=1 << n, max_size=1 << n).map(
            lambda v: from_table(labels_for(n), v)))


@given(_set_functions())
def test_involution_on_arbitrary_functions(f):
    assert dual(dual(f)) == f


@given(_set_functions())
def test_conserved_values_on_arbitrary_functions(f):
    d = dual(f)
    full = f.full_mask
    assert d.values[0] == f.values[0]
    for i in range(f.n):
        assert d.values[1 << i] == f.values[1 << i]
        assert (d.values[full] - d.values[full ^ (1 << i)]
                == f.values[full] - f.values[full ^ (1 << i)])


@given(_set_functions())
def test_submodularity_preserved_both_ways(f):
    assert classify(f).submodular == classify(dual(f)).submodular


def test_dual_of_polymatroid_is_nondecreasing():
    # normalized + submodular + no single element carries the total above f(N)
    for f in enumerate_rank_functions("polymatroid", 3, 2):
        assert classify(dual(f)).nondecreasing


def test_involution_on_polymatroids():
    rng = random.Random(7)
    for _ in range(50):
        f = random_rational_polymatroid(rng, rng.randint(1, 4))
        assert dual(dual(f)) == f


def test_duality_restricts_to_tight_polymatroids():
    for f in enumerate_rank_functions("polymatroid", 3, 2):
        d = dual(f)
        assert classify(d).polymatroid
        if is_tight(f):
            assert is_tight(d)


def test_tightness_examples():
    assert is_tight(uniform(2, 4))
    assert is_tight(uniform(1, 3))  # tight yet not selfdual
    assert not is_tight(uniform(2, 2))  # free matroid: any removal drops the total
    assert is_tight(zero_fn(2))


def test_dual_of_normalized_tight_function_reduces_to_singleton_sum():
    # f'(I) = f(N\I) - f(N) + sum of f(i) over i in I, once f({}) = 0 and f is tight
    for kind, cap in (("polymatroid", 3), ("polyquantoid", 2)):
        for n in range(4):
            for f in enumerate_rank_functions(kind, n, cap):
                if not is_tight(f):
                    continue
                v, full = f.values, f.full_mask
                singles = [sum(v[1 << i] for i in range(n) if m >> i & 1)
                           for m in range(1 << n)]
                assert dual(f).values == tuple(v[full ^ m] - v[full] + singles[m]
                                               for m in range(1 << n))
