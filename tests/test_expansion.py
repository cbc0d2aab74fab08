"""Free expansions, adapted sets, 2-factors, and the cross-route check."""

import re
from fractions import Fraction

import numpy as np
import pytest

from quantoid import expansion
from quantoid.correspondence import to_polymatroid
from quantoid.duality import is_selfdual, is_tight
from quantoid.entropic import ApproxSetFunction
from quantoid.errors import (
    DuplicateLabel,
    ExpansionTooLarge,
    NotIntegerPolymatroid,
    NotIntegerPolyquantoid,
    OddSingletonValue,
)
from quantoid.expansion import (
    BlockMap,
    adapted_sets,
    expansion_correspondence_holds,
    free_expand_polymatroid,
    free_expand_polyquantoid,
    two_factor,
)
from quantoid.setfn import classify, enumerate_rank_functions, from_table, scale

from helpers import (
    adapted_minimization,
    bell,
    e22,
    full_minimization,
    ghz3,
    q24,
    uniform,
    zero_fn,
)


def doubled_u12():
    return scale(uniform(1, 2), 2)


def modular_666():
    """The modular polymatroid with singletons 6, 6, 6: 18 expanded elements."""
    return from_table(["1", "2", "3"], [6 * m.bit_count() for m in range(8)])


# -- matroid expansion -----------------------------------------------------------

def test_expand_doubled_u12_gives_u24():
    exp = free_expand_polymatroid(doubled_u12())
    assert exp.expanded_fn.values == full_minimization(doubled_u12(), exp)
    assert exp.map.blocks == (("1.0", "1.1"), ("2.0", "2.1"))
    assert exp.expanded_fn == uniform(2, 4, labels=exp.map.expanded.labels)
    assert classify(exp.expanded_fn).matroid


def test_expand_zero_polymatroid():
    exp = free_expand_polymatroid(zero_fn(2))
    assert exp.map.expanded.labels == ()
    assert exp.expanded_fn.values == (Fraction(0),)


def test_expand_u12_relabels():
    exp = free_expand_polymatroid(uniform(1, 2))
    assert exp.expanded_fn.values == full_minimization(uniform(1, 2), exp)
    assert exp.map.blocks == (("1.0",), ("2.0",))
    assert exp.expanded_fn.values == uniform(1, 2).values


def test_expand_rejects_non_integer():
    with pytest.raises(NotIntegerPolymatroid):
        free_expand_polymatroid(scale(uniform(1, 2), Fraction(1, 2)))
    with pytest.raises(NotIntegerPolymatroid):
        free_expand_polymatroid(ghz3())  # not even a polymatroid


def test_expand_respects_cap():
    # 18 elements exceed the 16-element limit: ExpansionTooLarge, not GroundSetTooLarge
    for builder in (free_expand_polymatroid, two_factor):
        with pytest.raises(ExpansionTooLarge):
            builder(modular_666())


# -- quantoid expansion ----------------------------------------------------------

def test_expand_e22_gives_q24():
    exp = free_expand_polyquantoid(e22())
    assert exp.expanded_fn.values == full_minimization(e22(), exp)
    assert exp.expanded_fn.values == q24().values
    assert classify(exp.expanded_fn).quantoid


def test_expand_bell_is_bell_relabeled():
    exp = free_expand_polyquantoid(bell())
    assert exp.expanded_fn.values == full_minimization(bell(), exp)
    assert exp.map.blocks == (("1.0",), ("2.0",))
    assert exp.expanded_fn.values == bell().values


def test_expand_zero_polyquantoid():
    exp = free_expand_polyquantoid(zero_fn(2))
    assert exp.map.expanded.labels == ()
    assert exp.expanded_fn.values == (Fraction(0),)


def test_expand_quantoid_rejects_bad_input():
    with pytest.raises(NotIntegerPolyquantoid):
        free_expand_polyquantoid(uniform(2, 4))  # polymatroid, not complementary
    with pytest.raises(NotIntegerPolyquantoid):
        free_expand_polyquantoid(scale(bell(), Fraction(1, 2)))


# -- adapted sets ---------------------------------------------------------------

def test_adapted_sets_of_empty_subset():
    bmap = free_expand_polymatroid(doubled_u12()).map
    assert adapted_sets(bmap, []) == ((),)


def test_adapted_sets_partial_block():
    bmap = free_expand_polymatroid(doubled_u12()).map
    assert adapted_sets(bmap, ["1.0"]) == ((), ("1",))


def test_adapted_sets_full_block():
    bmap = free_expand_polymatroid(doubled_u12()).map
    assert adapted_sets(bmap, ["1.0", "1.1"]) == (("1",),)


def test_adapted_sets_rejects_a_repeated_label():
    bmap = free_expand_polymatroid(doubled_u12()).map
    with pytest.raises(DuplicateLabel, match=r"^1\.0$"):
        adapted_sets(bmap, ["1.0", "1.0"])


def test_adapted_sets_rejects_a_bare_string():
    bmap = free_expand_polymatroid(doubled_u12()).map
    assert adapted_sets(bmap, ["1.0"]) == adapted_sets(bmap, bmap.expanded.mask_of(["1.0"]))
    with pytest.raises(TypeError, match=r"'1\.0'"):
        adapted_sets(bmap, "1.0")


def test_adapted_set_of_block_image_is_unique():
    h = to_polymatroid(ghz3())
    exp = free_expand_polymatroid(h)
    for mask in range(1 << h.n):
        image = exp.map.image_mask(mask)
        expected = tuple(h.labels[i] for i in range(h.n)
                         if mask >> i & 1 and exp.map.blocks[i])
        assert adapted_sets(exp.map, image) == (expected,)


def _reads_outside(read, name, x, end, n):
    message = rf"^{name} {x} is outside 0 \.\. {end - 1} for {n} elements$"
    with pytest.raises(ValueError, match=message):
        read(x)


def test_mask_readers_reject_what_lies_outside_the_ground_set():
    # the ValueError of GroundSet.key_of, for a mask or an element index
    bmap = free_expand_polyquantoid(e22()).map  # 2 source elements, 4 expanded
    u12 = uniform(1, 2)
    approx = ApproxSetFunction(u12.ground, (0.0, 1.0, 1.0, 1.5))
    assert adapted_sets(bmap, 15) == (("1", "2"),)
    assert (bmap.image_mask(3), bmap.block_mask(1), u12[3], approx[3]) == (15, 12, 1, 1.5)
    for x in (16, 17, -1):
        _reads_outside(lambda m: adapted_sets(bmap, m), "mask", x, 16, 4)
    for x in (4, -1, -4):
        _reads_outside(bmap.image_mask, "mask", x, 4, 2)
        _reads_outside(u12.__getitem__, "mask", x, 4, 2)
        _reads_outside(approx.__getitem__, "mask", x, 4, 2)
    for x in (2, -1):
        _reads_outside(bmap.block_mask, "element", x, 2, 2)


def test_mask_readers_reject_a_bool():
    # Python counts a bool as an int, but it is no mask, element index or count
    bmap = free_expand_polyquantoid(e22()).map
    u12 = uniform(1, 2)
    approx = ApproxSetFunction(u12.ground, (0.0, 1.0, 1.0, 1.5))
    readers = [("mask", u12.__getitem__), ("mask", approx.__getitem__),
               ("mask", bmap.image_mask), ("element", bmap.block_mask),
               ("mask", lambda m: adapted_sets(bmap, m)),
               ("mask", u12.ground.key_of), ("mask", u12.ground.members)]
    for x in (True, False):
        for name, read in readers:
            with pytest.raises(TypeError, match=f"^{name} {x} is a bool, not an int$"):
                read(x)
        for n, cap in ((x, 2), (2, x)):
            with pytest.raises(TypeError, match=f"^n {n} and cap {cap} must be ints, not bools$"):
                next(enumerate_rank_functions("polymatroid", n, cap))


def test_mask_readers_accept_a_numpy_integer():
    # a numpy integer reads as the int it equals, inside the range and outside it
    bmap = free_expand_polyquantoid(e22()).map
    u12 = uniform(1, 2)
    approx = ApproxSetFunction(u12.ground, (0.0, 1.0, 1.0, 1.5))
    readers = [("mask", 4, 2, u12.__getitem__), ("mask", 4, 2, approx.__getitem__),
               ("mask", 4, 2, bmap.image_mask), ("element", 2, 2, bmap.block_mask),
               ("mask", 16, 4, lambda m: adapted_sets(bmap, m)),
               ("mask", 4, 2, u12.ground.key_of), ("mask", 4, 2, u12.ground.members)]
    for name, end, n, read in readers:
        for x in range(end):
            assert read(np.int64(x)) == read(x)
        _reads_outside(lambda m: read(np.int64(m)), name, end, end, n)


# -- 2-factors -------------------------------------------------------------------

def test_two_factor_doubled_u12():
    tf = two_factor(doubled_u12())
    assert tf.map.blocks == (("1.0",), ("2.0",))
    assert tf.expanded_fn.values == doubled_u12().values


def test_two_factor_doubled_u24():
    tf = two_factor(scale(uniform(2, 4), 2))
    assert tf.map.expanded.n == 4
    assert tf.expanded_fn.values == tuple(
        min(2 * m.bit_count(), 4) for m in range(16))


def test_two_factor_zero():
    tf = two_factor(zero_fn(2))
    assert tf.map.expanded.labels == ()


def test_two_factor_rejects_odd_singletons():
    with pytest.raises(OddSingletonValue):
        two_factor(uniform(1, 2))


# -- invariants ------------------------------------------------------------------

def _hats_of_enumerated_polyquantoids(n, cap):
    for e in enumerate_rank_functions("polyquantoid", n, cap):
        yield e, to_polymatroid(e)


def test_expansion_identity_all_kinds():
    for e, h in _hats_of_enumerated_polyquantoids(2, 2):
        for builder, src in ((free_expand_polyquantoid, e),
                             (free_expand_polymatroid, h),
                             (two_factor, h)):
            exp = builder(src)
            assert exp.expanded_fn.values == full_minimization(src, exp)
            for mask in range(1 << src.n):
                assert exp.expanded_fn.values[exp.map.image_mask(mask)] \
                    == src.values[mask]


def test_expanded_value_depends_only_on_block_intersections():
    exp = free_expand_polymatroid(doubled_u12())
    seen = {}
    for K in range(1 << exp.map.expanded.n):
        profile = tuple((K & exp.map.block_mask(i)).bit_count()
                        for i in range(exp.map.source.n))
        seen.setdefault(profile, set()).add(exp.expanded_fn.values[K])
    assert all(len(values) == 1 for values in seen.values())


def test_quantoid_expansion_closure_small():
    for e in enumerate_rank_functions("polyquantoid", 2, 2):
        exp = free_expand_polyquantoid(e)
        assert exp.expanded_fn.values == full_minimization(e, exp)
        assert classify(exp.expanded_fn).quantoid
        # value is cardinality inside a single block
        for i in range(e.n):
            block = exp.map.block_mask(i)
            sub = block
            while True:
                assert exp.expanded_fn.values[sub] == sub.bit_count()
                if sub == 0:
                    break
                sub = (sub - 1) & block


def test_tight_selfdual_preserved_by_expansion_and_two_factor():
    for e, h in _hats_of_enumerated_polyquantoids(2, 2):
        exp = free_expand_polymatroid(h)
        assert is_tight(exp.expanded_fn) and is_selfdual(exp.expanded_fn)
        tf = two_factor(h)
        assert is_tight(tf.expanded_fn) and is_selfdual(tf.expanded_fn)


def test_quantoid_expansion_is_complementary_via_block_bijection():
    for e in enumerate_rank_functions("polyquantoid", 2, 2):
        exp = free_expand_polyquantoid(e)
        v = exp.expanded_fn.values
        full = exp.expanded_fn.full_mask
        assert all(v[K] == v[full ^ K] for K in range(full + 1))


@pytest.mark.parametrize("source", [bell(), ghz3(), e22()])
def test_expansion_routes_agree(source):
    assert expansion_correspondence_holds(source)


def test_block_map_rejects_overlap():
    from quantoid.setfn import GroundSet
    with pytest.raises(ValueError):
        BlockMap(source=GroundSet(("1", "2")),
                 blocks=(("a",), ("a",)),
                 expanded=GroundSet(("a",)))


def test_block_map_from_sizes_rejects_a_bool_or_negative_size():
    # True would read as one copy and -1 as an empty block
    from quantoid.setfn import GroundSet
    g = GroundSet(("a", "b"))
    with pytest.raises(TypeError, match=r"^block size True is a bool, not an int$"):
        BlockMap.from_sizes(g, [True, 2])
    with pytest.raises(ValueError, match=r"^block size -1 is negative$"):
        BlockMap.from_sizes(g, [-1, 2])
    bmap = BlockMap.from_sizes(g, np.array([2, 0]))  # numpy integers still work
    assert bmap.blocks == (("a.0", "a.1"), ()) and bmap.expanded.labels == ("a.0", "a.1")


# -- the count-vector kernel -----------------------------------------------------

def _integer_sources():
    """Every integer polymatroid (n <= 3, cap 3) and polyquantoid (n <= 4,
    cap 2), with its free expansion; n = 0 and zero-size blocks included."""
    for n in range(4):
        for h in enumerate_rank_functions("polymatroid", n, 3):
            yield h, free_expand_polymatroid
    for n in range(5):
        for e in enumerate_rank_functions("polyquantoid", n, 2):
            yield e, free_expand_polyquantoid


def test_count_kernel_equals_oracles():
    seen_empty_block = seen_empty_ground = False
    for src, builder in _integer_sources():
        seen_empty_ground |= src.n == 0
        seen_empty_block |= any(src.values[1 << i] == 0 for i in range(src.n))
        cases = [(src, builder(src))]
        if builder is free_expand_polymatroid:
            # a doubled source may stand for more than 16 copies, so its
            # 2-factor is taken past the public limit
            doubled = scale(src, 2)
            cases.append((doubled, expansion._expand(doubled, expansion.TWO_FACTOR)))
        for source, exp in cases:
            values = exp.expanded_fn.values
            assert values == full_minimization(source, exp)
            assert values == adapted_minimization(source, exp)
    assert seen_empty_block and seen_empty_ground


def test_values_stay_within_the_expansion_size():
    # 0 <= f(J) <= sum of the singletons: why the kernel needs no overflow guard
    for src, builder in _integer_sources():
        sources = [src]
        if builder is free_expand_polyquantoid:
            sources.append(to_polymatroid(src))  # the Lemma 5.2 partner
        for f in sources:
            total = sum(f.values[1 << i] for i in range(f.n))
            assert all(0 <= x <= total for x in f.values)


def test_expansion_routes_agree_at_full_size():
    # the partner of scale(ghz3, 3) has 18 copies, the direct expansion 9
    assert expansion_correspondence_holds(scale(ghz3(), 3))
    with pytest.raises(ExpansionTooLarge):
        expansion_correspondence_holds(scale(ghz3(), 6))  # 18 direct elements


def test_two_factor_builds_no_copy_level_expansion(monkeypatch):
    calls = []
    built = expansion._expansion

    def counting(f, kind):
        calls.append(kind)
        return built(f, kind)

    monkeypatch.setattr(expansion, "_expansion", counting)
    two_factor(scale(uniform(2, 4), 2))
    assert calls == []
    assert expansion_correspondence_holds(e22())
    assert calls == [expansion.QUANTOID_EXPANSION]


@pytest.mark.parametrize("expand", [free_expand_polymatroid, two_factor])
def test_expansion_size_message_obeys_the_digit_limit(expand):
    # two even 4,300-digit singletons add up to 4,301 digits, past int's str limit
    big = 10**4300 - 2
    with pytest.raises(ExpansionTooLarge, match="^<a value past the 4300-digit limit> expanded"):
        expand(from_table(["1", "2"], [0, big, big, big]))


# -- preconditions ---------------------------------------------------------------

HALF = [0, 17, 17, Fraction(35, 2)]  # a polymatroid, not integer, odd singletons, 34 copies
ODD_WIDE = [0, 17, 17, 34]  # an integer polymatroid with odd singletons and 34 copies
WIDE_QUANTOID = [0, 9, 9, 0]  # an integer polyquantoid, no polymatroid, 18 copies
HALF_QUANTOID = [0, Fraction(19, 2), Fraction(19, 2), 0]  # not integer, 18 copies
TWO_FAULTS = [  # (source on elements 1 and 2, expansion, the error and message it raises)
    (HALF, free_expand_polymatroid, NotIntegerPolymatroid, "values on ('1', '2')"),
    (HALF, two_factor, NotIntegerPolymatroid, "values on ('1', '2')"),
    (HALF, free_expand_polyquantoid, NotIntegerPolyquantoid, "values on ('1', '2')"),
    (HALF, expansion_correspondence_holds, NotIntegerPolyquantoid, "values on ('1', '2')"),
    (ODD_WIDE, free_expand_polymatroid, ExpansionTooLarge,
     "34 expanded elements (maximum 16)"),
    (ODD_WIDE, two_factor, OddSingletonValue, "1"),
    ([0, 18, 17, 35], two_factor, OddSingletonValue, "2"),
    (ODD_WIDE, free_expand_polyquantoid, NotIntegerPolyquantoid, "values on ('1', '2')"),
    (WIDE_QUANTOID, free_expand_polymatroid, NotIntegerPolymatroid, "values on ('1', '2')"),
    (WIDE_QUANTOID, two_factor, NotIntegerPolymatroid, "values on ('1', '2')"),
    (WIDE_QUANTOID, free_expand_polyquantoid, ExpansionTooLarge,
     "18 expanded elements (maximum 16)"),
    (WIDE_QUANTOID, expansion_correspondence_holds, ExpansionTooLarge,
     "18 expanded elements (maximum 16)"),
    (HALF_QUANTOID, free_expand_polyquantoid, NotIntegerPolyquantoid, "values on ('1', '2')"),
    (HALF_QUANTOID, expansion_correspondence_holds, NotIntegerPolyquantoid,
     "values on ('1', '2')"),
]


@pytest.mark.parametrize("values,expand,error,message", TWO_FAULTS)
def test_the_first_failed_precondition_names_the_error(values, expand, error, message):
    # the order: integer and of the kind, then even singletons for a
    # 2-factor, then at most 16 copies
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        expand(from_table(["1", "2"], values))
