"""Construction, classification, scaling, and bounded enumeration."""

import itertools
import math
import re
import sys
from fractions import Fraction

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantoid import setfn
from quantoid.errors import (
    DuplicateLabel,
    GroundSetTooLarge,
    InvalidLabel,
    MalformedRational,
    MissingSubset,
    NonpositiveScale,
    UnknownElement,
    UnknownSubsetKey,
    ValueTooLarge,
)
from quantoid.setfn import (
    GroundSet,
    SetFunction,
    as_rational,
    build,
    classify,
    enumerate_rank_functions,
    from_table,
    scale,
)

from helpers import (
    RATIONAL_FORMAT_3_10,
    bell,
    classify_exhaustive,
    enumerate_rank_functions_unpruned,
    ghz3,
    labels_for,
    members_loops,
    random_rational_polymatroid,
    uniform,
    zero_fn,
)


# -- build -------------------------------------------------------------------

def test_build_empty_ground_set():
    f = build([], {"": 0})
    assert f.n == 0
    assert f.values == (Fraction(0),)


def test_build_bell_from_keys():
    f = build([1, 2], {"": "0", "1": "1", "2": "1", "1,2": "0"})
    assert f == bell()
    assert classify(f).polyquantoid


def test_build_missing_subset():
    with pytest.raises(MissingSubset, match="1,2"):
        build([1, 2], {"": 0, "1": 1, "2": 1})


def test_build_duplicate_label():
    with pytest.raises(DuplicateLabel):
        build(["a", "a"], {"": 0, "a": 0, "a,a": 0})


def test_build_too_large():
    labels = [str(i) for i in range(17)]
    with pytest.raises(GroundSetTooLarge):
        build(labels, {})


def test_build_malformed_rational():
    with pytest.raises(MalformedRational):
        build(["1"], {"": 0, "1": "x"})
    with pytest.raises(MalformedRational):
        build(["1"], {"": 0, "1": 0.5})


@pytest.mark.parametrize("value", [0.1, 1.0, False, True])
def test_set_function_rejects_floats_and_booleans(value):
    with pytest.raises(MalformedRational):
        SetFunction(GroundSet(("1",)), (0, value))


ENTRY_POINTS = {
    "SetFunction": lambda v: SetFunction(GroundSet(("1",)), (0, v)),
    "from_table": lambda v: from_table(["1"], [0, v]),
    "build": lambda v: build(["1"], {"": 0, "1": v}),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1), np.bool_(True), object(), 0.5],
                         ids=["float32", "int64", "bool_", "object", "float"])
def test_entry_points_read_values_alike(entry, value):
    # one reader, as_rational, behind all three; floats get its hint
    with pytest.raises(MalformedRational) as info:
        ENTRY_POINTS[entry](value)
    hint = "(floats are not exact; pass a string or Fraction)"
    assert (hint in str(info.value)) == isinstance(value, (float, np.floating))


def test_set_function_reads_other_values_through_fraction():
    f = SetFunction(GroundSet(("1",)), (0, "1/2"))
    assert f.values == (Fraction(0), Fraction(1, 2))
    assert all(type(x) is Fraction for x in f.values)


def test_build_rejects_unknown_key():
    with pytest.raises(UnknownSubsetKey):
        build(["1"], {"": 0, "1": 1, "2": 1})


def test_build_accepts_fraction_strings():
    f = build(["1"], {"": "0", "1": "2/4"})
    assert f.value(["1"]) == Fraction(1, 2)


# -- subset keys ---------------------------------------------------------------

def test_key_mask_round_trip():
    g = GroundSet(("a", "b", "c"))
    for mask in g.subsets():
        key = g.key_of(mask)
        assert g.mask_of_key(key) == mask
        assert g.key_of(g.mask_of_key(key)) == key


def test_subset_keys_equal_key_of_every_mask():
    for n in range(17):
        g = GroundSet(labels_for(n))
        assert g.subset_keys() == [g.key_of(m) for m in g.subsets()]


def test_subset_keys_are_a_fresh_list_each_call():
    g = GroundSet(labels_for(3))
    keys = g.subset_keys()
    keys[1] = "changed"
    keys.append("extra")
    assert g.subset_keys() == [g.key_of(m) for m in g.subsets()]
    assert g.subset_keys() is not g.subset_keys()


def test_empty_key_is_empty_set():
    g = GroundSet(("x",))
    assert g.key_of(0) == ""
    assert g.mask_of_key("") == 0


NON_ASCII = ("α", "日本", "é", "ß", "👍", "Ω", "x y", "ü1")


@pytest.mark.parametrize("labels", [labels_for, lambda n: NON_ASCII[:n]],
                         ids=["digits", "non-ascii"])
def test_names_equal_the_per_bit_loop(labels):
    # members and key_of read the cached tuples; the sharing reports read _subset_members
    for n in range(9):
        f = zero_fn(n, labels(n))
        g = f.ground
        expected = [members_loops(g, m) for m in g.subsets()]
        assert [g.members(m) for m in g.subsets()] == expected
        assert [g.key_of(m) for m in g.subsets()] == [",".join(x) for x in expected]


@pytest.mark.parametrize("labels", [labels_for, lambda n: NON_ASCII[:n]],
                         ids=["digits", "non-ascii"])
def test_member_tuples_equal_the_split_keys(labels):
    # members reads tuples built by doubling; the keys split at their commas name the same sets
    for n in range(7):
        g = GroundSet(labels(n))
        assert [g.members(m) for m in g.subsets()] == [
            tuple(g.key_of(m).split(",")) if m else () for m in g.subsets()]
        assert g._subset_members == tuple(map(g.members, g.subsets()))


@pytest.mark.parametrize("mask", [4, 5, 1 << 16, -1, -2])
def test_masks_outside_the_ground_set_are_value_errors(mask):
    g = GroundSet(("a", "b"))
    for name in (g.key_of, g.members):
        with pytest.raises(ValueError, match=rf"^mask {mask} is outside 0 \.\. 3 for 2 elements$"):
            name(mask)
    with pytest.raises(ValueError, match=rf"^mask {mask} is outside 0 \.\. 0 for 0 elements$"):
        GroundSet(()).members(mask)


# -- classify ------------------------------------------------------------------

def test_classify_u24():
    c = classify(uniform(2, 4))
    assert c.matroid and c.polymatroid and c.integer
    assert c.tight and c.selfdual
    assert not c.complementary and not c.quantoid


def test_classify_ghz3():
    c = classify(ghz3())
    assert c.polyquantoid and c.quantoid
    assert not c.nondecreasing and not c.polymatroid


def test_classify_not_normalized():
    f = from_table(["1"], [1, 1])
    c = classify(f)
    assert not c.normalized and not c.polymatroid and not c.polyquantoid


@pytest.mark.parametrize("fn", [uniform(2, 4), uniform(1, 3), bell(), ghz3(),
                                from_table(["1", "2"], [0, 2, 1, 2])])
def test_classify_local_equals_exhaustive(fn):
    assert classify(fn) == classify_exhaustive(fn)


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=8, max_size=8))
def test_classify_local_equals_exhaustive_random(vals):
    f = from_table(labels_for(3), vals)
    assert classify(f).submodular == classify_exhaustive(f).submodular


# -- scale ---------------------------------------------------------------------

def test_scale_identity():
    u = uniform(2, 4)
    assert scale(u, 1) == u


def test_scale_double():
    doubled = scale(uniform(2, 4), 2)
    assert doubled.values == tuple(2 * min(m.bit_count(), 2) for m in range(16))


def test_scale_rejects_nonpositive():
    with pytest.raises(NonpositiveScale):
        scale(uniform(2, 4), 0)
    with pytest.raises(NonpositiveScale):
        scale(uniform(2, 4), Fraction(-1, 2))


CONE_FLAGS = ["normalized", "nondecreasing", "submodular", "complementary",
              "tight", "selfdual", "polymatroid", "polyquantoid"]


@pytest.mark.parametrize("t", [2, Fraction(1, 2), Fraction(3, 7)])
@pytest.mark.parametrize("fn", [uniform(2, 4), bell(), ghz3(),
                                from_table(["1", "2"], [0, 2, 1, 2])])
def test_axiom_flags_are_cone_conditions(fn, t):
    # integrality flags are deliberately excluded: scaling by 1/2 breaks them
    before = classify(fn).as_dict()
    after = classify(scale(fn, t)).as_dict()
    for flag in CONE_FLAGS:
        assert before[flag] == after[flag], flag


# -- enumeration -----------------------------------------------------------------

def test_enumerate_examples():
    assert len(list(enumerate_rank_functions("polymatroid", 1, 1))) == 2
    # complementarity forces e(1) = e(empty) = 0: only the zero function
    only = list(enumerate_rank_functions("polyquantoid", 1, 1))
    assert [f.values for f in only] == [(Fraction(0), Fraction(0))]
    pq2 = list(enumerate_rank_functions("polyquantoid", 2, 1))
    assert [f.values for f in pq2] == [
        (Fraction(0),) * 4,
        (Fraction(0), Fraction(1), Fraction(1), Fraction(0)),
    ]


def test_enumerate_unknown_kind():
    with pytest.raises(ValueError):
        list(enumerate_rank_functions("matroid", 1, 1))


def _brute_force(kind, n, cap):
    """Independent oracle: filter every value table with the exhaustive classifier."""
    out = []
    for tail in itertools.product(range(cap + 1), repeat=(1 << n) - 1):
        f = from_table(labels_for(n), (0,) + tail)
        c = classify_exhaustive(f)
        if (kind == "polymatroid" and c.polymatroid) or \
           (kind == "polyquantoid" and c.polyquantoid):
            out.append(f.values)
    return out


@pytest.mark.parametrize("kind", ["polymatroid", "polyquantoid"])
@pytest.mark.parametrize("n,cap", [(0, 2), (1, 2), (2, 2), (3, 2)])
def test_enumerate_matches_brute_force(kind, n, cap):
    got = [f.values for f in enumerate_rank_functions(kind, n, cap)]
    assert got == _brute_force(kind, n, cap)  # same set, same lexicographic order


@pytest.mark.parametrize("kind,n,cap", [
    ("polyquantoid", 4, 2), ("polyquantoid", 4, 3), ("polyquantoid", 5, 1),
    ("polyquantoid", 5, 2), ("polyquantoid", 3, 5), ("polyquantoid", 6, 1),
    ("polymatroid", 4, 3)])
def test_enumerate_matches_the_unpruned_walk(kind, n, cap):
    # the Araki-Lieb bound only cuts dead branches: same tables, same order
    got = [f.values for f in enumerate_rank_functions(kind, n, cap)]
    assert got == [f.values for f in enumerate_rank_functions_unpruned(kind, n, cap)]


@pytest.mark.parametrize("kind", ["polymatroid", "polyquantoid"])
@pytest.mark.parametrize("n", range(10, 17))
def test_enumerate_cap_zero_up_to_the_ground_set_limit(kind, n):
    # the walk is as deep as the table is long, 2^n masks
    assert [f.values for f in enumerate_rank_functions(kind, n, 0)] == [zero_fn(n).values]


def test_enumerate_is_lazy():
    first = next(enumerate_rank_functions("polymatroid", 16, 1))
    assert first.values == zero_fn(16).values


def test_enumerate_builds_each_function_through_the_kernel(monkeypatch):
    # setfn._from_scaled turns every integer table into a SetFunction
    built = []
    real = setfn._from_scaled

    def counting(ground, table, unit):
        built.append(real(ground, table, unit))
        return built[-1]

    monkeypatch.setattr(setfn, "_from_scaled", counting)
    for kind, n, cap in (("polymatroid", 3, 2), ("polyquantoid", 4, 2)):
        built.clear()
        got = list(enumerate_rank_functions(kind, n, cap))
        assert len(got) == len(built) > 1
        assert all(f is g for f, g in zip(got, built))


@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("kind,n,cap", [("polymatroid", 4, 3), ("polyquantoid", 4, 3),
                                        ("polyquantoid", 5, 2)])
def test_enumerate_in_small_blocks_matches_the_unpruned_walk(monkeypatch, block, kind, n, cap):
    # a block of a few rows (64 entries) or of one row: every split and chunk path runs;
    # every function is built before any is read, so a table written again would show
    monkeypatch.setattr(setfn, "_BLOCK", block)
    got = [f.values for f in list(enumerate_rank_functions(kind, n, cap))]
    assert got == [f.values for f in enumerate_rank_functions_unpruned(kind, n, cap)]


@pytest.mark.parametrize("block", [None, 2000])
def test_enumerate_one_parent_in_chunks(monkeypatch, block):
    # 5,001 children of one row: one chunk of 32,768 rows, or six of 1,000
    if block:
        monkeypatch.setattr(setfn, "_BLOCK", block)
    got = [f.values for f in enumerate_rank_functions("polymatroid", 1, 5000)]
    assert got == [(Fraction(0), Fraction(v)) for v in range(5001)]


def test_enumerate_past_the_int64_guard_is_exact():
    # a cap of 10**30 runs the block on Python ints
    first = itertools.islice(enumerate_rank_functions("polymatroid", 1, 10**30), 3)
    assert [f.values for f in first] == [(Fraction(0), Fraction(v)) for v in range(3)]
    got = itertools.islice(enumerate_rank_functions("polyquantoid", 3, 10**30), 20)
    want = itertools.islice(enumerate_rank_functions_unpruned("polyquantoid", 3, 10**30), 20)
    assert [f.values for f in got] == [f.values for f in want]


def test_enumerate_output_passes_classify():
    for kind, flag in [("polymatroid", "polymatroid"), ("polyquantoid", "polyquantoid")]:
        for f in enumerate_rank_functions(kind, 3, 2):
            c = classify(f)
            assert c.as_dict()[flag] and c.integer


def test_classification_implications_on_corpus():
    for f in enumerate_rank_functions("polyquantoid", 3, 2):
        c = classify(f)
        if c.quantoid:
            assert c.polyquantoid
        if c.polyquantoid:
            assert c.submodular
    for f in enumerate_rank_functions("polymatroid", 3, 2):
        c = classify(f)
        if c.matroid:
            assert c.polymatroid


def test_zero_function_is_everything():
    c = classify(zero_fn(2))
    assert c.polymatroid and c.polyquantoid and c.matroid and c.quantoid


# -- error paths ---------------------------------------------------------------

@pytest.mark.parametrize("label", ["", "1,2", True], ids=["empty", "comma", "bool"])
def test_ground_set_rejects_invalid_labels(label):
    with pytest.raises(InvalidLabel):
        GroundSet(("1", label))


@pytest.mark.parametrize("count", [0, 1, 3, 5])
def test_table_of_the_wrong_length_is_rejected(count):
    values = [0] * count
    with pytest.raises(MissingSubset):
        from_table(["1", "2"], values)
    with pytest.raises(MissingSubset):
        SetFunction(GroundSet(("1", "2")), tuple(map(Fraction, values)))


def test_mask_of_key_rejects_a_repeated_member():
    g = GroundSet(("1", "2"))
    assert g.mask_of_key("2,1") == 3
    with pytest.raises(DuplicateLabel):
        g.mask_of_key("1,2,1")


@pytest.mark.parametrize("n, cap", [(-1, 1), (2, -1)])
def test_enumerate_rejects_negative_sizes(n, cap):
    with pytest.raises(ValueError, match="nonnegative"):
        next(enumerate_rank_functions("polymatroid", n, cap))


@pytest.mark.parametrize("n, cap", [(2, 2.5), (2, Fraction(5, 2)), (2.0, 1), (2, "1"),
                                    (np.float64(2), 1)])
def test_enumerate_rejects_a_size_that_is_no_int(n, cap):
    # a float or Fraction cap was read as its floor, which let a float decide an exact bound
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        next(enumerate_rank_functions("polymatroid", n, cap))


def test_enumerate_reads_a_numpy_integer_as_the_int_it_equals():
    want = [f.values for f in enumerate_rank_functions("polyquantoid", 3, 2)]
    assert [f.values for f in enumerate_rank_functions("polyquantoid", np.int64(3), 2)] == want
    assert [f.values for f in enumerate_rank_functions("polyquantoid", 3, np.uint8(2))] == want


def test_scale_message_obeys_the_digit_limit():
    # str of a 4,401-digit integer passes int's str limit
    with pytest.raises(NonpositiveScale, match="digit limit"):
        scale(from_table(["1"], [0, 1]), -Fraction(10**4400))
    with pytest.raises(NonpositiveScale, match="^-3/2$"):
        scale(from_table(["1"], [0, 1]), Fraction(-3, 2))


# -- member labels and the digit limit -------------------------------------------

def test_mask_of_rejects_a_repeated_label():
    g = GroundSet(("1", "2"))
    assert g.mask_of(["2", "1"]) == 3
    with pytest.raises(DuplicateLabel, match="^2$"):
        g.mask_of(["2", "2"])
    with pytest.raises(UnknownElement, match="^3$"):
        g.mask_of(["1", "3"])


def test_value_rejects_a_repeated_label():
    f = from_table(["1", "2"], [0, 1, 2, 3])
    assert f.value(["2", "1"]) == 3
    with pytest.raises(DuplicateLabel):
        f.value(["1", "1"])


def test_mask_of_rejects_a_bare_string():
    g = GroundSet(("12", "1", "2"))
    assert g.mask_of(["12"]) == 1 and g.mask_of(("1", "2")) == 6
    with pytest.raises(TypeError, match="'12'"):
        g.mask_of("12")


def test_value_rejects_a_bare_string():
    f = from_table(["ab", "a", "b"], range(8))
    assert f.value(["ab"]) == 1
    with pytest.raises(TypeError, match="'ab'"):
        f.value("ab")


def test_getitem_and_table_read_the_values():
    f = from_table(["a", "b"], [0, 1, 2, "1/2"])
    assert [f[m] for m in f.ground.subsets()] == [0, 1, 2, Fraction(1, 2)]
    assert f.table() == {"": 0, "a": 1, "b": 2, "a,b": Fraction(1, 2)}
    assert list(f.table()) == f.ground.subset_keys()
    assert build(f.labels, f.table()) == f


@pytest.mark.parametrize("text", ["1" * 4301, "1/" + "3" * 4301, "3" * 4301 + "/1",
                                  "0." + "1" * 4300, "1e4300", "1e-5000"],
                         ids=["integer", "denominator", "numerator", "decimal",
                              "exponent", "negative-exponent"])
def test_as_rational_rejects_either_side_past_the_digit_limit(text):
    # the digits on the longer side of "/", plus the exponent's magnitude
    with pytest.raises(ValueTooLarge, match=r"\(past the 4300-digit limit\)$"):
        as_rational(text)


@pytest.mark.parametrize("text", ["1/" + "3" * 4300, "9" * 4300, " 1e4299 ", "0." + "1" * 4299],
                         ids=["denominator", "integer", "exponent", "decimal"])
def test_as_rational_accepts_values_at_the_digit_limit(text):
    assert as_rational(text) == Fraction(text.strip())


@pytest.mark.parametrize("text", ["0", "3", "0042", "000", "12345678901234567890", "٣", "３", "١٢"])
def test_decimal_strings_read_as_fraction_reads_them(text):
    # digits alone, of any script int reads, take the int path
    value = as_rational(text)
    assert value == Fraction(text) and type(value) is Fraction


def test_every_decimal_digit_of_this_python_reads_as_int_reads_it():
    # the digit set is the running Python's Unicode database (650 decimal
    # characters on 3.10, 660 on 3.11, 680 on 3.12 and 3.13), kept on purpose
    digits = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isdecimal()]
    assert len(digits) >= 650 and "٣" in digits and "３" in digits
    for c in digits:
        value = as_rational(c)
        assert value == int(c) and type(value) is Fraction
        assert build(["1"], {"": "0", "1": c}).values == (0, int(c))


def test_decimal_strings_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    text = "0" + "7" * (limit - 1)
    value = as_rational(text)
    assert value == Fraction(text) and type(value) is Fraction
    with pytest.raises(ValueTooLarge, match=rf"\(past the {limit}-digit limit\)$"):
        as_rational(text + "7")
    sys.set_int_max_str_digits(0)
    try:
        assert as_rational(text + "7") == int(text + "7")
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text", [" 3", "3 ", "+3", "-3", "", "²",
                                  " 1/2 ", "\xa01", "1\n", " 5e-1 "])
def test_strings_not_all_decimal_take_fractions_parse(text):
    # "²" is a digit, but no decimal one; whitespace may surround the value
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(MalformedRational):
            as_rational(text)
    else:
        assert as_rational(text) == expected


def test_strings_are_read_in_python_3_10_syntax_on_every_python():
    # the oracle is Python 3.10's regex, not the running interpreter's Fraction;
    # strings of 0-5 characters, digits weighted up, hold no exponent past the digit limit
    rng = random.Random(30)
    alphabet, weights = "0123456789_/.eE+- \t\xa0", [3] * 10 + [1] * 10
    texts = ["".join(rng.choices(alphabet, weights, k=rng.randrange(6))) for _ in range(20_000)]
    read = 0
    for text in texts:
        try:
            expected = Fraction(text) if RATIONAL_FORMAT_3_10.match(text) else None
        except ZeroDivisionError:
            expected = None
        if expected is None:
            with pytest.raises(MalformedRational):
                as_rational(text)
        else:
            value = as_rational(text)
            assert value == expected and type(value) is Fraction
            read += 1
    assert 2_000 < read < 18_000


@pytest.mark.parametrize("text", ["1_000", "1_0/3", "1/1_0", "1e1_0", "0.1_5",
                                  "1 /2", "1/ 2", " 1 / 2 ", "1\u2003/2"])
def test_digit_groups_and_inner_whitespace_are_malformed(text):
    # Fraction reads the first five from Python 3.11 on, the rest from 3.12 on
    with pytest.raises(MalformedRational, match=f"^{re.escape(repr(text))}$"):
        as_rational(text)


def test_a_digit_that_is_no_decimal_is_malformed():
    with pytest.raises(MalformedRational, match="^'²'$"):
        as_rational("²")


def test_as_rational_digit_limit_of_zero_is_off():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert as_rational("1/" + "3" * 4301) == Fraction(1, int("3" * 4301))
        assert as_rational("1e5000") == 10 ** 5000
    finally:
        sys.set_int_max_str_digits(old)


# -- build reads each distinct value string once -------------------------------

def _encoded(f, encoding, rng):
    """f's table as a document's value mapping: every value a str, every
    value an int (f scaled by the lcm of its denominators), or each value
    one of str, an unreduced str, a Fraction or (when whole) an int."""
    if encoding == "int":
        den = math.lcm(*(x.denominator for x in f.values))
        return dict(zip(f.ground.subset_keys(), (int(x * den) for x in f.values)))
    if encoding == "str":
        return dict(zip(f.ground.subset_keys(), map(str, f.values)))
    forms = [str, lambda x: f"{2 * x.numerator}/{2 * x.denominator}", Fraction,
             lambda x: int(x) if x.denominator == 1 else str(x)]
    return {key: rng.choice(forms)(x) for key, x in zip(f.ground.subset_keys(), f.values)}


BUILD_FIXTURES = {
    **{f"U{k},{n}": (lambda k=k, n=n: uniform(k, n)) for k, n in ((0, 3), (2, 8), (5, 9), (4, 10))},
    **{f"random-n{n}-seed{seed}": (lambda n=n, seed=seed: random_rational_polymatroid(
        random.Random(seed), n)) for n, seed in ((8, 1), (9, 2), (10, 3))},
}


@pytest.mark.parametrize("encoding", ["str", "int", "mixed"])
@pytest.mark.parametrize("fixture", sorted(BUILD_FIXTURES))
def test_build_equals_the_per_value_oracle(fixture, encoding):
    rng = random.Random(f"{fixture}/{encoding}")
    f = BUILD_FIXTURES[fixture]()
    values = _encoded(f, encoding, rng)
    oracle = from_table(f.labels, [as_rational(values[k]) for k in f.ground.subset_keys()])
    got = build(f.labels, values)
    assert got == oracle
    assert all(type(x) is Fraction for x in got.values)


@pytest.mark.parametrize("encoding", ["str", "int"])
def test_build_parses_each_distinct_string_once(monkeypatch, encoding):
    calls = []
    real = setfn.as_rational

    def counting(value):
        calls.append(value)
        return real(value)

    u24 = uniform(2, 4)
    values = _encoded(u24, encoding, None)
    monkeypatch.setattr(setfn, "as_rational", counting)
    assert build(u24.labels, values) == u24
    # three distinct strings, "0", "1" and "2"; an int is read every time
    assert calls == (["0", "1", "2"] if encoding == "str" else list(values.values()))


def test_build_names_a_repeated_malformed_string_at_its_first_key():
    values = {"": "0", "1": "1", "2": "x", "1,2": "x", "3": "x", "1,3": "1", "2,3": "1",
              "1,2,3": "x"}
    with pytest.raises(MalformedRational) as info:
        build(["1", "2", "3"], values)
    assert str(info.value) == "'2': 'x'"


def test_build_names_the_first_bad_key_in_mask_order():
    # a missing key before a malformed one, and the reverse; an unknown key
    # is looked for only after every canonical key has been read
    with pytest.raises(MissingSubset) as info:
        build(["1", "2"], {"": "0", "1": "1", "1,2": "x", "3": "1"})
    assert str(info.value) == "2"
    with pytest.raises(MalformedRational) as info:
        build(["1", "2"], {"": "0", "1": "x", "2": "1", "3": "1"})
    assert str(info.value) == "'1': 'x'"
    with pytest.raises(UnknownSubsetKey) as info:
        build(["1", "2"], {"": "0", "1": "1", "2": "1", "1,2": "2", "3": "1", "0": "1"})
    assert str(info.value) == "'0'"


def test_build_names_an_unknown_key_among_keys_of_mixed_types():
    # keys of different types do not compare: the least str key is named,
    # and a key of another type only when no unknown key is a str
    with pytest.raises(UnknownSubsetKey) as info:
        build(["a"], {"": "0", "a": "1", 1: "2", "b": "3"})
    assert str(info.value) == "'b'"
    with pytest.raises(UnknownSubsetKey) as info:
        build(["a"], {"": "0", "a": "1", 1: "2", None: "3"})
    assert str(info.value) == "1"


@pytest.mark.parametrize("earlier", ["1", 1], ids=["str", "int"])
@pytest.mark.parametrize("later", [1.0, True, np.int64(1)], ids=["float", "bool", "int64"])
def test_build_rejects_values_equal_to_one_read_before(earlier, later):
    # 1.0, True and np.int64(1) compare and hash equal to 1, yet none is exact
    values = {"": 0, "1": earlier, "2": later, "1,2": earlier}
    with pytest.raises(MalformedRational) as info:
        build(["1", "2"], values)
    assert str(info.value).startswith("'2': ")


def test_build_rejects_a_repeated_string_past_the_digit_limit_at_its_first_key():
    big = "1" * 4301
    with pytest.raises(MalformedRational) as info:
        build(["1", "2"], {"": "0", "1": "1", "2": big, "1,2": big})
    assert str(info.value) == f"'2': {big!r} (past the 4300-digit limit)"


# -- bare strings of labels ----------------------------------------------------

def test_ground_set_rejects_a_bare_string():
    assert GroundSet(["12"]).labels == ("12",)
    with pytest.raises(TypeError, match="labels '12' is a string, not a list of labels"):
        GroundSet("12")


def test_build_rejects_a_bare_string_of_labels():
    assert build(["ab"], {"": 0, "ab": 1}).labels == ("ab",)
    with pytest.raises(TypeError, match="'ab'"):
        build("ab", {"": 0, "a": 1, "b": 1, "a,b": 2})


def test_from_table_rejects_a_bare_string_of_labels():
    assert from_table(("ab",), range(2)).labels == ("ab",)
    with pytest.raises(TypeError, match="'ab'"):
        from_table("ab", range(4))
