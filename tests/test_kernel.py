"""The integer-table kernel behind classify, dual, hat/vee and scale,
against the Fraction loop oracles in helpers, and its int64 overflow guard."""

import copy
from fractions import Fraction
import pickle
import random

import numpy as np
import pytest

from quantoid import setfn, sharing
from quantoid.correspondence import to_polymatroid, to_polyquantoid
from quantoid.documents import _texts, set_function_to_doc
from quantoid.duality import dual, is_selfdual, is_tight
from quantoid.entropic import ApproxSetFunction, snap_to_rational
from quantoid.expansion import free_expand_polymatroid, free_expand_polyquantoid, two_factor
from quantoid.setfn import (
    SetFunction,
    _modular,
    _scaled,
    build,
    classify,
    enumerate_rank_functions,
    from_table,
    scale,
)

from helpers import (
    classify_loops,
    dual_loops,
    kernel_corpus,
    labels_for,
    modular_sums_loops,
    q24,
    random_rational_polymatroid,
    scale_loops,
    sharing_flags_loops,
    to_polymatroid_loops,
    to_polyquantoid_loops,
    uniform,
    zero_fn,
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
    f._dual_table  # noqa: B018 -- cached, so copies carry it
    for g in (f, copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        a, _ = g._scaled_table
        assert a.dtype == dtype and g._scaled_table[0] is a and g == f
        for table in (a, g.__dict__["_dual_table"]):
            with pytest.raises(ValueError):
                table[0] = 1
            with pytest.raises(ValueError):
                table += table


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


# -- kernel outputs keep their table ------------------------------------------------

def guard_cases():
    """Tables on either side of the int64 guard, and one with an lcm past it."""
    primes = (2**61 - 1, 2**31 - 1, 1_000_000_007)
    return [from_table(labels_for(3), [-top, top, top, -top, top, -top, -top, top])
            for top in (2**59 - 1, 2**59, 2**70)] + [
        from_table(labels_for(3), [sum((Fraction(1, p) for i, p in enumerate(primes)
                                        if m >> i & 1), Fraction(0)) for m in range(8)]),
        scale(uniform(2, 3), 2**58 - 1), scale(uniform(2, 3), Fraction(2**70 + 1, 3))]


def kernel_outputs(f):
    """Every SetFunction the kernel builds from f's table: the dual, both
    correspondence maps, and scales by units with p = 1 and p != 1."""
    return [dual(f), to_polymatroid(f), to_polyquantoid(f)] + [
        scale(f, t) for t in (1, 2, Fraction(1, 3), Fraction(2, 7), Fraction(3, 2))]


def assert_table_is_scaled(g):
    """g's kept table equals _scaled(g.values); returns whether g carries it."""
    handed = "_scaled_table" in vars(g)
    a, den = g._scaled_table
    b, den2 = _scaled(g.values)
    assert (a.tolist(), den, a.dtype) == (b.tolist(), den2, b.dtype)
    assert not a.flags.writeable
    assert all(type(v) is Fraction for v in g.values)
    assert g == SetFunction(g.ground, g.values)
    return handed


def test_handed_off_tables_equal_scaled():
    # user-built functions and every kernel output of them, among which
    # scales by p/q with p != 1 and outputs in another dtype than their source
    kept, dtype_changed = set(), set()
    for f in table_corpus():
        for g in [f, *kernel_outputs(f)]:
            kept.add((assert_table_is_scaled(g), g._scaled_table[0].dtype == object))
            dtype_changed.add(g._scaled_table[0].dtype != f._scaled_table[0].dtype)
    # every function carries its table, on int64 and on Python-int tables
    assert kept == {(True, False), (True, True)}
    assert dtype_changed == {True, False}


def test_enumerated_and_expanded_functions_carry_their_table():
    e, h = q24(), scale(uniform(2, 4), 2)
    outputs = [*enumerate_rank_functions("polymatroid", 3, 2),
               *enumerate_rank_functions("polyquantoid", 4, 2),
               free_expand_polyquantoid(e).expanded_fn, free_expand_polymatroid(h).expanded_fn,
               two_factor(h).expanded_fn, to_polymatroid(e), dual(h)]
    assert all(assert_table_is_scaled(g) for g in outputs)


def test_outputs_over_a_common_factor_carry_their_reduced_table():
    # unit 1/q over a table that shares a factor g with q: hat(vee(U_{k,2k}))
    # has unit 1/2 over an even table, and so have half an even table and
    # vee of the zero function; each keeps table // g over den q // g, in
    # int64 even where the table it came from was a Python-int one
    even = from_table(labels_for(3), [2 * m.bit_count() for m in range(8)])
    wide = from_table(labels_for(3), [0] + [2**59] * 7)  # past the guard until halved
    assert wide._scaled_table[0].dtype == object
    hats = [to_polymatroid(to_polyquantoid(uniform(k, 2 * k))) for k in range(1, 8)]
    halves = [scale(f, Fraction(1, 2)) for f in (even, wide)]
    zeros = [g for n in (0, 1, 3)
             for g in (to_polyquantoid(zero_fn(n)), scale(zero_fn(n), Fraction(1, 2)))]
    assert all(assert_table_is_scaled(g) for g in hats + halves + zeros)
    assert hats[-1] == uniform(7, 14) and hats[-1]._scaled_table[1] == 1
    assert halves[1]._scaled_table[0].dtype == np.int64


def test_each_function_is_dualized_once(monkeypatch):
    calls = []
    real = setfn._dual

    def counting(a, n):
        calls.append(a)
        return real(a, n)

    monkeypatch.setattr(setfn, "_dual", counting)
    for f in (q24(), scale(uniform(2, 4), Fraction(3, 2)), guard_cases()[2]):
        calls.clear()
        assert classify(f).selfdual == is_selfdual(f)
        d = dual(f)
        assert dual(f) == d and is_selfdual(f) == classify(f).selfdual
        assert len(calls) == 1 and calls[0] is f._scaled_table[0]
        assert d._scaled_table[0] is f._dual_table  # the output keeps it as its table
        with pytest.raises(ValueError):
            f._dual_table[0] = 1


# -- parsed and snapped functions carry their table; printing and equality read it ---

ENCODINGS = {  # how a document or a caller may spell each value
    "str": str,
    "int": lambda v: int(v) if v.denominator == 1 else str(v),
    "fraction": lambda v: v,
}


def table_corpus():
    return [f for name in sorted(CORPORA) for f in corpus_with_perturbations(name)] + guard_cases()


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_parsed_functions_carry_their_table(encoding):
    dtypes = set()
    for f in table_corpus():
        g = build(f.labels, dict(zip(f.ground.subset_keys(), map(ENCODINGS[encoding], f.values))))
        assert assert_table_is_scaled(g)
        assert g.values == f.values
        dtypes.add(g._scaled_table[0].dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_snapped_functions_carry_their_table():
    dtypes = set()
    for f in table_corpus():
        approx = ApproxSetFunction(f.ground, tuple(map(float, f.values)))
        cap = max(x.denominator for x in f.values)
        g = snap_to_rational(approx, cap)
        assert assert_table_is_scaled(g)
        # the per-value snap the table replaced
        assert g.values == tuple(Fraction(v).limit_denominator(cap) for v in approx.values)
        dtypes.add(g._scaled_table[0].dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_printing_equals_str_of_every_value():
    user = from_table(labels_for(2), [0, Fraction(1, 2), Fraction(-3, 4), Fraction(1, 2)])
    assert "_scaled_table" in vars(user)
    kept = set()
    for g in [user] + [h for f in table_corpus() for h in [f, *kernel_outputs(f)]]:
        kept.add("_scaled_table" in vars(g))
        doc = set_function_to_doc(g)
        assert doc == {"ground_set": list(g.labels),
                       "values": dict(zip(g.ground.subset_keys(), _texts(g.values)))}
    assert kept == {True}  # every function carries its table to print


def value_builders():
    """Each path that builds a SetFunction, as a thunk that builds fresh
    functions, so that no value of theirs has been read yet."""
    h, e = scale(uniform(2, 4), 2), q24()
    thirds = from_table(labels_for(3), [Fraction(m.bit_count(), 3) for m in range(8)])
    return {
        "SetFunction": lambda: [SetFunction(h.ground, (0, Fraction(1, 2), "1/2", 1) * 4)],
        "from_table": lambda: [from_table(labels_for(3), [Fraction(m, 3) for m in range(8)]),
                               from_table(labels_for(2), [0, 2**70, 1, -3])],
        "build": lambda: [build(labels_for(2), {"": "0", "1": "1/2", "2": "1/2", "1,2": "2/4"}),
                          build(labels_for(1), {"": 0, "1": Fraction(2**70, 3)})],
        "snap_to_rational": lambda: [snap_to_rational(ApproxSetFunction(
            thirds.ground, tuple(map(float, thirds.values))), 10)],
        "enumerate_rank_functions": lambda: [
            *enumerate_rank_functions("polymatroid", 2, 2),
            *enumerate_rank_functions("polyquantoid", 3, 1)],
        "dual": lambda: [dual(thirds), dual(h)],
        "to_polymatroid": lambda: [to_polymatroid(e), to_polymatroid(to_polyquantoid(thirds))],
        "to_polyquantoid": lambda: [to_polyquantoid(h), to_polyquantoid(thirds)],
        "scale": lambda: [scale(h, Fraction(2, 7)), scale(thirds, 3), scale(h, 2**70)],
        "expansion": lambda: [free_expand_polyquantoid(e).expanded_fn,
                              free_expand_polymatroid(h).expanded_fn],
        "two_factor": lambda: [two_factor(h).expanded_fn],
        "extraction": lambda: [sharing.extract_matroid(h, "1")[1],
                               sharing.extract_selfdual_matroid(to_polyquantoid(h), "2")[1]],
    }


@pytest.mark.parametrize("path", sorted(value_builders()))
def test_values_are_the_table_over_den(path):
    # every function but a user-built one makes its values on first read;
    # a copy taken before that read makes the same values
    user = path in ("SetFunction", "from_table")
    for f in value_builders()[path]():
        assert ("values" in vars(f)) is user
        copies = [copy.deepcopy(f), pickle.loads(pickle.dumps(f))]
        assert all(("values" in vars(g)) is user for g in copies)
        a, den = f._scaled_table
        assert f.values == tuple(Fraction(x, den) for x in a.tolist())
        assert all(type(v) is Fraction for v in f.values) and "values" in vars(f)
        assert hash(f) == hash(SetFunction(f.ground, f.values))
        for g in copies:
            assert g == f and g.values == f.values and hash(g) == hash(f)
            with pytest.raises(ValueError):
                g._scaled_table[0][0] = 1
        assert not hasattr(f, "no_such")
        with pytest.raises(AttributeError, match="^'SetFunction' object has no attribute 'no_such'$"):
            f.no_such  # noqa: B018


def test_values_need_a_table():
    assert not hasattr(object.__new__(SetFunction), "values")


def test_equality_equals_comparing_values():
    fns = small_corpus() + guard_cases() + [
        from_table(["a"], [0, 1]), uniform(2, 3), scale(uniform(2, 3), Fraction(1, 2)),
        scale(uniform(2, 3), 2**70)]
    # the same values again: user-built with no table, and parsed
    everything = fns + [SetFunction(f.ground, f.values) for f in fns] + [
        build(f.labels, f.table()) for f in fns]
    for f in everything:
        for g in everything:
            same = (f.ground, f.values) == (g.ground, g.values)
            assert (f == g) is same and (f != g) is not same
            if same:
                assert hash(f) == hash(g)
    f = uniform(1, 1)
    assert f.__eq__(1) is NotImplemented and f.__eq__(f.values) is NotImplemented
    assert not f == 1 and f != 1 and not 1 == f
    assert f != ApproxSetFunction(f.ground, (0.0, 1.0))


# -- monotonicity from submodularity --------------------------------------------------

def test_nondecreasing_from_submodularity_equals_loops():
    # submodular tables, monotone or not (a polymatroid less a modular
    # function); monotone ones that are not (plus |S|^2); and random tables,
    # nearly all of them not submodular
    rng = random.Random(2020)
    fns = []
    for n in range(6):
        for _ in range(12):
            h = random_rational_polymatroid(rng, n) if n else from_table([], [0])
            weights = [rng.choice((0, Fraction(1, 2), 1, 3)) for _ in range(n)]
            fns.append(from_table(h.labels, [v - sum(w for i, w in enumerate(weights) if m >> i & 1)
                                             for m, v in enumerate(h.values)]))
            fns.append(from_table(h.labels, [v + m.bit_count() ** 2 for m, v in enumerate(h.values)]))
            fns.append(from_table(labels_for(n), [rng.randint(-2, 3) for _ in range(1 << n)]))
    seen = set()
    for f in fns:
        c = classify(f)
        assert c == classify_loops(f)
        seen.add((c.submodular, c.nondecreasing))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# -- classify's increments, the dual and every dealer's flags against the loops --------

def gather_corpus():
    """Functions on both sides of the gather limit: the sharing kernel
    corpus and the guard cases, each also perturbed; the zero function and
    a uniform matroid at n = 0, 1, 8 and 9; random n = 6, 8 and 9
    polymatroids, each also perturbed."""
    rng = random.Random(23)
    fns = [f for f, _ in kernel_corpus()] + guard_cases()
    fns += [g for n in (0, 1, 8, 9) for g in (zero_fn(n), uniform(n // 2, n))]
    fns += [random_rational_polymatroid(rng, n) for n in (6, 6, 8, 8, 9)]
    return fns + [perturbed(f, rng) for f in fns]


def test_gathered_increments_dual_and_dealer_flags_equal_loops():
    seen = set()
    for f in gather_corpus():
        n = f.n
        a = f._scaled_table[0]
        c = classify(f)
        assert c == classify_loops(f) and is_tight(f) == c.tight
        seen.add((n, a.dtype == object, c.submodular, c.nondecreasing))

        # the increments as classify gathers them up to the limit, checked on both sides of it
        inc = setfn._gains(a, setfn._coalition_rows(n), setfn._singleton_masks(n)[0])
        t = a.tolist()  # the oracles add Python ints
        assert inc.dtype == a.dtype
        assert inc.tolist() == [[t[m | 1 << i] - t[m] for m in range(1 << n) if not m >> i & 1]
                                for i in range(n)]

        full = len(t) - 1
        gains = [t[1 << i] - t[0] + t[full] - t[full ^ 1 << i] for i in range(n)]
        assert f._dual_table.tolist() == [t[full ^ m] + t[0] - t[full] + s
                                          for m, s in enumerate(modular_sums_loops(gains))]
        if a.dtype == np.int64:  # the membership product against the doubling
            weights = a[1 << np.arange(n)]
            product = _modular(weights, a.dtype)
            assert product.dtype == np.int64
            assert product.tolist() == _modular(weights.astype(object), object).tolist() \
                == modular_sums_loops(weights.tolist())

        if n:  # no dealer on no elements
            rows = sharing._flag_rows(f, range(n), c.polyquantoid)
            assert [row[:5] for row in rows] == [sharing_flags_loops(f, 1 << i, c.polyquantoid)
                                                 for i in range(n)]
    assert {s[0] for s in seen} == set(range(10))
    assert {s[1:] for s in seen} == {(dtype, sub, mono) for dtype in (False, True)
                                     for sub in (False, True) for mono in (False, True)}
