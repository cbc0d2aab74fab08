"""Secret-sharing analysis, matroid extraction, and circuit structure."""

from fractions import Fraction
import functools
import random

import pytest

from quantoid import expansion, setfn, sharing
from quantoid.correspondence import to_polymatroid, to_polyquantoid
from quantoid.duality import dual, is_selfdual, is_tight
from quantoid.errors import NotAMatroid, NotIdeal, NotOfKind, UnknownElement
from quantoid.expansion import (
    expansion_correspondence_holds,
    free_expand_polymatroid,
    free_expand_polyquantoid,
    two_factor,
)
from quantoid.setfn import build, classify, enumerate_rank_functions, from_table, scale
from quantoid.sharing import (
    access_from_circuits,
    analyze_sharing,
    extract_matroid,
    extract_selfdual_matroid,
    matroid_structure,
)

from helpers import (
    access_from_circuits_loops,
    bell,
    e22,
    ghz3,
    kernel_corpus,
    labels_for,
    matroid_structure_loops,
    minimal_by_submasks,
    not_ideal_reason_loops,
    q24,
    random_rational_polymatroid,
    sharing_flags_loops,
    uniform,
    zero_fn,
)


# -- analyze -------------------------------------------------------------------

def test_families_are_named_by_the_split_keys():
    def name(g, m):
        return tuple(g.key_of(m).split(",")) if m else ()

    for f in enumerate_rank_functions("polyquantoid", 5, 2):
        g = f.ground
        for dealer in f.labels:
            rep = analyze_sharing(f, dealer, "polyquantoid")
            _, flags = sharing._validated_flags(f, dealer, "polyquantoid")
            assert rep.authorized == tuple(name(g, m) for m in flags.authorized)
            assert rep.minimal_authorized == tuple(name(g, m) for m in flags.minimal)


def test_empty_families_build_no_member_tuples():
    # the free matroid's dealers authorize no coalition
    f = uniform(2, 2)
    rep = analyze_sharing(f, "1")
    assert rep.authorized == rep.minimal_authorized == ()
    assert "_subset_members" not in vars(f.ground)
    assert analyze_sharing(uniform(1, 2), "1").authorized == (("2",),)


def test_u24_every_pair_recovers_dealer():
    rep = analyze_sharing(uniform(2, 4), "4")
    assert rep.perfect and rep.ideal
    assert rep.minimal_authorized == (("1", "2"), ("1", "3"), ("2", "3"))
    assert rep.authorized == (("1", "2"), ("1", "3"), ("2", "3"), ("1", "2", "3"))
    assert rep.essential == ("1", "2", "3")
    t, rank = rep.extraction
    assert t == 1 and rank == uniform(2, 4)


def test_bell_dealer_two_is_ideal():
    rep = analyze_sharing(bell(), "2", "polyquantoid")
    assert rep.perfect and rep.ideal
    assert rep.authorized == (("1",),)
    assert rep.extraction == (Fraction(2), uniform(1, 2))


def test_unbalanced_polymatroid_is_not_perfect():
    f = from_table(["1", "2"], [0, 2, 1, 2])
    rep = analyze_sharing(f, "1")
    assert not rep.perfect and not rep.ideal and rep.extraction is None


def test_ghz3_dealer_is_not_perfect():
    rep = analyze_sharing(ghz3(), "3", "polyquantoid")
    assert not rep.perfect
    assert not rep.ideal


def test_analyze_rejects_wrong_kind():
    with pytest.raises(NotOfKind):
        analyze_sharing(ghz3(), "1", "polymatroid")  # not nondecreasing
    with pytest.raises(NotOfKind):
        analyze_sharing(uniform(2, 4), "1", "polyquantoid")  # not complementary
    with pytest.raises(ValueError):
        analyze_sharing(bell(), "1", "quantoid")


@pytest.mark.parametrize("f, kind", [(ghz3(), "polymatroid"), (uniform(2, 4), "polyquantoid")])
def test_wrong_kind_message_names_the_kind(f, kind):
    with pytest.raises(NotOfKind) as caught:
        analyze_sharing(f, "1", kind)
    assert str(caught.value) == f"not a {kind}"


def test_analyze_unknown_dealer():
    with pytest.raises(UnknownElement):
        analyze_sharing(uniform(2, 4), "9")


# -- extraction ------------------------------------------------------------------

def test_extract_scaled_u24():
    t, rank = extract_matroid(scale(uniform(2, 4), 3), "1")
    assert t == 3 and rank == uniform(2, 4)


def test_extract_zero_polymatroid():
    t, rank = extract_matroid(zero_fn(2), "1")
    assert t == 1 and rank == zero_fn(2)


@pytest.mark.parametrize("kind", ["polymatroid", "polyquantoid"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_function_extracts_t_one_at_every_dealer(n, kind):
    zero = zero_fn(n)
    extract = extract_matroid if kind == "polymatroid" else extract_selfdual_matroid
    for dealer in zero.labels:
        for t, rank in (analyze_sharing(zero, dealer, kind).extraction, extract(zero, dealer)):
            assert type(t) is Fraction and t == 1 and rank == zero


def test_extract_free_matroid_fails():
    with pytest.raises(NotIdeal, match="essential"):
        extract_matroid(uniform(2, 2), "1")


def test_extract_selfdual_q24():
    for dealer in labels_for(4):
        t, rank = extract_selfdual_matroid(q24(), dealer)
        assert t == 2 and rank == uniform(2, 4)


def test_extract_selfdual_bell():
    t, rank = extract_selfdual_matroid(bell(), "2")
    assert t == 2 and rank == uniform(1, 2)


def test_extract_selfdual_ghz3_fails():
    with pytest.raises(NotIdeal, match="perfect"):
        extract_selfdual_matroid(ghz3(), "1")


def test_extract_rejects_non_polymatroid():
    with pytest.raises(NotOfKind):
        extract_matroid(ghz3(), "1")


# -- matroid structure --------------------------------------------------------

def test_u24_structure():
    s = matroid_structure(uniform(2, 4))
    assert s.circuits == (("1", "2", "3"), ("1", "2", "4"),
                          ("1", "3", "4"), ("2", "3", "4"))
    assert s.loops == () and s.coloops == ()
    assert s.connected


def test_free_matroid_structure():
    s = matroid_structure(uniform(3, 3))
    assert s.circuits == ()
    assert s.coloops == ("1", "2", "3")
    assert not s.connected
    assert matroid_structure(uniform(1, 1)).connected  # single element, no loop


def test_rank_zero_singleton_structure():
    s = matroid_structure(zero_fn(1))
    assert s.circuits == (("1",),)
    assert s.loops == ("1",)
    assert not s.connected  # documented convention: a lone loop is disconnected


def test_loop_beside_other_elements_disconnects():
    f = from_table(["1", "2"], [0, 0, 1, 1])
    s = matroid_structure(f)
    assert s.loops == ("1",) and not s.connected


def test_structure_rejects_non_matroid():
    with pytest.raises(NotAMatroid):
        matroid_structure(scale(uniform(1, 3), 2))


# -- access structures from circuits ---------------------------------------------

def test_access_u24():
    fam = access_from_circuits(uniform(2, 4), "4")
    assert fam == (("1", "2"), ("1", "3"), ("2", "3"), ("1", "2", "3"))


def test_access_free_matroid_is_empty():
    assert access_from_circuits(uniform(2, 2), "1") == ()


def test_access_u12():
    assert access_from_circuits(uniform(1, 2), "1") == (("2",),)


def _matroids_up_to_3():
    out = []
    for n in range(4):
        for f in enumerate_rank_functions("polymatroid", n, max(n, 1)):
            if classify(f).matroid:
                out.append(f)
    return out


@pytest.mark.parametrize("t", [1, 2, Fraction(1, 2)])
def test_access_matches_analyze_on_all_small_matroids(t):
    for r in _matroids_up_to_3():
        for dealer in r.labels:
            expected = analyze_sharing(scale(r, t), dealer).authorized
            assert access_from_circuits(r, dealer) == expected


# -- invariants over the enumerated corpus ----------------------------------------

def _mask_of(f, members):
    return f.ground.mask_of(members)


def test_heredity_and_dichotomy():
    for f in enumerate_rank_functions("polymatroid", 3, 2):
        for dealer in f.labels:
            rep = analyze_sharing(f, dealer)
            if not rep.perfect:
                continue
            authorized = {_mask_of(f, s) for s in rep.authorized}
            rest = f.full_mask ^ (1 << f.ground.index_of(dealer))
            # supersets of authorized coalitions stay authorized
            for m in authorized:
                for s in range(rest + 1):
                    if s & rest == s and s & m == m:
                        assert s in authorized
            # dichotomy: with a positive secret, every coalition is authorized
            # or gets full information, never both
            secret = f.value([dealer])
            if secret > 0:
                dbit = 1 << f.ground.index_of(dealer)
                for m in range(rest + 1):
                    if m & rest != m:
                        continue
                    inc = f.values[m | dbit] - f.values[m]
                    assert (inc == 0) != (inc == secret)


def test_essential_elements_carry_at_least_dealer_rank():
    for kind in ("polymatroid", "polyquantoid"):
        for f in enumerate_rank_functions(kind, 3, 2):
            for dealer in f.labels:
                rep = analyze_sharing(f, dealer, kind)
                for label in rep.essential:
                    assert f.value([label]) >= f.value([dealer])


def test_polyquantoid_flags_match_partner_polymatroid():
    for n in range(4):
        for e in enumerate_rank_functions("polyquantoid", n, 2):
            h = to_polymatroid(e)
            for dealer in e.labels:
                assert analyze_sharing(e, dealer, "polyquantoid") == \
                    analyze_sharing(h, dealer, "polymatroid")


def test_minimal_coalitions_match_submask_walk():
    cases = [(f, kind) for kind, n, cap in [("polymatroid", 3, 3), ("polymatroid", 4, 2),
                                            ("polyquantoid", 3, 2), ("polyquantoid", 4, 2)]
             for f in enumerate_rank_functions(kind, n, cap)]
    rng = random.Random(2012)
    cases += [(random_rational_polymatroid(rng, n), "polymatroid")
              for n in range(1, 8) for _ in range(4)]
    for f, kind in cases:
        for i in range(f.n):
            flags = sharing._flag_rows(f, [i], kind == "polyquantoid")[0]
            assert flags.minimal == minimal_by_submasks(flags.authorized)


REASONS = ("is not perfect", "is not essential", "has value")


def test_kernel_equals_loop_oracles():
    extract = {"polymatroid": extract_matroid, "polyquantoid": extract_selfdual_matroid}
    matroids = [uniform(k, n) for n in range(9) for k in range(n + 1)]
    reasons = set()
    for f, kind in kernel_corpus():
        quantum = kind == "polyquantoid"
        if classify(f).matroid:
            matroids.append(f)
        for i, dealer in enumerate(f.labels):
            flags = sharing._flag_rows(f, [i], quantum)[0]
            expected = sharing_flags_loops(f, 1 << i, quantum)
            assert flags[:5] == expected
            assert type(flags.perfect) is type(flags.ideal) is bool
            assert (flags.imperfect is None) == flags.perfect
            if flags.ideal:
                matroids.append(extract[kind](f, dealer)[1])
                continue
            with pytest.raises(NotIdeal) as info:
                extract[kind](f, dealer)
            message = str(info.value)
            assert message == not_ideal_reason_loops(f, i, expected, quantum)
            reasons.add(next((k for k in REASONS if k in message), message))
    assert reasons == set(REASONS)
    assert {r.n for r in matroids} == set(range(9))
    for r in matroids:
        assert matroid_structure(r) == matroid_structure_loops(r)
        for dealer in r.labels:
            assert access_from_circuits(r, dealer) == access_from_circuits_loops(r, dealer)


def test_batched_flags_equal_the_loop_oracle():
    # the kernel's rows for every dealer at once, for two dealers in reverse
    # order, and for one dealer (the path past the batching rule) agree, with
    # n = 8 and n = 9 on either side of that rule
    rng = random.Random(20)
    cases = kernel_corpus() + [(random_rational_polymatroid(rng, n), "polymatroid")
                                for n in (8, 9) for _ in range(2)]
    cases = [(f, kind) for f, kind in cases if f.n]  # no dealer on no elements
    assert {f.n for f, _ in cases} >= {1, 8, 9}
    assert any(f._scaled_table[0].dtype == object for f, _ in cases)
    for f, kind in cases:
        quantum = kind == "polyquantoid"
        rows = sharing._flag_rows(f, range(f.n), quantum)
        assert len(rows) == f.n
        for i, flags in enumerate(rows):
            assert flags[:5] == sharing_flags_loops(f, 1 << i, quantum)
            assert flags == sharing._flag_rows(f, [i], quantum)[0]
        if f.n >= 2:
            assert sharing._flag_rows(f, [f.n - 1, 0], quantum) == (rows[-1], rows[0])


def test_each_function_gets_one_flag_pass_per_kind(monkeypatch):
    passes = []
    real = sharing._flag_rows

    def counting(f, dealers, quantum):
        passes.append((f, list(dealers), quantum))
        return real(f, dealers, quantum)

    monkeypatch.setattr(sharing, "_flag_rows", counting)
    e = q24()
    for dealer in e.labels:
        assert analyze_sharing(e, dealer, "polyquantoid").ideal
        extract_selfdual_matroid(e, dealer)
    assert passes == [(e, [0, 1, 2, 3], True)]

    # the zero function is both kinds: one pass for each kind it is asked as
    passes.clear()
    z = zero_fn(3)
    for kind in ("polymatroid", "polyquantoid", "polymatroid"):
        for dealer in z.labels:
            analyze_sharing(z, dealer, kind)
    assert passes == [(z, [0, 1, 2], False), (z, [0, 1, 2], True)]

    rng = random.Random(8)
    f8, f9 = (random_rational_polymatroid(rng, n) for n in (8, 9))
    for f in (f8, f9):
        passes.clear()
        for dealer in f.labels[:3] * 2:
            analyze_sharing(f, dealer)
        # past eight elements each request flags only its own dealer
        assert passes == ([(f8, list(range(8)), False)] if f is f8
                          else [(f9, [i], False) for i in (0, 1, 2) * 2])
    assert f9._dealer_flags == {}


def test_coalition_rows_stack_every_dealer():
    for n in range(9):
        rows = sharing._coalition_rows(n)
        assert rows.shape == (n, (1 << n) // 2)
        with pytest.raises(ValueError, match="read-only"):
            rows[...] = 0


def test_plans_equal_a_per_mask_build():
    for n in range(9):
        below, smaller = sharing._one_smaller(n)
        assert below.tolist() == [[m & ~(1 << i) for i in range(n)] for m in range(1 << n)]
        assert smaller.tolist() == [[m >> i & 1 == 1 for i in range(n)] for m in range(1 << n)]
        for i in range(n):
            assert sharing._coalition_rows(n)[i].tolist() == \
                [m for m in range(1 << n) if not m >> i & 1]


def test_plans_are_read_only():
    # each dealer's coalitions are a row of one read-only array
    for plan in (*sharing._one_smaller(3), sharing._coalition_rows(3)[0],
                 sharing._coalition_rows(3)[2]):
        with pytest.raises(ValueError, match="read-only"):
            plan[0] = 1


def test_each_plan_is_built_once_per_key(monkeypatch):
    built = {"_one_smaller": [], "_coalition_rows": []}
    for name, keys in built.items():
        def counting(*key, real=getattr(sharing, name).__wrapped__, keys=keys):
            keys.append(key)
            return real(*key)

        monkeypatch.setattr(sharing, name, functools.cache(counting))
    e = q24()
    reports = [analyze_sharing(e, dealer, "polyquantoid") for dealer in e.labels]
    assert all(rep.ideal for rep in reports)
    r = reports[0].extraction[1]
    matroid_structure(r)
    for dealer in r.labels:
        access_from_circuits(r, dealer)
    # the flags read one size below the function, the circuits the rank's
    # own size; access_from_circuits reads its rows of the flags' coalitions
    assert built == {"_one_smaller": [(3,), (4,)], "_coalition_rows": [(4,)]}


def test_extracted_rank_is_a_matroid():
    extract = {"polymatroid": extract_matroid, "polyquantoid": extract_selfdual_matroid}
    for kind, cap in (("polymatroid", 3), ("polyquantoid", 2)):
        for n in range(4):
            for f in enumerate_rank_functions(kind, n, cap):
                for dealer in f.labels:
                    rep = analyze_sharing(f, dealer, kind)
                    if not rep.ideal:
                        continue
                    t, rank = rep.extraction
                    assert extract[kind](f, dealer) == (t, rank)
                    assert t > 0 and classify(rank).matroid
                    if kind == "polymatroid":
                        assert scale(rank, t) == f
                    else:
                        assert is_tight(rank) and is_selfdual(rank)
                        assert scale(to_polyquantoid(rank), t) == f


def test_entry_points_classify_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return classify(f)

    monkeypatch.setattr(sharing, "classify", counting)
    monkeypatch.setattr(expansion, "classify", counting)
    assert analyze_sharing(q24(), "1", "polyquantoid").ideal
    assert len(calls) == 1
    calls.clear()
    assert expansion_correspondence_holds(e22())
    assert len(calls) == 1


def test_each_function_is_scaled_once(monkeypatch):
    calls = []
    real = setfn._scaled

    def counting(values):
        calls.append(values)  # kept alive, so no two calls share an id
        return real(values)

    monkeypatch.setattr(setfn, "_scaled", counting)
    # a user-built function is scaled once, when it is built; scale by
    # p/q with p != 1 hands its output a table, so no call for f itself
    f = scale(uniform(2, 4), Fraction(3, 2))
    r = uniform(2, 4)
    e = q24()
    assert len(calls) == 3 and calls[1] is r.values and calls[2] is e.values

    # no function is scaled again after it is built
    calls.clear()
    for op in (classify, dual, is_selfdual, to_polymatroid, to_polyquantoid):
        op(f)
    scale(f, 2)
    assert all(analyze_sharing(f, dealer).ideal for dealer in f.labels)
    matroid_structure(r)
    for dealer in r.labels:
        access_from_circuits(r, dealer)
    free_expand_polymatroid(r)
    # each dealer's extraction reads its to_polymatroid partner's table as
    # _from_scaled handed it over, so no partner is scaled from its values
    assert all(analyze_sharing(e, dealer, "polyquantoid").ideal for dealer in e.labels)
    assert calls == []


def test_each_function_is_classified_once(monkeypatch):
    calls = []
    real = setfn._classify

    def counting(f):
        calls.append(f)  # kept alive, so no two calls share an id
        return real(f)

    h = scale(uniform(2, 4), 2)  # even singletons, so two_factor applies
    e = q24()
    monkeypatch.setattr(setfn, "_classify", counting)

    # the last op is two_factor for h, the Lemma 5.2 cross-check for e
    for f, kind, extract, expand, last in (
            (h, "polymatroid", extract_matroid, free_expand_polymatroid, two_factor),
            (e, "polyquantoid", extract_selfdual_matroid, free_expand_polyquantoid,
             expansion_correspondence_holds)):
        calls.clear()
        assert classify(f) is classify(f)
        assert all(analyze_sharing(f, dealer, kind).ideal for dealer in f.labels)
        for dealer in f.labels:
            extract(f, dealer)
        expand(f)
        last(f)
        # f once; a partner built inside the pipeline is its own object
        assert sum(x is f for x in calls) == 1
        assert len({id(x) for x in calls}) == len(calls)


def test_access_rejects_non_matroid_before_the_dealer():
    with pytest.raises(NotAMatroid):
        access_from_circuits(scale(uniform(2, 4), 2), "1")
    with pytest.raises(NotAMatroid):  # the matroid check runs first
        access_from_circuits(scale(uniform(2, 4), 2), "no such element")


def test_not_ideal_message_obeys_the_digit_limit():
    # the increment on {1} is (r + 1)/r - 1/p, whose denominator p * r has
    # about 8,600 digits, past int's str limit of 4,300
    p, r = 10**4299 + 1, 10**4299 + 7
    f = build(["1", "2"], {"": "0", "1": f"1/{p}", "2": "1", "1,2": f"{r + 1}/{r}"})
    with pytest.raises(NotIdeal, match="is not perfect: increment <a value past the 4300-digit"):
        extract_matroid(f, "2")
