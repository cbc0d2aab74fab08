"""Secret-sharing analysis, matroid extraction, and circuit structure."""

from fractions import Fraction
import random

import pytest

from quantoid import expansion, sharing
from quantoid.correspondence import to_polymatroid, to_polyquantoid
from quantoid.duality import is_selfdual, is_tight
from quantoid.errors import NotAMatroid, NotIdeal, NotOfKind, UnknownElement
from quantoid.expansion import expansion_correspondence_holds
from quantoid.setfn import classify, enumerate_rank_functions, from_table, scale
from quantoid.sharing import (
    access_from_circuits,
    analyze_sharing,
    extract_matroid,
    extract_selfdual_matroid,
    matroid_structure,
)

from helpers import (
    bell,
    e22,
    ghz3,
    labels_for,
    minimal_by_submasks,
    q24,
    random_rational_polymatroid,
    uniform,
    zero_fn,
)


# -- analyze -------------------------------------------------------------------

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
            flags = sharing._sharing_flags(f, 1 << i, kind == "polyquantoid")
            assert flags.minimal == minimal_by_submasks(flags.authorized)


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
