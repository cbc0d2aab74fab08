"""Acceptance suite.

Eight criteria, each a test that prints one PASS/FAIL line (visible with
`PYTHONPATH=src pytest -s tests/test_acceptance.py`).  Exact criteria
compare Fractions with tolerance zero; the entropic criterion uses 1e-9
throughout.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from quantoid import documents
from quantoid.cli import main as cli_main
from quantoid.correspondence import to_polymatroid, to_polyquantoid
from quantoid.duality import dual, is_selfdual, is_tight
from quantoid.entropic import (
    JointDistribution,
    PureState,
    shannon_entropy_function,
    von_neumann_entropy_function,
)
from quantoid.expansion import (
    expansion_correspondence_holds,
    free_expand_polymatroid,
    free_expand_polyquantoid,
    two_factor,
)
from quantoid.setfn import GroundSet, classify, enumerate_rank_functions, scale
from quantoid.sharing import (
    access_from_circuits,
    analyze_sharing,
    extract_selfdual_matroid,
)

from helpers import (
    bell,
    classify_exhaustive,
    e22,
    full_minimization,
    ghz3,
    labels_for,
    q24,
    random_rational_polymatroid,
    uniform,
)

TOL = 1e-9
INV_SQRT2 = 2 ** -0.5


def _verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} [{status}] {name}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def _enumerated_polymatroids(cap):
    for n in range(4):
        yield from enumerate_rank_functions("polymatroid", n, cap)


def _enumerated_polyquantoids(cap=2):
    for n in range(4):
        yield from enumerate_rank_functions("polyquantoid", n, cap)


def _duality_law_failures(h):
    failures = []
    d = dual(h)
    full = h.full_mask
    if dual(d) != h:
        failures.append(("involution", h.values))
    if d.values[0] != h.values[0]:
        failures.append(("empty set", h.values))
    for i in range(h.n):
        if d.values[1 << i] != h.values[1 << i]:
            failures.append(("singleton", i, h.values))
        if (d.values[full] - d.values[full ^ (1 << i)]
                != h.values[full] - h.values[full ^ (1 << i)]):
            failures.append(("top difference", i, h.values))
    if classify(h).submodular != classify(d).submodular:
        failures.append(("submodular iff", h.values))
    if classify(h).polymatroid and not classify(d).nondecreasing:
        failures.append(("dual not nondecreasing", h.values))
    return failures


def test_criterion_1_duality_involution():
    failures = []
    for h in _enumerated_polymatroids(cap=3):
        failures += _duality_law_failures(h)
    rng = random.Random(2012)
    for _ in range(500):
        h = random_rational_polymatroid(rng, rng.randint(1, 5))
        assert classify(h).polymatroid  # generator sanity
        failures += _duality_law_failures(h)
    _verdict(1, "duality involution and conservation laws", failures)


def _correspondence_failures(e):
    """Criterion 2's checks on one integer polyquantoid e: its image is a
    tight selfdual integer polymatroid with even singletons ({0, 2} for a
    quantoid), and to_polyquantoid inverts it."""
    failures = []
    h = to_polymatroid(e)
    c = classify(h)
    if not (c.polymatroid and c.tight and c.selfdual):
        failures.append(("image not tight selfdual polymatroid", e.values))
    if to_polyquantoid(h) != e:
        failures.append(("inverse", e.values))
    if not c.integer or any(h.values[1 << i] % 2 for i in range(h.n)):
        failures.append(("integer image parity", e.values))
    if classify(e).quantoid and not all(
            h.values[1 << i] in (0, 2) for i in range(h.n)):
        failures.append(("quantoid image singletons", e.values))
    return failures


def test_criterion_2_correspondence_bijection():
    failures = []
    for e in _enumerated_polyquantoids():
        failures += _correspondence_failures(e)
    for h in enumerate_rank_functions("polymatroid", 3, 4):
        if not (is_tight(h) and is_selfdual(h)):
            continue
        e = to_polyquantoid(h)
        ce = classify(e)
        if not ce.polyquantoid:
            failures.append(("reverse image not polyquantoid", h.values))
        if to_polymatroid(e) != h:
            failures.append(("reverse inverse", h.values))
        even = all(h.values[1 << i] % 2 == 0 for i in range(h.n))
        if even != ce.integer:
            failures.append(("even singletons vs integer image", h.values))
        zero_or_two = all(h.values[1 << i] in (0, 2) for i in range(h.n))
        if zero_or_two != ce.quantoid:
            failures.append(("singletons {0,2} vs quantoid image", h.values))
    _verdict(2, "polyquantoid <-> tight selfdual polymatroid bijection", failures)


def test_criterion_2_on_every_polyquantoid_at_five_elements():
    # one size above the criterion's own sweep: the 556 functions of
    # (polyquantoid, 5, 2), which the pruned enumerator reaches quickly
    failures = []
    count = 0
    for e in enumerate_rank_functions("polyquantoid", 5, 2):
        failures += _correspondence_failures(e)
        count += 1
    assert count == 556
    _verdict(2, "bijection on every (polyquantoid, 5, 2) function", failures)


def test_criterion_3_expansion_closure():
    failures = []
    for e in _enumerated_polyquantoids():
        exp = free_expand_polyquantoid(e)
        # the adapted-set optimum must equal the unrestricted minimization
        if exp.expanded_fn.values != full_minimization(e, exp):
            failures.append(("adapted-set minimum differs", e.values))
        if exp.map.expanded.n > 12:
            failures.append(("cap exceeded", e.values))
        if not classify_exhaustive(exp.expanded_fn).quantoid:
            failures.append(("expansion not a quantoid", e.values))
    _verdict(3, "free expansions of integer polyquantoids are quantoids", failures)


def test_criterion_4_expansion_cross_route():
    failures = []
    for e in _enumerated_polyquantoids():
        if not expansion_correspondence_holds(e):
            failures.append(("routes disagree", e.values))
        h = to_polymatroid(e)  # tight selfdual with even singletons
        exp = free_expand_polymatroid(h)
        if exp.expanded_fn.values != full_minimization(h, exp):
            failures.append(("adapted-set minimum differs", h.values))
        if not classify(exp.expanded_fn).matroid:
            failures.append(("expansion not a matroid", h.values))
        if not (is_tight(exp.expanded_fn) and is_selfdual(exp.expanded_fn)):
            failures.append(("expansion loses tight selfdual", h.values))
        tf = two_factor(h)
        if not (is_tight(tf.expanded_fn) and is_selfdual(tf.expanded_fn)):
            failures.append(("2-factor loses tight selfdual", h.values))
    _verdict(4, "expansion route cross-check and preservation laws", failures)


def test_criterion_5_worked_identities():
    failures = []
    exp = free_expand_polymatroid(scale(uniform(1, 2), 2))
    if exp.expanded_fn != uniform(2, 4, labels=exp.map.expanded.labels):
        failures.append("free expansion of doubled U_{1,2} is not U_{2,4}")
    if dual(uniform(1, 3)) != uniform(2, 3):
        failures.append("dual of U_{1,3} is not U_{2,3}")
    if to_polyquantoid(scale(uniform(2, 4), 2)) != q24():
        failures.append("doubled U_{2,4} does not map onto Q24")
    _verdict(5, "worked identities, tolerance zero", failures)


def test_criterion_6_secret_sharing():
    failures = []
    for t in (1, 2, 3):
        f = scale(uniform(2, 4), t)
        for dealer in f.labels:
            rep = analyze_sharing(f, dealer)
            if not rep.ideal or rep.extraction != (Fraction(t), uniform(2, 4)):
                failures.append(("u24 extraction", t, dealer))
    for dealer in labels_for(4):
        if extract_selfdual_matroid(q24(), dealer) != (Fraction(2), uniform(2, 4)):
            failures.append(("q24 extraction", dealer))
    if extract_selfdual_matroid(bell(), "2") != (Fraction(2), uniform(1, 2)):
        failures.append("bell extraction")
    for dealer in labels_for(3):
        if analyze_sharing(ghz3(), dealer, "polyquantoid").perfect:
            failures.append(("ghz3 perfect dealer", dealer))
    matroids = [f for n in range(4)
                for f in enumerate_rank_functions("polymatroid", n, max(n, 1))
                if classify(f).matroid]
    matroids += [uniform(2, 4), uniform(1, 2)]
    for r in matroids:
        for dealer in r.labels:
            family = access_from_circuits(r, dealer)
            for t in (1, 2, Fraction(1, 2)):
                if analyze_sharing(scale(r, t), dealer).authorized != family:
                    failures.append(("access mismatch", r.values, dealer, t))
    _verdict(6, "ideal sharing, extraction, and circuit access structures", failures)


def test_criterion_7_entropic():
    failures = []
    parties2 = GroundSet(("1", "2"))
    parties3 = GroundSet(("1", "2", "3"))

    f = von_neumann_entropy_function(
        PureState(parties2, (2, 2), (INV_SQRT2, 0, 0, INV_SQRT2)))
    if any(abs(a - b) > TOL for a, b in zip(f.values, (0, 1, 1, 0))):
        failures.append(("bell values", f.values))

    g = von_neumann_entropy_function(
        PureState(parties3, (2, 2, 2), (INV_SQRT2, 0, 0, 0, 0, 0, 0, INV_SQRT2)))
    if any(abs(a - b) > TOL for a, b in zip(g.values, (0, 1, 1, 1, 1, 1, 1, 0))):
        failures.append(("ghz values", g.values))

    s = shannon_entropy_function(
        JointDistribution(parties2, (2, 2), (0.5, 0, 0, 0.5)))
    if any(abs(a - b) > TOL for a, b in zip(s.values, (0, 1, 1, 1))):
        failures.append(("fair bit values", s.values))

    rng = np.random.default_rng(126136)
    for trial in range(100):
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(parties3, (2, 2, 2), tuple(raw / np.linalg.norm(raw)))
        v = von_neumann_entropy_function(state).values
        full = 7
        if any(abs(v[m] - v[full ^ m]) > TOL for m in range(8)):
            failures.append(("complementarity", trial))
        if any(v[i] + v[j] < v[i | j] + v[i & j] - TOL
               for i in range(8) for j in range(8)):
            failures.append(("submodularity", trial))
    _verdict(7, "entropy constructors within 1e-9", failures)


def test_criterion_8_cli_determinism(tmp_path, capsys):
    def save(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    files = {
        "bell": save("bell", documents.set_function_to_doc(bell())),
        "ghz3": save("ghz3", documents.set_function_to_doc(ghz3())),
        "u13": save("u13", documents.set_function_to_doc(uniform(1, 3))),
        "u24": save("u24", documents.set_function_to_doc(uniform(2, 4))),
        "u24x2": save("u24x2", documents.set_function_to_doc(scale(uniform(2, 4), 2))),
        "e22": save("e22", documents.set_function_to_doc(e22())),
        "state": save("state", {
            "parties": ["1", "2"], "dims": [2, 2],
            "amplitudes": [[INV_SQRT2, 0], [0, 0], [0, 0], [INV_SQRT2, 0]],
        }),
        "fair": save("fair", {"parties": ["1", "2"], "alphabets": [2, 2],
                              "probs": [0.5, 0, 0, 0.5]}),
        "bad": save("bad", {"ground_set": ["1"], "values": {"": "0"}}),
    }

    commands = [
        (["check", files["bell"]], 0),
        (["check", files["u24"]], 0),
        (["dual", files["u13"]], 0),
        (["hat", files["bell"]], 0),
        (["vee", files["u24x2"]], 0),
        (["share", files["u24x2"], "--dealer", "4"], 0),
        (["share", files["ghz3"], "--dealer", "1", "--kind", "polyquantoid"], 1),
        (["share", files["u24"], "--dealer", "9"], 2),
        (["expand", files["e22"], "--mode", "quantoid"], 0),
        (["expand", files["bell"], "--verify-lemma52"], 0),
        (["entropy", "--quantum", files["state"], "--snap", "1"], 0),
        (["entropy", "--classical", files["fair"]], 0),
        (["check", files["bad"]], 2),
    ]

    failures = []
    for argv, expected_code in commands:
        runs = []
        for _ in range(2):
            code = cli_main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out))
        if runs[0] != runs[1]:
            failures.append(("nondeterministic", argv))
        if runs[0][0] != expected_code:
            failures.append(("exit code", argv, runs[0][0], expected_code))
    _verdict(8, "CLI byte determinism and exit codes", failures)
