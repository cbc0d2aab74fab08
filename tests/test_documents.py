"""JSON document round trips and validation."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from quantoid import documents
from quantoid.entropic import ApproxSetFunction, PureState, von_neumann_entropy_function
from quantoid.errors import MalformedDocument, MissingSubset, QuantoidError
from quantoid.setfn import GroundSet, classify
from quantoid.sharing import analyze_sharing
from quantoid.expansion import expansion_correspondence_holds, free_expand_polyquantoid

from helpers import amplitudes_by_entry, bell, e22, q24, uniform


def test_set_function_round_trip():
    doc = documents.set_function_to_doc(uniform(2, 4))
    again = documents.set_function_from_doc(doc)
    assert again == uniform(2, 4)
    assert documents.dumps(doc) == documents.dumps(
        documents.set_function_to_doc(again))


def test_rationals_serialized_in_lowest_terms():
    doc = documents.set_function_from_doc({
        "ground_set": ["1"],
        "values": {"": "0", "1": "2/4"},
    })
    assert documents.set_function_to_doc(doc)["values"]["1"] == "1/2"


def test_document_requires_fields():
    with pytest.raises(MalformedDocument, match="ground_set"):
        documents.set_function_from_doc({"values": {}})
    with pytest.raises(MalformedDocument, match="values"):
        documents.set_function_from_doc({"ground_set": ["1"]})
    with pytest.raises(MissingSubset):
        documents.set_function_from_doc(
            {"ground_set": ["1"], "values": {"": "0"}})


def test_dumps_is_canonical_json():
    text = documents.dumps({"a": 1})
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1}


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_every_document_kind_is_written_as_json_dumps_writes_it():
    w = (2 ** -0.5, 0.0)
    state = PureState(GroundSet(("1", "2")), (2, 2), (w[0], w[1], w[1], w[0]))
    docs = [
        documents.set_function_to_doc(uniform(2, 4)),
        documents.approx_set_function_to_doc(von_neumann_entropy_function(state)),
        documents.sharing_report_to_doc(analyze_sharing(q24(), "1", "polyquantoid")),
        documents.sharing_report_to_doc(analyze_sharing(uniform(2, 2), "1")),
        documents.expansion_to_doc(free_expand_polyquantoid(e22())),
        classify(uniform(2, 4)).as_dict(),
        {"lemma52": expansion_correspondence_holds(e22())},
    ]
    assert docs[2]["extraction"] is not None and docs[3]["extraction"] is None
    for doc in docs:
        assert documents.dumps(doc) == _json_dumps(doc)


ODD_LABELS = ['"', "\\", "\n", "\t", "\x00", "\u2028", "é", "\U0001d11e", 'a"b\\c\x7f']
ODD_FLOATS = [-0.0, 5e-324, 1e22, 0.1, float("nan"), float("inf"), float("-inf")]


EDGE_CASES = {
    "empty-dict": {}, "empty-list": [], "empty-tuple": (), "int": 0, "empty-str": "", "null": None,
    "depth-1": {"a": {}}, "depth-1-list": [[]], "depth-2": {"a": [{"b": []}]},
    "depth-3": [[[{}]]], "mixed-empties": {"a": [[], {}, [[]]]},
    "odd-labels": {label: label for label in ODD_LABELS},
    "odd-label-list": ODD_LABELS,
    "floats": ODD_FLOATS,
    "float-tuple": {"x": ODD_FLOATS, "y": tuple(ODD_FLOATS)},
    "scalars": [10 ** 40, -10 ** 40, True, False, None, (1, ("a", ())), {"t": (True, None)}],
    "scalar-keys": {2: "int", -2.5: "float", float("nan"): 0, float("inf"): 1,
                    True: [], False: {}, None: ()},
}


@pytest.mark.parametrize("doc", EDGE_CASES.values(), ids=EDGE_CASES)
def test_writer_equals_json_dumps_on_edge_cases(doc):
    assert documents.dumps(doc) == _json_dumps(doc)


@pytest.mark.parametrize("doc", [
    set(), object(), b"x", 1j, [set()], (b"x",), {"a": [1, object()]},
    {(1, 2): 0}, {"a": {frozenset(): 0}},
], ids=["set", "object", "bytes", "complex", "set-item", "bytes-item", "object-value",
        "tuple-key", "frozenset-key"])
def test_writer_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        json.dumps(doc)
    with pytest.raises(TypeError):
        documents.dumps(doc)


def test_approx_document_carries_tolerance():
    f = ApproxSetFunction(GroundSet(("1",)), (0.0, 1.0), tol=1e-9)
    doc = documents.approx_set_function_to_doc(f)
    assert doc["tol"] == 1e-9
    assert doc["values"] == {"": 0.0, "1": 1.0}


def test_distribution_and_state_docs():
    dist = documents.distribution_from_doc(
        {"parties": ["1", "2"], "alphabets": [2, 2], "probs": [0.5, 0, 0, 0.5]})
    assert dist.alphabet_sizes == (2, 2)
    state = documents.pure_state_from_doc({
        "parties": ["1", "2"],
        "dims": [2, 2],
        "amplitudes": [[0.7071067811865476, 0], [0, 0], [0, 0],
                       [0.7071067811865476, 0]],
    })
    assert state.dims == (2, 2)
    with pytest.raises(MalformedDocument, match="amplitudes"):
        documents.pure_state_from_doc(
            {"parties": ["1"], "dims": [2], "amplitudes": [1.0, 0.0]})


INF, NAN = float("inf"), float("nan")
BAD_AMPLITUDES = [  # entries that are not a pair of finite numbers
    [INF, 0], [0, -INF], [NAN, 0], [0.5, NAN], [10**400, 0], [0, -10**400],
    True, [True, 0], [0, False], "x", ["1", 0], None, [None, 0],
    [1], [1, 0, 0], [], 1.0, [[1, 0]], {"re": 1, "im": 0},
]
PART = st.one_of(st.integers(-3, 3), st.floats(-4, 4, allow_nan=False))


def _read_state(read, raw):
    """("state", its amplitudes' repr), or the error's name and message, of
    a one-party state document whose dimension is the list's length."""
    doc = {"parties": ["1"], "dims": [max(len(raw), 1)], "amplitudes": raw}
    try:
        return "state", repr(read(doc).amplitudes)
    except QuantoidError as exc:
        return type(exc).__name__, str(exc)


def _by_entry(doc):
    return PureState(GroundSet(tuple(doc["parties"])), tuple(doc["dims"]),
                     amplitudes_by_entry(doc["amplitudes"]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(PART, PART), max_size=8),
       bad=st.lists(st.tuples(st.sampled_from(["first", "middle", "last"]),
                              st.sampled_from(BAD_AMPLITUDES)), max_size=3))
@example(pairs=[(1, 0)], bad=[("first", [INF, 0]), ("last", "x")])
@example(pairs=[(1, 0)], bad=[("first", "x"), ("last", [INF, 0])])
@example(pairs=[(0.6, 0), (0, 0.8)], bad=[])
def test_amplitude_reader_matches_the_entry_by_entry_oracle(pairs, bad):
    # the good pairs are scaled to a unit vector where they can be, so that
    # a list without a bad entry is read all the way to a state
    norm = math.sqrt(sum(re * re + im * im for re, im in pairs))
    raw = [[re / norm, im / norm] if norm not in (0, 1) else [re, im] for re, im in pairs]
    for where, entry in bad:  # the bad entry first, in the middle or last
        raw.insert({"first": 0, "middle": len(raw) // 2, "last": len(raw)}[where], entry)
    assert _read_state(documents.pure_state_from_doc, raw) == _read_state(_by_entry, raw)


def test_sharing_report_doc_shape():
    doc = documents.sharing_report_to_doc(analyze_sharing(bell(), "2", "polyquantoid"))
    assert doc["dealer"] == "2"
    assert doc["authorized"] == ["1"]
    assert doc["ideal"] is True
    assert doc["extraction"]["t"] == "2"
    assert doc["extraction"]["rank"]["values"]["1,2"] == "1"


def test_sharing_report_doc_without_extraction():
    doc = documents.sharing_report_to_doc(analyze_sharing(uniform(2, 2), "1"))
    assert doc["extraction"] is None
    assert doc["authorized"] == []


def test_expansion_doc_shape():
    doc = documents.expansion_to_doc(free_expand_polyquantoid(e22()))
    assert doc["kind"] == "quantoid-expansion"
    assert doc["blocks"] == {"1": ["1.0", "1.1"], "2": ["2.0", "2.1"]}
    assert doc["expanded"]["values"][""] == "0"
