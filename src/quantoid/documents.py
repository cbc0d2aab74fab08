"""JSON document formats.

Set-function document (exact):

    {"ground_set": ["1", "2"],
     "values": {"": "0", "1": "1", "2": "1", "1,2": "0"}}

Rationals are written in lowest terms as "p" or "p/q" strings; subset keys
list member labels in ground-set order, comma-joined, with the empty set
as the empty string.  Distributions, states, sharing reports, and
expansions have their own shapes below.  Serialization is canonical:
identical objects always produce identical bytes.
"""

from __future__ import annotations

import json
import sys

from .entropic import ApproxSetFunction, JointDistribution, PureState, _numbers
from .errors import InvalidLabel, MalformedDocument, NotNormalized, ValueTooLarge
from .expansion import Expansion
from .setfn import GroundSet, SetFunction, build
from .sharing import SharingReport


def dumps(doc) -> str:
    """Canonical JSON text: two-space indent, insertion order, trailing newline."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _field(doc, name: str, kind: type):
    if not isinstance(doc, dict) or name not in doc:
        raise MalformedDocument(name)
    value = doc[name]
    if not isinstance(value, kind):
        raise MalformedDocument(f"{name}: expected {kind.__name__}")
    return value


def _labels(labels: list) -> tuple:
    # the library reads int labels as strings; a document must spell them,
    # without a lone surrogate, which an output document could not encode
    for x in labels:
        if not isinstance(x, str) or any("\ud800" <= c <= "\udfff" for c in x):
            raise InvalidLabel(repr(x))
    return tuple(labels)


def _texts(values) -> list:
    """str of each exact value; past int's str limit, ValueTooLarge."""
    try:
        return list(map(str, values))
    except ValueError:
        raise ValueTooLarge(
            f"an output value has more than {sys.get_int_max_str_digits()} digits") from None


def _table_doc(ground: GroundSet, values) -> dict:
    """The shape both table documents share: labels, then values by subset key."""
    return {"ground_set": list(ground.labels), "values": dict(zip(ground.subset_keys(), values))}


def set_function_to_doc(f: SetFunction) -> dict:
    return _table_doc(f.ground, _texts(f.values))


def set_function_from_doc(doc) -> SetFunction:
    labels = _field(doc, "ground_set", list)
    values = _field(doc, "values", dict)
    return build(_labels(labels), values)


def approx_set_function_to_doc(f: ApproxSetFunction) -> dict:
    return {**_table_doc(f.ground, f.values), "tol": f.tol}


def distribution_from_doc(doc) -> JointDistribution:
    parties = GroundSet(_labels(_field(doc, "parties", list)))
    alphabets = _field(doc, "alphabets", list)
    probs = _field(doc, "probs", list)
    if not all(_is_number(p) for p in probs):
        raise MalformedDocument("probs: expected numbers")
    return JointDistribution(parties, tuple(alphabets), tuple(probs))


def pure_state_from_doc(doc) -> PureState:
    parties = GroundSet(_labels(_field(doc, "parties", list)))
    dims = _field(doc, "dims", list)
    raw = _field(doc, "amplitudes", list)
    amplitudes = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(_is_number(x) for x in entry)):
            raise MalformedDocument("amplitudes: expected [re, im] pairs")
        amplitudes.append(complex(*_numbers(entry, float, NotNormalized, "amplitude")))
    return PureState(parties, tuple(dims), tuple(amplitudes))


def sharing_report_to_doc(report: SharingReport) -> dict:
    doc = {
        "dealer": report.dealer,
        "perfect": report.perfect,
        "authorized": [",".join(s) for s in report.authorized],
        "minimal_authorized": [",".join(s) for s in report.minimal_authorized],
        "essential": list(report.essential),
        "ideal": report.ideal,
        "extraction": None,
    }
    if report.extraction is not None:
        t, rank = report.extraction
        doc["extraction"] = {"t": _texts([t])[0], "rank": set_function_to_doc(rank)}
    return doc


def expansion_to_doc(expansion: Expansion) -> dict:
    bmap = expansion.map
    return {
        "kind": expansion.kind,
        "blocks": {label: list(block)
                   for label, block in zip(bmap.source.labels, bmap.blocks)},
        "expanded": set_function_to_doc(expansion.expanded_fn),
    }
