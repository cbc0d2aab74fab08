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

from .entropic import ApproxSetFunction, JointDistribution, PureState
from .errors import MalformedDocument
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


def set_function_to_doc(f: SetFunction) -> dict:
    return {
        "ground_set": list(f.labels),
        "values": {key: str(value) for key, value in f.table().items()},
    }


def set_function_from_doc(doc) -> SetFunction:
    labels = _field(doc, "ground_set", list)
    values = _field(doc, "values", dict)
    return build(labels, values)


def approx_set_function_to_doc(f: ApproxSetFunction) -> dict:
    return {
        "ground_set": list(f.ground.labels),
        "values": {f.ground.key_of(m): f.values[m] for m in f.ground.subsets()},
        "tol": f.tol,
    }


def distribution_from_doc(doc) -> JointDistribution:
    parties = GroundSet(tuple(_field(doc, "parties", list)))
    alphabets = _field(doc, "alphabets", list)
    probs = _field(doc, "probs", list)
    if not all(_is_number(p) for p in probs):
        raise MalformedDocument("probs: expected numbers")
    return JointDistribution(parties, tuple(alphabets), tuple(probs))


def pure_state_from_doc(doc) -> PureState:
    parties = GroundSet(tuple(_field(doc, "parties", list)))
    dims = _field(doc, "dims", list)
    raw = _field(doc, "amplitudes", list)
    amplitudes = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(_is_number(x) for x in entry)):
            raise MalformedDocument("amplitudes: expected [re, im] pairs")
        amplitudes.append(complex(entry[0], entry[1]))
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
        doc["extraction"] = {"t": str(t), "rank": set_function_to_doc(rank)}
    return doc


def expansion_to_doc(expansion: Expansion) -> dict:
    bmap = expansion.map
    return {
        "kind": expansion.kind,
        "blocks": {label: list(block)
                   for label, block in zip(bmap.source.labels, bmap.blocks)},
        "expanded": set_function_to_doc(expansion.expanded_fn),
    }
