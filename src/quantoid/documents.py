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
from itertools import chain, takewhile
from typing import TYPE_CHECKING

from .errors import InvalidLabel, MalformedDocument, NotNormalized, ValueTooLarge
from .setfn import GroundSet, SetFunction, build

if TYPE_CHECKING:  # annotations only: a command loads the one module it runs
    from .entropic import ApproxSetFunction, JointDistribution, PureState
    from .expansion import Expansion
    from .sharing import SharingReport


_encode = json.encoder.encode_basestring  # C; what json.dumps uses with ensure_ascii=False
_INF = float("inf")


def dumps(doc) -> str:
    """Canonical JSON text: two-space indent, insertion order, trailing newline.

    One writer produces every output document, and its bytes equal
    json.dumps(doc, indent=2, ensure_ascii=False) + "\\n".  The writer owns
    only the layout: the indentation, and the common leaves (a plain str,
    finite float, bool or None) written inline.  json spells everything
    else, every other leaf (a subclass among them) and every key that is
    not a plain str, so whatever json.dumps rejects as a value or key
    raises TypeError here too.  There is no check for a container that
    holds itself, which no document does: it ends in RecursionError, where
    json.dumps raises ValueError.
    """
    return _text(doc, "") + "\n"


def _text(x, outer: str) -> str:
    """x as json.dumps writes it, nested under the indent `outer`."""
    pad = outer + "  "
    if isinstance(x, dict):  # json's key rule quotes a number, bool or None key
        parts = [(_encode(k) if type(k) is str else json.dumps({k: 0}, ensure_ascii=False)[1:-4])
                 + ": " + v for k, v in zip(x, _parts(x.values(), pad))]
        brackets = "{}"
    elif isinstance(x, (list, tuple)):
        parts, brackets = _parts(x, pad), "[]"
    else:
        return json.dumps(x, ensure_ascii=False)
    if not parts:
        return brackets
    return brackets[0] + "\n" + pad + (",\n" + pad).join(parts) + "\n" + outer + brackets[1]


def _parts(values, pad: str) -> list:
    # the common leaves are written inline, so only containers and rare
    # leaves cost a call
    return [_encode(v) if type(v) is str
            else float.__repr__(v) if type(v) is float and -_INF < v < _INF
            else ("true" if v else "false") if type(v) is bool
            else "null" if v is None
            else _text(v, pad) for v in values]


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
    return {"ground_set": list(ground.labels), "values": dict(zip(ground._subset_keys, values))}


def set_function_to_doc(f: SetFunction) -> dict:
    """The set-function document of f, read off its integer table: one int
    per distinct value, so str runs once per distinct value, not once per
    mask.  Every function carries that table from the moment it exists."""
    ints = f._scaled_table[0].tolist()
    distinct = dict(zip(ints, f.values))
    text = dict(zip(distinct, _texts(distinct.values())))
    return _table_doc(f.ground, map(text.__getitem__, ints))


def set_function_from_doc(doc) -> SetFunction:
    labels = _field(doc, "ground_set", list)
    values = _field(doc, "values", dict)
    return build(_labels(labels), values)


def approx_set_function_to_doc(f: ApproxSetFunction) -> dict:
    return {**_table_doc(f.ground, f.values), "tol": f.tol}


def distribution_from_doc(doc) -> JointDistribution:
    """The distribution of a distribution document.  Any probability that
    is not a number raises MalformedDocument before any is checked for
    finiteness, so [inf, "x"] is malformed, not invalid."""
    from .entropic import JointDistribution

    parties = GroundSet(_labels(_field(doc, "parties", list)))
    alphabets = _field(doc, "alphabets", list)
    probs = _field(doc, "probs", list)
    if not (set(map(type, probs)) <= {int, float} or all(map(_is_number, probs))):
        raise MalformedDocument("probs: expected numbers")
    return JointDistribution(parties, tuple(alphabets), tuple(probs))


def _is_pair(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 2
            and _is_number(entry[0]) and _is_number(entry[1]))


def pure_state_from_doc(doc) -> PureState:
    """The state of a state document.  Its amplitudes are [re, im] pairs
    of numbers, and the first bad entry, in order, names the error: a pair
    with a non-finite part (or an int past the float range) raises
    NotNormalized, and any other entry, a bool among them, raises
    MalformedDocument.  So the run of pairs before the first entry that is
    not one is read in bulk, and only then is a leftover entry an error."""
    from .entropic import PureState, _numbers

    parties = GroundSet(_labels(_field(doc, "parties", list)))
    dims = _field(doc, "dims", list)
    raw = _field(doc, "amplitudes", list)
    pairs = list(takewhile(_is_pair, raw))
    parts = _numbers(list(chain.from_iterable(pairs)), float, NotNormalized, "amplitude")
    if len(pairs) < len(raw):
        raise MalformedDocument("amplitudes: expected [re, im] pairs")
    return PureState(parties, tuple(dims), tuple(map(complex, parts[0::2], parts[1::2])))


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
