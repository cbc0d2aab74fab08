"""The CLI's error contract, under generated documents and argv.

Every run of `quantoid.cli.main` ends in exit 0, 1 or 2, never a
traceback. Exit 1 is the negative verdict of `share` and
`expand --verify-lemma52` only. A rejected document or value exits 2 with
one `Name: message` line on stderr; a rejected argv keeps argparse's usage
text and its exit 2.

Documents come in three kinds: arbitrary JSON, valid documents with
shape-preserving mutations (big integers, booleans, nulls, nesting), and
raw bytes. Decimal exponents stay small: `Fraction("1e999999999")` builds
a 10^9-digit integer, and no limit on that is part of this contract.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from quantoid import documents
from quantoid.cli import main

from helpers import bell, e22, uniform

FILE, OUT = "<file>", "<out>"
# markers that _text writes as raw JSON: an integer of 5,001 digits, past
# int()'s default digit limit, and a list nested 3,000 deep
RAW = {"\x00huge": "1" + "0" * 5000, "\x00deep": "[" * 3000 + "0" + "]" * 3000}

# uniform(2, 2) is the free matroid, whose dealers are not ideal: share exits 1
SET_FUNCTIONS = [documents.set_function_to_doc(f)
                 for f in (bell(), e22(), uniform(2, 4), uniform(2, 2))]
DISTRIBUTION = {"parties": ["1", "2"], "alphabets": [2, 2], "probs": [0.5, 0, 0, 0.5]}
STATE = {"parties": ["1", "2"], "dims": [2, 2],
         "amplitudes": [[0.7071067811865476, 0], [0, 0], [0, 0], [0.7071067811865476, 0]]}

# argv templates for every subcommand, each with the documents it reads;
# the last few of each are rejected by argparse
ARGV = [
    (["check", FILE], SET_FUNCTIONS),
    (["check", FILE, OUT], SET_FUNCTIONS),
    (["check"], SET_FUNCTIONS),
    *[([op, FILE, *out], SET_FUNCTIONS) for op in ("dual", "hat", "vee") for out in ([], [OUT])],
    (["vee", FILE, OUT, "extra"], SET_FUNCTIONS),
    *[(["share", FILE, "--dealer", dealer, *rest], SET_FUNCTIONS)
      for dealer in ("1", "9", "1\n2")
      for rest in ([], ["--kind", "polyquantoid"], ["-o", OUT])],
    (["share", FILE], SET_FUNCTIONS),
    (["share", FILE, "--dealer", "1", "--kind", "matroid"], SET_FUNCTIONS),
    *[(["expand", FILE, *rest], SET_FUNCTIONS)
      for rest in ([], ["--mode", "matroid"], ["--mode", "quantoid"], ["--mode", "two-factor"],
                   ["--verify-lemma52"], ["--verify-lemma52", "-o", OUT],
                   ["--mode", "matroid", "-o", OUT])],
    (["expand", FILE, "--mode", "cube"], SET_FUNCTIONS),
    *[(["entropy", flag, FILE, *rest], [doc])
      for flag, doc in (("--classical", DISTRIBUTION), ("--quantum", STATE))
      for rest in ([], ["--snap", "4"], ["--snap", "0"], ["--snap", "1" + "0" * 400],
                   ["-o", OUT])],
    (["entropy", "--classical", FILE, "--snap", "x"], [DISTRIBUTION]),
    (["entropy", "--classical", FILE, "--quantum", FILE], [DISTRIBUTION]),
    (["entropy", FILE], [DISTRIBUTION]),
    (["transpose", FILE], SET_FUNCTIONS),
    ([], SET_FUNCTIONS),
]

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
ANY_JSON = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=12)
REPLACEMENTS = st.sampled_from([
    10**400, -10**400, *RAW, 2**63, True, False, None, 0, -1, 1.5, float("nan"), 1e200, 1.7e308,
    "", "x", "a\nb", "\ud800", "1/0", "1e400", "-1/3", "1_000", "1 / 3", [], {}, [[0, 0]],
])


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _replace(node, path, make):
    if not path:
        return make(node)
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replace(node[path[0]], path[1:], make)
    return copy


@st.composite
def mutated(draw, doc):
    """doc with a few of its nodes replaced or wrapped in nested lists."""
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        depth = draw(st.sampled_from([0, 0, 1, 3, 40]))
        if depth:
            doc = _replace(doc, path, lambda node, depth=depth: json.loads(
                "[" * depth + json.dumps(node) + "]" * depth))
        else:
            value = draw(REPLACEMENTS)
            doc = _replace(doc, path, lambda node, value=value: value)
    return doc


def _text(doc) -> bytes:
    text = json.dumps(doc)
    for marker, raw in RAW.items():
        text = text.replace(json.dumps(marker), raw)
    return text.encode("utf-8")


def _cases():
    def for_argv(template):
        argv, docs = template
        document = st.one_of(
            st.sampled_from(docs).map(_text),
            st.sampled_from(docs).flatmap(mutated).map(_text),
            ANY_JSON.map(_text),
            st.binary(max_size=40))
        return st.tuples(st.just(argv), document)
    return st.sampled_from(ARGV).flatmap(for_argv)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv), False, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return exc.code, True, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_cases())
@example(case=(["entropy", "--classical", FILE],
               b'{"parties": ["1"], "alphabets": [2], "probs": [1' + b"0" * 400 + b', 0]}'))
@example(case=(["entropy", "--quantum", FILE],
               b'{"parties": ["1"], "dims": [2], "amplitudes": [[1' + b"0" * 400
               + b', 0], [0, 0]]}'))
@example(case=(["check", FILE],
               b'{"ground_set": [], "values": {"": 1' + b"0" * 5000 + b'}}'))
@example(case=(["entropy", "--quantum", FILE],
               b'{"parties": ["a"], "dims": [2], "amplitudes": [[1e200, 0], [0, 0]]}'))
@example(case=(["entropy", "--classical", FILE],
               b'{"parties": ["a", "b"], "alphabets": [2, 2], "probs": [1e308, 1e308, 0, 0]}'))
@example(case=(["share", FILE, "--dealer", "1"], _text(SET_FUNCTIONS[3])))
@example(case=(["share", FILE, "--dealer", "1\n2"], _text(SET_FUNCTIONS[2])))
@example(case=(["dual", FILE, OUT], _text({"ground_set": ["\ud800"],
                                           "values": {"": "0", "\ud800": "1"}})))
def test_cli_error_contract(case):
    template, content = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "input.json"), Path(tmp, "out.json")
        path.write_bytes(content)
        argv = [{FILE: str(path), OUT: str(out)}.get(x, x) for x in template]
        code, by_argparse, stdout, stderr = _run(argv)
        written = out.read_text(encoding="utf-8") if out.exists() else ""

    assert "Traceback" not in stderr
    if by_argparse:
        assert code == 2 and stdout == "" and written == ""
        assert stderr.startswith("usage: quantoid") and "error: " in stderr
        return
    assert code in (0, 1, 2)
    if code == 1:
        assert argv[0] == "share" or "--verify-lemma52" in argv
    if code == 2:
        assert stdout == "" and written == ""
        assert re.fullmatch(r"\w+: [^\n]*\n", stderr), stderr
    else:
        assert stderr == ""
        assert json.loads(written if OUT in template else stdout) is not None
