"""CLI subcommands: document shapes, exit codes, and byte determinism."""

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quantoid import documents
from quantoid.cli import main
from quantoid.setfn import GroundSet, from_table, scale

from helpers import bell, e22, ghz3, uniform, zero_fn


@pytest.fixture()
def corpus(tmp_path):
    files = {}

    def save(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)

    save("bell", documents.set_function_to_doc(bell()))
    save("ghz3", documents.set_function_to_doc(ghz3()))
    save("u13", documents.set_function_to_doc(uniform(1, 3)))
    save("u24", documents.set_function_to_doc(uniform(2, 4)))
    save("u24x2", documents.set_function_to_doc(scale(uniform(2, 4), 2)))
    save("e22", documents.set_function_to_doc(e22()))
    save("zero", documents.set_function_to_doc(zero_fn(2)))
    save("modular666", documents.set_function_to_doc(
        from_table(["1", "2", "3"], [6 * m.bit_count() for m in range(8)])))
    save("malformed", {"ground_set": ["1", "2"],
                       "values": {"": "0", "1": "1", "2": "1"}})
    save("bell_state", {"parties": ["1", "2"], "dims": [2, 2],
                        "amplitudes": [[0.7071067811865476, 0], [0, 0], [0, 0],
                                       [0.7071067811865476, 0]]})
    save("fairbit", {"parties": ["1", "2"], "alphabets": [2, 2],
                     "probs": [0.5, 0, 0, 0.5]})
    save("unnormalized", {"parties": ["1", "2"], "dims": [2, 2],
                          "amplitudes": [[1, 0], [0, 0], [0, 0], [1, 0]]})
    return files


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_bell(corpus, capsys):
    code, out, _ = run(capsys, "check", corpus["bell"])
    assert code == 0
    report = json.loads(out)
    assert report["polyquantoid"] and report["quantoid"]
    assert not report["polymatroid"]


def test_check_u24(corpus, capsys):
    code, out, _ = run(capsys, "check", corpus["u24"])
    assert code == 0
    report = json.loads(out)
    assert report["matroid"] and report["selfdual"] and report["tight"]


def test_check_malformed_names_key(corpus, capsys):
    code, _, err = run(capsys, "check", corpus["malformed"])
    assert code == 2
    assert err.strip() == "MissingSubset: 1,2"


def test_dual_writes_u23(corpus, capsys):
    code, out, _ = run(capsys, "dual", corpus["u13"])
    assert code == 0
    assert documents.set_function_from_doc(json.loads(out)) == uniform(2, 3)


@pytest.mark.parametrize("command", ["check", "dual"])
def test_any_fraction_syntax_reads_like_lowest_terms(tmp_path, capsys, command):
    # inputs may use any Fraction syntax; outputs are always "p" or "p/q"
    outputs = []
    for name, values in (("canonical", ["0", "1/2", "1/2", "1"]),
                         ("written", ["0", "0.5", "2/4", " 1 "])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"ground_set": ["1", "2"],
                                    "values": dict(zip(["", "1", "2", "1,2"], values))}))
        outputs.append(run(capsys, command, str(path)))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_hat_then_vee_round_trips(corpus, capsys, tmp_path):
    mid = str(tmp_path / "mid.json")
    assert run(capsys, "hat", corpus["bell"], mid)[0] == 0
    assert documents.set_function_from_doc(json.loads(Path(mid).read_text())) \
        == scale(uniform(1, 2), 2)
    code, out, _ = run(capsys, "vee", mid)
    assert code == 0
    assert documents.set_function_from_doc(json.loads(out)) == bell()


def test_share_ideal_exit_zero(corpus, capsys):
    code, out, _ = run(capsys, "share", corpus["u24x2"], "--dealer", "4")
    assert code == 0
    report = json.loads(out)
    assert report["ideal"] and report["extraction"]["t"] == "2"
    assert report["extraction"]["rank"]["values"]["1,2"] == "2"


def test_share_not_ideal_exit_one(corpus, capsys):
    code, out, _ = run(capsys, "share", corpus["ghz3"],
                       "--dealer", "1", "--kind", "polyquantoid")
    assert code == 1
    assert not json.loads(out)["perfect"]


def test_share_unknown_dealer_exit_two(corpus, capsys):
    code, _, err = run(capsys, "share", corpus["u24"], "--dealer", "9")
    assert code == 2
    assert err.startswith("UnknownElement")


@pytest.mark.parametrize("kind", ["polymatroid", "polyquantoid"])
def test_share_wrong_kind_exit_two(tmp_path, capsys, kind):
    path = tmp_path / "neither.json"  # not nondecreasing, not complementary
    path.write_text(json.dumps(documents.set_function_to_doc(from_table(["1", "2"], [0, 1, 0, 0]))))
    code, out, err = run(capsys, "share", str(path), "--dealer", "1", "--kind", kind)
    assert (code, out, err) == (2, "", f"NotOfKind: not a {kind}\n")


@pytest.mark.parametrize("argv", [("dual", "u24"), ("share", "u24x2", "--dealer", "4")],
                         ids=["dual", "share"])
def test_subset_keys_are_built_once_per_ground_set(corpus, capsys, monkeypatch, argv):
    built = []
    real = GroundSet._subset_keys.func

    def counting(g):
        built.append(g)
        return real(g)

    cached = functools.cached_property(counting)
    cached.__set_name__(GroundSet, "_subset_keys")
    monkeypatch.setattr(GroundSet, "_subset_keys", cached)
    # read in build, written in the output document: one ground set, one build
    assert run(capsys, argv[0], corpus[argv[1]], *argv[2:])[0] == 0
    assert len(built) == 1


def test_expand_quantoid_mode(corpus, capsys):
    code, out, _ = run(capsys, "expand", corpus["e22"], "--mode", "quantoid")
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"]["1"] == ["1.0", "1.1"]
    values = doc["expanded"]["values"]
    assert values["1.0,1.1"] == "2" and values["1.0,1.1,2.0,2.1"] == "0"


def test_expand_zero_gives_empty_expansion(corpus, capsys):
    code, out, _ = run(capsys, "expand", corpus["zero"], "--mode", "matroid")
    assert code == 0
    doc = json.loads(out)
    assert doc["expanded"]["ground_set"] == []
    assert doc["expanded"]["values"] == {"": "0"}


def test_expand_verify_cross_check(corpus, capsys):
    code, out, _ = run(capsys, "expand", corpus["bell"], "--verify-lemma52")
    assert code == 0
    assert json.loads(out) == {"lemma52": True}


def test_expand_verify_at_full_size(tmp_path, capsys):
    # 9 direct copies; the polymatroid partner stands for 18
    path = tmp_path / "ghz3x3.json"
    path.write_text(json.dumps(documents.set_function_to_doc(scale(ghz3(), 3))))
    code, out, _ = run(capsys, "expand", str(path), "--verify-lemma52")
    assert code == 0
    assert json.loads(out) == {"lemma52": True}


def test_expand_requires_mode(corpus, capsys):
    code, _, err = run(capsys, "expand", corpus["bell"])
    assert code == 2 and "mode" in err


def test_expand_takes_one_of_mode_and_verify(corpus, capsys):
    code, out, err = run(capsys, "expand", corpus["bell"], "--mode", "quantoid",
                         "--verify-lemma52")
    assert code == 2 and out == ""
    assert re.fullmatch(r"\w+: [^\n]*mode[^\n]*\n", err)


def test_expand_cap_from_environment(corpus, capsys):
    # singletons 6, 6, 6 expand to 18 elements, past the 16-element limit
    code, _, err = run(capsys, "expand", corpus["modular666"], "--mode", "matroid")
    assert code == 2
    assert err.startswith("ExpansionTooLarge")


def test_entropy_quantum_snap(corpus, capsys):
    code, out, _ = run(capsys, "entropy", "--quantum", corpus["bell_state"],
                       "--snap", "1")
    assert code == 0
    assert documents.set_function_from_doc(json.loads(out)) == bell()


def test_entropy_classical(corpus, capsys):
    code, out, _ = run(capsys, "entropy", "--classical", corpus["fairbit"])
    assert code == 0
    values = json.loads(out)["values"]
    assert values[""] == 0
    assert abs(values["1"] - 1) < 1e-9 and abs(values["1,2"] - 1) < 1e-9


def test_entropy_unnormalized_exit_two(corpus, capsys):
    code, _, err = run(capsys, "entropy", "--quantum", corpus["unnormalized"])
    assert code == 2
    assert err.startswith("NotNormalized")


NAN = float("nan")
INF = float("inf")
MALFORMED_ENTROPY = [
    ("SnapFailed", "--classical",
     {"parties": ["1", "2"], "alphabets": [2, 2], "probs": [0.5, 0, 0, 0.5]}, ["--snap", "0"]),
    ("DimensionMismatch", "--quantum",
     {"parties": ["1"], "dims": ["a"], "amplitudes": [[1, 0], [0, 0]]}, []),
    ("InvalidDistribution", "--classical",
     {"parties": ["1"], "alphabets": ["a"], "probs": [1, 0]}, []),
    ("InvalidDistribution", "--classical",
     {"parties": ["1"], "alphabets": [2], "probs": [NAN, 1]}, []),
    ("NotNormalized", "--quantum",
     {"parties": ["1"], "dims": [2], "amplitudes": [[NAN, 0], [1, 0]]}, []),
    ("MalformedDocument", "--classical",
     {"parties": ["1"], "alphabets": [2], "probs": ["a", 1]}, []),
    # the first bad entry in order names the error
    ("NotNormalized", "--quantum",
     {"parties": ["1"], "dims": [2], "amplitudes": [[INF, 0], "x"]}, []),
    ("MalformedDocument", "--quantum",
     {"parties": ["1"], "dims": [2], "amplitudes": ["x", [INF, 0]]}, []),
    ("MalformedDocument", "--quantum",
     {"parties": ["1"], "dims": [2], "amplitudes": [[True, 0], [0, 0]]}, []),
    ("MalformedDocument", "--classical",
     {"parties": ["1"], "alphabets": [2], "probs": [INF, "x"]}, []),
    ("InvalidDistribution: negative mass", "--classical",
     {"parties": ["1"], "alphabets": [2], "probs": [-0.5, 1.5]}, []),
]


@pytest.mark.parametrize("error,flag,doc,extra", MALFORMED_ENTROPY,
                         ids=["snap-0", "dims-string", "alphabets-string",
                              "probs-nan", "amplitudes-nan", "probs-string",
                              "amplitudes-inf-then-string", "amplitudes-string-then-inf",
                              "amplitudes-bool", "probs-inf-then-string", "probs-negative"])
def test_malformed_entropy_input_exit_two(tmp_path, capsys, error, flag, doc, extra):
    # error is the error's name, optionally followed by ": " and its message
    name, _, message = error.partition(": ")
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "entropy", flag, str(path), *extra)
    assert code == 2 and out == ""
    assert re.fullmatch(r"\w+: [^\n]*\n", err) and err.startswith(f"{name}: {message}")


OUT_OF_RANGE = {  # name: (command, document text, error)
    "probability": (["entropy", "--classical"], '{"parties": ["1"], "alphabets": [2], '
                    '"probs": [1' + "0" * 400 + ", 0]}", "InvalidDistribution"),
    "amplitude": (["entropy", "--quantum"], '{"parties": ["1"], "dims": [2], '
                  '"amplitudes": [[1' + "0" * 400 + ", 0], [0, 0]]}", "NotNormalized"),
    "5001-digits": (["check"], '{"ground_set": [], "values": {"": 1' + "0" * 5000 + "}}",
                    "MalformedDocument"),
    # finite numbers whose sum, or square, passes the float range
    "probability-sum": (["entropy", "--classical"], '{"parties": ["a", "b"], "alphabets": [2, 2], '
                        '"probs": [1e308, 1e308, 0, 0]}', "InvalidDistribution"),
    "amplitude-square": (["entropy", "--quantum"], '{"parties": ["a"], "dims": [2], '
                         '"amplitudes": [[1e200, 0], [0, 0]]}', "NotNormalized"),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_number_exit_two(tmp_path, capsys, name):
    command, text, error = OUT_OF_RANGE[name]
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *command, str(path))
    assert code == 2 and out == ""
    assert re.fullmatch(r"\w+: [^\n]*\n", err) and err.startswith(f"{error}: ")


PAST_DIGIT_LIMIT = {  # name: (command, every nonempty subset's value, error)
    # the singleton sum of hat gives 4,301 digits on output
    "hat-output": ("hat", "9" * 4300, "ValueTooLarge"),
    # the reader stops these before Fraction builds 10**exponent
    "dual-input": ("dual", "1e5000", "MalformedRational"),
    "check-1e999999999": ("check", "1e999999999", "MalformedRational"),
}


@pytest.mark.parametrize("name", sorted(PAST_DIGIT_LIMIT))
def test_exact_value_past_the_digit_limit_exit_two(tmp_path, capsys, name):
    command, value, error = PAST_DIGIT_LIMIT[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"ground_set": ["1", "2"],
                                "values": {"": "0", "1": value, "2": value, "1,2": value}}))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert re.fullmatch(r"\w+: [^\n]*\n", err) and err.startswith(f"{error}: ")


def test_long_value_names_the_digit_limit(tmp_path, capsys):
    # no exponent: the reader counts the digits on each side of "/"
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"ground_set": ["1"], "values": {"": "0", "1": "1/" + "3" * 4301}}))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert re.fullmatch(r"MalformedRational: '1': [^\n]* \(past the 4300-digit limit\)\n", err)


def test_digit_groups_exit_two_on_every_python(tmp_path, capsys):
    # Python 3.10's Fraction syntax: later Pythons' Fraction reads "1_000"
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"ground_set": ["1"], "values": {"": "0", "1": "1_000"}}))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", "MalformedRational: '1': '1_000'\n")


def test_boolean_value_exit_two(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"ground_set": ["1"], "values": {"": "0", "1": True}}))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith("MalformedRational: ")


BOOLEAN_DOCUMENTS = [
    ("InvalidLabel", ["check"],
     {"ground_set": [True], "values": {"": "0", "True": "1"}}),
    ("InvalidLabel", ["entropy", "--classical"],
     {"parties": [False], "alphabets": [2], "probs": [1, 0]}),
    ("InvalidLabel", ["entropy", "--quantum"],
     {"parties": [False], "dims": [2], "amplitudes": [[1, 0], [0, 0]]}),
    ("InvalidDistribution", ["entropy", "--classical"],
     {"parties": ["1"], "alphabets": [True], "probs": [1]}),
    ("MalformedDocument", ["entropy", "--classical"],
     {"parties": ["1"], "alphabets": [True], "probs": [True]}),
    ("DimensionMismatch", ["entropy", "--quantum"],
     {"parties": ["1"], "dims": [True], "amplitudes": [[1, 0]]}),
    ("MalformedDocument", ["entropy", "--quantum"],
     {"parties": ["1"], "dims": [2], "amplitudes": [[True, 0], [0, 0]]}),
]


@pytest.mark.parametrize("error,command,doc", BOOLEAN_DOCUMENTS,
                         ids=["ground-set", "parties-classical", "parties-quantum",
                              "alphabets", "probs", "dims", "amplitudes"])
def test_boolean_outside_values_exit_two(tmp_path, capsys, error, command, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2 and out == ""
    assert re.fullmatch(r"\w+: [^\n]*\n", err) and err.startswith(f"{error}: ")


NON_STRING_LABELS = [None, 1, 2.5, {"a": 1}, [1]]
LABEL_DOCUMENTS = {
    "check": lambda x: {"ground_set": [x], "values": {"": "0", str(x): "1"}},
    "entropy --classical": lambda x: {"parties": [x], "alphabets": [2], "probs": [1, 0]},
    "entropy --quantum": lambda x: {"parties": [x], "dims": [2],
                                    "amplitudes": [[1, 0], [0, 0]]},
}


@pytest.mark.parametrize("command", sorted(LABEL_DOCUMENTS))
@pytest.mark.parametrize("label", NON_STRING_LABELS,
                         ids=["null", "number", "float", "object", "array"])
def test_non_string_label_exit_two(tmp_path, capsys, command, label):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(LABEL_DOCUMENTS[command](label)))
    code, out, err = run(capsys, *command.split(), str(path))
    assert code == 2 and out == ""
    assert err == f"InvalidLabel: {label!r}\n"


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "no-such-file.json")
    assert code == 2


def test_invalid_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert err.startswith("MalformedDocument")


UNREADABLE = {
    "not-utf8": b"\xff\xfe{}",
    "deep": b"[" * 100_000,
    "not-json": b"{not json",
}


@pytest.mark.parametrize("command", ["check", "share --dealer 1", "entropy --classical"])
@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_document_exit_two(tmp_path, capsys, command, name):
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE[name])
    code, out, err = run(capsys, *command.split(), str(path))
    assert code == 2 and out == ""
    assert err.startswith("MalformedDocument: ") and err.count("\n") == 1
    if name == "not-json":
        assert err == ("MalformedDocument: Expecting property name enclosed in "
                       "double quotes: line 1 column 2 (char 1)\n")


COMMANDS = [
    ("check", "bell"),
    ("check", "u24"),
    ("dual", "u13"),
    ("hat", "bell"),
    ("vee", "u24x2"),
    ("expand", "e22", "--mode", "quantoid"),
    ("expand", "bell", "--verify-lemma52"),
    ("entropy", "--quantum", "bell_state", "--snap", "1"),
    ("entropy", "--classical", "fairbit"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
def test_outputs_are_byte_identical_across_runs(corpus, capsys, argv):
    resolved = [corpus.get(a, a) for a in argv]
    first = run(capsys, *resolved)
    second = run(capsys, *resolved)
    assert first == second
    assert first[0] == 0 and first[1]


def test_expansion_size_past_the_digit_limit_exit_two(tmp_path, capsys):
    # each singleton is in range, their 4,301-digit sum is not
    big = "9" * 4300
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"ground_set": ["1", "2"],
                                "values": {"": "0", "1": big, "2": big, "1,2": big}}))
    code, out, err = run(capsys, "expand", str(path), "--mode", "matroid")
    assert code == 2 and out == ""
    assert err == "ExpansionTooLarge: <a value past the 4300-digit limit> expanded elements " \
                  "(maximum 16)\n"


@pytest.mark.parametrize("encoding", ["ascii", "cp1252"])
def test_stdout_is_the_file_bytes_whatever_the_locale(tmp_path, encoding):
    # stdout gets the UTF-8 that OUT gets, not the locale's encoding, in
    # which the label either cannot be written or is written as another byte
    path, out = tmp_path / "input.json", tmp_path / "out.json"
    path.write_text(json.dumps({"ground_set": ["é"], "values": {"": "0", "é": "1"}},
                               ensure_ascii=False), encoding="utf-8")
    assert main(["dual", str(path), str(out)]) == 0
    src = str(Path(documents.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONIOENCODING=encoding,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "quantoid", "dual", str(path)], env=env,
                          capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out.read_bytes() and "é".encode() in done.stdout


# -- OS errors and whole-file writes ---------------------------------------------

def test_os_errors_are_named(corpus, tmp_path, capsys):
    # the OS error's text, under a QuantoidError name, on one line
    folder, missing = str(tmp_path), str(tmp_path / "missing" / "x.json")
    cases = [(["check", folder], f"UnreadableInput: [Errno 21] Is a directory: {folder!r}"),
             (["check", "no-such-file.json"],
              "UnreadableInput: [Errno 2] No such file or directory: 'no-such-file.json'"),
             (["dual", corpus["u13"], missing],
              f"UnwritableOutput: [Errno 2] No such file or directory: {missing!r}"),
             (["share", corpus["u13"], "--dealer", "1", "-o", folder],
              f"UnwritableOutput: [Errno 21] Is a directory: {folder!r}")]
    for argv, message in cases:
        assert run(capsys, *argv) == (2, "", message + "\n")
    assert not (tmp_path / "missing").exists()


def test_out_that_is_not_a_regular_file_is_written_in_place(corpus, capsys):
    assert run(capsys, "dual", corpus["u13"], os.devnull) == (0, "", "")
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def test_out_replaces_the_old_file_whole(corpus, tmp_path, capsys):
    out = tmp_path / "prev.json"
    out.write_text("previous contents, longer than the report " * 100)
    assert run(capsys, "dual", corpus["u13"], str(out)) == (0, "", "")
    assert documents.set_function_from_doc(json.loads(out.read_text())) == uniform(2, 3)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [Path(p).name for p in corpus.values()] + ["prev.json"])


# the CLI in a child process whose files may not grow past argv[1] bytes
UNDER_A_FILE_SIZE_LIMIT = """
import resource, sys
from quantoid.cli import main
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), resource.RLIM_INFINITY))
raise SystemExit(main(sys.argv[2:]))
"""


def test_a_failed_write_keeps_the_old_file(tmp_path):
    pytest.importorskip("resource")
    source, out = tmp_path / "u48.json", tmp_path / "prev.json"
    source.write_text(json.dumps(documents.set_function_to_doc(uniform(4, 8))))
    old = b"the previous report\n"
    src = str(Path(documents.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (["dual", str(source), str(out)],
                 ["share", str(source), "--dealer", "1", "-o", str(out)]):
        out.write_bytes(old)
        done = subprocess.run([sys.executable, "-c", UNDER_A_FILE_SIZE_LIMIT, "4096", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"UnwritableOutput: [Errno 27] File too large: {str(out)!r}\n"
        assert out.read_bytes() == old  # byte for byte
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prev.json", "u48.json"]
