"""CLI subcommands: document shapes, exit codes, and byte determinism."""

import json
import re
from pathlib import Path

import pytest

from quantoid import documents
from quantoid.cli import main
from quantoid.setfn import from_table, scale

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


def test_expand_requires_mode(corpus, capsys):
    code, _, err = run(capsys, "expand", corpus["bell"])
    assert code == 2 and "mode" in err


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
]


@pytest.mark.parametrize("error,flag,doc,extra", MALFORMED_ENTROPY,
                         ids=["snap-0", "dims-string", "alphabets-string",
                              "probs-nan", "amplitudes-nan", "probs-string"])
def test_malformed_entropy_input_exit_two(tmp_path, capsys, error, flag, doc, extra):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "entropy", flag, str(path), *extra)
    assert code == 2 and out == ""
    assert re.fullmatch(r"\w+: [^\n]*\n", err) and err.startswith(f"{error}: ")


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


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "no-such-file.json")
    assert code == 2


def test_invalid_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert err.startswith("MalformedDocument")


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
