"""What importing the package and running each command loads, and the
public API that the package's lazy names must keep."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quantoid
from quantoid import setfn
from quantoid.cli import build_parser

SRC = str(Path(quantoid.__file__).resolve().parent.parent)

# the public names by defining module, as the package exported them when it
# imported every module at the top
PUBLIC = {
    "correspondence": ["to_polymatroid", "to_polyquantoid"],
    "duality": ["dual", "is_selfdual", "is_tight"],
    "entropic": ["ApproxSetFunction", "JointDistribution", "PureState", "is_approx_polymatroid",
                 "is_approx_polyquantoid", "reduced_spectrum", "shannon_entropy_function",
                 "snap_to_rational", "von_neumann_entropy_function"],
    "errors": ["QuantoidError"],
    "expansion": ["BlockMap", "Expansion", "adapted_sets", "expansion_correspondence_holds",
                  "free_expand_polymatroid", "free_expand_polyquantoid", "two_factor"],
    "setfn": ["POLYMATROID", "POLYQUANTOID", "Classification", "GroundSet", "SetFunction",
              "build", "classify", "enumerate_rank_functions", "from_table", "scale"],
    "sharing": ["MatroidStructure", "SharingReport", "access_from_circuits", "analyze_sharing",
                "extract_matroid", "extract_selfdual_matroid", "matroid_structure"],
}
ALL = ["ApproxSetFunction", "BlockMap", "Classification", "Expansion", "GroundSet",
       "JointDistribution", "MatroidStructure", "POLYMATROID", "POLYQUANTOID", "PureState",
       "QuantoidError", "SetFunction", "SharingReport", "access_from_circuits", "adapted_sets",
       "analyze_sharing", "build", "classify", "dual", "enumerate_rank_functions",
       "expansion_correspondence_holds", "extract_matroid", "extract_selfdual_matroid",
       "free_expand_polymatroid", "free_expand_polyquantoid", "from_table",
       "is_approx_polymatroid", "is_approx_polyquantoid", "is_selfdual", "is_tight",
       "matroid_structure", "reduced_spectrum", "scale", "shannon_entropy_function",
       "snap_to_rational", "to_polymatroid", "to_polyquantoid", "two_factor",
       "von_neumann_entropy_function"]

# one fresh interpreter: run the code, then print the loaded module names
CHILD = """
import contextlib, io, json, sys
{}
print(json.dumps(sorted(sys.modules)))
"""
RUN_CLI = """
from quantoid import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
if code != int(sys.argv[2]):
    raise SystemExit(f"exit {code}")
"""
LIBRARY = ("sharing", "expansion", "entropic")


def loaded_by(code: str, *args) -> set:
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", CHILD.format(code), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("startup")
    docs = {
        "u12": {"ground_set": ["1", "2"], "values": {"": "0", "1": "1", "2": "1", "1,2": "1"}},
        "fairbit": {"parties": ["1", "2"], "alphabets": [2, 2], "probs": [0.5, 0, 0, 0.5]},
    }
    for name, doc in docs.items():
        (folder / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(folder / f"{name}.json") for name in docs}


def commands(files) -> dict:
    """Per command: (argv, exit code, the library modules it must not load)."""
    u12 = files["u12"]
    exact = {op: ([op, u12], 0, LIBRARY) for op in ("check", "dual", "hat", "vee")}
    return {
        "help": (["--help"], 0, ["numpy"]),
        "usage": (["share", u12], 2, ["numpy"]),  # --dealer is required
        **exact,
        "share": (["share", u12, "--dealer", "1"], 0, ["expansion", "entropic"]),
        "expand": (["expand", u12, "--mode", "matroid"], 0, ["sharing", "entropic"]),
        "entropy": (["entropy", "--classical", files["fairbit"]], 0, ["sharing", "expansion"]),
    }


@pytest.mark.parametrize("command", ["help", "usage", "check", "dual", "hat", "vee",
                                     "share", "expand", "entropy"])
def test_each_command_loads_only_what_it_runs(files, command):
    argv, code, absent = commands(files)[command]
    modules = loaded_by(RUN_CLI, json.dumps(argv), str(code))
    names = {"numpy" if m == "numpy" else f"quantoid.{m}" for m in absent}
    assert names.isdisjoint(modules)
    if command not in ("help", "usage"):
        own = {"share": "sharing", "expand": "expansion", "entropy": "entropic"}
        assert {"numpy", "quantoid.documents", f"quantoid.{own.get(command, 'setfn')}"} <= modules


def test_importing_the_package_loads_no_module():
    modules = loaded_by("import quantoid")
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("quantoid")} == {"quantoid"}
    # a submodule reads as an attribute after a bare import
    assert "quantoid.setfn" in loaded_by("import quantoid; quantoid.setfn.GroundSet")


def test_public_names_are_the_modules_objects():
    assert quantoid.__all__ == ALL == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(quantoid, name) is getattr(getattr(quantoid, module), name)
    namespace = {}
    exec("from quantoid import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)
    assert set(ALL) <= set(dir(quantoid)) and "setfn" in dir(quantoid)
    assert quantoid.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        quantoid.no_such_name  # noqa: B018
    assert not hasattr(quantoid, "_scaled")  # a private name of a module is not public


def test_kind_choices_are_setfns_kinds():
    share = build_parser()._subparsers._group_actions[0].choices["share"]
    kind = next(a for a in share._actions if a.dest == "kind")
    assert tuple(kind.choices) == (setfn.POLYMATROID, setfn.POLYQUANTOID)
    assert kind.default == setfn.POLYMATROID
