"""Rules that hold for every module of the library."""

import ast
from pathlib import Path

import quantoid

SOURCES = sorted(Path(quantoid.__file__).parent.glob("*.py"))


def test_no_assert_or_debug_in_library():
    # python -O strips both, so with either the library would not run the
    # same code under -O
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert len(SOURCES) >= 10 and found == []


def test_only_setfn_scales_a_table():
    # every other module reads SetFunction._scaled_table, computed once per
    # function, so the lcm and int64-guard rule stays in setfn
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "setfn.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.ImportFrom) and any(a.name == "_scaled" for a in node.names)
             or isinstance(node, ast.Attribute) and node.attr == "_scaled"]
    assert len(SOURCES) >= 10 and found == []


def test_only_setfn_splits_a_table():
    # setfn._halves is the one place that knows the subset-table layout, so
    # every other module asks it for (f(S), f(S+i)) in place of a reshape
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "setfn.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "reshape"
             and [ast.unparse(x) for x in node.args[:2]] == ["-1", "2"]]
    assert len(SOURCES) >= 10 and found == []


def test_exact_modules_do_not_recurse():
    # a recursion per mask or per subset would run 2^16 frames deep on the
    # largest ground set.  entropic's Shannon walk may recurse: its depth is
    # one frame per party, n <= 16, and it keeps memory under twice the table
    exact = {"setfn.py", "sharing.py", "expansion.py", "duality.py", "correspondence.py"}
    found = [f"{path.name}:{fn.name}"
             for path in SOURCES if path.name in exact
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(fn, ast.FunctionDef)
             and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == fn.name for node in ast.walk(fn))]
    assert len(SOURCES) >= 10 and found == []
