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
    # one frame per high party, n <= 16, and it holds the marginals on one
    # path of the walk, under twice the table, plus one row chunk of the
    # low-block product and its q log q, each no larger than the table
    exact = {"setfn.py", "sharing.py", "expansion.py", "duality.py", "correspondence.py"}
    found = [f"{path.name}:{fn.name}"
             for path in SOURCES if path.name in exact
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(fn, ast.FunctionDef)
             and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == fn.name for node in ast.walk(fn))]
    assert len(SOURCES) >= 10 and found == []


def _call_of(node) -> str | None:
    return ast.unparse(node.func) if isinstance(node, ast.Call) else None


# written once each: every expansion and 2-factor goes through
# expansion._expand, both extractions through sharing._checked_extraction,
# and every matroid check through sharing._matroid_circuits
ONCE = {
    "expansion.py": {
        "Expansion(...)": lambda node: _call_of(node) == "Expansion",
        "BlockMap.from_sizes(...)": lambda node: _call_of(node) == "BlockMap.from_sizes",
    },
    "sharing.py": {
        "classify(...).matroid": lambda node: isinstance(node, ast.Attribute)
        and node.attr == "matroid" and _call_of(node.value) == "classify",
        "raise NotAMatroid": lambda node: isinstance(node, ast.Raise)
        and _call_of(node.exc) == "NotAMatroid",
        "raise NotIdeal": lambda node: isinstance(node, ast.Raise)
        and _call_of(node.exc) == "NotIdeal",
    },
}


def test_classify_walks_and_the_size_rule_picks_two_things():
    # classify reads every increment through setfn's strided walk, for one
    # table or a block; _GATHER_UP_TO picks only _modular's membership
    # product and sharing's every-dealer batching
    functions = {f"{path.stem}.{fn.name}": fn
                 for path in SOURCES
                 for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                 if isinstance(fn, ast.FunctionDef)}
    calls = {_call_of(node) for node in ast.walk(functions["setfn._classify_rows"])}
    assert calls & {"_gains", "_coalition_rows", "_one_smaller"} == set()
    readers = sorted(name for name, fn in functions.items()
                     if any(isinstance(node, ast.Name) and node.id == "_GATHER_UP_TO"
                            and isinstance(node.ctx, ast.Load) for node in ast.walk(fn)))
    assert readers == ["setfn._modular", "sharing._validated_flags"]


def _builds_classification(node) -> bool:
    # a call of Classification, or a call handed it as a callable, as map is
    return isinstance(node, ast.Call) and any(
        isinstance(x, ast.Name) and x.id == "Classification"
        or isinstance(x, ast.Attribute) and x.attr == "Classification"
        for x in (node.func, *node.args, *(k.value for k in node.keywords)))


def test_classify_rows_builds_every_classification():
    # setfn._classify_rows assembles every flag and kind, for one row or a
    # block, so a new flag or kind has one place to go
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES]
    builders = sorted(f"{path.stem}.{fn.name}"
                      for path, tree in zip(SOURCES, trees)
                      for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      and any(_builds_classification(node) for node in ast.walk(fn)))
    calls = sum(_builds_classification(node) for tree in trees for node in ast.walk(tree))
    assert builders == ["setfn._classify_rows"] and calls == 1


def test_each_job_has_one_private_path():
    lines = {f"{path.name}: {what}": [node.lineno for node in ast.walk(tree) if matches(node)]
             for path in SOURCES if path.name in ONCE
             for tree in [ast.parse(path.read_text(encoding="utf-8"), str(path))]
             for what, matches in ONCE[path.name].items()}
    assert len(lines) == 5
    assert {what: found for what, found in lines.items() if len(found) != 1} == {}


def test_one_loop_reads_member_labels():
    # GroundSet.mask_of is the one loop from member labels to a mask, so
    # value, mask_of_key, adapted_sets, BlockMap and reduced_spectrum all
    # reject an unknown or repeated label alike
    tree = ast.parse((Path(quantoid.__file__).parent / "setfn.py").read_text(encoding="utf-8"))
    functions = [(f"{cls.name}.{fn.name}", fn)
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    functions += [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = [name for name, fn in functions
             if any(isinstance(loop, loops)
                    and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "index_of" for node in ast.walk(loop))
                    for loop in ast.walk(fn))]
    assert found == ["GroundSet.mask_of"]


def test_only_documents_writes_json():
    # documents.dumps is the one writer, so every output document and the
    # CLI's stdout share its bytes
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "documents.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
             and ast.unparse(node.value) == "json"
             or isinstance(node, ast.ImportFrom) and node.module == "json"
             and any(a.name in ("dump", "dumps") for a in node.names)]
    assert len(SOURCES) >= 10 and found == []
