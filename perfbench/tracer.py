"""Spans around calls into quantoid's public functions, recorded from outside.

`Tracer.install()` replaces each function listed in WRAPS by a wrapper, in
every quantoid module (and module-level dict) that binds it, so nested
calls such as analyze_sharing -> classify -> dual produce nested spans.
Spans stay in memory as [name, start, end, parent, op, work] and are
written as JSON lines by `write`.  `layer_metrics` folds them into the
per-layer metrics of BENCHMARK.json: call counts, work counts and self
time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, span name, work counter(args, result) or None)
WRAPS = [
    ("cli", "main", "cli.main", None),
    ("documents", "set_function_from_doc", "documents.parse", None),
    ("documents", "distribution_from_doc", "documents.parse", None),
    ("documents", "pure_state_from_doc", "documents.parse", None),
    ("documents", "dumps", "documents.serialize", lambda a, r: len(r.encode("utf-8"))),
    ("documents", "set_function_to_doc", "documents.serialize", None),
    ("documents", "approx_set_function_to_doc", "documents.serialize", None),
    ("documents", "sharing_report_to_doc", "documents.serialize", None),
    ("documents", "expansion_to_doc", "documents.serialize", None),
    ("setfn", "build", "setfn.build", None),
    ("setfn", "from_table", "setfn.build", None),
    ("setfn", "scale", "setfn.build", None),
    ("setfn", "classify", "setfn.classify", lambda a, r: 1 << a[0].n),
    ("setfn", "enumerate_rank_functions", "setfn.enumerate", None),
    ("duality", "dual", "duality.dual", None),
    ("correspondence", "to_polymatroid", "correspondence.hat", None),
    ("correspondence", "to_polyquantoid", "correspondence.vee", None),
    ("sharing", "analyze_sharing", "sharing.analyze", None),
    ("sharing", "extract_matroid", "sharing.extract", None),
    ("sharing", "extract_selfdual_matroid", "sharing.extract", None),
    ("expansion", "free_expand_polymatroid", "expansion.expand",
     lambda a, r: 1 << r.expanded_fn.n),
    ("expansion", "free_expand_polyquantoid", "expansion.expand",
     lambda a, r: 1 << r.expanded_fn.n),
    ("expansion", "two_factor", "expansion.two_factor", None),
    ("expansion", "expansion_correspondence_holds", "expansion.lemma52", None),
    ("entropic", "shannon_entropy_function", "entropic.shannon", None),
    ("entropic", "von_neumann_entropy_function", "entropic.von_neumann", None),
    ("entropic", "snap_to_rational", "entropic.snap", None),
]
GENERATORS = {"setfn.enumerate"}

# Per-layer metric: (name, unit, statistic, span names, what it should move).
# The statistic is "self" (seconds), "calls" or "work" (the span's counter).
# import.* come from `python -X importtime`, trace.overhead_s from a second,
# untraced pass over the same in-process op list.
LAYER_METRICS = [
    ("cli.self_s", "s", "self", ["cli.main"],
     "op_gmean_s on every CLI workload once compute is small"),
    ("import.quantoid_s", "s", None, [], "setup_s on every workload"),
    ("import.numpy_s", "s", None, [],
     "setup_s on exact-large and expand (lazy numpy), not on entropy"),
    ("documents.parse_s", "s", "self", ["documents.parse"],
     "op_gmean_s on exact-large (dual/hat/vee), wall_s on expand"),
    ("documents.serialize_s", "s", "self", ["documents.serialize"],
     "op_gmean_s on exact-large (dual/hat/vee), wall_s on expand"),
    ("documents.bytes_out", "bytes", "work", ["documents.serialize"],
     "nothing: outputs stay byte-identical"),
    ("setfn.build_s", "s", "self", ["setfn.build"], "wall_s on exact-large"),
    ("setfn.classify_s", "s", "self", ["setfn.classify"],
     "wall_s on exact-large, op_gmean_s on exact-small; barely expand"),
    ("setfn.classify_calls", "count", "calls", ["setfn.classify"],
     "wall_s on exact-large and exact-small (validate once)"),
    ("setfn.classify_values", "count", "work", ["setfn.classify"],
     "wall_s on exact-large and exact-small (validate once)"),
    ("setfn.enumerate_s", "s", "self", ["setfn.enumerate"], "wall_s on exact-small"),
    ("duality.dual_s", "s", "self", ["duality.dual"], "wall_s on exact-large and exact-small"),
    ("duality.dual_calls", "count", "calls", ["duality.dual"],
     "wall_s on exact-large and exact-small"),
    ("correspondence.hat_s", "s", "self", ["correspondence.hat"],
     "op_gmean_s on exact-large, wall_s on expand (lemma52)"),
    ("correspondence.vee_s", "s", "self", ["correspondence.vee"],
     "op_gmean_s on exact-large, wall_s on expand (lemma52)"),
    ("correspondence.calls", "count", "calls", ["correspondence.hat", "correspondence.vee"],
     "exact-large and expand"),
    ("sharing.analyze_s", "s", "self", ["sharing.analyze"],
     "share ops on exact-large, op_gmean_s on exact-small"),
    ("sharing.extract_s", "s", "self", ["sharing.extract"],
     "share ops on exact-large, op_gmean_s on exact-small"),
    ("expansion.expand_s", "s", "self", ["expansion.expand"], "wall_s on expand"),
    ("expansion.two_factor_s", "s", "self", ["expansion.two_factor"], "wall_s on expand"),
    ("expansion.lemma52_s", "s", "self", ["expansion.lemma52"], "wall_s on expand"),
    ("expansion.expanded_values", "count", "work", ["expansion.expand"],
     "wall_s on expand (a 2-factor without inner expansion lowers it)"),
    ("entropic.shannon_s", "s", "self", ["entropic.shannon"], "wall_s on entropy"),
    ("entropic.von_neumann_s", "s", "self", ["entropic.von_neumann"],
     "wall_s and peak_rss_mb on entropy"),
    ("entropic.snap_s", "s", "self", ["entropic.snap"], "wall_s on entropy"),
    ("trace.overhead_s", "s", None, [], "nothing: the cost of the wrappers themselves"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.missing = []
        self._restore = []

    def _wrap(self, fn, name, work):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                record[5] = work(args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        # one span per step, so only time spent inside the generator counts
        step = self._wrap(next, name, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                yield item

        return wrapper

    def install(self):
        """Wrap every listed function wherever a quantoid module binds it."""
        import quantoid.cli  # noqa: F401  (the CLI imports every other module)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "quantoid" or k.startswith("quantoid."))]
        replace = {}
        for module, fname, name, work in WRAPS:
            original = getattr(sys.modules.get(f"quantoid.{module}"), fname, None)
            if original is None:
                self.missing.append(f"{module}.{fname}")
                continue
            wrap = (self._wrap_generator(original, name) if name in GENERATORS
                    else self._wrap(original, name, work))
            replace[id(original)] = (original, wrap)
        for module in modules:
            for key, value in list(vars(module).items()):
                self._swap(module.__dict__, key, value, replace)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._swap(value, k, v, replace)

    def _swap(self, namespace, key, value, replace):
        entry = replace.get(id(value))
        if entry is not None and entry[0] is value:
            namespace[key] = entry[1]
            self._restore.append((namespace, key, value))

    def uninstall(self):
        for namespace, key, value in reversed(self._restore):
            namespace[key] = value
        self._restore.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, work in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "work": work}) + "\n")

    def layer_totals(self) -> dict:
        """Per span name: calls, work and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _, work) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "work": 0, "self": 0.0})
            entry["calls"] += 1
            entry["work"] += work
            entry["self"] += (end - start) - child_time[i]
        return totals


def layer_metrics(totals: dict, extra: dict) -> dict:
    """Per-layer metrics by name from span totals plus the measured `extra` values."""
    out = {}
    for name, unit, stat, spans, _ in LAYER_METRICS:
        if stat is None:
            value = extra[name]
        else:
            value = sum(totals.get(s, {}).get(stat, 0) for s in spans)
        out[name] = {"value": value, "unit": unit}
    return out
