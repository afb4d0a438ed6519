"""Tracing from outside the program, for the per-layer metrics.

Tracer.install replaces every public function of the seven layer modules,
in every mdlab module namespace that bound it (`from .iso import
fingerprint` binds `harness.fingerprint` and `cli.fingerprint` too), and
every public method of FieldCtx and MonomialDigraph, by a timing wrapper.
Nothing under src/ changes. A wrapper's elapsed time minus the time of the
wrapped calls nested in it is the self time of its layer.

Most wrapped calls record a span: (id, parent span id, run id, name,
start, end), kept in memory and written out at the end. The run id is the
index of the CLI command, so the spans of one command share it. Field
ops, arc tests, row scans and polynomial arithmetic run millions of times
per command, so their calls are aggregated per (enclosing span, name)
into a call count and a total time instead; a span each would not fit in
memory. The wrapper costs about a microsecond per call, which inflates
the self time of layers made of many tiny calls, field most of all.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("field", "poly", "digraph", "patterns", "iso", "harness", "cli")
HOT_CLASSES = {"field": "FieldCtx", "digraph": "MonomialDigraph"}
HOT_POLY = {"normalize", "make_poly", "degree", "eval_at", "add", "sub", "scale",
            "mul", "monic", "poly_mod", "trinomial"}

# Calls that share a group count and time once, at the outermost one:
# extension_field(p, 1) calls prime_field, find_power_map calls power_map_iso.
GROUPS = {
    "field.prime_field": "ctx", "field.extension_field": "ctx",
    "iso.find_power_map": "power_map", "iso.power_map_iso": "power_map",
    "harness.run_theorem_scan": "scan", "harness.run_exercise_scan": "scan",
    "harness.run_conjecture_scan": "scan",
}

# Values summed from what a call returns.
RESULT_VALUES = {
    "patterns.count_pattern": ("patterns.injections", lambda r: r.injections),
    "iso.brute_force_iso": ("iso.expansions", lambda r: r.expansions),
    "harness.run_theorem_scan": ("harness.records", lambda r: len(r.records)),
    "harness.run_exercise_scan": ("harness.records", lambda r: len(r.records)),
    "harness.run_conjecture_scan": ("harness.records", lambda r: len(r.records)),
    # computed bytes of the dense adjacency: q^2 rows of ceil(q^2 / 8) bytes
    "digraph.build_digraph": ("digraph.row_bytes", lambda r: r.order * ((r.order + 7) >> 3)),
}

FIELD_OPS = tuple(f"field.FieldCtx.{op}" for op in ("add", "sub", "neg", "mul", "pow", "inv"))

# metric -> names whose calls it counts
CALL_COUNTS = {
    "field.ops": FIELD_OPS,
    "poly.root_counts": ("poly.distinct_root_count",),
    "poly.evals": ("poly.eval_at",),
    "poly.powmods": ("poly.poly_powmod",),
    "poly.gcds": ("poly.poly_gcd",),
    "poly.muls": ("poly.mul",),
    "digraph.builds": ("digraph.build_digraph",),
    "digraph.out_scans": ("digraph.MonomialDigraph.out_indices",),
    "digraph.in_lists": ("digraph.MonomialDigraph.in_index_lists",),
    "digraph.arc_tests": ("digraph.MonomialDigraph.has_arc_index",),
    "patterns.censuses": ("patterns.count_pattern",),
    "iso.power_maps": ("iso.power_map_iso",),
    "iso.verifies": ("iso.verify_iso",),
    "iso.fingerprints": ("iso.fingerprint",),
    "iso.refinements": ("iso.color_refinement",),
    "iso.searches": ("iso.brute_force_iso",),
}
# metric -> group (or name) whose outermost calls it counts
GROUP_COUNTS = {"field.ctx_builds": "ctx"}
# metric -> group (or name) whose outermost calls' wall time it sums
GROUP_TIMES = {
    "field.ctx_s": "ctx",
    "poly.powmod_s": "poly.poly_powmod",
    "poly.gcd_s": "poly.poly_gcd",
    "digraph.build_s": "digraph.build_digraph",
    "patterns.census_s": "patterns.count_pattern",
    "patterns.looped_arc_s": "patterns.count_looped_arc",
    "iso.power_map_s": "power_map",
    "iso.verify_s": "iso.verify_iso",
    "iso.fingerprint_s": "iso.fingerprint",
    "iso.refine_s": "iso.color_refinement",
    "iso.search_s": "iso.brute_force_iso",
    "harness.scan_s": "scan",
    "harness.emit_s": "harness.emit_report",
}

# Each metric must be nonzero on these workloads: the ones it is meant to
# move. On the others it is a control.
NONZERO_ON = {
    **{m: ("exercise",) for m in ("field.ops", "field.self_s", "field.ctx_builds", "field.ctx_s")},
    **{m: ("roots", "exercise") for m in (
        "poly.root_counts", "poly.evals", "poly.powmods", "poly.powmod_s", "poly.gcds",
        "poly.gcd_s", "poly.muls", "poly.self_s")},
    **{m: ("cap", "conjecture") for m in (
        "digraph.builds", "digraph.build_s", "digraph.row_bytes", "digraph.out_scans",
        "digraph.self_s", "iso.power_maps", "iso.power_map_s", "iso.verifies",
        "iso.verify_s", "iso.self_s")},
    **{m: ("conjecture",) for m in (
        "digraph.in_lists", "digraph.arc_tests", "patterns.censuses", "patterns.injections",
        "patterns.census_s", "patterns.self_s", "iso.fingerprints", "iso.fingerprint_s",
        "iso.refinements", "iso.refine_s", "iso.searches", "iso.search_s", "iso.expansions",
        "iso.search_share")},
    "patterns.looped_arc_s": ("roots",),
    **{m: ("exercise", "roots") for m in (
        "harness.records", "harness.scan_s", "harness.emit_s", "harness.report_bytes",
        "harness.self_s")},
    "cli.self_s": ("conjecture", "exercise", "roots", "cap"),
    "trace.overhead": ("conjecture", "exercise", "roots", "cap"),
}


def _targets():
    """(owner, attribute, layer, name, hot) for every function to wrap."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"mdlab.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and callable(obj) and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == module.__name__):
                hot = layer == "poly" and attr in HOT_POLY
                out.append((module, attr, layer, f"{layer}.{attr}", hot))
        if layer in HOT_CLASSES:
            cls = getattr(module, HOT_CLASSES[layer])
            for attr, obj in vars(cls).items():
                if not attr.startswith("_") and inspect.isfunction(obj):
                    out.append((cls, attr, layer, f"{layer}.{cls.__name__}.{attr}", True))
    return out


class Tracer:
    """Per-call timing wrappers and the counters they feed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.hot: dict[tuple[int, str], list] = {}  # (span id, name) -> [calls, seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.group_calls: dict[str, int] = defaultdict(int)
        self.group_time: dict[str, float] = defaultdict(float)
        self.values: dict[str, int] = defaultdict(int)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.run_id = 0
        self._next_id = 1
        self._current = 0  # id of the innermost open span, 0 at top level
        self._stack = [[0.0]]  # per open call: time of the wrapped calls inside it
        self._active: dict[str, int] = defaultdict(int)  # open calls per group
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers --

    def _wrap_span(self, fn, layer, name):
        tracer, clock, stack = self, time.perf_counter, self._stack
        group = GROUPS.get(name, name)
        result_value = RESULT_VALUES.get(name)

        def wrapper(*args, **kwargs):
            span_id, parent = tracer._next_id, tracer._current
            tracer._next_id += 1
            tracer._current = span_id
            frame = [0.0]
            stack.append(frame)
            outermost = tracer._active[group] == 0
            tracer._active[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                tracer._active[group] -= 1
                stack.pop()
                stack[-1][0] += elapsed
                tracer.self_time[layer] += elapsed - frame[0]
                tracer._current = parent
                tracer.calls[name] += 1
                if outermost:
                    tracer.group_calls[group] += 1
                    tracer.group_time[group] += elapsed
                tracer.spans.append((span_id, parent, tracer.run_id, name, start, end))
            if result_value is not None:
                tracer.values[result_value[0]] += result_value[1](result)
            return result

        return wrapper

    def _wrap_hot(self, fn, layer, name):
        tracer, clock, stack = self, time.perf_counter, self._stack
        self_time, hot = self.self_time, self.hot

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_time[layer] += elapsed - frame[0]
                key = (tracer._current, name)
                slot = hot.get(key)
                if slot is None:
                    hot[key] = [1, elapsed]
                else:
                    slot[0] += 1
                    slot[1] += elapsed

        return wrapper

    # -- installation --

    def install(self) -> None:
        wrapped = {}
        for owner, attr, layer, name, hot in _targets():
            original = vars(owner)[attr]
            make = self._wrap_hot if hot else self._wrap_span
            wrapper = make(original, layer, name)
            wrapped[id(original)] = (original, wrapper)
            if inspect.isclass(owner):
                self._bind(owner, attr, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mdlab" or n.startswith("mdlab."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bind(module, attr, hit[1])

    def _bind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --

    def metrics(self) -> dict[str, float]:
        calls = defaultdict(int, self.calls)
        for (_, name), slot in self.hot.items():
            calls[name] += slot[0]
        out: dict[str, float] = {}
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(calls[n] for n in names)
        for metric, group in GROUP_COUNTS.items():
            out[metric] = self.group_calls[group]
        for metric, group in GROUP_TIMES.items():
            out[metric] = self.group_time[group]
        for metric, _ in RESULT_VALUES.values():
            out[metric] = self.values[metric]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line per hot aggregate."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, run_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "run": run_id,
                                     "name": name, "start": start, "end": end}) + "\n")
            for (parent, name), (count, total) in sorted(self.hot.items()):
                fh.write(json.dumps({"parent": parent, "name": name, "calls": count,
                                     "seconds": total}) + "\n")
