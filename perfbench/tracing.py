"""Per-layer spans recorded from outside the program.

The tracer replaces every public function of each kgenus layer module,
in every kgenus namespace that binds it, with a wrapper that records a
span: its name, its duration and the span that called it.  Spans are
aggregated in memory as call-graph edges (parent, child) -> calls,
total and self nanoseconds, and written out when the run ends.  A
span's self time is its duration minus that of the spans it caused.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("exactnum", "kummer", "localdata", "genus", "classify", "ktable",
          "quadforms", "tatecoh")

# every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("exactnum.is_prime.calls", "count", "lower"),
    ("exactnum.is_squarefree.calls", "count", "lower"),
    ("exactnum.trial_factor.calls", "count", "lower"),
    ("exactnum.trial_factor.self_ms", "ms", "lower"),
    ("exactnum.primitive_root.calls", "count", "lower"),
    ("exactnum.power_residue_character.calls", "count", "lower"),
    ("exactnum.bernoulli.self_ms", "ms", "lower"),
    ("exactnum.self_ms", "ms", "lower"),
    ("kummer.frobenius_vector.calls", "count", "lower"),
    ("kummer.primitivity_rank.calls", "count", "lower"),
    ("kummer.self_ms", "ms", "lower"),
    ("localdata.local_invariants.calls", "count", "lower"),
    ("localdata.self_ms", "ms", "lower"),
    ("genus.self_ms", "ms", "lower"),
    ("genus.rank_calls_per_report", "ratio", "lower"),
    ("classify.vanishing_decision.calls", "count", "lower"),
    ("classify.admissible_per_decision", "ratio", "higher"),
    ("classify.self_ms", "ms", "lower"),
    ("ktable.h2_order_Z.calls", "count", "lower"),
    ("ktable.self_ms", "ms", "lower"),
    ("quadforms.narrow_class_number.calls", "count", "lower"),
    ("quadforms.fundamental_unit.calls", "count", "lower"),
    ("quadforms.forms_enumerated", "count", "lower"),
    ("quadforms.self_ms", "ms", "lower"),
    ("tatecoh.tate_orders.self_ms", "ms", "lower"),
    ("tatecoh.elements_enumerated", "count", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.numpy_import_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
)


def _count_forms(counters, args, result):
    counters["quadforms.forms_enumerated"] += len(result)


def _count_elements(counters, args, result):
    counters["tatecoh.elements_enumerated"] += args[0].m


def _count_admissible(counters, args, result):
    counters["classify.admissible"] += result.admissible


# work counters read off a call's arguments or result
_ON_RESULT = {
    "quadforms.reduced_definite_forms": _count_forms,
    "quadforms.reduced_indefinite_forms": _count_forms,
    "tatecoh.tate_orders": _count_elements,
    "classify.vanishing_decision": _count_admissible,
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span name, nanoseconds spent in children]
        self.edges: dict[tuple, list[int]] = {}  # (parent, name) -> [calls, total_ns, self_ns]
        self.counters: Counter = Counter()
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        stack, edges, counters = self.stack, self.edges, self.counters
        on_result = _ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                edge = edges.setdefault((parent and parent[0], name), [0, 0, 0])
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1]
            if on_result is not None:
                on_result(counters, args, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of every layer wherever kgenus binds them."""
        package = importlib.import_module("kgenus")
        modules = [package] + [importlib.import_module(f"kgenus.{m}") for m in LAYERS + ("cli",)]
        for layer in LAYERS:
            module = sys.modules[f"kgenus.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for target in modules:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            self._undo.append((target, key, fn))
                            setattr(target, key, wrapped)
        # the CLI entry point, whose self time is parsing and serializing
        cli = sys.modules["kgenus.cli"]
        self._undo.append((cli, "main", cli.main))
        cli.main = self._wrap("cli.main", cli.main)

    def uninstall(self):
        for target, key, fn in reversed(self._undo):
            setattr(target, key, fn)
        self._undo.clear()

    def reset(self):
        self.edges.clear()
        self.counters.clear()

    def snapshot(self) -> dict:
        return {"edges": [[parent, name, *values] for (parent, name), values in self.edges.items()],
                "counters": dict(self.counters)}


class NumpyImportTimer:
    """Times the first import of numpy in this process, whenever and by
    whomever it happens."""

    def __init__(self):
        self.ns = 0
        self._original = builtins.__import__

        def timed(name, *args, **kwargs):
            if name == "numpy" and "numpy" not in sys.modules and not self.ns:
                start = perf_counter_ns()
                try:
                    return self._original(name, *args, **kwargs)
                finally:
                    self.ns = perf_counter_ns() - start
            return self._original(name, *args, **kwargs)

        builtins.__import__ = timed


def layer_metrics(snap: dict, ops: int, import_ms: float,
                  numpy_import_ms: float) -> dict[str, float]:
    """Per-operation values of every per-layer metric from a snapshot."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    rank_in_genus = reports = 0
    for parent, name, n, _, s in snap["edges"]:
        calls[name] += n
        self_ns[name] += s
        self_ns[name.split(".")[0]] += s
        in_genus = parent is not None and parent.startswith("genus.")
        if in_genus and name == "kummer.primitivity_rank":
            rank_in_genus += n
        if name.startswith("genus.") and not in_genus:
            reports += n
    counters = snap["counters"]
    out = {}
    for metric, unit, _ in PER_LAYER:
        key = metric.rsplit(".", 1)[0]
        if metric.endswith(".calls"):
            out[metric] = calls[key] / ops
        elif metric.endswith("self_ms"):
            out[metric] = self_ns[key] / 1e6 / ops
        elif unit == "count":
            out[metric] = counters.get(metric, 0) / ops
    decisions = calls["classify.vanishing_decision"]
    out["genus.rank_calls_per_report"] = rank_in_genus / reports if reports else 0.0
    out["classify.admissible_per_decision"] = (
        counters.get("classify.admissible", 0) / decisions if decisions else 0.0)
    out["cli.import_ms"] = import_ms
    out["cli.numpy_import_ms"] = numpy_import_ms
    return {metric: out[metric] for metric, _, _ in PER_LAYER}
