"""Spans around the public functions of every loaded decobs module.

Installed from the benchmark's side: each public function object is replaced,
in every decobs module namespace that holds it, by a wrapper that times the
call and charges its duration to the enclosing span, so self times come out
of the child spans without storing them.  The CLI imports names directly
(``from .morphism import find_morphism``), which is why every namespace is
patched, and ``decobs.compare`` is reached through ``sys.modules`` because the
package attribute of that name is the ``compare`` function.
"""

from __future__ import annotations

import os
import sys
import types
from collections import defaultdict
from time import perf_counter

ROOT = "cli.op"  # the span around one whole CLI invocation


class Tracer:
    """Per-function call counts, inclusive and self times, plus a few
    counters read off arguments and results at the same boundaries."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [child time, name] of each open span
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def span(self, name: str, fn, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - frame[0]
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap every public decobs function; returns how many were wrapped."""
        modules = [m for name, m in sys.modules.items() if name == "decobs" or name.startswith("decobs.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("decobs.")
                    and not value.__name__.startswith("_")
                ):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.removeprefix('decobs.')}.{value.__name__}"
                    wrappers[id(value)] = self.span(name, value, _AFTER.get(name))
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        return len(wrappers)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t in self.self_time.items():
            out[name.split(".")[0]] += t
        return dict(out)


def _count_found(tracer: Tracer, args, result) -> None:
    tracer.counters["found"] += result is not None
    tracer.counters["matrix_searches"] += tracer.inside("compare.relation_matrix")


def _count_classes(tracer: Tracer, args, result) -> None:
    tracer.counters["classes"] += len(result.classes)
    tracer.counters["class_nodes"] += len(args[0])


def _count_strings(tracer: Tracer, args, result) -> None:
    tracer.counters["strings"] += len(args[0].L)


def _count_read(tracer: Tracer, args, result) -> None:
    tracer.counters["load_bytes"] += os.path.getsize(args[0])


def _count_written(tracer: Tracer, args, result) -> None:
    tracer.counters["dump_bytes"] += os.path.getsize(args[1])


_AFTER = {
    "morphism.find_morphism": _count_found,
    "graph.quotient_by_indistinguishability": _count_classes,
    "model.validate_problem": _count_strings,
    "files.read_json": _count_read,
    "files.dump_json": _count_written,
}

# Named per-layer metrics: groups of functions whose self times add up.
GROUPS = {
    "files.load": ("files.load_problem", "files.read_json", "files.parse_problem",
                   "files.load_rule", "files.parse_rule"),
    "files.dump": ("files.dump_json", "files.to_json", "files.problem_to_obj"),
    "files.witness": ("files.morphism_to_obj", "files.solution_to_obj", "files.node_key"),
    "graph.build": ("graph.build_observation_graph", "graph.build_decision_graph"),
    "graph.quotient": ("graph.quotient_by_indistinguishability",),
    "morphism.find": ("morphism.find_morphism",),
    "morphism.verify": ("morphism.verify_morphism",),
    "morphism.extract": ("morphism.extract_solution",),
    "morphism.verify_solution": ("morphism.verify_solution",),
    "model.validate": ("model.validate_problem",),
    "compare.relation_matrix": ("compare.relation_matrix",),
    "cli.self": (ROOT,),
}


def per_layer_metrics(tracer: Tracer, batches: int, untraced_batch_s: float, traced_batch_s: float) -> dict:
    """The per_layer metrics of one traced run, normalised per batch."""
    c = tracer.counters
    finds = tracer.calls.get("morphism.find_morphism", 0)
    quotients = tracer.calls.get("graph.quotient_by_indistinguishability", 0)
    matrices = tracer.calls.get("compare.relation_matrix", 0)
    metrics = {
        f"{g}_s": (sum(tracer.self_time.get(f, 0.0) for f in fns) / batches, "s") for g, fns in GROUPS.items()
    }
    metrics.update({
        "morphism.find_calls": (finds / batches, "count"),
        "morphism.found_frac": (c["found"] / finds if finds else 0.0, "frac"),
        "morphism.verify_calls": (tracer.calls.get("morphism.verify_morphism", 0) / batches, "count"),
        "model.strings": (c["strings"] / batches, "count"),
        "files.load_mb": (c["load_bytes"] / 1e6 / batches, "MB"),
        "files.dump_mb": (c["dump_bytes"] / 1e6 / batches, "MB"),
        "graph.classes": (c["classes"] / quotients if quotients else 0.0, "count"),
        "graph.class_ratio": (c["classes"] / c["class_nodes"] if c["class_nodes"] else 0.0, "frac"),
        "compare.searches_per_poset": (c["matrix_searches"] / matrices if matrices else 0.0, "count"),
        "trace.batch_s": (traced_batch_s, "s"),
        "trace.slowdown": (traced_batch_s / untraced_batch_s, "ratio"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def table(tracer: Tracer, batches: int) -> list[str]:
    """Human-readable per-layer and per-function self times per batch."""
    total = sum(tracer.self_time.values()) or 1.0
    lines = [f"{'layer / function':44s} {'calls':>9s} {'self s':>10s} {'incl s':>10s} {'self %':>7s}"]
    for layer, t in sorted(tracer.layer_self().items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:44s} {'':>9s} {t / batches:10.4f} {'':>10s} {100 * t / total:7.2f}")
        for name in sorted((n for n in tracer.self_time if n.split('.')[0] == layer),
                           key=lambda n: -tracer.self_time[n]):
            lines.append(
                f"  {name:42s} {tracer.calls[name] / batches:9.1f} {tracer.self_time[name] / batches:10.4f}"
                f" {tracer.inclusive[name] / batches:10.4f} {100 * tracer.self_time[name] / total:7.2f}"
            )
    return lines
