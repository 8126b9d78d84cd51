"""In-memory span tracing of superadd's public functions, from outside the package.

Each public function of the layer modules is replaced by a recording wrapper
at every module attribute that holds it: some modules bind these names at
import time (coherent imports optimize_r2, twoshot and cli import c1), so
wrapping only the defining module would miss those calls.  The package
source is never modified; uninstall() restores the original attributes.

A span is {name, start, end, parent, op_id} plus any counters recorded on
it.  Spans are recorded only while an operation is open, so output checks
run between operations leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("capacities", "twoshot", "coherent", "mcsim", "cli")
ROOT_SPAN = "bench.op"


def _call_counters(name, signature, args, kwargs, result) -> dict:
    """Work counts a call reports, read from its arguments or its result."""
    counters = {}
    iterations = getattr(result, "iterations", None)
    if isinstance(iterations, int) and hasattr(result, "converged"):
        counters["evals"] = iterations
        counters["converged"] = int(bool(result.converged))
    if name == "mcsim.simulate":
        counters["samples"] = signature.bind(*args, **kwargs).arguments["config"].samples
    elif name == "mcsim.bootstrap_standard_error":
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counters["resamples"] = bound.arguments["resamples"]
    elif name == "cli.sweep_table":
        counters["rows"] = len(result)
    return counters


class Tracer:
    """Records nested spans around the package's public functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"superadd.{layer}") for layer in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "superadd" or name.startswith("superadd."))]
        targets = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            bytes_before = _stream_position(args, kwargs) if name == "cli.write_csv" else None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.update(_call_counters(name, signature, args, kwargs, result))
            if bytes_before is not None:
                span["bytes"] = _stream_position(args, kwargs) - bytes_before
            return result

        return traced

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": 0.0, "end": None,
                "parent": self._stack[-1] if self._stack else None, "op_id": self._op_id}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._root = self._open(ROOT_SPAN)

    def end_op(self) -> float:
        self._close(self._root)
        self._op_id = None
        return self._root["end"] - self._root["start"]

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a counter on the innermost open span, if one is open."""
        if self._stack:
            span = self.spans[self._stack[-1]]
            span[key] = span.get(key, 0) + amount

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")


def _stream_position(args, kwargs) -> int:
    stream = kwargs.get("stream", args[1] if len(args) > 1 else None)
    return stream.tell()


def self_times(spans: list[dict]) -> tuple[list[float], list[float]]:
    """Per span: its duration minus the time its direct children cover, and
    its duration minus only the children that count evaluations of their own
    (the time behind the span's own evals, e.g. optimize_general without its
    optimize_r2 warm start)."""
    own = [s["end"] - s["start"] for s in spans]
    eval_own = list(own)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
            if "evals" in s:
                eval_own[s["parent"]] -= s["end"] - s["start"]
    return own, eval_own


def check_nesting(spans: list[dict], own: list[float]) -> list[str]:
    """Problems with span nesting: a child outside its parent's interval or
    another operation, or an operation whose span self times do not add up
    to its wall time."""
    problems = []
    wall: dict[int, float] = {}
    summed: dict[int, float] = defaultdict(float)
    for s, self_s in zip(spans, own):
        summed[s["op_id"]] += self_s
        if s["parent"] is None:
            wall[s["op_id"]] = s["end"] - s["start"]
            continue
        parent = spans[s["parent"]]
        if parent["op_id"] != s["op_id"] or not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"span {s['name']} escapes its parent {parent['name']}")
    for op_id, total in wall.items():
        if abs(summed[op_id] - total) > 1e-6 * max(total, 1e-3):
            problems.append(f"op {op_id}: self times sum to {summed[op_id]:.9f} s, wall {total:.9f} s")
    return problems


def layer_totals(spans: list[dict], own: list[float], eval_own: list[float]) -> dict[str, dict[str, float]]:
    """Per function: calls, busy_s, self_s, eval_s and every counter, summed.
    The three lists run in parallel and may be any subset of a run's spans."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_s, eval_s in zip(spans, own, eval_own):
        entry = totals[s["name"]]
        entry["calls"] += 1
        entry["busy_s"] += s["end"] - s["start"]
        entry["self_s"] += self_s
        if "evals" in s:
            entry["eval_s"] += eval_s
        for key, value in s.items():
            if key not in ("name", "start", "end", "parent", "op_id"):
                entry[key] += value
    return {name: dict(entry) for name, entry in totals.items()}


def count_signature(totals: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """The exact-count part of layer_totals: everything but the times."""
    return {name: {k: v for k, v in entry.items() if not k.endswith("_s")}
            for name, entry in sorted(totals.items())}
