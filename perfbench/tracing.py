"""The traced run: the workload's requests served in-process, with spans.

Every public function of the traced layers (``__all__`` of qknap.cli,
instance_io, model, dp and greedy) is wrapped wherever a qknap module
holds a reference to it, so each call records a span: name, start,
end, parent span and request id. Spans stay in memory and are written
out as JSON lines when the run ends. oracle and dominance serve only
the checker and are never wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import statistics
import sys
import time
import types

_LAYERS = ("cli", "instance_io", "model", "dp", "greedy")


def _solve_attrs(args, kwargs, out) -> dict:
    keep = kwargs.get("keep_matrix", args[1] if len(args) > 1 else False)
    s = out.stats
    return {
        "keep_matrix": bool(keep),
        "cells": s.cells,
        "comparisons": s.comparisons,
        "max_cell": s.max_cell,
        "labels": len(out.labels),
    }


# Counts recorded at the layer boundary, next to the span's times.
_ATTRS = {
    "dp.solve": _solve_attrs,
    "instance_io.parse_instance": lambda args, kwargs, out: {"bytes": len(args[0].encode())},
    "instance_io.serialize_frontier": lambda args, kwargs, out: {"bytes": len(out.encode())},
}


class Tracer:
    """Span recorder that patches the traced layers while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[types.FunctionType, types.FunctionType] = {}
        for layer in _LAYERS:
            mod = sys.modules[f"qknap.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{name}")

    def _wrap(self, fn, name: str):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "request": self.request,
                "parent": self._stack[-1] if self._stack else None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qknap" and not mod_name.startswith("qknap."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    setattr(mod, attr, self._wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")


def call_main(argv: list[str]) -> tuple[float, int, str]:
    """Run ``qknap.cli.main(argv)`` in-process: (seconds, exit code, stdout)."""
    import qknap.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = qknap.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
    return wall, code, out.getvalue()


def _durations(spans, name, keep=lambda s: True) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name and keep(s)]


def layer_metrics(spans: list[dict], served: set[int], first_pass: int, output_bytes: list[int],
                  overhead: tuple[float, float], import_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans.

    ``served`` holds the ids of requests of the kinds the workload serves;
    the cli and instance_io metrics cover only those. Counts and byte sizes
    come from the first pass (request ids below ``first_pass``) only, so
    they repeat exactly for a seed. ``output_bytes`` lists the stdout sizes
    of the served requests of the first pass.
    """
    first = [s for s in spans if s["request"] is not None and s["request"] < first_pass]
    solves = [s for s in first if s["name"] == "dp.solve" and not s["keep_matrix"]]
    mine = [s for s in spans if s["request"] in served]
    solve_s = sum(s["end"] - s["start"] for s in solves)
    cells = sum(s["cells"] for s in solves)
    comparisons = sum(s["comparisons"] for s in solves)
    parsed = [s["bytes"] for s in first if s["request"] in served and s["name"] == "instance_io.parse_instance"]
    med = statistics.median
    traced_s, untraced_s = overhead
    return {
        "cli.import_s": (med(import_s), "s"),
        "cli.main_s": (med(_durations(mine, "cli.main")), "s"),
        "instance_io.parse_s": (med(_durations(mine, "instance_io.parse_instance")), "s"),
        "instance_io.input_bytes": (statistics.fmean(parsed), "bytes"),
        "instance_io.serialize_s": (med(_durations(mine, "instance_io.serialize_frontier")), "s"),
        "instance_io.output_bytes": (statistics.fmean(output_bytes), "bytes"),
        "model.validate_s": (med(_durations(spans, "model.validate_instance")), "s"),
        "dp.solve_s": (med(_durations(spans, "dp.solve", lambda s: not s["keep_matrix"])), "s"),
        "dp.us_per_cell": (1e6 * solve_s / cells, "us"),
        "dp.comparisons": (comparisons, "count"),
        "dp.comparisons_per_s": (comparisons / solve_s, "1/s"),
        "dp.max_cell": (max(s["max_cell"] for s in solves), "count"),
        "dp.labels": (sum(s["labels"] for s in solves), "count"),
        "dp.cells": (cells, "count"),
        "dp.solve_matrix_s": (med(_durations(spans, "dp.solve", lambda s: s["keep_matrix"])), "s"),
        "greedy.r_s": (med(_durations(spans, "greedy.greedy_r")), "s"),
        "greedy.w_s": (med(_durations(spans, "greedy.greedy_w")), "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
    }
