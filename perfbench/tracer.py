"""Outside-in tracing of scorefdr for the benchmark's traced run.

The tracer replaces public functions of the package with timing wrappers
at the place where they are looked up when called (a module global, a
package attribute, or a method on the procedure classes), so nothing under
``src/`` changes.  Wrappers are installed only in the traced worker process
and removed again by :meth:`Tracer.uninstall`.

Spans are aggregated in memory as they close: inclusive time, self time
(inclusive minus the time covered by direct child spans) and call counts
per span name, plus a few work counts taken at the same boundaries.

A target that a refactor removes is skipped and listed in
``Tracer.missing``; its metrics then read 0 instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, attribute, span name): functions wrapped where callers look
#: them up as module globals.
MODULE_TARGETS = (
    ("scorefdr.cli", "build_config", "cli.build_config"),
    ("scorefdr.cli", "ingest_stream", "cli.ingest_stream"),
    ("scorefdr.cli", "emit_decisions", "cli.emit_decisions"),
    ("scorefdr.cli", "emit_metrics", "cli.emit_metrics"),
    ("scorefdr.cli", "replicate", "simulation.replicate"),
    ("scorefdr.cli", "generate", "simulation.generate"),
    ("scorefdr.cli", "evaluate", "simulation.evaluate"),
    ("scorefdr.cli", "run_stream", "procedures.run_stream"),
    ("scorefdr.cli", "vovk_p_to_e", "calibration.vovk_p_to_e"),
    ("scorefdr.cli", "conformal_evalue", "calibration.conformal_evalue"),
    ("scorefdr.cli", "Observation", "core.Observation"),
    ("scorefdr", "Observation", "core.Observation"),
    ("scorefdr.simulation", "generate", "simulation.generate"),
    ("scorefdr.simulation", "evaluate", "simulation.evaluate"),
    ("scorefdr.simulation", "lr_evalue", "calibration.lr_evalue"),
    ("scorefdr.simulation", "ar1_conditional_pvalue", "calibration.ar1_pvalue"),
    ("scorefdr.simulation", "ar1_marginal_pvalue", "calibration.ar1_pvalue"),
    ("scorefdr.procedures", "compile_schedule", "schedules.compile_schedule"),
)

#: (method, span name): wrapped on every procedure class that defines it.
METHOD_TARGETS = (
    ("fit", "procedures.fit"),
    ("trajectory", "procedures.trajectory"),
    ("step", "procedures.step"),
    ("next_alpha", "procedures.next_alpha"),
)

#: next_alpha is recorded only as a child of step(): inside fit() it runs
#: once per hypothesis, and tracing it there would swamp the fit span.
ONLY_UNDER = {"procedures.next_alpha": "procedures.step"}

#: Per-layer metrics reported by the traced run, per round of the workload:
#: name -> (unit, source, key).  ``source`` is "total" (inclusive seconds),
#: "self" (self seconds), "calls", "count" (a work count) or "derived".
LAYER_METRICS = {
    "simulation.generate.s": ("s", "total", "simulation.generate"),
    "simulation.generate.calls": ("count", "calls", "simulation.generate"),
    "calibration.lr_evalue.s": ("s", "total", "calibration.lr_evalue"),
    "calibration.ar1_pvalue.s": ("s", "total", "calibration.ar1_pvalue"),
    "procedures.fit.s": ("s", "total", "procedures.fit"),
    "procedures.fit.steps": ("count", "count", "procedures.fit.steps"),
    "procedures.trajectory.s": ("s", "total", "procedures.trajectory"),
    "procedures.trajectory.calls": ("count", "calls", "procedures.trajectory"),
    "simulation.evaluate.s": ("s", "total", "simulation.evaluate"),
    "simulation.replicate.self_s": ("s", "self", "simulation.replicate"),
    "schedules.compile_schedule.calls": ("count", "calls", "schedules.compile_schedule"),
    "cli.build_config.s": ("s", "total", "cli.build_config"),
    "cli.emit_metrics.s": ("s", "total", "cli.emit_metrics"),
    "cli.ingest_stream.self_s": ("s", "self", "cli.ingest_stream"),
    "cli.ingest_stream.rows": ("count", "count", "cli.ingest_stream.rows"),
    "calibration.vovk_p_to_e.s": ("s", "total", "calibration.vovk_p_to_e"),
    "calibration.vovk_p_to_e.calls": ("count", "calls", "calibration.vovk_p_to_e"),
    "calibration.vovk_p_to_e.values": ("count", "count", "calibration.vovk_p_to_e.values"),
    "calibration.conformal_evalue.s": ("s", "total", "calibration.conformal_evalue"),
    "calibration.conformal_evalue.calls": ("count", "calls", "calibration.conformal_evalue"),
    "calibration.conformal_evalue.values": (
        "count", "count", "calibration.conformal_evalue.values"),
    "core.Observation.s": ("s", "total", "core.Observation"),
    "core.Observation.calls": ("count", "calls", "core.Observation"),
    "procedures.run_stream.self_s": ("s", "self", "procedures.run_stream"),
    "cli.emit_decisions.s": ("s", "total", "cli.emit_decisions"),
    "cli.emit_decisions.bytes": ("count", "count", "cli.emit_decisions.bytes"),
    "procedures.step.self_s": ("s", "self", "procedures.step"),
    "procedures.step.calls": ("count", "calls", "procedures.step"),
    "procedures.next_alpha.s": ("s", "total", "procedures.next_alpha"),
    "procedures.state_bytes_per_step": ("B/step", "derived", "state_bytes_per_step"),
}


def _count_fit(tracer, args, kwargs, result):
    proc = args[0]
    X = args[1] if len(args) > 1 else kwargs.get("X")
    tracer.counts["procedures.fit.steps"] += len(X)
    tracer.note_procedure(proc)


def _count_step(tracer, args, kwargs, result):
    tracer.note_procedure(args[0])


def _count_rows(tracer, args, kwargs, result):
    tracer.counts["cli.ingest_stream.rows"] += len(result)


def _count_values(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += int(np.size(args[0]))
    return count


def _count_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["cli.emit_decisions.bytes"] += os.path.getsize(path)


COUNTERS = {
    "procedures.fit": _count_fit,
    "procedures.step": _count_step,
    "cli.ingest_stream": _count_rows,
    "calibration.vovk_p_to_e": _count_values("calibration.vovk_p_to_e.values"),
    "calibration.conformal_evalue": _count_values("calibration.conformal_evalue.values"),
    "cli.emit_decisions": _count_bytes,
}


def retained_bytes(obj) -> int:
    """Bytes held by an object's attributes, following containers.

    Lists, tuples, dicts and sets are followed; arrays count their buffer
    through ``sys.getsizeof``; every object is counted once.
    """
    seen: set[int] = set()
    total = 0
    stack = list(vars(obj).values())
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
    return total


class Tracer:
    """Span and count aggregation plus the wrapper install/remove cycle."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._procedures: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        count = COUNTERS.get(name)
        only_under = ONLY_UNDER.get(name)

        def traced(*args, **kwargs):
            if only_under is not None and (not stack or stack[-1][0] != only_under):
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[2]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def note_procedure(self, proc):
        """Remember the latest procedure of each id for the retained-state count."""
        self._procedures[getattr(proc, "procedure_id", type(proc).__name__)] = proc

    # -- install / remove --------------------------------------------------

    def _patch(self, owner, attr, name):
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original))
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap every target that exists; list the absent ones in ``missing``."""
        for module_name, attr, name in MODULE_TARGETS:
            module = importlib.import_module(module_name)
            if callable(vars(module).get(attr)):
                self._patch(module, attr, name)
            else:
                self.missing.append(f"{module_name}.{attr}")
        procedures = importlib.import_module("scorefdr.procedures")
        classes = list(getattr(procedures, "PROCEDURES", {}).values())
        for method, name in METHOD_TARGETS:
            owners = {klass for cls in classes for klass in cls.__mro__
                      if inspect.isfunction(vars(klass).get(method))}
            if not owners:
                self.missing.append(f"scorefdr.procedures.*.{method}")
            for owner in sorted(owners, key=lambda k: k.__qualname__):
                self._patch(owner, method, name)
        return self

    def uninstall(self):
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def state_bytes_per_step(self) -> float:
        """Retained bytes of the latest procedure of each id over its steps."""
        procs = list(self._procedures.values())
        steps = sum(len(proc.trajectory()) for proc in procs)
        if steps == 0:
            return 0.0
        return sum(retained_bytes(proc) for proc in procs) / steps

    def layer_metrics(self, rounds: int) -> dict[str, dict]:
        """Every per-layer metric, per round of the workload.

        Call after :meth:`uninstall`, so the retained-state count runs
        untraced.
        """
        sources = {"total": self.total, "self": self.self_time,
                   "calls": self.calls, "count": self.counts}
        out = {}
        for metric, (unit, source, key) in LAYER_METRICS.items():
            if source == "derived":
                value = self.state_bytes_per_step()
            else:
                value = sources[source].get(key, 0) / rounds
            out[metric] = {"value": value, "unit": unit}
        return out
