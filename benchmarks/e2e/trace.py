"""Outside-in layer tracer for the end-to-end benchmark.

The tracer wraps a fixed list of public ``repro.*`` functions with span
recorders without editing ``src/``.  For each target it looks up the
original function object, then rebinds every name that refers to that
object *by identity* in every loaded ``repro`` module -- so
``from x import f`` bindings are wrapped too -- and, for methods, the
attribute on the owning class.  Modules imported later pick the wrapper
up through their own ``from`` imports.  :meth:`Tracer.restore` puts
every original back.

A span records its name, start, end, parent span and thread.  Spans stay
in memory; the benchmark writes them out when its run ends.  A span's
self time is its duration minus the time its child spans cover; on one
thread the children of a span never overlap, so that is the sum of
their durations.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

__all__ = ["TARGETS", "Span", "Tracer", "self_times", "span_docs",
           "timing_identity"]

#: (metric prefix, defining module, attribute path) of every traced layer
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("kernels.catalog.build_kernel", "repro.kernels.catalog", "build_kernel"),
    ("compilers.codegen.compile_loop", "repro.compilers.codegen",
     "compile_loop"),
    ("compilers.cache.cached_compile", "repro.compilers.cache",
     "cached_compile"),
    ("engine.scheduler.schedule_on", "repro.engine.scheduler", "schedule_on"),
    ("engine.cache.cached_schedule", "repro.engine.cache", "cached_schedule"),
    ("engine.batch.schedule_batch", "repro.engine.batch", "schedule_batch"),
    ("engine.shard.schedule_batch_sharded", "repro.engine.shard",
     "schedule_batch_sharded"),
    ("ecm.model.predict_compiled", "repro.ecm.model", "predict_compiled"),
    ("ecm.batch.predict_batch", "repro.ecm.batch", "predict_batch"),
    ("machine.spec.MachineSpec.build_core", "repro.machine.spec",
     "MachineSpec.build_core"),
    ("machine.spec.MachineSpec.build_system", "repro.machine.spec",
     "MachineSpec.build_system"),
    ("machine.grid.compile_for_machines", "repro.machine.grid",
     "compile_for_machines"),
    ("bench.report.render_experiment", "repro.bench.report",
     "render_experiment"),
    ("serve.protocol.parse_request", "repro.serve.protocol", "parse_request"),
    ("serve.server.PredictionServer.submit_line", "repro.serve.server",
     "PredictionServer.submit_line"),
    ("serve.server.execute", "repro.serve.server",
     "PredictionServer._execute_batch"),
)

#: batch entry points that also report how much work they were handed
#: (the length of their first argument), by counter name
SIZE_COUNTERS: dict[str, str] = {
    "engine.batch.schedule_batch": "lanes",
    "engine.shard.schedule_batch_sharded": "lanes",
    "ecm.batch.predict_batch": "items",
}

_FAILED = object()


class Span(NamedTuple):
    """One traced call."""

    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    extra: dict | None


def _mark_resolved(extra: dict, _future) -> None:
    extra["resolved"] = time.perf_counter()


def _annotate_submit(args: tuple, result: Any) -> dict:
    """Request id of a ``submit_line`` call, and when its future resolves."""
    try:
        doc = json.loads(args[1])
        request_id = doc.get("id") if isinstance(doc, dict) else None
    except ValueError:
        request_id = None
    extra = {"id": request_id, "resolved": None}
    result[0].add_done_callback(functools.partial(_mark_resolved, extra))
    return extra


def _annotate_execute(args: tuple, _result: Any) -> dict:
    """Ids of the requests a micro-batch holds."""
    return {"ids": [item.id for item in args[1]]}


def _size_annotator(counter: str) -> Callable[[tuple, Any], dict]:
    def annotate(args: tuple, _result: Any) -> dict:
        return {counter: len(args[0])}
    return annotate


_ANNOTATORS: dict[str, Callable[[tuple, Any], dict]] = {
    "serve.server.PredictionServer.submit_line": _annotate_submit,
    "serve.server.execute": _annotate_execute,
    **{name: _size_annotator(c) for name, c in SIZE_COUNTERS.items()},
}


class Tracer:
    """Span recorder around :data:`TARGETS`; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target that exists in the loaded code.

        A target the code no longer has is listed in :attr:`missing` and
        reports zero calls, so the benchmark keeps running across
        refactors.
        """
        for name, module, attr in TARGETS:
            owner_name, _, fname = attr.rpartition(".")
            try:
                mod = importlib.import_module(module)
                owner = getattr(mod, owner_name) if owner_name else mod
                original = (owner.__dict__[fname] if owner_name
                            else getattr(mod, fname))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, fname, wrapper)
            for mod_name, loaded in list(sys.modules.items()):
                if loaded is None or not (mod_name == "repro"
                                          or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def restore(self) -> None:
        """Put back every original binding :meth:`install` replaced."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def _patch(self, owner: object, key: str, value: object) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, local, ids = self.spans, self._local, self._ids
        annotate = _ANNOTATORS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = _FAILED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = (annotate(args, result)
                         if annotate is not None and result is not _FAILED
                         else None)
                spans.append(Span(sid, parent, name, threading.get_ident(),
                                  t0, t1, extra))

        return wrapper


# ----------------------------------------------------------------------
def span_docs(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts, one per span."""
    return [{"sid": s.sid, "parent": s.parent, "name": s.name,
             "thread": s.thread, "start": s.start, "end": s.end,
             **(s.extra or {})} for s in spans]


def self_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per traced function: ``calls``, ``self_s`` and any size counter."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out = {name: {"calls": 0, "self_s": 0.0} for name, _m, _a in TARGETS}
    for name, counter in SIZE_COUNTERS.items():
        out[name][counter] = 0
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - covered.get(s.sid, 0.0)
        counter = SIZE_COUNTERS.get(s.name)
        if counter is not None and s.extra is not None:
            row[counter] += s.extra[counter]
    return out


def timing_identity(spans: list[Span], wall_s: float) -> tuple[float, bool]:
    """Unattributed time of a single-threaded command, and whether the
    identity ``sum(self_s) + unattributed == wall_s`` holds.

    Unattributed time is the part of *wall_s* no root span covers.  The
    identity fails when spans were lost or overlap on one thread, which
    would make the per-layer table double-count or under-count.
    """
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    total_self = sum(row["self_s"] for row in self_times(spans).values())
    unattributed = wall_s - roots
    ok = (abs(total_self + unattributed - wall_s) <= 1e-6 * max(wall_s, 1.0)
          and unattributed >= -1e-6)
    return unattributed, ok
