"""PMU-style software performance counters.

Real A64FX tuning work leans on the hardware PMU: cycles, issue slots,
per-pipe occupancy, cache fills, CMG-remote traffic.  This module gives
the *model* the same vocabulary.  Instrumented code (the pipeline
scheduler, the memory hierarchy, the kernel executor, the OpenMP model,
the exact cache simulator) calls :func:`emit` with a dotted counter name;
when a :class:`ProfileScope` is active the value accumulates into its
:class:`CounterSet`, and when none is active the call is a near-free
no-op — kernels run unchanged outside profiling.

Counter names form a stable dotted taxonomy (documented in
``docs/PROFILING.md``):

``pipeline.*``
    front-end slot accounting, per-pipe busy cycles, instruction mix —
    emitted by :class:`repro.engine.scheduler.PipelineScheduler`.
``memory.*``
    per-level hit/miss/eviction and byte accounting for the *analytic*
    hierarchy — emitted by :class:`repro.machine.memory.MemoryHierarchy`
    and :class:`repro.engine.executor.KernelExecutor`.
``cachesim.*``
    exact per-line counters of :class:`repro.machine.memory.CacheSim`
    trace replays.
``omp.*``
    thread imbalance, fork/join + barrier time, CMG-local vs remote
    bytes — emitted by :class:`repro.engine.openmp.OpenMPModel`.
``exec.*``
    compute-vs-memory attribution per kernel run — emitted by
    :class:`repro.engine.executor.KernelExecutor`.

Scopes nest: every active scope on the stack receives every emission, so
a broad scope around a whole experiment and a narrow scope around one
kernel see consistent totals.
"""

from __future__ import annotations

import threading
from typing import Iterator, Mapping

__all__ = [
    "CounterSet",
    "ProfileScope",
    "emit",
    "emit_unique",
    "is_profiling",
    "active_scopes",
    "add_scope_observer",
    "remove_scope_observer",
]

#: opt-in scope-exit observers (see :func:`add_scope_observer`); empty in
#: normal operation so profiling pays nothing for the hook point
_SCOPE_OBSERVERS: list = []


def add_scope_observer(observer) -> None:
    """Register *observer* to receive each :class:`CounterSet` when its
    :class:`ProfileScope` exits cleanly.

    Used by :mod:`repro.validate` to run the counter-reconciliation
    identities (issue-slot accounting, cache hit/miss sums) on every
    completed scope without this module importing the validator.  Scopes
    unwound by an exception are not observed.
    """
    _SCOPE_OBSERVERS.append(observer)


def remove_scope_observer(observer) -> None:
    """Unregister a scope observer added by :func:`add_scope_observer`."""
    _SCOPE_OBSERVERS.remove(observer)


class CounterSet(Mapping[str, float]):
    """An accumulating mapping of dotted counter names to float values.

    The set behaves like a read-only mapping; mutation goes through
    :meth:`inc` (additive, the PMU semantic) and :meth:`put`
    (last-writer-wins, for ratios and rates that do not sum).
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._values: dict[str, float] = {}

    # -- mutation ------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add *value* to counter *name* (creating it at 0)."""
        self._values[name] = self._values.get(name, 0.0) + value

    def put(self, name: str, value: float) -> None:
        """Overwrite counter *name* (for non-additive quantities)."""
        self._values[name] = value

    def merge(self, other: "CounterSet | Mapping[str, float]") -> None:
        """Accumulate every counter of *other* into this set."""
        for name, value in other.items():
            self.inc(name, value)

    def clear(self) -> None:
        """Drop every counter."""
        self._values.clear()

    # -- mapping interface ---------------------------------------------
    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    # -- queries -------------------------------------------------------
    def group(self, prefix: str) -> dict[str, float]:
        """All counters under ``prefix.``, keyed by the remainder.

        ``cs.group("pipeline.pipe_busy")`` returns ``{"fla": ..., ...}``.
        """
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {
            name[len(dotted):]: value
            for name, value in sorted(self._values.items())
            if name.startswith(dotted)
        }

    def total(self, prefix: str) -> float:
        """Sum of every counter under ``prefix.``."""
        return sum(self.group(prefix).values())

    def as_dict(self) -> dict[str, float]:
        """Plain sorted dict — the stable JSON-facing form."""
        return {name: self._values[name] for name in sorted(self._values)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterSet {self.label or 'anonymous'}: {len(self)} counters>"


class _ScopeStack(threading.local):
    """Per-thread stack of scopes currently receiving emissions.

    Thread-local on purpose: a prediction server runs its batches on
    the micro-batcher's drain thread and its TCP frontend handles each
    connection on its own thread, so a scope opened on one thread must
    not receive emissions made concurrently on another.
    """

    def __init__(self) -> None:
        self.scopes: list[CounterSet] = []


_STACK = _ScopeStack()


def is_profiling() -> bool:
    """True when at least one :class:`ProfileScope` is active."""
    return bool(_STACK.scopes)


def active_scopes() -> tuple[CounterSet, ...]:
    """The currently active counter sets, outermost first."""
    return tuple(_STACK.scopes)


def emit(name: str, value: float = 1.0) -> None:
    """Accumulate *value* into counter *name* of every active scope."""
    for scope in _STACK.scopes:
        scope.inc(name, value)


def emit_unique(name: str, value: float) -> None:
    """Overwrite counter *name* in every active scope (non-additive)."""
    for scope in _STACK.scopes:
        scope.put(name, value)


class ProfileScope:
    """Context manager that collects counters emitted inside its body.

    >>> from repro.perf.counters import ProfileScope
    >>> with ProfileScope("demo") as counters:
    ...     pass  # run instrumented model code here
    >>> dict(counters)
    {}
    """

    def __init__(self, label: str = "") -> None:
        self.counters = CounterSet(label)

    def __enter__(self) -> CounterSet:
        _STACK.scopes.append(self.counters)
        return self.counters

    def __exit__(self, *exc_info: object) -> None:
        # remove by identity so interleaved (non-LIFO) exits stay correct
        scopes = _STACK.scopes
        for i in range(len(scopes) - 1, -1, -1):
            if scopes[i] is self.counters:
                del scopes[i]
                break
        if _SCOPE_OBSERVERS and (not exc_info or exc_info[0] is None):
            for observer in tuple(_SCOPE_OBSERVERS):
                observer(self.counters)
