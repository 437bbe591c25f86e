"""Pipeline scheduler front end: result types, hooks and entry points.

This is the model behind every "cycles per element" figure in the
reproduction.  :class:`PipelineScheduler` replays an
:class:`~repro.machine.isa.InstructionStream` (a loop body) for
``WARMUP_ITERS + MEASURE_ITERS`` iterations against the
pipe/latency/throughput tables of a
:class:`~repro.machine.microarch.Microarch` and reports steady-state
statistics.  The simulation itself — the issue model, the stepping
loop and steady-state period detection — lives in exactly one place,
:mod:`repro.engine.batch`; a single point is a batch of one.

This module holds what every scheduling entry point shares:
:class:`ScheduleResult`, :class:`ScheduleDivergence`, the opt-in
schedule-observer hook (:class:`ScheduleRecord`), the memoized static
dataflow of a loop body, the canonical pipe order that breaks ties, and
the ``pipeline.*`` counter payload.  Results match the preserved seed
implementation in :mod:`repro.engine._reference`
(``tests/engine/test_golden_equivalence.py``).

When a :class:`repro.perf.counters.ProfileScope` is active, every
schedule additionally emits PMU-style counters under ``pipeline.*``:
front-end issue-slot accounting (``issue_slots.total ==
issue_slots.used + issue_slots.stalled`` holds exactly), per-pipe busy
cycles, and the dynamic instruction-mix histogram.  Cache hits via
:func:`schedule_on` emit the identical counter payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

from repro.machine.isa import Instruction, InstructionStream, Pipe
from repro.machine.microarch import Microarch

__all__ = [
    "ScheduleResult",
    "ScheduleDivergence",
    "ScheduleRecord",
    "PipelineScheduler",
    "schedule_on",
    "add_schedule_observer",
    "remove_schedule_observer",
    "counter_payload",
    "clear_memos",
]

#: stable pipe order: pipe ids of the batch engine, tie-break walk order
_PIPES = tuple(Pipe)


def _canon_pipes(pipes: frozenset[Pipe]) -> tuple[Pipe, ...]:
    """*pipes* in ``Pipe`` definition order — the canonical tie-break walk.

    Pipe selection takes the first least-loaded candidate, so the walk
    order decides ties between equally-free pipes.  A frozenset's
    iteration order depends on ``PYTHONHASHSEED`` and does not survive a
    pickle round-trip to a shard worker; sorting once at timing
    -resolution time makes every scheduler (reference, batched,
    sharded) break ties identically on any seed and in any process.
    """
    return tuple(p for p in _PIPES if p in pipes)


#: opt-in schedule observers (see :func:`add_schedule_observer`); empty in
#: normal operation so scheduling pays nothing for the hook point
_SCHEDULE_OBSERVERS: list = []


@dataclass(frozen=True)
class ScheduleRecord:
    """One simulated schedule, as seen by a schedule observer.

    ``issues`` is the complete issue-event log — one ``(dynamic_index,
    cycle, pipe)`` tuple per dynamic instruction, in issue order — which
    is everything an external invariant checker needs to re-derive
    completions, retire order, window residency and per-pipe backlogs
    (see :mod:`repro.validate.schedule`).  Recording the log disables
    steady-state period detection for the observed schedule; results are
    identical either way (the golden-equivalence property), only slower.
    """

    march: Microarch
    window: int
    stream: InstructionStream
    n_iters: int
    issues: tuple[tuple[int, float, Pipe], ...]
    result: ScheduleResult

    def timings(self) -> list[tuple[float, float, tuple[Pipe, ...]]]:
        """Per body position ``(latency, rtput, pipes)`` under ``march``,
        honoring per-instruction overrides — the same resolution (and
        canonical pipe order) the scheduler itself used."""
        return list(_timings_for(self.march, tuple(self.stream.body)))


def add_schedule_observer(
    observer: Callable[[ScheduleRecord], None]
) -> None:
    """Register *observer* to receive a :class:`ScheduleRecord` for every
    schedule the engine simulates.

    Observation is opt-in instrumentation for invariant checking
    (:mod:`repro.validate`): while any observer is installed, simulated
    schedules record their full issue-event log (disabling period
    detection — identical results, more work).  Cache hits served by
    :mod:`repro.engine.cache` replay stored outcomes without simulating
    and are therefore not observed.
    """
    _SCHEDULE_OBSERVERS.append(observer)


def remove_schedule_observer(
    observer: Callable[[ScheduleRecord], None]
) -> None:
    """Unregister a schedule observer added by :func:`add_schedule_observer`."""
    _SCHEDULE_OBSERVERS.remove(observer)


@lru_cache(maxsize=1024)
def _dataflow_of(
    body: tuple[Instruction, ...],
) -> tuple[
    tuple[tuple[tuple[int, int], ...], ...],
    tuple[tuple[tuple[int, int], ...], ...],
]:
    """Memoized static dataflow of one loop body (content-keyed).

    :class:`~repro.machine.isa.Instruction` is frozen/hashable, so the
    body tuple itself is the key: repeated scheduling of the same loop
    (every sweep, every toolchain emitting an identical stream) stops
    re-deriving dependency edges.  See
    :meth:`PipelineScheduler._static_dataflow` for the semantics.
    """
    n_body = len(body)
    last_def: dict[str, int] = {}
    final_def: dict[str, int] = {}
    for j, ins in enumerate(body):
        if ins.dest:
            final_def[ins.dest] = j
    deps: list[tuple[tuple[int, int], ...]] = []
    for j, ins in enumerate(body):
        resolved: list[tuple[int, int]] = []
        for src in ins.srcs:
            if ins.carried and src == ins.dest:
                prev = final_def.get(src)
                if prev is not None:
                    resolved.append((prev, 1))
            elif src in last_def:
                resolved.append((last_def[src], 0))
            elif src in final_def:
                resolved.append((final_def[src], 1))
            # else: loop input, ready at cycle 0
        deps.append(tuple(resolved))
        if ins.dest:
            last_def[ins.dest] = j
    consumers: list[list[tuple[int, int]]] = [[] for _ in range(n_body)]
    for j, resolved in enumerate(deps):
        for pos, delta in resolved:
            consumers[pos].append((j, delta))
    return tuple(deps), tuple(tuple(c) for c in consumers)


def _timings_for(
    march: Microarch, body: tuple[Instruction, ...]
) -> tuple[tuple[float, float, tuple[Pipe, ...]], ...]:
    """Per body position ``(latency, rtput, pipes)`` under *march*,
    honoring per-instruction overrides.  Candidate pipes come back in
    canonical :func:`_canon_pipes` order so tie-breaking is reproducible
    across seeds and process boundaries."""
    rows = []
    for ins in body:
        t = march.timing(ins.op)
        lat = (ins.latency_override
               if ins.latency_override is not None else t.latency)
        rtp = (ins.rtput_override
               if ins.rtput_override is not None else t.rtput)
        rows.append((lat, rtp, _canon_pipes(t.pipes)))
    return tuple(rows)


def clear_memos() -> None:
    """Drop the memoized dataflow tables (cold-path measurements).

    The memo is a pure cache — clearing it changes nothing but the time
    the next schedule takes to rebuild its tables.
    """
    _dataflow_of.cache_clear()


class ScheduleDivergence(RuntimeError):
    """The simulation exceeded ``PipelineScheduler.MAX_CYCLES``.

    Raised instead of a bare ``RuntimeError`` so callers can tell a
    non-converging schedule (a model bug or an unsatisfiable dependence
    in the stream) apart from other failures.  The message names the
    stream label, the window, and the first stuck dynamic instruction.
    """

    def __init__(self, stream: InstructionStream, window: int,
                 stuck_index: int, n_body: int) -> None:
        ins = stream.body[stuck_index % n_body]
        self.label = stream.label
        self.window = window
        self.stuck_index = stuck_index
        self.stuck_iteration = stuck_index // n_body
        self.stuck_position = stuck_index % n_body
        self.stuck_mnemonic = ins.tag or ins.op.value
        super().__init__(
            f"scheduler failed to converge on stream "
            f"{stream.label or '<unlabeled>'!r} (window={window}): first "
            f"stuck dynamic instruction #{stuck_index} "
            f"(iteration {self.stuck_iteration}, body position "
            f"{self.stuck_position}, {self.stuck_mnemonic!r}) — check the "
            f"instruction stream for an unsatisfiable dependence"
        )

    def __reduce__(self):
        """Pickle by field (the custom ``__init__`` takes the stream
        itself, which a shard worker's traceback must not require)."""
        state = {
            "label": self.label,
            "window": self.window,
            "stuck_index": self.stuck_index,
            "stuck_iteration": self.stuck_iteration,
            "stuck_position": self.stuck_position,
            "stuck_mnemonic": self.stuck_mnemonic,
        }
        return (_rebuild_divergence, (self.args, state))


def _rebuild_divergence(args: tuple, state: dict) -> "ScheduleDivergence":
    """Unpickle helper for :class:`ScheduleDivergence` (same message)."""
    exc = ScheduleDivergence.__new__(ScheduleDivergence)
    RuntimeError.__init__(exc, *args)
    for name, value in state.items():
        setattr(exc, name, value)
    return exc


@dataclass(frozen=True)
class ScheduleResult:
    """Steady-state schedule statistics for one loop body.

    ``cycles_per_iter`` is the asymptotic initiation interval of the loop
    body; ``cycles_per_element`` divides by the stream's
    ``elements_per_iter`` (vector lanes), matching the unit used throughout
    the paper's Section IV.  ``bound`` names the limiting resource:
    ``"pipe:<name>"`` when one pipe is >90% occupied, ``"issue"`` when the
    front end is, else ``"latency"`` (dependence chains).
    """

    cycles_per_iter: float
    elements_per_iter: int
    instructions_per_iter: int
    ipc: float
    pipe_occupancy: Mapping[Pipe, float]
    bound: str
    label: str = ""

    @property
    def cycles_per_element(self) -> float:
        """Cycles per result element (the paper's Section IV unit)."""
        return self.cycles_per_iter / self.elements_per_iter

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.label or 'kernel'}: {self.cycles_per_iter:.2f} cyc/iter, "
            f"{self.cycles_per_element:.2f} cyc/elem, ipc={self.ipc:.2f}, "
            f"bound={self.bound}>"
        )


class PipelineScheduler:
    """Greedy bounded-window scheduler for one microarchitecture.

    Parameters
    ----------
    march:
        The core model supplying timings, pipes, issue width and window.
    window:
        Optional override of the out-of-order window (used to model
        compilers that do not unroll: a small window pins the schedule to
        one iteration's dependence chain).
    extrapolate:
        Enable steady-state period detection (on by default).  Turn off
        to force the full iteration-by-iteration simulation — results
        are identical either way; this is a debugging escape hatch.
    """

    #: iterations simulated before measurement starts (pipeline warm-up)
    WARMUP_ITERS = 8
    #: iterations measured for the steady-state estimate
    MEASURE_ITERS = 16
    #: safety net against model bugs (class attribute so tests can lower it)
    MAX_CYCLES = 1e7

    def __init__(self, march: Microarch, window: int | None = None,
                 *, extrapolate: bool = True) -> None:
        self.march = march
        self.window = march.window if window is None else window
        self.extrapolate = extrapolate
        if self.window < 1:
            raise ValueError("window must be >= 1")

    # ------------------------------------------------------------------
    def steady_state(self, stream: InstructionStream) -> ScheduleResult:
        """Simulate the loop and return steady-state statistics.

        An uncached batch of one through :mod:`repro.engine.batch`;
        ``extrapolate=False`` steps the lane in its recording mode,
        which has period detection off.
        """
        from repro.engine.batch import (
            _complete_batch,
            _plan_batch,
            _plan_jobs,
            _simulate_jobs,
        )

        plan = _plan_batch([(self.march, stream, self.window)], cache=False)
        sim_out = _simulate_jobs(_plan_jobs(plan),
                                 plan.record or not self.extrapolate,
                                 plan.n_iters)
        return _complete_batch(plan, sim_out)[0]

    # ------------------------------------------------------------------
    @staticmethod
    def _static_dataflow(
        body: list[Instruction],
    ) -> tuple[
        list[tuple[tuple[int, int], ...]],
        list[tuple[tuple[int, int], ...]],
    ]:
        """Per body position: producers as (position, iteration delta),
        and the inverse consumer map.  Deltas are 0 (same iteration) or
        1 (previous iteration's value: loop-carried, or defined later in
        the body).  Memoized per body content in :func:`_dataflow_of`."""
        deps, consumers = _dataflow_of(tuple(body))
        return list(deps), list(consumers)

    @staticmethod
    def _classify_bound(
        cpi: float, n_body: int, occupancy: Mapping[Pipe, float]
    ) -> str:
        hot = max(occupancy.items(), key=lambda kv: kv[1])
        if hot[1] > 0.9:
            return f"pipe:{hot[0].value}"
        if n_body / cpi > 3.5:
            return "issue"
        return "latency"


def counter_payload(
    march: Microarch,
    stream: InstructionStream,
    n_iters: int,
    total: int,
    makespan: float,
    cpi: float,
    pipe_busy_cycles: Mapping[Pipe, float],
) -> dict[str, float]:
    """The ``pipeline.*`` PMU counters for one simulated schedule.

    Computed by the engine (:mod:`repro.engine.batch`) for every
    simulated schedule; the schedule cache stores it so hits replay
    byte-identical payloads.  The front-end slot
    identity ``issue_slots.total == used + stalled`` is exact by
    construction: every simulated cycle offers ``issue_width`` slots,
    each dynamic instruction consumes one, and the remainder stall.
    """
    slot_total = march.issue_width * makespan
    payload = {
        "pipeline.schedules": 1.0,
        "pipeline.iterations": float(n_iters),
        "pipeline.instructions": float(total),
        "pipeline.makespan_cycles": makespan,
        "pipeline.steady_cycles": cpi * n_iters,
        "pipeline.issue_slots.total": slot_total,
        "pipeline.issue_slots.used": float(total),
        "pipeline.issue_slots.stalled": slot_total - total,
    }
    for pipe, busy in pipe_busy_cycles.items():
        if busy:
            payload[f"pipeline.pipe_busy.{pipe.value}"] = busy
    for op, count in stream.counts().items():
        payload[f"pipeline.instr_mix.{op.value}"] = float(count * n_iters)
    return payload


def schedule_on(march: Microarch, stream: InstructionStream,
                window: int | None = None, *,
                cache: bool = True) -> ScheduleResult:
    """Convenience wrapper: schedule *stream* on *march*.

    Goes through the process-wide content-addressed schedule cache
    (:mod:`repro.engine.cache`) unless ``cache=False`` — repeated sweeps
    over identical (march, stream, window) points, including identical
    streams emitted by different toolchains, reuse the schedule.
    """
    if cache:
        from repro.engine.cache import cached_schedule

        return cached_schedule(march, stream, window=window)
    return PipelineScheduler(march, window=window).steady_state(stream)
