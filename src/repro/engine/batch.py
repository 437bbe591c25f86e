"""The scheduling engine: one greedy bounded-window simulator, batched.

Every schedule in the reproduction is stepped here —
:meth:`~repro.engine.scheduler.PipelineScheduler.steady_state`,
:func:`~repro.engine.scheduler.schedule_on`,
:func:`~repro.engine.cache.cached_schedule`,
:func:`~repro.engine.trace.capture_trace`, :func:`schedule_batch` and
:func:`~repro.engine.shard.schedule_batch_sharded` all run the
:class:`_Lane` defined below; a single point is a batch of one.

The issue model — stated once, accurately (DESIGN.md and
docs/ARCHITECTURE.md point here): **greedy bounded-window out-of-order
issue with in-order retire**.  Instructions issue out of program order,
oldest-ready first, from a reorder window of ``window`` dynamic
instructions behind the in-order retire pointer; up to ``issue_width``
issue per cycle.  It is *not* a pure in-order dual-pipe model (younger
independent instructions overtake stalled older ones inside the window)
and not an unbounded out-of-order model (the window and in-order retire
bound how far ahead the core can look — the mechanism that makes
un-unrolled 9-cycle FMA chains cost what the paper measures).

* each dynamic instruction becomes ready when all of its sources have
  completed (register dataflow; loop-carried sources resolve to the
  previous iteration's value);
* each cycle, up to ``issue_width`` ready instructions from the oldest
  ``window`` un-issued instructions are issued to free pipes, each to
  the candidate pipe with the smallest backlog (first in canonical pipe
  order on ties);
* a pipe stays busy for the op's reciprocal throughput — which equals the
  full latency for blocking ops such as the A64FX ``FSQRT`` (the mechanism
  behind the 20x sqrt gap of Section III);
* results appear ``latency`` cycles after issue.

Two devices make the simulation cheap without changing a single result
(golden equivalence against the preserved seed implementation in
:mod:`repro.engine._reference` is enforced by
``tests/engine/test_golden_equivalence.py``):

* **event-driven time advance** — ready heaps plus per-pipe free times
  replace a per-cycle window scan; a cycle in which nothing issues jumps
  straight to the stall horizon, the next cycle at which a stalled
  instruction can issue or the reorder-buffer head retires;
* **steady-state period detection** — once the relative schedule state
  (issue offsets and pipe backlogs modulo the current cycle) repeats
  between iterations of the retire pointer, the lane fast-forwards
  whole periods and resimulates only the tail, instead of grinding
  through all ``WARMUP_ITERS + MEASURE_ITERS`` iterations.  Recording
  lanes (schedule observers, issue traces, ``extrapolate=False``) keep
  it off, so every issue is observed.

Scheduling many independent (stream, toolchain, machine) points adds
batch-level structure on top:

* **precompiled int-indexed tables** — per (core content, stream) the
  latencies, reciprocal throughputs, pipe-candidate sets and dataflow
  edges are resolved once into flat integer-indexed lists
  (:class:`_StreamTables`, LRU-cached), so the inner loop never hashes
  an enum or re-derives a dependency edge;
* **content-addressed deduplication** — requests with identical
  (march, stream, window) fingerprints simulate once and fan results
  back out per request (different toolchains frequently emit identical
  streams for the same loop, and machines that differ only by name or
  by traits the scheduler does not read share one core fingerprint);
* **independent lanes** — each unique point is a :class:`_Lane` run
  to completion in turn; lanes share nothing but the read-only tables,
  so the order they run in changes no result;
* **class-partitioned ready heaps** — ready instructions are grouped by
  pipe-candidate class; once a class has no pipe free this cycle it is
  skipped wholesale instead of re-popping and re-blocking each member;
* **vectorized finalization** — steady-state statistics for all lanes
  (cycles/iter, occupancy, makespan) are computed with numpy in one
  shot.

Exactness contract: every lane issues the dynamic instruction sequence
of the seed scheduler — same issue cycles, same pipe choices — so its
:class:`~repro.engine.scheduler.ScheduleResult` and ``pipeline.*``
counters match :mod:`repro.engine._reference` (busy-cycle sums may
differ in the last bit where period detection multiplies a period's
busy time instead of summing it; compared at 1e-9).  Whatever the batch
composition, deduplication or sharding, a lane's result and counter
payload are bit-identical (``tests/engine/test_batch.py``,
``tests/engine/test_golden_equivalence.py`` and
``tests/engine/test_trace.py`` enforce both).

The schedule cache (:mod:`repro.engine.cache`) sits in front: batch
requests look up, store and re-emit the same entries and
``schedule_cache.hits``/``misses`` counters a one-at-a-time run would.
Deduplicated duplicate requests behave like cache hits (replayed, not
re-simulated, hence not re-observed by schedule observers).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from heapq import heapify, heappop, heappush
from typing import Sequence

import numpy as np

from repro.engine.scheduler import (
    _PIPES,
    _SCHEDULE_OBSERVERS,
    PipelineScheduler,
    ScheduleDivergence,
    ScheduleRecord,
    ScheduleResult,
    _dataflow_of,
    _timings_for,
    counter_payload,
)
from repro.machine.isa import Instruction, InstructionStream
from repro.machine.microarch import Microarch
from repro.perf.counters import emit, is_profiling

__all__ = ["schedule_batch", "clear_tables"]

_INF = float("inf")
_N_PIPES = len(_PIPES)
_PIPE_INDEX = {p: i for i, p in enumerate(_PIPES)}


class _StreamTables:
    """Precompiled int-indexed tables for one (march, loop body).

    ``lat``/``rtp`` are per-body-position effective latency and
    reciprocal throughput (overrides resolved).  Positions are grouped
    into *pipe-candidate classes*: ``cls_of[pos]`` names the class and
    ``class_pipes[c]`` is the candidate pipe-id tuple, in the canonical
    ``_canon_pipes`` order pipe selection walks — so tie-breaking
    between equally-free pipes is reproducible on any hash seed and
    across process boundaries (shard workers rebuild the
    same tables from pickled requests).  ``deps``/``consumers`` come
    from the memoized static dataflow.
    """

    __slots__ = ("lat", "rtp", "cls_of", "class_pipes", "deps", "consumers")

    def __init__(self, march: Microarch,
                 body: tuple[Instruction, ...]) -> None:
        timings = _timings_for(march, body)
        self.deps, self.consumers = _dataflow_of(body)
        self.lat = [t[0] for t in timings]
        self.rtp = [t[1] for t in timings]
        class_ids: dict[tuple[int, ...], int] = {}
        cls_of: list[int] = []
        class_pipes: list[tuple[int, ...]] = []
        for _lat, _rtp, pipes in timings:
            key = tuple(_PIPE_INDEX[p] for p in pipes)
            c = class_ids.get(key)
            if c is None:
                c = len(class_pipes)
                class_ids[key] = c
                class_pipes.append(key)
            cls_of.append(c)
        self.cls_of = cls_of
        self.class_pipes = tuple(class_pipes)


#: LRU of precompiled tables, keyed by content: (core key, stream
#: fingerprint), so every core with equal timings shares one table set
_TABLES: OrderedDict[tuple[str, str], _StreamTables] = OrderedDict()
_TABLES_CAP = 512
_TABLES_LOCK = threading.Lock()


def _tables_for(march: Microarch,
                stream: InstructionStream) -> _StreamTables:
    """Fetch (or build) the precompiled tables for (march, stream)."""
    from repro.engine.cache import stream_fingerprint

    key = (march.core_key, stream_fingerprint(stream))
    with _TABLES_LOCK:
        hit = _TABLES.get(key)
        if hit is not None:
            _TABLES.move_to_end(key)
            return hit
    tables = _StreamTables(march, tuple(stream.body))
    with _TABLES_LOCK:
        _TABLES[key] = tables
        _TABLES.move_to_end(key)
        while len(_TABLES) > _TABLES_CAP:
            _TABLES.popitem(last=False)
    return tables


def clear_tables() -> None:
    """Drop the precompiled batch tables (cold-path measurements).

    Pure cache: clearing changes nothing but the time the next batch
    takes to rebuild its tables.  Together with
    :func:`repro.engine.scheduler.clear_memos` it returns the engine to
    a cold start.
    """
    with _TABLES_LOCK:
        _TABLES.clear()


# ----------------------------------------------------------------------
def _state_key(cycle, retire, rob_limit, n_body, issued, completion,
               pending, ready_acc, pipe_free):
    """Hashable relative state of the in-flight window.

    Two simulation moments with equal keys evolve identically (up to a
    uniform shift of all times and dynamic indices): the key holds the
    retire offset within the body, the window extent, every pipe
    backlog relative to ``cycle``, and per in-flight instruction its
    issued flag plus completion/ready time relative to ``cycle``.  Past
    times (<= cycle) are collapsed — they no longer influence issue
    decisions — except pipe backlogs, where pipe selection breaks ties
    by comparing raw values: those are encoded by rank so the relative
    order (all that matters) must recur.
    """
    parts: list = [retire % n_body, rob_limit - retire]
    past: list[float] = []
    for pf in pipe_free:
        if pf <= cycle:
            past.append(pf)
    rank = {v: -1.0 - i for i, v in enumerate(sorted(set(past)))}
    for pf in pipe_free:
        parts.append(pf - cycle if pf > cycle else rank[pf])
    for d in range(retire, rob_limit):
        if issued[d]:
            c = completion[d]
            parts.append((1, c - cycle if c > cycle else 0.0))
        else:
            r = ready_acc[d]
            parts.append((0, pending[d], r - cycle if r > cycle else 0.0))
    return tuple(parts)


def _fast_forward(prior, k_iter, cycle, n_body, total, window, retire,
                  rob_limit, issued, completion, pending, ready_acc,
                  pipe_free, pipe_busy, pipe_touch, iter_last_issue,
                  waiting, heaps):
    """Skip whole steady-state periods by shifting the in-flight state.

    ``prior`` is an earlier snapshot with an identical relative state
    key; the schedule between the two is one period (``p`` iterations,
    ``D`` cycles).  The largest number of whole periods that keeps the
    tail clear of end-of-stream window clamping is skipped; the tail is
    then resimulated exactly, so end effects and the measured iteration
    endpoints stay bit-faithful.  The per-class ready heaps are shifted
    in place (a uniform +S shift preserves the heap property).  Returns
    the new ``(retire, entered, cycle, skipped_instructions)`` or None
    when no skip is admissible yet.
    """
    j_iter, c_j, busy_j = prior
    p = k_iter - j_iter
    D = cycle - c_j
    if p <= 0 or D <= 0.0:
        return None
    r0 = retire % n_body
    # last iteration the retire pointer may reach with the window still
    # fully inside the stream (no ROB end-clamping during or right after
    # the skipped span)
    limit_iter = (total - window - r0) // n_body - 1
    q = (limit_iter - k_iter) // p
    if q <= 0:
        return None
    m = q * p
    S = m * n_body
    T = q * D
    lo, hi = retire, rob_limit
    # shift the in-flight slice up by S dynamic instructions and T
    # cycles; times already in the past stay as-is (they only feed max()
    # accumulations and <=-cycle comparisons downstream)
    for d in range(hi - 1, lo - 1, -1):
        nd = d + S
        issued[nd] = issued[d]
        c = completion[d]
        completion[nd] = c + T if c > cycle else c
        pending[nd] = pending[d]
        r = ready_acc[d]
        ready_acc[nd] = r + T if r > cycle else r
    # the skipped span retires wholesale: issued, completed in the past
    for d in range(lo, lo + S):
        issued[d] = 1
        completion[d] = 0.0
    waiting[:] = [(r + T if r > cycle else r, d + S) for r, d in waiting]
    heapify(waiting)
    for h in heaps:
        if h:
            h[:] = [d + S for d in h]
    # pipes touched within the matched period keep shifting their
    # backlog; untouched pipes hold absolute (past) values
    for i in range(_N_PIPES):
        if pipe_touch[i] >= c_j:
            pipe_free[i] += T
            pipe_touch[i] += T
        pipe_busy[i] += q * (pipe_busy[i] - busy_j[i])
    hi_it = (hi - 1) // n_body
    for it in range(hi_it, k_iter - 1, -1):
        v = iter_last_issue[it]
        iter_last_issue[it + m] = v + T if v > 0.0 else 0.0
    return retire + S, hi + S, cycle + T, S


class _Lane:
    """One (march, stream, window) point being simulated.

    Carries the full in-flight simulation state, with pipes as integers
    (position in ``scheduler._PIPES``) and the ready set partitioned by
    pipe-candidate class.  :meth:`run` simulates it to completion.  With
    ``record`` set the lane logs every issue as ``(dynamic_index,
    cycle, pipe)`` in :attr:`events` and never fast-forwards.
    """

    __slots__ = (
        "march", "stream", "window", "tables", "n_body", "total",
        "n_iters", "warmup", "issue_width", "completion", "issued",
        "pending", "ready_acc", "pipe_free", "pipe_busy", "pipe_touch",
        "iter_last_issue", "waiting", "heaps", "retire", "entered",
        "cycle", "remaining", "detect", "snapshots", "last_snap_iter",
        "events",
    )

    def __init__(self, march: Microarch, stream: InstructionStream,
                 window: int, tables: _StreamTables, record: bool,
                 n_iters: int) -> None:
        self.march = march
        self.stream = stream
        self.window = window
        self.tables = tables
        n_body = len(stream)
        total = n_body * n_iters
        self.n_body = n_body
        self.total = total
        self.n_iters = n_iters
        self.warmup = PipelineScheduler.WARMUP_ITERS
        self.issue_width = march.issue_width
        self.completion = [_INF] * total
        self.issued = bytearray(total)
        self.pending = [0] * total
        self.ready_acc = [0.0] * total
        self.pipe_free = [0.0] * _N_PIPES
        self.pipe_busy = [0.0] * _N_PIPES
        self.pipe_touch = [-_INF] * _N_PIPES
        self.iter_last_issue = [0.0] * n_iters
        self.waiting: list[tuple[float, int]] = []
        self.heaps: list[list[int]] = [[] for _ in tables.class_pipes]
        self.retire = 0
        self.entered = 0
        self.cycle = 0.0
        self.remaining = total
        # recording (for schedule observers) disables period detection so
        # every issue event is captured — identical results, more work
        self.events: list | None = [] if record else None
        self.detect = (not record) and n_iters > self.warmup
        self.snapshots: dict = {}
        self.last_snap_iter = 0

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Simulate until every instruction has retired.

        Each pass of the cycle loop is one simulated cycle: retire
        scan, window admission, period detection/fast-forward,
        waiting→ready promotion, then the greedy issue loop over
        pipe-candidate classes (a class with no pipe free this cycle is
        excluded wholesale; pipes only get busier within a cycle, so its
        members could never issue anyway).  A pass that issues nothing
        jumps to the stall horizon.
        """
        tables = self.tables
        deps = tables.deps
        consumers = tables.consumers
        lats = tables.lat
        rtps = tables.rtp
        cls_of = tables.cls_of
        class_pipes = tables.class_pipes
        n_cls = len(class_pipes)
        n_body = self.n_body
        total = self.total
        window = self.window
        issue_width = self.issue_width
        completion = self.completion
        issued = self.issued
        pending = self.pending
        ready_acc = self.ready_acc
        pipe_free = self.pipe_free
        pipe_busy = self.pipe_busy
        pipe_touch = self.pipe_touch
        iter_last_issue = self.iter_last_issue
        waiting = self.waiting
        heaps = self.heaps
        retire = self.retire
        entered = self.entered
        cycle = self.cycle
        remaining = self.remaining
        detect = self.detect
        snapshots = self.snapshots
        last_snap_iter = self.last_snap_iter
        events = self.events
        warmup = self.warmup
        max_cycles = PipelineScheduler.MAX_CYCLES

        while remaining and cycle < max_cycles:
            while (retire < total and issued[retire]
                   and completion[retire] <= cycle):
                retire += 1
            rob_limit = retire + window
            if rob_limit > total:
                rob_limit = total

            # admit newly visible instructions into the window
            while entered < rob_limit:
                d = entered
                it, pos = divmod(d, n_body)
                pend = 0
                racc = 0.0
                for ppos, delta in deps[pos]:
                    sit = it - delta
                    if sit < 0:
                        continue
                    s = sit * n_body + ppos
                    if issued[s]:
                        c = completion[s]
                        if c > racc:
                            racc = c
                    else:
                        pend += 1
                pending[d] = pend
                ready_acc[d] = racc
                if pend == 0:
                    if racc <= cycle:
                        heappush(heaps[cls_of[pos]], d)
                    else:
                        heappush(waiting, (racc, d))
                entered += 1

            if detect:
                retire_iter = retire // n_body
                if retire_iter > last_snap_iter:
                    last_snap_iter = retire_iter
                    key = _state_key(
                        cycle, retire, rob_limit, n_body, issued,
                        completion, pending, ready_acc, pipe_free,
                    )
                    prior = snapshots.get(key)
                    if prior is None:
                        snapshots[key] = (retire_iter, cycle, pipe_busy[:])
                    elif retire_iter >= warmup:
                        skipped = _fast_forward(
                            prior, retire_iter, cycle, n_body, total,
                            window, retire, rob_limit, issued, completion,
                            pending, ready_acc, pipe_free, pipe_busy,
                            pipe_touch, iter_last_issue, waiting, heaps,
                        )
                        if skipped is not None:
                            retire, entered, cycle, dS = skipped
                            remaining -= dS
                            detect = False
                            continue

            # promote instructions whose ready time has arrived
            while waiting and waiting[0][0] <= cycle:
                d = heappop(waiting)[1]
                heappush(heaps[cls_of[d % n_body]], d)

            # classify non-empty classes: can anything of this class
            # issue this cycle?  (pre-filter only — the authoritative
            # check runs with current pipe state at selection time)
            limit = cycle + 1.0
            free_cls: list[int] = []
            blocked_cls: list[int] = []
            for c in range(n_cls):
                if heaps[c]:
                    for p in class_pipes[c]:
                        if pipe_free[p] < limit:
                            free_cls.append(c)
                            break
                    else:
                        blocked_cls.append(c)

            issued_now = 0
            progressed = False
            while free_cls and issued_now < issue_width:
                # oldest ready instruction among non-blocked classes
                best_c = free_cls[0]
                best_d = heaps[best_c][0]
                for c in free_cls[1:]:
                    hd = heaps[c][0]
                    if hd < best_d:
                        best_d = hd
                        best_c = c
                # smallest-backlog free pipe; first in canonical order
                # wins ties
                best_p = -1
                best_f = limit
                for p in class_pipes[best_c]:
                    f = pipe_free[p]
                    if f < best_f:
                        best_f = f
                        best_p = p
                if best_p < 0:
                    free_cls.remove(best_c)
                    blocked_cls.append(best_c)
                    continue
                h = heaps[best_c]
                heappop(h)
                if not h:
                    free_cls.remove(best_c)
                d = best_d
                it, pos = divmod(d, n_body)
                issued[d] = 1
                comp = cycle + lats[pos]
                completion[d] = comp
                rtp = rtps[pos]
                pf = pipe_free[best_p]
                pipe_free[best_p] = (pf if pf > cycle else cycle) + rtp
                pipe_busy[best_p] += rtp
                pipe_touch[best_p] = cycle
                issued_now += 1
                remaining -= 1
                if cycle > iter_last_issue[it]:
                    iter_last_issue[it] = cycle
                progressed = True
                if events is not None:
                    events.append((d, cycle, _PIPES[best_p]))
                # wake consumers: pending drops, ready time accumulates
                for jpos, delta in consumers[pos]:
                    cons = (it + delta) * n_body + jpos
                    if cons >= entered or issued[cons]:
                        continue
                    if comp > ready_acc[cons]:
                        ready_acc[cons] = comp
                    pending[cons] -= 1
                    if pending[cons] == 0:
                        r = ready_acc[cons]
                        if r <= cycle:
                            cc = cls_of[jpos]
                            heappush(heaps[cc], cons)
                            if cc not in free_cls and cc not in blocked_cls:
                                for p in class_pipes[cc]:
                                    if pipe_free[p] < limit:
                                        free_cls.append(cc)
                                        break
                                else:
                                    blocked_cls.append(cc)
                        else:
                            heappush(waiting, (r, cons))

            if progressed:
                cycle += 1.0
            else:
                # stall horizon: next cycle anything can change — a
                # stalled in-window instruction becoming issueable
                # (sources done AND a pipe freeing within the cycle), or
                # the ROB head retiring (widening the window).
                # Instructions still waiting on un-issued producers are
                # in no heap and contribute nothing.
                pts = [0.0] * n_cls
                for c in range(n_cls):
                    mn = _INF
                    for p in class_pipes[c]:
                        f = pipe_free[p]
                        if f < mn:
                            mn = f
                    pts[c] = mn - 1.0
                horizon = _INF
                for c in range(n_cls):
                    pt = pts[c]
                    for d in heaps[c]:
                        r = ready_acc[d]
                        t = pt if pt > r else r
                        if t < horizon:
                            horizon = t
                for r, d in waiting:
                    pt = pts[cls_of[d % n_body]]
                    t = pt if pt > r else r
                    if t < horizon:
                        horizon = t
                if retire < rob_limit and issued[retire]:
                    c = completion[retire]
                    if c < horizon:
                        horizon = c
                floor = cycle + 1.0
                if horizon == _INF:
                    horizon = floor
                cycle = horizon if horizon > floor else floor

        self.retire = retire
        self.entered = entered
        self.cycle = cycle
        self.remaining = remaining
        self.detect = detect
        self.last_snap_iter = last_snap_iter
        if remaining and cycle >= max_cycles:
            stuck = retire
            while stuck < total and issued[stuck]:
                stuck += 1
            raise ScheduleDivergence(self.stream, window, stuck, n_body)


# ----------------------------------------------------------------------
def _finalize(lanes: list[_Lane]) -> list[tuple[ScheduleResult, dict]]:
    """Vectorized steady-state statistics for all retired lanes.

    One numpy pass computes every lane's cycles/iter (the span between
    the last issues of the final warm-up and the final measured
    iteration, floored by the front-end bound), makespan and pipe
    occupancy.  Occupancy is measured against the true makespan
    (warm-up included), so it stays in [0, 1] even when warm-up is
    slower than steady state on tiny bodies.  The arithmetic is
    element-wise float64, so a lane's statistics do not depend on which
    other lanes share its batch.
    """
    if not lanes:
        return []
    n_iters = lanes[0].n_iters
    first = lanes[0].warmup
    last = n_iters - 1
    cycle_arr = np.array([ln.cycle for ln in lanes], dtype=np.float64)
    nbody = np.array([ln.n_body for ln in lanes], dtype=np.float64)
    width = np.array([ln.issue_width for ln in lanes], dtype=np.float64)
    busy = np.array([ln.pipe_busy for ln in lanes], dtype=np.float64)
    ili = np.array([ln.iter_last_issue for ln in lanes], dtype=np.float64)
    span = ili[:, last] - ili[:, first - 1]
    cpi = span / float(last - first + 1)
    cpi = np.maximum(cpi, nbody / width)  # front-end bound
    makespan = np.maximum(cycle_arr, 1.0)
    occ = np.minimum(1.0, busy / makespan[:, None])
    out: list[tuple[ScheduleResult, dict]] = []
    for i, lane in enumerate(lanes):
        cpi_i = float(cpi[i])
        mk = float(makespan[i])
        nb = lane.n_body
        occupancy = {p: float(occ[i, j]) for j, p in enumerate(_PIPES)}
        bound = PipelineScheduler._classify_bound(cpi_i, nb, occupancy)
        result = ScheduleResult(
            cycles_per_iter=cpi_i,
            elements_per_iter=lane.stream.elements_per_iter,
            instructions_per_iter=nb,
            ipc=nb / cpi_i if cpi_i else _INF,
            pipe_occupancy=occupancy,
            bound=bound,
            label=lane.stream.label,
        )
        busy_map = {p: float(busy[i, j]) for j, p in enumerate(_PIPES)}
        payload = counter_payload(
            lane.march, lane.stream, n_iters, nb * n_iters, mk, cpi_i,
            busy_map,
        )
        out.append((result, payload))
    return out


# ----------------------------------------------------------------------
class _BatchPlan:
    """Prepared batch: normalized requests, dedup map, cache prefetch.

    Produced by :func:`_plan_batch` and consumed by
    :func:`_complete_batch`; the jobs in between can be simulated
    in-process (:func:`_simulate_jobs`) or sharded across a process
    pool (:mod:`repro.engine.shard`) — the plan and completion phases
    run in the caller either way, so cache statistics and counter
    emissions are sequenced identically.
    """

    __slots__ = ("marches", "streams", "windows", "keys", "first_seen",
                 "entries", "job_keys", "cache_obj", "record", "n_iters")


def _plan_batch(requests: Sequence[tuple], cache: bool) -> _BatchPlan:
    """Validate, fingerprint, deduplicate and cache-prefetch *requests*."""
    from repro.engine.cache import (
        enabled,
        get_cache,
        march_fingerprint,
        stream_fingerprint,
    )

    plan = _BatchPlan()
    marches: list[Microarch] = []
    streams: list[InstructionStream] = []
    windows: list[int] = []
    # callers hand the same stream object in once per window, so each
    # distinct object is validated once; ids are stable for the call
    validated: set[int] = set()
    for req in requests:
        march, stream, *rest = req
        window = rest[0] if rest and rest[0] is not None else march.window
        if window < 1:
            raise ValueError("window must be >= 1")
        if len(stream) == 0:
            raise ValueError("cannot schedule an empty instruction stream")
        if id(stream) not in validated:
            stream.validate()
            validated.add(id(stream))
        marches.append(march)
        streams.append(stream)
        windows.append(window)

    keys = [(march_fingerprint(march, window), stream_fingerprint(stream))
            for march, stream, window in zip(marches, streams, windows)]

    cache_obj = get_cache() if (cache and enabled()) else None
    first_seen: dict[tuple[str, str], int] = {}
    entries: dict = {}
    job_keys: list[tuple[str, str]] = []
    for i, key in enumerate(keys):
        if key in first_seen:
            continue
        first_seen[key] = i
        if cache_obj is not None:
            entry = cache_obj.lookup(key)
            if entry is not None:
                entries[key] = entry
                continue
        job_keys.append(key)

    plan.marches = marches
    plan.streams = streams
    plan.windows = windows
    plan.keys = keys
    plan.first_seen = first_seen
    plan.entries = entries
    plan.job_keys = job_keys
    plan.cache_obj = cache_obj
    plan.record = bool(_SCHEDULE_OBSERVERS)
    plan.n_iters = (PipelineScheduler.WARMUP_ITERS
                    + PipelineScheduler.MEASURE_ITERS)
    return plan


def _plan_jobs(
    plan: _BatchPlan,
) -> list[tuple[Microarch, InstructionStream, int]]:
    """The unique (march, stream, window) points the plan must simulate."""
    out = []
    for key in plan.job_keys:
        i = plan.first_seen[key]
        out.append((plan.marches[i], plan.streams[i], plan.windows[i]))
    return out


def _simulate_jobs(
    jobs: list[tuple[Microarch, InstructionStream, int]],
    record: bool,
    n_iters: int,
) -> list[tuple[ScheduleResult, dict, tuple | None]]:
    """Simulate unique jobs as one lane set; (result, payload, events).

    This is the only phase shard workers execute remotely; it touches
    no process-global state beyond the pure table memos, so running
    job subsets in separate processes composes to the same output.
    """
    lanes = [
        _Lane(march, stream, window, _tables_for(march, stream), record,
              n_iters)
        for march, stream, window in jobs
    ]
    for lane in lanes:
        lane.run()
    return [
        (result, payload,
         tuple(lane.events) if lane.events is not None else None)
        for lane, (result, payload) in zip(lanes, _finalize(lanes))
    ]


def _complete_batch(
    plan: _BatchPlan,
    sim_out: list[tuple[ScheduleResult, dict, tuple | None]],
) -> list[ScheduleResult]:
    """Store, observe and emit — in request submission order."""
    from repro.engine.cache import _Entry

    cache_obj = plan.cache_obj
    streams = plan.streams
    simulated: dict[tuple[str, str], tuple[ScheduleResult, dict]] = {}
    for key, (result, payload, _events) in zip(plan.job_keys, sim_out):
        simulated[key] = (result, payload)
        if cache_obj is not None:
            entry = _Entry(result=replace(result, label=""),
                           counters=payload)
            cache_obj.store(key, entry)
            plan.entries[key] = entry
    if plan.record:
        observers = tuple(_SCHEDULE_OBSERVERS)
        for key, (result, _payload, events) in zip(plan.job_keys, sim_out):
            i = plan.first_seen[key]
            rec = ScheduleRecord(
                march=plan.marches[i], window=plan.windows[i],
                stream=streams[i], n_iters=plan.n_iters,
                issues=events, result=result,
            )
            for observer in observers:
                observer(rec)

    profiling = is_profiling()
    results: list[ScheduleResult] = []
    for i, key in enumerate(plan.keys):
        if cache_obj is not None:
            if i == plan.first_seen[key]:
                entry = plan.entries[key]
                fresh = key in simulated
            else:
                # duplicates hit the cache like a sequential run would,
                # so hit statistics stay identical
                entry = cache_obj.lookup(key) or plan.entries[key]
                fresh = False
            if profiling:
                emit("schedule_cache.misses" if fresh
                     else "schedule_cache.hits", 1.0)
                for name, value in entry.counters.items():
                    emit(name, value)
            results.append(replace(entry.result, label=streams[i].label))
        else:
            result, payload = simulated[key]
            if profiling:
                for name, value in payload.items():
                    emit(name, value)
            results.append(replace(result, label=streams[i].label))
    return results


def schedule_batch(
    requests: Sequence[tuple],
    *,
    cache: bool = True,
) -> list[ScheduleResult]:
    """Schedule many ``(march, stream[, window])`` points as one batch.

    Returns one :class:`~repro.engine.scheduler.ScheduleResult` per
    request, in request order — each what
    ``schedule_on(march, stream, window, cache=cache)`` returns (that
    call is a batch of one), including the ``pipeline.*`` counter payload and
    ``schedule_cache.hits``/``misses`` emissions under an active
    :class:`~repro.perf.counters.ProfileScope` and the hit/miss
    statistics of the process-wide schedule cache.

    Content-identical requests are deduplicated: the point simulates
    once and duplicates replay the stored outcome (relabeled per
    request), exactly like cache hits — and, like cache hits, replays
    are not re-observed by schedule observers.

    :func:`repro.engine.shard.schedule_batch_sharded` runs the same
    plan with the simulation phase fanned out over a process pool.
    """
    if not requests:
        return []
    plan = _plan_batch(requests, cache)
    sim_out = _simulate_jobs(_plan_jobs(plan), plan.record, plan.n_iters)
    return _complete_batch(plan, sim_out)
