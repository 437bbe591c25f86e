"""Sharded batch scheduling: the SoA batch across a process pool.

This is the one parallel path in the reproduction.
:func:`repro.engine.batch.schedule_batch` deduplicates a sweep's
requests into unique lanes but still simulates them on one core.
:func:`schedule_batch_sharded` runs the *same* plan with the simulation
phase split into contiguous per-worker shards on a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* the **plan** phase (validation, content fingerprints, dedup, schedule
  -cache prefetch) runs in the caller;
* each worker simulates its shard of unique lanes with the identical
  ``_Lane`` program — per-lane results are independent, and the
  vectorized finalization is element-wise, so a per-shard finalize
  equals the whole-batch finalize float for float;
* the **completion** phase (cache stores, observer dispatch, counter
  and ``schedule_cache.*`` emissions) runs back in the caller in
  request submission order.

Because every stateful step happens in the caller in the same sequence
as the serial batch, the results, counter totals and cache statistics
are **bit-identical** to :func:`~repro.engine.batch.schedule_batch`
(``tests/engine/test_shard.py`` and the grid fuzz lane enforce it).

Profitability routing: forking a pool and rebuilding per-worker tables
costs tens of milliseconds, so tiny batches or starved pools are a net
loss — ``schedule_batch_sharded`` therefore routes through
:func:`plan_shards` and runs the serial batch path when the effective
worker count or the unique-lane count falls below the
:data:`SHARD_MIN_JOBS`/:data:`SHARD_MIN_JOBS_PER_WORKER` thresholds
(``max_workers=None`` additionally caps workers at the CPU count — a
1-core "pool" can only lose).  The decision every call actually took is
reported by :func:`last_shard_plan`.

Where the pool cannot be created, or breaks mid-batch (a worker
killed), a :class:`PoolDowngradeWarning` is emitted and the planned
jobs simulate in-process instead; the plan is untouched at that point,
so the results are the same and :func:`last_shard_plan` reports
``"serial"``.  A divergent lane raises the same
:class:`~repro.engine.scheduler.ScheduleDivergence` as an in-process
batch (the exception pickles by field across the pool boundary).
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Sequence

from repro.engine.batch import (
    _complete_batch,
    _plan_batch,
    _plan_jobs,
    _simulate_jobs,
)
from repro.engine.scheduler import ScheduleResult

__all__ = [
    "PoolDowngradeWarning",
    "SHARD_MIN_JOBS",
    "SHARD_MIN_JOBS_PER_WORKER",
    "last_shard_plan",
    "plan_shards",
    "schedule_batch_sharded",
]


class PoolDowngradeWarning(RuntimeWarning):
    """The process pool was unusable; the batch simulated in-process.

    Emitted by :func:`schedule_batch_sharded` when the
    :class:`~concurrent.futures.ProcessPoolExecutor` cannot be created
    (sandboxes without fork/spawn) or breaks mid-batch.  Results are
    identical either way — only the parallel speedup is lost — and
    :func:`last_shard_plan` reports ``"serial"``.
    """


#: below this many unique lanes the batch always runs serially — the
#: pool spin-up alone outweighs simulating a handful of lanes
SHARD_MIN_JOBS = 4

#: in auto mode (``max_workers=None``) workers are capped so each shard
#: carries at least this many unique lanes; an explicit ``max_workers``
#: is an opt-in and bypasses this cap (tests and benchmarks rely on
#: forcing a pool on any machine)
SHARD_MIN_JOBS_PER_WORKER = 8

_LAST_PLAN = threading.local()


def last_shard_plan() -> dict | None:
    """Routing decision of the calling thread's last sharded batch.

    A dict with ``routing`` (``"serial"`` or ``"sharded"``),
    ``workers`` (effective worker count) and ``jobs`` (unique-lane
    count after deduplication); ``None`` before any sharded batch ran
    """
    return getattr(_LAST_PLAN, "value", None)


def _set_shard_plan(routing: str, workers: int, jobs: int) -> None:
    _LAST_PLAN.value = {"routing": routing, "workers": workers,
                        "jobs": jobs}


def plan_shards(n_jobs: int, max_workers: int | None = None) -> tuple[str, int]:
    """Profitability routing for a prospective sharded batch.

    Returns ``(routing, workers)`` where ``routing`` is ``"serial"`` or
    ``"sharded"`` and ``workers`` is the effective worker count the
    sharded path would use.  The serial route is chosen when fewer than
    :data:`SHARD_MIN_JOBS` unique lanes are pending or the effective
    worker count collapses to one; with ``max_workers=None`` the worker
    count is additionally capped by the CPU count and by
    :data:`SHARD_MIN_JOBS_PER_WORKER` lanes per shard, so small pools
    (and 1-core machines) fall back to the serial batch instead of
    paying pool overhead for no parallelism.
    """
    if n_jobs < 1:
        return "serial", 1
    if max_workers is None:
        cores = os.cpu_count() or 1
        workers = min(cores, max(1, n_jobs // SHARD_MIN_JOBS_PER_WORKER))
    else:
        workers = max(1, max_workers)
    workers = min(workers, n_jobs)
    if workers < 2 or n_jobs < SHARD_MIN_JOBS:
        return "serial", 1
    return "sharded", workers


def _simulate_shard(payload: tuple) -> list:
    """Worker entry point: simulate one shard of unique lanes.

    Top-level (picklable) and free of process-global side effects —
    the schedule cache, observers and counters are only touched by the
    parent's completion phase.
    """
    jobs, record, n_iters = payload
    return _simulate_jobs(jobs, record, n_iters)


def _process_pool(workers: int):
    """The worker pool (imported lazily: most processes never fork)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def schedule_batch_sharded(
    requests: Sequence[tuple],
    *,
    cache: bool = True,
    max_workers: int | None = None,
) -> list[ScheduleResult]:
    """:func:`~repro.engine.batch.schedule_batch`, simulation sharded.

    Identical request grammar, identical results, counters and cache
    statistics — only the wall time of the unique-lane simulation
    changes.  Routing is decided by :func:`plan_shards`:
    ``max_workers=None`` uses the CPU count capped to
    :data:`SHARD_MIN_JOBS_PER_WORKER` lanes per shard, an explicit
    ``max_workers`` forces that many workers (still bounded by the
    unique-lane count); batches below the profitability thresholds run
    the serial batch path in-process, and so does a batch whose pool
    cannot be created or breaks (with a :class:`PoolDowngradeWarning`).
    :func:`last_shard_plan` reports the decision taken.
    """
    if not requests:
        return []
    plan = _plan_batch(requests, cache)
    jobs = _plan_jobs(plan)
    routing, workers = plan_shards(len(jobs), max_workers)
    if routing == "sharded":
        from concurrent.futures.process import BrokenProcessPool

        size = (len(jobs) + workers - 1) // workers
        shards = [jobs[s:s + size] for s in range(0, len(jobs), size)]
        try:
            with _process_pool(workers) as pool:
                futures = [
                    pool.submit(_simulate_shard,
                                (shard, plan.record, plan.n_iters))
                    for shard in shards
                ]
                sim_out = [item for fut in futures for item in fut.result()]
        except (OSError, BrokenProcessPool) as exc:
            warnings.warn(
                f"process pool unusable ({exc!r}); "
                "simulating the batch in-process",
                PoolDowngradeWarning, stacklevel=2,
            )
        else:
            _set_shard_plan("sharded", workers, len(jobs))
            return _complete_batch(plan, sim_out)
    _set_shard_plan("serial", 1, len(jobs))
    sim_out = _simulate_jobs(jobs, plan.record, plan.n_iters)
    return _complete_batch(plan, sim_out)
