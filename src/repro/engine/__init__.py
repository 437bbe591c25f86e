"""The performance engine: pipeline scheduling, roofline composition,
single-kernel execution, and the OpenMP-like threading model.

* :mod:`repro.engine.scheduler` — the scheduling front end:
  ``PipelineScheduler`` / ``schedule_on`` replay an abstract instruction
  stream against a :class:`~repro.machine.microarch.Microarch` and
  report steady-state cycles/iteration (the quantity behind every
  "cycles per element" number in the paper).
* :mod:`repro.engine.batch` — the one simulator behind every schedule:
  event-driven lanes with steady-state period extrapolation, stepped as
  a deduplicated structure-of-arrays batch (``schedule_batch``); a
  single point is a batch of one.
* :mod:`repro.engine.trace` — issue traces and pipeline diagrams from a
  recording lane.
* :mod:`repro.engine.cache` — content-addressed schedule cache
  (in-process LRU plus an opt-in on-disk JSON layer) keyed on march and
  stream fingerprints.
* :mod:`repro.engine.sweep` — the batched sweep runner (``run_sweep``).
* :mod:`repro.engine.shard` — the one parallel path: a batch's unique
  lanes simulated across a process pool when the batch is large enough
  to pay for it (``schedule_batch_sharded``).
* :mod:`repro.engine.roofline` — peak/bandwidth ceilings and arithmetic
  intensity helpers.
* :mod:`repro.engine.executor` — combines compute cycles with memory-
  hierarchy time into a kernel runtime on a full :class:`System`.
* :mod:`repro.engine.openmp` — fork/join threading with NUMA placement,
  scheduling overheads and parallel-efficiency accounting (Figs. 4-6).

Every stage is instrumented with the PMU-style counters of
:mod:`repro.perf`: wrap any engine call in a
:class:`repro.perf.counters.ProfileScope` to collect per-pipe occupancy,
stall cycles, per-level memory traffic and compute-vs-memory attribution
(see ``docs/PROFILING.md``).
"""

from repro.engine.scheduler import (
    PipelineScheduler,
    ScheduleDivergence,
    ScheduleResult,
    schedule_on,
)
from repro.engine.batch import schedule_batch
from repro.engine.cache import ScheduleCache
from repro.engine.sweep import SweepPoint, run_sweep
from repro.engine.roofline import Roofline
from repro.engine.executor import KernelExecutor, KernelRun
from repro.engine.openmp import OpenMPModel, ParallelRun, RuntimeTraits

__all__ = [
    "PipelineScheduler",
    "ScheduleDivergence",
    "ScheduleResult",
    "schedule_on",
    "schedule_batch",
    "ScheduleCache",
    "SweepPoint",
    "run_sweep",
    "Roofline",
    "KernelExecutor",
    "KernelRun",
    "OpenMPModel",
    "ParallelRun",
    "RuntimeTraits",
]
