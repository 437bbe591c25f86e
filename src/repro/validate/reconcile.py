"""Pass 3 — counter reconciliation over :mod:`repro.perf.counters` output.

The PMU-style counters are emitted independently by the scheduler, the
memory hierarchy, the exact cache simulator, the executor and the OpenMP
model — so their published identities cross-check one subsystem against
another:

* ``pipeline.issue_slots.total == used + stalled`` and
  ``used == pipeline.instructions`` (front-end slot accounting);
* the dynamic instruction mix sums to the instruction count, and each
  per-op mix counter matches an independent recount of the compiled
  stream (flop consistency between the analytic path and the counters);
* ``cachesim.accesses == hits + misses`` and ``evictions <= misses``
  (exact cache-simulator bookkeeping);
* per-level traffic forms a chain — misses leaving one cache level are
  exactly the accesses entering the next, ending at ``dram.hits``;
* ``exec.seconds + exec.hidden_seconds == exec.compute_seconds +
  exec.memory_seconds`` (the max/min roofline split, summed over runs);
* parallel sweeps merge per-task counters to exactly the serial totals
  (the OpenMP-model analog of per-thread sums equalling merged totals).

:func:`check_counters` applies every identity that is decidable on a
bare :class:`~repro.perf.counters.CounterSet` (this is what strict mode
runs on each scope exit); :func:`check_profile` adds the checks that
need the profile's system and toolchain context.

This module also hosts the **ECM reconciliation pass**:
:func:`check_ecm` compares the analytical ECM tier
(:mod:`repro.ecm.model`) against the fast engine for one kernel point
and :func:`run_ecm_pass` sweeps every catalogued kernel under every
toolchain, demanding the deviation stay inside the per-kernel bounds of
:data:`repro.ecm.model.ECM_TOLERANCES`.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.machine.isa import Op
from repro.validate.report import PassResult, Violation

__all__ = [
    "check_counters",
    "check_profile",
    "check_sweep_merge",
    "check_ecm",
    "run_counter_pass",
    "run_ecm_pass",
]

#: FP arithmetic ops for the instruction-mix flop consistency check
_FP_OPS = frozenset((
    Op.FADD, Op.FMUL, Op.FMA, Op.FDIV, Op.FSQRT, Op.FRECPE, Op.FRSQRTE,
    Op.FEXPA, Op.FSCALE, Op.FCMP, Op.FSEL, Op.FMINMAX, Op.FCVT, Op.FMOV,
))

#: canonical inner-to-outer level order for chain checks
_LEVEL_ORDER = ("L1", "L2", "L3")


def _close(a: float, b: float) -> bool:
    """Equality with float-sum slack (counters accumulate additively)."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_counters(counters: Mapping[str, float],
                   label: str = "") -> list[Violation]:
    """Identities decidable on a bare counter mapping.

    Each identity is only evaluated when its counters are present, so
    partial scopes (a scope around only the scheduler, say) validate
    cleanly.  All checked identities are linear in the emissions, so
    they hold for any union of complete runs — which is exactly what a
    scope accumulates.
    """
    out: list[Violation] = []
    where = label or getattr(counters, "label", "") or "<counters>"
    get = lambda name: counters.get(name, 0.0)  # noqa: E731

    if "pipeline.issue_slots.total" in counters:
        total = get("pipeline.issue_slots.total")
        used = get("pipeline.issue_slots.used")
        stalled = get("pipeline.issue_slots.stalled")
        if not _close(total, used + stalled):
            out.append(Violation(
                "counters.slots.identity", where,
                f"issue_slots.total {total} != used {used} + stalled "
                f"{stalled}",
            ))
        if "pipeline.instructions" in counters and not _close(
                used, get("pipeline.instructions")):
            out.append(Violation(
                "counters.slots.used", where,
                f"issue_slots.used {used} != pipeline.instructions "
                f"{get('pipeline.instructions')}",
            ))

    mix = [v for k, v in counters.items()
           if k.startswith("pipeline.instr_mix.")]
    if mix and "pipeline.instructions" in counters:
        if not _close(sum(mix), get("pipeline.instructions")):
            out.append(Violation(
                "counters.instr_mix.sum", where,
                f"instruction mix sums to {sum(mix)}, "
                f"pipeline.instructions is {get('pipeline.instructions')}",
            ))

    if "cachesim.accesses" in counters:
        acc = get("cachesim.accesses")
        h, m = get("cachesim.hits"), get("cachesim.misses")
        if not _close(acc, h + m):
            out.append(Violation(
                "counters.cachesim.identity", where,
                f"cachesim.accesses {acc} != hits {h} + misses {m}",
            ))
        if get("cachesim.evictions") > m + 1e-9:
            out.append(Violation(
                "counters.cachesim.evictions", where,
                f"cachesim.evictions {get('cachesim.evictions')} exceeds "
                f"misses {m}",
            ))

    if "exec.seconds" in counters:
        lhs = get("exec.seconds") + get("exec.hidden_seconds")
        rhs = get("exec.compute_seconds") + get("exec.memory_seconds")
        if not _close(lhs, rhs):
            out.append(Violation(
                "counters.exec.split", where,
                f"exec.seconds + hidden ({lhs}) != compute + memory "
                f"({rhs}) — the max/min roofline split is broken",
            ))

    # mixed-system scopes may interleave 2- and 3-level hierarchies, so
    # only the (always valid) containment inequality is checked here;
    # check_profile() enforces the exact chain for a known hierarchy
    present = [n for n in _LEVEL_ORDER
               if f"memory.levels.{n}.hits" in counters
               or f"memory.levels.{n}.misses" in counters]
    for inner, outer in zip(present, present[1:]):
        inner_m = get(f"memory.levels.{inner}.misses")
        outer_acc = (get(f"memory.levels.{outer}.hits")
                     + get(f"memory.levels.{outer}.misses"))
        if outer_acc > inner_m + 1e-9:
            out.append(Violation(
                "counters.levels.containment", where,
                f"{outer} sees {outer_acc} accesses but only {inner_m} "
                f"queries missed {inner}",
            ))
    if present and get("memory.levels.dram.hits") > (
            get(f"memory.levels.{present[0]}.misses") + 1e-9):
        out.append(Violation(
            "counters.levels.containment", where,
            f"dram serves {get('memory.levels.dram.hits')} queries but "
            f"only {get(f'memory.levels.{present[0]}.misses')} missed "
            f"{present[0]}",
        ))
    return out


def check_profile(profile) -> list[Violation]:
    """Full reconciliation of one :class:`~repro.perf.profile.KernelProfile`.

    Adds to :func:`check_counters`: the exact per-level chain for the
    profile's hierarchy, the instruction-mix recount against a fresh
    compile of the same kernel, and the 1%-band agreement of
    ``derived.reconciliation`` with the analytic run.
    """
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import get_toolchain
    from repro.kernels.catalog import build_kernel
    from repro.machine.systems import get_system

    c = profile.counters
    where = f"profile:{profile.kernel}/{profile.toolchain}"
    out = check_counters(c, label=where)
    get = lambda name: c.get(name, 0.0)  # noqa: E731

    # exact level chain for this hierarchy: misses leaving level k are
    # the accesses entering level k+1; the last level drains into DRAM
    system = get_system(profile.system)
    names = [lvl.name for lvl in system.hierarchy.levels]
    for inner, outer in zip(names, names[1:]):
        inner_m = get(f"memory.levels.{inner}.misses")
        outer_acc = (get(f"memory.levels.{outer}.hits")
                     + get(f"memory.levels.{outer}.misses"))
        if not _close(inner_m, outer_acc):
            out.append(Violation(
                "counters.levels.chain", where,
                f"{inner}.misses {inner_m} != {outer} accesses "
                f"{outer_acc}",
            ))
    if not _close(get(f"memory.levels.{names[-1]}.misses"),
                  get("memory.levels.dram.hits")):
        out.append(Violation(
            "counters.levels.chain", where,
            f"{names[-1]}.misses {get(f'memory.levels.{names[-1]}.misses')}"
            f" != dram.hits {get('memory.levels.dram.hits')}",
        ))

    # instruction-mix recount: an independent compile of the same kernel
    # must predict every pipeline.instr_mix.* counter exactly
    compiled = compile_loop(
        build_kernel(profile.kernel),
        get_toolchain(profile.toolchain),
        system.cpu,
    )
    iters = get("pipeline.iterations")
    fp_expected = 0.0
    for op, count in compiled.stream.counts().items():
        expect = count * iters
        got = get(f"pipeline.instr_mix.{op.value}")
        if not _close(got, expect):
            out.append(Violation(
                "counters.instr_mix.recount", where,
                f"instr_mix.{op.value} is {got}, an independent recount "
                f"of the stream says {expect}",
            ))
        if op in _FP_OPS:
            fp_expected += expect
    fp_got = sum(v for k, v in c.items()
                 if k.startswith("pipeline.instr_mix.")
                 and Op(k.rsplit(".", 1)[1]) in _FP_OPS)
    if not _close(fp_got, fp_expected):
        out.append(Violation(
            "counters.flops.consistency", where,
            f"FP instruction counters sum to {fp_got}, the stream's "
            f"fp_ops x iterations is {fp_expected}",
        ))

    rec = profile.derived()["reconciliation"]
    if not math.isclose(rec["seconds_from_counters"], profile.run.seconds,
                        rel_tol=0.01):
        out.append(Violation(
            "counters.reconcile.seconds", where,
            f"seconds recomputed from counters "
            f"({rec['seconds_from_counters']}) is more than 1% away from "
            f"the model's {profile.run.seconds}",
        ))
    return out


def check_sweep_merge(points: int = 6) -> list[Violation]:
    """Sharded batch totals must equal the in-process batch exactly.

    Runs the same schedule batch twice under a profiling scope — once
    with :func:`repro.engine.batch.schedule_batch`, once sharded over a
    two-worker process pool
    (:func:`repro.engine.shard.schedule_batch_sharded`, whose workers
    return counter payloads that the caller emits in submission order)
    — and demands identical results and counter sets.  This is the
    model's version of "OpenMP per-thread sums equal merged totals".
    """
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.engine.batch import schedule_batch
    from repro.engine.shard import schedule_batch_sharded
    from repro.kernels.loops import LOOP_NAMES, build_loop
    from repro.machine.microarch import A64FX
    from repro.perf.counters import ProfileScope

    names = (LOOP_NAMES * 2)[:points]
    requests = [
        (A64FX, compile_loop(build_loop(n), TOOLCHAINS["fujitsu"],
                             A64FX).stream)
        for n in names
    ]
    # uncached, so both runs simulate every lane and emit its payload
    with ProfileScope("sweep:batch") as counters:
        batch = schedule_batch(requests, cache=False)
    serial = counters.as_dict()
    with ProfileScope("sweep:sharded") as counters:
        sharded = schedule_batch_sharded(requests, cache=False, max_workers=2)
    merged = counters.as_dict()
    out: list[Violation] = []
    if sharded != batch:
        out.append(Violation(
            "counters.sweep.merge", "sweep:results",
            "sharded batch results differ from the in-process batch",
        ))
    for key in sorted(set(serial) | set(merged)):
        a, b = serial.get(key, 0.0), merged.get(key, 0.0)
        if a != b:
            out.append(Violation(
                "counters.sweep.merge", f"sweep:{key}",
                f"sharded total {b} != in-process total {a}",
            ))
    return out


def check_ecm(kernel: str, toolchain: str = "fujitsu", *,
              n: int | None = None) -> list[Violation]:
    """Reconcile the ECM prediction against the engine for one point.

    Runs :func:`repro.ecm.model.compare_kernel` and reports a violation
    when the relative deviation leaves the kernel's stated tolerance.
    """
    from repro.ecm.model import compare_kernel

    cmp = compare_kernel(kernel, toolchain, n=n)
    if cmp.within_tolerance:
        return []
    return [Violation(
        "ecm.deviation", f"ecm:{kernel}/{toolchain}",
        f"ecm {cmp.prediction.seconds * 1e6:.3f} us vs engine "
        f"{cmp.engine_seconds * 1e6:.3f} us: deviation "
        f"{cmp.deviation * 100.0:+.1f}% exceeds the stated "
        f"{cmp.tolerance * 100.0:.0f}% bound (bound: "
        f"{cmp.prediction.bound})",
    )]


def run_ecm_pass() -> PassResult:
    """Reconcile the ECM tier over the full kernel x toolchain grid.

    Every catalogued kernel (paper suite + SpMV/stencil workloads) is
    compared under every toolchain at its default problem size — the
    same grid the calibration of
    :data:`repro.ecm.model.ECM_TOLERANCES` swept, so a model or machine
    -table change that moves any point past its bound fails loudly.
    """
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.kernels.catalog import ALL_KERNEL_NAMES

    result = PassResult(name="ecm")
    for kernel in ALL_KERNEL_NAMES:
        for toolchain in sorted(TOOLCHAINS):
            result.violations += check_ecm(kernel, toolchain)
            result.checked += 1
    return result


def run_counter_pass() -> PassResult:
    """Reconcile profiles of representative kernels + the sweep merge.

    Profiles cover an L1-resident compute kernel, a gather (index
    traffic), and a large-``n`` stream that spills past L2 — so the
    level-chain and byte identities see both cache-resident and
    DRAM-bound shapes.
    """
    import numpy as np

    from repro.machine.memory import CacheSim
    from repro.perf.counters import ProfileScope
    from repro.perf.profile import profile_kernel

    result = PassResult(name="counters")
    for kernel, toolchain, n in (
        ("simple", "fujitsu", None),
        ("gather", "fujitsu", None),
        ("exp", "gnu", None),
        ("simple", "intel", None),
        ("exp", "fujitsu", 4_000_000),
    ):
        prof = profile_kernel(kernel, toolchain, n=n)
        result.violations += check_profile(prof)
        result.checked += 1

    # exact cache-simulator identity on a replayed trace
    with ProfileScope("validate:cachesim") as counters:
        sim = CacheSim(capacity=4096, line=64, assoc=4)
        rng = np.random.default_rng(7)
        sim.access_trace(rng.integers(0, 65536, size=4096))
    result.violations += check_counters(counters)
    result.checked += 1

    result.violations += check_sweep_merge()
    result.checked += 1
    return result
