"""Whole-kernel profiling: run one suite kernel under counters.

:func:`profile_kernel` is the programmatic form of the ``repro profile``
CLI subcommand: it compiles one Section III suite loop for a toolchain,
schedules it on the target core, executes it on the full system model —
all inside a :class:`~repro.perf.counters.ProfileScope` — and returns a
:class:`KernelProfile` bundling the raw counters, the analytic results,
an ECM-style text breakdown and the stable JSON document.

The profile is *self-reconciling*: ``derived.reconciliation`` in the
JSON recomputes the run's compute seconds from the cycle counters and
its memory seconds from the byte/bandwidth counters, so a reader can
verify that the counters account for the analytic
:class:`~repro.engine.executor.KernelRun` without re-running the model
(the repository's tests assert agreement to well under 1%).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.perf.counters import CounterSet, ProfileScope
from repro.perf.report import profile_to_json, render_counters

__all__ = ["KernelProfile", "profile_kernel", "default_system_for"]


def default_system_for(toolchain_name: str) -> str:
    """System key a toolchain targets by default (SVE -> Ookami A64FX,
    x86 -> the paper's Skylake 6140 comparison node)."""
    from repro.compilers.toolchains import get_toolchain

    return "ookami" if get_toolchain(toolchain_name).target == "sve" else "skylake"


@dataclass(frozen=True)
class KernelProfile:
    """One kernel's counter-validated execution profile."""

    kernel: str
    toolchain: str
    system: str
    counters: CounterSet
    schedule: Any   # ScheduleResult (untyped to keep import graph light)
    run: Any        # KernelRun
    quality_factor: float

    # ------------------------------------------------------------------
    @property
    def cycles_per_element(self) -> float:
        """Compute cycles per source element, toolchain factor included."""
        return self.schedule.cycles_per_element * self.quality_factor

    def derived(self) -> dict[str, Any]:
        """Quantities computed from the counters + the model's answers."""
        run = self.run
        clock_hz = run.clock_ghz * 1e9
        c = self.counters
        compute_from_cycles = c.get("exec.compute_cycles", 0.0) / clock_hz
        memory_from_bytes = c.total("exec.stream_seconds")
        return {
            "cycles_per_iter": run.cycles_per_iter,
            "cycles_per_element": self.cycles_per_element,
            "elements_per_iter": self.schedule.elements_per_iter,
            "n_iters": run.iters,
            "clock_ghz": run.clock_ghz,
            "quality_factor": self.quality_factor,
            "compute_seconds": run.compute_seconds,
            "memory_seconds": run.memory_seconds,
            "hidden_seconds": run.hidden_seconds,
            "seconds": run.seconds,
            "bound": run.bound,
            "reconciliation": {
                "compute_seconds_from_cycles": compute_from_cycles,
                "memory_seconds_from_bytes": memory_from_bytes,
                "seconds_from_counters": max(
                    compute_from_cycles, memory_from_bytes
                ),
            },
        }

    def to_json(self) -> dict[str, Any]:
        """The stable, versioned JSON profile document."""
        return profile_to_json(
            kernel=self.kernel,
            toolchain=self.toolchain,
            system=self.system,
            counters=self.counters,
            derived=self.derived(),
        )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """ECM-style text breakdown plus the grouped counter dump."""
        run = self.run
        sched = self.schedule
        c = self.counters
        lines = [
            f"== profile: {self.kernel} | toolchain={self.toolchain} "
            f"| system={self.system} ==",
            "",
            f"schedule   {sched.cycles_per_iter:.2f} cyc/iter over "
            f"{sched.elements_per_iter} elem/iter -> "
            f"{self.cycles_per_element:.2f} cyc/elem "
            f"(core bound: {sched.bound}, quality x{self.quality_factor:.2f})",
        ]
        used = c.get("pipeline.issue_slots.used", 0.0)
        slot_total = c.get("pipeline.issue_slots.total", 0.0)
        if slot_total:
            stall = c.get("pipeline.issue_slots.stalled", 0.0)
            lines.append(
                f"front end  {int(used)} of {int(slot_total)} issue slots "
                f"used, {int(stall)} stalled ({100.0 * stall / slot_total:.1f}%)"
            )
        mix = c.group("pipeline.instr_mix")
        if mix:
            top = sorted(mix.items(), key=lambda kv: -kv[1])[:6]
            lines.append(
                "instr mix  "
                + ", ".join(f"{op} {int(n)}" for op, n in top)
                + (" ..." if len(mix) > 6 else "")
            )
        lines.append("")
        # --- ECM-style time decomposition ------------------------------
        lines.append("ECM-style decomposition (full run):")
        lines.append(
            f"  T_comp             {run.compute_seconds * 1e6:10.2f} us   "
            f"({c.get('exec.compute_cycles', 0.0):.0f} cycles "
            f"@ {run.clock_ghz:.2f} GHz)"
        )
        for name, seconds in sorted(c.group("exec.stream_seconds").items()):
            bw = c.get(f"exec.stream_bw_gbs.{name}", 0.0)
            lines.append(
                f"  T_mem({name:<8})    {seconds * 1e6:10.2f} us   "
                f"(@ {bw:.1f} GB/s effective)"
            )
        for lvl, nbytes in sorted(c.group("memory.levels").items()):
            if lvl.endswith(".bytes_in"):
                lines.append(
                    f"  bytes via {lvl.removesuffix('.bytes_in'):<8} "
                    f"{nbytes / 1024.0:10.1f} KiB"
                )
        lines.append(
            f"  T = max(comp, mem) {run.seconds * 1e6:10.2f} us   "
            f"(bound: {run.bound}, {run.hidden_seconds * 1e6:.2f} us hidden)"
        )
        lines.append("")
        lines.append(render_counters(c, title="counters:"))
        return "\n".join(lines)


def profile_kernel(
    kernel: str,
    toolchain: str = "fujitsu",
    system: str | None = None,
    *,
    n: int | None = None,
    window: int | None = None,
) -> KernelProfile:
    """Profile one suite kernel under PMU counters.

    Parameters
    ----------
    kernel:
        Any catalogued kernel name
        (:data:`repro.kernels.catalog.ALL_KERNEL_NAMES`): a Section III
        suite loop (``simple``/``predicate``/``gather``/``scatter``/
        ``short_gather``/``short_scatter``), a math loop (``recip``/
        ``sqrt``/``exp``/``sin``/``pow``) or a sparse/stencil workload
        (``spmv_crs``/``spmv_sell``/``stencil2d``/``stencil3d``).
    toolchain:
        Toolchain model to compile with (default Fujitsu).
    system:
        System catalog key; defaults to the toolchain's natural target
        (Ookami for SVE toolchains, the Skylake 6140 node for x86).
    n:
        Override the loop trip count (default: L1-resident sizing).  Use
        a large ``n`` to push the working set to L2/HBM.
    window:
        Out-of-order window override passed to the scheduler.
    """
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import get_toolchain
    from repro.engine.executor import KernelExecutor
    from repro.engine.scheduler import PipelineScheduler
    from repro.kernels.catalog import build_kernel
    from repro.machine.systems import get_system

    tc = get_toolchain(toolchain)
    system_key = system if system is not None else default_system_for(toolchain)
    sysobj = get_system(system_key)
    loop = build_kernel(kernel, n)

    scope = ProfileScope(label=f"profile:{kernel}")
    with scope as counters:
        compiled = compile_loop(loop, tc, sysobj.cpu)
        if window is None:
            sched = compiled.schedule
        else:
            sched = PipelineScheduler(sysobj.cpu, window=window).steady_state(
                compiled.stream
            )
        factor = compiled.quality_factor
        # fold the toolchain code-quality factor into the executed
        # schedule so profile seconds match the figure pipeline's
        # cycles_per_element convention
        executed = replace(
            sched, cycles_per_iter=sched.cycles_per_iter * factor
        )
        run = KernelExecutor(sysobj).run(
            executed, compiled.mem_streams, n_iters=compiled.n_iters
        )
    return KernelProfile(
        kernel=kernel,
        toolchain=tc.name,
        system=system_key,
        counters=counters,
        schedule=sched,
        run=run,
        quality_factor=factor,
    )
