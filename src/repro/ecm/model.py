"""ECM composition: closed-form kernel runtime predictions.

This is the third — and fastest — prediction tier.  Where the full
simulation replays every issue slot and the fast engine event-steps the
same model, :func:`predict_compiled` combines two closed forms:

* ``T_comp`` — the in-core bounds of :mod:`repro.ecm.incore`, scaled by
  the toolchain's code-quality factor (the same fold the figure pipeline
  applies to simulated schedules);
* ``T_data`` — the per-stream boundary traffic of
  :mod:`repro.ecm.traffic`.

The composition rule is a *machine-table property*
(:attr:`repro.machine.microarch.Microarch.mem_overlap`, set from the
measurements of Alappat et al., arXiv 2103.03013 / 2009.13903):

* **overlapping** (the x86 cores): in-core arithmetic overlaps all data
  transfers, only the load/store pipe cycles serialize with them —
  ``T = max(T_OL, T_nOL + sum T_data)``;
* **non-overlapping** (A64FX): measured single-core behaviour shows no
  overlap between in-core work and transfers beyond L1 —
  ``T = T_comp + sum T_data``.

:func:`compare_kernel` runs the same compiled kernel through the fast
engine + executor (exactly the ``repro profile`` composition) and
reports the relative deviation; :data:`ECM_TOLERANCES` states the
per-kernel bound the reconciliation pass and the ``tests/ecm`` suite
enforce.  Tolerances are calibrated, not aspirational: the analytical
in-core bounds track the simulated schedule from below (overshooting by
at most a few percent — see :mod:`repro.ecm.incore`), so L1-resident
kernels deviate mostly downward, while memory-bound kernels are bounded
above by the additive-composition surplus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro._util import require_in
from repro.compilers.codegen import CompiledLoop, compile_loop
from repro.ecm.incore import InCoreSummary, analyze_stream
from repro.ecm.traffic import StreamTraffic, data_cycles
from repro.kernels.catalog import ALL_KERNEL_NAMES, build_kernel
from repro.machine.numa import PagePlacement
from repro.machine.systems import System

__all__ = [
    "EcmPrediction",
    "EcmComparison",
    "ECM_TOLERANCES",
    "ECM_DEFAULT_TOLERANCE",
    "ecm_tolerance",
    "predict_compiled",
    "predict_kernel",
    "engine_seconds_for",
    "compare_kernel",
    "prediction_to_json",
]

#: per-kernel relative-deviation bounds for |ECM - engine| / engine,
#: calibrated over every toolchain in the catalog at each kernel's
#: default (per-family) problem size, then given ~1.3x headroom.  Two
#: systematic effects set the scale: the analytical in-core bounds
#: track the simulated schedule from below, so L1-resident kernels
#: deviate downward (the window bound undershoots long dependence chains
#: by up to ~20%); and on the non-overlapping A64FX the additive
#: ``T_comp + T_data`` composition sits *above* the engine's roofline
#: ``max(compute, memory)`` by up to the compute/memory ratio, so the
#: memory-bound SpMV/stencil kernels deviate upward (largest for
#: stencil3d, whose many neighbour streams keep T_comp comparable to
#: T_data).  Port-pressure-bound kernels (the gathers/scatters) agree to
#: well under a percent.
ECM_TOLERANCES: dict[str, float] = {
    "simple": 0.25,
    "predicate": 0.10,
    "gather": 0.10,
    "scatter": 0.10,
    "short_gather": 0.10,
    "short_scatter": 0.10,
    "recip": 0.30,
    "sqrt": 0.30,
    "exp": 0.15,
    "sin": 0.10,
    "pow": 0.20,
    "spmv_crs": 0.20,
    "spmv_sell": 0.60,
    "stencil2d": 0.55,
    "stencil3d": 0.75,
}

#: fallback bound for loops outside the catalog; fuzzed random loops use
#: the wider theorem-backed ratio envelope in :mod:`repro.validate.fuzz`
ECM_DEFAULT_TOLERANCE = 0.60


def ecm_tolerance(kernel: str) -> float:
    """The stated ECM-vs-engine relative-deviation bound for *kernel*."""
    return ECM_TOLERANCES.get(kernel, ECM_DEFAULT_TOLERANCE)


@dataclass(frozen=True)
class EcmPrediction:
    """One kernel's analytical runtime prediction.

    Cycle quantities are per lowered loop iteration;
    ``cycles_per_element`` and ``seconds`` fold in the iteration count
    and clock the same way the engine tier does.
    """

    kernel: str
    toolchain: str
    system: str
    incore: InCoreSummary
    streams: tuple[StreamTraffic, ...]
    quality_factor: float
    mem_overlap: bool
    cycles_per_iter: float
    elements_per_iter: int
    n_iters: float
    clock_ghz: float

    @property
    def t_comp_cycles(self) -> float:
        """In-core cycles per iteration, quality factor included."""
        return self.incore.t_comp * self.quality_factor

    @property
    def t_data_cycles(self) -> float:
        """Total data-transfer cycles per iteration across all streams."""
        return sum(s.cycles_per_iter for s in self.streams)

    @property
    def cycles_per_element(self) -> float:
        """Composed cycles per source element."""
        return self.cycles_per_iter / self.elements_per_iter

    @property
    def seconds(self) -> float:
        """Predicted wall time of the full kernel."""
        return self.cycles_per_iter * self.n_iters / (self.clock_ghz * 1e9)

    @property
    def bound(self) -> str:
        """The dominating term: ``data:<stream>`` when transfers dominate
        the in-core time, else the in-core bound name."""
        if self.t_data_cycles > self.t_comp_cycles and self.streams:
            hot = max(self.streams, key=lambda s: s.cycles_per_iter)
            return f"data:{hot.name}"
        return self.incore.bound

    def composition(self) -> str:
        """Human-readable form of the applied composition rule."""
        if self.mem_overlap:
            return "max(T_OL, T_nOL + sum(T_data))"
        return "T_comp + sum(T_data)"


@dataclass(frozen=True)
class EcmComparison:
    """ECM prediction vs fast-engine simulation for one kernel point."""

    prediction: EcmPrediction
    engine_seconds: float
    tolerance: float

    @property
    def deviation(self) -> float:
        """Relative deviation ``(ecm - engine) / engine``."""
        return (self.prediction.seconds - self.engine_seconds) / self.engine_seconds

    @property
    def within_tolerance(self) -> bool:
        """True when ``|deviation|`` stays inside the stated bound."""
        return abs(self.deviation) <= self.tolerance


def _compose(
    summary: InCoreSummary,
    streams: tuple[StreamTraffic, ...],
    factor: float,
    mem_overlap: bool,
) -> float:
    """Apply the machine's ECM composition rule, returning cycles/iter."""
    t_data = sum(s.cycles_per_iter for s in streams)
    if not mem_overlap:
        return factor * summary.t_comp + t_data
    t_ol = factor * max(summary.t_ol, summary.issue_cycles,
                        summary.chain_cycles, summary.window_cycles)
    return max(t_ol, factor * summary.t_nol + t_data)


def predict_compiled(
    compiled: CompiledLoop,
    system: System,
    *,
    allcore: bool = False,
    active_cores_per_domain: int = 1,
    placement: PagePlacement = PagePlacement.FIRST_TOUCH,
    window: int | None = None,
) -> EcmPrediction:
    """Analytically predict *compiled* on *system* — no simulation.

    The keyword parameters mirror
    :meth:`repro.engine.executor.KernelExecutor.run` so the two tiers
    answer the same question about the same execution configuration.
    """
    march = compiled.march
    clock = (system.cpu.allcore_clock_ghz if allcore
             else system.cpu.clock_ghz)
    summary = analyze_stream(compiled.stream, march, window=window)
    placement_domains = 1 if placement is PagePlacement.SINGLE_DOMAIN else None
    streams = data_cycles(
        compiled.mem_streams, system.hierarchy, clock,
        active_cores_per_domain=active_cores_per_domain,
        placement_domains=placement_domains,
    )
    factor = compiled.quality_factor
    cycles = _compose(summary, streams, factor, march.mem_overlap)
    return EcmPrediction(
        kernel=compiled.loop.name,
        toolchain=compiled.toolchain.name,
        system=system.name,
        incore=summary,
        streams=streams,
        quality_factor=factor,
        mem_overlap=march.mem_overlap,
        cycles_per_iter=cycles,
        elements_per_iter=compiled.elements_per_iter,
        n_iters=compiled.n_iters,
        clock_ghz=clock,
    )


def predict_kernel(
    kernel: str,
    toolchain: str = "fujitsu",
    system: str | None = None,
    *,
    n: int | None = None,
    window: int | None = None,
) -> EcmPrediction:
    """Predict any catalogued kernel by name (the ``repro ecm`` CLI core).

    ``system`` defaults to the toolchain's natural target (Ookami for
    SVE toolchains, the Skylake 6140 node for x86), exactly like
    :func:`repro.perf.profile.profile_kernel`.
    """
    from repro.compilers.toolchains import get_toolchain
    from repro.machine.systems import get_system
    from repro.perf.profile import default_system_for

    require_in(kernel, ALL_KERNEL_NAMES, "kernel name")
    tc = get_toolchain(toolchain)
    system_key = system if system is not None else default_system_for(toolchain)
    sysobj = get_system(system_key)
    loop = build_kernel(kernel, n)
    compiled = compile_loop(loop, tc, sysobj.cpu)
    return predict_compiled(compiled, sysobj, window=window)


def engine_seconds_for(
    compiled: CompiledLoop,
    system: System,
    *,
    window: int | None = None,
) -> float:
    """Fast-engine + executor wall time for *compiled* on *system*.

    This is the exact composition the ``repro profile`` pipeline uses:
    simulated steady-state schedule, quality factor folded into the
    cycles, roofline max with the memory streams.
    """
    from repro.engine.executor import KernelExecutor
    from repro.engine.scheduler import PipelineScheduler

    if window is None:
        sched = compiled.schedule
    else:
        sched = PipelineScheduler(
            compiled.march, window=window
        ).steady_state(compiled.stream)
    factor = compiled.quality_factor
    executed = replace(sched, cycles_per_iter=sched.cycles_per_iter * factor)
    run = KernelExecutor(system).run(
        executed, compiled.mem_streams, n_iters=compiled.n_iters
    )
    return run.seconds


def compare_kernel(
    kernel: str,
    toolchain: str = "fujitsu",
    system: str | None = None,
    *,
    n: int | None = None,
    window: int | None = None,
    tolerance: float | None = None,
) -> EcmComparison:
    """Predict *kernel* analytically **and** simulate it; bundle both.

    The returned comparison carries the stated per-kernel tolerance
    (overridable for experiments); the reconciliation pass and the
    ``tests/ecm`` suite assert :attr:`EcmComparison.within_tolerance`.
    """
    from repro.compilers.toolchains import get_toolchain
    from repro.machine.systems import get_system
    from repro.perf.profile import default_system_for

    require_in(kernel, ALL_KERNEL_NAMES, "kernel name")
    tc = get_toolchain(toolchain)
    system_key = system if system is not None else default_system_for(toolchain)
    sysobj = get_system(system_key)
    compiled = compile_loop(build_kernel(kernel, n), tc, sysobj.cpu)
    prediction = predict_compiled(compiled, sysobj, window=window)
    engine = engine_seconds_for(compiled, sysobj, window=window)
    tol = tolerance if tolerance is not None else ecm_tolerance(kernel)
    return EcmComparison(
        prediction=prediction,
        engine_seconds=engine,
        tolerance=tol,
    )


def prediction_to_json(pred: EcmPrediction) -> dict[str, Any]:
    """Stable JSON document for one prediction (``repro.ecm/1``)."""
    return {
        "schema": "repro.ecm/1",
        "kernel": pred.kernel,
        "toolchain": pred.toolchain,
        "system": pred.system,
        "composition": pred.composition(),
        "mem_overlap": pred.mem_overlap,
        "quality_factor": pred.quality_factor,
        "clock_ghz": pred.clock_ghz,
        "elements_per_iter": pred.elements_per_iter,
        "n_iters": pred.n_iters,
        "incore": {
            "t_ol": pred.incore.t_ol,
            "t_nol": pred.incore.t_nol,
            "issue_cycles": pred.incore.issue_cycles,
            "chain_cycles": pred.incore.chain_cycles,
            "window_cycles": pred.incore.window_cycles,
            "t_comp": pred.incore.t_comp,
            "bound": pred.incore.bound,
            "n_instrs": pred.incore.n_instrs,
        },
        "streams": [
            {
                "name": s.name,
                "serving": s.serving,
                "cycles_per_iter": s.cycles_per_iter,
                "boundaries": [
                    {
                        "boundary": b.boundary,
                        "line_bytes_per_iter": b.line_bytes_per_iter,
                        "cycles_per_iter": b.cycles_per_iter,
                    }
                    for b in s.boundaries
                ],
            }
            for s in pred.streams
        ],
        "t_comp_cycles": pred.t_comp_cycles,
        "t_data_cycles": pred.t_data_cycles,
        "cycles_per_iter": pred.cycles_per_iter,
        "cycles_per_element": pred.cycles_per_element,
        "seconds": pred.seconds,
        "microseconds": pred.seconds * 1e6,
        "bound": pred.bound,
    }
