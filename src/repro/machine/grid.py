"""Cross-machine design-space sweeps over hypothetical machine grids.

This is the machine axis of ``repro sweep --grid``: take the first *N*
machines of the deterministic design-space enumeration
(:func:`repro.machine.spec.grid_specs` — vector length x issue width x
out-of-order window x cache/HBM geometry around the A64FX, Skylake and
RVV presets), run every (machine, kernel) point through the fast tiers,
and report which machine wins each kernel.

Three scale tricks keep thousands of machines cheap:

* **Compile sharing.**  The lowered instruction stream depends on the
  machine only through its codegen signature — float64 lanes plus the
  :class:`~repro.machine.isa.VectorISA` lowering traits — so each
  (kernel, toolchain, signature) combination is compiled once and
  *retargeted* to every machine sharing it
  (``dataclasses.replace(compiled, march=...)``), instead of compiled
  per machine.  ``tests/machine/test_machine_grid.py`` pins
  retarget == direct-compile bit-exactness.
* **Batched tiers.**  All ECM points go through one
  :func:`repro.ecm.batch.predict_batch` array program and all engine
  points through one :func:`repro.engine.shard.schedule_batch_sharded`
  call, so the existing vectorized/sharded fast paths — not a Python
  loop — do the heavy lifting.
* **Content identity.**  The engine and ECM memos key a machine by
  what the tier reads, not by its name or object:
  :attr:`~repro.machine.microarch.Microarch.core_key` (issue width and
  timing table) for schedules and in-core bases, the
  :class:`~repro.machine.memory.MemoryHierarchy` values for traffic.
  The default 1000-machine grid has 12 distinct cores and 24 distinct
  hierarchies, so its 2000 engine requests deduplicate to 252 jobs
  (the document's ``shard.jobs``) and its 6000 ECM points need 252
  in-core analyses.

Toolchains are chosen per machine from the ISA's target list (best
SIMD code generator first); kernels whose recipe needs a missing ISA
feature (the FEXPA exponential on RVV) fall back to the next toolchain
and are skipped — and counted — only when no toolchain compiles.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Mapping, Sequence

from repro.compilers.cache import cached_compile
from repro.compilers.codegen import CompiledLoop
from repro.compilers.toolchains import TOOLCHAINS, Toolchain
from repro.ecm.batch import predict_batch
from repro.engine.shard import last_shard_plan, schedule_batch_sharded
from repro.kernels.catalog import build_kernel
from repro.machine.microarch import Microarch
from repro.machine.spec import GRID_BASES, MachineSpec, grid_specs

__all__ = [
    "GRID_FORMAT",
    "DEFAULT_KERNELS",
    "DEFAULT_ENGINE_KERNELS",
    "codegen_signature",
    "compile_for_machines",
    "machine_grid_predictions",
    "run_machine_grid",
]

#: version tag of the grid-sweep result document
GRID_FORMAT = "repro.sweep-grid/1"

#: kernels every machine is scored on by default (ECM tier)
DEFAULT_KERNELS = ("simple", "gather", "sqrt", "exp", "spmv_crs",
                   "stencil2d")

#: kernels additionally driven through the cycle-accurate engine tier
DEFAULT_ENGINE_KERNELS = ("simple", "sqrt")

#: per-target toolchain preference: best SIMD code generator first,
#: with non-FEXPA fallbacks behind it
_TC_PREFERENCE: Mapping[str, tuple[str, ...]] = {
    "sve": ("fujitsu", "arm", "gnu"),
    "x86": ("intel",),
}


def codegen_signature(march: Microarch) -> tuple:
    """Everything the code generator reads from a machine.

    Two machines with equal signatures get bit-identical lowered
    streams for every (kernel, toolchain), which is what makes compile
    sharing across a machine grid sound.
    """
    isa = march.vector_isa
    return (
        march.lanes_f64,
        isa.predicated_tail,
        isa.predicated_store_crack,
        isa.gather_pair_coalescing,
        march.has_fexpa,
    )


def _toolchains_for(march: Microarch) -> tuple[Toolchain, ...]:
    """Candidate toolchains for *march*, best first."""
    names: list[str] = []
    for target in march.vector_isa.toolchain_targets:
        names.extend(_TC_PREFERENCE.get(target, ()))
    return tuple(TOOLCHAINS[n] for n in names)


def compile_for_machines(
    kernel: str,
    marches: Sequence[Microarch],
) -> tuple[list[CompiledLoop | None], list[str]]:
    """Compile *kernel* once per codegen signature, retargeted per machine.

    Returns one :class:`CompiledLoop` per march (``None`` when no
    candidate toolchain compiles the kernel for that machine — e.g. a
    FEXPA recipe on an ISA without the accelerator) plus the names of
    machines that were skipped.
    """
    loop = build_kernel(kernel)
    by_sig: dict[tuple, CompiledLoop | None] = {}
    out: list[CompiledLoop | None] = []
    skipped: list[str] = []
    for march in marches:
        for tc in _toolchains_for(march):
            sig = (tc.name,) + codegen_signature(march)
            if sig not in by_sig:
                try:
                    by_sig[sig] = cached_compile(loop, tc, march)
                except ValueError:
                    by_sig[sig] = None
            base = by_sig[sig]
            if base is not None:
                out.append(base if base.march is march
                           else replace(base, march=march))
                break
        else:
            out.append(None)
            skipped.append(march.name)
    return out, skipped


def machine_grid_predictions(
    specs: Sequence[MachineSpec],
    kernels: Sequence[str] = DEFAULT_KERNELS,
):
    """The ECM item list for a machine grid, plus its predictions.

    Returns ``(items, predictions, skipped)`` where ``items`` is the
    ``(compiled, system, window)`` list fed to
    :func:`repro.ecm.batch.predict_batch` (usable as-is for a
    per-point-vs-batched equivalence check), ``predictions`` aligns with
    it, and ``skipped`` counts (machine, kernel) points no toolchain
    could compile.
    """
    marches = [spec.build_core() for spec in specs]
    items, preds, skipped, _compiled = _grid_predictions(
        specs, marches, kernels)
    return items, preds, skipped


def _grid_predictions(
    specs: Sequence[MachineSpec],
    marches: Sequence[Microarch],
    kernels: Sequence[str],
):
    """:func:`machine_grid_predictions` over already-built cores.

    Also returns each kernel's per-machine compiled list, so the engine
    tier of :func:`run_machine_grid` reuses both instead of building
    and compiling them a second time.
    """
    systems = [spec.build_system() for spec in specs]
    items = []
    skipped = 0
    compiled_of: dict[str, list[CompiledLoop | None]] = {}
    for kernel in kernels:
        compiled, skips = compile_for_machines(kernel, marches)
        compiled_of[kernel] = compiled
        skipped += len(skips)
        for c, system in zip(compiled, systems):
            if c is not None:
                items.append((c, system, None))
    return items, predict_batch(items), skipped, compiled_of


def run_machine_grid(
    specs: Sequence[MachineSpec] | None = None,
    *,
    machines: int = 1000,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    engine_kernels: Sequence[str] = DEFAULT_ENGINE_KERNELS,
    include_rows: bool = False,
) -> dict:
    """Sweep a machine grid and report per-kernel winners.

    With ``specs=None`` the grid is the first *machines* entries of the
    default design-space enumeration (:data:`~repro.machine.spec.
    GRID_BASES` presets x the default axes).  Every machine is scored
    on *kernels* through the vectorized ECM tier; *engine_kernels* are
    additionally driven through the sharded batch scheduler to keep the
    cycle-accurate tier honest on the same grid.  Returns a versioned
    :data:`GRID_FORMAT` document.
    """
    if specs is None:
        specs = grid_specs(machines, GRID_BASES)
    specs = list(specs)
    t0 = time.perf_counter()
    marches = [spec.build_core() for spec in specs]
    items, preds, skipped, compiled_of = _grid_predictions(
        specs, marches, kernels)
    ecm_seconds = time.perf_counter() - t0

    # per-kernel crossover: which machine (with which toolchain) wins
    winners: dict[str, dict] = {}
    rows = []
    for (compiled, system, _win), pred in zip(items, preds):
        kernel = compiled.loop.name
        row = {
            "kernel": kernel,
            "machine": compiled.march.name,
            "toolchain": compiled.toolchain.name,
            "seconds": pred.seconds,
            "cycles_per_element": pred.cycles_per_element,
            "bound": pred.bound,
        }
        if include_rows:
            rows.append(row)
        best = winners.get(kernel)
        if best is None or row["seconds"] < best["seconds"]:
            winners[kernel] = row

    # engine tier: one sharded batch over machines x engine_kernels
    t0 = time.perf_counter()
    engine_points = 0
    requests = []
    for kernel in engine_kernels:
        compiled = compiled_of.get(kernel)
        if compiled is None:
            compiled, _skips = compile_for_machines(kernel, marches)
        requests.extend((c.march, c.stream) for c in compiled
                        if c is not None)
    if requests:
        schedule_batch_sharded(requests)
        engine_points = len(requests)
    engine_seconds = time.perf_counter() - t0

    total = len(items) + engine_points
    wall = ecm_seconds + engine_seconds
    return {
        "format": GRID_FORMAT,
        "machines": len(specs),
        "kernels": list(kernels),
        "engine_kernels": list(engine_kernels),
        "points": total,
        "ecm_points": len(items),
        "engine_points": engine_points,
        "skipped": skipped,
        "seconds": wall,
        "points_per_sec": (total / wall) if wall > 0 else 0.0,
        "shard": last_shard_plan(),
        "winners": winners,
        **({"rows": rows} if include_rows else {}),
    }
