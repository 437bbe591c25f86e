"""Sweep runner: every figure/table point predicted as one batch.

Every figure/table in the reproduction is a sweep — (kernel x toolchain
x system x window) points whose shared work the schedule cache
(:mod:`repro.engine.cache`) deduplicates.  :func:`run_sweep` predicts a
list of :class:`SweepPoint` (loop, toolchain[, window]) specs and
returns one stats row per point.

Every sweep, whatever its size, runs as one batch: compilations
deduplicate through the content-addressed compile cache
(:mod:`repro.compilers.cache`), engine-tier points run as one
structure-of-arrays batch (:mod:`repro.engine.batch`), and ECM-tier
points evaluate as one vectorized array program
(:mod:`repro.ecm.batch`).  Rows equal the per-point composition
``compile_loop`` → ``schedule_on`` / ``predict_compiled``
(``tests/engine/test_sweep.py`` holds that oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "SweepPoint",
    "TIERS",
    "run_sweep",
]

#: prediction tiers a sweep point can run under
TIERS = ("engine", "ecm")


@dataclass(frozen=True)
class SweepPoint:
    """One schedule request, by name.

    ``tier`` selects the prediction tier: ``"engine"`` simulates the
    steady-state schedule on the cycle-level engine;
    ``"ecm"`` evaluates the analytical ECM model
    (:mod:`repro.ecm.model`) instead — no simulation, microseconds per
    point.

    ``machine`` names a :data:`~repro.machine.spec.MACHINE_SPECS`
    preset to target instead of the paper's default pairing (A64FX for
    SVE toolchains, Skylake 6140 for x86); ECM-tier points then price
    traffic against that machine's own memory system.
    """

    loop: str
    toolchain: str
    window: int | None = None
    tier: str = "engine"
    machine: str | None = None


# ----------------------------------------------------------------------
def _normalize(
    point: "SweepPoint | Sequence", tier: str | None,
) -> tuple[str, str, int | None, str, str | None]:
    if isinstance(point, SweepPoint):
        return (point.loop, point.toolchain, point.window,
                tier or point.tier, point.machine)
    loop, toolchain, *rest = point
    window = rest[0] if rest else None
    point_tier = rest[1] if len(rest) > 1 else None
    machine = rest[2] if len(rest) > 2 else None
    return (str(loop), str(toolchain), window,
            tier or point_tier or "engine", machine)


def _resolve_targets(tc_name: str, machine: str | None):
    """(march, system) for one sweep point.

    With no machine the paper's default pairing applies (A64FX for SVE
    toolchains, Skylake 6140 for x86, systems via
    :func:`~repro.perf.profile.default_system_for`); a ``machine``
    preset key targets that spec's core and — for ECM pricing — its own
    node.  The system is resolved lazily because engine-tier points
    never need one (core-only presets stay sweepable there).
    """
    from repro.compilers.toolchains import get_toolchain
    from repro.machine.microarch import A64FX, SKYLAKE_6140

    if machine is not None:
        from repro.machine.spec import get_machine_spec

        spec = get_machine_spec(machine)
        return spec.build_core(), spec.build_system
    tc = get_toolchain(tc_name)
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX

    def default_system():
        from repro.machine.systems import get_system
        from repro.perf.profile import default_system_for

        return get_system(default_system_for(tc_name))

    return march, default_system


def run_sweep(
    points: Iterable["SweepPoint | Sequence"],
    *,
    tier: str | None = None,
) -> list[dict]:
    """Predict every (loop, toolchain[, window]) point; one row each.

    Rows arrive in input order and carry the prediction statistics plus
    the codegen-adjusted ``model_cycles_per_element`` (the quantity the
    paper's Section IV tables quote).  ``tier`` overrides the tier of
    every point at once (``--tier ecm`` on the CLIs lands here); per
    -point tiers come from :attr:`SweepPoint.tier`.

    Compilations go through the content-addressed compile cache
    (:func:`repro.compilers.cache.cached_compile`), so a grid sharing
    (loop, toolchain) across many windows lowers each combination once.
    Every point contributes the default-window schedule request behind
    ``CompiledLoop.cycles_per_element``; engine points add their
    explicitly windowed request — one request per lookup a per-point
    composition would make, so cache statistics and ``ProfileScope``
    totals equal it.  The deduplicated batch simulates in-process
    (:func:`repro.engine.batch.schedule_batch`); ECM-tier rows then
    compose in one vectorized pass
    (:func:`repro.ecm.batch.predict_batch`).
    """
    from repro.compilers.cache import cached_compile
    from repro.compilers.toolchains import get_toolchain
    from repro.ecm.batch import predict_batch
    from repro.engine.batch import schedule_batch
    from repro.kernels.catalog import build_kernel

    specs = [_normalize(p, tier) for p in points]
    rows: list[dict | None] = [None] * len(specs)
    requests: list[tuple] = []
    pending: list[tuple] = []
    # one compiled loop per (loop, toolchain, machine) combo for the
    # whole sweep; the request list below still carries one entry per
    # *point*, which is what keeps cache statistics and counters equal
    # to a per-point composition — sharing the compiled object only
    # skips redundant IR builds
    compiled_of: dict[tuple[str, str, str | None], object] = {}
    system_of: dict[tuple[str, str | None], object] = {}
    for i, (loop, tc_name, window, point_tier, machine) in enumerate(specs):
        if point_tier not in TIERS:
            raise ValueError(
                f"tier must be one of {TIERS}, got {point_tier!r}"
            )
        compiled = compiled_of.get((loop, tc_name, machine))
        if compiled is None:
            tc = get_toolchain(tc_name)
            march, resolve_system = _resolve_targets(tc_name, machine)
            system_of.setdefault((tc_name, machine), resolve_system)
            compiled = cached_compile(build_kernel(loop), tc, march)
            compiled_of[(loop, tc_name, machine)] = compiled
        march = compiled.march
        req_idx = len(requests)
        # the default-window schedule behind cycles_per_element, looked
        # up for every row in both tiers
        requests.append((march, compiled.stream))
        if point_tier == "engine":
            requests.append((march, compiled.stream, window))
        pending.append((i, compiled, march, window, point_tier, req_idx))

    results = schedule_batch(requests)

    ecm_items: list[tuple] = []
    ecm_rows: list[tuple[int, dict]] = []
    for i, compiled, march, window, point_tier, req_idx in pending:
        row = {
            "loop": specs[i][0],
            "toolchain": compiled.toolchain.name,
            "march": march.name,
            "window": window if window is not None else march.window,
            "tier": point_tier,
            "model_cycles_per_element": compiled.cycles_per_element_for(
                results[req_idx]),
        }
        machine = specs[i][4]
        if machine is not None:
            row["machine"] = machine
        if point_tier == "ecm":
            system = system_of[(specs[i][1], machine)]()
            ecm_items.append((compiled, system, window))
            ecm_rows.append((i, row))
            continue
        sched = results[req_idx + 1]
        row.update({
            "cycles_per_iter": sched.cycles_per_iter,
            "cycles_per_element": sched.cycles_per_element,
            "ipc": sched.ipc,
            "bound": sched.bound,
        })
        rows[i] = row

    if ecm_items:
        preds = predict_batch(ecm_items)
        for (i, row), pred in zip(ecm_rows, preds):
            row.update({
                "cycles_per_iter": pred.cycles_per_iter,
                "cycles_per_element": pred.cycles_per_element,
                "ipc": pred.incore.n_instrs / pred.cycles_per_iter,
                "bound": pred.bound,
            })
            rows[i] = row
    return rows  # type: ignore[return-value]

