"""Per-point oracle for sweep rows.

The independent composition a batched sweep row must equal:
``compile_loop`` (no compile cache) → ``schedule_on`` for the engine
tier or ``predict_compiled`` for the ECM tier, one point at a time, on
the target the point names — the paper's default A64FX / Skylake 6140
pairing, or a catalog machine preset.
"""

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import get_toolchain
from repro.ecm.model import predict_compiled
from repro.engine.scheduler import schedule_on
from repro.engine.sweep import SweepPoint
from repro.kernels.catalog import build_kernel
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.machine.spec import get_machine_spec
from repro.machine.systems import get_system
from repro.perf.profile import default_system_for


def oracle_row(point):
    """One sweep point composed from the per-point prediction APIs."""
    if not isinstance(point, SweepPoint):
        point = SweepPoint(*point)
    tc = get_toolchain(point.toolchain)
    if point.machine is not None:
        spec = get_machine_spec(point.machine)
        march, system_of = spec.build_core(), spec.build_system
    else:
        march = SKYLAKE_6140 if tc.target == "x86" else A64FX

        def system_of():
            return get_system(default_system_for(point.toolchain))

    compiled = compile_loop(build_kernel(point.loop), tc, march)
    row = {
        "loop": point.loop,
        "toolchain": tc.name,
        "march": march.name,
        "window": point.window if point.window is not None
        else march.window,
        "tier": point.tier,
        "model_cycles_per_element": compiled.cycles_per_element,
    }
    if point.machine is not None:
        row["machine"] = point.machine
    if point.tier == "ecm":
        pred = predict_compiled(compiled, system_of(), window=point.window)
        row.update({
            "cycles_per_iter": pred.cycles_per_iter,
            "cycles_per_element": pred.cycles_per_element,
            "ipc": pred.incore.n_instrs / pred.cycles_per_iter,
            "bound": pred.bound,
        })
        return row
    sched = schedule_on(march, compiled.stream, point.window)
    row.update({
        "cycles_per_iter": sched.cycles_per_iter,
        "cycles_per_element": sched.cycles_per_element,
        "ipc": sched.ipc,
        "bound": sched.bound,
    })
    return row


def oracle_rows(points) -> list[dict]:
    """Rows for *points*, composed one point at a time."""
    return [oracle_row(p) for p in points]
