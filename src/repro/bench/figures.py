"""One generator per paper table/figure.

Every function returns ``list[dict]`` rows ready for
:func:`repro._util.format_table`; the benchmark suite under
``benchmarks/`` calls these and compares against
:mod:`repro.bench.expected`.
"""

from __future__ import annotations

import numpy as np

from repro._util import format_table
from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS, get_toolchain
from repro.engine.scheduler import PipelineScheduler
from repro.kernels.loops import LOOP_NAMES, MATH_LOOP_NAMES, build_loop
from repro.kernels.workload import parallel_run, serial_seconds
from repro.machine.isa import Instruction, InstructionStream, Op
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.machine.numa import PagePlacement
from repro.machine.systems import SYSTEMS, get_system
from repro.npb.workloads import NPB_WORKLOADS, PARALLEL_FACTORS

__all__ = [
    "table1_flags",
    "fig1_loop_suite",
    "fig2_math_suite",
    "sec4_exp_study",
    "fig3_npb_serial",
    "fig4_npb_fullnode",
    "fig5_scaling_a64fx",
    "fig6_scaling_skylake",
    "table2_lulesh",
    "fig7_lulesh",
    "table3_systems",
    "fig8_dgemm",
    "fig9_hpl",
    "fig9_fft",
]

_A64FX_TCS = ("fujitsu", "cray", "arm", "gnu")


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


def table1_flags() -> list[dict]:
    """Table I: compiler versions and flags."""
    order = ("fujitsu", "arm", "cray", "gnu", "intel")
    return [
        {
            "compiler": name,
            "version": TOOLCHAINS[name].version,
            "flags": TOOLCHAINS[name].flags,
        }
        for name in order
    ]


# ---------------------------------------------------------------------------
# Figures 1 & 2: the loop suite
# ---------------------------------------------------------------------------


def _loop_row_block(name: str) -> list[dict]:
    """All Fig. 1/2 rows for one loop (top-level: sweep-dispatchable)."""
    rows = []
    loop = build_loop(name)
    intel = compile_loop(loop, TOOLCHAINS["intel"], SKYLAKE_6140)
    t_skl = intel.cycles_per_element / SKYLAKE_6140.clock_ghz  # ns/elem
    for tc in _A64FX_TCS:
        compiled = compile_loop(loop, TOOLCHAINS[tc], A64FX)
        t = compiled.cycles_per_element / A64FX.clock_ghz
        rows.append(
            {
                "loop": name,
                "toolchain": tc,
                "cycles_per_elem": compiled.cycles_per_element,
                "ns_per_elem": t,
                "rel_skylake": t / t_skl,
                "vectorized": compiled.report.vectorized,
            }
        )
    rows.append(
        {
            "loop": name,
            "toolchain": "intel",
            "cycles_per_elem": intel.cycles_per_element,
            "ns_per_elem": t_skl,
            "rel_skylake": 1.0,
            "vectorized": intel.report.vectorized,
        }
    )
    return rows


def _loop_rows(loops: tuple[str, ...]) -> list[dict]:
    return [row for name in loops for row in _loop_row_block(name)]


def fig1_loop_suite(loops: tuple[str, ...] = LOOP_NAMES) -> list[dict]:
    """Fig. 1: simple/predicate/gather/scatter/short-* runtimes relative
    to Skylake + Intel."""
    return _loop_rows(loops)


def fig2_math_suite(loops: tuple[str, ...] = MATH_LOOP_NAMES) -> list[dict]:
    """Fig. 2: vectorized math-function runtimes relative to Skylake."""
    return _loop_rows(loops)


# ---------------------------------------------------------------------------
# Section IV: the exponential function study
# ---------------------------------------------------------------------------


def _exp_kernel_stream(
    recipe: str, unroll: int, vla: bool
) -> InstructionStream:
    """Hand-built exp loop (the paper's Section IV kernel experiments)."""
    from repro.mathlib.vectormath import build_recipe

    body: list[Instruction] = []
    for copy in range(unroll):
        body.append(Instruction(Op.VLOAD, f"x{copy}", tag="load x"))
        body.extend(
            build_recipe(recipe, A64FX, [f"x{copy}"], f"y{copy}", f"e{copy}")
        )
        body.append(Instruction(Op.VSTORE, "", (f"y{copy}",), tag="store y"))
    body.append(Instruction(Op.SALU, "ptr", tag="advance"))
    if vla:
        body.append(Instruction(Op.PWHILE, "pred", tag="whilelt"))
        body.append(Instruction(Op.BRANCH, "", ("pred",), tag="b.first"))
    else:
        body.append(Instruction(Op.SALU, "cnt", tag="cmp"))
        body.append(Instruction(Op.BRANCH, "", ("cnt",), tag="b.lt"))
    return InstructionStream(
        body=body, elements_per_iter=A64FX.lanes_f64 * unroll,
        label=f"{recipe}/u{unroll}/{'vla' if vla else 'fixed'}",
    )


def sec4_exp_study(ulp_samples: int = 200_000) -> list[dict]:
    """Section IV: cycles/element and measured ULP error of the
    exponential-function implementations."""
    from repro.mathlib.exp import exp_fexpa, exp_plain
    from repro.mathlib.ulp import max_ulp_error

    rng = np.random.default_rng(2021)
    x = rng.uniform(-700.0, 700.0, ulp_samples)
    exact = np.exp(x)

    sched = PipelineScheduler(A64FX)

    rows: list[dict] = []

    def kernel_row(label: str, recipe: str, unroll: int, vla: bool,
                   ulp: float | None) -> None:
        res = sched.steady_state(_exp_kernel_stream(recipe, unroll, vla))
        rows.append(
            {
                "impl": label,
                "cycles_per_elem": res.cycles_per_element,
                "max_ulp": ulp if ulp is not None else float("nan"),
                "bound": res.bound,
            }
        )

    ulp_fexpa_estrin = max_ulp_error(exp_fexpa(x, scheme="estrin"), exact)
    ulp_fexpa_horner = max_ulp_error(exp_fexpa(x, scheme="horner"), exact)
    ulp_fexpa_refined = max_ulp_error(exp_fexpa(x, refined=True), exact)
    ulp_plain = max_ulp_error(exp_plain(x), exact)

    kernel_row("fexpa-vla (paper kernel)", "exp_fexpa_estrin", 1, True,
               ulp_fexpa_estrin)
    kernel_row("fexpa-fixed", "exp_fexpa_estrin", 1, False, ulp_fexpa_estrin)
    kernel_row("fexpa-unrolled-x2", "exp_fexpa_estrin", 2, True,
               ulp_fexpa_estrin)
    kernel_row("fexpa-horner", "exp_fexpa_horner", 1, True, ulp_fexpa_horner)

    # library implementations via the compiled exp loop
    loop = build_loop("exp")
    for tc in _A64FX_TCS:
        compiled = compile_loop(loop, TOOLCHAINS[tc], A64FX)
        rows.append(
            {
                "impl": f"{tc} library"
                + (" (scalar libm)" if not compiled.report.vectorized else ""),
                "cycles_per_elem": compiled.cycles_per_element,
                "max_ulp": ulp_plain if tc != "fujitsu" else ulp_fexpa_estrin,
                "bound": compiled.schedule.bound,
            }
        )
    intel = compile_loop(loop, TOOLCHAINS["intel"], SKYLAKE_6140)
    rows.append(
        {
            "impl": "intel svml (skylake)",
            "cycles_per_elem": intel.cycles_per_element,
            "max_ulp": ulp_plain,
            "bound": intel.schedule.bound,
        }
    )
    rows.append(
        {
            "impl": "fexpa-refined (corrected last FMA)",
            "cycles_per_elem": rows[0]["cycles_per_elem"] + 0.25,
            "max_ulp": ulp_fexpa_refined,
            "bound": "estimated (+0.25 cyc/elem, Sec. IV)",
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Figures 3-6: NPB
# ---------------------------------------------------------------------------


def _fig3_bench_rows(bench: str) -> list[dict]:
    """Fig. 3 rows for one NPB benchmark (top-level: sweep-dispatchable).

    Each compiler's serial run bottoms out in the schedule cache via
    ``math_cycles_per_call`` → ``compile_loop`` → ``schedule_on``, so
    compilers emitting identical math-loop streams share schedules."""
    ook = get_system("ookami")
    skl = get_system("skylake")
    work = NPB_WORKLOADS[bench]
    rows = []
    icc = serial_seconds(work, skl, TOOLCHAINS["intel"])
    for tc in _A64FX_TCS:
        t = serial_seconds(work, ook, TOOLCHAINS[tc])
        rows.append(
            {"bench": bench, "toolchain": tc, "seconds": t,
             "rel_icc": t / icc}
        )
    rows.append(
        {"bench": bench, "toolchain": "intel", "seconds": icc,
         "rel_icc": 1.0}
    )
    return rows


def fig3_npb_serial() -> list[dict]:
    """Fig. 3: single-core class C runtimes per compiler."""
    return [row for bench in NPB_WORKLOADS for row in _fig3_bench_rows(bench)]


def fig4_npb_fullnode() -> list[dict]:
    """Fig. 4: full-node runtimes (48 threads on A64FX, 36 on Skylake),
    including the ``fujitsu-first-touch`` configuration."""
    ook = get_system("ookami")
    skl = get_system("skylake")
    rows = []
    for bench, work in NPB_WORKLOADS.items():
        pf = PARALLEL_FACTORS.get(bench, {})
        for tc in _A64FX_TCS:
            t = parallel_run(
                work, ook, TOOLCHAINS[tc], 48,
                parallel_factor=pf.get(tc, 1.0),
            ).seconds
            rows.append({"bench": bench, "config": tc, "seconds": t})
        t_ft = parallel_run(
            work, ook, TOOLCHAINS["fujitsu"], 48,
            placement=PagePlacement.FIRST_TOUCH,
            parallel_factor=pf.get("fujitsu", 1.0),
        ).seconds
        rows.append({"bench": bench, "config": "fujitsu-first-touch",
                     "seconds": t_ft})
        t_icc = parallel_run(work, skl, TOOLCHAINS["intel"], 36).seconds
        rows.append({"bench": bench, "config": "intel/skylake",
                     "seconds": t_icc})
    return rows


def fig5_scaling_a64fx(
    threads: tuple[int, ...] = (1, 2, 4, 8, 12, 16, 24, 32, 48)
) -> list[dict]:
    """Fig. 5: parallel efficiency on A64FX with GCC."""
    ook = get_system("ookami")
    rows = []
    for bench, work in NPB_WORKLOADS.items():
        for p in threads:
            eff = parallel_run(work, ook, TOOLCHAINS["gnu"], p).efficiency
            rows.append({"bench": bench, "threads": p, "efficiency": eff})
    return rows


def fig6_scaling_skylake(
    threads: tuple[int, ...] = (1, 2, 4, 8, 12, 18, 24, 36)
) -> list[dict]:
    """Fig. 6: parallel efficiency on Skylake with icc."""
    skl = get_system("skylake")
    rows = []
    for bench, work in NPB_WORKLOADS.items():
        for p in threads:
            eff = parallel_run(work, skl, TOOLCHAINS["intel"], p).efficiency
            rows.append({"bench": bench, "threads": p, "efficiency": eff})
    return rows


# ---------------------------------------------------------------------------
# Table II / Figure 7: LULESH
# ---------------------------------------------------------------------------


def table2_lulesh() -> list[dict]:
    """Table II: LULESH timings, modeled vs paper."""
    from repro.apps.lulesh.model import table2_rows

    return table2_rows()


def fig7_lulesh() -> list[dict]:
    """Fig. 7: the same data arranged as the chart's series."""
    rows = []
    for r in table2_lulesh():
        for variant in ("base", "vect"):
            for mode in ("st", "mt"):
                rows.append(
                    {
                        "compiler": r["compiler"],
                        "series": f"{variant}({mode})",
                        "seconds": r[f"{variant}_{mode}"],
                        "paper_seconds": r[f"paper_{variant}_{mode}"],
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Table III and Figures 8-9: HPCC
# ---------------------------------------------------------------------------


def table3_systems() -> list[dict]:
    """Table III: specifications, derived from the machine models."""
    keys = ("ookami", "stampede2-skx", "stampede2-knl", "bridges2", "expanse")
    rows = []
    for key in keys:
        s = SYSTEMS[key]
        rows.append(
            {
                "system": s.name,
                "simd": s.simd_label,
                "cores_per_node": s.cores,
                "base_ghz": s.table3_base_ghz,
                "peak_gflops_core": round(s.peak_gflops_core, 1),
                "peak_gflops_node": round(s.peak_gflops_node),
            }
        )
    return rows


#: the Figure 8 / 9 (system, library) pairs
_HPCC_LA_PAIRS = (
    ("ookami", "fujitsu-blas"),
    ("ookami", "armpl"),
    ("ookami", "cray-libsci"),
    ("ookami", "openblas"),
    ("skx", "mkl-skx"),
    ("knl", "mkl-knl"),
    ("bridges2", "blis-zen2"),
    ("expanse", "blis-zen2"),
)

_HPCC_FFT_PAIRS = (
    ("ookami", "fujitsu-fftw"),
    ("ookami", "cray-fftw"),
    ("ookami", "fftw"),
    ("ookami", "armpl"),
    ("skx", "mkl-skx"),
    ("knl", "mkl-knl"),
    ("bridges2", "blis-zen2"),
)


def fig8_dgemm() -> list[dict]:
    """Fig. 8: DGEMM GFLOP/s per core with percent of peak."""
    from repro.hpcc.dgemm import dgemm_rate_gflops

    rows = []
    for sys_key, lib_key in _HPCC_LA_PAIRS:
        p = dgemm_rate_gflops(sys_key, lib_key)
        rows.append(
            {
                "system": sys_key,
                "library": lib_key,
                "gflops_per_core": p.gflops_per_core,
                "percent_of_peak": p.percent_of_peak,
            }
        )
    return rows


def fig9_hpl(nodes: tuple[int, ...] = (1, 2, 4, 8)) -> list[dict]:
    """Fig. 9A/9B: HPL rates, single and multi node."""
    from repro.hpcc.hpl import hpl_rate_gflops

    return [
        {"system": sys_key, "library": lib_key, "nodes": n,
         "gflops": hpl_rate_gflops(sys_key, lib_key, nodes=n)}
        for sys_key, lib_key in _HPCC_LA_PAIRS
        for n in nodes
        # the multi-node panel compares Ookami stacks
        if n == 1 or sys_key in ("ookami",)
    ]


def fig9_fft(nodes: tuple[int, ...] = (1, 2, 4, 8)) -> list[dict]:
    """Fig. 9C/9D: FFT rates, single and multi node."""
    from repro.hpcc.fft import fft_rate_gflops

    return [
        {"system": sys_key, "library": lib_key, "nodes": n,
         "gflops": fft_rate_gflops(sys_key, lib_key, nodes=n)}
        for sys_key, lib_key in _HPCC_FFT_PAIRS
        for n in nodes
        if n == 1 or sys_key in ("ookami",)
    ]
