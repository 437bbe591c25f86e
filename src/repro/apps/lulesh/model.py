"""Table II / Figure 7: LULESH timing model per toolchain.

The paper times LULESH 1.0 ("Base") and a Sandy-Bridge-era vectorized
port ("Vect"), single-thread ("st") and all cores ("mt"), on five
toolchains.  The mechanisms that shape Table II:

* **Base is scalar everywhere** — the reference code's element loops and
  gather/scatter accumulation defeat all vectorizers, so every A64FX
  compiler lands at the machine's scalar rate (the four Base(st) entries
  agree to 1%: 2.030-2.055 s) and Intel's advantage (0.395 s) is the
  scalar-latency x clock gap this model derives.
* **Vect vectorizes part of the work** — element-local arithmetic
  vectorizes, the nodal scatter/accumulate and EOS branches stay scalar,
  so Vect(st) improves by ~1.3-1.6x, ordered by SIMD codegen quality.
* **mt = OpenMP at full node** — 48 threads on A64FX (fixed clock) vs 32
  on the 6130 (AVX clock derate), with LULESH's modest working set
  keeping it compute-bound.
"""

from __future__ import annotations

from repro._util import require_in
from repro.compilers.toolchains import TOOLCHAINS, Toolchain, get_toolchain
from repro.kernels.workload import Workload, parallel_run, serial_seconds
from repro.machine.systems import System, get_system

__all__ = ["LULESH_BASE", "LULESH_VECT", "lulesh_time", "table2_rows", "TABLE2_PAPER"]

# Calibrated so the A64FX scalar rate reproduces Base(st) ~= 2.05 s:
# the run executes ~1.64e9 scalar-equivalent flops (45^3-element problem,
# ~few hundred cycles to a converged Sedov state).
_FLOPS = 1.64e9
_TRAFFIC = 4.0e9  # bytes; LULESH's working set is cache-unfriendly but small

LULESH_BASE = Workload(
    name="LULESH-base",
    flops=_FLOPS,
    vector_fraction=0.0,
    contig_bytes=_TRAFFIC,
    parallel_fraction=0.995,
    regions=400.0,       # ~8 parallel regions x ~50 time steps
    imbalance=0.15,
)

LULESH_VECT = Workload(
    name="LULESH-vect",
    flops=_FLOPS,
    vector_fraction=0.40,   # element-local arithmetic; scatters stay scalar
    vec_efficiency=0.30,
    contig_bytes=_TRAFFIC,
    parallel_fraction=0.995,
    regions=400.0,
    imbalance=0.15,
)

#: Table II as printed in the paper (seconds), for EXPERIMENTS.md
TABLE2_PAPER: dict[tuple[str, str], dict[str, float]] = {
    ("arm", "base"): {"st": 2.030, "mt": 0.0661},
    ("arm", "vect"): {"st": 1.575, "mt": 0.0359},
    ("cray", "base"): {"st": 2.055, "mt": 0.0677},
    ("cray", "vect"): {"st": 1.310, "mt": 0.0298},
    ("fujitsu", "base"): {"st": 2.052, "mt": 0.0662},
    ("fujitsu", "vect"): {"st": 1.359, "mt": 0.0361},
    ("gnu", "base"): {"st": 2.054, "mt": 0.0674},
    ("gnu", "vect"): {"st": 1.533, "mt": 0.0351},
    ("intel", "base"): {"st": 0.395, "mt": 0.0355},
    ("intel", "vect"): {"st": 0.260, "mt": 0.0154},
}


def _system_for(toolchain: Toolchain) -> System:
    """Intel ran on the 32-core Skylake 6130 node; the rest on Ookami."""
    return get_system("skylake-6130" if toolchain.target == "x86" else "ookami")


def lulesh_time(
    toolchain_name: str, variant: str = "base", mt: bool = False
) -> float:
    """Modeled LULESH runtime (seconds) for a Table II cell."""
    require_in(variant, ("base", "vect"), "variant")
    tc = get_toolchain(toolchain_name)
    system = _system_for(tc)
    work = LULESH_BASE if variant == "base" else LULESH_VECT
    if not mt:
        return serial_seconds(work, system, tc)
    threads = system.cores
    return parallel_run(work, system, tc, threads).seconds


def _table2_row(name: str) -> dict[str, object]:
    """One compiler's Table II row (top-level: sweep-dispatchable)."""
    tc = TOOLCHAINS[name]
    row: dict[str, object] = {
        "compiler": name,
        "version": tc.version,
        "flags": tc.flags,
    }
    for variant in ("base", "vect"):
        for mode, mt in (("st", False), ("mt", True)):
            key = f"{variant}_{mode}"
            row[key] = lulesh_time(name, variant, mt=mt)
            row[f"paper_{key}"] = TABLE2_PAPER[(name, variant)][mode]
    return row


def table2_rows() -> list[dict[str, object]]:
    """All Table II rows: modeled vs paper values.

    The per-compiler cells share math-loop schedules through the
    content-addressed cache (:mod:`repro.engine.cache`)."""
    return [_table2_row(name)
            for name in ("arm", "cray", "fujitsu", "gnu", "intel")]
