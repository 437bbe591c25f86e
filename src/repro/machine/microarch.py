"""Per-core timing models for the CPUs studied in the paper.

Each :class:`Microarch` gives, for every abstract :class:`~repro.machine.isa.Op`,
a latency / reciprocal-throughput / pipe-set record, plus the global core
parameters the scheduler needs (issue width, out-of-order window, vector
width, clock domains).

Numbers for the A64FX come from the public *A64FX Microarchitecture Manual*
(github.com/fujitsu/A64FX); the paper itself quotes the headline ones (two
512-bit FMA pipes, 9-cycle FP latency, the blocking 134-cycle ``FSQRT``,
the 128-byte gather-coalescing window).  x86 numbers follow Agner Fog's
instruction tables for Skylake-X / KNL / Zen 2.  These are *models*: they
are accurate enough to reproduce the relative performance the paper reports
(its stated reproduction bar), not cycle-exact RTL.

Key mechanisms encoded here that the paper's results hinge on:

* A64FX peak: 2 pipes x 8 lanes x 2 flops x 1.8 GHz = 57.6 GFLOP/s/core.
* ``FSQRT``/``FDIV`` are **blocking** (non-pipelined) on A64FX — reciprocal
  throughput equals latency — which is why toolchains that select
  ``FSQRT`` (GNU, ARM v20) lose ~20x on sqrt loops while Fujitsu/Cray use
  ``FRSQRTE`` + Newton refinement (Section III).
* ``FEXPA`` exists only on SVE, enabling the 5-term exponential of
  Section IV.
* Gather loads are split into per-element transactions unless an aligned
  128-byte window covers an element pair (``gather_pair_coalescing``).
* Skylake boosts its clock for single-core runs but drops to an all-core
  AVX-512 license frequency when every core is busy — the mechanism behind
  the paper's EP scaling efficiency of ~0.7 on Skylake (Fig. 6).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from repro._util import require_positive
from repro.machine.isa import Op, Pipe, VectorISA, get_isa

__all__ = [
    "OpTiming",
    "Microarch",
    "A64FX",
    "SKYLAKE_6140",
    "SKYLAKE_6130",
    "SKYLAKE_8160",
    "KNL_7250",
    "EPYC_7742",
    "THUNDERX2",
]


@dataclass(frozen=True)
class OpTiming:
    """Timing of one operation kind on one microarchitecture.

    ``latency`` is cycles from issue to result availability; ``rtput`` is
    the reciprocal throughput in cycles the chosen pipe stays busy (1.0 for
    fully pipelined ops; equal to latency for blocking ops such as the
    A64FX ``FSQRT``).
    """

    latency: float
    rtput: float
    pipes: frozenset[Pipe]

    def __post_init__(self) -> None:
        require_positive(self.latency, "latency")
        require_positive(self.rtput, "rtput")
        if not self.pipes:
            raise ValueError("an OpTiming needs at least one pipe")


def _t(latency: float, rtput: float, *pipes: Pipe) -> OpTiming:
    return OpTiming(latency, rtput, frozenset(pipes))


#: core-key digests by (issue width, timing items): cores that share a
#: timing table (every spec-built core with equal timings) serialize and
#: hash it once, not once per core
_CORE_KEYS: dict[tuple, str] = {}
_CORE_KEYS_CAP = 4096


@dataclass(frozen=True)
class Microarch:
    """A per-core pipeline model.

    Parameters
    ----------
    name:
        Human-readable identifier (used in reports).
    vector_bits:
        SIMD register width; float64 lanes = ``vector_bits / 64``.
    clock_ghz:
        Sustained clock for single-core vector work.  The A64FX runs at a
        fixed 1.8 GHz; x86 parts boost here.
    allcore_clock_ghz:
        Clock when all cores run wide-SIMD code (AVX-512 license frequency
        on Skylake; equal to ``clock_ghz`` on A64FX/KNL).
    issue_width:
        Maximum instructions issued per cycle.
    window:
        Out-of-order scheduling window in instructions (bounds how much
        cross-iteration parallelism the scheduler may exploit).
    timings:
        Map from :class:`Op` to :class:`OpTiming`.  Spec-built cores
        share one table per distinct timing tuple
        (:mod:`repro.machine.spec`), so it must never be mutated.
    has_fexpa:
        Whether the ISA provides the ``FEXPA`` accelerator (SVE only).
    gather_pair_coalescing:
        Whether gathers merge element pairs that share an aligned 128-byte
        window into one transaction (A64FX special case, paper Section III).
    fp_pipes:
        Number of FP/SIMD pipes (for peak-FLOP computations).
    mem_overlap:
        ECM composition rule for this core (Alappat et al., arXiv
        2103.03013 / 2009.13903): ``True`` for cores that overlap in-core
        arithmetic with all data transfers (the classic x86 rule,
        ``T = max(T_OL, T_nOL + sum(T_data))``); ``False`` for the A64FX,
        whose measured single-core behaviour shows essentially **no**
        overlap between in-core work and transfers beyond L1
        (``T = T_comp + sum(T_data)``).
    isa:
        Name of the :class:`~repro.machine.isa.VectorISA` this core
        implements (a :data:`~repro.machine.isa.VECTOR_ISAS` registry
        key).  Empty for directly-constructed cores, in which case
        :attr:`vector_isa` infers an anonymous ISA from the legacy
        capability flags.
    """

    name: str
    vector_bits: int
    clock_ghz: float
    allcore_clock_ghz: float
    issue_width: int
    window: int
    timings: Mapping[Op, OpTiming]
    has_fexpa: bool = False
    gather_pair_coalescing: bool = False
    fp_pipes: int = 2
    smt: int = 1
    mem_overlap: bool = True
    isa: str = ""

    def __post_init__(self) -> None:
        require_positive(self.clock_ghz, "clock_ghz")
        require_positive(self.allcore_clock_ghz, "allcore_clock_ghz")
        if self.vector_bits % 64:
            raise ValueError("vector_bits must be a multiple of 64")
        if self.issue_width < 1 or self.window < 1:
            raise ValueError("issue_width and window must be >= 1")

    # -- derived quantities -------------------------------------------------
    @cached_property
    def core_key(self) -> str:
        """Content identity of this core's timing model (a hex digest).

        Covers what the scheduler and the ECM in-core analysis read from
        a core apart from the window: the issue width and the full op
        timing table.  The name, clocks and memory-side traits are left
        out, so cores that differ only in those share every schedule,
        table and in-core memo entry keyed on it.  Computed once per
        object, which is sound because the timing table is never
        mutated.
        """
        content = (self.issue_width, tuple(self.timings.items()))
        key = _CORE_KEYS.get(content)
        if key is None:
            rows = sorted(
                (op.value, t.latency, t.rtput,
                 sorted(p.value for p in t.pipes))
                for op, t in self.timings.items()
            )
            blob = json.dumps([self.issue_width, rows],
                              separators=(",", ":"))
            key = hashlib.sha256(blob.encode()).hexdigest()
            if len(_CORE_KEYS) >= _CORE_KEYS_CAP:
                _CORE_KEYS.clear()
            _CORE_KEYS[content] = key
        return key

    @property
    def lanes_f64(self) -> int:
        """Number of float64 lanes per vector register."""
        return self.vector_bits // 64

    def peak_gflops_core(self, allcore: bool = False) -> float:
        """Theoretical peak double-precision GFLOP/s for one core.

        ``fp_pipes`` FMA pipes x lanes x 2 flops/FMA x clock.  For the
        A64FX this reproduces the paper's 57.6 GFLOP/s/core.
        """
        clock = self.allcore_clock_ghz if allcore else self.clock_ghz
        return clock * self.fp_pipes * self.lanes_f64 * 2.0

    def timing(self, op: Op) -> OpTiming:
        """Timing-table entry for *op*; KeyError names unsupported ops."""
        try:
            return self.timings[op]
        except KeyError:
            raise KeyError(
                f"{self.name} has no timing for {op.value!r} — the code "
                "generator emitted an op this ISA does not support"
            ) from None

    def supports(self, op: Op) -> bool:
        """True when this core has a timing entry for *op*."""
        return op in self.timings

    @property
    def vector_isa(self) -> VectorISA:
        """The :class:`~repro.machine.isa.VectorISA` this core implements.

        Spec-built cores carry a registry name in :attr:`isa`; cores
        constructed directly (tests, ad-hoc experiments) get an inferred
        anonymous ISA whose traits reproduce the pre-spec behaviour of
        the legacy capability flags.
        """
        if self.isa:
            return get_isa(self.isa)
        return VectorISA(
            name="inferred",
            predicated_tail=self.has_fexpa,
            has_fexpa=self.has_fexpa,
            predicated_store_crack=self.has_fexpa,
            gather_pair_coalescing=self.gather_pair_coalescing,
            toolchain_targets=("sve",) if self.has_fexpa else ("x86",),
        )


# ---------------------------------------------------------------------------
# The paper's cores.  Since the machine-description refactor the numbers
# live as declarative data in :mod:`repro.machine.spec` (same values,
# same provenance); these constants are the cached builds of those
# presets, so ``A64FX is A64FX_SPEC.build_core()`` holds.
# ---------------------------------------------------------------------------

from repro.machine import spec as _spec  # noqa: E402  (bottom import breaks the import cycle)

#: A64FX (Ookami compute node CPU) — 48 cores, 512-bit SVE, 1.8 GHz fixed
A64FX = _spec.A64FX_SPEC.build_core()

# Skylake-SP family.  Three SKUs appear in the paper: Gold 6140 (loop and
# NPB comparisons; 2.3 base / 3.7 boost), Gold 6130 (LULESH system), and
# Platinum 8160 (TACC Stampede 2, 1.4 GHz AVX-512 all-core).
SKYLAKE_6140 = _spec.SKYLAKE_6140_SPEC.build_core()
SKYLAKE_6130 = _spec.SKYLAKE_6130_SPEC.build_core()
SKYLAKE_8160 = _spec.SKYLAKE_8160_SPEC.build_core()

#: Knights Landing: 512-bit AVX-512 but simple 2-wide cores with tiny
#: OoO resources; FP latency 6 and weak scalar units
KNL_7250 = _spec.KNL_7250_SPEC.build_core()

#: AMD EPYC 7742 (Zen 2): 256-bit AVX2, 2 FMA pipes, strong scalar core
EPYC_7742 = _spec.EPYC_7742_SPEC.build_core()

#: Marvell ThunderX2 (Ookami login nodes): ARMv8 + 128-bit NEON, high
#: scalar throughput.  Included for completeness of the system catalog.
THUNDERX2 = _spec.THUNDERX2_SPEC.build_core()

