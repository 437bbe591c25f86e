"""Declarative machine descriptions: machines as data, not code.

A :class:`MachineSpec` is a pure-data record — strings, numbers and
tuples only — that fully describes one machine: the vector ISA (by
:data:`~repro.machine.isa.VECTOR_ISAS` registry name), vector length,
issue width, out-of-order window, the complete per-op timing table
(port map + pipe latencies), and optionally the cache/HBM geometry,
NUMA topology and interconnect of a full node.  Every spec serializes
to and from JSON (:meth:`MachineSpec.to_dict` /
:meth:`MachineSpec.from_dict`, format :data:`SPEC_FORMAT`) and builds
the executable model objects on demand:

* :meth:`MachineSpec.build_core` → a
  :class:`~repro.machine.microarch.Microarch` consumed by the code
  generator, the scheduling engine and the ECM in-core analysis;
* :meth:`MachineSpec.build_system` → a
  :class:`~repro.machine.systems.System` consumed by the ECM traffic
  model and the executor.

Builds are cached per (value-equal) spec, so two equal specs — e.g.
one round-tripped through JSON — resolve to the *same* ``Microarch``
object, and cores built from equal timing tuples share one timing
table.  The engines key their memos on a core's content
(:attr:`~repro.machine.microarch.Microarch.core_key`), not on its name
or object identity.

The paper's machines are presets here (:data:`MACHINE_SPECS`):
``repro.machine.microarch.A64FX`` and friends are now *built from*
:data:`A64FX_SPEC` etc., with the numbers bit-identical to the
original in-code tables (the golden/fuzz suites and
``tests/machine/test_spec.py`` enforce this).  :func:`grid_variants`
and :func:`grid_specs` enumerate hypothetical machines across the
vector-length x issue-width x cache/HBM-geometry design space for
``repro sweep --grid`` (see :mod:`repro.machine.grid`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

from repro._util import KIB, MIB, require_positive
from repro.machine.isa import Op, Pipe, VECTOR_ISAS, VectorISA, get_isa

__all__ = [
    "SPEC_FORMAT",
    "OpTimingSpec",
    "CacheLevelSpec",
    "MemorySpec",
    "TopologySpec",
    "InterconnectSpec",
    "MachineSpec",
    "MACHINE_SPECS",
    "A64FX_SPEC",
    "SKYLAKE_6140_SPEC",
    "SKYLAKE_6130_SPEC",
    "SKYLAKE_8160_SPEC",
    "KNL_7250_SPEC",
    "EPYC_7742_SPEC",
    "THUNDERX2_SPEC",
    "RVV_SPEC",
    "get_machine_spec",
    "grid_variants",
    "grid_specs",
    "clear_build_caches",
]

#: version tag carried by every serialized machine spec
SPEC_FORMAT = "repro.machine-spec/1"

_OP_NAMES = {op.value for op in Op}
_PIPE_NAMES = {pipe.value for pipe in Pipe}


@dataclass(frozen=True)
class OpTimingSpec:
    """Timing of one abstract op, by name: latency / rtput / pipe set."""

    op: str
    latency: float
    rtput: float
    pipes: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.op not in _OP_NAMES:
            raise ValueError(f"unknown op {self.op!r}")
        require_positive(self.latency, "latency")
        require_positive(self.rtput, "rtput")
        if not self.pipes:
            raise ValueError(f"op {self.op!r} needs at least one pipe")
        for pipe in self.pipes:
            if pipe not in _PIPE_NAMES:
                raise ValueError(f"op {self.op!r}: unknown pipe {pipe!r}")


@dataclass(frozen=True)
class CacheLevelSpec:
    """One cache level of a memory geometry, as data."""

    name: str
    capacity: int
    line: int
    assoc: int
    latency: float
    bw_bytes_per_cycle: float
    shared_by: int = 1

    def __post_init__(self) -> None:
        require_positive(self.capacity, "capacity")
        require_positive(self.line, "line")
        require_positive(self.assoc, "assoc")
        require_positive(self.latency, "latency")
        require_positive(self.bw_bytes_per_cycle, "bw_bytes_per_cycle")
        require_positive(self.shared_by, "shared_by")


@dataclass(frozen=True)
class MemorySpec:
    """Cache levels plus DRAM/HBM geometry of one NUMA domain."""

    levels: tuple[CacheLevelSpec, ...]
    dram_bw_gbs: float
    dram_latency_ns: float
    cores_per_domain: int
    domains: int
    mlp: int
    stream_bw_core_gbs: float = 12.0

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a MemorySpec needs at least one cache level")
        require_positive(self.dram_bw_gbs, "dram_bw_gbs")
        require_positive(self.dram_latency_ns, "dram_latency_ns")
        require_positive(self.cores_per_domain, "cores_per_domain")
        require_positive(self.domains, "domains")
        require_positive(self.mlp, "mlp")
        require_positive(self.stream_bw_core_gbs, "stream_bw_core_gbs")


@dataclass(frozen=True)
class TopologySpec:
    """NUMA/CMG topology parameters, as data."""

    domains: int
    cores_per_domain: int
    local_bw_gbs: float
    remote_bw_gbs: float
    remote_latency_factor: float = 1.6

    def __post_init__(self) -> None:
        require_positive(self.domains, "domains")
        require_positive(self.cores_per_domain, "cores_per_domain")
        require_positive(self.local_bw_gbs, "local_bw_gbs")
        require_positive(self.remote_bw_gbs, "remote_bw_gbs")
        require_positive(self.remote_latency_factor, "remote_latency_factor")


@dataclass(frozen=True)
class InterconnectSpec:
    """Alpha-beta interconnect parameters, as data."""

    name: str
    latency_us: float
    bw_gbs: float

    def __post_init__(self) -> None:
        require_positive(self.latency_us, "latency_us")
        require_positive(self.bw_gbs, "bw_gbs")


@dataclass(frozen=True)
class MachineSpec:
    """A complete machine description in plain data.

    ``isa`` names a :class:`~repro.machine.isa.VectorISA`; the
    ISA-derived lowering flags (``has_fexpa``,
    ``gather_pair_coalescing``) default from the registry entry and can
    be overridden per machine (gather pair coalescing is an A64FX core
    feature, not an SVE guarantee).  ``memory``/``topology``/
    ``interconnect`` are optional: core-only specs (ThunderX2) build a
    :class:`~repro.machine.microarch.Microarch` but refuse
    :meth:`build_system`.

    Construction *is* validation: every field is range-checked and the
    timing table must cover the full op vocabulary the code generator
    can emit (``fexpa`` exactly when the machine has the accelerator),
    so a spec that constructs — including one drawn by the fuzzer —
    always builds a schedulable machine.
    """

    name: str
    isa: str
    vector_bits: int
    clock_ghz: float
    allcore_clock_ghz: float
    issue_width: int
    window: int
    timings: tuple[OpTimingSpec, ...]
    fp_pipes: int = 2
    smt: int = 1
    mem_overlap: bool = True
    has_fexpa: bool | None = None
    gather_pair_coalescing: bool | None = None
    cores: int = 1
    memory: MemorySpec | None = None
    topology: TopologySpec | None = None
    interconnect: InterconnectSpec | None = None
    system_name: str = ""
    simd_label: str = ""
    table3_base_ghz: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a MachineSpec needs a name")
        if self.isa not in VECTOR_ISAS:
            raise ValueError(
                f"unknown vector ISA {self.isa!r}; "
                f"available: {sorted(VECTOR_ISAS)}"
            )
        if self.vector_bits % 64 or self.vector_bits <= 0:
            raise ValueError("vector_bits must be a positive multiple of 64")
        require_positive(self.clock_ghz, "clock_ghz")
        require_positive(self.allcore_clock_ghz, "allcore_clock_ghz")
        if self.issue_width < 1 or self.window < 1:
            raise ValueError("issue_width and window must be >= 1")
        require_positive(self.fp_pipes, "fp_pipes")
        require_positive(self.smt, "smt")
        require_positive(self.cores, "cores")
        # canonical op order, so specs equal in content are equal as
        # values (and share one cached build) however they were written
        object.__setattr__(
            self, "timings",
            tuple(sorted(self.timings, key=lambda t: t.op)),
        )
        seen: set[str] = set()
        for t in self.timings:
            if t.op in seen:
                raise ValueError(f"duplicate timing for op {t.op!r}")
            seen.add(t.op)
        required = _OP_NAMES - {Op.FEXPA.value}
        missing = required - seen
        if missing:
            raise ValueError(
                f"{self.name}: timing table is missing ops "
                f"{sorted(missing)}"
            )
        if self.resolved_has_fexpa != (Op.FEXPA.value in seen):
            raise ValueError(
                f"{self.name}: a machine has a {Op.FEXPA.value!r} timing "
                "exactly when it has the FEXPA accelerator"
            )
        if (self.topology is not None
                and self.cores != self.topology.domains
                * self.topology.cores_per_domain):
            raise ValueError(
                f"{self.name}: cores={self.cores} disagrees with the "
                "topology's domains x cores_per_domain"
            )

    # -- ISA resolution -----------------------------------------------------
    @property
    def vector_isa(self) -> VectorISA:
        """The registry :class:`~repro.machine.isa.VectorISA` entry."""
        return VECTOR_ISAS[self.isa]

    @property
    def resolved_has_fexpa(self) -> bool:
        """``has_fexpa`` with the ISA default applied."""
        if self.has_fexpa is None:
            return self.vector_isa.has_fexpa
        return self.has_fexpa

    @property
    def resolved_gather_pair_coalescing(self) -> bool:
        """``gather_pair_coalescing`` with the ISA default applied.

        An ISA without a coalescing gather form can never coalesce, so
        the ISA capability bounds the per-machine override.
        """
        if self.gather_pair_coalescing is None:
            return self.vector_isa.gather_pair_coalescing
        return (self.gather_pair_coalescing
                and self.vector_isa.gather_pair_coalescing)

    @property
    def has_system(self) -> bool:
        """True when the spec describes a full node, not just a core."""
        return (self.memory is not None and self.topology is not None
                and self.interconnect is not None)

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize to a JSON-safe dict (format :data:`SPEC_FORMAT`)."""
        doc = asdict(self)
        doc["timings"] = {
            t.op: {"latency": t.latency, "rtput": t.rtput,
                   "pipes": list(t.pipes)}
            for t in self.timings
        }
        for key in ("memory", "topology", "interconnect"):
            if doc[key] is not None:
                doc[key] = {
                    k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in doc[key].items()
                }
        if doc["memory"] is not None:
            doc["memory"]["levels"] = [
                asdict(level) for level in self.memory.levels
            ]
        return {"format": SPEC_FORMAT, **doc}

    @classmethod
    def from_dict(cls, doc: dict) -> "MachineSpec":
        """Rebuild a spec from :meth:`to_dict` output (validating)."""
        doc = dict(doc)
        fmt = doc.pop("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ValueError(
                f"unsupported machine-spec format {fmt!r} "
                f"(expected {SPEC_FORMAT!r})"
            )
        timings = tuple(
            OpTimingSpec(op=op, latency=t["latency"], rtput=t["rtput"],
                         pipes=tuple(t["pipes"]))
            for op, t in doc.pop("timings").items()
        )
        memory = doc.pop("memory", None)
        if memory is not None:
            memory = MemorySpec(
                levels=tuple(CacheLevelSpec(**lvl)
                             for lvl in memory.pop("levels")),
                **memory,
            )
        topology = doc.pop("topology", None)
        if topology is not None:
            topology = TopologySpec(**topology)
        interconnect = doc.pop("interconnect", None)
        if interconnect is not None:
            interconnect = InterconnectSpec(**interconnect)
        return cls(timings=timings, memory=memory, topology=topology,
                   interconnect=interconnect, **doc)

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MachineSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # -- builders -----------------------------------------------------------
    def build_core(self):
        """The :class:`~repro.machine.microarch.Microarch` this spec
        describes (cached: equal specs share one object)."""
        return _build_core(self)

    def build_system(self, name: str | None = None):
        """The full :class:`~repro.machine.systems.System` (cached).

        ``name`` overrides the system label (two Table III systems —
        Bridges 2 and Expanse — share one machine spec).  Raises
        ``ValueError`` for core-only specs.
        """
        return _build_system(self, name)


@lru_cache(maxsize=None)
def _timing_table(timings: tuple[OpTimingSpec, ...]) -> dict:
    """The ``Op -> OpTiming`` table for one spec timing tuple.

    Interned: every core built from equal timings shares this one dict
    (the 1000-machine default grid builds 3 tables, not 1000), so callers
    must never mutate it.  A plain dict rather than a read-only proxy,
    because cores are pickled to shard workers.
    """
    from repro.machine.microarch import OpTiming

    return {
        Op(t.op): OpTiming(t.latency, t.rtput,
                           frozenset(Pipe(p) for p in t.pipes))
        for t in timings
    }


@lru_cache(maxsize=None)
def _build_core(spec: MachineSpec):
    from repro.machine.microarch import Microarch

    return Microarch(
        name=spec.name,
        vector_bits=spec.vector_bits,
        clock_ghz=spec.clock_ghz,
        allcore_clock_ghz=spec.allcore_clock_ghz,
        issue_width=spec.issue_width,
        window=spec.window,
        timings=_timing_table(spec.timings),
        has_fexpa=spec.resolved_has_fexpa,
        gather_pair_coalescing=spec.resolved_gather_pair_coalescing,
        fp_pipes=spec.fp_pipes,
        smt=spec.smt,
        mem_overlap=spec.mem_overlap,
        isa=spec.isa,
    )


@lru_cache(maxsize=None)
def _build_system(spec: MachineSpec, name: str | None):
    from repro.machine.memory import CacheLevel, MemoryHierarchy
    from repro.machine.numa import CMGTopology
    from repro.machine.systems import Interconnect, System

    if not spec.has_system:
        raise ValueError(
            f"{spec.name} is a core-only spec (no memory/topology/"
            "interconnect); it cannot build a System"
        )
    assert spec.memory is not None
    assert spec.topology is not None
    assert spec.interconnect is not None
    hierarchy = MemoryHierarchy(
        levels=tuple(
            CacheLevel(lvl.name, lvl.capacity, lvl.line, lvl.assoc,
                       latency=lvl.latency,
                       bw_bytes_per_cycle=lvl.bw_bytes_per_cycle,
                       shared_by=lvl.shared_by)
            for lvl in spec.memory.levels
        ),
        dram_bw_gbs=spec.memory.dram_bw_gbs,
        dram_latency_ns=spec.memory.dram_latency_ns,
        cores_per_domain=spec.memory.cores_per_domain,
        domains=spec.memory.domains,
        mlp=spec.memory.mlp,
        stream_bw_core_gbs=spec.memory.stream_bw_core_gbs,
    )
    return System(
        name=name or spec.system_name or spec.name,
        cpu=_build_core(spec),
        cores=spec.cores,
        hierarchy=hierarchy,
        topology=CMGTopology(
            domains=spec.topology.domains,
            cores_per_domain=spec.topology.cores_per_domain,
            local_bw_gbs=spec.topology.local_bw_gbs,
            remote_bw_gbs=spec.topology.remote_bw_gbs,
            remote_latency_factor=spec.topology.remote_latency_factor,
        ),
        interconnect=Interconnect(
            spec.interconnect.name,
            latency_us=spec.interconnect.latency_us,
            bw_gbs=spec.interconnect.bw_gbs,
        ),
        simd_label=spec.simd_label,
        table3_base_ghz=spec.table3_base_ghz,
    )


def clear_build_caches() -> None:
    """Drop the cached Microarch/System builds (tests; pure caches)."""
    _timing_table.cache_clear()
    _build_core.cache_clear()
    _build_system.cache_clear()


# ---------------------------------------------------------------------------
# Timing tables as data.  These are the numbers the paper's results hinge
# on (see the module docstring of :mod:`repro.machine.microarch` for the
# provenance); :mod:`repro.machine.microarch` builds its public constants
# from these presets, so the values here are THE model.
# ---------------------------------------------------------------------------


def _ts(op: str, latency: float, rtput: float,
        *pipes: str) -> OpTimingSpec:
    return OpTimingSpec(op, latency, rtput, pipes)


def _with(base: tuple[OpTimingSpec, ...],
          *overrides: OpTimingSpec,
          drop: Sequence[str] = ()) -> tuple[OpTimingSpec, ...]:
    """A timing table derived from *base* by per-op override/removal."""
    by_op = {t.op: t for t in base}
    for t in overrides:
        by_op[t.op] = t
    for op in drop:
        by_op.pop(op, None)
    return tuple(by_op.values())


_A64FX_TIMINGS = (
    _ts("fadd", 9, 1, "fla", "flb"),
    _ts("fmul", 9, 1, "fla", "flb"),
    _ts("fma", 9, 1, "fla", "flb"),
    _ts("fmov", 4, 1, "fla", "flb"),
    _ts("fcmp", 4, 1, "fla"),
    _ts("fsel", 4, 1, "fla", "flb"),
    _ts("fminmax", 4, 1, "fla", "flb"),
    _ts("fcvt", 9, 1, "fla", "flb"),
    # blocking iterative units: reciprocal throughput == latency (the
    # paper quotes 134 cycles for a 512-bit FSQRT)
    _ts("fdiv", 112, 112, "fla"),
    _ts("fsqrt", 134, 134, "fla"),
    _ts("frecpe", 4, 1, "fla", "flb"),
    _ts("frsqrte", 4, 1, "fla", "flb"),
    _ts("fexpa", 4, 1, "fla", "flb"),
    _ts("fscale", 9, 1, "fla", "flb"),
    _ts("iadd", 4, 1, "fla", "flb"),
    _ts("imul", 9, 1, "fla", "flb"),
    _ts("ilogic", 4, 1, "fla", "flb"),
    _ts("perm", 6, 1, "flb"),       # single shuffle pipe on A64FX
    _ts("plogic", 3, 1, "pr"),
    _ts("pwhile", 3, 1, "pr"),
    _ts("ptest", 3, 1, "pr"),
    _ts("vload", 11, 1, "ls1", "ls2"),
    _ts("vstore", 1, 1, "ls1"),
    _ts("gather_uop", 11, 1, "ls1"),
    _ts("scatter_uop", 1, 1, "ls1"),
    _ts("sload", 8, 1, "ls1", "ls2"),
    _ts("sstore", 1, 1, "ls1"),
    _ts("salu", 1, 0.5, "exa", "exb"),
    _ts("sfp", 9, 1, "fla", "flb"),
    _ts("sfdiv", 43, 43, "fla"),
    _ts("sfsqrt", 51, 51, "fla"),
    _ts("branch", 1, 1, "br"),
    _ts("call", 1, 1, "br"),  # real cost comes from per-instr overrides
)

_SKX_TIMINGS = (
    _ts("fadd", 4, 1, "fla", "flb"),
    _ts("fmul", 4, 1, "fla", "flb"),
    _ts("fma", 4, 1, "fla", "flb"),
    _ts("fmov", 1, 0.5, "fla", "flb"),
    _ts("fcmp", 4, 1, "fla", "flb"),
    _ts("fsel", 2, 1, "fla", "flb"),
    _ts("fminmax", 4, 1, "fla", "flb"),
    _ts("fcvt", 4, 1, "fla", "flb"),
    # dedicated partially-pipelined divide unit: far from blocking
    _ts("fdiv", 23, 16, "fla"),
    _ts("fsqrt", 31, 25, "fla"),
    _ts("frecpe", 7, 2, "fla"),    # VRCP14PD
    _ts("frsqrte", 9, 2, "fla"),   # VRSQRT14PD
    # no FEXPA on x86 — deliberately absent from the table
    _ts("fscale", 4, 1, "fla", "flb"),  # VSCALEFPD (AVX-512 has one)
    _ts("iadd", 1, 0.5, "fla", "flb"),
    _ts("imul", 5, 1, "fla"),
    _ts("ilogic", 1, 0.5, "fla", "flb"),
    _ts("perm", 3, 1, "flb"),      # port-5 shuffles
    _ts("plogic", 1, 1, "pr"),     # kmask ops
    _ts("pwhile", 2, 1, "pr"),
    _ts("ptest", 2, 1, "pr"),
    _ts("vload", 7, 1, "ls1", "ls2"),
    _ts("vstore", 1, 1, "ls1"),
    _ts("gather_uop", 7, 1, "ls1"),
    _ts("scatter_uop", 1, 1, "ls1"),
    _ts("sload", 5, 0.5, "ls1", "ls2"),
    _ts("sstore", 1, 1, "ls1"),
    _ts("salu", 1, 0.25, "exa", "exb"),
    _ts("sfp", 4, 0.5, "fla", "flb"),
    _ts("sfdiv", 14, 4, "fla"),
    _ts("sfsqrt", 18, 6, "fla"),
    _ts("branch", 1, 0.5, "br"),
    _ts("call", 1, 1, "br"),
)

_KNL_TIMINGS = _with(
    _SKX_TIMINGS,
    _ts("fadd", 6, 1, "fla", "flb"),
    _ts("fmul", 6, 1, "fla", "flb"),
    _ts("fma", 6, 1, "fla", "flb"),
    _ts("fdiv", 32, 30, "fla"),
    _ts("fsqrt", 38, 35, "fla"),
    _ts("vload", 9, 1, "ls1", "ls2"),
    _ts("salu", 1, 0.5, "exa", "exb"),
    _ts("sfp", 6, 1, "fla", "flb"),
    _ts("gather_uop", 9, 2, "ls1"),
)

_ZEN2_TIMINGS = _with(
    _SKX_TIMINGS,
    _ts("fadd", 3, 1, "fla", "flb"),
    _ts("fmul", 3, 1, "fla", "flb"),
    _ts("fma", 5, 1, "fla", "flb"),
    _ts("fdiv", 13, 5, "fla"),
    _ts("fsqrt", 20, 9, "fla"),
    _ts("vload", 7, 1, "ls1", "ls2"),
    _ts("gather_uop", 7, 2, "ls1"),  # AVX2 gathers are microcoded
)

_TX2_TIMINGS = _with(
    _SKX_TIMINGS,
    _ts("fadd", 6, 1, "fla", "flb"),
    _ts("fmul", 6, 1, "fla", "flb"),
    _ts("fma", 6, 1, "fla", "flb"),
    _ts("fdiv", 16, 8, "fla"),
    _ts("fsqrt", 23, 12, "fla"),
)

# RVV: a hypothetical RISC-V vector core in the spirit of the design
# -space studies of arXiv 2111.01949 — vector-length-agnostic predicated
# loops like SVE, no FEXPA, pipelined (non-blocking) divide/sqrt, and
# per-element gathers (no pair coalescing).  Latencies sit between the
# A64FX's deep FP pipes and Skylake's short ones.
_RVV_TIMINGS = _with(
    _A64FX_TIMINGS,
    _ts("fadd", 6, 1, "fla", "flb"),
    _ts("fmul", 6, 1, "fla", "flb"),
    _ts("fma", 6, 1, "fla", "flb"),
    _ts("fmov", 2, 1, "fla", "flb"),
    _ts("fcvt", 6, 1, "fla", "flb"),
    _ts("fdiv", 24, 12, "fla"),
    _ts("fsqrt", 28, 14, "fla"),
    _ts("frecpe", 4, 1, "fla", "flb"),
    _ts("frsqrte", 4, 1, "fla", "flb"),
    _ts("fscale", 6, 1, "fla", "flb"),
    _ts("imul", 6, 1, "fla", "flb"),
    _ts("perm", 4, 1, "flb"),
    _ts("vload", 9, 1, "ls1", "ls2"),
    _ts("gather_uop", 9, 1, "ls1"),
    _ts("sload", 5, 1, "ls1", "ls2"),
    _ts("sfp", 6, 1, "fla", "flb"),
    _ts("sfdiv", 20, 10, "fla"),
    _ts("sfsqrt", 24, 12, "fla"),
    drop=("fexpa",),
)


# ---------------------------------------------------------------------------
# Machine presets: the paper's systems (plus the hypothetical RVV node)
# re-expressed as declarative data.
# ---------------------------------------------------------------------------

_A64FX_MEMORY = MemorySpec(
    levels=(
        CacheLevelSpec("L1", 64 * KIB, 256, 4, latency=11,
                       bw_bytes_per_cycle=128),
        CacheLevelSpec("L2", 8 * MIB, 256, 16, latency=37,
                       bw_bytes_per_cycle=64, shared_by=12),
    ),
    dram_bw_gbs=256.0,       # HBM2 per CMG
    dram_latency_ns=260.0,
    cores_per_domain=12,
    domains=4,
    mlp=16,
    stream_bw_core_gbs=36.0,
)


def _skylake_memory(sockets: int, cores_per_socket: int,
                    bw_per_socket: float = 100.0) -> MemorySpec:
    return MemorySpec(
        levels=(
            CacheLevelSpec("L1", 32 * KIB, 64, 8, latency=5,
                           bw_bytes_per_cycle=128),
            CacheLevelSpec("L2", 1 * MIB, 64, 16, latency=14,
                           bw_bytes_per_cycle=64),
            CacheLevelSpec("L3", int(1.375 * MIB) * cores_per_socket, 64,
                           11, latency=50, bw_bytes_per_cycle=14,
                           shared_by=cores_per_socket),
        ),
        dram_bw_gbs=bw_per_socket,   # 6 x DDR4-2666 per socket, sustained
        dram_latency_ns=90.0,
        cores_per_domain=cores_per_socket,
        domains=sockets,
        mlp=10,
        stream_bw_core_gbs=13.0,
    )


_HDR200 = InterconnectSpec("HDR-200 InfiniBand fat tree",
                           latency_us=1.3, bw_gbs=24.0)
_OPA = InterconnectSpec("Omni-Path 100", latency_us=1.1, bw_gbs=12.0)
_HDR_XSEDE = InterconnectSpec("HDR-200 InfiniBand",
                              latency_us=1.2, bw_gbs=24.0)


A64FX_SPEC = MachineSpec(
    name="A64FX",
    isa="sve",
    vector_bits=512,
    clock_ghz=1.8,
    allcore_clock_ghz=1.8,
    issue_width=4,
    window=128,  # 128-entry commit stack (A64FX microarchitecture manual)
    timings=_A64FX_TIMINGS,
    fp_pipes=2,
    mem_overlap=False,  # non-overlapping ECM composition (Alappat et al.)
    cores=48,
    memory=_A64FX_MEMORY,
    topology=TopologySpec(
        domains=4, cores_per_domain=12,
        local_bw_gbs=230.0,       # sustained per-CMG (256 raw)
        remote_bw_gbs=60.0,       # inter-CMG ring (sustained, shared)
        remote_latency_factor=1.6,
    ),
    interconnect=_HDR200,
    system_name="Ookami (Fujitsu A64FX)",
    simd_label="SVE (512 wide)",
    table3_base_ghz=1.8,
)


def _skylake_spec(name: str, boost: float, allcore: float, *,
                  sockets: int, cores_per_socket: int,
                  system_name: str,
                  table3_base_ghz: float | None = None) -> MachineSpec:
    return MachineSpec(
        name=name,
        isa="avx512",
        vector_bits=512,
        clock_ghz=boost,
        allcore_clock_ghz=allcore,
        issue_width=4,
        window=224,
        timings=_SKX_TIMINGS,
        fp_pipes=2,
        smt=2,
        cores=sockets * cores_per_socket,
        memory=_skylake_memory(sockets, cores_per_socket),
        topology=TopologySpec(
            domains=sockets, cores_per_domain=cores_per_socket,
            local_bw_gbs=95.0, remote_bw_gbs=55.0,
            remote_latency_factor=1.7,
        ),
        interconnect=_OPA,
        system_name=system_name,
        simd_label="AVX512",
        table3_base_ghz=table3_base_ghz,
    )


SKYLAKE_6140_SPEC = _skylake_spec(
    "Skylake 6140", boost=3.7, allcore=2.1,
    sockets=2, cores_per_socket=18,
    system_name="Skylake 6140 (36 cores)",
)
SKYLAKE_6130_SPEC = _skylake_spec(
    "Skylake 6130", boost=3.7, allcore=1.9,
    sockets=2, cores_per_socket=16,
    system_name="Skylake 6130 (32 cores)",
)
SKYLAKE_8160_SPEC = _skylake_spec(
    "Skylake 8160 (SKX)", boost=3.7, allcore=1.4,
    sockets=2, cores_per_socket=24,
    system_name="TACC Stampede 2 SKX (Xeon Platinum 8160)",
    table3_base_ghz=1.4,
)

KNL_7250_SPEC = MachineSpec(
    name="KNL 7250",
    isa="avx512",
    vector_bits=512,
    clock_ghz=1.4,
    allcore_clock_ghz=1.4,
    issue_width=2,
    window=72,
    timings=_KNL_TIMINGS,
    fp_pipes=2,
    smt=4,
    cores=68,
    memory=MemorySpec(
        levels=(
            CacheLevelSpec("L1", 32 * KIB, 64, 8, latency=5,
                           bw_bytes_per_cycle=64),
            CacheLevelSpec("L2", 1 * MIB, 64, 16, latency=20,
                           bw_bytes_per_cycle=32, shared_by=2),
        ),
        dram_bw_gbs=330.0,   # MCDRAM flat-mode sustained
        dram_latency_ns=150.0,
        cores_per_domain=68,
        domains=1,
        mlp=12,
        stream_bw_core_gbs=10.0,
    ),
    topology=TopologySpec(
        domains=1, cores_per_domain=68,
        local_bw_gbs=330.0, remote_bw_gbs=330.0,
        remote_latency_factor=1.0,
    ),
    interconnect=_OPA,
    system_name="TACC Stampede 2 KNL (Xeon Phi 7250)",
    simd_label="AVX512",
    table3_base_ghz=1.4,
)

EPYC_7742_SPEC = MachineSpec(
    name="EPYC 7742 (Zen2)",
    isa="avx2",
    vector_bits=256,
    clock_ghz=3.2,
    allcore_clock_ghz=2.25,
    issue_width=5,
    window=224,
    timings=_ZEN2_TIMINGS,
    fp_pipes=2,
    smt=2,
    cores=128,
    memory=MemorySpec(
        levels=(
            CacheLevelSpec("L1", 32 * KIB, 64, 8, latency=4,
                           bw_bytes_per_cycle=64),
            CacheLevelSpec("L2", 512 * KIB, 64, 8, latency=12,
                           bw_bytes_per_cycle=32),
            CacheLevelSpec("L3", 16 * MIB, 64, 16, latency=40,
                           bw_bytes_per_cycle=14, shared_by=4),
        ),
        dram_bw_gbs=150.0,   # 8 x DDR4-3200 per socket, sustained
        dram_latency_ns=100.0,
        cores_per_domain=64,
        domains=2,
        mlp=12,
        stream_bw_core_gbs=14.0,
    ),
    topology=TopologySpec(
        domains=2, cores_per_domain=64,
        local_bw_gbs=140.0, remote_bw_gbs=70.0,
        remote_latency_factor=1.6,
    ),
    interconnect=_HDR_XSEDE,
    system_name="SDSC Expanse (EPYC 7742)",
    simd_label="AVX2",
    table3_base_ghz=2.25,
)

THUNDERX2_SPEC = MachineSpec(
    name="ThunderX2",
    isa="neon",
    vector_bits=128,
    clock_ghz=2.3,
    allcore_clock_ghz=2.3,
    issue_width=4,
    window=128,
    timings=_TX2_TIMINGS,
    fp_pipes=2,
    smt=4,
    # core-only preset: the Ookami login nodes never ran the paper's
    # node-level experiments, so no memory/topology/interconnect
)

RVV_SPEC = MachineSpec(
    name="RVV-HBM",
    isa="rvv",
    vector_bits=512,
    clock_ghz=2.0,
    allcore_clock_ghz=2.0,
    issue_width=4,
    window=128,
    timings=_RVV_TIMINGS,
    fp_pipes=2,
    mem_overlap=False,  # HBM-class part; model it like the A64FX
    cores=32,
    memory=MemorySpec(
        levels=(
            CacheLevelSpec("L1", 32 * KIB, 64, 8, latency=6,
                           bw_bytes_per_cycle=128),
            CacheLevelSpec("L2", 2 * MIB, 64, 16, latency=30,
                           bw_bytes_per_cycle=64, shared_by=8),
        ),
        dram_bw_gbs=400.0,   # HBM2e-class stack per domain
        dram_latency_ns=180.0,
        cores_per_domain=8,
        domains=4,
        mlp=14,
        stream_bw_core_gbs=28.0,
    ),
    topology=TopologySpec(
        domains=4, cores_per_domain=8,
        local_bw_gbs=360.0, remote_bw_gbs=90.0,
        remote_latency_factor=1.5,
    ),
    interconnect=_HDR200,
    system_name="RVV-HBM (hypothetical RISC-V vector node)",
    simd_label="RVV 1.0 (VLA)",
)


#: preset registry: lookup key -> spec (aliases share the spec object)
MACHINE_SPECS: dict[str, MachineSpec] = {
    "a64fx": A64FX_SPEC,
    "ookami": A64FX_SPEC,
    "skylake-6140": SKYLAKE_6140_SPEC,
    "skylake": SKYLAKE_6140_SPEC,
    "skylake-6130": SKYLAKE_6130_SPEC,
    "skylake-8160": SKYLAKE_8160_SPEC,
    "skx": SKYLAKE_8160_SPEC,
    "knl": KNL_7250_SPEC,
    "epyc": EPYC_7742_SPEC,
    "thunderx2": THUNDERX2_SPEC,
    "rvv": RVV_SPEC,
}


def get_machine_spec(key: str) -> MachineSpec:
    """Look up a machine spec by registry key (case-insensitive)."""
    try:
        return MACHINE_SPECS[key.lower()]
    except KeyError:
        raise KeyError(
            f"unknown machine {key!r}; available: {sorted(MACHINE_SPECS)}"
        ) from None


# ---------------------------------------------------------------------------
# Design-space enumeration: hypothetical machines for grid sweeps.
# ---------------------------------------------------------------------------

#: default axes of the machine design space
GRID_VECTOR_BITS = (128, 256, 512, 1024)
GRID_ISSUE_WIDTHS = (2, 4, 6, 8)
GRID_DRAM_BW_GBS = (64.0, 128.0, 256.0, 512.0)
GRID_WINDOWS = (64, 128, 224)
GRID_L2_MIB = (4, 8)

#: preset bases the default grid derives hypothetical machines from
GRID_BASES = (A64FX_SPEC, SKYLAKE_6140_SPEC, RVV_SPEC)


def grid_variants(
    base: MachineSpec,
    *,
    vector_bits: Sequence[int] = GRID_VECTOR_BITS,
    issue_widths: Sequence[int] = GRID_ISSUE_WIDTHS,
    dram_bw_gbs: Sequence[float] = GRID_DRAM_BW_GBS,
    windows: Sequence[int] = GRID_WINDOWS,
    l2_mib: Sequence[int] = GRID_L2_MIB,
) -> list[MachineSpec]:
    """Every axis combination of *base*, uniquely named.

    Each variant keeps the base's ISA, timing table and topology but
    sweeps vector length, issue width, out-of-order window and the
    cache/HBM geometry (per-domain DRAM/HBM bandwidth, last-level cache
    capacity).  Names encode the axes (``A64FX@vl256/iw2/w64/bw128/
    l2-4m``) for reports; the engines key on content, so variants that
    differ only in axes a tier does not read share its memo entries.
    """
    if base.memory is None:
        raise ValueError(f"{base.name}: grid variants need a memory spec")
    out = []
    for vb in vector_bits:
        for iw in issue_widths:
            for bw in dram_bw_gbs:
                for win in windows:
                    for l2 in l2_mib:
                        out.append(_grid_variant(base, vb, iw, bw, win, l2))
    return out


def _grid_variant(base: MachineSpec, vb: int, iw: int, bw: float,
                  win: int, l2: int) -> MachineSpec:
    assert base.memory is not None
    levels = tuple(
        replace(lvl, capacity=l2 * MIB) if lvl is base.memory.levels[-1]
        else lvl
        for lvl in base.memory.levels
    )
    return replace(
        base,
        name=(f"{base.name}@vl{vb}/iw{iw}/w{win}/bw{int(bw)}/l2-{l2}m"),
        system_name="",
        vector_bits=vb,
        issue_width=iw,
        window=win,
        memory=replace(base.memory, levels=levels, dram_bw_gbs=bw),
    )


def _enumerate_grid(bases: Sequence[MachineSpec]) -> Iterator[MachineSpec]:
    """Deterministic unbounded enumeration of hypothetical machines.

    Round 0 walks the full default axis product for every base; later
    rounds re-walk it with the window shifted (+16 per round) so any
    requested machine count stays reachable with unique names.
    """
    rnd = 0
    while True:
        windows = tuple(w + 16 * rnd for w in GRID_WINDOWS)
        for base in bases:
            for spec in grid_variants(base, windows=windows):
                yield spec
        rnd += 1


def grid_specs(n: int,
               bases: Sequence[MachineSpec] = GRID_BASES,
               ) -> list[MachineSpec]:
    """The first *n* machines of the design-space enumeration.

    Deterministic: the same *n* and *bases* always produce the same
    machines, so sweep results are reproducible and cache-addressable.
    """
    if n < 1:
        raise ValueError(f"need at least one machine, got {n}")
    return list(islice(_enumerate_grid(tuple(bases)), n))
