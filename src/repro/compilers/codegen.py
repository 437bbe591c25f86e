"""Lowering of loop IR to abstract instruction streams.

``compile_loop(loop, toolchain, march)`` runs the vectorizer and then
lowers the loop body to an :class:`~repro.machine.isa.InstructionStream`
for the target microarchitecture, applying the toolchain's strategies:

* **FMA contraction** — ``a*b + c`` fuses (all toolchains use
  ``-ffast-math``-class flags, Table I).
* **Divide/sqrt selection** — ``newton`` expands to the estimate
  instruction (``FRECPE``/``FRSQRTE``) plus Newton–Raphson refinement
  steps; ``hardware`` emits the blocking ``FDIV``/``FSQRT`` (the GNU/ARM
  choice the paper calls out).
* **Vector math recipes** — calls such as ``exp`` splice in the
  instruction sequence of the toolchain's library algorithm, built by
  :mod:`repro.mathlib.vectormath` (Fujitsu's ``FEXPA`` 5-term kernel,
  Cray/ARM 13-term kernels, Intel SVML).
* **Gather/scatter splitting** — a gather becomes one transaction per
  element, or per *pair* of elements when the indices stay inside an
  aligned 128-byte window on a machine with pair coalescing (the A64FX
  rule behind the paper's short-gather result).
* **Unrolling** — the body is replicated ``toolchain.unroll`` times with
  renamed temporaries and separate reduction accumulators, which is what
  lets the scheduler overlap the 9-cycle FMA chains ("Unrolling once
  decreased this to 1.9 cycles/element", Sec. IV).
* **Scalar fallback** — when the vectorizer refuses the loop (GNU with
  ``exp``/``sin``/``pow``), the body is lowered element-at-a-time with
  opaque libm calls of the measured serial cost.

The result also carries the loop's :class:`~repro.machine.memory.MemoryStream`
set so the executor can add memory-hierarchy time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from repro.compilers.ir import (
    ArrayInfo,
    BinOp,
    Call,
    Cmp,
    Const,
    Expr,
    Load,
    Loop,
    LoopIdx,
    Reduce,
    Store,
    Var,
)
from repro.compilers.toolchains import Toolchain
from repro.compilers.vectorizer import VectorizationReport, vectorize
from repro.engine.scheduler import ScheduleResult, schedule_on
from repro.machine.isa import Instruction, InstructionStream, Op
from repro.machine.memory import MemoryStream
from repro.machine.microarch import Microarch

__all__ = [
    "CompiledLoop",
    "compile_loop",
    "add_compile_observer",
    "remove_compile_observer",
]

#: opt-in compile observers (see :func:`add_compile_observer`); empty in
#: normal operation so lowering pays nothing for the hook point
_COMPILE_OBSERVERS: list = []


def add_compile_observer(observer) -> None:
    """Register *observer* to receive every :class:`CompiledLoop` that
    :func:`compile_loop` produces, after vectorization and lowering.

    Used by :mod:`repro.validate` to verify IR well-formedness and the
    lowered stream's bookkeeping (unroll factors, gather/scatter
    splitting, memory-stream footprints) inline, without the compiler
    importing the validator.
    """
    _COMPILE_OBSERVERS.append(observer)


def remove_compile_observer(observer) -> None:
    """Unregister a compile observer added by :func:`add_compile_observer`."""
    _COMPILE_OBSERVERS.remove(observer)


@dataclass
class CompiledLoop:
    """A loop lowered for one (toolchain, microarchitecture) pair."""

    loop: Loop
    toolchain: Toolchain
    march: Microarch
    stream: InstructionStream
    report: VectorizationReport
    mem_streams: tuple[MemoryStream, ...]
    elements_per_iter: int

    @property
    def n_iters(self) -> float:
        """Dynamic iteration count of the lowered loop."""
        return math.ceil(self.loop.length / self.elements_per_iter)

    @cached_property
    def schedule(self) -> ScheduleResult:
        """Steady-state schedule on the target core.

        Cached twice over: per-instance here, and process-wide (by
        march/stream content) in :mod:`repro.engine.cache`, so sweeps
        that recompile the same loop — or different toolchains emitting
        identical streams — never re-simulate."""
        return schedule_on(self.march, self.stream)

    @property
    def quality_factor(self) -> float:
        """The toolchain's quality factor: SIMD code-generation polish
        for vectorized loops (where Fujitsu leads, Fig. 1), general
        optimizer quality for scalar code (where GNU leads, Fig. 3)."""
        return (
            self.toolchain.simd_quality
            if self.report.vectorized
            else self.toolchain.code_quality
        )

    def cycles_per_element_for(self, schedule: ScheduleResult) -> float:
        """Compute-side cycles per source-loop element of *schedule* (a
        steady-state schedule of :attr:`stream`), including the
        quality factor.  Batch paths pass the schedule they already
        hold instead of storing it on this (possibly cached) object."""
        return schedule.cycles_per_element * self.quality_factor

    @property
    def cycles_per_element(self) -> float:
        """:meth:`cycles_per_element_for` the default-window
        :attr:`schedule`."""
        return self.cycles_per_element_for(self.schedule)


def compile_loop(loop: Loop, toolchain: Toolchain, march: Microarch) -> CompiledLoop:
    """Vectorize (if possible) and lower *loop* for *march*.

    Any (toolchain, march) pairing is accepted — the abstract op
    vocabulary is shared across ISAs, and cross-target pairings are how
    the design-space sweeps retarget one lowered stream to many
    machines.  A toolchain recipe that genuinely needs a missing ISA
    feature fails loudly instead: the FEXPA exponential raises at
    recipe-build time (``mathlib.vectormath.build_recipe``) and any
    other gap surfaces as the timing-table KeyError at schedule time.
    """
    report = vectorize(loop, toolchain)
    lowerer = _Lowerer(loop, toolchain, march, vectorized=report.vectorized)
    stream, elements_per_iter = lowerer.lower()
    mem_streams = _memory_streams(loop, elements_per_iter)
    compiled = CompiledLoop(
        loop=loop,
        toolchain=toolchain,
        march=march,
        stream=stream,
        report=report,
        mem_streams=mem_streams,
        elements_per_iter=elements_per_iter,
    )
    for observer in tuple(_COMPILE_OBSERVERS):
        observer(compiled)
    return compiled


# ---------------------------------------------------------------------------


def _memory_streams(loop: Loop, elements_per_iter: int) -> tuple[MemoryStream, ...]:
    """One MemoryStream per referenced array, sized per lowered iteration."""
    stored = {s.array for s in loop.body if isinstance(s, Store)}
    streams = []
    for name in sorted(loop.referenced_arrays()):
        info = loop.arrays[name]
        streams.append(
            MemoryStream(
                name=name,
                bytes_per_iter=float(info.elem_size * elements_per_iter),
                footprint=info.footprint,
                pattern=info.pattern,  # type: ignore[arg-type]
                is_store=name in stored,
                elem_size=info.elem_size,
            )
        )
    return tuple(streams)


class _Lowerer:
    """Stateful expression/statement lowering for one loop."""

    def __init__(
        self,
        loop: Loop,
        toolchain: Toolchain,
        march: Microarch,
        vectorized: bool,
    ) -> None:
        self.loop = loop
        self.tc = toolchain
        self.march = march
        self.vectorized = vectorized
        self.instrs: list[Instruction] = []
        self._tmp = 0
        self._cse: dict[tuple[int, Expr], str] = {}
        self._copy = 0  # current unroll copy index

    # -- public ------------------------------------------------------------
    def lower(self) -> tuple[InstructionStream, int]:
        # compilers unroll short arithmetic loops aggressively but leave
        # big math-library bodies alone (the paper's Sec. IV exp loop kept
        # its vector-length-agnostic single-iteration structure)
        unroll = self.tc.unroll
        if self.vectorized and not self.loop.math_calls():
            unroll = max(unroll, self.tc.small_loop_unroll)
        lanes = self.march.lanes_f64 if self.vectorized else 1
        for copy in range(unroll):
            self._copy = copy
            for stmt in self.loop.body:
                if isinstance(stmt, Store):
                    self._lower_store(stmt)
                else:
                    self._lower_reduce(stmt)
        self._emit_loop_tail()
        stream = InstructionStream(
            body=self.instrs,
            elements_per_iter=lanes * unroll,
            label=f"{self.loop.name}/{self.tc.name}/{self.march.name}",
        )
        stream.validate()
        return stream, lanes * unroll

    # -- helpers -------------------------------------------------------------
    def _new(self, hint: str) -> str:
        self._tmp += 1
        return f"{hint}_{self._copy}_{self._tmp}"

    def _emit(
        self,
        op: Op,
        dest: str,
        *srcs: str,
        carried: bool = False,
        tag: str = "",
        latency: float | None = None,
        rtput: float | None = None,
    ) -> str:
        self.instrs.append(
            Instruction(
                op=op,
                dest=dest,
                srcs=tuple(srcs),
                carried=carried,
                tag=tag,
                latency_override=latency,
                rtput_override=rtput,
            )
        )
        return dest

    # -- statements ------------------------------------------------------------
    def _lower_store(self, stmt: Store) -> None:
        value = self._lower_expr(stmt.value)
        mask = ""
        if stmt.mask is not None:
            mask = self._lower_cmp(stmt.mask)
        if stmt.is_scatter:
            assert isinstance(stmt.index, Load)
            idx = self._lower_contig_load(stmt.index.array)
            n_uops = self._index_uops(stmt.array, is_store=True)
            store_op = Op.SCATTER_UOP if self.vectorized else Op.SSTORE
            info = self.loop.arrays[stmt.array]
            # scatters are never pair-coalesced, but writes that stay
            # inside one 256-byte line merge in the store buffer: "the
            # short scatter test localizes pairs of 128-byte windows
            # within a single 256 byte cache line, whereas the cache line
            # is only 64 bytes on Skylake" (Sec. III)
            rtput = (
                0.75
                if info.pattern == "window128"
                and self.vectorized
                and self.march.gather_pair_coalescing
                else None
            )
            for k in range(n_uops):
                srcs = (value, idx) + ((mask,) if mask else ())
                self._emit(store_op, "", *srcs, tag=f"scatter[{k}]",
                           rtput=rtput)
            return
        store_op = Op.VSTORE if self.vectorized else Op.SSTORE
        srcs = (value,) + ((mask,) if mask else ())
        if (mask and self.vectorized
                and self.march.vector_isa.predicated_store_crack):
            # A64FX cracks predicated stores into slower store flows; this
            # is the mechanism behind the paper's predicate loop running
            # 3x (not the clock-ratio 2x) slower than Skylake (Fig. 1).
            self._emit(store_op, "", *srcs, tag=f"store? {stmt.array}",
                       rtput=1.2)
        else:
            self._emit(store_op, "", *srcs, tag=f"store {stmt.array}")

    def _lower_reduce(self, stmt: Reduce) -> None:
        value = self._lower_expr(stmt.value)
        acc = f"acc_{stmt.var}_{self._copy}"  # one accumulator per copy
        op = Op.FADD if self.vectorized else Op.SFP
        if stmt.kind in ("max", "min"):
            op = Op.FMINMAX if self.vectorized else Op.SFP
        self._emit(op, acc, acc, value, carried=True, tag=f"reduce {stmt.var}")

    # -- expressions ------------------------------------------------------------
    def _lower_expr(self, e: Expr) -> str:
        key = (self._copy, e)
        hit = self._cse.get(key)
        if hit is not None:
            return hit
        name = self._lower_expr_uncached(e)
        self._cse[key] = name
        return name

    def _lower_expr_uncached(self, e: Expr) -> str:
        if isinstance(e, Const):
            return f"const({e.value})"  # constants live in registers: free
        if isinstance(e, Var):
            return f"var({e.name})"  # loop-invariant input: ready at 0
        if isinstance(e, Load):
            if e.is_gather:
                return self._lower_gather(e)
            return self._lower_contig_load(e.array)
        if isinstance(e, BinOp):
            return self._lower_binop(e)
        if isinstance(e, Call):
            return self._lower_call(e)
        raise TypeError(f"cannot lower expression {e!r}")

    def _lower_contig_load(self, array: str) -> str:
        dest = self._new(f"ld_{array}")
        op = Op.VLOAD if self.vectorized else Op.SLOAD
        return self._emit(op, dest, tag=f"load {array}")

    def _lower_gather(self, e: Load) -> str:
        assert isinstance(e.index, Load)
        idx = self._lower_contig_load(e.index.array)
        if not self.vectorized:
            # scalar indirect load: address dep on the index value
            dest = self._new(f"g_{e.array}")
            return self._emit(Op.SLOAD, dest, idx, tag=f"gather {e.array}")
        n_uops = self._index_uops(e.array)
        dest = ""
        for k in range(n_uops):
            dest = self._new(f"g_{e.array}")
            self._emit(Op.GATHER_UOP, dest, idx, tag=f"gather[{k}] {e.array}")
        return dest  # consumers wait on the last transaction

    def _index_uops(self, array: str, is_store: bool = False) -> int:
        """Transactions per vector for an indexed access of *array*.

        Pair coalescing applies to gather *loads* only: "No such
        acceleration is indicated for scatter operations" (Sec. III).
        """
        lanes = self.march.lanes_f64
        info = self.loop.arrays[array]
        if (
            not is_store
            and info.pattern == "window128"
            and self.march.gather_pair_coalescing
        ):
            # adjacent-element pairs share an aligned 128-byte window and
            # are not split (A64FX microarchitecture manual; paper Sec. III)
            return max(1, lanes // 2)
        return lanes

    def _lower_binop(self, e: BinOp) -> str:
        # FMA contraction: (a*b) + c / c + (a*b) / (a*b) - c
        if e.kind in ("+", "-"):
            for mul, other, order in (
                (e.lhs, e.rhs, "lhs"),
                (e.rhs, e.lhs, "rhs"),
            ):
                if isinstance(mul, BinOp) and mul.kind == "*":
                    if e.kind == "-" and order == "rhs":
                        continue  # c - a*b: fused too, but keep model simple
                    a = self._lower_expr(mul.lhs)
                    b = self._lower_expr(mul.rhs)
                    c = self._lower_expr(other)
                    dest = self._new("fma")
                    op = Op.FMA if self.vectorized else Op.SFP
                    return self._emit(op, dest, a, b, c, tag="fma")
        lhs = self._lower_expr(e.lhs)
        rhs = self._lower_expr(e.rhs)
        if e.kind == "/":
            return self._lower_divide(lhs, rhs)
        dest = self._new("t")
        if self.vectorized:
            op = Op.FMUL if e.kind == "*" else Op.FADD
        else:
            op = Op.SFP
        return self._emit(op, dest, lhs, rhs, tag=e.kind)

    def _lower_cmp(self, c: Cmp) -> str:
        lhs = self._lower_expr(c.lhs)
        rhs = self._lower_expr(c.rhs)
        dest = self._new("mask")
        op = Op.FCMP if self.vectorized else Op.SFP
        return self._emit(op, dest, lhs, rhs, tag=f"cmp{c.kind}")

    # -- divide / sqrt / math calls ------------------------------------------------
    def _lower_divide(self, num: str, den: str) -> str:
        if not self.vectorized:
            dest = self._new("div")
            return self._emit(Op.SFDIV, dest, num, den, tag="sdiv")
        if self.tc.div_strategy == "hardware":
            dest = self._new("div")
            return self._emit(Op.FDIV, dest, num, den, tag="fdiv")
        recip = self._newton_recip(den)
        dest = self._new("div")
        return self._emit(Op.FMUL, dest, num, recip, tag="div=num*recip")

    def _newton_recip(self, den: str) -> str:
        """FRECPE estimate + 3 Newton steps: x' = x*(2 - d*x).

        Under the fast-math flags of Table I the compilers settle for two
        quadratic steps (~32 bits, relative error ~1e-10); the numerics in
        :mod:`repro.mathlib.newton` chart the per-step accuracy."""
        x = self._emit(Op.FRECPE, self._new("rcp"), den, tag="frecpe")
        for step in range(2):
            e = self._emit(Op.FMA, self._new("rcpe"), den, x, tag=f"nr{step}a")
            x = self._emit(Op.FMA, self._new("rcp"), x, e, x, tag=f"nr{step}b")
        return x

    def _newton_rsqrt(self, x_in: str) -> str:
        """FRSQRTE estimate + 2 fused Newton steps (fast-math precision).

        SVE provides FRSQRTS, which fuses the (3 - x*y*y)/2 half of each
        step into one instruction, so a step is FRSQRTS + FMUL."""
        y = self._emit(Op.FRSQRTE, self._new("rsq"), x_in, tag="frsqrte")
        for step in range(2):
            h = self._emit(Op.FMA, self._new("rsqh"), x_in, y, tag=f"frsqrts{step}")
            y = self._emit(Op.FMUL, self._new("rsq"), y, h, tag=f"ns{step}")
        return y

    def _lower_call(self, e: Call) -> str:
        args = [self._lower_expr(a) for a in e.args]
        fn = e.fn

        if not self.vectorized:
            if fn == "recip":
                dest = self._new("recip")
                return self._emit(Op.SFDIV, dest, args[0], tag="srecip")
            if fn == "sqrt":
                dest = self._new("sqrt")
                return self._emit(Op.SFSQRT, dest, args[0], tag="ssqrt")
            impl = self.tc.math_impl(fn)
            cost = impl.scalar_cycles if impl.kind == "scalar_call" else 20.0
            dest = self._new(fn)
            return self._emit(
                Op.CALL, dest, *args, tag=f"call {fn}",
                latency=cost, rtput=cost,
            )

        if fn == "recip":
            return self._newton_recip_or_hw(args[0])
        if fn == "sqrt":
            return self._sqrt_or_hw(args[0])

        impl = self.tc.math_impl(fn)
        if impl.kind == "scalar_call":
            # vectorizer should have scalarized the loop; defensive check
            raise RuntimeError(
                f"{self.tc.name} cannot vectorize {fn}; "
                "the vectorizer should have rejected this loop"
            )
        from repro.mathlib.vectormath import build_recipe  # lazy: avoid cycle

        dest = self._new(fn)
        instrs = build_recipe(
            impl.recipe, self.march, args, dest, prefix=self._new(fn)
        )
        self.instrs.extend(instrs)
        return dest

    def _newton_recip_or_hw(self, x: str) -> str:
        if self.tc.div_strategy == "hardware":
            dest = self._new("recip")
            return self._emit(Op.FDIV, dest, x, tag="fdiv(1/x)")
        return self._newton_recip(x)

    def _sqrt_or_hw(self, x: str) -> str:
        if self.tc.sqrt_strategy == "hardware":
            dest = self._new("sqrt")
            return self._emit(Op.FSQRT, dest, x, tag="fsqrt")
        rsq = self._newton_rsqrt(x)
        dest = self._new("sqrt")
        return self._emit(Op.FMUL, dest, x, rsq, tag="sqrt=x*rsqrt")

    # -- loop control -------------------------------------------------------------
    def _emit_loop_tail(self) -> None:
        self._copy = self.tc.unroll  # distinct namespace for the tail
        self._emit(Op.SALU, self._new("ptr"), tag="advance pointers")
        if self.vectorized and self.march.vector_isa.predicated_tail:
            # VLA predicated loop (SVE/RVV): WHILELT + branch on predicate
            p = self._emit(Op.PWHILE, self._new("p"), tag="whilelt")
            self._emit(Op.BRANCH, "", p, tag="b.first")
        else:
            c = self._emit(Op.SALU, self._new("cmp"), tag="cmp n")
            self._emit(Op.BRANCH, "", c, tag="b.lt")
