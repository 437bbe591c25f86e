"""Pass 4 — differential fuzz oracle against the golden reference.

The scheduling engine (:mod:`repro.engine.batch`) carries two
optimizations the frozen seed implementation
(:mod:`repro.engine._reference`) does not: event-driven time advance and
steady-state period detection.  Both are required to be *observationally
invisible*.  This pass generates randomized-but-well-formed IR loops,
compiles each under a randomly drawn toolchain, and demands that

* the engine with period detection,
* the engine with detection disabled (full simulation), and
* the reference scheduler

return bit-identical :class:`~repro.engine.scheduler.ScheduleResult`
values, that detection on and off emit the same ``pipeline.*`` counter
payload, and that a schedule-cache hit replays both the result and the
exact counter payload of the original simulation.

Every generated loop also passes through the pass-1 IR verifier, so a
fuzz seed that produces malformed IR is reported as a generator bug
rather than crashing the oracle.

Each seed is additionally cross-checked against the *analytical* tier:
the same compiled loop gets an ECM prediction
(:func:`repro.ecm.model.predict_compiled`) and the ecm/engine runtime
ratio must stay inside the documented envelope
(:data:`ECM_FUZZ_RATIO_LOW` .. :data:`ECM_FUZZ_RATIO_HIGH`); a breach
reports the offending seed.
"""

from __future__ import annotations

import random

from repro.validate.report import PassResult, Violation

__all__ = [
    "random_loop",
    "random_machine_spec",
    "check_seed",
    "check_ecm_seed",
    "check_machine_seed",
    "run_fuzz_pass",
    "run_machine_fuzz_pass",
    "ECM_FUZZ_RATIO_LOW",
    "ECM_FUZZ_RATIO_HIGH",
]

#: envelope for ecm/engine seconds on fuzzed loops.  The upper edge
#: rests on the composition ceiling: both tiers price memory streams
#: with the same effective-bandwidth rule, so whenever the analytical
#: ``T_comp`` stays at or below the simulated compute time,
#: ``ecm <= T_comp' + T_data <= 2 * max(T_comp', T_data) = 2 * engine``
#: — additive composition can at most double the roofline max, and
#: random loops do land exactly on 2.0 when compute and memory tie
#: (seeds 1050/1076 over 1000-1099).  The in-core window bound may
#: overshoot the simulator by a few percent (see
#: :mod:`repro.ecm.incore`), so the ceiling carries 10% headroom.  The
#: lower edge is calibrated: the in-core bounds undershoot long
#: dependence chains by at most ~25% across seeds 1000-1099, kept at
#: 0.5 for headroom.
ECM_FUZZ_RATIO_LOW = 0.5
ECM_FUZZ_RATIO_HIGH = 2.0 * 1.10

#: math functions every toolchain model can lower (scalar or vector)
_FNS = ("recip", "sqrt", "exp", "sin", "pow")
_PATTERNS = ("contig", "stride", "random", "window128")
_BINOPS = ("+", "-", "*", "/")
_CMPS = ("<", "<=", ">", ">=", "==")


def random_loop(rng: random.Random, name: str = "fuzz"):
    """Build a random well-formed IR loop.

    Draws the structural axes the paper's suite exercises: contiguous /
    strided / indexed access, predication, gather and scatter, reductions,
    and vector-math calls — composed randomly rather than from the fixed
    Section III shapes.
    """
    from repro.compilers.ir import (
        ArrayInfo, BinOp, Call, Cmp, Const, Load, LoopIdx, Reduce, Store,
        Var,
    )

    kib = rng.choice((4, 16, 48, 512, 4096, 65536))
    arrays = {
        "x": ArrayInfo("x", footprint=kib * 1024.0,
                       pattern=rng.choice(_PATTERNS)),
        "y": ArrayInfo("y", footprint=kib * 1024.0, pattern="contig"),
    }
    use_gather = rng.random() < 0.4
    use_scatter = rng.random() < 0.25
    if use_gather or use_scatter:
        arrays["idx"] = ArrayInfo("idx", footprint=kib * 1024.0,
                                  pattern="contig")

    def leaf():
        r = rng.random()
        if r < 0.35:
            return Load("x", index=LoopIdx())
        if r < 0.45 and use_gather:
            return Load("x", index=Load("idx", index=LoopIdx()))
        if r < 0.7:
            return Const(round(rng.uniform(0.5, 4.0), 3))
        return Var("s")

    def expr(depth: int):
        if depth <= 0 or rng.random() < 0.3:
            return leaf()
        r = rng.random()
        if r < 0.25:
            fn = rng.choice(_FNS)
            args = ((expr(depth - 1), Const(2.0)) if fn == "pow"
                    else (expr(depth - 1),))
            return Call(fn, args)
        return BinOp(rng.choice(_BINOPS), expr(depth - 1), expr(depth - 1))

    body = []
    mask = None
    if rng.random() < 0.3:
        mask = Cmp(rng.choice(_CMPS), Load("x", index=LoopIdx()),
                   Const(round(rng.uniform(-1.0, 1.0), 3)))
    index = (Load("idx", index=LoopIdx()) if use_scatter else LoopIdx())
    body.append(Store("y", expr(rng.randint(1, 3)), index=index, mask=mask))
    if rng.random() < 0.35:
        body.append(Reduce("s", rng.choice(("+", "max", "min")),
                           expr(rng.randint(1, 2))))

    from repro.compilers.ir import Loop

    return Loop(
        name=name,
        length=rng.choice((512, 4096, 100_000)),
        body=tuple(body),
        arrays=arrays,
    )


def _result_fields(result) -> dict:
    """The comparable fields of a ScheduleResult (label excluded)."""
    return {
        "cycles_per_iter": result.cycles_per_iter,
        "elements_per_iter": result.elements_per_iter,
        "instructions_per_iter": result.instructions_per_iter,
        "ipc": result.ipc,
        "pipe_occupancy": dict(result.pipe_occupancy),
        "bound": result.bound,
    }


def _results_equal(a: dict, b: dict) -> set:
    """Field names where two result dicts disagree.

    Everything is compared bit-exact except ``pipe_occupancy``, whose
    busy-cycle sums accumulate in a different order under period
    detection and may wobble in the last bit (compared at the same 1e-9
    the golden-equivalence suite uses).
    """
    import math

    diff = {k for k in a if k != "pipe_occupancy" and a[k] != b[k]}
    occ_a, occ_b = a["pipe_occupancy"], b["pipe_occupancy"]
    if set(occ_a) != set(occ_b) or any(
        not math.isclose(occ_a[p], occ_b[p], rel_tol=1e-9, abs_tol=1e-12)
        for p in occ_a
    ):
        diff.add("pipe_occupancy")
    return diff


def _counters_equal(a: dict, b: dict) -> bool:
    """Two counter payloads agree: same names, values equal up to the
    last-bit wobble of busy-cycle sums under period detection (the 1e-9
    of :func:`_results_equal`)."""
    import math

    return set(a) == set(b) and all(
        math.isclose(a[k], b[k], rel_tol=1e-9, abs_tol=1e-12) for k in a)


def check_seed(seed: int) -> list[Violation]:
    """Differential-check one fuzz seed; returns any violations.

    Compiles one random loop under one random toolchain and runs the
    three-way scheduler comparison (detection on / detection off /
    reference) plus the cache-replay check.
    """
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.engine._reference import ReferenceScheduler
    from repro.engine.scheduler import PipelineScheduler, schedule_on
    from repro.machine.microarch import A64FX, SKYLAKE_6140
    from repro.perf.counters import ProfileScope
    from repro.validate.ir import verify_loop

    rng = random.Random(seed)
    loop = random_loop(rng, name=f"fuzz{seed}")
    where = f"seed={seed}"

    bad_ir = verify_loop(loop)
    if bad_ir:
        return [Violation("fuzz.generator", where,
                          f"generator produced malformed IR: {v}")
                for v in bad_ir]

    tc = rng.choice(sorted(TOOLCHAINS.values(), key=lambda t: t.name))
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
    compiled = compile_loop(loop, tc, march)
    stream = compiled.stream

    out: list[Violation] = []
    with ProfileScope(f"fuzz:{seed}:fast") as fast_counters:
        fast = PipelineScheduler(march).steady_state(stream)
    with ProfileScope(f"fuzz:{seed}:full") as full_counters:
        full = PipelineScheduler(march, extrapolate=False).steady_state(
            stream)
    golden = ReferenceScheduler(march).steady_state(stream)
    for label, other in (
        ("extrapolate=False", full),
        ("reference", golden),
    ):
        a, b = _result_fields(fast), _result_fields(other)
        diff = _results_equal(a, b)
        if diff:
            out.append(Violation(
                "fuzz.divergence", f"{where} tc={tc.name}",
                f"engine disagrees with {label} on "
                f"{sorted(diff)}: {a} vs {b}",
            ))
    if not _counters_equal(fast_counters.as_dict(),
                           full_counters.as_dict()):
        out.append(Violation(
            "fuzz.counters", f"{where} tc={tc.name}",
            f"detection off emitted different counters: "
            f"{full_counters.as_dict()} vs {fast_counters.as_dict()}",
        ))

    # cache-hit replay: result and counter payload must be identical
    with ProfileScope(f"fuzz:{seed}:miss") as miss:
        first = schedule_on(march, stream)
    with ProfileScope(f"fuzz:{seed}:hit") as hit:
        second = schedule_on(march, stream)
    if _result_fields(first) != _result_fields(second):
        out.append(Violation(
            "fuzz.cache.result", f"{where} tc={tc.name}",
            "schedule-cache hit returned a different result than the miss",
        ))
    def payload(counters) -> dict:
        # drop the cache's own hit/miss bookkeeping: it differs between
        # the two scopes by construction
        return {k: v for k, v in counters.as_dict().items()
                if not k.startswith("schedule_cache.")}

    if payload(miss) != payload(hit):
        out.append(Violation(
            "fuzz.cache.counters", f"{where} tc={tc.name}",
            f"cache hit replayed different counters: "
            f"{payload(hit)} vs {payload(miss)}",
        ))

    # analytical-tier cross-check on the very same compiled loop
    out += _ecm_envelope(compiled, tc, where)
    return out


def _ecm_envelope(compiled, tc, where: str) -> list[Violation]:
    """Check one compiled fuzz loop's ecm/engine ratio envelope."""
    from repro.ecm.model import engine_seconds_for, predict_compiled
    from repro.machine.systems import get_system

    system = get_system("skylake" if tc.target == "x86" else "ookami")
    pred = predict_compiled(compiled, system)
    engine = engine_seconds_for(compiled, system)
    ratio = pred.seconds / engine
    if ECM_FUZZ_RATIO_LOW <= ratio <= ECM_FUZZ_RATIO_HIGH:
        return []
    return [Violation(
        "fuzz.ecm.deviation", f"{where} tc={tc.name}",
        f"ecm/engine ratio {ratio:.4f} outside "
        f"[{ECM_FUZZ_RATIO_LOW}, {ECM_FUZZ_RATIO_HIGH}] "
        f"(ecm {pred.seconds * 1e6:.3f} us vs engine "
        f"{engine * 1e6:.3f} us, bound {pred.bound})",
    )]


def check_ecm_seed(seed: int) -> list[Violation]:
    """ECM-only fuzz check for one seed (a :func:`check_seed` subset).

    Rebuilds the seed's random loop and toolchain draw, compiles it, and
    verifies the analytical prediction stays inside the ecm/engine ratio
    envelope.  Malformed-IR seeds return no violations here; they are
    reported as generator bugs by :func:`check_seed`.
    """
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.machine.microarch import A64FX, SKYLAKE_6140
    from repro.validate.ir import verify_loop

    rng = random.Random(seed)
    loop = random_loop(rng, name=f"fuzz{seed}")
    if verify_loop(loop):
        return []
    tc = rng.choice(sorted(TOOLCHAINS.values(), key=lambda t: t.name))
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
    compiled = compile_loop(loop, tc, march)
    return _ecm_envelope(compiled, tc, f"seed={seed}")


def run_fuzz_pass(seeds: int = 25, base_seed: int = 1000) -> PassResult:
    """Run *seeds* differential fuzz seeds starting at *base_seed*."""
    result = PassResult(name="fuzz")
    for i in range(seeds):
        result.violations += check_seed(base_seed + i)
        result.checked += 1
    return result


# ----------------------------------------------------------------------
# Machine-spec fuzz lane: random declarative machines through the full
# engine stack.
# ----------------------------------------------------------------------

#: axes the machine fuzzer draws from (anything a grid sweep can reach)
_FUZZ_VECTOR_BITS = (128, 192, 256, 384, 512, 768, 1024)
_FUZZ_WINDOWS = (16, 48, 72, 128, 224, 384)
_FUZZ_ISSUE = (1, 2, 3, 4, 5, 6, 8)


def random_machine_spec(rng: random.Random, name: str = "fuzzmachine"):
    """Draw a random valid :class:`~repro.machine.spec.MachineSpec`.

    Starts from a random preset (so the timing table always covers the
    op vocabulary), then perturbs the spec axes a grid sweep explores —
    vector length, issue width, window, clocks, HBM bandwidth — and
    jitters a subset of op latencies.  Blocking ops (rtput == latency)
    stay blocking so the A64FX sqrt mechanism keeps appearing in the
    fuzzed population.  Spec validation runs in the constructor, so a
    bad draw fails loudly here, not deep in the scheduler.
    """
    from dataclasses import replace

    from repro.machine.spec import (
        A64FX_SPEC, EPYC_7742_SPEC, RVV_SPEC, SKYLAKE_6140_SPEC,
    )

    base = rng.choice((A64FX_SPEC, SKYLAKE_6140_SPEC, RVV_SPEC,
                       EPYC_7742_SPEC))
    timings = []
    for t in base.timings:
        if rng.random() < 0.3:
            latency = max(1.0, round(t.latency * rng.uniform(0.5, 2.0)))
            rtput = latency if t.rtput == t.latency else t.rtput
            t = replace(t, latency=latency, rtput=rtput)
        timings.append(t)
    clock = round(rng.uniform(1.0, 3.8), 2)
    spec = replace(
        base,
        name=f"{name}({base.name})#{rng.randrange(1 << 30)}",
        system_name="",
        vector_bits=rng.choice(_FUZZ_VECTOR_BITS),
        issue_width=rng.choice(_FUZZ_ISSUE),
        window=rng.choice(_FUZZ_WINDOWS),
        clock_ghz=clock,
        allcore_clock_ghz=round(clock * rng.uniform(0.5, 1.0), 2),
        timings=tuple(timings),
    )
    if spec.memory is not None and rng.random() < 0.5:
        spec = replace(
            spec,
            memory=replace(spec.memory,
                           dram_bw_gbs=rng.choice((64.0, 128.0, 256.0,
                                                   512.0))),
        )
    return spec


def check_machine_seed(seed: int) -> list[Violation]:
    """Differential-check one random machine spec; returns violations.

    Draws a random valid spec, requires the JSON round-trip to rebuild
    a value-equal spec sharing the *same* cached
    :class:`~repro.machine.microarch.Microarch`, then compiles a random
    loop for the machine (first compiling toolchain of its ISA) and
    demands detection on / detection off / reference agree
    bit-exactly — the same oracle :func:`check_seed` applies to the
    preset machines, on a machine that exists only as data.  No ECM
    envelope: its calibration is for the real machines.
    """
    from repro.compilers.codegen import compile_loop
    from repro.engine._reference import ReferenceScheduler
    from repro.engine.scheduler import PipelineScheduler
    from repro.machine.grid import _toolchains_for
    from repro.machine.spec import MachineSpec
    from repro.perf.counters import ProfileScope
    from repro.validate.ir import verify_loop

    rng = random.Random(seed)
    where = f"seed={seed}"
    try:
        spec = random_machine_spec(rng, name=f"fuzzmachine{seed}")
    except ValueError as exc:
        return [Violation("machine_fuzz.generator", where,
                          f"generator drew an invalid spec: {exc}")]

    out: list[Violation] = []
    rebuilt = MachineSpec.from_json(spec.to_json())
    if rebuilt != spec:
        out.append(Violation(
            "machine_fuzz.roundtrip", where,
            "JSON round-trip produced a different spec"))
    march = spec.build_core()
    if rebuilt.build_core() is not march:
        out.append(Violation(
            "machine_fuzz.build_cache", where,
            "round-tripped spec built a distinct Microarch object"))

    loop = random_loop(rng, name=f"fuzzmachine{seed}")
    if verify_loop(loop):
        return out  # generator bugs are check_seed's department
    compiled = None
    for tc in _toolchains_for(march):
        try:
            compiled = compile_loop(loop, tc, march)
            break
        except ValueError:
            continue
    if compiled is None:
        return out + [Violation(
            "machine_fuzz.compile", where,
            f"no toolchain of ISA {spec.isa!r} compiles the fuzz loop")]
    stream = compiled.stream

    with ProfileScope(f"machine-fuzz:{seed}:fast") as fast_counters:
        fast = PipelineScheduler(march).steady_state(stream)
    with ProfileScope(f"machine-fuzz:{seed}:full") as full_counters:
        full = PipelineScheduler(march, extrapolate=False).steady_state(
            stream)
    golden = ReferenceScheduler(march).steady_state(stream)
    for label, other in (
        ("extrapolate=False", full),
        ("reference", golden),
    ):
        a, b = _result_fields(fast), _result_fields(other)
        diff = _results_equal(a, b)
        if diff:
            out.append(Violation(
                "machine_fuzz.divergence",
                f"{where} machine={spec.name} tc={compiled.toolchain.name}",
                f"engine disagrees with {label} on "
                f"{sorted(diff)}: {a} vs {b}",
            ))
    if not _counters_equal(fast_counters.as_dict(),
                           full_counters.as_dict()):
        out.append(Violation(
            "machine_fuzz.counters",
            f"{where} machine={spec.name}",
            f"detection off emitted different counters: "
            f"{full_counters.as_dict()} vs {fast_counters.as_dict()}",
        ))
    return out


def run_machine_fuzz_pass(seeds: int = 10,
                          base_seed: int = 5000) -> PassResult:
    """Run *seeds* machine-spec fuzz seeds starting at *base_seed*."""
    result = PassResult(name="machine-fuzz")
    for i in range(seeds):
        result.violations += check_machine_seed(base_seed + i)
        result.checked += 1
    return result
