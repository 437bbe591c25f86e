"""Tests for the issue-trace capture and pipeline diagram."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import FUJITSU, get_toolchain
from repro.engine.scheduler import schedule_on
from repro.engine.trace import capture_trace, render_pipeline_diagram
from repro.kernels.catalog import build_kernel
from repro.kernels.loops import build_loop
from repro.machine.isa import Instruction, InstructionStream, Op, Pipe
from repro.machine.microarch import A64FX, SKYLAKE_6140

#: issue logs and diagrams pinned from the scheduler's issue-callback
#: simulation; key "<kernel>/<march name>"
TRACE_GOLDEN = json.loads(
    (Path(__file__).with_name("trace_golden.json")).read_text())

GOLDEN_CASES = [(kernel, march) for kernel in ("exp", "gather", "sqrt")
                for march in (A64FX, SKYLAKE_6140)]


@pytest.fixture(scope="module")
def exp_stream():
    return compile_loop(build_loop("exp"), FUJITSU, A64FX).stream


class TestCaptureTrace:
    def test_every_instruction_issues_once(self, exp_stream):
        events = capture_trace(A64FX, exp_stream, iterations=3)
        assert len(events) == 3 * len(exp_stream)
        assert len({e.index for e in events}) == len(events)

    def test_dependencies_respected(self, exp_stream):
        """A consumer never issues at or before its producer's issue when
        the producer has non-trivial latency."""
        events = {e.index: e for e in capture_trace(A64FX, exp_stream, 2)}
        body = exp_stream.body
        n = len(body)
        names = {}
        for d in sorted(events):
            ins = body[d % n]
            for src in ins.srcs:
                key = (d // n, src)
                if key in names:
                    assert events[d].cycle > names[key].cycle
            if ins.dest:
                names[(d // n, ins.dest)] = events[d]

    def test_pipes_legal(self, exp_stream):
        events = capture_trace(A64FX, exp_stream, 2)
        body = exp_stream.body
        for e in events:
            allowed = A64FX.timing(body[e.position].op).pipes
            assert e.pipe in allowed

    def test_issue_width_respected(self, exp_stream):
        events = capture_trace(A64FX, exp_stream, 4)
        per_cycle: dict[float, int] = {}
        for e in events:
            per_cycle[e.cycle] = per_cycle.get(e.cycle, 0) + 1
        assert max(per_cycle.values()) <= A64FX.issue_width

    def test_traced_cpi_matches_scheduler(self, exp_stream):
        """The tracing re-implementation must agree with the scheduler."""
        events = capture_trace(A64FX, exp_stream, iterations=24)
        n = len(exp_stream)
        last = {}
        for e in events:
            last[e.iteration] = max(last.get(e.iteration, 0.0), e.cycle)
        span = last[23] - last[7]
        traced_cpi = span / 16
        ref = schedule_on(A64FX, exp_stream).cycles_per_iter
        assert traced_cpi == pytest.approx(ref, rel=0.05)

    def test_validation(self, exp_stream):
        with pytest.raises(ValueError):
            capture_trace(A64FX, exp_stream, iterations=0)


class TestDiagram:
    def test_renders_busy_pipes_only(self, exp_stream):
        text = render_pipeline_diagram(A64FX, exp_stream)
        assert "fla" in text and "flb" in text
        assert "legend:" in text

    def test_blocking_op_occupies_pipe(self):
        stream = InstructionStream(
            body=[Instruction(Op.FSQRT, "y", ("x",), tag="fsqrt")],
            elements_per_iter=8, label="sqrt-only",
        )
        events = capture_trace(A64FX, stream, iterations=2)
        # second FSQRT waits the full 134-cycle blocking window
        assert events[1].cycle - events[0].cycle >= 134

    def test_dual_pipe_overlap_visible(self):
        body = [Instruction(Op.FMA, f"t{i}") for i in range(4)]
        stream = InstructionStream(body=body, elements_per_iter=8, label="fma4")
        events = capture_trace(A64FX, stream, iterations=1)
        by_cycle: dict[float, set] = {}
        for e in events:
            by_cycle.setdefault(e.cycle, set()).add(e.pipe)
        # some cycle uses both FP pipes
        assert any({Pipe.FLA, Pipe.FLB} <= pipes
                   for pipes in by_cycle.values())


def _rows(events):
    return [[e.index, e.iteration, e.position, e.cycle, e.pipe.value,
             e.mnemonic] for e in events]


@pytest.mark.parametrize(
    "kernel,march", GOLDEN_CASES,
    ids=[f"{k}-{m.name}" for k, m in GOLDEN_CASES])
class TestTraceGolden:
    """Issue logs and diagrams are pinned event for event."""

    def _case(self, kernel, march):
        golden = TRACE_GOLDEN[f"{kernel}/{march.name}"]
        tc = get_toolchain(golden["toolchain"])
        stream = compile_loop(build_kernel(kernel), tc, march).stream
        return golden, stream

    def test_issue_log(self, kernel, march):
        golden, stream = self._case(kernel, march)
        assert _rows(capture_trace(march, stream)) == golden["events"]
        assert _rows(capture_trace(march, stream, iterations=3,
                                   window=8)) == golden["events_w8"]

    def test_long_issue_log(self, kernel, march):
        golden, stream = self._case(kernel, march)
        rows = _rows(capture_trace(march, stream, iterations=24))
        assert len(rows) == golden["events_24_count"]
        blob = json.dumps(rows, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            golden["events_24_sha256"]

    def test_diagram(self, kernel, march):
        golden, stream = self._case(kernel, march)
        assert render_pipeline_diagram(march, stream) == golden["diagram"]
