"""Issue-trace capture and pipeline diagrams for the scheduler.

The scheduler reports steady-state aggregates; this module steps the
*same* engine lane (:class:`repro.engine.batch._Lane`, not a copy of it)
in its recording mode, logging when each instruction issues and on
which pipe, then renders the first iterations as a text pipeline
diagram — the tool one reaches for when asking "why is this kernel 2.2
cycles/element?" (exactly the Section IV exercise).

Recording disables steady-state extrapolation, so every issue of every
iteration is observed; the issue decisions are identical to the
aggregate scheduler's by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import require_positive
from repro.engine.batch import _Lane, _tables_for
from repro.engine.scheduler import PipelineScheduler
from repro.machine.isa import InstructionStream, Pipe
from repro.machine.microarch import Microarch

__all__ = ["IssueEvent", "capture_trace", "render_pipeline_diagram"]


@dataclass(frozen=True)
class IssueEvent:
    """One dynamic instruction's issue record."""

    index: int          #: dynamic instruction index
    iteration: int
    position: int       #: position within the loop body
    cycle: float
    pipe: Pipe
    mnemonic: str


def capture_trace(
    march: Microarch, stream: InstructionStream, iterations: int = 4,
    window: int | None = None,
) -> list[IssueEvent]:
    """Issue events of the first *iterations* of *stream* on *march*."""
    require_positive(iterations, "iterations")
    stream.validate()
    window = PipelineScheduler(march, window=window).window
    body = stream.body
    n_body = len(body)
    lane = _Lane(march, stream, window, _tables_for(march, stream),
                 True, iterations)
    lane.run()
    events: list[IssueEvent] = []
    for d, cycle, pipe in lane.events:
        ins = body[d % n_body]
        events.append(
            IssueEvent(
                index=d,
                iteration=d // n_body,
                position=d % n_body,
                cycle=cycle,
                pipe=pipe,
                mnemonic=ins.tag or ins.op.value,
            )
        )
    return events


def render_pipeline_diagram(
    march: Microarch,
    stream: InstructionStream,
    iterations: int = 2,
    max_cycles: int = 64,
) -> str:
    """Text pipeline diagram: one row per pipe, one column per cycle.

    Cells show the loop-body position of the instruction issued there
    (letters a-z for positions 0-25, then '+'), with '.' for idle cycles.
    """
    events = capture_trace(march, stream, iterations=iterations)
    horizon = min(max_cycles,
                  int(max(e.cycle for e in events)) + 1)
    pipes = [p for p in Pipe]
    grid = {p: ["."] * horizon for p in pipes}
    for e in events:
        c = int(e.cycle)
        if c < horizon:
            mark = chr(ord("a") + e.position) if e.position < 26 else "+"
            grid[e.pipe][c] = mark

    lines = [
        f"// {stream.label or 'kernel'} on {march.name}: first "
        f"{iterations} iterations (cells = body position a..z)"
    ]
    ruler = "".join(str(i % 10) for i in range(horizon))
    lines.append(f"{'cycle':>6} {ruler}")
    for p in pipes:
        row = "".join(grid[p])
        if set(row) != {"."}:
            lines.append(f"{p.value:>6} {row}")
    legend = ", ".join(
        f"{chr(ord('a') + i) if i < 26 else '+'}={ins.tag or ins.op.value}"
        for i, ins in enumerate(stream.body[:12])
    )
    lines.append(f"legend: {legend}" + (" ..." if len(stream.body) > 12 else ""))
    return "\n".join(lines)
