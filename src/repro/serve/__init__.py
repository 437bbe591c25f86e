"""Simulation-as-a-service: the persistent prediction server.

One-shot CLIs pay compilation, table construction and scheduler
warm-up per invocation; design-space tooling that asks one question at
a time throws the process-wide caches away every time.  This package
keeps them alive: a long-running :class:`~repro.serve.server.
PredictionServer` accepts JSON prediction requests over a local socket
or stdin/stdout (:mod:`repro.serve.protocol`), coalesces concurrent
requests into micro-batches (:mod:`repro.serve.queue`), deduplicates
identical work in flight, and executes engine-tier batches through the
SoA scheduling engine and ECM-tier batches through the vectorized
analytical model — returning versioned ``repro.serve/1`` responses
with per-request cache/batch provenance.

``python -m repro serve`` runs the daemon; ``benchmarks/e2e`` measures
it end to end.  See ``docs/SERVING.md``.
"""

from repro.serve.client import ServeClient
from repro.serve.protocol import (
    PROTOCOL_FORMAT,
    PredictRequest,
    ProtocolError,
    parse_request,
)
from repro.serve.queue import MicroBatcher
from repro.serve.server import (
    PredictionServer,
    TcpFrontend,
    reset_session_stats,
    serve_stdio,
    session_stats,
)

__all__ = [
    "MicroBatcher",
    "PROTOCOL_FORMAT",
    "PredictRequest",
    "PredictionServer",
    "ProtocolError",
    "ServeClient",
    "TcpFrontend",
    "parse_request",
    "reset_session_stats",
    "serve_stdio",
    "session_stats",
]
