"""Analytical ECM prediction tier (Execution-Cache-Memory model).

The repository predicts kernel runtimes at two speeds, each checked
against the frozen seed scheduler (:mod:`repro.engine._reference`):

1. **the engine** — cycle-level simulation of the loop body
   (:mod:`repro.engine.batch`, with steady-state period detection, in
   front of the schedule cache); ``PipelineScheduler(march,
   extrapolate=False)`` steps every iteration instead;
2. **this package** — no simulation at all: closed-form ``T_comp`` from
   the instruction mix against the port/issue/latency tables
   (:mod:`repro.ecm.incore`), closed-form ``T_data`` from per-boundary
   cacheline traffic against documented bandwidths
   (:mod:`repro.ecm.traffic`), composed per the machine's measured
   overlap rule (:mod:`repro.ecm.model`) — microseconds per prediction,
   which is what makes large design-space sweeps interactive.

The model follows Alappat et al. (arXiv 2103.03013, 2009.13903): on
x86 cores in-core work overlaps all transfers
(``T = max(T_OL, T_nOL + sum T_data)``); the A64FX shows essentially no
such overlap (``T = T_comp + sum T_data``).  The rule is carried by the
machine table (:attr:`repro.machine.microarch.Microarch.mem_overlap`),
not by name checks.

Accuracy is *enforced*, not hoped for: the ``ecm`` reconciliation pass
(:mod:`repro.validate.reconcile`) and the ``tests/ecm`` suite bound the
ECM-vs-engine deviation per kernel with the stated tolerances in
:data:`repro.ecm.model.ECM_TOLERANCES`, and the differential fuzzer
extends the same check to random loops.
"""

from repro.ecm.incore import InCoreSummary, analyze_stream
from repro.ecm.model import (
    ECM_DEFAULT_TOLERANCE,
    ECM_TOLERANCES,
    EcmComparison,
    EcmPrediction,
    compare_kernel,
    ecm_tolerance,
    engine_seconds_for,
    predict_compiled,
    predict_kernel,
    prediction_to_json,
)
from repro.ecm.report import render_comparison, render_prediction
from repro.ecm.traffic import BoundaryTraffic, StreamTraffic, data_cycles

__all__ = [
    "InCoreSummary",
    "analyze_stream",
    "BoundaryTraffic",
    "StreamTraffic",
    "data_cycles",
    "EcmPrediction",
    "EcmComparison",
    "ECM_TOLERANCES",
    "ECM_DEFAULT_TOLERANCE",
    "ecm_tolerance",
    "predict_compiled",
    "predict_kernel",
    "engine_seconds_for",
    "compare_kernel",
    "prediction_to_json",
    "render_prediction",
    "render_comparison",
]
