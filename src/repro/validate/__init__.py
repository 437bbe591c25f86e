"""Model-validation subsystem: static analysis + runtime invariants.

Four passes cross-check the performance model against itself and
against its frozen golden reference (see ``docs/VALIDATION.md``):

1. **ir** — loop/stream well-formedness after the vectorizer and the
   code generator (:mod:`repro.validate.ir`);
2. **schedule** — scheduler and executor machine invariants replayed
   from the issue-event log (:mod:`repro.validate.schedule`);
3. **counters** — PMU-counter reconciliation identities
   (:mod:`repro.validate.reconcile`);
4. **fuzz** — differential fuzzing of the scheduling engine against
   :mod:`repro.engine._reference` (:mod:`repro.validate.fuzz`).

Three front ends share these passes: the library API
(:func:`validate_all`), strict inline hooks for the test suite
(:mod:`repro.validate.hooks`, enabled by ``REPRO_VALIDATE=1``), and the
``python -m repro validate`` CLI, which additionally re-scores every
paper expectation (:mod:`repro.validate.bands`) and emits a versioned
``repro.validate/1`` JSON report.
"""

from repro.validate.report import (
    VALIDATE_SCHEMA,
    PassResult,
    ValidationError,
    ValidationReport,
    Violation,
)
from repro.validate.runner import validate_all

__all__ = [
    "VALIDATE_SCHEMA",
    "Violation",
    "PassResult",
    "ValidationReport",
    "ValidationError",
    "validate_all",
]
