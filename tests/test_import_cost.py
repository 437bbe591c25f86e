"""Entry-point imports stay lean.

``repro run`` and ``repro serve`` start by importing
:mod:`repro.bench.harness` / :mod:`repro.serve.server`; neither needs
scipy (only the NPB CG/LU numerics do, and they import it when they
run), so a fresh interpreter importing them must not load it — nor
``numpy.testing`` or ``unittest``, which scipy drags in.  Neither runs a
process pool either: only :mod:`repro.engine.shard` forks, and it
imports the pool machinery (``multiprocessing``,
``concurrent.futures.process``) when a batch is sharded.
"""

import subprocess
import sys

import pytest

HEAVY = ("scipy", "numpy.testing", "unittest", "multiprocessing",
         "concurrent.futures.process")


@pytest.mark.parametrize("module", ["repro.bench.harness",
                                    "repro.serve.server"])
def test_entry_import_does_not_load_heavy_modules(module):
    code = (
        "import sys\n"
        f"import {module}\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == "", f"importing {module} loaded {out}"
