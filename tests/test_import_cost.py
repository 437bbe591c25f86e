"""Entry-point imports stay lean.

``repro run`` and ``repro serve`` start by importing
:mod:`repro.bench.harness` / :mod:`repro.serve.server`; neither needs
scipy (only the NPB CG/LU numerics do, and they import it when they
run), so a fresh interpreter importing them must not load it — nor
``numpy.testing`` or ``unittest``, which scipy drags in.
"""

import subprocess
import sys

import pytest

HEAVY = ("scipy", "numpy.testing", "unittest")


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
