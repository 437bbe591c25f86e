#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one run.

Walks the experiment registry (Table I-III, Figures 1-9, the Section IV
exponential study) and prints each artifact as a plain-text table.  This
is the full evaluation section of 'A64FX performance: experience on
Ookami', regenerated from the models in a few seconds.

Run:  python examples/reproduce_paper.py [experiment-id ...]
      (no arguments = everything; ids: table1, fig1, fig2, sec4, fig3,
       fig4, fig5, fig6, table2, fig7, table3, fig8, fig9ab, fig9cd)

The experiments render one after another in one process and share
schedules through the content-addressed cache.
"""

import sys
import time

from repro.bench.harness import EXPERIMENTS
from repro.bench.report import render_experiment


def main(argv: list[str]) -> int:
    ids = argv or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}")
        print(f"available: {sorted(EXPERIMENTS)}")
        return 1
    t0 = time.perf_counter()
    for exp_id in ids:
        print(render_experiment(exp_id))
    print(f"regenerated {len(ids)} artifacts in "
          f"{time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
