"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; they are
not part of the tier-1 suite under ``tests/``.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from e2e import run as R  # noqa: E402
from e2e import workloads as W  # noqa: E402
from e2e.trace import Span, Tracer, self_times, timing_identity  # noqa: E402


@pytest.fixture(autouse=True)
def _child_env(monkeypatch):
    """One-shot children import ``repro`` from this checkout."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)


@pytest.fixture(scope="module")
def golden() -> dict:
    return W.load_golden()


# ----------------------------------------------------------------------
# tracer
def test_tracer_wraps_from_import_binding_and_restores():
    import repro.kernels.catalog as catalog
    import repro.machine.grid as grid
    from repro.machine.microarch import A64FX
    from repro.serve.server import PredictionServer

    original = catalog.build_kernel
    original_method = PredictionServer.__dict__["submit_line"]
    assert grid.build_kernel is original          # a `from` import binding
    with Tracer() as tracer:
        assert grid.build_kernel is not original
        assert grid.build_kernel is catalog.build_kernel
        assert PredictionServer.__dict__["submit_line"] is not original_method
        grid.compile_for_machines("simple", [A64FX])
    assert grid.build_kernel is original and catalog.build_kernel is original
    assert PredictionServer.__dict__["submit_line"] is original_method
    assert not tracer.missing

    by_name = {s.name: s for s in tracer.spans}
    outer = by_name["machine.grid.compile_for_machines"]
    inner = by_name["kernels.catalog.build_kernel"]
    assert outer.parent is None and inner.parent == outer.sid
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_self_time_subtracts_child_spans():
    spans = [
        Span(1, 0, "engine.cache.cached_schedule", 7, 0.2, 0.5, None),
        Span(2, 0, "compilers.codegen.compile_loop", 7, 0.6, 0.7, None),
        Span(0, None, "bench.report.render_experiment", 7, 0.0, 1.0, None),
    ]
    rows = self_times(spans)
    assert rows["bench.report.render_experiment"]["self_s"] == (
        pytest.approx(0.6))
    assert rows["engine.cache.cached_schedule"]["self_s"] == pytest.approx(0.3)
    assert rows["bench.report.render_experiment"]["calls"] == 1
    unattributed, ok = timing_identity(spans, 1.25)
    assert ok and unattributed == pytest.approx(0.25)
    # a child whose parent span was lost breaks the identity
    _u, ok = timing_identity(spans[:2], 1.25)
    assert not ok


# ----------------------------------------------------------------------
# output checks
def test_corrupted_response_is_a_failure(golden):
    from repro.serve.server import PredictionServer

    universe = W.serve_universe()
    with PredictionServer(naive=True) as server:
        resp = server.request({"id": 7, **universe[5]})
    assert W.check_response(5, 7, resp, golden)
    bad = copy.deepcopy(resp)
    bad["result"]["cycles_per_element"] *= 1.0 + 1e-12
    assert not W.check_response(5, 7, bad, golden)
    assert not W.check_response(5, 8, resp, golden)     # wrong id echoed
    assert not W.check_response(5, 7, None, golden)     # no reply


def test_malformed_request_answered_with_error_is_correct(golden):
    from repro.serve.server import PredictionServer

    with PredictionServer() as server:
        for i, doc in enumerate(W.MALFORMED):
            resp = server.request({"id": i, **doc})
            assert W.check_response(-1, i, resp, golden), doc
    assert not W.check_response(-1, 0, {"ok": True, "id": 0, "result": {}},
                                golden)


def test_corrupted_artifacts_raise_failed_frac(golden):
    bad = copy.deepcopy(golden)
    bad["paper"]["fig1"] = "0" * 16
    paper = W.run_paper(0, 0.0, False, bad, min_runs=1)
    assert paper["failed"] == 1 and not paper["correct"]
    assert paper["info"]["failed_frac"] == pytest.approx(1 / 14)

    bad["serve_universe"] = ["0" * 16] * len(golden["serve_universe"])
    served = W.run_serve_open(3, 0.2, False, bad, warmup_s=0.05)
    assert served["info"]["failed_frac"] > 0.9 and not served["correct"]


def test_open_loop_latency_counts_sender_stalls():
    stall = 0.05

    def submit(line: str) -> Future:
        if line == "0":
            time.sleep(stall)          # the sender stalls on request 0
        fut: Future = Future()
        fut.set_result({"ok": True})
        return fut

    t0 = time.perf_counter() + 0.01
    due = [t0 + i * 0.001 for i in range(10)]
    done: dict[int, float] = {}
    sent = W.open_loop(submit, [str(i) for i in range(10)], due,
                       lambda i, t, _f: done.__setitem__(i, t))
    assert sorted(done) == list(range(10))
    # request 1 was due 1 ms after request 0 but could only go out after
    # the stall: measured from its due time, it carries the stall
    assert sent[1] - due[1] >= stall - 0.005
    assert done[1] - due[1] >= stall - 0.005


# ----------------------------------------------------------------------
# workloads and the run document
def _tiny_grid_golden(golden: dict, machines: int) -> dict:
    from repro.machine.grid import run_machine_grid

    out = copy.deepcopy(golden)
    out["design_grid"] = W.grid_digest(
        run_machine_grid(machines=machines, include_rows=True))
    return out


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_workload_completes_at_tiny_size(name, golden, tmp_path):
    spans = str(tmp_path / "spans.jsonl")
    if name == "paper":
        res = W.run_paper(0, 0.0, True, golden, spans, min_runs=1)
    elif name == "design_grid":
        res = W.run_design_grid(0, 0.0, True, _tiny_grid_golden(golden, 20),
                                spans, min_runs=1, machines=20)
    elif name == "serve_interactive":
        res = W.run_serve_interactive(1, 0.2, True, golden, spans, warmup=10)
    else:
        res = W.run_serve_open(1, 0.2, True, golden, spans, warmup_s=0.1)
    assert res["correct"], res
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(W.E2E_METRICS)
    assert all(v > 0 for v in res["metrics"].values())
    units = W.layer_units()
    assert set(res["layers"]) == set(units) - {"harness.trace_overhead"}
    with open(spans, encoding="utf-8") as fh:
        assert all("name" in json.loads(line) for line in fh)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == W.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        W.layer_units())


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert R.verdict(steady, [130.0, 131.0, 129.0], "lower", 0.1) == "worse"
    assert R.verdict(steady, [100.2, 99.8, 100.1], "lower", 0.1) == "same"
    assert R.verdict(steady, [80.0, 81.0, 79.0], "lower", 0.1) == "better"
    assert R.verdict(steady, [80.0, 81.0, 79.0], "higher", 0.1) == "worse"
    noisy = [60.0, 100.0, 140.0, 100.0]
    assert R.verdict(noisy, [100.0, 101.0], "lower", 0.1) == "unresolved"
    assert R.verdict(noisy, [50.0, 51.0], "lower", 0.1) == "better"
