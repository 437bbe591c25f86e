"""Cross-machine grid sweeps (repro.machine.grid) and the crossover
report (repro.machine.crossover).

The load-bearing check is retarget soundness: compile sharing reuses
one lowered stream across every machine with the same codegen
signature, so a retargeted ``CompiledLoop`` must predict and schedule
exactly like a direct per-machine compile.
"""

import hashlib

import pytest

import repro.ecm.batch as ecm_batch
from repro.compilers.cache import cached_compile
from repro.compilers.toolchains import TOOLCHAINS
from repro.ecm.batch import clear_ecm_memos
from repro.ecm.model import predict_compiled
from repro.engine.cache import configure
from repro.engine.scheduler import PipelineScheduler
from repro.engine.sweep import SweepPoint, run_sweep
from repro.kernels.catalog import build_kernel
from repro.machine.crossover import (
    DEFAULT_MACHINES,
    REPORT_FORMAT,
    crossover_report,
    render,
)
from repro.machine.grid import (
    DEFAULT_KERNELS,
    GRID_FORMAT,
    codegen_signature,
    compile_for_machines,
    machine_grid_predictions,
    run_machine_grid,
)
from repro.machine.spec import MACHINE_SPECS, grid_specs

RTOL = 1e-9


class TestRetargetExactness:
    """replace(compiled, march=m) == compile_loop(..., m), bit for bit."""

    @pytest.mark.parametrize("kernel", ["simple", "gather", "sqrt"])
    def test_retarget_matches_direct_compile(self, kernel):
        specs = grid_specs(12)
        marches = [s.build_core() for s in specs]
        shared, skipped = compile_for_machines(kernel, marches)
        assert not skipped
        loop = build_kernel(kernel)
        for march, compiled in zip(marches, shared):
            direct = cached_compile(
                loop, TOOLCHAINS[compiled.toolchain.name], march)
            assert compiled.march is march
            # the shared stream keeps the first sharer's label; the
            # lowered instructions must be identical
            assert compiled.stream.body == direct.stream.body, march.name
            assert (compiled.stream.elements_per_iter
                    == direct.stream.elements_per_iter), march.name
            assert compiled.cycles_per_element == pytest.approx(
                direct.cycles_per_element, rel=RTOL), march.name
            retargeted = PipelineScheduler(march).steady_state(
                compiled.stream)
            ref = PipelineScheduler(march).steady_state(direct.stream)
            assert retargeted.cycles_per_iter == pytest.approx(
                ref.cycles_per_iter, rel=RTOL), march.name
            assert retargeted.bound == ref.bound, march.name

    def test_retarget_matches_direct_ecm(self):
        specs = grid_specs(8)
        marches = [s.build_core() for s in specs]
        shared, _ = compile_for_machines("simple", marches)
        loop = build_kernel("simple")
        for spec, march, compiled in zip(specs, marches, shared):
            direct = cached_compile(
                loop, TOOLCHAINS[compiled.toolchain.name], march)
            system = spec.build_system()
            a = predict_compiled(compiled, system)
            b = predict_compiled(direct, system)
            assert a.cycles_per_iter == b.cycles_per_iter, march.name
            assert a.seconds == b.seconds, march.name
            assert a.bound == b.bound, march.name

    def test_signature_sharing_is_real(self):
        """Machines differing only in window/clock/bandwidth share one
        compiled stream object."""
        specs = grid_specs(64)
        marches = [s.build_core() for s in specs]
        shared, _ = compile_for_machines("simple", marches)
        sigs = {codegen_signature(m) for m in marches}
        streams = {id(c.stream) for c in shared if c is not None}
        assert len(streams) <= len(sigs) * len(TOOLCHAINS)
        assert len(streams) < len(marches)


class TestMachineGridPredictions:
    def test_batch_matches_scalar(self):
        specs = grid_specs(24)
        items, preds, skipped = machine_grid_predictions(
            specs, kernels=("simple", "exp"))
        assert len(preds) == len(items)
        for (compiled, system, win), pred in zip(items, preds):
            scalar = predict_compiled(compiled, system, window=win)
            assert pred.cycles_per_iter == scalar.cycles_per_iter
            assert pred.seconds == scalar.seconds
            assert pred.bound == scalar.bound

    def test_batch_matches_per_point_at_grid_scale(self):
        """500 hypothetical machines x 4 kernels: every batched
        prediction equals its per-point predict_compiled twin in every
        field the grid reports."""
        specs = grid_specs(500)
        items, preds, skipped = machine_grid_predictions(
            specs, kernels=("simple", "gather", "sqrt", "exp"))
        assert len(items) + skipped == 4 * len(specs)

        def key(p):
            return (p.cycles_per_iter, p.elements_per_iter, p.n_iters,
                    p.clock_ghz, p.bound, p.seconds)

        per_point = [predict_compiled(c, system, window=win)
                     for c, system, win in items]
        assert list(map(key, preds)) == list(map(key, per_point))

    def test_fexpa_kernel_skips_machines_without_the_unit(self):
        """exp on RVV-based machines falls back past fujitsu/cray; the
        machines still compile via a non-FEXPA toolchain."""
        specs = grid_specs(24)
        items, _, skipped = machine_grid_predictions(
            specs, kernels=("exp",))
        assert len(items) + skipped == len(specs)


class TestRunMachineGrid:
    def test_document_structure(self):
        doc = run_machine_grid(machines=48, kernels=("simple", "sqrt"),
                               engine_kernels=("simple",))
        assert doc["format"] == GRID_FORMAT
        assert doc["machines"] == 48
        assert doc["ecm_points"] == 2 * 48 - doc["skipped"]
        assert doc["engine_points"] == 48
        assert doc["points"] == doc["ecm_points"] + doc["engine_points"]
        assert doc["points_per_sec"] > 0
        assert set(doc["shard"]) >= {"routing", "workers", "jobs"}
        assert set(doc["winners"]) == {"simple", "sqrt"}
        for win in doc["winners"].values():
            assert set(win) == {"kernel", "machine", "toolchain",
                                "seconds", "cycles_per_element", "bound"}

    def test_winner_is_the_minimum(self):
        doc = run_machine_grid(machines=32, kernels=("simple",),
                               engine_kernels=(), include_rows=True)
        rows = [r for r in doc["rows"] if r["kernel"] == "simple"]
        assert doc["winners"]["simple"]["seconds"] == min(
            r["seconds"] for r in rows)

    def test_thousand_machine_grid_is_enumerable(self):
        specs = grid_specs(1000)
        assert len(specs) == 1000
        assert len({s.name for s in specs}) == 1000


class TestContentIdentity:
    """Machines are keyed by what the tiers read, not by name or id:
    the default 1000-machine grid has 12 distinct cores and 24 distinct
    memory hierarchies, so it pays per distinct core, not per name."""

    def test_thousand_machine_grid_dedupes_by_content(self, monkeypatch):
        calls = {"base": 0, "traffic": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ecm_batch, "_stream_base",
                            counted("base", ecm_batch._stream_base))
        monkeypatch.setattr(ecm_batch, "data_cycles",
                            counted("traffic", ecm_batch.data_cycles))
        configure()
        clear_ecm_memos()
        try:
            doc = run_machine_grid(machines=1000, include_rows=True)
        finally:
            configure()
            clear_ecm_memos()
        assert doc["engine_points"] == 2000
        assert doc["shard"]["jobs"] <= 300
        assert calls["base"] <= 300
        assert calls["traffic"] <= 450

        items, _, _ = machine_grid_predictions(grid_specs(1000))
        oracle = []
        for compiled, system, window in items:
            pred = predict_compiled(compiled, system, window=window)
            oracle.append({
                "kernel": compiled.loop.name,
                "machine": compiled.march.name,
                "toolchain": compiled.toolchain.name,
                "seconds": pred.seconds,
                "cycles_per_element": pred.cycles_per_element,
                "bound": pred.bound,
            })
        assert doc["rows"] == oracle

    def test_shared_timing_tables_are_not_mutated(self):
        """Building the grid and sweeping the Skylake aliases (one
        timing table, four names) leaves every interned table as it
        was."""
        specs = list(MACHINE_SPECS.values()) + grid_specs(1000)
        cores = [spec.build_core() for spec in specs]
        tables = list({id(c.timings): c.timings for c in cores}.values())
        # one shared table per distinct timing tuple
        assert len(tables) == len({spec.timings for spec in specs})

        def digests():
            return [hashlib.sha256(repr(t).encode()).hexdigest()
                    for t in tables]

        before = digests()
        run_machine_grid(machines=1000)
        points = [SweepPoint(kernel, "intel", window, tier, machine)
                  for machine in ("skylake-6140", "skylake-6130",
                                  "skylake-8160", "skx")
                  for kernel in ("simple", "sqrt", "spmv_crs")
                  for window in (None, 8)
                  for tier in ("engine", "ecm")]
        rows = run_sweep(points)
        assert len(rows) == len(points)
        assert digests() == before


class TestCrossoverReport:
    @pytest.fixture(scope="class")
    def report(self):
        return crossover_report()

    def test_structure(self, report):
        assert report["format"] == REPORT_FORMAT
        assert set(report["machines"]) == set(DEFAULT_MACHINES)
        assert report["points"] > 0
        for entry in report["kernels"].values():
            assert entry["winner"] in entry["per_machine"]

    def test_reproduces_the_paper_crossover(self, report):
        """Figs. 1-2 qualitatively: Skylake's clock wins the small
        latency-bound kernels, the A64FX's HBM2 wins the
        bandwidth-bound sparse/stencil workloads."""
        kernels = report["kernels"]
        assert kernels["simple"]["winner"] != "a64fx"
        for kernel in ("spmv_sell", "stencil2d", "stencil3d"):
            assert kernels[kernel]["a64fx_over_skylake"] > 1.0, kernel
        assert 1 <= report["a64fx_wins"] < len(kernels)

    def test_fexpa_only_recipes_skip_machines(self, report):
        """rvv has no FEXPA: fujitsu/cray exp recipes must not appear
        for it, but exp still scores via arm/gnu."""
        assert "exp" in report["kernels"]
        assert "rvv" in report["kernels"]["exp"]["per_machine"]

    def test_render(self, report):
        text = render(report)
        assert "machine crossover" in text
        for key in DEFAULT_MACHINES:
            assert key in text
