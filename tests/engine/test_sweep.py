"""Tests for the sweep runner.

``run_sweep`` predicts every sweep as one batch; its rows must equal
the per-point oracle in :mod:`tests.engine.sweep_oracle`.
"""

import pytest

from repro.compilers.cache import configure_compile_cache, get_compile_cache
from repro.engine.cache import configure, get_cache
from repro.engine.sweep import SweepPoint, run_sweep
from repro.perf.counters import ProfileScope
from tests.engine.sweep_oracle import oracle_rows


@pytest.fixture(autouse=True)
def fresh_cache():
    configure()
    configure_compile_cache()
    yield
    configure()
    configure_compile_cache()


class TestRunSweep:
    def test_rows_have_schedule_stats(self):
        rows = run_sweep([("simple", "fujitsu"), ("sqrt", "gnu")])
        assert [r["loop"] for r in rows] == ["simple", "sqrt"]
        for row in rows:
            assert row["cycles_per_iter"] > 0
            assert row["cycles_per_element"] > 0
            assert row["model_cycles_per_element"] > 0
            assert row["ipc"] > 0
            assert row["bound"]
            assert row["march"]

    def test_accepts_sweep_points_and_windows(self):
        narrow, wide = run_sweep([
            SweepPoint("exp", "fujitsu", window=1),
            SweepPoint("exp", "fujitsu"),
        ])
        assert narrow["window"] == 1
        assert narrow["cycles_per_iter"] >= wide["cycles_per_iter"]

    def test_intel_points_target_skylake(self):
        (row,) = run_sweep([("simple", "intel")])
        assert "6140" in row["march"] or "skylake" in row["march"].lower()


class TestMachineAxis:
    """SweepPoint.machine retargets a point at a catalog preset."""

    def test_machine_points_target_the_preset(self):
        (row,) = run_sweep([SweepPoint("simple", "gnu", machine="rvv")])
        assert row["machine"] == "rvv"
        assert row["march"] == "RVV-HBM"

    def test_rows_without_machine_have_no_machine_key(self):
        """Pre-machine-axis rows must stay byte-identical (row equality
        checks elsewhere depend on it)."""
        (row,) = run_sweep([("simple", "fujitsu")])
        assert "machine" not in row

    def test_machine_changes_the_prediction(self):
        default, rvv = run_sweep([
            SweepPoint("sqrt", "gnu"),
            SweepPoint("sqrt", "gnu", machine="rvv"),
        ])
        # RVV pipelines fsqrt (28/14) where the A64FX blocks (134/134)
        assert rvv["cycles_per_element"] < default["cycles_per_element"]

    def test_ecm_tier_uses_the_machine_system(self):
        (row,) = run_sweep(
            [SweepPoint("simple", "gnu", tier="ecm", machine="rvv")])
        assert row["machine"] == "rvv"
        assert row["cycles_per_element"] > 0

    def test_batched_matches_per_point_with_machines(self):
        """Mixed machine/default points through the batch path equal
        the per-point oracle row for row."""
        points = [
            SweepPoint(loop, tc, tier=tier, machine=machine)
            for loop in ("simple", "sqrt")
            for tc, machine in (("fujitsu", None), ("gnu", "rvv"),
                                ("fujitsu", "a64fx"), ("intel", None))
            for tier in ("engine", "ecm")
        ]
        per_point = oracle_rows(points)
        configure()
        configure_compile_cache()
        batched = run_sweep(points)
        assert batched == per_point

    def test_core_only_machine_ecm_raises(self):
        """thunderx2 has no node description: the ECM tier needs one."""
        with pytest.raises(ValueError, match="core-only"):
            run_sweep([SweepPoint("simple", "gnu", tier="ecm",
                                  machine="thunderx2")])

    def test_core_only_machine_engine_tier_works(self):
        (row,) = run_sweep([SweepPoint("simple", "gnu",
                                       machine="thunderx2")])
        assert row["march"] == "ThunderX2"


class TestBatchedEqualsOracle:
    """Every sweep, of any size, is one batch equal to the oracle."""

    def test_small_sweeps_ride_the_batch(self):
        points = [("simple", "fujitsu"), ("gather", "intel")]
        rows = run_sweep(points)
        # only the batch path compiles through the content cache
        assert get_compile_cache().stats()["misses"] == 2.0
        assert rows == oracle_rows(points)

    def test_empty_sweep(self):
        assert run_sweep([]) == []

    def test_full_grid_rows_match_oracle(self):
        """The 770-point mixed-tier window grid (every Fig. 1/2 loop x
        every toolchain, 4 engine and 10 ECM windows) equals the
        per-point oracle row for row, counter for counter and
        schedule-cache stat for stat."""
        from repro.compilers.toolchains import TOOLCHAINS
        from repro.kernels.loops import LOOP_NAMES, MATH_LOOP_NAMES

        points = [
            SweepPoint(loop, tc, window=win, tier=tier)
            for loop in LOOP_NAMES + MATH_LOOP_NAMES
            for tc in TOOLCHAINS
            for tier, windows in (
                ("engine", (None, 8, 24, 48)),
                ("ecm", (None, 2, 4, 8, 16, 24, 32, 48, 64, 96)),
            )
            for win in windows
        ]
        assert len(points) >= 512
        with ProfileScope("oracle") as oracle_counters:
            expected = oracle_rows(points)
        oracle_stats = get_cache().stats()
        configure()
        configure_compile_cache()
        with ProfileScope("batched") as batch_counters:
            rows = run_sweep(points)
        assert rows == expected
        assert batch_counters.as_dict() == oracle_counters.as_dict()
        assert get_cache().stats() == oracle_stats
