"""Tests for the sharded batch scheduler (process-pool fan-out)."""

import pickle
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS, get_toolchain
from repro.engine._reference import ReferenceScheduler
from repro.engine.batch import clear_tables, schedule_batch
from repro.engine.cache import configure, get_cache
from repro.engine.scheduler import (
    PipelineScheduler,
    ScheduleDivergence,
    clear_memos,
)
import repro.engine.shard as shard_mod
from repro.engine.shard import (
    PoolDowngradeWarning,
    last_shard_plan,
    schedule_batch_sharded,
)
from repro.kernels.loops import LOOP_NAMES, MATH_LOOP_NAMES, build_loop
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.perf.counters import ProfileScope


@pytest.fixture(autouse=True)
def fresh_state():
    configure()
    clear_memos()
    clear_tables()
    yield
    configure()
    clear_memos()
    clear_tables()


def _requests():
    """A mixed request set spanning loops, marches and windows."""
    reqs = []
    for loop in ("simple", "gather", "sqrt"):
        for tc_name in ("fujitsu", "gnu", "intel"):
            tc = get_toolchain(tc_name)
            march = SKYLAKE_6140 if tc.target == "x86" else A64FX
            compiled = compile_loop(build_loop(loop), tc, march)
            for window in (None, 8, 24):
                reqs.append((march, compiled.stream, window))
    return reqs


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("workers,routing", [
        pytest.param(1, "serial", id="serial"),
        pytest.param(3, "sharded", id="process"),
    ])
    def test_results_bit_identical(self, workers, routing):
        reqs = _requests()
        serial = schedule_batch(reqs, cache=False)
        clear_memos()
        clear_tables()
        sharded = schedule_batch_sharded(
            reqs, cache=False, max_workers=workers)
        assert last_shard_plan()["routing"] == routing
        assert sharded == serial

    def test_matches_scalar_scheduler(self):
        """Sharded results match the frozen seed scheduler (1e-9)."""
        reqs = _requests()
        sharded = schedule_batch_sharded(reqs, cache=False, max_workers=3)
        for (march, stream, window), result in zip(reqs, sharded):
            ref = ReferenceScheduler(march, window=window) \
                .steady_state(stream)
            assert result.cycles_per_iter == pytest.approx(
                ref.cycles_per_iter, rel=1e-9)
            assert result.ipc == pytest.approx(ref.ipc, rel=1e-9)
            assert result.bound == ref.bound
            assert result.label == ref.label
            for pipe, occ in ref.pipe_occupancy.items():
                assert result.pipe_occupancy[pipe] == pytest.approx(
                    occ, rel=1e-9, abs=1e-9)

    def test_grid_requests_bit_identical(self):
        """Every Fig. 1/2 loop x toolchain x window (None, 8, 24, 48)
        sharded over a process pool equals the serial batch."""
        reqs = []
        for loop in LOOP_NAMES + MATH_LOOP_NAMES:
            for tc_name in TOOLCHAINS:
                tc = get_toolchain(tc_name)
                march = SKYLAKE_6140 if tc.target == "x86" else A64FX
                stream = compile_loop(build_loop(loop), tc, march).stream
                reqs += [(march, stream, w) for w in (None, 8, 24, 48)]
        serial = schedule_batch(reqs, cache=False)
        clear_memos()
        clear_tables()
        sharded = schedule_batch_sharded(reqs, cache=False, max_workers=2)
        assert sharded == serial

    def test_counters_and_stats_match_serial_batch(self):
        reqs = _requests()
        with ProfileScope("serial") as serial_counters:
            serial = schedule_batch(reqs)
        serial_stats = get_cache().stats()

        configure()
        clear_memos()
        clear_tables()
        with ProfileScope("sharded") as shard_counters:
            sharded = schedule_batch_sharded(reqs, max_workers=3)
        assert sharded == serial
        assert shard_counters.as_dict() == serial_counters.as_dict()
        assert get_cache().stats() == serial_stats

    def test_effective_mode_reported(self):
        reqs = _requests()
        schedule_batch_sharded(reqs, cache=False, max_workers=3)
        assert last_shard_plan()["routing"] == "sharded"
        schedule_batch_sharded(reqs, cache=False, max_workers=1)
        assert last_shard_plan()["routing"] == "serial"


class TestShardedShortCircuits:
    def test_empty_batch(self):
        assert schedule_batch_sharded([]) == []

    def test_single_job_runs_serially(self):
        tc = get_toolchain("fujitsu")
        compiled = compile_loop(build_loop("simple"), tc, A64FX)
        results = schedule_batch_sharded(
            [(A64FX, compiled.stream)] * 3, cache=False)
        assert last_shard_plan()["routing"] == "serial"  # one unique lane
        assert results[0] == results[1] == results[2]

    def test_one_worker_runs_serially(self):
        reqs = _requests()
        sharded = schedule_batch_sharded(reqs, cache=False, max_workers=1)
        assert last_shard_plan()["routing"] == "serial"
        clear_memos()
        clear_tables()
        assert sharded == schedule_batch(reqs, cache=False)


class _BrokenPool:
    """A pool whose every future fails as if its worker had died."""

    def __init__(self, workers):
        self.workers = workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_exception(BrokenProcessPool("worker killed"))
        return fut


class TestPoolDowngrade:
    """An unusable pool simulates the planned jobs in-process."""

    def _assert_falls_back(self):
        reqs = _requests()
        with ProfileScope("serial") as serial_counters:
            serial = schedule_batch(reqs, cache=False)
        clear_memos()
        clear_tables()
        with pytest.warns(PoolDowngradeWarning):
            with ProfileScope("fallback") as counters:
                sharded = schedule_batch_sharded(
                    reqs, cache=False, max_workers=3)
        assert sharded == serial
        assert counters.as_dict() == serial_counters.as_dict()
        assert last_shard_plan()["routing"] == "serial"

    def test_creation_failure_falls_back_in_process(self, monkeypatch):
        def _no_fork(workers):
            raise OSError("no fork in sandbox")

        monkeypatch.setattr(shard_mod, "_process_pool", _no_fork)
        self._assert_falls_back()

    def test_broken_pool_falls_back_in_process(self, monkeypatch):
        monkeypatch.setattr(shard_mod, "_process_pool", _BrokenPool)
        self._assert_falls_back()


class TestDivergenceAcrossShards:
    def test_divergence_propagates(self, monkeypatch):
        monkeypatch.setattr(PipelineScheduler, "MAX_CYCLES", 50.0)
        reqs = _requests()
        with pytest.raises(ScheduleDivergence):
            schedule_batch_sharded(reqs, cache=False, max_workers=3)

    def test_worker_divergence_is_not_a_pool_failure(self, monkeypatch):
        """A divergence raised by a worker propagates; no fallback."""
        tc = get_toolchain("fujitsu")
        stream = compile_loop(build_loop("simple"), tc, A64FX).stream

        class _DivergingPool(_BrokenPool):
            def submit(self, fn, *args):
                fut = Future()
                fut.set_exception(ScheduleDivergence(
                    stream, 24, 0, len(stream.body)))
                return fut

        monkeypatch.setattr(shard_mod, "_process_pool", _DivergingPool)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PoolDowngradeWarning)
            with pytest.raises(ScheduleDivergence):
                schedule_batch_sharded(_requests(), cache=False,
                                       max_workers=3)

    def test_divergence_pickles_by_field(self):
        tc = get_toolchain("fujitsu")
        compiled = compile_loop(build_loop("simple"), tc, A64FX)
        exc = ScheduleDivergence(
            compiled.stream, 24, stuck_index=7,
            n_body=len(compiled.stream.body))
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, ScheduleDivergence)
        assert clone.args == exc.args
        for field in ("label", "window", "stuck_index", "stuck_iteration",
                      "stuck_position", "stuck_mnemonic"):
            assert getattr(clone, field) == getattr(exc, field)


class TestShardRouting:
    """Profitability routing: small pools/batches run the serial path."""

    def test_plan_serial_below_min_jobs(self):
        from repro.engine.shard import SHARD_MIN_JOBS, plan_shards

        assert plan_shards(0) == ("serial", 1)
        assert plan_shards(SHARD_MIN_JOBS - 1, max_workers=4) == \
            ("serial", 1)

    def test_plan_explicit_workers_force_sharding(self):
        from repro.engine.shard import plan_shards

        assert plan_shards(9, max_workers=3) == ("sharded", 3)
        # workers never exceed the unique-lane count
        assert plan_shards(4, max_workers=8) == ("sharded", 4)

    def test_plan_auto_mode_caps_by_cpu_and_lane_share(self, monkeypatch):
        import repro.engine.shard as shard_mod
        from repro.engine.shard import (
            SHARD_MIN_JOBS_PER_WORKER,
            plan_shards,
        )

        monkeypatch.setattr(shard_mod.os, "cpu_count", lambda: 1)
        assert plan_shards(100) == ("serial", 1)  # 1-core pools only lose
        monkeypatch.setattr(shard_mod.os, "cpu_count", lambda: 8)
        assert plan_shards(SHARD_MIN_JOBS_PER_WORKER - 1) == ("serial", 1)
        routing, workers = plan_shards(4 * SHARD_MIN_JOBS_PER_WORKER)
        assert routing == "sharded"
        assert workers == 4

    def test_serial_route_taken_and_reported(self):
        from repro.engine.shard import last_shard_plan

        tc = get_toolchain("fujitsu")
        compiled = compile_loop(build_loop("simple"), tc, A64FX)
        reqs = [(A64FX, compiled.stream, w) for w in (None, 8)]
        serial = schedule_batch(reqs, cache=False)
        clear_memos()
        clear_tables()
        sharded = schedule_batch_sharded(reqs, cache=False, max_workers=3)
        assert sharded == serial
        plan = last_shard_plan()
        assert plan["routing"] == "serial"
        assert plan["workers"] == 1
        assert plan["jobs"] == 2

    def test_sharded_route_reported(self):
        from repro.engine.shard import last_shard_plan

        schedule_batch_sharded(_requests(), cache=False, max_workers=3)
        plan = last_shard_plan()
        assert plan["routing"] == "sharded"
        assert plan["workers"] == 3
        assert plan["jobs"] >= 4
