"""Golden equivalence and wiring tests for the batched SoA engine.

Batching is a pure optimization: one array-stepped batch over many
(march, stream, window) points must be **bit-exact** against the same
points stepped alone (a batch of one) and match (at 1e-9 relative) the
frozen seed implementation in :mod:`repro.engine._reference` — results,
``pipeline.*`` counter payloads, and schedule-cache statistics
included.  The full Fig. 1/2 catalog crossed with every toolchain rides
through a single batch call here, plus dedup/cache semantics, sweep
rows, observer records and the error paths.
"""

import pytest

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS
from repro.engine._reference import ReferenceScheduler
from repro.engine.batch import clear_tables, schedule_batch
from repro.engine.cache import (
    cached_schedule,
    configure,
    get_cache,
    march_fingerprint,
    stream_fingerprint,
)
from repro.engine.scheduler import (
    PipelineScheduler,
    ScheduleDivergence,
    add_schedule_observer,
    clear_memos,
    remove_schedule_observer,
    schedule_on,
)
from repro.engine.sweep import run_sweep
from repro.kernels.catalog import SUITE_KERNEL_NAMES
from repro.machine.isa import Instruction, InstructionStream, Op
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.perf.counters import ProfileScope
from repro.validate.schedule import ScheduleInvariantChecker
from tests.engine.sweep_oracle import oracle_rows

RTOL = 1e-9

#: the full Fig. 1 loop-variant and Fig. 2 math-kernel catalog, crossed
#: with all five toolchains — the same suite the benchmark times
POINTS = [(loop, tc) for loop in SUITE_KERNEL_NAMES for tc in TOOLCHAINS]


def _march_for(tc_name):
    return SKYLAKE_6140 if TOOLCHAINS[tc_name].target == "x86" else A64FX


def _stream_for(loop, tc_name):
    return compile_loop(
        build_kernel(loop), TOOLCHAINS[tc_name], _march_for(tc_name)
    ).stream


def build_kernel(name):
    from repro.kernels.catalog import build_kernel as _build

    return _build(name)


def _suite_requests():
    return [(_march_for(tc), _stream_for(loop, tc)) for loop, tc in POINTS]


def _alone(march, stream, window=None):
    """*stream* stepped as a batch of one, uncached."""
    return schedule_batch([(march, stream, window)], cache=False)[0]


def _seed(march, stream, window=None):
    """The frozen seed scheduler's answer for the same point."""
    return ReferenceScheduler(march, window=window).steady_state(stream)


def assert_bit_exact(res, ref):
    """Every field identical, label included."""
    assert res.cycles_per_iter == ref.cycles_per_iter
    assert res.ipc == ref.ipc
    assert res.elements_per_iter == ref.elements_per_iter
    assert res.instructions_per_iter == ref.instructions_per_iter
    assert res.bound == ref.bound
    assert res.label == ref.label
    assert res.pipe_occupancy == ref.pipe_occupancy


def assert_results_match(res, ref):
    """Batch vs the seed scheduler: 1e-9 relative, like the golden suite."""
    assert res.cycles_per_iter == pytest.approx(
        ref.cycles_per_iter, rel=RTOL)
    assert res.ipc == pytest.approx(ref.ipc, rel=RTOL)
    assert res.elements_per_iter == ref.elements_per_iter
    assert res.instructions_per_iter == ref.instructions_per_iter
    assert res.bound == ref.bound
    assert res.label == ref.label
    for pipe, occ in ref.pipe_occupancy.items():
        assert res.pipe_occupancy[pipe] == pytest.approx(
            occ, rel=RTOL, abs=RTOL)


@pytest.fixture(autouse=True)
def fresh_state():
    """Isolate every test from cache/memo state built up elsewhere."""
    configure()
    clear_memos()
    clear_tables()
    yield
    configure()


class TestBatchGoldenEquivalence:
    def test_full_suite_bit_exact_vs_event_driven(self):
        """One batch over the whole catalog == every point stepped alone
        through the event-driven engine, bit for bit: an answer does not
        depend on which other lanes share its batch."""
        results = schedule_batch(_suite_requests(), cache=False)
        assert len(results) == len(POINTS)
        for (loop, tc), res in zip(POINTS, results):
            assert_bit_exact(res, _alone(_march_for(tc),
                                         _stream_for(loop, tc)))

    def test_full_suite_matches_seed_reference(self):
        """The same batch also reproduces the frozen seed scheduler."""
        results = schedule_batch(_suite_requests(), cache=False)
        for (loop, tc), res in zip(POINTS, results):
            ref = ReferenceScheduler(_march_for(tc)).steady_state(
                _stream_for(loop, tc))
            assert_results_match(res, ref)

    def test_windowed_requests_bit_exact(self):
        """Explicit (and mixed) windows in one batch: bit-exact against
        each window alone, and the seed scheduler at that window."""
        march = _march_for("fujitsu")
        stream = _stream_for("predicate", "fujitsu")
        requests = [(march, stream, w) for w in (1, 2, 8, 32, None)]
        results = schedule_batch(requests, cache=False)
        for (_, _, w), res in zip(requests, results):
            assert_bit_exact(res, _alone(march, stream, w))
            assert_results_match(res, _seed(march, stream, w))

    @pytest.mark.parametrize("tc", list(TOOLCHAINS))
    def test_counter_payload_identical(self, tc):
        """pipeline.* emissions of a two-lane batch equal the two lanes
        run one after the other, bit for bit, and the seed scheduler's
        at 1e-9."""
        march = _march_for(tc)
        streams = [_stream_for(loop, tc) for loop in ("gather", "sqrt")]
        with ProfileScope("alone") as alone:
            for stream in streams:
                _alone(march, stream)
        with ProfileScope("seed") as seed:
            for stream in streams:
                _seed(march, stream)
        with ProfileScope("batched") as batched:
            schedule_batch([(march, s) for s in streams], cache=False)
        assert batched.as_dict() == alone.as_dict()
        assert batched.as_dict() == pytest.approx(seed.as_dict(), rel=RTOL)

    def test_issue_slot_identity_holds(self):
        """issue_slots.total == used + stalled on the batched path."""
        march = _march_for("arm")
        stream = _stream_for("simple", "arm")
        with ProfileScope("batched") as counters:
            schedule_batch([(march, stream)], cache=False)
        c = counters.as_dict()
        assert (c["pipeline.issue_slots.total"]
                == c["pipeline.issue_slots.used"]
                + c["pipeline.issue_slots.stalled"])


class TestBatchCacheSemantics:
    def test_cache_stats_match_sequential_path(self):
        """One batch produces the same hit/miss/entry counts as running
        schedule_on over the same points in the same order."""
        requests = _suite_requests()
        for march, stream in requests:
            schedule_on(march, stream)
        sequential = get_cache().stats()
        configure()
        schedule_batch(requests)
        batched = get_cache().stats()
        assert batched == sequential

    def test_warm_replay_bit_exact(self):
        """A second identical batch is all cache hits, same results."""
        requests = _suite_requests()
        cold = schedule_batch(requests)
        misses_after_cold = get_cache().stats()["misses"]
        warm = schedule_batch(requests)
        stats = get_cache().stats()
        assert stats["misses"] == misses_after_cold  # no new simulations
        for a, b in zip(cold, warm):
            assert_bit_exact(b, a)

    def test_cache_hit_emissions_match_scalar_hit(self):
        """A hit in a batch emits what a cached_schedule hit emits."""
        march = _march_for("gnu")
        stream = _stream_for("scatter", "gnu")
        cached_schedule(march, stream)  # prime via the per-point front
        with ProfileScope("point-hit") as point:
            cached_schedule(march, stream)
        with ProfileScope("batch-hit") as batch:
            schedule_batch([(march, stream)])
        assert batch.as_dict() == point.as_dict()

    def test_duplicates_simulated_once_and_counted_as_hits(self):
        """N copies of one point: one miss, N-1 hits, identical labeled
        results."""
        march = _march_for("cray")
        stream = _stream_for("simple", "cray")
        results = schedule_batch([(march, stream)] * 5)
        assert get_cache().stats()["misses"] == 1.0
        assert get_cache().stats()["hits"] == 4.0
        for res in results:
            assert_bit_exact(res, results[0])
        assert_results_match(results[0], _seed(march, stream))

    def test_label_dedup_shares_one_simulation(self):
        """Streams differing only by label share one entry but keep
        their own labels."""
        march = _march_for("intel")
        base = _stream_for("predicate", "intel")
        from dataclasses import replace

        other = replace(base, label="relabeled-twin")
        res_a, res_b = schedule_batch([(march, base), (march, other)])
        assert get_cache().stats()["misses"] == 1.0
        assert res_a.label == base.label
        assert res_b.label == "relabeled-twin"
        assert res_a.cycles_per_iter == res_b.cycles_per_iter

    def test_cache_false_leaves_cache_untouched(self):
        march = _march_for("arm")
        stream = _stream_for("simple", "arm")
        schedule_batch([(march, stream)], cache=False)
        stats = get_cache().stats()
        assert stats["entries"] == stats["hits"] == stats["misses"] == 0.0

    def test_env_kill_switch_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "off")
        march = _march_for("arm")
        stream = _stream_for("simple", "arm")
        res = schedule_batch([(march, stream)])[0]
        assert get_cache().stats()["entries"] == 0.0
        assert_results_match(res, _seed(march, stream))

    def test_entry_reusable_by_scalar_front(self):
        """Entries stored by the batch are served to cached_schedule."""
        march = _march_for("fujitsu")
        stream = _stream_for("gather", "fujitsu")
        batch_res = schedule_batch([(march, stream)])[0]
        key = (march_fingerprint(march, march.window),
               stream_fingerprint(stream))
        assert get_cache().lookup(key) is not None
        assert_bit_exact(cached_schedule(march, stream), batch_res)


class TestBatchSweepRouting:
    """Sweep rows (always one batch) equal the per-point oracle."""

    def test_forced_batch_rows_match_scalar_rows(self):
        expected = oracle_rows(POINTS)
        configure()
        clear_memos()
        assert run_sweep(POINTS) == expected

    def test_sweep_counters_and_stats_match(self):
        with ProfileScope("oracle") as oracle:
            oracle_rows(POINTS)
        oracle_stats = get_cache().stats()
        configure()
        clear_memos()
        with ProfileScope("batched") as batched:
            run_sweep(POINTS)
        assert batched.as_dict() == oracle.as_dict()
        assert get_cache().stats() == oracle_stats

    def test_mixed_tier_sweep(self):
        """ECM points interleave with batched engine points in order."""
        points = [("simple", "gnu", None, "ecm"),
                  ("predicate", "gnu"),
                  ("sqrt", "arm", None, "ecm"),
                  ("gather", "fujitsu")]
        expected = oracle_rows(points)
        configure()
        clear_memos()
        rows = run_sweep(points)
        assert rows == expected
        assert [r["tier"] for r in rows] == ["ecm", "engine",
                                             "ecm", "engine"]


class TestBatchObservers:
    def test_invariant_checker_passes_on_batch(self):
        """Strict schedule-invariant replay over batch-recorded events."""
        with ScheduleInvariantChecker(strict=True) as checker:
            schedule_batch(_suite_requests(), cache=False)
        assert checker.schedules_checked > 0
        assert checker.violations == []

    def test_records_dispatched_per_unique_job(self):
        records = []
        add_schedule_observer(records.append)
        try:
            march = _march_for("gnu")
            stream = _stream_for("simple", "gnu")
            schedule_batch([(march, stream)] * 3, cache=False)
        finally:
            remove_schedule_observer(records.append)
        assert len(records) == 1  # duplicates share one simulation
        rec = records[0]
        assert rec.march is march
        assert rec.issues  # issue events were captured
        assert_bit_exact(rec.result, _alone(march, stream))
        assert_results_match(rec.result, _seed(march, stream))


class TestBatchErrors:
    def test_empty_request_list(self):
        assert schedule_batch([]) == []

    def test_bad_window_rejected(self):
        march = _march_for("gnu")
        stream = _stream_for("simple", "gnu")
        with pytest.raises(ValueError, match="window"):
            schedule_batch([(march, stream, 0)])

    def test_empty_stream_rejected(self):
        empty = InstructionStream(body=[], elements_per_iter=1,
                                  label="empty")
        with pytest.raises(ValueError, match="empty"):
            schedule_batch([(A64FX, empty)])

    def test_divergence_raised_like_scalar(self, monkeypatch):
        """A non-converging lane raises the same ScheduleDivergence."""
        monkeypatch.setattr(PipelineScheduler, "MAX_CYCLES", 50.0)
        stuck = InstructionStream(
            body=[
                Instruction(Op.FMA, "acc", ("x", "acc"), carried=True,
                            tag="fma-chain", latency_override=30.0),
                Instruction(Op.FADD, "t", ("acc",), tag="consume"),
            ],
            elements_per_iter=8,
            label="divergence-probe",
        )
        with pytest.raises(ScheduleDivergence):
            schedule_batch([(A64FX, stuck)], cache=False)

    def test_healthy_lanes_unaffected_by_budgeted_stepping(self):
        """Lanes of wildly different lengths still all converge."""
        requests = [(_march_for("gnu"), _stream_for("simple", "gnu")),
                    (_march_for("arm"), _stream_for("recip", "arm")),
                    (_march_for("cray"), _stream_for("sqrt", "cray"))]
        results = schedule_batch(requests, cache=False)
        for (march, stream), res in zip(requests, results):
            assert_bit_exact(res, _alone(march, stream))
            assert_results_match(res, _seed(march, stream))
