"""Golden equivalence: every entry point must reproduce the seed scheduler.

The engine's event-driven lanes, the steady-state extrapolation, the
schedule cache, the sweep runner and the sharded batch are pure
optimizations — the
contract (enforced here at 1e-9 relative; busy-cycle sums may differ in
the last bit under period detection) is that ``ScheduleResult`` and the
emitted ``pipeline.*`` counters are unchanged from the preserved seed
implementation in :mod:`repro.engine._reference`, and that the
front-end slot identity holds exactly on every path.
"""

import pytest

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS
from repro.engine._reference import ReferenceScheduler
from repro.engine.batch import schedule_batch
from repro.engine.cache import cached_schedule, configure, get_cache
from repro.engine.scheduler import PipelineScheduler
from repro.engine.shard import last_shard_plan, schedule_batch_sharded
from repro.kernels.loops import LOOP_NAMES, MATH_LOOP_NAMES, build_loop
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.perf.counters import ProfileScope

RTOL = 1e-9

#: all Fig. 1 loop variants and Fig. 2 math kernels (the FSQRT blocking
#: case included), crossed with all five toolchains
KERNELS = LOOP_NAMES + MATH_LOOP_NAMES
POINTS = [(loop, tc) for loop in KERNELS for tc in TOOLCHAINS]


def _march_for(tc_name):
    return SKYLAKE_6140 if TOOLCHAINS[tc_name].target == "x86" else A64FX


def _stream_for(loop, tc_name):
    return compile_loop(
        build_loop(loop), TOOLCHAINS[tc_name], _march_for(tc_name)
    ).stream


def assert_results_match(res, ref):
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
def fresh_cache():
    """Isolate every test from cache state built up elsewhere."""
    configure()
    yield
    configure()


@pytest.mark.parametrize("loop,tc", POINTS, ids=[f"{l}-{t}" for l, t in POINTS])
class TestGoldenEquivalence:
    def test_fresh_event_driven(self, loop, tc):
        """Event core + extrapolation vs the seed per-cycle scan."""
        march, stream = _march_for(tc), _stream_for(loop, tc)
        ref = ReferenceScheduler(march).steady_state(stream)
        res = PipelineScheduler(march).steady_state(stream)
        assert_results_match(res, ref)

    def test_extrapolation_off(self, loop, tc):
        """The pure event core (no period skipping) also matches."""
        march, stream = _march_for(tc), _stream_for(loop, tc)
        ref = ReferenceScheduler(march).steady_state(stream)
        res = PipelineScheduler(
            march, extrapolate=False).steady_state(stream)
        assert_results_match(res, ref)

    def test_cached(self, loop, tc):
        """Cold fill and warm hit both match the seed."""
        march, stream = _march_for(tc), _stream_for(loop, tc)
        ref = ReferenceScheduler(march).steady_state(stream)
        assert_results_match(cached_schedule(march, stream), ref)  # miss
        assert_results_match(cached_schedule(march, stream), ref)  # hit

    def test_counter_payload_matches_seed(self, loop, tc):
        """pipeline.* counters: fresh schedule, cached hit and the seed
        scheduler all emit the same values; the slot identity holds
        exactly on the fresh and cached paths."""
        march, stream = _march_for(tc), _stream_for(loop, tc)
        with ProfileScope("ref") as ref_counters:
            ReferenceScheduler(march).steady_state(stream)
        with ProfileScope("fast") as fast_counters:
            PipelineScheduler(march).steady_state(stream)
        cached_schedule(march, stream)  # prime
        with ProfileScope("hit") as hit_counters:
            cached_schedule(march, stream)
        expected = ref_counters.as_dict()
        assert fast_counters.as_dict() == pytest.approx(expected, rel=RTOL)
        for counters in (fast_counters, hit_counters):
            assert (counters["pipeline.issue_slots.total"]
                    == counters["pipeline.issue_slots.used"]
                    + counters["pipeline.issue_slots.stalled"])
        hit_pipeline = {
            k: v for k, v in hit_counters.as_dict().items()
            if k.startswith("pipeline.")
        }
        assert hit_pipeline == pytest.approx(expected, rel=RTOL)


def _requests(points):
    return [(_march_for(tc), _stream_for(loop, tc)) for loop, tc in points]


class TestParallelEquivalence:
    """The one parallel path, the process-sharded batch."""

    def test_parallel_sweep_matches_serial(self):
        reqs = _requests(POINTS)
        serial = schedule_batch(reqs)
        get_cache().clear()
        parallel = schedule_batch_sharded(reqs, max_workers=4)
        assert last_shard_plan()["routing"] == "sharded"
        assert parallel == serial

    def test_parallel_rows_match_reference(self):
        reqs = _requests(POINTS)
        results = schedule_batch_sharded(reqs, cache=False, max_workers=4)
        for (march, stream), result in zip(reqs, results):
            ref = ReferenceScheduler(march).steady_state(stream)
            assert result.cycles_per_iter == pytest.approx(
                ref.cycles_per_iter, rel=RTOL)
            assert result.bound == ref.bound


class TestCounterIdentityOnFastPaths:
    """pipeline.issue_slots.total == used + stalled holds exactly."""

    def _assert_identity(self, counters):
        assert (
            counters["pipeline.issue_slots.total"]
            == counters["pipeline.issue_slots.used"]
            + counters["pipeline.issue_slots.stalled"]
        )

    @pytest.mark.parametrize("tc", list(TOOLCHAINS))
    def test_fresh_and_cached(self, tc):
        march, stream = _march_for(tc), _stream_for("gather", tc)
        with ProfileScope("fresh") as fresh:
            PipelineScheduler(march).steady_state(stream)
        self._assert_identity(fresh)
        cached_schedule(march, stream)
        with ProfileScope("hit") as hit:
            cached_schedule(march, stream)
        self._assert_identity(hit)

    def test_parallel_sweep_totals(self):
        """Totals emitted from sharded workers' payloads equal the
        serial totals exactly (same additions, same order)."""
        reqs = _requests([(loop, tc) for loop in ("simple", "sqrt")
                          for tc in TOOLCHAINS])
        with ProfileScope("serial") as serial:
            schedule_batch(reqs)
        get_cache().clear()
        with ProfileScope("parallel") as par:
            schedule_batch_sharded(reqs, max_workers=3)
        self._assert_identity(par)
        assert par.as_dict() == serial.as_dict()
