"""Differential fuzz through the batched SoA engine.

The per-seed oracle in :mod:`repro.validate.fuzz` already runs every
seed through ``schedule_batch`` as a single-lane batch; this suite
routes the whole shipped seed range (25 seeds, base 1000 — the same
range ``run_fuzz_pass`` regresses) through **one** batch call, so the
fuzz streams exercise cross-lane interleaving: lanes of wildly
different lengths, marches and windows stepping in the same array
program.  Results and ``pipeline.*`` counters must stay bit-exact
against the same streams stepped one at a time (batches of one) and
1e-9-close to the frozen reference, and the strict invariant checker
must accept every batch-recorded issue log.
"""

import random

import pytest

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS
from repro.engine._reference import ReferenceScheduler
from repro.engine.batch import clear_tables, schedule_batch
from repro.engine.cache import configure, get_cache
from repro.engine.scheduler import clear_memos, schedule_on
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.perf.counters import ProfileScope
from repro.validate.fuzz import random_loop
from repro.validate.ir import verify_loop
from repro.validate.schedule import ScheduleInvariantChecker

#: the shipped regression range: seeds 1000..1024, like run_fuzz_pass()
SEEDS = tuple(range(1000, 1025))
RTOL = 1e-9


def _point_for(seed):
    """Replicate check_seed's deterministic (loop, toolchain) draw."""
    rng = random.Random(seed)
    loop = random_loop(rng, name=f"fuzz{seed}")
    assert verify_loop(loop) == [], f"seed {seed} generated malformed IR"
    tc = rng.choice(sorted(TOOLCHAINS.values(), key=lambda t: t.name))
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
    return march, compile_loop(loop, tc, march).stream


def _alone(march, stream):
    """*stream* stepped as a batch of one, uncached."""
    return schedule_batch([(march, stream)], cache=False)[0]


@pytest.fixture(scope="module")
def fuzz_points():
    return [_point_for(seed) for seed in SEEDS]


@pytest.fixture(autouse=True)
def fresh_state():
    configure()
    clear_memos()
    clear_tables()
    yield
    configure()


class TestBatchFuzzDifferential:
    def test_one_batch_over_all_seeds_bit_exact(self, fuzz_points):
        """All 25 fuzz streams in one batch == each stream stepped
        alone, bit for bit."""
        results = schedule_batch(fuzz_points, cache=False)
        assert len(results) == len(SEEDS)
        for seed, (march, stream), res in zip(SEEDS, fuzz_points, results):
            ref = _alone(march, stream)
            assert res.cycles_per_iter == ref.cycles_per_iter, f"seed {seed}"
            assert res.ipc == ref.ipc, f"seed {seed}"
            assert res.pipe_occupancy == ref.pipe_occupancy, f"seed {seed}"
            assert res.bound == ref.bound, f"seed {seed}"
            assert res.label == ref.label, f"seed {seed}"

    def test_one_batch_matches_frozen_reference(self, fuzz_points):
        results = schedule_batch(fuzz_points, cache=False)
        for seed, (march, stream), res in zip(SEEDS, fuzz_points, results):
            ref = ReferenceScheduler(march).steady_state(stream)
            assert res.cycles_per_iter == pytest.approx(
                ref.cycles_per_iter, rel=RTOL), f"seed {seed}"
            assert res.bound == ref.bound, f"seed {seed}"

    def test_counter_totals_match_scalar_run(self, fuzz_points):
        """One scope over the whole batch == one scope over the same
        points scheduled one-by-one (same emissions, same order), and
        1e-9-close to the frozen reference's emissions."""
        with ProfileScope("alone") as alone:
            for march, stream in fuzz_points:
                _alone(march, stream)
        with ProfileScope("reference") as reference:
            for march, stream in fuzz_points:
                ReferenceScheduler(march).steady_state(stream)
        with ProfileScope("batched") as batched:
            schedule_batch(fuzz_points, cache=False)
        assert batched.as_dict() == alone.as_dict()
        assert batched.as_dict() == pytest.approx(reference.as_dict(),
                                                  rel=RTOL)

    def test_cache_fronted_batch_matches_sequential(self, fuzz_points):
        """With caching on, stats equal the sequential schedule_on run
        (fuzz streams may collide content-wise across seeds)."""
        for march, stream in fuzz_points:
            schedule_on(march, stream)
        sequential = get_cache().stats()
        configure()
        schedule_batch(fuzz_points)
        assert get_cache().stats() == sequential

    def test_invariant_checker_accepts_batch_logs(self, fuzz_points):
        """Strict replay of every batch-recorded fuzz issue log."""
        with ScheduleInvariantChecker(strict=True) as checker:
            schedule_batch(fuzz_points, cache=False)
        assert checker.schedules_checked > 0
        assert checker.violations == []
