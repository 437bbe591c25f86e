"""Differential fuzz through the grid-scale sweep fast paths.

The batched-engine fuzz lane (:mod:`tests.validate.test_batch_fuzz`)
pins ``schedule_batch`` against batches of one and the frozen
reference; this suite fuzzes the three layers stacked on top of it —
sharded simulation across
a process pool, vectorized ECM batches, and the content-addressed
compile cache — with the same shipped seed range.  Each layer must be
an *invisible* optimization: bit-identical results, counters and cache
statistics versus the path it replaces, on randomly generated loops
rather than the curated catalog.
"""

import random

import pytest

from repro.compilers.cache import cached_compile, configure_compile_cache
from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS
from repro.ecm.batch import clear_ecm_memos, predict_batch
from repro.ecm.model import predict_compiled
from repro.engine.batch import clear_tables, schedule_batch
from repro.engine.cache import configure
from repro.engine.scheduler import clear_memos
from repro.engine.shard import schedule_batch_sharded
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.machine.systems import get_system
from repro.perf.profile import default_system_for
from repro.validate.fuzz import random_loop
from repro.validate.ir import verify_loop

#: the shipped regression range: seeds 1000..1024, like run_fuzz_pass()
SEEDS = tuple(range(1000, 1025))
WINDOWS = (None, 8, 48)


def _point_for(seed):
    """Replicate check_seed's deterministic (loop, toolchain) draw."""
    rng = random.Random(seed)
    loop = random_loop(rng, name=f"fuzz{seed}")
    assert verify_loop(loop) == [], f"seed {seed} generated malformed IR"
    tc = rng.choice(sorted(TOOLCHAINS.values(), key=lambda t: t.name))
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
    return loop, tc, march


@pytest.fixture(scope="module")
def fuzz_points():
    return [_point_for(seed) for seed in SEEDS]


@pytest.fixture(autouse=True)
def fresh_state():
    configure()
    configure_compile_cache()
    clear_memos()
    clear_tables()
    clear_ecm_memos()
    yield
    configure()
    configure_compile_cache()
    clear_memos()
    clear_tables()
    clear_ecm_memos()


class TestShardedFuzz:
    def test_sharded_matches_serial_batch(self, fuzz_points):
        """All fuzz lanes sharded across a pool == one serial batch."""
        reqs = []
        for loop, tc, march in fuzz_points:
            stream = compile_loop(loop, tc, march).stream
            for window in WINDOWS:
                reqs.append((march, stream, window))
        serial = schedule_batch(reqs, cache=False)
        clear_memos()
        clear_tables()
        sharded = schedule_batch_sharded(reqs, cache=False, max_workers=3)
        assert sharded == serial


class TestEcmBatchFuzz:
    def test_vectorized_matches_per_point(self, fuzz_points):
        items = []
        for loop, tc, march in fuzz_points:
            compiled = compile_loop(loop, tc, march)
            system = get_system(default_system_for(tc.name))
            for window in WINDOWS:
                items.append((compiled, system, window))
        batch = predict_batch(items)
        for (compiled, system, window), pred in zip(items, batch):
            scalar = predict_compiled(compiled, system, window=window)
            assert pred == scalar, compiled.loop.name


class TestCompileCacheFuzz:
    def test_cache_on_equals_cache_off(self, fuzz_points, monkeypatch):
        """Fuzz loops compiled twice through the cache == compiled cold
        with the cache killed, including downstream schedules."""
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "off")
        cold = [compile_loop(loop, tc, march).schedule
                for loop, tc, march in fuzz_points]
        monkeypatch.delenv("REPRO_COMPILE_CACHE")
        configure()
        clear_memos()
        clear_tables()
        warm = []
        for loop, tc, march in fuzz_points:
            cached_compile(loop, tc, march)  # prime
            warm.append(cached_compile(loop, tc, march).schedule)
        assert warm == cold
