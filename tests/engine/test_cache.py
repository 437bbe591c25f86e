"""Tests for the content-addressed schedule cache."""

import dataclasses
import json

import pytest

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS
from repro.engine.cache import (
    ScheduleCache,
    cached_schedule,
    configure,
    get_cache,
    march_fingerprint,
    stream_fingerprint,
)
from repro.engine.scheduler import PipelineScheduler
from repro.kernels.loops import build_loop
from repro.machine.isa import Instruction, InstructionStream, Op
from repro.machine.microarch import A64FX, SKYLAKE_6140, THUNDERX2
from repro.perf.counters import ProfileScope


@pytest.fixture(autouse=True)
def fresh_cache():
    configure()
    yield
    configure()


def _stream(label="k1", n=3):
    body = [Instruction(Op.FMA, f"t{i}", ("x", "y")) for i in range(n)]
    return InstructionStream(body=body, elements_per_iter=8, label=label)


class TestFingerprints:
    def test_stream_fingerprint_ignores_label(self):
        a = _stream(label="fujitsu-loop")
        b = _stream(label="gnu-loop")
        assert stream_fingerprint(a) == stream_fingerprint(b)

    def test_stream_fingerprint_sees_content(self):
        base = _stream()
        assert stream_fingerprint(base) != stream_fingerprint(_stream(n=4))
        tweaked = InstructionStream(
            body=list(base.body[:-1])
            + [Instruction(Op.FMA, "t2", ("x", "y"), latency_override=1.0)],
            elements_per_iter=8, label=base.label,
        )
        assert stream_fingerprint(base) != stream_fingerprint(tweaked)

    def test_march_fingerprint_distinguishes_machines_and_windows(self):
        fps = {
            march_fingerprint(A64FX, A64FX.window),
            march_fingerprint(A64FX, 8),
            march_fingerprint(SKYLAKE_6140, SKYLAKE_6140.window),
            march_fingerprint(THUNDERX2, THUNDERX2.window),
        }
        assert len(fps) == 4

    def test_march_fingerprint_ignores_the_name(self):
        renamed = dataclasses.replace(A64FX, name="renamed")
        assert (march_fingerprint(renamed, renamed.window)
                == march_fingerprint(A64FX, A64FX.window))

    def test_march_fingerprint_sees_one_latency(self):
        fma = A64FX.timings[Op.FMA]
        slower = dataclasses.replace(A64FX, timings={
            **A64FX.timings,
            Op.FMA: dataclasses.replace(fma, latency=fma.latency + 1),
        })
        assert (march_fingerprint(slower, A64FX.window)
                != march_fingerprint(A64FX, A64FX.window))


class TestCachedSchedule:
    def test_hit_matches_fresh_and_is_relabeled(self):
        a = _stream(label="first")
        b = _stream(label="second")  # same content, different label
        fresh = PipelineScheduler(A64FX).steady_state(a)
        first = cached_schedule(A64FX, a)
        second = cached_schedule(A64FX, b)
        assert first.cycles_per_iter == fresh.cycles_per_iter
        assert second.cycles_per_iter == fresh.cycles_per_iter
        assert first.label == "first"
        assert second.label == "second"
        stats = get_cache().stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_renamed_march_hits(self):
        """Machines that differ only by name share one entry."""
        s = _stream()
        first = cached_schedule(A64FX, s)
        renamed = cached_schedule(
            dataclasses.replace(A64FX, name="renamed"), s)
        assert renamed == first
        stats = get_cache().stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_cross_toolchain_reuse_on_identical_streams(self):
        """Toolchains emitting identical streams share one entry."""
        loop = build_loop("simple")
        streams = {
            tc.name: compile_loop(loop, tc, A64FX).stream
            for name, tc in TOOLCHAINS.items() if tc.target == "sve"
        }
        for stream in streams.values():
            cached_schedule(A64FX, stream)
        fingerprints = {stream_fingerprint(s) for s in streams.values()}
        assert len(get_cache()) == len(fingerprints) < len(streams)

    def test_window_is_part_of_the_key(self):
        s = _stream()
        narrow = cached_schedule(A64FX, s, window=1)
        wide = cached_schedule(A64FX, s)
        assert narrow.cycles_per_iter >= wide.cycles_per_iter
        assert get_cache().stats()["misses"] == 2

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "off")
        s = _stream()
        res = cached_schedule(A64FX, s)
        assert res.cycles_per_iter > 0
        assert len(get_cache()) == 0

    def test_hit_emits_cache_counters(self):
        s = _stream()
        with ProfileScope("c") as counters:
            cached_schedule(A64FX, s)
            cached_schedule(A64FX, s)
        assert counters["schedule_cache.misses"] == 1.0
        assert counters["schedule_cache.hits"] == 1.0
        # the schedule payload was emitted on both paths
        assert counters["pipeline.schedules"] == 2.0


class TestLRU:
    def test_eviction_keeps_capacity(self):
        cache = ScheduleCache(capacity=2)
        for i in range(5):
            cache.store((f"m{i}", "s"), _entry_for(i))
        assert len(cache) == 2
        assert cache.lookup(("m0", "s")) is None
        assert cache.lookup(("m4", "s")) is not None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ScheduleCache(capacity=0)


def _entry_for(i):
    from repro.engine.cache import _Entry

    result = PipelineScheduler(A64FX).steady_state(_stream(n=1 + i % 2))
    return _Entry(result=result, counters={"pipeline.schedules": 1.0})


class TestDiskLayer:
    def test_round_trip_across_cache_instances(self, tmp_path):
        s = _stream(label="disk-test")
        configure(disk_dir=tmp_path)
        cold = cached_schedule(A64FX, s)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["format"] == "repro.schedule-cache/1"

        # a fresh process-equivalent: empty memory, same disk dir
        configure(disk_dir=tmp_path)
        warm = cached_schedule(A64FX, s)
        assert get_cache().stats()["disk_hits"] == 1
        assert warm.cycles_per_iter == cold.cycles_per_iter
        assert warm.ipc == cold.ipc
        assert warm.bound == cold.bound
        assert warm.pipe_occupancy == dict(cold.pipe_occupancy)
        assert warm.label == "disk-test"

    def test_disk_hit_replays_counters(self, tmp_path):
        s = _stream()
        configure(disk_dir=tmp_path)
        with ProfileScope("cold") as cold:
            cached_schedule(A64FX, s)
        configure(disk_dir=tmp_path)
        with ProfileScope("warm") as warm:
            cached_schedule(A64FX, s)
        cold_pipeline = {k: v for k, v in cold.as_dict().items()
                         if k.startswith("pipeline.")}
        warm_pipeline = {k: v for k, v in warm.as_dict().items()
                         if k.startswith("pipeline.")}
        assert warm_pipeline == cold_pipeline

    def test_corrupt_entry_recomputes(self, tmp_path):
        s = _stream()
        configure(disk_dir=tmp_path)
        cached_schedule(A64FX, s)
        for f in tmp_path.glob("*.json"):
            f.write_text("{not json")
        configure(disk_dir=tmp_path)
        res = cached_schedule(A64FX, s)
        assert res.cycles_per_iter > 0
        assert get_cache().stats()["disk_hits"] == 0

    def test_entry_from_an_older_scheduler_version_is_not_read(
            self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_mod

        s = _stream()
        with monkeypatch.context() as m:
            m.setattr(cache_mod, "SCHEDULER_VERSION", 2)
            m.setattr(cache_mod, "_MARCH_FP", {})
            configure(disk_dir=tmp_path)
            cached_schedule(A64FX, s)
        assert len(list(tmp_path.glob("*.json"))) == 1
        configure(disk_dir=tmp_path)
        cached_schedule(A64FX, s)
        stats = get_cache().stats()
        assert stats["disk_hits"] == 0
        assert stats["misses"] == 1
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_clear_drops_disk_entries(self, tmp_path):
        configure(disk_dir=tmp_path)
        cached_schedule(A64FX, _stream())
        assert list(tmp_path.glob("*.json"))
        dropped = get_cache().clear(disk=True)
        assert dropped >= 2  # memory entry + disk file
        assert not list(tmp_path.glob("*.json"))

    def test_env_dir_enables_disk_layer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        import repro.engine.cache as cache_mod

        monkeypatch.setattr(cache_mod, "_CACHE", None)
        cached_schedule(A64FX, _stream())
        assert list(tmp_path.glob("*.json"))


class TestDiskStats:
    def test_cold_miss_counts_disk_miss_and_write(self, tmp_path):
        configure(disk_dir=tmp_path)
        cached_schedule(A64FX, _stream())
        stats = get_cache().stats()
        assert stats["misses"] == 1
        assert stats["disk_misses"] == 1
        assert stats["disk_writes"] == 1
        assert stats["disk_hits"] == 0

    def test_fresh_cache_same_dir_counts_disk_hit(self, tmp_path):
        s = _stream()
        configure(disk_dir=tmp_path)
        cached_schedule(A64FX, s)
        configure(disk_dir=tmp_path)
        cached_schedule(A64FX, s)
        stats = get_cache().stats()
        assert stats["disk_hits"] == 1
        assert stats["disk_misses"] == 0
        assert stats["disk_writes"] == 0

    def test_memory_hit_touches_no_disk_counters(self, tmp_path):
        s = _stream()
        configure(disk_dir=tmp_path)
        cached_schedule(A64FX, s)
        cached_schedule(A64FX, s)  # memory hit
        stats = get_cache().stats()
        assert stats["hits"] == 1
        assert stats["disk_misses"] == 1
        assert stats["disk_writes"] == 1

    def test_clear_resets_disk_counters(self, tmp_path):
        configure(disk_dir=tmp_path)
        cached_schedule(A64FX, _stream())
        get_cache().clear()
        stats = get_cache().stats()
        assert stats["disk_hits"] == stats["disk_misses"] == 0
        assert stats["disk_writes"] == 0

    def test_memory_only_cache_keeps_disk_counters_zero(self):
        configure()
        cached_schedule(A64FX, _stream())
        cached_schedule(A64FX, _stream())
        stats = get_cache().stats()
        assert stats["disk_hits"] == stats["disk_misses"] == 0
        assert stats["disk_writes"] == 0
