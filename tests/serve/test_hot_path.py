"""Served cache hits do only lookups: no IR build, no lowering.

The server resolves each (kernel, toolchain) combo's catalog IR and
compile key once per process.  A replayed batch must therefore call
none of the IR builders or the lowering pass, while the compile cache
still sees one lookup per combo per batch — the table holds no cache
state of its own — and serving must never change a shared catalog loop.
"""

import hashlib
import json

import pytest

import repro.compilers.cache as compile_cache
import repro.compilers.codegen as codegen
import repro.kernels.loops as loops
import repro.spmv.kernels as spmv_kernels
from repro.compilers.cache import configure_compile_cache, get_compile_cache
from repro.compilers.toolchains import TOOLCHAINS
from repro.engine.cache import configure
from repro.kernels.catalog import ALL_KERNEL_NAMES, build_kernel
from repro.serve import PredictionServer, reset_session_stats


@pytest.fixture(autouse=True)
def fresh_state():
    configure()
    configure_compile_cache()
    reset_session_stats()
    yield
    configure()
    configure_compile_cache()
    reset_session_stats()


#: suite and SpMV/stencil kernels, both tiers, a window and a duplicate
DOCS = [
    {"kernel": "simple", "toolchain": "fujitsu"},
    {"kernel": "gather", "toolchain": "arm", "window": 24},
    {"kernel": "exp", "toolchain": "intel"},
    {"kernel": "spmv_crs", "toolchain": "fujitsu", "tier": "ecm",
     "threads": 4},
    {"kernel": "stencil3d", "toolchain": "gnu", "tier": "ecm"},
    {"kernel": "spmv_sell", "toolchain": "cray"},
    {"kernel": "simple", "toolchain": "fujitsu"},
]


def _batch(server, docs):
    """Submit *docs* back to back (one micro-batch) and collect them."""
    futures = [server.submit_line(json.dumps({"id": i, **doc}))[0]
               for i, doc in enumerate(docs)]
    return [fut.result(timeout=60) for fut in futures]


def _count_calls(monkeypatch, targets):
    """Wrap each ``(module, name)`` binding with a shared call counter."""
    calls = {}
    for module, name in targets:
        original = getattr(module, name)
        key = original.__name__
        calls.setdefault(key, 0)

        def counted(*args, _fn=original, _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestHotPath:
    def test_replayed_batch_builds_and_lowers_nothing(self, monkeypatch):
        calls = _count_calls(monkeypatch, [
            (loops, "build_loop"),
            (spmv_kernels, "build_spmv_loop"),
            (codegen, "compile_loop"),
            (compile_cache, "compile_loop"),  # cached_compile's binding
        ])
        with PredictionServer(batch_window=0.25) as server:
            first = _batch(server, DOCS)
            # the counters see real work: a fresh compile cache lowers
            # every combo of the priming batch
            assert calls["compile_loop"] == len(
                {(d["kernel"], d["toolchain"]) for d in DOCS})
            for key in calls:
                calls[key] = 0
            replay = _batch(server, DOCS)
        assert all(r["ok"] for r in first + replay)
        assert [r["result"] for r in replay] == [r["result"] for r in first]
        assert all(r["provenance"]["cache"] == "hit" for r in replay)
        assert calls == {"build_loop": 0, "build_spmv_loop": 0,
                         "compile_loop": 0}

    def test_table_holds_no_compile_cache_state(self):
        doc = {"id": 1, "kernel": "spmv_crs", "toolchain": "fujitsu",
               "tier": "ecm"}
        with PredictionServer() as server:
            server.request(doc)  # the combo is now in the kernel table
            configure_compile_cache()
            cold = server.request(doc)
            stats_cold = get_compile_cache().stats()
            warm = server.request(doc)
            stats_warm = get_compile_cache().stats()
        assert (stats_cold["misses"], stats_cold["hits"]) == (1, 0)
        assert (stats_warm["misses"], stats_warm["hits"]) == (1, 1)
        assert cold["provenance"]["cache"] == "miss"
        assert warm["provenance"]["cache"] == "hit"
        assert cold["result"] == warm["result"]


class TestCatalogMemo:
    @pytest.mark.parametrize("kernel", ALL_KERNEL_NAMES)
    def test_one_object_per_name_and_size(self, kernel):
        assert build_kernel(kernel) is build_kernel(kernel)
        assert build_kernel(kernel, 1000) is not build_kernel(kernel)

    def test_serving_never_mutates_catalog_loops(self):
        def digests():
            return {k: hashlib.sha256(repr(build_kernel(k)).encode())
                    .hexdigest() for k in ALL_KERNEL_NAMES}

        loops_before = {k: build_kernel(k) for k in ALL_KERNEL_NAMES}
        before = digests()
        docs = [{"kernel": k, "toolchain": tc, "tier": tier}
                for k in ALL_KERNEL_NAMES for tc in TOOLCHAINS
                for tier in ("engine", "ecm")]
        with PredictionServer(batch_window=0.05, max_batch=256) as server:
            responses = _batch(server, docs)
        assert all(r["ok"] for r in responses)
        assert all(build_kernel(k) is loop
                   for k, loop in loops_before.items())
        assert digests() == before
