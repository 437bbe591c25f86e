"""Served responses are bit-identical to the direct prediction APIs.

Every kernel x toolchain x tier in the catalog goes through the server
once cold and once as a cache-hit replay; both responses must equal
what :func:`repro.engine.scheduler.schedule_on` /
:func:`repro.ecm.model.predict_compiled` return when called directly.
A mixed request set (windows, thread counts, duplicates, malformed
lines) must get the same answers from the batched server as from the
one-request-at-a-time ``naive=True`` reference server.
"""

import json
import random
import socket
import threading

import pytest

from repro.compilers.cache import configure_compile_cache
from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS, get_toolchain
from repro.engine.cache import configure
from repro.engine.scheduler import schedule_on
from repro.kernels.catalog import ALL_KERNEL_NAMES, build_kernel
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.machine.systems import get_system
from repro.perf.profile import default_system_for
from repro.serve import (
    PredictionServer,
    TcpFrontend,
    reset_session_stats,
    session_stats,
)


@pytest.fixture(autouse=True)
def fresh_state():
    configure()
    configure_compile_cache()
    reset_session_stats()
    yield
    configure()
    configure_compile_cache()
    reset_session_stats()


def _catalog_requests():
    reqs = []
    for kernel in ALL_KERNEL_NAMES:
        for tc in TOOLCHAINS:
            for tier in ("engine", "ecm"):
                reqs.append({"id": len(reqs), "kernel": kernel,
                             "toolchain": tc, "tier": tier})
    return reqs


#: lines every server must answer with an error, never a crash
MALFORMED = [
    "not json at all",
    "[1, 2, 3]",
    json.dumps({"id": "m1", "toolchain": "gnu"}),
    json.dumps({"id": "m2", "kernel": "nope", "toolchain": "gnu"}),
    json.dumps({"id": "m3", "kernel": "simple", "toolchain": "xlc"}),
    json.dumps({"id": "m4", "kernel": "simple", "toolchain": "gnu",
                "tier": "bogus"}),
    json.dumps({"id": "m5", "kernel": "simple", "toolchain": "gnu",
                "window": 0}),
    json.dumps({"id": "m6", "kernel": "simple", "toolchain": "gnu",
                "tier": "ecm", "threads": 0}),
]


def _mixed_lines(kernels=ALL_KERNEL_NAMES, seed=2021):
    """Both tiers over *kernels* x every toolchain, two windows and two
    thread counts, 30% exact duplicates and the malformed lines, in a
    seeded shuffle."""
    base = []
    for kernel in kernels:
        for tc in TOOLCHAINS:
            for window in (None, 24):
                req = {"kernel": kernel, "toolchain": tc, "tier": "engine"}
                if window is not None:
                    req["window"] = window
                base.append(req)
            for threads in (1, 4):
                req = {"kernel": kernel, "toolchain": tc, "tier": "ecm"}
                if threads != 1:
                    req["threads"] = threads
                base.append(req)
    rng = random.Random(seed)
    mix = base + [dict(rng.choice(base)) for _ in range(len(base) * 3 // 10)]
    for i, req in enumerate(mix):
        req["id"] = i
    lines = [json.dumps(req) for req in mix] + MALFORMED
    rng.shuffle(lines)
    return lines


def _comparable(resp):
    """A response without its provenance (batching and cache state
    legitimately differ between the two servers; the answer may not)."""
    return {k: v for k, v in resp.items() if k != "provenance"}


def _serve_all(server, lines):
    futures = [server.submit_line(line)[0] for line in lines]
    return [f.result(timeout=300) for f in futures]


def _direct_row(req):
    """What the scalar prediction APIs say, field for field."""
    tc = get_toolchain(req["toolchain"])
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
    compiled = compile_loop(build_kernel(req["kernel"]), tc, march)
    row = {
        "loop": req["kernel"],
        "toolchain": tc.name,
        "march": march.name,
        "window": march.window,
        "tier": req["tier"],
        "model_cycles_per_element": compiled.cycles_per_element,
    }
    if req["tier"] == "ecm":
        from repro.ecm.model import predict_compiled

        system = get_system(default_system_for(req["toolchain"]))
        pred = predict_compiled(compiled, system)
        row.update({
            "system": system.name,
            "threads": 1,
            "cycles_per_iter": pred.cycles_per_iter,
            "cycles_per_element": pred.cycles_per_element,
            "ipc": pred.incore.n_instrs / pred.cycles_per_iter,
            "bound": pred.bound,
        })
        return row
    sched = schedule_on(march, compiled.stream)
    row.update({
        "cycles_per_iter": sched.cycles_per_iter,
        "cycles_per_element": sched.cycles_per_element,
        "ipc": sched.ipc,
        "bound": sched.bound,
    })
    return row


class TestGolden:
    def test_catalog_served_equals_direct_including_replays(self):
        reqs = _catalog_requests()
        with PredictionServer(batch_window=0.02) as server:
            cold = [f.result(timeout=120) for f in
                    [server.submit_line(json.dumps(r))[0] for r in reqs]]
            warm = [f.result(timeout=120) for f in
                    [server.submit_line(json.dumps(r))[0] for r in reqs]]

        for req, cold_resp, warm_resp in zip(reqs, cold, warm):
            label = f"{req['kernel']}/{req['toolchain']}/{req['tier']}"
            assert cold_resp["ok"], f"{label}: {cold_resp.get('error')}"
            direct = _direct_row(req)
            assert cold_resp["result"] == direct, label
            # the cache-hit replay is bit-identical too
            assert warm_resp["result"] == direct, label
            assert warm_resp["provenance"]["cache"] == "hit", label

    def test_windowed_engine_point_matches_direct(self):
        with PredictionServer() as server:
            resp = server.request({"kernel": "scatter",
                                   "toolchain": "cray", "window": 16})
        tc = get_toolchain("cray")
        march = SKYLAKE_6140 if tc.target == "x86" else A64FX
        compiled = compile_loop(build_kernel("scatter"), tc, march)
        sched = schedule_on(march, compiled.stream, 16)
        assert resp["result"]["cycles_per_element"] == \
            sched.cycles_per_element
        assert resp["result"]["ipc"] == sched.ipc
        assert resp["result"]["bound"] == sched.bound

    def test_ecm_threads_match_direct(self):
        from repro.ecm.model import predict_compiled

        with PredictionServer() as server:
            resp = server.request({"kernel": "stencil3d",
                                   "toolchain": "fujitsu", "tier": "ecm",
                                   "threads": 12})
        tc = get_toolchain("fujitsu")
        compiled = compile_loop(build_kernel("stencil3d"), tc, A64FX)
        pred = predict_compiled(compiled, get_system("ookami"),
                                active_cores_per_domain=12)
        assert resp["result"]["cycles_per_iter"] == pred.cycles_per_iter
        assert resp["result"]["cycles_per_element"] == \
            pred.cycles_per_element
        assert resp["result"]["bound"] == pred.bound


class TestBatchedEqualsNaive:
    """Batched answers == the naive reference server's, error for error."""

    def _assert_same(self, lines, batched, naive):
        n_bad = 0
        for line, b, r in zip(lines, batched, naive):
            assert _comparable(b) == _comparable(r), line
            n_bad += not r["ok"]
        # exactly the malformed lines fail, in both servers
        assert n_bad == len(MALFORMED)

    def test_mixed_requests_in_process(self):
        lines = _mixed_lines()
        with PredictionServer(naive=True) as server:
            naive = _serve_all(server, lines)
        configure()
        configure_compile_cache()
        reset_session_stats()
        with PredictionServer(batch_window=0.02) as server:
            batched = _serve_all(server, lines)
        stats = session_stats()
        self._assert_same(lines, batched, naive)
        assert stats["errors"] == len(MALFORMED)
        assert stats["batches"] < stats["requests"]  # requests coalesced
        assert stats["deduped"] > 0

    def test_concurrent_tcp_clients(self):
        """Four closed-loop clients over TCP, requests dealt round-robin;
        every answer equals the naive server's."""
        lines = _mixed_lines(kernels=("simple", "gather", "sqrt",
                                      "spmv_crs"))
        with PredictionServer(naive=True) as server:
            naive = _serve_all(server, lines)
        configure()
        configure_compile_cache()
        reset_session_stats()
        batched: list = [None] * len(lines)

        def worker(address, w, n_workers):
            # raw lines: the malformed ones are not JSON documents
            with socket.create_connection(address, timeout=120) as sock, \
                    sock.makefile("r", encoding="utf-8") as rf, \
                    sock.makefile("w", encoding="utf-8") as wf:
                for i in range(w, len(lines), n_workers):
                    wf.write(lines[i] + "\n")
                    wf.flush()
                    batched[i] = json.loads(rf.readline())

        with PredictionServer() as server:
            with TcpFrontend(server) as frontend:
                threads = [threading.Thread(
                    target=worker, args=(frontend.address, w, 4))
                    for w in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=300)
                assert not any(t.is_alive() for t in threads)
        self._assert_same(lines, batched, naive)
