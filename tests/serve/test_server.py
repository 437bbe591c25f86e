"""Tests for the prediction server and its frontends."""

import io
import json
import time

import pytest

from repro.compilers.cache import configure_compile_cache
from repro.engine.cache import configure
from repro.serve import (
    PredictionServer,
    ServeClient,
    TcpFrontend,
    reset_session_stats,
    serve_stdio,
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


def _predict(**overrides):
    doc = {"kernel": "simple", "toolchain": "fujitsu"}
    doc.update(overrides)
    return doc


class TestInProcess:
    def test_engine_response_shape(self):
        with PredictionServer() as server:
            resp = server.request(_predict(id=1, window=24))
        assert resp["format"] == "repro.serve/1"
        assert resp["ok"] is True
        assert resp["id"] == 1
        result = resp["result"]
        assert result["loop"] == "simple"
        assert result["window"] == 24
        assert result["tier"] == "engine"
        for field in ("model_cycles_per_element", "cycles_per_iter",
                      "cycles_per_element", "ipc", "bound"):
            assert field in result
        assert resp["provenance"]["cache"] == "miss"
        assert resp["provenance"]["deduped"] is False
        assert resp["provenance"]["batched_with"] >= 1

    def test_ecm_response_carries_system_and_threads(self):
        with PredictionServer() as server:
            resp = server.request(_predict(tier="ecm", threads=4))
        assert resp["ok"] is True
        assert resp["result"]["threads"] == 4
        assert "Ookami" in resp["result"]["system"]

    def test_replay_is_a_cache_hit(self):
        with PredictionServer() as server:
            first = server.request(_predict(id=1, window=8))
            second = server.request(_predict(id=2, window=8))
        assert first["provenance"]["cache"] == "miss"
        assert second["provenance"]["cache"] == "hit"
        assert first["result"] == second["result"]

    def test_bad_request_answers_without_killing_the_batch(self):
        with PredictionServer() as server:
            bad = server.request({"id": 9, "kernel": "no-such-kernel"})
            good = server.request(_predict(id=10))
        assert bad["ok"] is False
        assert "no-such-kernel" in bad["error"]
        assert bad["id"] == 9
        assert good["ok"] is True

    def test_malformed_line_answers_error(self):
        with PredictionServer() as server:
            resp = server.request("this is not json")
        assert resp["ok"] is False
        assert "invalid JSON" in resp["error"]

    def test_control_ops(self):
        with PredictionServer() as server:
            assert server.request({"op": "ping"})["op"] == "ping"
            stats = server.request({"op": "stats"})
            assert stats["ok"] is True
            assert "requests" in stats["stats"]

    def test_session_stats_accumulate(self):
        with PredictionServer() as server:
            server.request(_predict(id=1))
            server.request(_predict(id=2))
            server.request({"kernel": "bogus"})
        stats = session_stats()
        assert stats["requests"] == 2      # protocol errors never admit
        assert stats["ok"] == 2
        assert stats["errors"] == 1
        assert stats["batches"] >= 1
        assert stats["cache_hits"] == 1    # the replay
        assert stats["cache_misses"] == 1


class TestStdioFrontend:
    def test_lines_in_lines_out_in_order(self):
        lines = [
            json.dumps(_predict(id=0, window=8)),
            json.dumps({"op": "stats"}),
            json.dumps(_predict(id=1, window=8)),
            "",
            json.dumps({"op": "shutdown"}),
            json.dumps(_predict(id=99)),  # after shutdown: never admitted
        ]
        out = io.StringIO()
        with PredictionServer() as server:
            code = serve_stdio(server, iter(line + "\n" for line in lines),
                               out)
        assert code == 0
        docs = [json.loads(line) for line in
                out.getvalue().strip().splitlines()]
        assert len(docs) == 4  # blank skipped, post-shutdown unread
        assert docs[0]["id"] == 0
        assert docs[1]["op"] == "stats"
        assert docs[2]["id"] == 1
        assert docs[3]["op"] == "shutdown"
        assert docs[0]["result"] == docs[2]["result"]


class TestTcpFrontend:
    def test_round_trip_and_shutdown(self):
        with PredictionServer() as server:
            frontend = TcpFrontend(server)
            with frontend:
                with ServeClient(frontend.address) as client:
                    assert client.ping()["ok"] is True
                    resp = client.request(_predict(id=5, window=24))
                    assert resp["ok"] is True
                    assert client.stats()["requests"] == 1
                    assert client.shutdown()["op"] == "shutdown"
                assert frontend.wait(timeout=5)

    def test_concurrent_connections_share_caches(self):
        with PredictionServer() as server:
            with TcpFrontend(server) as frontend:
                with ServeClient(frontend.address) as a, \
                        ServeClient(frontend.address) as b:
                    ra = a.request(_predict(id=1, window=8))
                    rb = b.request(_predict(id=2, window=8))
        assert ra["result"] == rb["result"]
        assert rb["provenance"]["cache"] == "hit"

    def test_stop_returns_promptly_after_client_close(self):
        """close() releases the connection, so stop() need not wait out
        the handler thread's join timeout."""
        with PredictionServer() as server:
            frontend = TcpFrontend(server)
            frontend.start()
            client = ServeClient(frontend.address)
            assert client.ping()["ok"] is True
            client.close()
            t0 = time.perf_counter()
            frontend.stop()
            assert time.perf_counter() - t0 < 1.0
