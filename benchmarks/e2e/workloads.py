"""The four workloads of the end-to-end benchmark, and their output checks.

Every workload runs in a fresh process whose environment holds
``PYTHONPATH=src`` and no ``REPRO_*`` variable, so caches and routing are
at their defaults.  ``paper`` and ``design_grid`` are fixed user commands:
each measured operation is one more fresh process ("one-shot") that
imports the entry module, runs the command and reports back as a JSON
line.  The serve workloads host a :class:`~repro.serve.server.
PredictionServer` in the workload process and drive it from one client
thread.

Nothing here imports ``repro`` at module level: a one-shot's set-up time
is the import it pays.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from concurrent.futures import Future
from pathlib import Path
from typing import Callable, Iterator

from e2e.trace import (
    SIZE_COUNTERS,
    TARGETS,
    Tracer,
    self_times,
    span_docs,
    timing_identity,
)

HERE = Path(__file__).resolve().parent
RUN_PY = HERE / "run.py"
GOLDEN_PATH = HERE / "golden.json"

WORKLOADS = ("paper", "design_grid", "serve_interactive", "serve_open")

#: end-to-end metrics every workload reports: name -> (unit, better)
E2E_METRICS: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p95_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: layer metrics that are not per-function spans: name -> unit
_EXTRA_LAYER_UNITS: dict[str, str] = {
    "engine.cache.hit_ratio": "ratio",
    "compilers.cache.hit_ratio": "ratio",
    "serve.queue.batches": "count",
    "serve.queue.batch_size_mean": "count",
    "serve.queue.admission_wait_p50_ms": "ms",
    "serve.queue.admission_wait_p99_ms": "ms",
    "serve.server.dedup_ratio": "ratio",
    "serve.server.cache_hit_ratio": "ratio",
    "serve.transport_p50_ms": "ms",
    "harness.gen_late_p99_ms": "ms",
    "harness.unattributed_s": "s",
    "harness.trace_overhead": "ratio",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units: dict[str, str] = {}
    for name, _module, _attr in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in SIZE_COUNTERS:
            units[f"{name}.{SIZE_COUNTERS[name]}"] = "count"
    units.update(_EXTRA_LAYER_UNITS)
    return units


def _all_layers(layers: dict[str, float]) -> dict[str, float]:
    """*layers* in report order; metrics a workload does not use read 0.

    ``harness.trace_overhead`` needs an untraced twin run, so ``run.py``
    adds it.
    """
    return {name: layers.get(name, 0.0) for name in layer_units()
            if name != "harness.trace_overhead"}


# ----------------------------------------------------------------------
# sizes: fixed by the user commands they stand for
GRID_MACHINES = 1000            # `repro sweep --grid --machines 1000`
MIN_ONESHOTS = {"paper": 5, "design_grid": 3}
SETUP_REPEATS = 5               # serve: fresh server start-ups per run
INTERACTIVE_WARMUP = 750        # requests
OPEN_RATE = 2000.0              # requests per second, Poisson arrivals
OPEN_WARMUP_S = 2.0
#: the open loop checks a reply only while its next send is this far away
IDLE_WORK_S = 0.0003
DRAIN_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 10.0
ONESHOT_TIMEOUT_S = 120.0

# serve request universe: every catalog kernel x toolchain x window, as
# an engine request or as an ecm request at each thread count
UNIVERSE_WINDOWS = (None, 4, 8, 12, 16, 24, 32, 48, 64, 96)
UNIVERSE_THREADS = (1, 4, 12)
ZIPF_S = 1.1
POPULARITY_SEED = 2021
MALFORMED_SHARE = 0.01
#: requests the server must refuse; a success on any of them is a failure
MALFORMED = (
    {"kernel": "no_such_kernel"},
    {"kernel": "simple", "window": 0},
    {"kernel": "simple", "tier": "engine", "threads": 4},
    {"kernel": "simple", "toolchain": "nvcc"},
    {"kernel": "simple", "tier": "gpu"},
    {"kernel": "simple", "colour": "red"},
    {"op": "reboot"},
)


def serve_universe() -> list[dict]:
    """The 3000 distinct valid requests, in golden order."""
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.kernels.catalog import ALL_KERNEL_NAMES

    out = []
    for kernel in ALL_KERNEL_NAMES:
        for tc in TOOLCHAINS:
            for window in UNIVERSE_WINDOWS:
                base = {"kernel": kernel, "toolchain": tc}
                if window is not None:
                    base["window"] = window
                out.append({**base, "tier": "engine"})
                for threads in UNIVERSE_THREADS:
                    out.append({**base, "tier": "ecm", "threads": threads})
    return out


def request_stream(seed: int, universe: list[dict]
                   ) -> Iterator[tuple[int, dict]]:
    """Endless seeded request mix: ``(universe index or -1, request)``.

    Valid requests follow a Zipf law (exponent :data:`ZIPF_S`) over a
    fixed shuffle of the universe (:data:`POPULARITY_SEED`).  The seed
    draws the sequence, so runs with different seeds sample one request
    distribution: were the popular entries to change with the seed, the
    per-request cost, and with it the latency, would too.
    :data:`MALFORMED_SHARE` of requests are malformed (index -1).
    Request ids count up from 0.
    """
    rng = random.Random(seed)
    order = list(range(len(universe)))
    random.Random(POPULARITY_SEED).shuffle(order)
    cum, acc = [], 0.0
    for rank in range(len(order)):
        acc += 1.0 / (rank + 1) ** ZIPF_S
        cum.append(acc)
    request_id = 0
    while True:
        for rank in rng.choices(range(len(order)), cum_weights=cum, k=1024):
            if rng.random() < MALFORMED_SHARE:
                idx, doc = -1, rng.choice(MALFORMED)
            else:
                idx = order[rank]
                doc = universe[idx]
            yield idx, {"id": request_id, **doc}
            request_id += 1


# ----------------------------------------------------------------------
# output checks
def sha(text: str) -> str:
    """Digest of one output, as stored in ``golden.json``."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(result: dict) -> str:
    """Digest of a prediction's ``result`` (provenance excluded)."""
    return sha(json.dumps(result, sort_keys=True, separators=(",", ":")))


def load_golden() -> dict:
    """The committed goldens (``run.py golden`` regenerates them)."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_response(idx: int, request_id: object, response: dict | None,
                   golden: dict) -> bool:
    """Is *response* the right answer to request *request_id*?

    A malformed request (``idx == -1``) must be refused; a valid one must
    succeed, echo its id and match the golden digest of its universe
    entry *idx*.  A missing response is wrong either way.
    """
    if response is None:
        return False
    if idx < 0:
        return response.get("ok") is False
    return (response.get("ok") is True
            and response.get("id") == request_id
            and result_digest(response["result"])
            == golden["serve_universe"][idx])


def check_paper(digests: dict[str, str], golden: dict) -> int:
    """Number of paper artifacts that differ from (or miss) the golden."""
    want = golden["paper"]
    return sum(digests.get(exp_id) != d for exp_id, d in want.items())


def grid_digest(doc: dict) -> str:
    """Digest of a grid sweep's rows and per-kernel winners."""
    return sha(json.dumps({"rows": doc["rows"], "winners": doc["winners"]},
                          sort_keys=True, separators=(",", ":")))


# ----------------------------------------------------------------------
# statistics helpers
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated *q*-quantile (0..1) of *values*."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache_counts() -> dict[str, float]:
    from repro.compilers.cache import get_compile_cache
    from repro.engine.cache import get_cache

    s, c = get_cache().stats(), get_compile_cache().stats()
    return {"engine_hits": s["hits"], "engine_misses": s["misses"],
            "compile_hits": c["hits"], "compile_misses": c["misses"]}


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after
            if isinstance(after[k], (int, float))}


def _cache_ratios(counts: dict) -> dict[str, float]:
    return {
        "engine.cache.hit_ratio": _ratio(
            counts["engine_hits"],
            counts["engine_hits"] + counts["engine_misses"]),
        "compilers.cache.hit_ratio": _ratio(
            counts["compile_hits"],
            counts["compile_hits"] + counts["compile_misses"]),
    }


def _write_spans(path: str | None, docs: list[dict]) -> None:
    if path is None:
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


# ----------------------------------------------------------------------
# one-shots: each runs in its own fresh process (``run.py _oneshot``)
def _timed_command(trace: bool, command: Callable[[], object]) -> dict:
    """Run *command* once, optionally traced; wall time excludes import."""
    with (Tracer() if trace else contextlib.nullcontext()) as tracer:
        t0 = time.perf_counter()
        value = command()
        wall = time.perf_counter() - t0
    out = {"value": value, "wall_s": wall}
    if tracer is not None:
        unattributed, identity_ok = timing_identity(tracer.spans, wall)
        out.update({
            "layers": self_times(tracer.spans),
            "unattributed_s": unattributed,
            "identity_ok": identity_ok,
            "cache": _cache_counts(),
            "spans": span_docs(tracer.spans),
        })
    return out


def paper_once(trace: bool = False, bands: bool = False) -> dict:
    """``repro run all``: render every paper experiment, cold caches."""
    from repro.bench import harness, report

    ready = time.monotonic()
    run = _timed_command(trace, lambda: {
        exp_id: report.render_experiment(exp_id)
        for exp_id in harness.EXPERIMENTS})
    texts = run.pop("value")
    run.update({"ready": ready, "rss_mb": _rss_mb(),
                "digests": {k: sha(v) for k, v in texts.items()}})
    if bands:
        from repro.validate.bands import score_bands

        run["band_misses"] = sum(e["in_band"] is False
                                 for e in score_bands())
    return run


def grid_once(trace: bool = False, machines: int = GRID_MACHINES) -> dict:
    """``repro sweep --grid --machines N`` with its rows."""
    from repro.machine import grid

    ready = time.monotonic()
    run = _timed_command(trace, lambda: grid.run_machine_grid(
        machines=machines, include_rows=True))
    doc = run.pop("value")
    run.update({"ready": ready, "rss_mb": _rss_mb(),
                "digest": grid_digest(doc), "points": doc["points"]})
    return run


def serve_ready_once() -> dict:
    """Start a server and TCP frontend; ready when a ping is answered."""
    from repro.serve.client import ServeClient
    from repro.serve.server import PredictionServer, TcpFrontend

    with PredictionServer() as server, TcpFrontend(server) as frontend, \
            ServeClient(frontend.address, timeout=CLIENT_TIMEOUT_S) as client:
        ok = client.ping().get("ok") is True
        ready = time.monotonic()
        # ends the connection handler; closing the client alone does not
        client.shutdown()
    return {"ready": ready, "ok": ok}


def serve_golden() -> list[str]:
    """Golden digest of every universe entry, from the naive server."""
    from repro.serve.server import PredictionServer

    digests = []
    with PredictionServer(naive=True) as server:
        for i, doc in enumerate(serve_universe()):
            resp = server.request({"id": i, **doc})
            if resp.get("ok") is not True:
                raise RuntimeError(f"universe entry {doc} failed: {resp}")
            digests.append(result_digest(resp["result"]))
    return digests


ONESHOTS: dict[str, Callable[..., object]] = {
    "paper": paper_once,
    "design_grid": grid_once,
    "serve_ready": serve_ready_once,
    "serve_golden": serve_golden,
}


def run_child(cmd: list[str], timeout: float,
              env: dict[str, str] | None = None, *,
              group: bool = False) -> dict:
    """Run *cmd* to completion and parse the JSON on its last stdout line.

    With *group* the child leads a new process group, and when it fails
    or times out everything it started is killed with it; otherwise only
    the child is killed on a timeout.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=group)

    def kill() -> None:
        try:
            if group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
        except ProcessLookupError:
            pass

    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        kill()
        proc.communicate()
        raise RuntimeError(f"{cmd[2:4]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        kill()
        raise RuntimeError(f"{cmd[2:4]} failed (exit {proc.returncode}):\n"
                           f"{err}")
    return json.loads(out.strip().splitlines()[-1])


def spawn_oneshot(kind: str, env: dict[str, str] | None = None,
                  **kwargs) -> tuple[float, dict]:
    """Run one one-shot in a fresh process; ``(spawn time, its report)``.

    The child inherits this process's environment unless *env* is given.
    The spawn time is on the system-wide monotonic clock the child's
    ``ready`` stamp uses.
    """
    cmd = [sys.executable, str(RUN_PY), "_oneshot", kind,
           json.dumps(kwargs)]
    t_spawn = time.monotonic()
    return t_spawn, run_child(cmd, ONESHOT_TIMEOUT_S, env)


# ----------------------------------------------------------------------
# workloads: each returns {"correct", "attempted", "failed", "metrics",
# "info"} and, when traced, "layers"
def _metrics(setups: list[float], op_ms: list[float], ops: float,
             window_s: float, rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "p50_ms": percentile(op_ms, 0.50),
        "p95_ms": percentile(op_ms, 0.95),
        "ops_per_s": ops / window_s,
        "peak_rss_mb": rss_mb,
    }


def _mean_layers(runs: list[dict]) -> dict[str, float]:
    """Per-layer table of traced one-shots, averaged per process."""
    n = len(runs)
    layers: dict[str, float] = {}
    for name, _m, _a in TARGETS:
        for key in runs[0]["layers"][name]:
            layers[f"{name}.{key}"] = sum(
                r["layers"][name][key] for r in runs) / n
    counts: dict[str, float] = {}
    for r in runs:
        for k, v in r["cache"].items():
            counts[k] = counts.get(k, 0.0) + v
    layers.update(_cache_ratios(counts))
    layers["harness.unattributed_s"] = sum(
        r["unattributed_s"] for r in runs) / n
    return _all_layers(layers)


def _run_oneshots(kind: str, seconds: float, trace: bool, golden: dict,
                  spans_path: str | None, min_runs: int,
                  **kwargs) -> dict:
    """Fresh processes back to back until *seconds* have passed."""
    runs: list[dict] = []
    setups: list[float] = []
    t_start = time.monotonic()
    deadline = t_start + seconds
    while len(runs) < min_runs or time.monotonic() < deadline:
        extra = {"bands": True} if kind == "paper" and not runs else {}
        t_spawn, run = spawn_oneshot(kind, trace=trace, **kwargs, **extra)
        setups.append(run["ready"] - t_spawn)
        runs.append(run)
    window = time.monotonic() - t_start

    if kind == "paper":
        per_run = len(golden["paper"])
        failed = sum(check_paper(r["digests"], golden) for r in runs)
        ops = per_run * len(runs)
        info = {"paper_band_misses": runs[0]["band_misses"]}
    else:
        per_run = 1
        failed = sum(r["digest"] != golden["design_grid"] for r in runs)
        ops = sum(r["points"] for r in runs)
        info = {}
    attempted = per_run * len(runs)
    identity_ok = all(r.get("identity_ok", True) for r in runs)
    info.update({"processes": len(runs), "identity_ok": identity_ok,
                 "failed_frac": failed / attempted})
    out = {
        "correct": (failed == 0 and identity_ok
                    and not info.get("paper_band_misses")),
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(setups, [r["wall_s"] * 1e3 for r in runs],
                            ops, window,
                            statistics.median(r["rss_mb"] for r in runs)),
        "info": info,
    }
    if trace:
        out["layers"] = _mean_layers(runs)
        _write_spans(spans_path, [
            {"proc": i, **doc} for i, r in enumerate(runs)
            for doc in r["spans"]])
    return out


def run_paper(seed: int, seconds: float, trace: bool, golden: dict,
              spans_path: str | None = None, *,
              min_runs: int = MIN_ONESHOTS["paper"]) -> dict:
    """``repro run all`` in fresh processes.  Fixed input: *seed* unused."""
    return _run_oneshots("paper", seconds, trace, golden, spans_path,
                         min_runs)


def run_design_grid(seed: int, seconds: float, trace: bool, golden: dict,
                    spans_path: str | None = None, *,
                    min_runs: int = MIN_ONESHOTS["design_grid"],
                    machines: int = GRID_MACHINES) -> dict:
    """``repro sweep --grid --machines 1000`` in fresh processes.

    Fixed input: *seed* unused.  The golden covers the default size only.
    """
    return _run_oneshots("design_grid", seconds, trace, golden, spans_path,
                         min_runs, machines=machines)


def open_loop(submit: Callable[[str], Future], lines: list[str],
              due: list[float],
              consume: Callable[[int, float, Future], None]) -> list[float]:
    """Send ``lines[i]`` at ``due[i]`` regardless of earlier replies.

    ``consume(i, t_done, future)`` is called once per resolved request,
    on this thread, while it waits for the next due time and after the
    last send until every request resolved or :data:`DRAIN_TIMEOUT_S`
    passed.  Nothing keeps a reply after it is consumed: retained
    replies would slow the program's own garbage collection.  Returns
    the send times; latency is meant to be taken from ``due``, so a
    stall of the sender counts against every request it delays.
    """
    n = len(lines)
    sent = [0.0] * n
    finished: deque = deque()
    handled = 0
    clock = time.perf_counter
    for i in range(n):
        while True:
            delay = due[i] - clock()
            if delay > IDLE_WORK_S and finished:
                consume(*finished.popleft())
                handled += 1
                continue
            if delay > 0:
                time.sleep(delay)
            break
        sent[i] = clock()
        submit(lines[i]).add_done_callback(
            functools.partial(_finish, finished, i))
    deadline = clock() + DRAIN_TIMEOUT_S
    while handled < n and clock() < deadline:
        if finished:
            consume(*finished.popleft())
            handled += 1
        else:
            time.sleep(0.001)
    return sent


def _finish(finished: deque, i: int, future: Future) -> None:
    finished.append((i, time.perf_counter(), future))


def _serve_setups() -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS):
        t_spawn, run = spawn_oneshot("serve_ready")
        if not run["ok"]:
            raise RuntimeError("fresh server did not answer its first ping")
        out.append(run["ready"] - t_spawn)
    return out


def _prime(server, universe: list[dict], golden: dict) -> list[bool]:
    """Ask every universe entry once, all at once; check the answers.

    The universe fits the server's caches, and a long-running server has
    answered each entry before, so the measured window sees hits.  Which
    entries happened to miss would otherwise depend on the seed and set
    the tail latency.
    """
    futures = [server.submit_line(json.dumps({"id": f"prime-{i}", **doc}))[0]
               for i, doc in enumerate(universe)]
    return [check_response(i, f"prime-{i}",
                           fut.result(timeout=DRAIN_TIMEOUT_S), golden)
            for i, fut in enumerate(futures)]


def _serve_layers(spans, t_measure: float, client_s: dict,
                  stats: dict, counts: dict,
                  gen_late_p99_ms: float = 0.0) -> dict[str, float]:
    """Per-layer table of a traced serve window.

    *client_s* maps request id to the latency its client saw; transport
    is that minus the server-side time from ``submit_line`` to the
    future resolving.
    """
    spans = [s for s in spans if s.start >= t_measure]
    layers: dict[str, float] = {}
    for name, row in self_times(spans).items():
        for key, value in row.items():
            layers[f"{name}.{key}"] = value
    layers.update(_cache_ratios(counts))
    submits = {s.extra["id"]: s for s in spans
               if s.name == "serve.server.PredictionServer.submit_line"
               and s.extra is not None}
    batches = [s for s in spans if s.name == "serve.server.execute"
               and s.extra is not None]
    waits = [(b.start - submits[i].start) * 1e3
             for b in batches for i in b.extra["ids"] if i in submits]
    transport = [(lat - (submits[i].extra["resolved"] - submits[i].start))
                 * 1e3 for i, lat in client_s.items()
                 if i in submits and submits[i].extra["resolved"]]
    layers.update({
        "serve.queue.batches": len(batches),
        "serve.queue.batch_size_mean": _ratio(
            sum(len(b.extra["ids"]) for b in batches), len(batches)),
        "serve.queue.admission_wait_p50_ms": (
            percentile(waits, 0.5) if waits else 0.0),
        "serve.queue.admission_wait_p99_ms": (
            percentile(waits, 0.99) if waits else 0.0),
        "serve.server.dedup_ratio": _ratio(stats["deduped"],
                                           stats["batched_requests"]),
        "serve.server.cache_hit_ratio": _ratio(
            stats["cache_hits"], stats["cache_hits"] + stats["cache_misses"]),
        "serve.transport_p50_ms": (percentile(transport, 0.5)
                                   if transport else 0.0),
        "harness.gen_late_p99_ms": gen_late_p99_ms,
    })
    return _all_layers(layers)


def _serve_result(checks: list[bool], measured_ms: list[float],
                  setups: list[float], window_s: float) -> dict:
    failed = checks.count(False)
    attempted = len(checks)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(setups, measured_ms, len(measured_ms),
                            window_s, _rss_mb()),
        "info": {"measured": len(measured_ms),
                 "p99_ms": percentile(measured_ms, 0.99),
                 "failed_frac": failed / attempted},
    }


def run_serve_interactive(seed: int, seconds: float, trace: bool,
                          golden: dict, spans_path: str | None = None, *,
                          warmup: int = INTERACTIVE_WARMUP) -> dict:
    """One closed-loop TCP client against an in-process server.

    A reply that does not come within :data:`CLIENT_TIMEOUT_S` leaves the
    connection unusable, so it ends the run without a result.
    """
    setups = _serve_setups()
    from repro.serve.client import ServeClient
    from repro.serve.server import PredictionServer, TcpFrontend, session_stats

    universe = serve_universe()
    stream = request_stream(seed, universe)
    measured: list[float] = []
    client_s: dict = {}
    clock = time.perf_counter
    with (Tracer() if trace else contextlib.nullcontext()) as tracer, \
            PredictionServer() as server, TcpFrontend(server) as frontend, \
            ServeClient(frontend.address, timeout=CLIENT_TIMEOUT_S) as client:
        checks = _prime(server, universe, golden)

        def one(idx: int, doc: dict) -> float:
            t0 = clock()
            resp = client.request(doc)
            lat = clock() - t0
            checks.append(check_response(idx, doc["id"], resp, golden))
            return lat

        for _ in range(warmup):
            one(*next(stream))
        stats0, counts0 = session_stats(), _cache_counts()
        t_measure = clock()
        deadline = t_measure + seconds
        while True:
            idx, doc = next(stream)
            lat = one(idx, doc)
            measured.append(lat * 1e3)
            client_s[doc["id"]] = lat
            if clock() >= deadline:
                break
        window = clock() - t_measure
        stats = _delta(session_stats(), stats0)
        counts = _delta(_cache_counts(), counts0)
        client.shutdown()
    out = _serve_result(checks, measured, setups, window)
    if tracer is not None:
        out["layers"] = _serve_layers(tracer.spans, t_measure, client_s,
                                      stats, counts)
        _write_spans(spans_path, span_docs(tracer.spans))
    return out


def run_serve_open(seed: int, seconds: float, trace: bool, golden: dict,
                   spans_path: str | None = None, *,
                   rate: float = OPEN_RATE,
                   warmup_s: float = OPEN_WARMUP_S) -> dict:
    """Seeded Poisson arrivals into ``PredictionServer.submit_line``."""
    setups = _serve_setups()
    from repro.serve.server import PredictionServer, session_stats

    universe = serve_universe()
    stream = request_stream(seed, universe)
    arrivals = random.Random(seed + 1)

    def phase(duration: float) -> tuple[list[int], list[int], list[str],
                                        list[float]]:
        """Universe indexes, ids, lines and due offsets of one phase."""
        idxs, ids, lines, offsets, t = [], [], [], [], 0.0
        while True:
            t += arrivals.expovariate(rate)
            if t > duration:
                return idxs, ids, lines, offsets
            idx, doc = next(stream)
            idxs.append(idx)
            ids.append(doc["id"])
            lines.append(json.dumps(doc))
            offsets.append(t)

    clock = time.perf_counter
    checks: list[bool] = []
    results: list[tuple[int, float, float, float]] = []  # id, due, sent, done

    def run_phase(server, duration: float, measure: bool) -> float:
        idxs, ids, lines, offsets = phase(duration)
        ok = [False] * len(lines)
        done: list[float | None] = [None] * len(lines)

        def consume(i: int, t_done: float, fut: Future) -> None:
            resp = None if fut.exception() else fut.result()
            ok[i] = check_response(idxs[i], ids[i], resp, golden)
            done[i] = t_done

        t0 = clock() + 0.001
        due = [t0 + o for o in offsets]
        sent = open_loop(lambda line: server.submit_line(line)[0], lines,
                         due, consume)
        checks.extend(ok)
        if measure:
            results.extend(r for r in zip(ids, due, sent, done)
                           if r[3] is not None)
        return t0

    with (Tracer() if trace else contextlib.nullcontext()) as tracer, \
            PredictionServer() as server:
        checks.extend(_prime(server, universe, golden))
        run_phase(server, warmup_s, measure=False)
        stats0, counts0 = session_stats(), _cache_counts()
        t_measure = run_phase(server, seconds, measure=True)
        stats = _delta(session_stats(), stats0)
        counts = _delta(_cache_counts(), counts0)

    measured = [(t - d) * 1e3 for _i, d, _s, t in results]
    window = max((r[3] for r in results), default=clock()) - t_measure
    out = _serve_result(checks, measured, setups, window)
    late_ms = [(s - d) * 1e3 for _i, d, s, _t in results]
    out["info"]["gen_late_p99_ms"] = percentile(late_ms, 0.99)
    if tracer is not None:
        client_s = {i: t - s for i, _d, s, t in results}
        out["layers"] = _serve_layers(tracer.spans, t_measure, client_s,
                                      stats, counts,
                                      out["info"]["gen_late_p99_ms"])
        _write_spans(spans_path, span_docs(tracer.spans))
    return out


RUNNERS: dict[str, Callable[..., dict]] = {
    "paper": run_paper,
    "design_grid": run_design_grid,
    "serve_interactive": run_serve_interactive,
    "serve_open": run_serve_open,
}


def clean_env(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """The workload environment and the ``REPRO_*`` variables removed."""
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in sorted(env) if k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env, removed
