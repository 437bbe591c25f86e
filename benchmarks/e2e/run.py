"""End-to-end benchmark: the three paths a user of this repository waits on.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload W ...] [--seed N]
                                 [--seconds S] [--trace [0|1]] [--out PATH]
    python benchmarks/e2e/run.py golden
    python benchmarks/e2e/run.py compare A.json B.json

A run measures each workload in its own fresh subprocess (``PYTHONPATH=src``,
every ``REPRO_*`` variable removed), prints every metric with its unit,
appends the run to a ``repro.e2e-bench/1`` document (``--out``, default
``.bench_out/e2e.json``) and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics -- or, with
``--trace 1``, the per-layer metrics.  A traced run spends half its time
untraced and half traced, so it can report the tracing overhead.  The exit
status is 0 when every output matched the goldens.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# import this directory as the package ``e2e`` (its ``trace`` module must
# not shadow the standard library's)
if sys.path and Path(sys.path[0]).resolve() == HERE:
    sys.path[0] = str(HERE.parent)

from e2e import workloads as W  # noqa: E402

FORMAT = "repro.e2e-bench/1"
GOLDEN_FORMAT = "repro.e2e-golden/1"
DEFAULT_OUT = ROOT / ".bench_out" / "e2e.json"
SPANS_DIR = ROOT / ".bench_out" / "spans"
DEFAULT_SEED = 2021
#: a whole run, every child included, ends within this many seconds
RUN_BUDGET_S = 170.0
#: unit of every metric a run reports
UNITS = {**{k: u for k, (u, _b) in W.E2E_METRICS.items()},
         **W.layer_units()}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(removed: dict[str, str]) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "removed_env": removed,
    }


# ----------------------------------------------------------------------
def _run_workload(name: str, seed: int, seconds: float, trace: bool,
                  env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "_workload", name,
           json.dumps({"seed": seed, "seconds": seconds, "trace": trace,
                       "spans_path": (str(SPANS_DIR / f"{name}.jsonl")
                                      if trace else None)})]
    return W.run_child(cmd, deadline - time.monotonic(), env, group=True)


def _measure(name: str, seed: int, seconds: float, trace: bool, env: dict,
             deadline: float) -> dict:
    """One workload; traced runs pair an untraced and a traced half."""
    if not trace:
        return _run_workload(name, seed, seconds, False, env, deadline)
    plain = _run_workload(name, seed, seconds / 2, False, env, deadline)
    traced = _run_workload(name, seed, seconds / 2, True, env, deadline)
    traced["layers"]["harness.trace_overhead"] = (
        traced["metrics"]["p50_ms"] / plain["metrics"]["p50_ms"])
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": plain["metrics"],
        "info": plain["info"],
        "layers": traced["layers"],
    }


def _print_table(name: str, result: dict) -> None:
    print(f"\n{name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key, value in result["info"].items():
        print(f"  {key:<50} {value}")
    for key, value in {**result["metrics"],
                       **result.get("layers", {})}.items():
        print(f"  {key:<50} {value:>14.6g} {UNITS[key]}")


def _append_run(path: Path, run: dict) -> None:
    doc = {"format": FORMAT, "runs": []}
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        if old.get("format") == FORMAT:
            doc = old
    doc["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _summary_line(results: dict[str, dict], trace: bool) -> dict:
    """The final stdout line: correctness plus metrics with units."""
    key = "layers" if trace else "metrics"
    single = len(results) == 1
    metrics = {}
    for name, res in results.items():
        for metric, value in res[key].items():
            label = metric if single else f"{name}/{metric}"
            metrics[label] = {"value": value, "unit": UNITS[metric]}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def bench(argv: list[str]) -> int:
    """Measure the chosen workloads; see the module docstring."""
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=W.WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the serve request mixes")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="result document the run is appended to")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    seconds = (args.seconds if args.seconds is not None
               else float(_spec()["run_seconds"]))
    names = args.workload or list(W.WORKLOADS)
    trace = bool(args.trace)
    env, removed = W.clean_env(ROOT)
    results = {}
    for name in names:
        results[name] = _measure(name, args.seed, seconds, trace, env,
                                 deadline)
        _print_table(name, results[name])
    _append_run(args.out, {
        "env": _environment(removed),
        "seed": args.seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": results,
    })
    line = _summary_line(results, trace)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
def golden(argv: list[str]) -> int:
    """Regenerate ``golden.json`` from the current sources."""
    if argv:
        print("usage: run.py golden", file=sys.stderr)
        return 2
    env, _removed = W.clean_env(ROOT)
    _t, paper = W.spawn_oneshot("paper", env=env)
    _t, grid = W.spawn_oneshot("design_grid", env=env)
    _t, universe = W.spawn_oneshot("serve_golden", env=env)
    doc = {
        "format": GOLDEN_FORMAT,
        "paper": paper["digests"],
        "design_grid": grid["digest"],
        "serve_universe": universe,
    }
    with open(W.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    print(f"wrote {W.GOLDEN_PATH}: {len(doc['paper'])} paper artifacts, "
          f"1 grid digest, {len(universe)} serve answers")
    return 0


# ----------------------------------------------------------------------
def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    """``better``, ``worse``, ``same`` or ``unresolved`` for B against A.

    *bound* is the share of A's median by which B may be worse.  When
    either side's spread (inter-quartile range over median) is wider
    than the bound the metric is unresolved, unless every run of B reads
    better than every run of A.
    """
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = _quartiles(a), _quartiles(b)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    change = sign * (qb[1] - qa[1]) / qa[1]      # > 0 means B is worse
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound:
        return "better" if all_better else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def _load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} document")
    return [r for r in doc["runs"] if not r.get("trace")]


def compare(argv: list[str]) -> int:
    """Compare the untraced runs of two result documents, metric by metric."""
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    runs_a, runs_b = _load_runs(argv[0]), _load_runs(argv[1])
    if not runs_a or not runs_b:
        print("compare: both documents need an untraced run",
              file=sys.stderr)
        return 2
    spec = _spec()
    worse = 0
    print(f"{'workload':<18} {'metric':<12} {'A q1/med/q3':>32} "
          f"{'B q1/med/q3':>32}  verdict")
    for name in W.WORKLOADS:
        side_a = [r["workloads"][name] for r in runs_a
                  if name in r["workloads"]]
        side_b = [r["workloads"][name] for r in runs_b
                  if name in r["workloads"]]
        if not side_a or not side_b:
            continue
        for m in spec["end_to_end"]:
            a = [res["metrics"][m["name"]] for res in side_a]
            b = [res["metrics"][m["name"]] for res in side_b]
            v = verdict(a, b, m["better"], m["bound"])
            worse += v == "worse"
            fa = "/".join(f"{x:.4g}" for x in _quartiles(a))
            fb = "/".join(f"{x:.4g}" for x in _quartiles(b))
            print(f"{name:<18} {m['name']:<12} {fa:>32} {fb:>32}  {v}")
        failed_b = sum(res["failed"] for res in side_b)
        ok_b = all(res["correct"] for res in side_b)
        v = "same" if ok_b else "worse"
        worse += v == "worse"
        print(f"{name:<18} {'correct':<12} {'':>32} "
              f"{f'failed={failed_b}':>32}  {v}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def _oneshot(argv: list[str]) -> int:
    kind, kwargs = argv[0], json.loads(argv[1])
    print(json.dumps(W.ONESHOTS[kind](**kwargs)))
    return 0


def _workload(argv: list[str]) -> int:
    name, kwargs = argv[0], json.loads(argv[1])
    result = W.RUNNERS[name](golden=W.load_golden(), **kwargs)
    print(json.dumps(result))
    return 0


COMMANDS = {"golden": golden, "compare": compare,
            "_oneshot": _oneshot, "_workload": _workload}


def main(argv: list[str]) -> int:
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    return bench(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
