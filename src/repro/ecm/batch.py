"""Vectorized ECM batches: N closed-form predictions as one array program.

``run_sweep(tier="ecm")`` over a design-space grid evaluates the same
(march, loop body) in-core analysis and the same (system, memory
-stream) traffic pricing once per *window* — but only the window bound
actually depends on the window.  :func:`predict_batch` exploits that:

* the window-independent in-core base (port pressure, issue, critical
  path, recurrence chain — :func:`repro.ecm.incore._stream_base`) is
  memoized per (core content, stream content) and stacked into float64
  arrays;
* per-stream boundary traffic (:func:`repro.ecm.traffic.data_cycles`)
  is memoized per (hierarchy, streams, clock, cores, placement) value
  and its summed ``T_data`` stacked alongside;
* the window bounds and the overlap/non-overlap composition of
  :func:`repro.ecm.model._compose` are then evaluated for all points at
  once as numpy array arithmetic.

Exactness contract: float64 array ops are applied in the same operand
order as the scalar path (``np.maximum.reduce`` is the same fold-left
as Python's ``max``), so every returned
:class:`~repro.ecm.model.EcmPrediction` is **bit-identical** to what
:func:`~repro.ecm.model.predict_compiled` returns for the same point —
``tests/ecm/test_batch.py`` and the grid fuzz lane enforce this.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.compilers.codegen import CompiledLoop
from repro.ecm.incore import _stream_base, _summarize
from repro.ecm.model import EcmPrediction
from repro.ecm.traffic import StreamTraffic, data_cycles
from repro.engine.cache import stream_fingerprint
from repro.machine.numa import PagePlacement
from repro.machine.systems import System

__all__ = ["predict_batch", "clear_ecm_memos"]

#: memoized window-independent in-core bases, keyed by content:
#: (core key, stream fingerprint) — every core with equal issue width
#: and timings shares one base per stream, whatever its name
_BASE_MEMO: OrderedDict = OrderedDict()
#: memoized (streams, t_data) traffic, keyed by the values of the
#: frozen hierarchy and memory-stream tuple plus clock, active cores
#: and placement — equal memory systems share entries across machines
_TRAFFIC_MEMO: OrderedDict = OrderedDict()
_MEMO_CAP = 1024
_MEMO_LOCK = threading.Lock()


def clear_ecm_memos() -> None:
    """Drop the batch memos (cold-path benchmarks; pure caches)."""
    with _MEMO_LOCK:
        _BASE_MEMO.clear()
        _TRAFFIC_MEMO.clear()


def _memo_get(memo: OrderedDict, key):
    with _MEMO_LOCK:
        hit = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
        return hit


def _memo_put(memo: OrderedDict, key, value) -> None:
    with _MEMO_LOCK:
        memo[key] = value
        memo.move_to_end(key)
        while len(memo) > _MEMO_CAP:
            memo.popitem(last=False)


def _base_for(compiled: CompiledLoop):
    """The memoized window-independent in-core base for one point."""
    march = compiled.march
    stream = compiled.stream
    key = (march.core_key, stream_fingerprint(stream))
    base = _memo_get(_BASE_MEMO, key)
    if base is None:
        base = _stream_base(stream, march)
        _memo_put(_BASE_MEMO, key, base)
    return base


def _traffic_for(
    compiled: CompiledLoop, system: System, clock: float,
    active_cores_per_domain: int, placement_domains: int | None,
) -> tuple[tuple[StreamTraffic, ...], float]:
    """Memoized (per-stream traffic, summed ``T_data``) for one point."""
    hier = system.hierarchy
    mem_streams = compiled.mem_streams
    key = (hier, mem_streams, clock, active_cores_per_domain,
           placement_domains)
    hit = _memo_get(_TRAFFIC_MEMO, key)
    if hit is None:
        streams = data_cycles(
            mem_streams, hier, clock,
            active_cores_per_domain=active_cores_per_domain,
            placement_domains=placement_domains,
        )
        # same fold-left sum as EcmPrediction.t_data_cycles / _compose
        t_data = sum(s.cycles_per_iter for s in streams)
        hit = (streams, t_data)
        _memo_put(_TRAFFIC_MEMO, key, hit)
    return hit


def predict_batch(
    items: Sequence[tuple],
    *,
    allcore: bool = False,
    active_cores_per_domain: int = 1,
    placement: PagePlacement = PagePlacement.FIRST_TOUCH,
) -> list[EcmPrediction]:
    """Predict many ``(compiled, system, window[, cores])`` points at once.

    Returns one :class:`~repro.ecm.model.EcmPrediction` per item, in
    item order, each bit-identical to
    ``predict_compiled(compiled, system, window=window, ...)`` with the
    same keyword configuration.  An optional fourth element sets that
    item's ``active_cores_per_domain`` (the keyword is the default), so
    points with different thread counts share one batch.  Shared
    (core, stream) and (hierarchy, streams) components are analyzed
    once and stacked; only the composed arithmetic runs per point,
    vectorized.
    """
    if not items:
        return []
    n_items = len(items)
    placement_domains = (1 if placement is PagePlacement.SINGLE_DOMAIN
                         else None)
    bases = []
    traffics = []
    clocks = []
    wins = []
    factors = np.empty(n_items, dtype=np.float64)
    overlap = np.empty(n_items, dtype=bool)
    t_ol = np.empty(n_items, dtype=np.float64)
    t_nol = np.empty(n_items, dtype=np.float64)
    issue = np.empty(n_items, dtype=np.float64)
    chain = np.empty(n_items, dtype=np.float64)
    crit = np.empty(n_items, dtype=np.float64)
    n_arr = np.empty(n_items, dtype=np.float64)
    win_arr = np.empty(n_items, dtype=np.float64)
    t_data = np.empty(n_items, dtype=np.float64)
    for i, (compiled, system, window, *cores) in enumerate(items):
        march = compiled.march
        clock = (system.cpu.allcore_clock_ghz if allcore
                 else system.cpu.clock_ghz)
        base = _base_for(compiled)
        streams, td = _traffic_for(
            compiled, system, clock,
            cores[0] if cores else active_cores_per_domain,
            placement_domains,
        )
        win = march.window if window is None else window
        bases.append(base)
        traffics.append(streams)
        clocks.append(clock)
        wins.append(win)
        factors[i] = compiled.quality_factor
        overlap[i] = march.mem_overlap
        t_ol[i] = base.t_ol
        t_nol[i] = base.t_nol
        issue[i] = base.issue_cycles
        chain[i] = base.chain_cycles
        crit[i] = base.crit_path
        n_arr[i] = base.n
        win_arr[i] = win
        t_data[i] = td

    # the only window-dependent in-core term, for every point at once
    windowc = crit * n_arr / (win_arr + n_arr)
    # _compose, vectorized: np.maximum.reduce folds left exactly like
    # the scalar max(), so equal-magnitude ties resolve identically
    t_comp = np.maximum.reduce([t_ol, t_nol, issue, chain, windowc])
    non_overlap_cycles = factors * t_comp + t_data
    t_ol_term = factors * np.maximum.reduce([t_ol, issue, chain, windowc])
    overlap_cycles = np.maximum(t_ol_term, factors * t_nol + t_data)
    cycles = np.where(overlap, overlap_cycles, non_overlap_cycles)

    out: list[EcmPrediction] = []
    for i, (compiled, system, *_rest) in enumerate(items):
        summary = _summarize(bases[i], wins[i])
        out.append(EcmPrediction(
            kernel=compiled.loop.name,
            toolchain=compiled.toolchain.name,
            system=system.name,
            incore=summary,
            streams=traffics[i],
            quality_factor=float(factors[i]),
            mem_overlap=compiled.march.mem_overlap,
            cycles_per_iter=float(cycles[i]),
            elements_per_iter=compiled.elements_per_iter,
            n_iters=compiled.n_iters,
            clock_ghz=clocks[i],
        ))
    return out
