"""Unified kernel catalog across the suite and SpMV/stencil families.

Every prediction tier — the analytical ECM model, the fast engine, the
full simulation — and every CLI entry point resolves kernel names
through this one table, so ``repro ecm spmv_crs`` and
``repro profile simple`` share a namespace.  The SpMV builders are
imported lazily to keep the dependency direction clean: the engine and
sweep layers may import the catalog without pulling in
:mod:`repro.spmv` (or, transitively, numpy reference numerics) until a
SpMV kernel is actually requested.
"""

from __future__ import annotations

from functools import lru_cache

from repro._util import require_in
from repro.compilers.ir import Loop
from repro.kernels.loops import LOOP_NAMES, MATH_LOOP_NAMES

__all__ = ["ALL_KERNEL_NAMES", "SUITE_KERNEL_NAMES", "build_kernel"]

#: the Fig. 1/2 loop-suite kernels (Sections III/IV of the paper)
SUITE_KERNEL_NAMES: tuple[str, ...] = LOOP_NAMES + MATH_LOOP_NAMES

#: SpMV/stencil workload names, duplicated here as a plain literal so
#: listing the catalog never imports the spmv package
_SPMV_NAMES: tuple[str, ...] = ("spmv_crs", "spmv_sell", "stencil2d",
                                "stencil3d")

#: every kernel any tier can predict
ALL_KERNEL_NAMES: tuple[str, ...] = SUITE_KERNEL_NAMES + _SPMV_NAMES


def build_kernel(name: str, n: int | None = None) -> Loop:
    """Build any catalogued kernel as loop IR.

    ``n`` means what it means for the underlying family: vector length
    for the suite loops (default L1-resident), matrix rows / grid points
    for the SpMV and stencil kernels (default DRAM-resident).

    Building is a pure function of ``(name, n)`` and the IR is frozen
    dataclasses, so results are memoized per process in a bounded LRU:
    repeated calls return the *same* :class:`Loop`.  The returned IR is
    shared by every caller and must not be mutated (that includes its
    ``arrays`` mapping) — derive variants with ``dataclasses.replace``.
    """
    require_in(name, ALL_KERNEL_NAMES, "kernel name")
    return _build(name, n)


@lru_cache(maxsize=256)
def _build(name: str, n: int | None) -> Loop:
    if name in SUITE_KERNEL_NAMES:
        from repro.kernels.loops import build_loop

        return build_loop(name, n)
    from repro.spmv.kernels import build_spmv_loop

    return build_spmv_loop(name, n)
