"""Vectorized ECM batches: bit-exactness against the scalar model."""

import pytest

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS, get_toolchain
from repro.ecm.batch import clear_ecm_memos, predict_batch
from repro.ecm.model import predict_compiled
from repro.kernels.catalog import build_kernel
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.machine.numa import PagePlacement
from repro.machine.systems import get_system
from repro.perf.profile import default_system_for

KERNELS = ("simple", "gather", "sqrt", "spmv_crs", "stencil2d")
WINDOWS = (None, 2, 8, 24, 96)


@pytest.fixture(autouse=True)
def fresh_memos():
    clear_ecm_memos()
    yield
    clear_ecm_memos()


def _items():
    """A mixed (compiled, system, window) grid across marches."""
    items = []
    for kernel in KERNELS:
        for tc_name in sorted(TOOLCHAINS):
            tc = get_toolchain(tc_name)
            march = SKYLAKE_6140 if tc.target == "x86" else A64FX
            compiled = compile_loop(build_kernel(kernel), tc, march)
            system = get_system(default_system_for(tc_name))
            for window in WINDOWS:
                items.append((compiled, system, window))
    return items


class TestBitExactness:
    def test_matches_predict_compiled(self):
        items = _items()
        batch = predict_batch(items)
        for (compiled, system, window), pred in zip(items, batch):
            scalar = predict_compiled(compiled, system, window=window)
            assert pred == scalar

    @pytest.mark.parametrize("kwargs", [
        {"allcore": True},
        {"active_cores_per_domain": 4},
        {"placement": PagePlacement.SINGLE_DOMAIN},
        {"allcore": True, "active_cores_per_domain": 12,
         "placement": PagePlacement.SINGLE_DOMAIN},
    ])
    def test_keyword_variants_match(self, kwargs):
        items = _items()[::5]
        batch = predict_batch(items, **kwargs)
        for (compiled, system, window), pred in zip(items, batch):
            scalar = predict_compiled(
                compiled, system, window=window, **kwargs)
            assert pred == scalar

    def test_mixed_thread_counts_share_one_batch(self):
        """Per-item core counts equal per-group calls and the scalar
        model, exactly."""
        threads = (1, 4, 12)
        items = [item + (threads[i % 3],)
                 for i, item in enumerate(_items()[::3])]
        mixed = predict_batch(items)
        for n in threads:
            group = [item for item in items if item[3] == n]
            per_group = predict_batch([item[:3] for item in group],
                                      active_cores_per_domain=n)
            assert per_group == [pred for item, pred in zip(items, mixed)
                                 if item[3] == n]
        for (compiled, system, window, n), pred in zip(items, mixed):
            assert pred == predict_compiled(
                compiled, system, window=window, active_cores_per_domain=n)

    def test_warm_memos_stay_exact(self):
        """Second pass (memo hits) returns the same predictions."""
        items = _items()[:10]
        cold = predict_batch(items)
        warm = predict_batch(items)
        assert cold == warm

    def test_exact_after_memo_clear(self):
        items = _items()[:10]
        before = predict_batch(items)
        clear_ecm_memos()
        assert predict_batch(items) == before


class TestEdges:
    def test_empty_batch(self):
        assert predict_batch([]) == []

    def test_single_item(self):
        tc = get_toolchain("fujitsu")
        compiled = compile_loop(build_kernel("simple"), tc, A64FX)
        system = get_system("ookami")
        [pred] = predict_batch([(compiled, system, None)])
        assert pred == predict_compiled(compiled, system)

    def test_order_is_item_order(self):
        items = _items()[:6]
        batch = predict_batch(items)
        flipped = predict_batch(items[::-1])
        assert batch == flipped[::-1]
