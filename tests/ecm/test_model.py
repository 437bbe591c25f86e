"""ECM composition, catalog consistency, JSON document, CLI parsing."""

import pytest

from repro.ecm.model import (
    ECM_DEFAULT_TOLERANCE,
    ECM_TOLERANCES,
    ecm_tolerance,
    predict_kernel,
    prediction_to_json,
)
from repro.kernels.catalog import ALL_KERNEL_NAMES, SUITE_KERNEL_NAMES


class TestCatalog:
    def test_every_kernel_has_a_stated_tolerance(self):
        assert set(ECM_TOLERANCES) == set(ALL_KERNEL_NAMES)
        assert all(0 < t < 1 for t in ECM_TOLERANCES.values())

    def test_spmv_names_stay_in_sync_with_the_package(self):
        """catalog duplicates the spmv names as a literal (so listing
        kernels never imports numpy); the duplicate must match."""
        from repro.kernels.catalog import _SPMV_NAMES
        from repro.spmv.kernels import SPMV_KERNEL_NAMES

        assert _SPMV_NAMES == SPMV_KERNEL_NAMES

    def test_catalog_is_suite_plus_spmv(self):
        assert len(ALL_KERNEL_NAMES) == len(set(ALL_KERNEL_NAMES))
        assert set(SUITE_KERNEL_NAMES) < set(ALL_KERNEL_NAMES)

    def test_unknown_kernel_uses_default_tolerance(self):
        assert ecm_tolerance("no_such_kernel") == ECM_DEFAULT_TOLERANCE


class TestComposition:
    def test_a64fx_composes_additively(self):
        pred = predict_kernel("spmv_sell", "fujitsu")
        assert not pred.mem_overlap
        assert pred.cycles_per_iter == pytest.approx(
            pred.t_comp_cycles + pred.t_data_cycles)
        assert pred.composition() == "T_comp + sum(T_data)"

    def test_x86_composition_is_the_overlap_max(self):
        pred = predict_kernel("spmv_sell", "intel")
        assert pred.mem_overlap
        t_ol = pred.quality_factor * max(
            pred.incore.t_ol, pred.incore.issue_cycles,
            pred.incore.chain_cycles, pred.incore.window_cycles)
        t_nol = pred.quality_factor * pred.incore.t_nol
        assert pred.cycles_per_iter == pytest.approx(
            max(t_ol, t_nol + pred.t_data_cycles))
        assert pred.cycles_per_iter <= (
            pred.t_comp_cycles + pred.t_data_cycles)
        assert pred.composition() == "max(T_OL, T_nOL + sum(T_data))"

    def test_x86_overlap_saves_when_arithmetic_dominates(self):
        """On the catalog's memory kernels the load pipes dominate the
        in-core time, so overlap degenerates to the additive sum.  A
        compute-heavy loop that still streams from memory shows the
        strict saving: arithmetic hides behind the transfers."""
        from repro.compilers.codegen import compile_loop
        from repro.compilers.ir import (
            ArrayInfo, Call, Const, Load, Loop, LoopIdx, Store,
        )
        from repro.compilers.toolchains import get_toolchain
        from repro.ecm.model import predict_compiled
        from repro.machine.microarch import SKYLAKE_6140
        from repro.machine.systems import get_system

        mib = 64 * 1024 * 1024.0
        loop = Loop(
            name="powstream",
            length=1 << 22,
            body=(Store("y", Call("pow", (Load("x", index=LoopIdx()),
                                          Const(2.0))),
                        index=LoopIdx()),),
            arrays={"x": ArrayInfo("x", footprint=mib, pattern="contig"),
                    "y": ArrayInfo("y", footprint=mib, pattern="contig")},
        )
        compiled = compile_loop(loop, get_toolchain("intel"), SKYLAKE_6140)
        pred = predict_compiled(compiled, get_system("skylake"))
        assert pred.mem_overlap
        assert pred.t_data_cycles > 0
        assert pred.cycles_per_iter < (
            pred.t_comp_cycles + pred.t_data_cycles)

    def test_l1_resident_kernel_has_no_data_term(self):
        pred = predict_kernel("simple", "fujitsu")
        assert pred.t_data_cycles == 0.0
        assert pred.cycles_per_iter == pytest.approx(pred.t_comp_cycles)

    def test_memory_bound_kernel_reports_the_hot_stream(self):
        pred = predict_kernel("spmv_crs", "fujitsu")
        assert pred.bound.startswith("data:")

    def test_seconds_scale_with_problem_size(self):
        small = predict_kernel("stencil2d", "fujitsu", n=1 << 16)
        large = predict_kernel("stencil2d", "fujitsu", n=1 << 22)
        assert large.seconds > small.seconds

    def test_prediction_is_deterministic(self):
        a = predict_kernel("spmv_sell", "gnu")
        b = predict_kernel("spmv_sell", "gnu")
        assert a.cycles_per_iter == b.cycles_per_iter
        assert a.seconds == b.seconds


class TestJsonDocument:
    def test_schema_and_required_keys(self):
        doc = prediction_to_json(predict_kernel("spmv_crs", "fujitsu"))
        assert doc["schema"] == "repro.ecm/1"
        for key in ("kernel", "toolchain", "system", "composition",
                    "incore", "streams", "t_comp_cycles", "t_data_cycles",
                    "cycles_per_iter", "cycles_per_element", "seconds",
                    "bound"):
            assert key in doc
        assert doc["incore"]["t_comp"] >= doc["incore"]["t_ol"]
        assert doc["microseconds"] == pytest.approx(doc["seconds"] * 1e6)

    def test_document_is_json_serializable(self):
        import json

        for kernel in ("simple", "stencil3d"):
            doc = prediction_to_json(predict_kernel(kernel, "intel"))
            assert json.loads(json.dumps(doc)) == doc


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["ecm", "simple"],
        ["ecm", "spmv_sell", "fujitsu", "--json"],
        ["ecm", "stencil3d", "intel", "--compare"],
        ["ecm", "spmv_crs", "--system", "ookami", "--n", "4096"],
        ["profile", "spmv_crs", "fujitsu"],
        ["asm", "stencil2d", "gnu"],
        ["pipeline", "spmv_sell", "fujitsu"],
        ["sweep", "--tier", "ecm", "--kernels", "spmv_crs,stencil3d"],
    ])
    def test_parse_command_accepts(self, argv):
        from repro.__main__ import parse_command

        assert parse_command(argv) == argv[0]

    @pytest.mark.parametrize("argv", [
        ["ecm"],
        ["ecm", "nope"],
        ["ecm", "simple", "nope"],
        ["ecm", "simple", "--n"],
        ["ecm", "simple", "--frobnicate"],
        ["sweep", "--tier", "nope"],
        ["profile", "simple", "--compare"],
    ])
    def test_parse_command_rejects(self, argv):
        from repro.__main__ import parse_command

        with pytest.raises(ValueError):
            parse_command(argv)

    def test_ecm_command_renders_a_breakdown(self, capsys):
        from repro.__main__ import main

        assert main(["ecm", "spmv_sell"]) == 0
        out = capsys.readouterr().out
        assert "T_comp" in out and "sum(T_data)" in out
        assert "non-overlapping" in out

    def test_ecm_compare_exit_code_tracks_tolerance(self, capsys):
        from repro.__main__ import main

        assert main(["ecm", "simple", "fujitsu", "--compare"]) == 0
        assert "deviation" in capsys.readouterr().out

    def test_ecm_json_document(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["ecm", "stencil2d", "--json", "--compare"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.ecm/1"
        assert doc["within_tolerance"] is True
