"""Declarative machine specs (repro.machine.spec).

The tentpole contract: machines are data.  A preset spec serialized to
JSON and loaded back must be the *same* machine — equal spec, the same
cached ``Microarch``/``System`` objects, and (checked against the
frozen seed scheduler) bit-identical schedules across the full Fig. 1/2
catalog x all five toolchains.
"""

import dataclasses
import json

import pytest

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS
from repro.engine._reference import ReferenceScheduler
from repro.engine.scheduler import PipelineScheduler
from repro.kernels.catalog import ALL_KERNEL_NAMES, build_kernel
from repro.machine import spec as mspec
from repro.machine.microarch import (
    A64FX,
    EPYC_7742,
    KNL_7250,
    SKYLAKE_6140,
    SKYLAKE_8160,
    THUNDERX2,
)
from repro.machine.spec import (
    A64FX_SPEC,
    GRID_BASES,
    MACHINE_SPECS,
    RVV_SPEC,
    SKYLAKE_6140_SPEC,
    SPEC_FORMAT,
    MachineSpec,
    get_machine_spec,
    grid_specs,
)
from repro.machine.systems import OOKAMI, SKYLAKE_36C, get_system
from repro.perf.counters import ProfileScope

RTOL = 1e-9

#: distinct preset specs (the registry aliases some keys)
PRESETS = sorted({id(s): k for k, s in MACHINE_SPECS.items()}.values())


class TestRoundTrip:
    @pytest.mark.parametrize("key", PRESETS)
    def test_json_round_trip_is_equal(self, key):
        spec = MACHINE_SPECS[key]
        rebuilt = MachineSpec.from_json(spec.to_json())
        assert rebuilt == spec

    @pytest.mark.parametrize("key", PRESETS)
    def test_round_trip_builds_the_same_core(self, key):
        """Value-equal specs share one cached Microarch — identity
        checks such as ``System.cpu is A64FX`` survive a serialize/load
        hop."""
        spec = MACHINE_SPECS[key]
        rebuilt = MachineSpec.from_json(spec.to_json())
        assert rebuilt.build_core() is spec.build_core()

    def test_round_trip_builds_the_same_system(self):
        rebuilt = MachineSpec.from_json(A64FX_SPEC.to_json())
        assert rebuilt.build_system() is A64FX_SPEC.build_system()

    def test_format_tag(self):
        doc = A64FX_SPEC.to_dict()
        assert doc["format"] == SPEC_FORMAT
        assert json.loads(A64FX_SPEC.to_json())["format"] == SPEC_FORMAT

    def test_rejects_wrong_format(self):
        doc = A64FX_SPEC.to_dict()
        doc["format"] = "repro.machine-spec/99"
        with pytest.raises(ValueError):
            MachineSpec.from_dict(doc)

    def test_timings_are_canonically_ordered(self):
        """Construction order must not leak into equality/caching."""
        spec = A64FX_SPEC
        shuffled = dataclasses.replace(
            spec, timings=tuple(reversed(spec.timings)))
        assert shuffled == spec
        assert shuffled.build_core() is spec.build_core()


class TestPresetIdentity:
    """The in-code constants ARE the spec-built machines."""

    @pytest.mark.parametrize("key,march", [
        ("a64fx", A64FX),
        ("skylake-6140", SKYLAKE_6140),
        ("skylake-8160", SKYLAKE_8160),
        ("knl", KNL_7250),
        ("epyc", EPYC_7742),
        ("thunderx2", THUNDERX2),
    ])
    def test_build_core_is_the_module_constant(self, key, march):
        assert get_machine_spec(key).build_core() is march

    @pytest.mark.parametrize("key,system", [
        ("a64fx", OOKAMI),
        ("skylake-6140", SKYLAKE_36C),
    ])
    def test_build_system_is_the_registry_system(self, key, system):
        assert get_machine_spec(key).build_system() is system

    def test_system_cpu_identity(self):
        assert OOKAMI.cpu is A64FX
        assert get_system("rvv").cpu is RVV_SPEC.build_core()

    def test_a64fx_spec_matches_paper_numbers(self):
        march = A64FX_SPEC.build_core()
        assert march.peak_gflops_core() == pytest.approx(57.6)
        assert march.lanes_f64 == 8
        assert not march.mem_overlap

    def test_get_machine_spec_unknown_key(self):
        with pytest.raises(KeyError, match="available"):
            get_machine_spec("cray-1")


class TestValidation:
    def test_rejects_unknown_isa(self):
        with pytest.raises(ValueError, match="unknown vector ISA"):
            dataclasses.replace(A64FX_SPEC, isa="vmx")

    def test_rejects_unknown_op_name(self):
        with pytest.raises(ValueError):
            mspec.OpTimingSpec(op="fmaddle", latency=1, rtput=1,
                               pipes=("fla",))

    def test_rejects_unknown_pipe_name(self):
        with pytest.raises(ValueError):
            mspec.OpTimingSpec(op="fadd", latency=1, rtput=1,
                               pipes=("fpu9",))

    def test_rejects_incomplete_op_coverage(self):
        with pytest.raises(ValueError, match="missing"):
            dataclasses.replace(A64FX_SPEC, timings=A64FX_SPEC.timings[:5])

    def test_rejects_fexpa_timing_without_fexpa(self):
        with pytest.raises(ValueError, match="fexpa"):
            dataclasses.replace(SKYLAKE_6140_SPEC,
                                timings=A64FX_SPEC.timings)

    def test_rejects_core_topology_mismatch(self):
        with pytest.raises(ValueError):
            dataclasses.replace(A64FX_SPEC, cores=47)

    def test_rejects_bad_vector_bits(self):
        with pytest.raises(ValueError):
            dataclasses.replace(A64FX_SPEC, vector_bits=96)

    def test_core_only_spec_has_no_system(self):
        tx2 = get_machine_spec("thunderx2")
        assert not tx2.has_system
        with pytest.raises(ValueError, match="core-only"):
            tx2.build_system()


#: the golden-equivalence suite: Fig. 1 variants + Fig. 2 math kernels
#: crossed with every toolchain (FEXPA-only recipes skip non-fexpa
#: machines exactly like compile_loop does)
_SUITE = [(k, tc) for k in ALL_KERNEL_NAMES for tc in TOOLCHAINS]


class TestSpecBitExactness:
    """A Microarch built fresh from the spec (bypassing the build
    cache) schedules bit-identically to the seed reference scheduler
    and to the in-code constant, across the full catalog."""

    @pytest.mark.parametrize("key,march", [
        ("a64fx", A64FX), ("skylake-6140", SKYLAKE_6140),
    ])
    def test_fresh_build_equals_constant(self, key, march):
        fresh = mspec._build_core.__wrapped__(get_machine_spec(key))
        assert fresh is not march
        assert fresh == march

    @pytest.mark.parametrize("key,march", [
        ("a64fx", A64FX), ("skylake-6140", SKYLAKE_6140),
    ])
    def test_full_catalog_matches_reference(self, key, march):
        fresh = mspec._build_core.__wrapped__(get_machine_spec(key))
        checked = 0
        for kernel, tc_name in _SUITE:
            tc = TOOLCHAINS[tc_name]
            try:
                compiled = compile_loop(build_kernel(kernel), tc, fresh)
            except ValueError:
                # FEXPA-only recipe on a machine without the unit
                continue
            with ProfileScope("ref") as ref_counters:
                ref = ReferenceScheduler(march).steady_state(
                    compiled.stream)
            with ProfileScope("fast") as fast_counters:
                res = PipelineScheduler(fresh).steady_state(
                    compiled.stream)
            assert res.cycles_per_iter == pytest.approx(
                ref.cycles_per_iter, rel=RTOL), (kernel, tc_name)
            assert res.bound == ref.bound, (kernel, tc_name)
            assert fast_counters.as_dict() == pytest.approx(
                ref_counters.as_dict(), rel=RTOL), (kernel, tc_name)
            checked += 1
        assert checked >= len(ALL_KERNEL_NAMES)


class TestGridEnumeration:
    def test_grid_specs_count_and_validity(self):
        specs = grid_specs(1000)
        assert len(specs) == 1000
        sample = specs[::97]
        for s in sample:
            assert isinstance(s, MachineSpec)
            s.build_core()  # every variant must validate and build

    def test_grid_specs_are_unique(self):
        specs = grid_specs(1000)
        assert len({s.name for s in specs}) == 1000

    def test_grid_specs_deterministic(self):
        assert grid_specs(64) == grid_specs(64)
        assert grid_specs(64) == grid_specs(128)[:64]

    def test_grid_bases_cover_three_isas(self):
        assert {b.isa for b in GRID_BASES} == {"sve", "avx512", "rvv"}

    def test_grid_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            grid_specs(0)
