"""Pass 4 (differential fuzz): 25-seed regression vs the golden model."""

import random

from repro.validate.fuzz import check_seed, random_loop, run_fuzz_pass
from repro.validate.ir import verify_loop


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = random_loop(random.Random(42))
        b = random_loop(random.Random(42))
        assert a == b

    def test_seeds_differ(self):
        loops = {repr(random_loop(random.Random(s))) for s in range(20)}
        assert len(loops) > 10

    def test_generated_loops_are_well_formed(self):
        for seed in range(30):
            loop = random_loop(random.Random(seed))
            assert verify_loop(loop) == [], f"seed {seed}"


class TestDifferentialOracle:
    def test_regression_25_seeds_bit_exact(self):
        """The shipped seed range must stay clean: the engine, its
        full-simulation mode and the frozen reference agree, and
        cache hits replay identical results + counters."""
        result = run_fuzz_pass(seeds=25)
        assert result.checked == 25
        assert result.ok, [str(v) for v in result.violations]

    def test_single_seed_api(self):
        assert check_seed(1) == []
