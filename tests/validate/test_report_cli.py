"""Report serialization + the ``repro validate`` CLI contract."""

import json

import pytest

from repro.__main__ import COMMANDS, main, parse_command
from repro.validate.report import (
    VALIDATE_SCHEMA,
    PassResult,
    ValidationError,
    ValidationReport,
    Violation,
)


def _sample_report(ok=True):
    passes = [PassResult(name="ir", checked=3)]
    if not ok:
        passes.append(PassResult(
            name="schedule", checked=2,
            violations=[Violation("sched.cycle.monotone", "loop 'x'",
                                  "cycle went backwards")],
        ))
    return ValidationReport(passes=passes)


class TestReport:
    def test_json_shape(self):
        doc = _sample_report(ok=False).to_json()
        assert doc["schema"] == VALIDATE_SCHEMA == "repro.validate/1"
        assert doc["ok"] is False
        names = [p["name"] for p in doc["passes"]]
        assert names == ["ir", "schedule"]
        v = doc["passes"][1]["violations"][0]
        assert v == {"rule": "sched.cycle.monotone", "where": "loop 'x'",
                     "detail": "cycle went backwards"}

    def test_json_roundtrips(self):
        text = json.dumps(_sample_report(ok=False).to_json())
        assert json.loads(text)["passes"][1]["ok"] is False

    def test_render_verdict(self):
        assert _sample_report(ok=True).render().endswith("PASS")
        assert _sample_report(ok=False).render().endswith("FAIL")

    def test_pass_named(self):
        report = _sample_report(ok=False)
        assert report.pass_named("schedule").checked == 2
        with pytest.raises(KeyError):
            report.pass_named("bands")

    def test_validation_error_carries_violations(self):
        v = Violation("ir.call.arity", "loop 'p'", "pow takes 2 args")
        err = ValidationError([v])
        assert err.violations == (v,)
        assert "ir.call.arity" in str(err)
        assert "loop 'p'" in str(err)


class TestParseCommand:
    def test_every_registered_command_is_dispatchable(self):
        # the registry and main()'s dispatch must not drift apart
        assert set(COMMANDS) == {
            "list", "run", "asm", "pipeline", "profile", "ecm", "verify",
            "cache", "validate", "serve", "sweep", "machines",
        }

    @pytest.mark.parametrize("argv", [
        ["list"],
        ["run", "fig1", "table3"],
        ["run", "all"],
        ["asm", "simple", "fujitsu"],
        ["pipeline", "exp", "gnu"],
        ["profile", "gather", "--system", "ookami", "--n", "100000"],
        ["profile", "exp", "cray", "--json"],
        ["verify"],
        ["sweep", "--grid", "--machines", "8", "--json"],
        ["cache", "show"],
        ["cache"],
        ["validate", "--seeds", "25", "--json"],
        ["validate", "--no-bands", "--out", "report.json"],
        ["cache", "show", "--json"],
        ["serve", "--stdin"],
        ["serve", "--port", "7080", "--batch-window", "2", "--max-batch",
         "64"],
        ["machines", "report", "--out", "machines.json"],
    ])
    def test_valid_invocations(self, argv):
        assert parse_command(argv) == argv[0]

    def test_help_is_none(self):
        assert parse_command([]) is None
        assert parse_command(["--help"]) is None

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["asm", "simple"],
        ["asm", "nosuchloop", "fujitsu"],
        ["pipeline", "simple", "nosuchtc"],
        ["run", "fig99"],
        ["profile"],
        ["profile", "simple", "--n", "many"],
        ["verify", "extra"],
        ["cache", "explode"],
        ["validate", "--seeds", "many"],
        ["validate", "--frobnicate"],
        ["cache", "clear", "--json"],
        ["serve", "--port", "many"],
        ["serve", "--batch-window", "-1"],
        ["serve", "--workers", "2"],  # retired: serve runs in one process
        ["serve", "--frobnicate"],
        ["bench", "--quick"],  # retired: the benchmark is benchmarks/e2e
    ])
    def test_invalid_invocations(self, argv):
        with pytest.raises(ValueError):
            parse_command(argv)


class TestValidateCli:
    def test_json_report_written_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        # quick configuration: skip bands, minimal fuzz
        code = main(["validate", "--seeds", "2", "--no-bands",
                     "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "PASS" in printed
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.validate/1"
        assert doc["ok"] is True
        assert [p["name"] for p in doc["passes"]] == [
            "ir", "schedule", "counters", "fuzz", "ecm", "machine-fuzz"]
        assert all(p["ok"] for p in doc["passes"])

    def test_bad_flag_exits_nonzero(self, capsys):
        assert main(["validate", "--seeds", "NaNple"]) == 1
        assert "usage" in capsys.readouterr().out
