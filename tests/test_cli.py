import json

import numpy as np
import pytest
from click.testing import CliRunner

from witl.cli import main

C_DSBS_01 = 0.74208585854971740
HALF_LOG2_3 = 0.79248125036057809


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def dsbs_file(tmp_path):
    path = tmp_path / "dsbs.json"
    path.write_text(json.dumps({"alphabet_sizes": [2, 2], "pmf": [0.41, 0.09, 0.09, 0.41]}))
    return str(path)


def run_json(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestHeadersAndFormatting:
    def test_json_header_fields(self, runner):
        doc = run_json(runner, ["dsbs", "ci", "--a1", "0.1"])
        assert doc["tool"] == "witl"
        assert "version" in doc
        assert doc["config"]["subcommand"] == "dsbs ci"

    def test_csv_header_and_columns(self, runner):
        result = runner.invoke(main, ["dsbs", "grid", "--a1", "0.1", "--grid", "3"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("# tool=witl version=")
        assert lines[1] == "D1,D2,region,R_joint,C3_low,C3_high"
        assert len(lines) == 2 + 9

    def test_twelve_significant_digits(self, runner):
        doc = run_json(runner, ["gauss", "ci", "--rho", "0.5"])
        val = doc["result"]["common_information_bits"]
        assert val == pytest.approx(HALF_LOG2_3, abs=1e-11)
        assert val != HALF_LOG2_3  # rounded for diff stability


class TestClosedFormCommands:
    def test_gauss_c3_value(self, runner):
        doc = run_json(runner, ["gauss", "c3", "--rho", "0.5", "--D", "0.25,0.25"])
        assert doc["result"]["region"] == "D10"
        assert doc["result"]["value"] == pytest.approx(HALF_LOG2_3, abs=1e-11)

    def test_dsbs_c3_bracket_region(self, runner):
        doc = run_json(runner, ["dsbs", "c3", "--a1", "0.1", "--D", "0.12,0.06"])
        assert doc["result"]["region"] == "E11"
        assert "value" not in doc["result"]
        assert doc["result"]["value_lower_bits"] < doc["result"]["value_upper_bits"]

    def test_dsbs_requires_one_parameter_form(self, runner):
        result = runner.invoke(main, ["dsbs", "ci", "--a1", "0.1", "--a0", "0.18"])
        assert result.exit_code == 2

    def test_negative_rho_note(self, runner):
        doc = run_json(runner, ["gauss", "ci", "--rho", "-0.5"])
        assert "note" in doc["result"]
        assert doc["result"]["common_information_bits"] == pytest.approx(
            HALF_LOG2_3, abs=1e-11
        )


class TestSolverCommands:
    def test_ci_and_round_trip_through_synth(self, runner, dsbs_file, tmp_path):
        out = str(tmp_path / "ci.json")
        result = runner.invoke(
            main, ["ci", "--source", dsbs_file, "--card", "2", "-o", out]
        )
        assert result.exit_code == 0
        doc = json.load(open(out))
        assert doc["result"]["achieved_I_bits"] == pytest.approx(C_DSBS_01, abs=1e-3)

        synth = runner.invoke(
            main,
            ["synth", "--source", dsbs_file, "--solution", out, "--R0", "0.94",
             "--n", "2..3", "--seeds", "2"],
        )
        assert synth.exit_code == 0
        lines = synth.output.strip().splitlines()
        assert lines[1] == "n,M,seed,delta"
        assert len(lines) == 2 + 4

    def test_rd_pair_query(self, runner, dsbs_file):
        doc = run_json(runner, ["rd", "--source", dsbs_file, "--D", "0.05,0.05"])
        assert doc["result"]["rate_bits"] == pytest.approx(1.10728313149636758, abs=1e-4)

    def test_member_with_witness(self, runner, dsbs_file, tmp_path):
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps({"R0": 1.0, "privates": [1.0, 1.0]}))
        doc = run_json(
            runner,
            ["member", "--source", dsbs_file, "--rates", str(rates), "--D", "0.05,0.05"],
        )
        assert doc["result"]["member"] is not None

    def test_audit_pass_exit_zero(self, runner):
        result = runner.invoke(main, ["audit", "--suite", "t9", "--family", "dsbs"])
        assert result.exit_code == 0


class TestFailureModes:
    def test_missing_file_exit_two(self, runner):
        result = runner.invoke(main, ["rd", "--source", "nope.json", "--D", "0.1"])
        assert result.exit_code == 2

    def test_malformed_pmf_exit_two(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alphabet_sizes": [2], "pmf": [0.7, 0.7]}))
        result = runner.invoke(main, ["rd", "--source", str(bad), "--D", "0.1"])
        assert result.exit_code == 2

    def test_no_output_written_on_validation_failure(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out.json"
        result = runner.invoke(
            main, ["rd", "--source", str(bad), "--D", "0.1", "-o", str(out)]
        )
        assert result.exit_code == 2
        assert not out.exists()

    def test_budget_exhaustion_exit_three(self, runner, dsbs_file):
        result = runner.invoke(
            main,
            ["synth", "--source", dsbs_file, "--R0", "1.5", "--n", "16", "--seeds", "1"],
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("doc", [{"R0": 1.0}, {"R0": 1.0, "privates": 5}])
    def test_malformed_rates_exit_two(self, runner, dsbs_file, tmp_path, doc):
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["member", "--source", dsbs_file, "--rates", str(rates), "--D", "0.05,0.05"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("doc", [{"result": {"channels": [[[0.5, 0.5]]]}}, [1, 2]])
    def test_malformed_solution_exit_two(self, runner, dsbs_file, tmp_path, doc):
        solution = tmp_path / "ci.json"
        solution.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            ["synth", "--source", dsbs_file, "--solution", str(solution), "--R0", "0.5",
             "--n", "2"],
        )
        assert result.exit_code == 2

    def test_threads_validation(self, runner):
        result = runner.invoke(main, ["--threads", "0", "dsbs", "ci", "--a1", "0.1"])
        assert result.exit_code == 2
