import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import witl
from witl import closed_form as cf
from witl.cli import _round12, main
from witl.common_info import SolveBudget, bsc_broadcast_source
from witl.gray_wyner import c3_tilde, c_star
from witl.prob import JointPmf, binary_entropy, entropy
from witl.rd import DistortionSpec

C_DSBS_01 = 0.74208585854971740
HALF_LOG2_3 = 0.79248125036057809
REFLECTED_NOTE = "negative rho mapped to |rho| (one coordinate reflected)"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def bit_file(tmp_path):
    path = tmp_path / "bit.json"
    path.write_text(json.dumps({"alphabet_sizes": [2], "pmf": [0.5, 0.5]}))
    return str(path)


def dist_file(tmp_path, matrix):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"matrices": [matrix]}))
    return str(path)


@pytest.fixture
def dsbs_file(tmp_path):
    path = tmp_path / "dsbs.json"
    path.write_text(json.dumps({"alphabet_sizes": [2, 2], "pmf": [0.41, 0.09, 0.09, 0.41]}))
    return str(path)


def run_json(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def round12(value):
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _commands(command, path=("witl",)):
    yield " ".join(path), command
    for name, sub in getattr(command, "commands", {}).items():
        yield from _commands(sub, path + (name,))


_IMPORT_CHECK = """
import sys
import witl, witl.cli
from witl.audit import random_source
from witl.common_info import CommonInfoInfeasible, SolveBudget, solve_common_info
try:
    solve_common_info(random_source(1, (3, 3)), K=3, budget=SolveBudget(restarts=1))
except CommonInfoInfeasible:
    pass  # the descent ran; only what it imported is checked here
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_no_scipy_after_a_descent():
    # in a fresh interpreter: this test process has imported SciPy already
    src = str(Path(witl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHECK], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_command_has_short_help():
    missing = [path for path, command in _commands(main) if not command.get_short_help_str()]
    assert missing == []


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


_P = cf.DsbsParams.from_a1(0.1)
_P018 = cf.DsbsParams(0.18)
_G = cf.GaussParams(0.5)
_GN = cf.GaussParams(-0.5)
_DSBS_ALLOC = cf.dsbs_allocation(_P, 0.08, 0.09, 0.05, 0.05)
_GAUSS_ALLOC = cf.gauss_allocation(_G, 0.4, 0.45, 0.2, 0.3)

# (argv, config, result) for the closed-form subcommands no other test runs
CLOSED_FORM_CASES = [
    (["dsbs", "rd", "--a1", "0.1", "--D", "0.12,0.06"],
     {"subcommand": "dsbs rd", "a0": _P.a0, "D": [0.12, 0.06]},
     {"region": cf.dsbs_region(_P, 0.12, 0.06).value,
      "joint_rate_bits": cf.dsbs_joint_rd(_P, 0.12, 0.06)}),
    (["dsbs", "rd", "--a0", "0.18", "--D", "0.3,0.2"],
     {"subcommand": "dsbs rd", "a0": 0.18, "D": [0.3, 0.2]},
     {"region": cf.dsbs_region(_P018, 0.3, 0.2).value,
      "joint_rate_bits": cf.dsbs_joint_rd(_P018, 0.3, 0.2)}),
    (["dsbs", "ci", "--a0", "0.18"],
     {"subcommand": "dsbs ci", "a0": 0.18},
     {"common_information_bits": cf.dsbs_common_info(_P018), "a1": _P018.a1}),
    (["dsbs", "alloc", "--a1", "0.1", "--Dp", "0.08,0.09", "--D", "0.05,0.05"],
     {"subcommand": "dsbs alloc", "a0": _P.a0, "Dp": [0.08, 0.09], "D": [0.05, 0.05]},
     {"R0_bits": _DSBS_ALLOC[0], "R1_bits": _DSBS_ALLOC[1], "R2_bits": _DSBS_ALLOC[2],
      "sum_bits": sum(_DSBS_ALLOC)}),
    (["gauss", "rd", "--rho", "0.5", "--D", "0.25,0.4"],
     {"subcommand": "gauss rd", "rho": 0.5, "D": [0.25, 0.4]},
     {"region": cf.gauss_region(_G, 0.25, 0.4).value,
      "joint_rate_bits": cf.gauss_joint_rd(_G, 0.25, 0.4)}),
    (["gauss", "rd", "--rho", "0.5", "--D", "0,0.5"],
     {"subcommand": "gauss rd", "rho": 0.5, "D": [0.0, 0.5]},
     {"region": cf.gauss_region(_G, 0.0, 0.5).value, "joint_rate_bits": "infinite"}),
    (["gauss", "alloc", "--rho", "0.5", "--Dp", "0.4,0.45", "--D", "0.2,0.3"],
     {"subcommand": "gauss alloc", "rho": 0.5, "Dp": [0.4, 0.45], "D": [0.2, 0.3]},
     {"R0_bits": _GAUSS_ALLOC[0], "R1_bits": _GAUSS_ALLOC[1], "R2_bits": _GAUSS_ALLOC[2],
      "sum_bits": sum(_GAUSS_ALLOC)}),
    (["gauss", "ci", "--rho", "-0.5", "--n", "3"],
     {"subcommand": "gauss ci", "rho": 0.5, "n": 3},
     {"common_information_bits": cf.gauss_common_info_N(_GN, 3), "n_variables": 3,
      "note": REFLECTED_NOTE}),
]


@pytest.mark.parametrize("argv,config,result", CLOSED_FORM_CASES,
                         ids=[" ".join(c[0][:3]) for c in CLOSED_FORM_CASES])
def test_closed_form_subcommand_matrix(runner, argv, config, result):
    doc = run_json(runner, argv)
    assert doc["config"] == config
    assert doc["result"] == {key: round12(value) for key, value in result.items()}


def test_gauss_grid_rows(runner):
    result = runner.invoke(main, ["gauss", "grid", "--rho", "0.5", "--grid", "3"])
    assert result.exit_code == 0
    header, columns, *rows = result.output.strip().splitlines()
    assert json.loads(header.split("config=", 1)[1]) == {
        "subcommand": "gauss grid", "rho": 0.5, "grid": 3}
    assert columns == "D1,D2,region,R_joint,C3_low,C3_high"
    axis = np.linspace(1e-3, 1.0, 3)
    expected = []
    for d1 in axis:
        for d2 in axis:
            lo, hi = cf.gauss_c3(_G, d1, d2)
            values = (float(d1), float(d2), cf.gauss_region(_G, d1, d2).value,
                      cf.gauss_joint_rd(_G, d1, d2), lo, hi)
            expected.append(",".join(f"{v:.12g}" if isinstance(v, float) else v for v in values))
    assert rows == expected


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

    def test_rd_three_coordinate_query(self, runner, tmp_path):
        # the 3-receiver broadcast source at a1 = 0.1: R(D) = H(X) - 3 h(0.05)
        p = bsc_broadcast_source(0.5, 0.1, 3)
        path = tmp_path / "broadcast.json"
        path.write_text(json.dumps({"alphabet_sizes": [2, 2, 2], "pmf": p.mass.reshape(-1).tolist()}))
        doc = run_json(runner, ["rd", "--source", str(path), "--D", "0.05,0.05,0.05"])
        assert doc["result"]["rate_bits"] == pytest.approx(entropy(p) - 3 * binary_entropy(0.05), abs=1e-6)

    def test_rd_single_coordinate(self, runner, bit_file):
        doc = run_json(runner, ["rd", "--source", bit_file, "--D", "0.1"])
        assert doc["result"]["rate_bits"] == pytest.approx(0.53100440641071878, abs=1e-8)
        assert doc["result"]["distortion"][0] == pytest.approx(0.1, abs=1e-6)

    def test_rd_distortion_from_json_file(self, runner, bit_file, tmp_path):
        # every reproduction costs 0.1 more than under Hamming, so the curve
        # is the Hamming curve shifted right by 0.1
        shifted = dist_file(tmp_path, [[0.1, 1.1], [1.1, 0.1]])
        doc = run_json(runner, ["rd", "--source", bit_file, "--dist", shifted, "--D", "0.2"])
        assert doc["config"]["dist"] == shifted
        assert doc["result"]["rate_bits"] == pytest.approx(0.53100440641071878, abs=1e-8)

    def test_c3_both_methods(self, runner, dsbs_file):
        doc = run_json(
            runner,
            ["c3", "--source", dsbs_file, "--D", "0.05,0.05", "--method", "both",
             "--restarts", "1"],
        )
        p = JointPmf((2, 2), np.array([[0.41, 0.09], [0.09, 0.41]]))
        d, budget = DistortionSpec.hamming((2, 2)), SolveBudget(restarts=1)
        assert doc["result"]["tilde"] == _round12(c3_tilde(p, d, (0.05, 0.05), budget).to_json_obj())
        assert doc["result"]["star"] == _round12(c_star(p, d, (0.05, 0.05), budget).to_json_obj())

    def test_member_with_witness(self, runner, dsbs_file, tmp_path):
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps({"R0": 1.0, "privates": [1.0, 1.0]}))
        doc = run_json(
            runner,
            ["member", "--source", dsbs_file, "--rates", str(rates), "--D", "0.05,0.05"],
        )
        assert doc["result"]["member"] is not None

    def test_member_at_starved_rates_has_no_witness(self, runner, dsbs_file, tmp_path):
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps({"R0": 0.0, "privates": [0.0, 0.0]}))
        doc = run_json(
            runner,
            ["member", "--source", dsbs_file, "--rates", str(rates), "--D", "0.05,0.05"],
        )
        assert doc["result"]["member"] is None

    def test_audit_pass_exit_zero(self, runner):
        result = runner.invoke(main, ["audit", "--suite", "t9", "--family", "dsbs"])
        assert result.exit_code == 0

    @pytest.mark.parametrize("suite", ["lemma1", "t4", "bounds"])
    def test_audit_suite_reports_its_name(self, runner, suite):
        doc = run_json(runner, ["audit", "--suite", suite])
        assert doc["result"]["suite"] == suite
        assert doc["config"]["suite"] == suite


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

    def test_rd_unreachable_distortion_exit_two(self, runner, bit_file, tmp_path):
        shifted = dist_file(tmp_path, [[0.1, 1.1], [1.1, 0.1]])
        result = runner.invoke(main, ["rd", "--source", bit_file, "--dist", shifted, "--D", "0.05"])
        assert result.exit_code == 2

    def test_rd_unresolved_distortion_exit_three(self, runner, bit_file, tmp_path):
        # R = 0.531 at D = 0.001 under 0.01 Hamming, but the slope it needs
        # is beyond SLOPE_CAP
        scaled = dist_file(tmp_path, [[0.0, 0.01], [0.01, 0.0]])
        result = runner.invoke(main, ["rd", "--source", bit_file, "--dist", scaled, "--D", "0.001"])
        assert result.exit_code == 3

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

    def test_synth_rejects_card_with_solution(self, runner, dsbs_file, tmp_path):
        # the solution fixes |W|, so a --card beside it would be ignored
        out = str(tmp_path / "ci.json")
        assert runner.invoke(main, ["ci", "--source", dsbs_file, "--card", "2", "-o", out]).exit_code == 0
        result = runner.invoke(
            main,
            ["synth", "--source", dsbs_file, "--solution", out, "--card", "2", "--R0", "0.94", "--n", "2"],
        )
        assert result.exit_code == 2
        assert "--card" in result.output

    @pytest.mark.parametrize("dvals", ["0.1,0.2", "0.1,0.2,0.3"])
    def test_rd_counts_distortions(self, runner, tmp_path, dvals):
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"alphabet_sizes": [2], "pmf": [0.3, 0.7]}))
        result = runner.invoke(main, ["rd", "--source", str(one), "--D", dvals])
        assert result.exit_code == 2

    @pytest.mark.parametrize("extra", [["--n", "5..2"], ["--n", "2", "--seeds", "0"]])
    def test_synth_rejects_empty_table(self, runner, dsbs_file, tmp_path, extra):
        out = tmp_path / "synth.csv"
        result = runner.invoke(
            main, ["synth", "--source", dsbs_file, "--R0", "0.94", "-o", str(out), *extra]
        )
        assert result.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("family", [["dsbs", "--a1", "0.1"], ["gauss", "--rho", "0.5"]])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_grid_rejects_empty_table(self, runner, tmp_path, family, n):
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, [family[0], "grid", *family[1:], "--grid", n, "-o", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    def test_ci_non_finite_pmf_exit_two(self, runner, tmp_path):
        nan = tmp_path / "nan.json"
        nan.write_text(json.dumps({"alphabet_sizes": [2, 2], "pmf": [float("nan"), 0.5, 0.25, 0.25]}))
        result = runner.invoke(main, ["ci", "--source", str(nan)])
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("dvals", ["nan,0.1", "inf,0.1"])
    def test_rd_non_finite_distortion_exit_two(self, runner, dsbs_file, dvals):
        result = runner.invoke(main, ["rd", "--source", dsbs_file, "--D", dvals])
        assert result.exit_code == 2
        assert "finite" in result.output

    def test_member_non_finite_rates_exit_two(self, runner, dsbs_file, tmp_path):
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps({"R0": float("nan"), "privates": [float("nan")] * 2}))
        result = runner.invoke(
            main, ["member", "--source", dsbs_file, "--rates", str(rates), "--D", "0.05,0.05"]
        )
        assert result.exit_code == 2
        assert "finite" in result.output

    def test_c3_zero_restarts_exit_two(self, runner, dsbs_file):
        result = runner.invoke(
            main, ["c3", "--source", dsbs_file, "--D", "0.05,0.05", "--method", "star",
                   "--restarts", "0"]
        )
        assert result.exit_code == 2
        assert "restarts" in result.output

    def test_synth_zero_seeds_exit_two(self, runner, dsbs_file):
        result = runner.invoke(
            main, ["synth", "--source", dsbs_file, "--R0", "0.94", "--n", "4", "--seeds", "0"]
        )
        assert result.exit_code == 2
        assert "seeds" in result.output
