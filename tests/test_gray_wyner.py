import itertools
import json
import logging

import numpy as np
import pytest
from click.testing import CliRunner

import witl.rd as rd
from witl.audit import random_source
from witl.cli import main
from witl.closed_form import DsbsParams, RegionLabel, dsbs_c3, dsbs_region
from witl import gray_wyner
from witl.common_info import CommonInfoInfeasible, SolveBudget, bsc_broadcast_source
from witl.gray_wyner import (
    RatePoint,
    c3_tilde,
    c_star,
    check_membership,
    witness_common_rate,
    witness_conditional_rate,
)
from witl.prob import JointPmf, ProbabilityError, binary_entropy, entropy
from witl.rd import DistortionSpec, coordinate_rd_values

C_DSBS_01 = 0.74208585854971740


def dsbs(a1=0.1):
    p11 = (1 - a1) ** 2 * 0.5 + a1**2 * 0.5
    p10 = a1 * (1 - a1)
    return JointPmf((2, 2), np.array([[p11, p10], [p10, p11]]))


def hamming22():
    return DistortionSpec.hamming((2, 2))


class TestRatePoint:
    def test_rejects_negative(self):
        with pytest.raises(ProbabilityError):
            RatePoint(-0.1, (0.1, 0.1))
        with pytest.raises(ProbabilityError):
            RatePoint(0.1, (-0.1, 0.1))

    @pytest.mark.parametrize("rates", [(np.nan, (0.1, 0.1)), (0.1, (0.1, np.nan)), (np.inf, (0.1, 0.1))])
    def test_rejects_non_finite(self, rates):
        # a NaN rate never compares below what a witness needs
        with pytest.raises(ProbabilityError, match="finite"):
            RatePoint(*rates)


class TestMembership:
    def test_generous_rates_are_members(self):
        w = check_membership(dsbs(), RatePoint(1.0, (1.0, 1.0)), (0.05, 0.05), hamming22())
        assert w is not None
        assert w.common_rate_needed <= 1.0 + 1e-9
        assert all(r <= 1.0 + 1e-9 for r in w.private_rates_needed)

    def test_witness_numbers_recomputable(self):
        w = check_membership(dsbs(), RatePoint(1.0, (1.0, 1.0)), (0.05, 0.05), hamming22())
        assert witness_common_rate(w.joint) == pytest.approx(
            w.common_rate_needed, abs=1e-12
        )
        r1 = witness_conditional_rate(w.joint, 1, hamming22(), 0.05)
        assert r1 == pytest.approx(w.private_rates_needed[0], abs=1e-12)

    def test_starved_rates_find_no_witness(self):
        w = check_membership(dsbs(), RatePoint(0.0, (0.01, 0.01)), (0.01, 0.01), hamming22())
        assert w is None

    def test_dimension_mismatch(self):
        with pytest.raises(ProbabilityError):
            check_membership(dsbs(), RatePoint(1.0, (1.0,)), (0.05, 0.05), hamming22())

    def test_constant_w_witness_needs_no_descent_or_joint_solve(self, monkeypatch):
        def unreached(*args, **kwargs):
            raise RuntimeError("a later candidate was built")

        monkeypatch.setattr(gray_wyner, "solve_common_info", unreached)
        monkeypatch.setattr(gray_wyner, "_penalized_descent", unreached)
        monkeypatch.setattr(gray_wyner, "ba_joint_rd", unreached)
        w = check_membership(random_source(0, (3, 3)), RatePoint(5.0, (5.0, 5.0)), (0.05, 0.05))
        assert w is not None and w.joint.alphabet_sizes == (1, 3, 3)
        assert w.common_rate_needed == pytest.approx(0.0, abs=1e-12)


class TestCommonRateSolvers:
    def test_tilde_fine_distortion_matches_closed_form(self):
        est = c3_tilde(dsbs(), hamming22(), (0.05, 0.05), SolveBudget())
        lo, hi = dsbs_c3(DsbsParams.from_a1(0.1), 0.05, 0.05)
        assert est.value_upper == pytest.approx(hi, abs=2e-2)
        assert est.constraint_residual <= 1e-3
        assert est.witness is not None

    def test_tilde_coarse_distortion_matches_closed_form(self):
        est = c3_tilde(dsbs(), hamming22(), (0.3, 0.3), SolveBudget())
        lo, hi = dsbs_c3(DsbsParams.from_a1(0.1), 0.3, 0.3)
        assert est.value_upper == pytest.approx(hi, abs=2e-2)

    def test_star_agrees_with_tilde(self):
        tilde = c3_tilde(dsbs(), hamming22(), (0.05, 0.05), SolveBudget())
        star = c_star(dsbs(), hamming22(), (0.05, 0.05), SolveBudget())
        assert star.value_upper == pytest.approx(tilde.value_upper, abs=2e-2)

    def test_bracket_ordering(self):
        est = c3_tilde(dsbs(), hamming22(), (0.05, 0.05), SolveBudget())
        assert est.value_lower <= est.value_upper + 1e-12
        assert est.value_upper <= est.joint_rate + 1e-6

    def test_witness_reproduces_value(self):
        est = c3_tilde(dsbs(), hamming22(), (0.05, 0.05), SolveBudget())
        assert witness_common_rate(est.witness) == pytest.approx(
            est.value_upper, abs=1e-9
        )

    def test_json_payload(self):
        est = c3_tilde(dsbs(), hamming22(), (0.05, 0.05), SolveBudget())
        obj = est.to_json_obj()
        assert obj["witness_present"]
        assert obj["value_upper_bits"] == pytest.approx(est.value_upper, abs=1e-15)



class TestNReceivers:
    """The N-receiver network on bsc_broadcast_source(1/2, a1, N) with every
    D_i = 0.05 <= a1: R(D) = H(X) - N h(0.05), and W = S attains
    C = H(X) - N h(a1) with an exact Theorem-3 sum."""

    @staticmethod
    def setting(a1, N):
        p = bsc_broadcast_source(0.5, a1, N)
        return p, DistortionSpec.hamming((2,) * N), entropy(p) - N * binary_entropy(a1)

    @pytest.mark.parametrize("solve", [c3_tilde, c_star], ids=["c3_tilde", "c_star"])
    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("a1", [0.1, 0.2])
    def test_common_rate_attains_common_information(self, solve, N, a1):
        p, d, C = self.setting(a1, N)
        est = solve(p, d, (0.05,) * N, SolveBudget(restarts=2))
        assert est.joint_rate == pytest.approx(entropy(p) - N * binary_entropy(0.05), abs=1e-6)
        assert est.witness is not None and est.witness.alphabet_sizes[1:] == (2,) * N
        assert est.value_upper == pytest.approx(C, abs=1e-4)
        assert est.value_lower <= C

    @pytest.mark.parametrize("a1", [0.1, 0.2])
    def test_membership_at_three_receivers(self, a1):
        p, d, C = self.setting(a1, 3)
        private, budget = binary_entropy(a1) - binary_entropy(0.05), SolveBudget(restarts=2)
        assert check_membership(p, RatePoint(C + 0.02, (private + 0.02,) * 3), (0.05,) * 3, d, budget)
        assert check_membership(p, RatePoint(C, (private - 0.05,) * 3), (0.05,) * 3, d, budget) is None

    def test_one_coordinate_source_rejected(self):
        p, d = JointPmf((2,), np.array([0.3, 0.7])), DistortionSpec.hamming((2,))
        with pytest.raises(ProbabilityError):
            check_membership(p, RatePoint(5.0, (5.0,)), (0.1,), d)
        with pytest.raises(ProbabilityError):
            c3_tilde(p, d, (0.1,))

    def test_witl_c3_takes_one_distortion_per_receiver(self, tmp_path):
        p, _, C = self.setting(0.1, 3)
        path = tmp_path / "broadcast.json"
        path.write_text(json.dumps({"alphabet_sizes": [2, 2, 2], "pmf": p.mass.reshape(-1).tolist()}))
        args = ["c3", "--source", str(path), "--method", "both", "--restarts", "2", "--D"]
        result = CliRunner().invoke(main, [*args, "0.05,0.05,0.05"])
        assert result.exit_code == 0, result.output
        for method in ("tilde", "star"):
            assert json.loads(result.output)["result"][method]["value_upper_bits"] == pytest.approx(C, abs=1e-4)
        assert CliRunner().invoke(main, [*args, "0.05,0.05"]).exit_code == 2


class TestBudgetMonotone:
    """Every searched W is scored, and the restarts of a smaller budget are a
    prefix of a larger budget's, so more restarts never answer worse."""

    # c_star rose with the budget on seeds 1, 3, 5 and 11 when it scored one
    # picked restart; c3_tilde's answer drops with the budget on seeds 2 and 4
    @pytest.mark.parametrize("solve, seed", [(c_star, 1), (c_star, 3), (c_star, 5), (c_star, 11),
                                             (c3_tilde, 2), (c3_tilde, 4)])
    def test_value_upper_nonincreasing_in_restarts(self, solve, seed):
        p, d = random_source(seed, (3, 3)), DistortionSpec.hamming((3, 3))
        values = [solve(p, d, (0.05, 0.05), SolveBudget(restarts=r)).value_upper for r in (2, 4, 8)]
        assert values[1] <= values[0] + 1e-9
        assert values[2] <= values[1] + 1e-9


class TestOneJointSolvePerCall:
    @pytest.mark.parametrize(
        "solve",
        [
            lambda p, d, b: c3_tilde(p, d, (0.05, 0.05), b),
            lambda p, d, b: c_star(p, d, (0.05, 0.05), b),
            lambda p, d, b: check_membership(p, RatePoint(0.0, (0.01, 0.01)), (0.05, 0.05), d, b),
        ],
        ids=["c3_tilde", "c_star", "check_membership"],
    )
    def test_one_ba_joint_rd_call(self, monkeypatch, solve):
        calls = []
        real = gray_wyner.ba_joint_rd

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gray_wyner, "ba_joint_rd", counted)
        solve(dsbs(), hamming22(), SolveBudget(restarts=1))
        assert len(calls) == 1


class TestConverseLowerSide:
    """value_lower = R_{X1|W=const}(D1) + R_{X2|W=const}(D2) - I(X; X̂), the
    Gray-Wyner converse read off the scores of the first and last candidates."""

    @pytest.mark.parametrize("solve", [c3_tilde, c_star], ids=["c3_tilde", "c_star"])
    def test_no_marginal_query_and_two_conditional_per_candidate(self, monkeypatch, solve):
        # each lockstep search holds both conditional queries of every candidate it
        # scores, and the first search scores the constant W
        counts = {"marginal": 0, "conditional": 0}
        searches, batches = [], []

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        def lockstep(queries):
            searches.append(len(queries))
            return rd._lockstep(queries)

        monkeypatch.setattr(rd, "ba_rate_distortion", counted("marginal", rd.ba_rate_distortion))
        monkeypatch.setattr(rd, "ba_conditional_rd", counted("conditional", rd.ba_conditional_rd))
        monkeypatch.setattr(gray_wyner, "_lockstep", lockstep)
        real = gray_wyner._private_rates

        def scored(joints, d, D):
            batches.append(list(joints))
            return real(joints, d, D)

        monkeypatch.setattr(gray_wyner, "_private_rates", scored)
        solve(dsbs(), hamming22(), (0.05, 0.05), SolveBudget(restarts=1))
        assert counts["marginal"] == 0 and counts["conditional"] == 0
        assert searches == [2 * len(joints) for joints in batches]
        assert batches[0][0].alphabet_sizes[0] == 1

    @pytest.mark.parametrize("a1", [0.1, 0.3])
    def test_below_dsbs_closed_form(self, a1):
        par = DsbsParams.from_a1(a1)
        axis = np.linspace(0.02, 0.45, 6)
        for D in itertools.product(axis, axis):
            if dsbs_region(par, *D) is RegionLabel.ZERO:
                continue
            for solve in (c3_tilde, c_star):
                est = solve(dsbs(a1), hamming22(), D, SolveBudget(restarts=1))
                assert est.value_lower <= dsbs_c3(par, *D)[1]
                assert est.value_lower <= est.value_upper

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lifts_lower_side_on_3x3(self, seed):
        # the premise of I(X1; X2) fails here, and the lower side read 0
        p, d = random_source(seed, (3, 3)), DistortionSpec.hamming((3, 3))
        tilde = c3_tilde(p, d, (0.05, 0.05), SolveBudget(restarts=1))
        star = c_star(p, d, (0.05, 0.05), SolveBudget(restarts=1))
        assert tilde.value_lower > 0.1
        assert tilde.value_lower <= star.value_upper

    @pytest.mark.parametrize("coord, D", [(1, 0.05), (2, 0.3)])
    def test_constant_w_scores_marginal_rates(self, coord, D):
        p, d = random_source(2, (2, 3)), DistortionSpec.hamming((2, 3))
        rate = witness_conditional_rate(gray_wyner._constant_w(p), coord, d, D)
        assert rate == pytest.approx(coordinate_rd_values(p, d, [(coord - 1, None, D)])[0].rate, abs=1e-12)


def lazy_scoring_cases():
    """(source, distortion, D): the DSBS a1 = 0.1 inside E10 (D_i <= a1) and its
    E11 points at a1 = 0.1 and 0.2, the 3-receiver broadcast source, and four
    Dirichlet 3x3 sources."""
    for a1, D in [(0.1, (0.05, 0.05)), (0.1, (0.08, 0.03)), (0.1, (0.12, 0.05)), (0.1, (0.14, 0.02)),
                  (0.2, (0.22, 0.15)), (0.2, (0.24, 0.12))]:
        yield pytest.param(dsbs(a1), hamming22(), D, id=f"dsbs-{a1}-{D[0]}-{D[1]}")
    broadcast = bsc_broadcast_source(0.5, 0.1, 3)
    yield pytest.param(broadcast, DistortionSpec.hamming((2, 2, 2)), (0.05,) * 3, id="broadcast-3")
    for seed in range(4):
        p = random_source(seed, (3, 3))
        yield pytest.param(p, DistortionSpec.hamming((3, 3)), (0.05, 0.05), id=f"3x3-{seed}")


class TestLazyScoring:
    """Candidates scored in ascending I(X; W), in doubling batches up to the first
    that meets RESIDUAL_TOL, give the picks of scoring every candidate at once."""

    @pytest.mark.parametrize("solve", [c3_tilde, c_star], ids=["c3_tilde", "c_star"])
    @pytest.mark.parametrize("p, d, D", lazy_scoring_cases())
    def test_lazy_pick_equals_scoring_every_candidate(self, monkeypatch, solve, p, d, D):
        seen = []
        real = gray_wyner._c3_from_candidates

        def both(d, D, rp, candidates):
            seen.append((real(d, D, rp, candidates), rp, candidates))
            return seen[-1][0]

        monkeypatch.setattr(gray_wyner, "_c3_from_candidates", both)
        solve(p, d, D, SolveBudget(restarts=2))
        ((est, rp, candidates),) = seen
        # the reference: every candidate's conditional rates in one lockstep search
        common = [witness_common_rate(joint) for joint in candidates]
        privates = gray_wyner._private_rates(candidates, d, D)
        residual = [abs(sum((c, *r)) - rp.rate) for c, r in zip(common, privates)]
        lower = max(0.0, (sum(privates[0]) - common[-1]) / (len(D) - 1))

        def pick(tol):
            return min((i for i, r in enumerate(residual) if r <= tol), key=common.__getitem__, default=None)

        best, loose = pick(gray_wyner.RESIDUAL_TOL), pick(gray_wyner.RESIDUAL_TOL_LOOSE)
        assert est.value_lower == pytest.approx(lower, rel=0, abs=1e-9)
        if best is None:
            assert est.witness is None and est.value_upper == max(rp.rate, est.value_lower)
        else:
            assert est.witness is candidates[best]
            assert est.value_upper == max(common[best], est.value_lower)
            assert est.constraint_residual == pytest.approx(residual[best], rel=0, abs=1e-9)
        assert est.value_upper_loose == (rp.rate if loose is None else max(common[loose], est.value_lower))


class TestDroppedCandidatesAreLogged:
    """Each W that gray_wyner drops without scoring leaves one debug record
    on the ``witl`` logger."""

    def test_witl_logger_has_a_null_handler(self):
        assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("witl").handlers)

    @pytest.mark.parametrize("error", [rd.InfeasibleDistortion, rd.SweepResolutionError])
    def test_reproduction_pair_without_a_joint_point(self, monkeypatch, caplog, error):
        def unreachable(*args):
            raise error("no point at this distortion")

        monkeypatch.setattr(gray_wyner, "ba_joint_rd", unreachable)
        caplog.set_level(logging.DEBUG, logger="witl")
        # no candidate meets these rates, so every candidate is reached
        assert check_membership(dsbs(), RatePoint(0.0, (0.0, 0.0)), (0.05, 0.05), hamming22(),
                                SolveBudget(restarts=1)) is None
        records = [r for r in caplog.records if r.name == "witl.gray_wyner"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert error.__name__ in records[0].getMessage()

    def test_exhaustive_split_that_finds_no_point(self, monkeypatch, caplog):
        def infeasible(*args, **kwargs):
            raise CommonInfoInfeasible("no feasible point on the exhaustive grid")

        monkeypatch.setattr(gray_wyner, "solve_common_info", infeasible)
        caplog.set_level(logging.DEBUG, logger="witl")
        p = dsbs()
        assert list(gray_wyner._searched_on_source(p, SolveBudget(restarts=1))) == []
        records = [r for r in caplog.records if r.name == "witl.gray_wyner"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert "no feasible point" in records[0].getMessage()

    def test_no_record_when_every_candidate_is_scored(self, caplog):
        caplog.set_level(logging.DEBUG, logger="witl")
        c_star(dsbs(), hamming22(), (0.05, 0.05), SolveBudget(restarts=1))
        assert not [r for r in caplog.records if r.name.startswith("witl")]
