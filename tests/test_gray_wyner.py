import itertools

import numpy as np
import pytest

import witl.rd as rd
from witl.audit import random_source
from witl.closed_form import DsbsParams, RegionLabel, dsbs_c3, dsbs_region
from witl import gray_wyner
from witl.common_info import SolveBudget
from witl.gray_wyner import (
    RatePoint,
    c3_tilde,
    c_star,
    check_membership,
    witness_common_rate,
    witness_conditional_rate,
)
from witl.prob import JointPmf, ProbabilityError
from witl.rd import DistortionSpec, marginal_rd_value

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

    def test_pairs_only(self):
        p = JointPmf((2, 2, 2), np.full((2, 2, 2), 0.125))
        with pytest.raises(ProbabilityError):
            c3_tilde(p, DistortionSpec.hamming((2, 2, 2)), (0.1, 0.1, 0.1))


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
        # one lockstep search per call holds both conditional queries of every candidate
        counts = {"marginal": 0, "conditional": 0, "candidates": 0}
        searches = []

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        def lockstep(queries):
            searches.append(len(queries))
            return rd._scalar_query(queries)

        monkeypatch.setattr(rd, "ba_rate_distortion", counted("marginal", rd.ba_rate_distortion))
        monkeypatch.setattr(rd, "ba_conditional_rd", counted("conditional", rd.ba_conditional_rd))
        monkeypatch.setattr(gray_wyner, "_scalar_query", lockstep)
        real = gray_wyner._c3_from_candidates

        def scored(d, D, rp, candidates):
            counts["candidates"] += len(candidates)
            return real(d, D, rp, candidates)

        monkeypatch.setattr(gray_wyner, "_c3_from_candidates", scored)
        solve(dsbs(), hamming22(), (0.05, 0.05), SolveBudget(restarts=1))
        assert counts["marginal"] == 0 and counts["conditional"] == 0
        assert counts["candidates"] >= 3
        assert searches == [2 * counts["candidates"]]

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
        assert rate == pytest.approx(marginal_rd_value(p, d, coord - 1, D), abs=1e-12)
