import numpy as np
import pytest

from witl.closed_form import DsbsParams, RegionLabel, dsbs_joint_rd, dsbs_region
from witl.prob import JointPmf, ProbabilityError, binary_entropy, marginalize
from witl.rd import (
    DistortionSpec,
    InfeasibleDistortion,
    ba_conditional_rd,
    ba_joint_rd,
    ba_rate_distortion,
    marginal_rd_value,
    trace_rd_curve,
)

# frozen reference values (30-digit independent computation)
R_BIN_01 = 0.53100440641071878  # 1 - h(0.1) for a uniform bit, Hamming
R_JOINT_005 = 1.10728313149636758
R_JOINT_03 = 0.14694379091007166
H_018 = 0.68007704572827984
H_005 = 0.28639695711595613


def dsbs(a1=0.1):
    p11 = (1 - a1) ** 2 * 0.5 + a1**2 * 0.5
    p10 = a1 * (1 - a1)
    return JointPmf((2, 2), np.array([[p11, p10], [p10, p11]]))


def uniform_bit():
    return JointPmf((2,), np.array([0.5, 0.5]))


class TestDistortionSpec:
    def test_hamming_matrices(self):
        d = DistortionSpec.hamming((2, 3))
        np.testing.assert_allclose(d.matrices[0], 1 - np.eye(2))
        np.testing.assert_allclose(d.matrices[1], 1 - np.eye(3))
        assert d.repro_sizes == (2, 3)

    def test_rejects_negative_entries(self):
        with pytest.raises(ProbabilityError):
            DistortionSpec((np.array([[0.0, -1.0], [1.0, 0.0]]),), (2,))

    def test_json_round_trip(self):
        d = DistortionSpec.hamming((2, 2))
        d2 = DistortionSpec.from_json(d.to_json_obj())
        np.testing.assert_allclose(d2.matrices[0], d.matrices[0])

    def test_audit_mode_check(self):
        assert DistortionSpec.hamming((2, 2)).audit_mode_ok()
        skew = DistortionSpec((np.array([[0.0, 1.0, 2.0]]),), (3,))
        assert not skew.audit_mode_ok()


class TestScalarRd:
    def test_uniform_bit_hamming(self):
        pt = ba_rate_distortion(uniform_bit(), DistortionSpec.hamming((2,)), 0.1)
        assert pt.rate == pytest.approx(R_BIN_01, abs=1e-8)

    def test_zero_distortion_gives_entropy(self):
        pt = ba_rate_distortion(uniform_bit(), DistortionSpec.hamming((2,)), 0.0)
        assert pt.rate == pytest.approx(1.0, abs=1e-8)

    def test_large_distortion_gives_zero(self):
        pt = ba_rate_distortion(uniform_bit(), DistortionSpec.hamming((2,)), 0.5)
        assert pt.rate == 0.0
        assert pt.multipliers == (0.0,)

    def test_negative_distortion_rejected(self):
        with pytest.raises(InfeasibleDistortion):
            ba_rate_distortion(uniform_bit(), DistortionSpec.hamming((2,)), -0.01)

    def test_rate_monotone_in_distortion(self):
        d = DistortionSpec.hamming((3,))
        p = JointPmf((3,), np.array([0.5, 0.3, 0.2]))
        rates = [ba_rate_distortion(p, d, t).rate for t in (0.05, 0.1, 0.2, 0.4)]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_test_channel_meets_distortion(self):
        d = DistortionSpec.hamming((2,))
        pt = ba_rate_distortion(uniform_bit(), d, 0.1)
        assert pt.distortion[0] <= 0.1 + 1e-6


class TestConditionalRd:
    def test_dsbs_conditional_matches_closed_form(self):
        # conditioning on the other coordinate: h(a0) - h(D)
        pt = ba_conditional_rd(dsbs(), DistortionSpec.hamming((2,)), 0.05)
        expect = H_018 - H_005
        assert pt.rate == pytest.approx(expect, abs=1e-7)

    def test_independent_side_information_is_useless(self):
        p = JointPmf((2, 2), np.full((2, 2), 0.25))
        d = DistortionSpec.hamming((2,))
        cond = ba_conditional_rd(p, d, 0.1).rate
        marg = ba_rate_distortion(uniform_bit(), d, 0.1).rate
        assert cond == pytest.approx(marg, abs=1e-7)

    def test_zero_rate_above_breakpoint(self):
        pt = ba_conditional_rd(dsbs(), DistortionSpec.hamming((2,)), 0.49)
        assert pt.rate == pytest.approx(0.0, abs=1e-9)


class TestJointRd:
    def test_dsbs_reference_points(self):
        d = DistortionSpec.hamming((2, 2))
        assert ba_joint_rd(dsbs(), d, (0.05, 0.05)).rate == pytest.approx(
            R_JOINT_005, abs=1e-4
        )
        assert ba_joint_rd(dsbs(), d, (0.3, 0.3)).rate == pytest.approx(
            R_JOINT_03, abs=1e-4
        )

    def test_zero_rate_region(self):
        d = DistortionSpec.hamming((2, 2))
        pt = ba_joint_rd(dsbs(), d, (0.5, 0.5))
        assert pt.rate == 0.0

    def test_dominating_channel(self):
        d = DistortionSpec.hamming((2, 2))
        pt = ba_joint_rd(dsbs(), d, (0.1, 0.2))
        assert pt.distortion[0] <= 0.1 + 1e-6
        assert pt.distortion[1] <= 0.2 + 1e-6
        assert pt.test_channel is not None

    def test_negative_rejected(self):
        with pytest.raises(InfeasibleDistortion):
            ba_joint_rd(dsbs(), DistortionSpec.hamming((2, 2)), (-0.1, 0.1))

    def test_monotone_in_both_coordinates(self):
        d = DistortionSpec.hamming((2, 2))
        r_fine = ba_joint_rd(dsbs(), d, (0.05, 0.05)).rate
        r_mid = ba_joint_rd(dsbs(), d, (0.1, 0.05)).rate
        r_coarse = ba_joint_rd(dsbs(), d, (0.1, 0.1)).rate
        assert r_fine >= r_mid - 1e-7 >= r_coarse - 2e-7


    @pytest.mark.parametrize("a1", [0.1, 0.3])
    def test_rate_never_above_dsbs_closed_form(self, a1):
        # the reported rate is a certified lower bound, so on the acceptance
        # grid it may not exceed the closed form beyond rounding
        p, d, par = dsbs(a1), DistortionSpec.hamming((2, 2)), DsbsParams.from_a1(a1)
        axis = np.linspace(0.02, 0.5, 20)
        excess = [
            ba_joint_rd(p, d, (d1, d2)).rate - dsbs_joint_rd(par, d1, d2)
            for d1 in axis
            for d2 in axis
            if dsbs_region(par, d1, d2) is not RegionLabel.ZERO
        ]
        assert len(excess) >= 300
        assert max(excess) <= 1e-9


class TestTraceAndHelpers:
    def test_trace_scalar_curve_monotone(self):
        pts = trace_rd_curve(uniform_bit(), DistortionSpec.hamming((2,)), [0.5, 1.0, 2.0, 4.0])
        dists = [p.distortion[0] for p in pts]
        rates = [p.rate for p in pts]
        assert all(a >= b - 1e-9 for a, b in zip(dists, dists[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))

    def test_trace_joint_pairs(self):
        pts = trace_rd_curve(dsbs(), DistortionSpec.hamming((2, 2)), [(1.0, 1.0), (4.0, 4.0)])
        assert pts[1].rate >= pts[0].rate

    def test_marginal_helper_matches_direct(self):
        p = dsbs()
        d = DistortionSpec.hamming((2, 2))
        via_helper = marginal_rd_value(p, d, 0, 0.1)
        direct = ba_rate_distortion(
            marginalize(p, [0]), DistortionSpec.hamming((2,)), 0.1
        ).rate
        assert via_helper == pytest.approx(direct, abs=1e-12)
        assert via_helper == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-8)
