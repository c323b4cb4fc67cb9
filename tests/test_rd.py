import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import witl.rd as rd
from witl.audit import audit_lemma1, random_source
from witl.closed_form import DsbsParams, RegionLabel, dsbs_joint_rd, dsbs_region
from witl.prob import (
    LOG2,
    JointPmf,
    ProbabilityError,
    binary_entropy,
    marginalize,
    mutual_information,
)
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

    def test_below_least_distortion_rejected_before_sweep(self, monkeypatch):
        # X2 costs at least 0.1 to reproduce; D2 = 0.05 is out of reach
        monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
        m = np.array([[0.1, 1.0], [1.0, 0.1]])
        d = DistortionSpec((1.0 - np.eye(2), m), (2, 2))
        with pytest.raises(InfeasibleDistortion):
            ba_joint_rd(dsbs(), d, (0.3, 0.05))
        assert rd._SWEEP_CACHE == {}
        assert ba_joint_rd(dsbs(), d, (0.3, 0.12)).distortion[1] <= 0.12

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


    @pytest.mark.parametrize(
        "a1, i, j",
        [(0.3, 6, 14), (0.3, 8, 13), (0.3, 2, 2), (0.3, 11, 11), (0.1, 5, 9), (0.1, 5, 1)],
    )
    def test_reaches_dsbs_closed_form(self, a1, i, j):
        # grid points of the acceptance grid where a search that stops short
        # of the dual maximum reads 2.5e-5 to 6.6e-4 bits low
        axis = np.linspace(0.02, 0.5, 20)
        D = (axis[i], axis[j])
        rate = ba_joint_rd(dsbs(a1), DistortionSpec.hamming((2, 2)), D).rate
        assert rate == pytest.approx(dsbs_joint_rd(DsbsParams.from_a1(a1), *D), abs=1e-5)

    def test_lemma1_defect_source(self):
        # a perturbed 3x3 source on which a joint value 1.4e-4 bits short of
        # the dual maximum fails Rd3 and Rd5 of the lemma-1 audit
        mass = np.array([[0.119788, 0.43522, 0.03964],
                         [0.031546, 0.036825, 0.045212],
                         [0.070926, 0.063506, 0.157337]])
        p = JointPmf((3, 3), mass / mass.sum())
        d = DistortionSpec.hamming((3, 3))
        D = (0.060035, 0.058945)
        assert ba_joint_rd(p, d, D).rate == pytest.approx(1.7816447, abs=1e-6)
        assert audit_lemma1(p, d, *D).passed

    def test_one_sweep_per_source(self, monkeypatch):
        # every kernel call after the cached sweep carries one slope pair, so
        # a multi-entry call under ba_joint_rd marks a sweep-cache miss
        monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
        sizes = []
        real = rd._ba_batch

        def recorded(px, cost, *args, **kwargs):
            sizes[-1].append(len(cost))
            return real(px, cost, *args, **kwargs)

        monkeypatch.setattr(rd, "_ba_batch", recorded)
        d = DistortionSpec.hamming((2, 2))
        for D in ((0.05, 0.08), (0.12, 0.1)):
            sizes.append([])
            ba_joint_rd(dsbs(0.2), d, D)
        assert sum(b > 1 for b in sizes[0]) == 1
        assert sizes[1] and all(b == 1 for b in sizes[1])


class TestJointStart:
    """The ascent needs only a start from the cached sweep: a coarse sweep
    must not cost rate against a fine one, nor split into several calls."""

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("seed", range(1000, 1004))
    def test_no_worse_than_fine_sweep(self, monkeypatch, seed, sizes):
        monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
        p, d = random_source(seed, sizes), DistortionSpec.hamming(sizes)
        px, dm = rd._joint_problem(p, d)
        axis = np.concatenate(([0.0], np.geomspace(1.0 / 32.0, 48.0, 30)))
        fine = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        _, _, flb, _ = rd._slope_points(px, dm, fine, max_iter=rd.JOINT_MAX_ITER)
        sizes_seen = []
        real = rd._ba_batch

        def recorded(px, cost, *args, **kwargs):
            sizes_seen.append(len(cost))
            return real(px, cost, *args, **kwargs)

        monkeypatch.setattr(rd, "_ba_batch", recorded)
        zero = [float(np.min(marginalize(p, [i]).mass @ d.matrices[i])) for i in range(2)]
        for share in (0.2, 0.5, 0.8):
            D = np.array([share * zero[0], share * zero[1]])
            fine_bound = float(np.max(flb / LOG2 - fine @ D))
            assert ba_joint_rd(p, d, D).rate >= fine_bound - 1e-10, share
        assert [b for b in sizes_seen if b > 1] == [256]

    @pytest.mark.parametrize("a1", [0.1, 0.3])
    def test_dsbs_test_channel_is_tight(self, a1):
        # the returned channel meets D with no slack, and its I(X; Xhat) is
        # within 1e-5 bits of the reported rate
        p, d, par = dsbs(a1), DistortionSpec.hamming((2, 2)), DsbsParams.from_a1(a1)
        axis = np.linspace(0.01, 0.45, 8)
        checked = 0
        for D in ((d1, d2) for d1 in axis for d2 in axis):
            if dsbs_region(par, *D) is RegionLabel.ZERO:
                continue
            pt = ba_joint_rd(p, d, D)
            assert pt.distortion[0] <= D[0] and pt.distortion[1] <= D[1], D
            joint = JointPmf((4, 4), p.mass.reshape(-1)[:, None] * pt.test_channel.rows)
            assert mutual_information(joint, [0]) - pt.rate <= 1e-5, D
            checked += 1
        assert checked >= 40


weights = st.lists(st.integers(0, 9), min_size=6, max_size=6).filter(lambda m: sum(m) > 0)


class TestJointRdProperties:
    @given(
        st.sampled_from([(2, 2), (2, 3)]),
        weights,
        st.floats(0.1, 1.0),
        st.floats(0.1, 1.0),
        st.floats(0.05, 0.5),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_symmetric_and_nonincreasing(self, sizes, raw, share1, share2, step):
        n1, n2 = sizes
        mass = np.array(raw[: n1 * n2], dtype=float).reshape(sizes)
        p = JointPmf(sizes, mass / mass.sum())
        d = DistortionSpec.hamming(sizes)
        zero = [float(np.min(marginalize(p, [i]).mass @ d.matrices[i])) for i in range(2)]
        D1, D2 = share1 * zero[0], share2 * zero[1]
        rate = ba_joint_rd(p, d, (D1, D2)).rate
        swapped = ba_joint_rd(
            JointPmf((n2, n1), p.mass.T), DistortionSpec.hamming((n2, n1)), (D2, D1)
        ).rate
        assert swapped == pytest.approx(rate, abs=1e-7)
        assert ba_joint_rd(p, d, (D1 + step * zero[0], D2)).rate <= rate + 1e-9
        assert ba_joint_rd(p, d, (D1, D2 + step * zero[1])).rate <= rate + 1e-9


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
