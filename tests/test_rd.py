import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import witl.rd as rd
from witl.audit import audit_lemma1, random_source
from witl.closed_form import DsbsParams, RegionLabel, dsbs_joint_rd, dsbs_region
from witl.common_info import bsc_broadcast_source
from witl.prob import (
    LOG2,
    JointPmf,
    ProbabilityError,
    binary_entropy,
    entropy,
    marginalize,
    mutual_information,
)
from witl.rd import (
    DistortionSpec,
    InfeasibleDistortion,
    SweepResolutionError,
    ba_conditional_rd,
    ba_joint_rd,
    ba_rate_distortion,
    coordinate_rd_values,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ProbabilityError, match="finite"):
            DistortionSpec((np.array([[0.0, bad], [1.0, 0.0]]),), (2,))

    def test_json_round_trip(self):
        d = DistortionSpec.hamming((2, 2))
        d2 = DistortionSpec.from_json(d.to_json_obj())
        np.testing.assert_allclose(d2.matrices[0], d.matrices[0])


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

    @pytest.mark.parametrize("D", [np.nan, np.inf])
    def test_non_finite_target_rejected_before_kernel(self, monkeypatch, D):
        monkeypatch.setattr(rd, "_ba_batch", None)  # any kernel call fails loudly
        with pytest.raises(ProbabilityError, match="finite"):
            ba_rate_distortion(uniform_bit(), DistortionSpec.hamming((2,)), D)
        with pytest.raises(ProbabilityError, match="finite"):
            ba_conditional_rd(dsbs(), DistortionSpec.hamming((2,)), D)

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

    @pytest.mark.parametrize("D", [(np.nan, 0.1), (np.inf, 0.1), (0.1, np.nan)])
    def test_non_finite_target_rejected_before_kernel(self, monkeypatch, D):
        monkeypatch.setattr(rd, "_ba_batch", None)  # any kernel call fails loudly
        with pytest.raises(ProbabilityError, match="finite"):
            ba_joint_rd(dsbs(), DistortionSpec.hamming((2, 2)), D)

    def test_below_least_distortion_rejected_before_sweep(self, empty_stores):
        # X2 costs at least 0.1 to reproduce; D2 = 0.05 is out of reach
        empty_stores()
        m = np.array([[0.1, 1.0], [1.0, 0.1]])
        d = DistortionSpec((1.0 - np.eye(2), m), (2, 2))
        with pytest.raises(InfeasibleDistortion):
            ba_joint_rd(dsbs(), d, (0.3, 0.05))
        assert rd._SWEEP_CACHE == {}
        assert ba_joint_rd(dsbs(), d, (0.3, 0.12)).distortion[1] <= 0.12

    @pytest.mark.parametrize("seed, sizes", [(0, (2, 2)), (1, (3, 3))])
    def test_zero_rate_answered_before_sweep(self, monkeypatch, empty_stores, seed, sizes):
        # one reproduction pair meets D = (0.99, 0.99): no kernel call is needed
        empty_stores()
        calls = []
        real = rd._ba_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rd, "_ba_batch", counted)
        pt = ba_joint_rd(random_source(seed, sizes), DistortionSpec.hamming(sizes), (0.99, 0.99))
        assert pt.rate == 0.0 and max(pt.distortion) <= 0.99
        assert calls == [] and rd._SWEEP_CACHE == {}

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

    def test_dsbs_ascent_reaches_closed_form(self, empty_stores):
        # a point where trial calls that stop on the iteration cap left the
        # ascent 5e-9 bits short of the closed form
        empty_stores()
        D = (0.2726, 0.3232)
        rate = ba_joint_rd(dsbs(0.3), DistortionSpec.hamming((2, 2)), D).rate
        assert 0.0 <= dsbs_joint_rd(DsbsParams.from_a1(0.3), *D) - rate <= 1e-10

    def test_kink_ascent_stops_on_its_gain(self, monkeypatch, empty_stores):
        # D sits near a marginal's zero-rate distortion, where the dual has a
        # kink: sweep and ascent together stay within the ASCENT_CALLS guard
        empty_stores()
        calls = []
        real = rd._ba_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rd, "_ba_batch", counted)
        p = JointPmf((2, 3), np.array([[9, 2, 9], [0, 8, 0]]) / 28)
        ba_joint_rd(p, DistortionSpec.hamming((2, 3)), (0.2478, 0.6068))
        assert len(calls) <= rd.ASCENT_CALLS

    def test_one_sweep_per_source(self, monkeypatch, empty_stores):
        # every kernel call after the cached sweep carries one slope pair, so
        # a multi-entry call under ba_joint_rd marks a sweep-cache miss
        empty_stores()
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
    """The ascent needs only a start from the source's stored planes: one call
    on the diagonal doubling slopes must not cost rate against a fine sweep."""

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("seed", range(1000, 1004))
    def test_no_worse_than_fine_sweep(self, monkeypatch, empty_stores, seed, sizes):
        empty_stores()
        p, d = random_source(seed, sizes), DistortionSpec.hamming(sizes)
        px, dm = rd._joint_problem(p, d)
        axis = np.concatenate(([0.0], np.geomspace(1.0 / 32.0, 48.0, 30)))
        fine = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        _, _, flb = rd._ba_batch(px, LOG2 * np.einsum("ni,ixh->nxh", fine, dm))
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
        assert [b for b in sizes_seen if b > 1] == [7]

    def test_quantized_gaussian_large_alphabet(self, monkeypatch, empty_stores):
        # rho = 0.5, cell-centre density masses of 10 cells of width 0.8 on
        # [-4, 4] per coordinate, squared error: 100 source and reproduction letters
        empty_stores()
        centres = -4.0 + 0.8 * (np.arange(10) + 0.5)
        x, y = np.meshgrid(centres, centres, indexing="ij")
        mass = np.exp(-(x * x - x * y + y * y) / 1.5)
        sq = (centres[:, None] - centres[None, :]) ** 2
        p, d = JointPmf((10, 10), mass / mass.sum()), DistortionSpec((sq, sq), (10, 10))
        sizes = []
        real = rd._ba_batch

        def recorded(px, cost, *args, **kwargs):
            sizes.append(len(cost))
            return real(px, cost, *args, **kwargs)

        monkeypatch.setattr(rd, "_ba_batch", recorded)
        assert ba_joint_rd(p, d, (0.2, 0.2)).rate == pytest.approx(2.102749, abs=1e-6)
        assert sum(b > 1 for b in sizes) == 1 and len(sizes) <= rd.ASCENT_CALLS + 1
        sizes.clear()
        D = np.array([0.3, 0.15])
        rate = ba_joint_rd(p, d, D).rate
        assert all(b == 1 for b in sizes)
        (planes,) = rd._SWEEP_CACHE.values()
        slopes, flb = np.array([pl[0] for pl in planes]), np.array([pl[2] for pl in planes])
        assert rate >= np.max(flb / LOG2 - slopes @ D) - 1e-14  # rounding of the dot products

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


def zero_rate_shares(p, d, shares):
    """D at the given shares of each marginal's zero-rate distortion."""
    return tuple(s * float(np.min(marginalize(p, [i]).mass @ d.matrices[i])) for i, s in enumerate(shares))


def channel_distortion(p, d, pt):
    """E[d_i] of the returned test channel, computed from its own rows."""
    px, dm = rd._joint_problem(p, d)
    return np.einsum("x,xh,ixh->i", px, pt.test_channel.rows, dm)


def channel_rate_excess(p, pt):
    """I(X; X̂) of the returned test channel less the reported rate, in bits."""
    rows = pt.test_channel.rows
    return mutual_information(JointPmf(rows.shape, p.mass.reshape(-1, 1) * rows), [0]) - pt.rate


class TestJointChannelMeetsD:
    """The returned test channel meets D with no slack, and its rate is near
    the reported one: the Gray-Wyner witness W = X̂ is built from it."""

    @given(
        st.sampled_from([(2, 2), (2, 3)]),
        weights,
        st.one_of(st.just(0.99999), st.floats(0.1, 1.0)),
        st.one_of(st.just(0.99999), st.floats(0.1, 1.0)),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_channel_meets_D_exactly(self, sizes, raw, share1, share2):
        n1, n2 = sizes
        mass = np.array(raw[: n1 * n2], dtype=float).reshape(sizes)
        assume(mass.sum() > 0)
        p, d = JointPmf(sizes, mass / mass.sum()), DistortionSpec.hamming(sizes)
        D = zero_rate_shares(p, d, (share1, share2))
        pt = ba_joint_rd(p, d, D)
        e = channel_distortion(p, d, pt)
        np.testing.assert_allclose(e, pt.distortion, rtol=0, atol=1e-15)
        assert np.all(e <= np.array(D)), (e, D)

    @pytest.mark.parametrize("seed, sizes", [(1005, (2, 2)), (1004, (2, 3))])
    def test_channel_rate_near_reported_rate(self, seed, sizes):
        # the least-rate evaluated channel that meets D reads 0.0795 and 0.0634 bits above the rate here
        p, d = random_source(seed, sizes), DistortionSpec.hamming(sizes)
        pt = ba_joint_rd(p, d, zero_rate_shares(p, d, (0.999, 0.999)))
        assert channel_rate_excess(p, pt) <= 2e-3

    def test_kink_channel_does_not_overshoot(self):
        # a channel that meets D only within a 1e-6 slack overshoots D1 by 9.9e-7 here
        p, d = random_source(1004, (2, 3)), DistortionSpec.hamming((2, 3))
        D = zero_rate_shares(p, d, (0.99999, 0.2))
        assert np.all(channel_distortion(p, d, ba_joint_rd(p, d, D)) <= np.array(D))

    @pytest.mark.parametrize("D", [(0.0, 0.1), (0.0, 0.0), (0.05, 0.0)])
    def test_lossless_coordinate(self, D):
        # D_i = 0 needs slope s_i at SLOPE_CAP, and the channel that ends there
        # overshoots D_i = 0 by 5.4e-20 to 2.8e-9
        p, d = dsbs(), DistortionSpec.hamming((2, 2))
        pt = ba_joint_rd(p, d, D)
        assert np.all(channel_distortion(p, d, pt) <= np.array(D))
        assert channel_rate_excess(p, pt) <= 1e-5
        lossy = max(D)  # R(0, D2) = H(X1) + R_{X2|X1}(D2), with P(X1 != X2) = 0.18
        assert pt.rate == pytest.approx(1.0 + H_018 - binary_entropy(lossy), abs=1e-9)

    def test_coordinate_at_positive_least_distortion(self):
        # no zero in a row of d_1: least_1 = 0.25, reached only by X̂_1 = X_1
        d = DistortionSpec((np.array([[0.3, 1.0], [1.2, 0.2]]), 1.0 - np.eye(2)), (2, 2))
        pt = ba_joint_rd(dsbs(), d, (0.25, 0.1))
        assert np.all(channel_distortion(dsbs(), d, pt) <= np.array([0.25, 0.1]))
        assert channel_rate_excess(dsbs(), pt) <= 1e-5
        assert pt.rate == pytest.approx(1.0 + H_018 - binary_entropy(0.1), abs=1e-9)

    def test_target_below_least_distortion_rejected_before_kernel(self, monkeypatch):
        monkeypatch.setattr(rd, "_ba_batch", None)  # any kernel call fails loudly
        d = DistortionSpec((np.array([[0.3, 1.0], [1.2, 0.2]]), 1.0 - np.eye(2)), (2, 2))
        with pytest.raises(InfeasibleDistortion):
            ba_joint_rd(dsbs(), d, (np.nextafter(0.25, 0.0), 0.1))

    @pytest.mark.parametrize("D", [(0.001, 0.001), (0.0, 0.1), (0.0, 0.0)])
    def test_overshoot_at_slope_cap_raises(self, D):
        # under 0.01 Hamming, these need slopes beyond SLOPE_CAP; the supporting
        # line there reads 0.285 and 0.527 bits at (0, 0.1) and (0, 0), where R
        # is 1 and 1.680
        d = DistortionSpec((0.01 * (1.0 - np.eye(2)),) * 2, (2, 2))
        with pytest.raises(SweepResolutionError):
            ba_joint_rd(dsbs(), d, D)


class TestOneSearch:
    @pytest.mark.parametrize("sizes", [(3, 3), (2, 3), (2, 2), (3, 2), (2, 3, 2)])
    @pytest.mark.parametrize("seed", range(1000, 1004))
    def test_product_source_joint_rate_is_sum_of_marginal_rates(self, seed, sizes):
        # on p(x1) .. p(xN) the joint dual separates, so the joint search (N
        # multipliers) and the N scalar searches (one each) maximize the same
        # function: R_{X1..XN}(D1, .., DN) = R_{X1}(D1) + .. + R_{XN}(DN)
        marginals = [marginalize(random_source(seed, sizes), [i]) for i in range(len(sizes))]
        p = JointPmf(sizes, functools.reduce(np.multiply.outer, [m.mass for m in marginals]))
        d = DistortionSpec.hamming(sizes)
        for shares in ((0.2, 0.5, 0.8), (0.5, 0.8, 0.2), (0.8, 0.2, 0.5)):
            D = zero_rate_shares(p, d, shares[:len(sizes)])
            separate = sum(ba_rate_distortion(m, DistortionSpec.hamming((n,)), Di).rate
                           for m, n, Di in zip(marginals, sizes, D))
            assert ba_joint_rd(p, d, D).rate == pytest.approx(separate, abs=1e-9), shares


class TestNCoordinateJoint:
    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("a1", [0.1, 0.2, 0.3])
    def test_broadcast_source_rate_is_shannon_lower_bound(self, N, a1):
        # with every D_i <= a1 the joint R(D) of the N-receiver broadcast source
        # is H(X) - sum_i h(D_i), and no pair of its coordinates needs more
        p, d = bsc_broadcast_source(0.5, a1, N), DistortionSpec.hamming((2,) * N)
        for D in ((0.05,) * N, tuple(a1 * np.linspace(0.3, 1.0, N))):
            rate = coordinate_rd_values(p, d, [(tuple(range(N)), None, D)])[0].rate
            assert rate == pytest.approx(entropy(p) - sum(binary_entropy(Di) for Di in D), abs=1e-9), D
            pairs = [((i, j), None, (D[i], D[j])) for i in range(N) for j in range(i + 1, N)]
            assert all(rate >= pt.rate - 1e-9 for pt in coordinate_rd_values(p, d, pairs)), D

    def test_joint_query_takes_no_given_coordinate(self):
        p, d = bsc_broadcast_source(0.5, 0.1, 3), DistortionSpec.hamming((2, 2, 2))
        with pytest.raises(ProbabilityError, match="given"):
            coordinate_rd_values(p, d, [((0, 1), 2, (0.05, 0.05))])


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
        assume(mass.sum() > 0)  # a 2x2 draw reads only the first 4 weights
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
