"""The batched Blahut-Arimoto kernel and the slope bracket search built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witl.closed_form import DsbsParams, dsbs_conditional_rd
from witl.prob import LOG2, JointPmf, marginalize
from witl.rd import (
    DistortionSpec,
    _ba_batch,
    _zero_distortion_rate,
    ba_conditional_rd,
    ba_rate_distortion,
)


def per_entry_problem():
    """Four 3-letter sources, one with a zero-mass letter, at four slopes of a
    non-square distortion matrix."""
    rng = np.random.default_rng(11)
    px = rng.dirichlet(np.ones(3), size=4)
    px[2, 1] = 0.0
    px[2] /= px[2].sum()
    dmat = np.array([[0.0, 1.0, 0.4], [1.0, 0.0, 0.4], [2.0, 1.5, 0.0]])
    cost = np.array([s * LOG2 * dmat for s in (0.5, 1.5, 3.0, 8.0)])
    return px, cost


class TestPerEntryKernel:
    def test_batch_equals_separate_calls(self):
        px, cost = per_entry_problem()
        rates, cond, flb = _ba_batch(px, cost)
        for b in range(len(px)):
            r1, c1, f1 = _ba_batch(px[b], cost[b : b + 1])
            assert abs(rates[b] - r1[0]) <= 1e-12
            assert abs(flb[b] - f1[0]) <= 1e-12
            assert np.abs(cond[b] - c1[0]).max() <= 1e-12

    def test_per_entry_warm_start_equals_separate_calls(self):
        px, cost = per_entry_problem()
        q0 = np.random.default_rng(5).dirichlet(np.ones(3), size=len(px))
        rates, cond, flb = _ba_batch(px, cost, q0=q0)
        for b in range(len(px)):
            r1, c1, f1 = _ba_batch(px[b], cost[b : b + 1], q0=q0[b])
            assert abs(rates[b] - r1[0]) <= 1e-12
            assert abs(flb[b] - f1[0]) <= 1e-12
            assert np.abs(cond[b] - c1[0]).max() <= 1e-12

    def test_shared_px_equals_repeated_rows(self):
        px, cost = per_entry_problem()
        shared = _ba_batch(px[2], cost)
        repeated = _ba_batch(np.repeat(px[2:3], len(cost), axis=0), cost)
        for a, b in zip(shared, repeated):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_zero_distortion_rows_equal_separate_calls(self):
        px, _ = per_entry_problem()
        dmat = 1.0 - np.eye(3)
        rates, conds = _zero_distortion_rate(px, dmat)
        for b in range(len(px)):
            r1, c1 = _zero_distortion_rate(px[b : b + 1], dmat)
            assert abs(rates[b] - r1[0]) <= 1e-12
            assert np.abs(conds[b] - c1[0]).max() <= 1e-12


#: integer weights: zero-mass letters and zero-mass w occur, tiny masses do not
weights = st.lists(st.integers(0, 20), min_size=6, max_size=6).filter(lambda m: sum(m) > 0)


class TestConditionalProperties:
    @given(
        st.sampled_from([(2, 2), (3, 2)]),
        weights,
        st.floats(0.0, 1.1),
        st.floats(0.05, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_nonincreasing_and_below_marginal(self, sizes, raw, share, step):
        nx, nw = sizes
        mass = np.array(raw[: nx * nw], dtype=float).reshape(nx, nw)
        if mass.sum() == 0:
            return
        p = JointPmf(sizes, mass / mass.sum())
        d = DistortionSpec.hamming((nx,))
        px = marginalize(p, [0])
        d_zero = float(np.min(px.mass @ d.matrices[0]))
        D_lo = share * d_zero
        D_hi = D_lo + step * d_zero
        r_lo = ba_conditional_rd(p, d, D_lo).rate
        r_hi = ba_conditional_rd(p, d, D_hi).rate
        assert r_lo >= r_hi - 1e-9
        assert r_lo <= ba_rate_distortion(px, d, D_lo).rate + 1e-9
        assert r_hi <= ba_rate_distortion(px, d, D_hi).rate + 1e-9


class TestNearZeroRateBoundary:
    @pytest.mark.parametrize("share", [0.95, 0.99])
    def test_dsbs_conditional_near_a1(self, share):
        # X = S through a BSC(a1) given the common bit S: h(a1) - h(D)
        a1 = 0.266
        p = JointPmf((2, 2), 0.5 * np.array([[1 - a1, a1], [a1, 1 - a1]]))
        D = share * a1
        pt = ba_conditional_rd(p, DistortionSpec.hamming((2,)), D)
        assert pt.rate == pytest.approx(dsbs_conditional_rd(DsbsParams.from_a1(a1), D), abs=1e-7)
