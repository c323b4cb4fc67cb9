import warnings

import numpy as np
import pytest
from scipy.optimize import approx_fprime
from scipy.special import xlogy

from witl.common_info import (
    FEASIBILITY_TOL,
    CommonInfoInfeasible,
    CommonInfoSolution,
    SolveBudget,
    _descent_terms,
    _exhaustive_2x2,
    bsc_broadcast_source,
    common_info_bounds,
    solve_common_info,
)
from witl.prob import (
    LOG2,
    JointPmf,
    binary_entropy,
    entropy,
    marginalize,
    mix_channels,
    mutual_information,
    total_variation,
)

C_DSBS_01 = 0.74208585854971740  # 1 + h(0.18) - 2 h(0.1)
C_BROADCAST_3 = 0.86241773063504412
C_BROADCAST_4 = 0.92193865857931574


def dsbs(a1=0.1):
    p11 = (1 - a1) ** 2 * 0.5 + a1**2 * 0.5
    p10 = a1 * (1 - a1)
    return JointPmf((2, 2), np.array([[p11, p10], [p10, p11]]))


class TestBounds:
    def test_dsbs_sandwich(self):
        lo, hi = common_info_bounds(dsbs())
        assert lo == pytest.approx(1.0 - 0.68007704572827984, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)  # entropy of one uniform bit
        assert lo <= C_DSBS_01 <= hi

    def test_independent_collapses_to_zero_lower(self):
        p = JointPmf((2, 2), np.full((2, 2), 0.25))
        lo, hi = common_info_bounds(p)
        assert lo == pytest.approx(0.0, abs=1e-10)


class TestBroadcastFamily:
    def test_pairwise_marginal_is_dsbs(self):
        src = bsc_broadcast_source(0.5, 0.1, 3)
        pair = marginalize(src, [0, 1])
        np.testing.assert_allclose(pair.mass, dsbs().mass, atol=1e-12)

    def test_exact_value_formula(self):
        for n, expect in [(3, C_BROADCAST_3), (4, C_BROADCAST_4)]:
            src = bsc_broadcast_source(0.5, 0.1, n)
            val = entropy(src) - n * binary_entropy(0.1)
            assert val == pytest.approx(expect, abs=1e-9)

    def test_nondecreasing_in_coordinates(self):
        vals = [
            entropy(bsc_broadcast_source(0.5, 0.1, n)) - n * binary_entropy(0.1)
            for n in (2, 3, 4, 5)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestExhaustiveSolver:
    def test_dsbs_value(self):
        sol = solve_common_info(dsbs(), K=2)
        assert sol.status == "exhaustive-optimal"
        assert sol.achieved_I == pytest.approx(C_DSBS_01, abs=1e-3)
        assert sol.marginal_residual <= 1e-6

    def test_reconstruction_matches_source(self):
        sol = solve_common_info(dsbs(), K=2)
        mixed = mix_channels(sol.pw, list(sol.channels))
        assert total_variation(mixed, dsbs()) <= 1e-6

    def test_conditional_independence_of_solution(self):
        sol = solve_common_info(dsbs(), K=2)
        for w in range(sol.pw.size):
            if sol.pw[w] <= 0:
                continue
            block = np.outer(sol.channels[0].rows[w], sol.channels[1].rows[w])
            assert block.shape == (2, 2)  # product form by construction

    def test_independent_source_gives_zero(self):
        p = JointPmf((2, 2), np.outer([0.3, 0.7], [0.6, 0.4]))
        sol = solve_common_info(p, K=2)
        assert sol.achieved_I == pytest.approx(0.0, abs=1e-6)

    def test_perfectly_correlated_gives_entropy(self):
        p = JointPmf((2, 2), np.array([[0.5, 0.0], [0.0, 0.5]]))
        sol = solve_common_info(p, K=2)
        assert sol.achieved_I == pytest.approx(1.0, abs=1e-3)


class TestSingleLetterW:
    def test_independent_source_gives_zero(self):
        p = JointPmf((2, 3), np.outer([0.3, 0.7], [0.5, 0.2, 0.3]))
        sol = solve_common_info(p, K=1)
        assert sol.achieved_I == pytest.approx(0.0, abs=1e-12)
        assert sol.status == "exhaustive-optimal"
        assert sol.marginal_residual <= FEASIBILITY_TOL

    def test_dependent_source_infeasible(self):
        with pytest.raises(CommonInfoInfeasible):
            solve_common_info(dsbs(), K=1)


class TestDescentSolver:
    def test_broadcast_three_upper_bound_quality(self):
        src = bsc_broadcast_source(0.5, 0.1, 3)
        sol = solve_common_info(src, K=2, budget=SolveBudget(restarts=6, seed=0))
        exact = C_BROADCAST_3
        assert sol.marginal_residual <= 1e-6
        # upper-bound search: must not report below the optimum (minus solver
        # tolerance) and should land near it
        assert sol.achieved_I >= exact - 1e-4
        assert sol.achieved_I <= exact + 5e-2

    def test_value_respects_lower_bound(self):
        rng = np.random.default_rng(7)
        mass = rng.dirichlet(np.ones(6)).reshape(2, 3)
        p = JointPmf((2, 3), mass)
        sol = solve_common_info(p, budget=SolveBudget(restarts=4, seed=1))
        lo, hi = common_info_bounds(p)
        assert sol.achieved_I >= lo - 1e-6
        assert sol.marginal_residual <= 1e-6


class TestDescentWorkloads:
    def test_broadcast_three_receivers_on_a1_grid(self):
        for a1 in np.linspace(0.1, 0.3, 21):
            src = bsc_broadcast_source(0.5, a1, 3)
            exact = entropy(src) - 3 * binary_entropy(a1)
            sol = solve_common_info(src, K=2, budget=SolveBudget(restarts=3))
            assert sol.marginal_residual <= FEASIBILITY_TOL, a1
            assert exact - 1e-4 <= sol.achieved_I <= exact + 5e-2, a1

    def test_zero_mass_cell_runs_without_warnings(self):
        p = JointPmf((2, 3), np.array([[0.3, 0.0, 0.2], [0.1, 0.25, 0.15]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_common_info(p, budget=SolveBudget(restarts=4, seed=1))
        assert sol.marginal_residual <= FEASIBILITY_TOL
        assert common_info_bounds(p)[0] - 1e-6 <= sol.achieved_I <= entropy(p)


def _assert_gradient_matches(z, mu, pxu, sizes):
    grad = _descent_terms(z, mu, pxu, sizes)[4]
    fd = approx_fprime(z, lambda v: _descent_terms(v, mu, pxu, sizes)[3])
    assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))


class TestDescentGradient:
    @pytest.mark.parametrize("mu", [1.0, 1e3])
    def test_u_is_x_broadcast_source(self, mu):
        pxu = np.diag(bsc_broadcast_source(0.5, 0.1, 3).mass.reshape(-1))
        z = np.random.default_rng(11).normal(scale=2.0, size=8 * 2)
        assert _descent_terms(z, mu, pxu, (2, 2, 2))[2] > 0
        _assert_gradient_matches(z, mu, pxu, (2, 2, 2))

    @pytest.mark.parametrize("mu", [1.0, 1e3])
    def test_u_is_reproduction_pair(self, mu):
        rng = np.random.default_rng(12)
        pxu = rng.dirichlet(np.ones(16)).reshape(4, 4)
        z = rng.normal(scale=2.0, size=4 * 4)
        assert _descent_terms(z, mu, pxu, (2, 2))[2] > 0
        _assert_gradient_matches(z, mu, pxu, (2, 2))

    def test_no_penalty_gradient_where_tc_vanishes(self):
        # product source and W sees X1 only, so X1 and X2 stay independent given W
        rng = np.random.default_rng(0)
        pxu = np.diag(np.outer(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3))).reshape(-1))
        z = np.repeat(rng.normal(size=(2, 2)), 3, axis=0).reshape(-1)
        _, i_xw, tc, _, grad = _descent_terms(z, 1e3, pxu, (2, 3))
        assert tc <= 0 < i_xw
        np.testing.assert_array_equal(grad, _descent_terms(z, 0.0, pxu, (2, 3))[4])
        # at mu = 1e3 a forward difference already sees the penalty's curvature
        _assert_gradient_matches(z, 1.0, pxu, (2, 3))


def _grid_reference(p, res):
    """(p(w), p(x1|w), p(x2|w)) from every grid point scored, infeasible ones
    at +inf; an independent source keeps the constant W, whose I(X; W) = 0 is
    below that of every grid point."""
    m1, m2 = p.mass.sum(axis=1), p.mass.sum(axis=0)
    if total_variation(np.outer(m1, m2), p.mass) <= FEASIBILITY_TOL:
        return np.array([0.5, 0.5]), np.tile(m1, (2, 1)), np.tile(m2, (2, 1))
    p1, p2, p11 = float(m1[1]), float(m2[1]), float(p.mass[1, 1])
    grid = np.linspace(0.0, 1.0, int(round(1.0 / res)) + 1)
    b10, b11 = (b.reshape(-1) for b in np.meshgrid(grid, grid, indexing="ij"))
    ok = np.abs(b10 - b11) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        piw = np.where(ok, (p1 - b11) / np.where(ok, b10 - b11, 1.0), -1.0)
        b20 = (b11 * p2 - p11) / np.where(ok, piw * (b11 - b10), 1.0)
        b21 = (p11 - b10 * p2) / np.where(ok, (1.0 - piw) * (b11 - b10), 1.0)
    feas = ok & (piw > 1e-9) & (piw < 1 - 1e-9)
    for b in (b20, b21):
        feas &= (b >= -1e-12) & (b <= 1 + 1e-12)
    b20, b21 = np.clip(b20, 0.0, 1.0), np.clip(b21, 0.0, 1.0)

    def h(v):
        return -(xlogy(v, v) + xlogy(1.0 - v, 1.0 - v)) / LOG2

    hxw = piw * (h(b10) + h(b20)) + (1.0 - piw) * (h(b11) + h(b21))
    j = int(np.argmin(np.where(feas, entropy(p) - hxw, np.inf)))
    return (
        np.array([piw[j], 1.0 - piw[j]]),
        np.array([[1 - b10[j], b10[j]], [1 - b11[j], b11[j]]]),
        np.array([[1 - b20[j], b20[j]], [1 - b21[j], b21[j]]]),
    )


class TestExhaustiveGrid:
    def test_feasible_points_only_match_full_grid(self):
        rng = np.random.default_rng(5)
        sources = [JointPmf((2, 2), rng.dirichlet(np.ones(4)).reshape(2, 2)) for _ in range(20)]
        sources += [
            dsbs(0.1),
            JointPmf((2, 2), np.outer([0.3, 0.7], [0.6, 0.4])),
            JointPmf((2, 2), np.array([[0.5, 0.0], [0.0, 0.5]])),
        ]
        for p in sources:
            sol = _exhaustive_2x2(p, SolveBudget(grid_resolution=1e-2))
            pw, rows1, rows2 = _grid_reference(p, 1e-2)
            np.testing.assert_array_equal(sol.pw, pw)
            np.testing.assert_array_equal(sol.channels[0].rows, rows1)
            np.testing.assert_array_equal(sol.channels[1].rows, rows2)


class TestSerialization:
    def test_round_trip(self):
        sol = solve_common_info(dsbs(), K=2)
        back = CommonInfoSolution.from_json_obj(sol.to_json_obj())
        np.testing.assert_allclose(back.pw, sol.pw, atol=1e-12)
        assert back.achieved_I == pytest.approx(sol.achieved_I, abs=1e-12)
        for a, b in zip(back.channels, sol.channels):
            np.testing.assert_allclose(a.rows, b.rows, atol=1e-12)
