import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import approx_fprime
from scipy.optimize import minimize as scipy_minimize
from scipy.special import xlogy

import witl.common_info as common_info
from witl.audit import random_source
from witl.common_info import (
    _SCORE_SLACK,
    FEASIBILITY_TOL,
    CommonInfoInfeasible,
    CommonInfoSolution,
    SolveBudget,
    _block1_scores,
    _descent_terms,
    _exhaustive_2x2,
    _penalized_descent,
    bsc_broadcast_source,
    common_info_bounds,
    solve_common_info,
)
from witl.prob import (
    LOG2,
    JointPmf,
    ProbabilityError,
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


class TestSolveBudget:
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_no_restarts(self, restarts):
        # no restart leaves the descent no run to pick from
        with pytest.raises(ProbabilityError, match="restarts"):
            SolveBudget(restarts=restarts)

    @pytest.mark.parametrize("resolution", [0.0, -1e-3, 1.0, np.nan])
    def test_rejects_grid_resolution_outside_unit_interval(self, resolution):
        with pytest.raises(ProbabilityError, match="grid_resolution"):
            SolveBudget(grid_resolution=resolution)


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

    @pytest.mark.parametrize("theta", [0.3, 0.5])
    @pytest.mark.parametrize("a1", [0.1, 0.27])
    def test_mass_matches_enumerated_formula(self, theta, a1):
        for n in range(2, 6):
            t = np.indices((2,) * n).sum(axis=0)  # the number of ones in each word
            expect = theta * a1**t * (1 - a1) ** (n - t) + (1 - theta) * (1 - a1) ** t * a1 ** (n - t)
            np.testing.assert_allclose(
                bsc_broadcast_source(theta, a1, n).mass, expect, rtol=0, atol=1e-15
            )

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
    grad = _descent_terms(pxu, sizes)(z, mu)[4]
    fd = approx_fprime(z, lambda v: _descent_terms(pxu, sizes)(v, mu)[3])
    assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))


class TestDescentGradient:
    @pytest.mark.parametrize("mu", [1.0, 1e3])
    def test_u_is_x_broadcast_source(self, mu):
        pxu = np.diag(bsc_broadcast_source(0.5, 0.1, 3).mass.reshape(-1))
        z = np.random.default_rng(11).normal(scale=2.0, size=8 * 2)
        assert _descent_terms(pxu, (2, 2, 2))(z, mu)[2] > 0
        _assert_gradient_matches(z, mu, pxu, (2, 2, 2))

    @pytest.mark.parametrize("mu", [1.0, 1e3])
    def test_u_is_reproduction_pair(self, mu):
        rng = np.random.default_rng(12)
        pxu = rng.dirichlet(np.ones(16)).reshape(4, 4)
        z = rng.normal(scale=2.0, size=4 * 4)
        assert _descent_terms(pxu, (2, 2))(z, mu)[2] > 0
        _assert_gradient_matches(z, mu, pxu, (2, 2))

    def test_no_penalty_gradient_where_tc_vanishes(self):
        # product source and W sees X1 only, so X1 and X2 stay independent given W
        rng = np.random.default_rng(0)
        pxu = np.diag(np.outer(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3))).reshape(-1))
        z = np.repeat(rng.normal(size=(2, 2)), 3, axis=0).reshape(-1)
        _, i_xw, tc, _, grad = _descent_terms(pxu, (2, 3))(z, 1e3)
        assert tc <= 0 < i_xw
        np.testing.assert_array_equal(grad, _descent_terms(pxu, (2, 3))(z, 0.0)[4])
        # at mu = 1e3 a forward difference already sees the penalty's curvature
        _assert_gradient_matches(z, 1.0, pxu, (2, 3))


def _descent_pairs():
    """(pxu, u_sizes, K) of the three descents the library runs: U = X on
    the broadcast source and on a 3x3 source, and U = the reproduction pair
    of a c_star point."""
    from witl import gray_wyner
    from witl.rd import DistortionSpec, ba_joint_rd

    spec = DistortionSpec.hamming((2, 2))
    rp = ba_joint_rd(dsbs(0.2), spec, (0.05, 0.05))
    return [
        (np.diag(bsc_broadcast_source(0.5, 0.2, 3).mass.reshape(-1)), (2, 2, 2), 2),
        (np.diag(random_source(1, (3, 3)).mass.reshape(-1)), (3, 3), 3),
        (gray_wyner._source_reproduction(dsbs(0.2), rp), (2, 2), 4),
    ]


class TestLockstepDescent:
    @pytest.mark.parametrize("case", range(3))
    @pytest.mark.parametrize("mu", [0.0, 1.0, 1e4])
    def test_stacked_rows_equal_one_row_calls(self, case, mu):
        pxu, sizes, K = _descent_pairs()[case]
        z = np.random.default_rng(case).normal(scale=2.0, size=(2, 3, pxu.shape[1] * K))
        stacked = _descent_terms(pxu, sizes)(z, mu)
        assert [np.shape(v) for v in stacked] == [
            (2, 3, pxu.shape[1], K), (2, 3), (2, 3), (2, 3), (2, 3, pxu.shape[1] * K)]
        for idx in np.ndindex(2, 3):
            one = _descent_terms(pxu, sizes)(z[idx], mu)
            assert all(isinstance(v, float) for v in one[1:4])
            for a, b in zip(stacked, one):
                np.testing.assert_array_equal(np.asarray(a)[idx], b)

    @pytest.mark.parametrize("case", [0, 2])
    def test_restart_does_not_depend_on_the_others(self, case):
        pxu, sizes, K = _descent_pairs()[case]
        (q3, i3, tc3), *_ = _penalized_descent(pxu, sizes, K, SolveBudget(restarts=3))
        ((q1, i1, tc1),) = _penalized_descent(pxu, sizes, K, SolveBudget(restarts=1))
        assert abs(i3 - i1) / LOG2 <= 1e-12 and abs(tc3 - tc1) / LOG2 <= 1e-12
        np.testing.assert_allclose(q3, q1, rtol=0, atol=1e-12)

    def test_memory_direction_is_the_two_loop_recursion(self):
        rng = np.random.default_rng(0)
        k, n = 3, 7
        m = rng.normal(size=(n, n))
        a = m @ m.T + np.eye(n)  # y = a s keeps s'y > 0
        mem = common_info._Memory(k, n)
        pairs = [[] for _ in range(k)]
        for step in range(14):
            rows = [r for r in range(k) if (step + r) % 3]  # rows fill at different times
            s = rng.normal(size=(len(rows), n))
            mem.push(rows, s, s @ a)
            for r, si in zip(rows, s):
                pairs[r] = (pairs[r] + [(si, a @ si)])[-common_info.DESCENT_MEMORY:]
            g = rng.normal(size=(k, n))
            want = [_two_loop(p, gi) for p, gi in zip(pairs, g)]
            np.testing.assert_allclose(mem.direction(slice(None), g), want, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(mem.direction([0, 2], g[[0, 2]]), [want[0], want[2]], rtol=1e-9, atol=1e-12)
        mem.clear(1)
        np.testing.assert_array_equal(mem.direction([1], g[[1]])[0], -g[1])

    def test_memory_grows_linearly_with_the_logits(self):
        mem = common_info._Memory(8, 4096)
        assert sum(v.nbytes for v in vars(mem).values() if isinstance(v, np.ndarray)) <= 8 * 21 * 4096 * 8

    def test_minimize_reaches_the_minimizer_of_a_convex_quadratic(self):
        # L-BFGS-B's relative-reduction stop (factr 1e7) can end a row while
        # max |g| is still a few 1e-5, so the test asks for the minimizer and
        # for the point and iterations SciPy's L-BFGS-B reaches
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 8))
        a = m @ m.T + np.eye(8)
        c = rng.normal(size=8)

        def quad(x):
            return 0.5 * np.einsum("ri,ij,rj->r", x - c, a, x - c), (x - c) @ a

        starts = rng.normal(scale=3.0, size=(3, 8))
        res = common_info.minimize(quad, starts)
        np.testing.assert_allclose(res.x, np.tile(c, (3, 1)), atol=1e-4)  # eigenvalues of a >= 1
        assert np.abs(quad(res.x)[1]).max() <= 1e-4
        _assert_as_scipy(quad, starts, res)

    def test_minimize_reaches_the_rosenbrock_minimizer_as_scipy_does(self):
        # each row stops as L-BFGS-B does: near the minimizer, f lowers by less
        # than REL_REDUCTION per iteration while max |g| is still about 5e-5
        starts = np.array([[-1.2, 1.0], [2.0, 2.0], [-0.5, 3.0]])
        res = common_info.minimize(_rosenbrock, starts)
        np.testing.assert_allclose(res.x, 1.0, atol=1e-4)
        assert np.all(res.fun <= 1e-9) and np.abs(_rosenbrock(res.x)[1]).max() <= 1e-3
        _assert_as_scipy(_rosenbrock, starts, res)
        for row, x0 in enumerate(starts):
            # a row runs as it would alone
            alone = common_info.minimize(_rosenbrock, x0[None])
            np.testing.assert_array_equal(alone.x[0], res.x[row])
            assert alone.nit[0] == res.nit[row]

    def test_minimize_stops_at_its_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(common_info, "DESCENT_MAXITER", 5)
        res = common_info.minimize(_rosenbrock, np.array([[-1.2, 1.0], [2.0, 2.0]]))
        assert res.nit.tolist() == [5, 5] and res.nfev >= 2 * 6
        assert np.all(res.fun < _rosenbrock(np.array([[-1.2, 1.0], [2.0, 2.0]]))[0])

    def test_minimize_stops_where_no_step_meets_the_wolfe_conditions(self):
        # |x| has no minimizer that the slope can certify: line searches run
        # out, the memory is cleared, and a row stops without rising
        x0 = np.array([[1.0, -2.0], [0.3, 0.7]])
        res = common_info.minimize(lambda x: (np.abs(x).sum(axis=1), np.sign(x)), x0)
        assert np.all(res.fun <= 1e-8) and np.all(res.nit < common_info.DESCENT_MAXITER)


def _assert_as_scipy(fun, starts, res):
    for row, x0 in enumerate(starts):
        ref = scipy_minimize(lambda v: tuple(t[0] for t in fun(v[None])), x0, jac=True,
                             method="L-BFGS-B", options={"maxiter": common_info.DESCENT_MAXITER})
        assert abs(res.nit[row] - ref.nit) <= max(2, 0.1 * ref.nit), (row, res.nit[row], ref.nit)
        assert abs(res.fun[row] - ref.fun) <= 1e-9
        np.testing.assert_allclose(res.x[row], ref.x, rtol=0, atol=1e-8)


def _two_loop(pairs, g):
    """-H g by the L-BFGS two-loop recursion (Nocedal 1980), oldest pair first."""
    q, alphas = g.copy(), []
    for s, y in reversed(pairs):
        alphas.append(s @ q / (s @ y))
        q -= alphas[-1] * y
    if pairs:
        s, y = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - y @ q / (s @ y)) * s
    return -q


def _rosenbrock(x):
    f = np.sum(100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (1 - x[:, :-1]) ** 2, axis=1)
    g = np.zeros_like(x)
    g[:, :-1] += -400.0 * x[:, :-1] * (x[:, 1:] - x[:, :-1] ** 2) - 2.0 * (1 - x[:, :-1])
    g[:, 1:] += 200.0 * (x[:, 1:] - x[:, :-1] ** 2)
    return f, g


def _h_bits(v):
    return -(xlogy(v, v) + xlogy(1.0 - v, 1.0 - v)) / LOG2


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
    hxw = piw * (_h_bits(b10) + _h_bits(b20)) + (1.0 - piw) * (_h_bits(b11) + _h_bits(b21))
    j = int(np.argmin(np.where(feas, entropy(p) - hxw, np.inf)))
    return (
        np.array([piw[j], 1.0 - piw[j]]),
        np.array([[1 - b10[j], b10[j]], [1 - b11[j], b11[j]]]),
        np.array([[1 - b20[j], b20[j]], [1 - b21[j], b21[j]]]),
    )


def _per_block_terms(pxu, u_sizes, z, mu):
    """I(X;W), TC and the gradient in z of I + mu * max(TC, 0) (nats) for one
    logit vector, each mass formed and differentiated block by block:
    dI/dq(w|u) = sum_x p(x,u) log p(x,w) - p(u) log p(w) and
    dTC/dq(w|u) = -p(u) [sum_i log p(u_i,w) - log p(u,w) - (n-1) log p(w)]."""
    nx, nu = pxu.shape
    n = len(u_sizes)
    zb = z.reshape(nu, -1)
    K = zb.shape[1]
    e = np.exp(zb - zb.max(axis=1, keepdims=True))
    q = e / e.sum(axis=1, keepdims=True)
    pu, px = pxu.sum(axis=0), pxu.sum(axis=1)
    juw = pu[:, None] * q
    jxw = pxu @ q
    pw = juw.sum(axis=0)
    shaped = juw.reshape(tuple(u_sizes) + (K,))
    margins = [shaped.sum(axis=tuple(a for a in range(n) if a != i)) for i in range(n)]

    def log0(m):
        return np.log(np.where(m > 0, m, 1.0))

    def mlogm(m):
        return float((m * log0(m)).sum())

    hw = -mlogm(pw)
    i_xw = hw + mlogm(jxw) - mlogm(px)
    tc = mlogm(juw) - sum(mlogm(m) for m in margins) - (n - 1) * hw
    log_ui = sum(log0(m).reshape([u_sizes[i] if a == i else 1 for a in range(n)] + [K])
                 for i, m in enumerate(margins))
    c = mu if tc > 0 else 0.0
    dtc = -pu[:, None] * (np.reshape(log_ui, (nu, K)) - log0(juw) - (n - 1) * log0(pw))
    g = pxu.T @ log0(jxw) - pu[:, None] * log0(pw) + c * dtc
    return i_xw, tc, (q * (g - (q * g).sum(axis=1, keepdims=True))).reshape(-1)


def _prob_terms(pxu, u_sizes, q):
    """I(X;W) and TC(U_1, .., U_n | W) in nats from the (W, X) and (W, U)
    joints, through witl.prob."""
    K = q.shape[1]
    jwx = JointPmf((K, pxu.shape[0]), (pxu @ q).T)
    jwu = JointPmf((K, *u_sizes), (pxu.sum(axis=0)[:, None] * q).T.reshape((K, *u_sizes)))
    hw = entropy(marginalize(jwu, [0]))
    tc = sum(entropy(marginalize(jwu, [0, i + 1])) - hw for i in range(len(u_sizes)))
    tc -= entropy(jwu) - hw
    return mutual_information(jwx, [0]) * LOG2, tc * LOG2


def _zero_cell_pair():
    p = JointPmf((2, 3), np.array([[0.3, 0.0, 0.2], [0.1, 0.25, 0.15]]))
    return np.diag(p.mass.reshape(-1)), (2, 3), 3


class TestOneLinearMap:
    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("mu", [0.0, 1.0, 1e3])
    def test_terms_match_prob_and_the_per_block_formula(self, case, mu):
        pxu, sizes, K = (_descent_pairs() + [_zero_cell_pair()])[case]
        terms = _descent_terms(pxu, sizes)
        z = np.random.default_rng(30 + case).normal(scale=2.0, size=(2, 3, pxu.shape[1] * K))
        stacked = terms(z, mu)
        for idx in [()] + list(np.ndindex(2, 3)):
            q, i_xw, tc, obj, grad = terms(z[0, 0], mu) if idx == () else [v[idx] for v in stacked]
            want_i, want_tc = _prob_terms(pxu, sizes, q)
            assert abs(i_xw - want_i) <= 1e-12 and abs(tc - want_tc) <= 1e-12
            ref_i, ref_tc, ref_grad = _per_block_terms(pxu, sizes, z[idx or (0, 0)], mu)
            assert abs(i_xw - ref_i) <= 1e-12 and abs(tc - ref_tc) <= 1e-12
            assert obj == i_xw + mu * max(tc, 0.0)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    def test_zero_mass_cell_gives_finite_terms_without_warnings(self):
        pxu, sizes, K = _zero_cell_pair()
        z = np.random.default_rng(3).normal(scale=2.0, size=(4, pxu.shape[1] * K))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _descent_terms(pxu, sizes)(z, 1e3)
        assert all(np.all(np.isfinite(v)) for v in out)


def test_descent_calls_minimize_once_per_stage(monkeypatch):
    # a profiler wraps the module attribute common_info.minimize; a descent
    # that called anything else would leave that wrapper counting nothing
    calls = []
    real = common_info.minimize

    def counted(fun, x0):
        calls.append(np.shape(x0))
        return real(fun, x0)

    monkeypatch.setattr(common_info, "minimize", counted)
    pxu, sizes, K = _descent_pairs()[0]
    _penalized_descent(pxu, sizes, K, SolveBudget(restarts=3))
    assert calls == [(3, pxu.shape[1] * K)] * common_info.DESCENT_STAGES


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

    def test_shortlist_matches_full_grid_at_default_resolution(self):
        sources = [
            dsbs(0.1),  # p1 = 0.5 lies on the grid
            random_source(0, (2, 2)),
            random_source(1, (2, 2)),
            JointPmf((2, 2), np.array([[0.3, 0.0], [0.25, 0.45]])),
            JointPmf((2, 2), np.outer([0.3, 0.7], [0.6, 0.4])),
            # no pair is surely feasible: every candidate is rescored
            JointPmf((2, 2), np.array([[0.5, 0.0], [0.0, 0.5]])),
        ]
        for p in sources:
            sol = _exhaustive_2x2(p, SolveBudget())
            pw, rows1, rows2 = _grid_reference(p, 1e-3)
            np.testing.assert_array_equal(sol.pw, pw)
            np.testing.assert_array_equal(sol.channels[0].rows, rows1)
            np.testing.assert_array_equal(sol.channels[1].rows, rows2)

    def test_independent_sources_return_before_the_grid(self, monkeypatch):
        # the constant W is the answer the grid cannot hold (b10 == b11), so
        # an independent source never reaches block-1 scoring
        def scored(*args):
            raise AssertionError("the grid was scored")

        monkeypatch.setattr(common_info, "_block1_scores", scored)
        for mass in ([[0.0, 0.45], [0.0, 0.55]], [[0.0, 0.756], [2.4e-10, 0.244]],
                     np.outer([0.3, 0.7], [0.6, 0.4])):
            sol = _exhaustive_2x2(JointPmf((2, 2), np.array(mass)), SolveBudget())
            np.testing.assert_array_equal(sol.pw, [0.5, 0.5])
            assert sol.achieved_I == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shortlist_pick_and_rounding_margin(self, seed):
        p = JointPmf((2, 2), np.random.default_rng(seed).dirichlet(np.ones(4)).reshape(2, 2))
        sol = _exhaustive_2x2(p, SolveBudget(grid_resolution=1e-2))
        pw, rows1, rows2 = _grid_reference(p, 1e-2)
        np.testing.assert_array_equal(sol.pw, pw)
        np.testing.assert_array_equal(sol.channels[0].rows, rows1)
        np.testing.assert_array_equal(sol.channels[1].rows, rows2)
        # the approximate block-1 scores stay far inside the shortlist's slack
        p1, p2, p11 = float(p.mass[1].sum()), float(p.mass[:, 1].sum()), float(p.mass[1, 1])
        grid = np.linspace(0.0, 1.0, 101)
        below, above, score, _ = _block1_scores(p1, p2, p11, grid)
        b10, b11 = grid[below][:, None], grid[above][None, :]
        piw = (p1 - b11) / (b10 - b11)
        b20 = (b11 * p2 - p11) / (piw * (b11 - b10))
        b21 = (p11 - b10 * p2) / ((1.0 - piw) * (b11 - b10))
        feas = (piw > 1e-9) & (piw < 1 - 1e-9)
        for b in (b20, b21):
            feas &= (b >= -1e-12) & (b <= 1 + 1e-12)
        hxw = piw * (_h_bits(b10) + _h_bits(np.clip(b20, 0.0, 1.0)))
        hxw += (1.0 - piw) * (_h_bits(b11) + _h_bits(np.clip(b21, 0.0, 1.0)))
        assert np.all(np.abs(score - hxw)[feas] <= _SCORE_SLACK / 1000)


class TestSerialization:
    def test_round_trip(self):
        sol = solve_common_info(dsbs(), K=2)
        back = CommonInfoSolution.from_json_obj(sol.to_json_obj())
        np.testing.assert_allclose(back.pw, sol.pw, atol=1e-12)
        assert back.achieved_I == pytest.approx(sol.achieved_I, abs=1e-12)
        for a, b in zip(back.channels, sol.channels):
            np.testing.assert_allclose(a.rows, b.rows, atol=1e-12)
