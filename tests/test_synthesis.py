import math

import numpy as np
import pytest

from witl.common_info import solve_common_info
from witl.prob import ConditionalPmf, JointPmf, ProbabilityError
from witl.synthesis import (
    BudgetExceeded,
    GeneratorSpec,
    build_generator,
    exact_delta,
)

KL_UNIF_VS_DSBS = 0.38011768674452667  # D(uniform product || DSBS a0=0.18)


def dsbs(a1=0.1):
    p11 = (1 - a1) ** 2 * 0.5 + a1**2 * 0.5
    p10 = a1 * (1 - a1)
    return JointPmf((2, 2), np.array([[p11, p10], [p10, p11]]))


def marginal_product_generator(n):
    """Single codeword, channels equal to the coordinate marginals."""
    uni = ConditionalPmf(1, (2,), np.array([[0.5, 0.5]]))
    return GeneratorSpec(n=n, M=1, codebook=np.zeros((1, n), dtype=int), channels=(uni, uni))


class TestBuildGenerator:
    def test_m_from_rate(self):
        sol = solve_common_info(dsbs(), K=2)
        assert build_generator(sol, 4, 0.0).M == 1
        assert build_generator(sol, 8, 1.0).M == 256

    def test_codebook_shape_and_alphabet(self):
        sol = solve_common_info(dsbs(), K=2)
        gen = build_generator(sol, 5, 0.5, seed=3)
        assert gen.codebook.shape == (gen.M, 5)
        assert gen.codebook.min() >= 0 and gen.codebook.max() < sol.pw.size

    def test_deterministic_by_seed(self):
        sol = solve_common_info(dsbs(), K=2)
        g1 = build_generator(sol, 6, 0.8, seed=11)
        g2 = build_generator(sol, 6, 0.8, seed=11)
        np.testing.assert_array_equal(g1.codebook, g2.codebook)

    def test_budget_guard(self):
        sol = solve_common_info(dsbs(), K=2)
        with pytest.raises(BudgetExceeded):
            build_generator(sol, 16, 1.5)

    @pytest.mark.parametrize("R0", [0.5, 0.94])
    def test_type_mode_lexicographic_then_cyclic(self, R0):
        sol = solve_common_info(dsbs(), K=2)
        n = 8
        gen = build_generator(sol, n, R0, mode="type")
        cb = gen.codebook
        counts = np.bincount(cb[0], minlength=sol.pw.size)
        assert np.all(np.abs(counts - n * sol.pw) < 1)
        for row in cb:
            np.testing.assert_array_equal(np.bincount(row, minlength=sol.pw.size), counts)
        size = math.factorial(n) // math.prod(math.factorial(int(c)) for c in counts)
        distinct = min(gen.M, size)
        for a, b in zip(cb[: distinct - 1], cb[1:distinct]):
            assert tuple(a) < tuple(b)
        for i in range(distinct, gen.M):
            np.testing.assert_array_equal(cb[i], cb[i % size])
        assert len(np.unique(cb, axis=0)) == distinct

    def test_bad_arguments(self):
        sol = solve_common_info(dsbs(), K=2)
        with pytest.raises(ProbabilityError):
            build_generator(sol, 0, 0.5)
        with pytest.raises(ProbabilityError):
            build_generator(sol, 4, -0.5)


class TestExactDelta:
    def test_marginal_product_single_letter_identity(self):
        for n in (1, 2, 3, 5):
            res = exact_delta(marginal_product_generator(n), dsbs())
            assert res.delta == pytest.approx(KL_UNIF_VS_DSBS, abs=1e-9)

    def test_perfect_two_codeword_cover(self):
        sol = solve_common_info(dsbs(), K=2)
        k = sol.pw.size
        gen = GeneratorSpec(
            n=1, M=k, codebook=np.arange(k).reshape(k, 1), channels=sol.channels
        )
        # uniform weights on the solution's W alphabet reproduce p exactly only
        # when p(w) is uniform; the DSBS optimum is symmetric so it is
        res = exact_delta(gen, dsbs())
        assert res.delta == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_and_exchange_symmetric(self):
        sol = solve_common_info(dsbs(), K=2)
        gen = build_generator(sol, 4, 0.9, seed=2)
        res = exact_delta(gen, dsbs())
        assert res.delta >= 0.0
        swapped = GeneratorSpec(
            n=gen.n, M=gen.M, codebook=gen.codebook,
            channels=(gen.channels[1], gen.channels[0]),
        )
        res2 = exact_delta(swapped, dsbs())
        assert res2.delta == pytest.approx(res.delta, abs=1e-12)

    def test_trend_with_rate_above_capacity(self):
        sol = solve_common_info(dsbs(), K=2)
        r0 = sol.achieved_I + 0.2
        averages = []
        for n in (2, 4, 6):
            vals = [
                exact_delta(build_generator(sol, n, r0, seed=s), dsbs()).delta
                for s in range(10)
            ]
            averages.append(float(np.mean(vals)))
        assert all(a >= b - 1e-12 for a, b in zip(averages, averages[1:]))

    def test_type_mode_variance_free(self):
        sol = solve_common_info(dsbs(), K=2)
        g1 = build_generator(sol, 4, 0.6, seed=0, mode="type")
        g2 = build_generator(sol, 4, 0.6, seed=99, mode="type")
        assert exact_delta(g1, dsbs()).delta == pytest.approx(
            exact_delta(g2, dsbs()).delta, abs=1e-15
        )
