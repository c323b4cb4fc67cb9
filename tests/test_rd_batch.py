"""The batched Blahut-Arimoto kernel, its fixed-point solve and dual Hessian,
and the scalar Newton search built on them: one cold call on doubling slopes,
then safeguarded Newton steps on the dual, one warm-started kernel call each,
run in lockstep over a stack of independent queries."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import witl.audit as audit
import witl.rd as rd
from witl.audit import random_source
from witl.closed_form import DsbsParams, dsbs_conditional_rd
from witl.prob import LOG2, JointPmf, binary_entropy, entropy, marginalize, mutual_information
from witl.rd import (
    DistortionSpec,
    InfeasibleDistortion,
    SweepResolutionError,
    _ba_batch,
    ba_conditional_rd,
    ba_rate_distortion,
    coordinate_rd_values,
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


def certified_gaps(monkeypatch):
    """Record every kernel call's per-entry dual gap in nats, recomputed from
    the returned channel W alone: log max_y sum_x p(x) a(x, y) / (a q)(x) at
    q = p W. A converged entry reads below RATE_TOL; one cut off by the
    iteration cap reads above it."""
    gaps = []
    real = rd._ba_batch

    def recorded(px, cost, *args, **kwargs):
        out = real(px, cost, *args, **kwargs)
        a = np.exp(-np.asarray(cost, dtype=float))
        p = np.broadcast_to(np.asarray(px, dtype=float), a.shape[:2])
        q = np.einsum("bx,bxh->bh", p, out[1])
        z = np.einsum("bxh,bh->bx", a, q)
        ratio = np.divide(p, z, out=np.zeros_like(p), where=p > 0)
        gaps.append(np.log(np.einsum("bx,bxh->bh", ratio, a).max(axis=1)))
        return out

    monkeypatch.setattr(rd, "_ba_batch", recorded)
    return gaps


class TestKernelCertifies:
    """Queries near critical slopes, where plain alternation crawls: every
    kernel call ends on its certificate, not on its iteration cap."""

    @staticmethod
    def assert_certified(gaps):
        assert gaps
        capped = [i for i, g in enumerate(gaps) if np.any(g >= rd.RATE_TOL)]
        assert not capped, f"calls {capped} of {len(gaps)} ended above RATE_TOL"

    def test_cold_joint_sweep(self, monkeypatch):
        monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
        gaps = certified_gaps(monkeypatch)
        p, d = random_source(1000, (3, 3)), DistortionSpec.hamming((3, 3))
        zero = [float(np.min(marginalize(p, [i]).mass @ d.matrices[i])) for i in range(2)]
        rd.ba_joint_rd(p, d, (0.8 * zero[0], 0.8 * zero[1]))
        self.assert_certified(gaps)

    def test_conditional_near_kink(self, monkeypatch):
        # X1 | X2 at 0.95 of the distortion of guessing X1 from X2
        gaps = certified_gaps(monkeypatch)
        p = random_source(1002, (3, 3))
        zero = float(1.0 - p.mass.max(axis=0).sum())
        ba_conditional_rd(p, DistortionSpec.hamming((3,)), 0.95 * zero)
        self.assert_certified(gaps)

    def test_dsbs_joint_ascent(self, monkeypatch):
        monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
        gaps = certified_gaps(monkeypatch)
        a1 = 0.3
        same, diff = 0.5 * ((1 - a1) ** 2 + a1**2), a1 * (1 - a1)
        p = JointPmf((2, 2), np.array([[same, diff], [diff, same]]))
        rd.ba_joint_rd(p, DistortionSpec.hamming((2, 2)), (0.2726, 0.3232))
        self.assert_certified(gaps)

    @pytest.mark.parametrize("seed", [1000, 1009, 1011])
    def test_cold_sweep_certified_without_eigendecomposition(self, monkeypatch, seed):
        # the kernel's Newton step is an LU solve, eigh serves only the curvature;
        # 1009 and 1011 held a growing letter near 1e-9 mass in the former 16x16 sweep
        monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
        gaps, in_kernel = certified_gaps(monkeypatch), []
        real_kernel, real_eigh = rd._ba_batch, np.linalg.eigh

        def kernel(*args, **kwargs):
            in_kernel.append(True)
            try:
                return real_kernel(*args, **kwargs)
            finally:
                in_kernel.pop()

        def eigh(*args, **kwargs):
            assert not in_kernel, "np.linalg.eigh called in the kernel"
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(rd, "_ba_batch", kernel)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        p, d = random_source(seed, (3, 3)), DistortionSpec.hamming((3, 3))
        rd.ba_joint_rd(p, d, start_target(p, d))
        (planes,) = rd._SWEEP_CACHE.values()
        start = list(planes)[: len(rd._DOUBLING_SLOPES)]
        assert gaps[0].size == len(rd._DOUBLING_SLOPES)
        assert all(np.isfinite(flb) for _, _, flb in start)
        self.assert_certified(gaps)

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("seed", range(1000, 1024))
    def test_joint_start_certified(self, monkeypatch, seed, sizes):
        # a 16x16 sweep capped at 2,500 iterations ended five entries open
        # on the 3x3 sources 1014, 1016 and 1023
        monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
        gaps = certified_gaps(monkeypatch)
        p, d = random_source(seed, sizes), DistortionSpec.hamming(sizes)
        rd.ba_joint_rd(p, d, start_target(p, d))
        assert gaps[0].size == len(rd._DOUBLING_SLOPES)
        assert all(g.size == 1 for g in gaps[1:])
        self.assert_certified(gaps)


def start_target(p: JointPmf, d: DistortionSpec):
    """Half of each marginal's zero-rate distortion: no reproduction pair meets
    it, so a joint query on a new source makes its diagonal start."""
    return tuple(0.5 * float(np.min(marginalize(p, [i]).mass @ d.matrices[i])) for i in range(2))


def upper_values(px, cost, cond):
    """V(q) = -sum_x p(x) log (a q)(x) in nats at each entry's output pmf
    q = p W of the returned channel W: the Lagrangian minimum is at most it."""
    a = np.exp(-cost)
    p = np.broadcast_to(px, a.shape[:2])
    z = np.einsum("bxh,bh->bx", a, np.einsum("bx,bxh->bh", p, cond))
    with np.errstate(divide="ignore"):
        logs = np.where(p > 0, np.log(z), 0.0)
    return -np.einsum("bx,bx->b", p, logs)


class TestSingularLinearization:
    """Zero-mass letters, X̂_i letters duplicated at s_i = 0 and the infinite
    costs of zero-distortion masks make the Newton step's matrix exactly
    singular; its ridge keeps every LU solve defined."""

    @given(
        st.integers(2, 4),
        st.integers(2, 3),
        st.lists(st.integers(0, 6), min_size=12, max_size=12),
        st.lists(st.integers(0, 3), min_size=25, max_size=25),
        st.booleans(),
        st.floats(0.0, 64.0),
        st.floats(0.0, 64.0),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_linalg_error_and_bounds_below_upper_value(self, n1, n2, raw, raw_d, hamming, s1, s2, warm):
        mass = np.array(raw[: n1 * n2], dtype=float)
        assume(mass.sum() > 0)
        p = JointPmf((n1, n2), (mass / mass.sum()).reshape(n1, n2))
        if hamming:
            d = DistortionSpec.hamming((n1, n2))
        else:
            mats = (np.array(raw_d[: n1 * n1], dtype=float).reshape(n1, n1),
                    np.array(raw_d[n1 * n1 : n1 * n1 + n2 * n2], dtype=float).reshape(n2, n2))
            d = DistortionSpec(mats, (n1, n2))
        px, dm = rd._joint_problem(p, d)
        slopes = np.array([[s1, 0.0], [0.0, s2], [0.0, 0.0], [s1, s2]])
        cost = LOG2 * np.einsum("ni,ixh->nxh", slopes, dm)
        q0 = None
        if warm is not None:
            # a sparse warm start: most letters near zero, some exactly zero
            q0 = np.random.default_rng(warm).dirichlet(np.full(dm.shape[2], 0.1), size=len(cost))
            q0[q0 < 1e-3] = 0.0
            assume(np.all(q0.sum(axis=1) > 0))
        # and the zero-distortion mask of each coordinate's least-distortion letters
        mask = np.stack([m == m.min(axis=1, keepdims=True) for m in dm])
        masked = np.where(mask, 0.0, np.inf)
        for c, w in ((cost, q0), (masked, None)):
            rates, cond, flb = _ba_batch(px, c, q0=w)
            assert np.all(np.isfinite(rates))
            assert np.all(flb <= upper_values(px, c, cond) + 1e-12)


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


class TestFixedPointSolve:
    @given(weights, weights, st.floats(0.2, 40.0), st.floats(0.2, 40.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_pseudo_inverse_applied(self, raw_px, raw_q, s1, s2, seed):
        # a 3x2 source under Hamming at slopes (s1, s2) and (s1, 0): at s2 = 0
        # the cost ignores X̂2, so each X̂1 letter appears twice and M is
        # singular; slopes up to 40 give letters near 2^-40 mass, whose
        # eigenvalues are kept only under a cutoff as small as pinv's
        p = JointPmf((3, 2), np.array(raw_px, dtype=float).reshape(3, 2) / sum(raw_px))
        px, dm = rd._joint_problem(p, DistortionSpec.hamming((3, 2)))
        a = np.exp(-LOG2 * np.einsum("ni,ixh->nxh", np.array([[s1, s2], [s1, 0.0]]), dm))
        raw = np.array(raw_q, dtype=float) * a
        cond = raw / raw.sum(axis=-1, keepdims=True)
        joint = px[:, None] * cond
        q = joint.sum(axis=-2)
        c = np.einsum("x,nxh->nh", px, a / (a @ q[..., None]))
        m = np.einsum("nxh,nxk->nhk", joint, cond) + (q * np.maximum(1.0 - c, 0.0))[..., None] * np.eye(6)
        # random right-hand sides reach the dropped directions too
        rng = np.random.default_rng(seed)
        for rhs in (rng.standard_normal((2, 6, 1)), rng.standard_normal((2, 6, 2))):
            got = rd._fixed_point_solve(joint, cond, q, c, rhs)
            ref = np.linalg.pinv(m, hermitian=True) @ rhs
            err = np.linalg.norm(got - ref, axis=(1, 2))
            assert np.all(err <= 1e-10 * np.linalg.norm(ref, axis=(1, 2)))


class TestDualHessian:
    @pytest.mark.parametrize("seed, sizes", [(1000, (3, 3)), (1001, (2, 2)), (1002, (2, 3))])
    def test_matches_central_differences(self, seed, sizes):
        # certified F* (nats) on a 3x3 stencil of slopes in bits around s; the
        # Hessian is per nat of slope, hence the LOG2**2
        px, dm = rd._joint_problem(random_source(seed, sizes), DistortionSpec.hamming(sizes))
        s, h = np.array([1.3, 0.8]), 1e-3
        stencil = h * np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)])
        _, cond, flb = _ba_batch(px, LOG2 * np.einsum("ni,ixh->nxh", s + stencil, dm))
        f = flb.reshape(3, 3)
        cross = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / 4.0
        fd = np.array([[f[2, 1] - 2.0 * f[1, 1] + f[0, 1], cross],
                       [cross, f[1, 2] - 2.0 * f[1, 1] + f[1, 0]]]) / h**2
        hess, _ = rd._dual_hessian(px, cond[4], dm, s)
        assert np.abs(LOG2**2 * hess - fd).max() <= 1e-4 * np.abs(fd).max()


class TestNearZeroRateBoundary:
    @pytest.mark.parametrize("share", [0.95, 0.99])
    def test_dsbs_conditional_near_a1(self, share):
        # X = S through a BSC(a1) given the common bit S: h(a1) - h(D)
        a1 = 0.266
        p = JointPmf((2, 2), 0.5 * np.array([[1 - a1, a1], [a1, 1 - a1]]))
        D = share * a1
        pt = ba_conditional_rd(p, DistortionSpec.hamming((2,)), D)
        assert pt.rate == pytest.approx(dsbs_conditional_rd(DsbsParams.from_a1(a1), D), abs=1e-7)


#: shares of the zero-rate distortion, up to the kink where the rate reaches 0
CERTIFIED_SHARES = [0.5, 0.9, 0.99, 0.999, 0.9999]


class TestCertifiedScalarRate:
    """The reported rate is a certified dual bound: never above the closed
    form beyond rounding, and close below it away from the kink. The
    reported point meets the target."""

    @staticmethod
    def check(pt, D, exact, share):
        assert pt.rate - exact <= 1e-12
        if share <= 0.99:
            assert exact - pt.rate <= 1e-9
        assert pt.distortion[0] <= D

    @pytest.mark.parametrize("share", CERTIFIED_SHARES)
    def test_dsbs_conditional(self, share):
        for a1 in np.linspace(0.05, 0.3, 11):
            p = JointPmf((2, 2), 0.5 * np.array([[1 - a1, a1], [a1, 1 - a1]]))
            D = share * a1
            pt = ba_conditional_rd(p, DistortionSpec.hamming((2,)), D)
            self.check(pt, D, dsbs_conditional_rd(DsbsParams.from_a1(a1), D), share)

    @pytest.mark.parametrize("share", CERTIFIED_SHARES)
    def test_bernoulli_marginal(self, share):
        for theta in np.linspace(0.1, 0.5, 9):
            p = JointPmf((2,), np.array([1 - theta, theta]))
            D = share * theta
            pt = ba_rate_distortion(p, DistortionSpec.hamming((2,)), D)
            self.check(pt, D, binary_entropy(theta) - binary_entropy(D), share)


def kernel_calls(monkeypatch):
    """Count the kernel calls that rd makes."""
    calls = []
    real = rd._ba_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rd, "_ba_batch", counted)
    return calls


class TestNewtonSearchBudget:
    """The doubling round and the Newton steps after it take at most ten
    kernel calls per query on the grids of TestCertifiedScalarRate."""

    @pytest.mark.parametrize("share", [0.2, 0.5, 0.9])
    def test_dsbs_conditional_and_bernoulli_marginal(self, monkeypatch, share):
        calls = kernel_calls(monkeypatch)
        hamming = DistortionSpec.hamming((2,))
        queries = [
            (ba_conditional_rd, JointPmf((2, 2), 0.5 * np.array([[1 - a1, a1], [a1, 1 - a1]])), share * a1)
            for a1 in np.linspace(0.05, 0.3, 11)
        ] + [
            (ba_rate_distortion, JointPmf((2,), np.array([1 - theta, theta])), share * theta)
            for theta in np.linspace(0.1, 0.5, 9)
        ]
        for query, p, D in queries:
            before = len(calls)
            query(p, hamming, D)
            assert len(calls) - before <= 10, (query.__name__, p.mass.tolist(), D)


def conditional_zero_rate_distortions(p: JointPmf, d: DistortionSpec):
    """Least D_i at which R_{X_i | X_j}(D_i) is 0, for i = 0, 1 of a pair."""
    return [float((m.T @ d.matrices[i]).min(axis=1).sum()) for i, m in enumerate((p.mass, p.mass.T))]


def audit_queries(p: JointPmf, d: DistortionSpec, share: float):
    """Both marginal and both conditional queries at a share of each
    coordinate's conditional zero-rate distortion."""
    D = [share * z for z in conditional_zero_rate_distortions(p, d)]
    return [(0, None, D[0]), (1, None, D[1]), (0, 1, D[0]), (1, 0, D[1])]


def design_audits():
    """The 72 lemma-1 audits of the design sources random_source(1000..1011) in
    3x3 and 2x2, at three share pairs of the conditional zero-rate distortions."""
    for i in range(12):
        for sizes in ((3, 3), (2, 2)):
            p, d = random_source(1000 + i, sizes), DistortionSpec.hamming(sizes)
            zero = conditional_zero_rate_distortions(p, d)
            for s1, s2 in ((0.1, 0.8), (0.45, 0.45), (0.8, 0.1)):
                yield p, d, (s1 * zero[0], s2 * zero[1])


def assert_stacked_equals_separate(p: JointPmf, d: DistortionSpec, queries):
    stacked = coordinate_rd_values(p, d, queries)
    for query, pt in zip(queries, stacked):
        alone = coordinate_rd_values(p, d, [query])[0]
        assert abs(pt.rate - alone.rate) <= 1e-12, query
        assert pt.distortion == pytest.approx(alone.distortion, rel=0, abs=1e-9), query
        assert pt.multipliers == pytest.approx(alone.multipliers, rel=0, abs=1e-8), query
        assert (pt.test_channel is None) == (alone.test_channel is None)
        if pt.test_channel is not None:
            np.testing.assert_allclose(pt.test_channel.rows, alone.test_channel.rows, rtol=0, atol=1e-9)


class TestLockstepSearch:
    """Queries searched in one stack, one kernel call per round padded to the
    round's largest shape, answer as their one-query searches do, up to the
    kernel's stopping tolerance."""

    @pytest.mark.parametrize("sizes", [(3, 3), (2, 2), (2, 3)])
    def test_stacked_equals_separate_on_design_sources(self, sizes):
        d = DistortionSpec.hamming(sizes)
        for seed in range(1000, 1012):
            p = random_source(seed, sizes)
            queries = [q for share in (0.1, 0.45, 0.8, 0.999) for q in audit_queries(p, d, share)]
            assert_stacked_equals_separate(p, d, queries)

    @given(st.sampled_from([(2, 2), (3, 2), (2, 3)]), weights, st.floats(0.0, 1.1), st.floats(0.0, 1.1))
    @settings(max_examples=40, deadline=None)
    def test_stacked_equals_separate_on_integer_weights(self, sizes, raw, share_a, share_b):
        mass = np.array(raw[: sizes[0] * sizes[1]], dtype=float).reshape(sizes)
        if mass.sum() == 0:
            return
        p = JointPmf(sizes, mass / mass.sum())
        d = DistortionSpec.hamming(sizes)
        assert_stacked_equals_separate(p, d, audit_queries(p, d, share_a) + audit_queries(p, d, share_b))

    def test_audit_takes_at_most_ten_calls(self, monkeypatch):
        # the joint query shares the scalar queries' rounds; asked after them, in
        # its own calls, an audit took up to 16
        monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
        calls = kernel_calls(monkeypatch)
        per_audit = []
        for p, d, D in design_audits():
            before = len(calls)
            assert audit.audit_lemma1(p, d, *D).passed
            per_audit.append(len(calls) - before)
        assert max(per_audit) <= 10 and np.mean(per_audit) <= 6.5, per_audit

    def test_audit_equals_queries_asked_separately(self, monkeypatch):
        # entries that share a kernel call share its check cadence, so each
        # bound moves within its stopping tolerance: the joint query's, RATE_TOL
        # nats, is 1.44e-10 bits (5.1e-12 bits seen on these audits); each mode
        # keeps its own plane store, as one process would
        stores = {"lockstep": {}, "separate": {}}
        real = audit.coordinate_rd_values

        def separate(p, d, queries):
            return [real(p, d, [q])[0] for q in queries]

        for p, d, D in design_audits():
            reports = {}
            for mode, values in (("lockstep", real), ("separate", separate)):
                monkeypatch.setattr(rd, "_SWEEP_CACHE", stores[mode])
                monkeypatch.setattr(audit, "coordinate_rd_values", values)
                reports[mode] = audit.audit_lemma1(p, d, *D).checks
            for got, ref in zip(reports["lockstep"], reports["separate"]):
                assert got.verdict == ref.verdict, (got, ref)
                assert abs(got.lhs - ref.lhs) <= 1e-10 and abs(got.rhs - ref.rhs) <= 1e-10, (got, ref)

    @pytest.mark.parametrize("warm", [False, True])
    def test_padded_round_equals_separate_calls(self, monkeypatch, warm):
        # the 35-entry doubling round of a source's three scalar audit queries
        # with its joint query's first, larger request: the 7-entry start of a
        # new source, or a warm trial on a stored one; in one call and in two.
        # A padded letter changes nothing, but the entries of a call share its
        # check cadence, so each bound ends within its tolerance RATE_TOL of F*
        # either way; channels moved by up to 7.1e-9 on the 48 design sources
        for sizes in ((3, 3), (2, 2)):
            for seed in range(1000, 1012):
                monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
                p, d = random_source(seed, sizes), DistortionSpec.hamming(sizes)
                D = [0.5 * z for z in conditional_zero_rate_distortions(p, d)]
                if warm:
                    rd.ba_joint_rd(p, d, (0.8 * D[0], 0.2 * D[1]))
                joint = rd._query(p, d, (0, 1), None, D).send(None)
                scalar = [rd._query(p, d, c, g, D[c]).send(None) for c, g in ((0, None), (1, None), (0, 1))]
                assert [len(r[1]) for r in (joint, *scalar)] == [1 if warm else 7, 7, 7, 7 * sizes[1]]
                assert (joint[2] is None) != warm
                together = rd._round_call([joint, *scalar])
                for got, ref in zip(together, rd._round_call([joint]) + rd._round_call(scalar)):
                    assert got[0].shape == ref[0].shape
                    assert np.abs(got[1] - ref[1]).max() < rd.RATE_TOL
                    assert np.abs(got[0] - ref[0]).max() <= 1e-7

    def test_joint_query_equals_ba_joint_rd_and_shares_its_store(self, monkeypatch):
        p, d = random_source(1000, (3, 3)), DistortionSpec.hamming((3, 3))
        D = tuple(0.5 * z for z in conditional_zero_rate_distortions(p, d))
        points = []
        for ask in (lambda: rd.ba_joint_rd(p, d, D), lambda: coordinate_rd_values(p, d, [((0, 1), None, D)])[0]):
            monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
            points.append(ask())
        assert points[0].rate == points[1].rate and points[0].distortion == points[1].distortion
        np.testing.assert_array_equal(points[0].test_channel.rows, points[1].test_channel.rows)
        rd.ba_joint_rd(p, d, (0.8 * D[0], D[1]))
        assert len(rd._SWEEP_CACHE) == 1

    def test_infeasible_last_query_raises_before_any_kernel_call(self, monkeypatch):
        calls = kernel_calls(monkeypatch)
        # every reproduction costs at least 0.1, so D = 0.05 is out of reach
        dmat = np.array([[0.1, 1.0], [1.0, 0.1]])
        d = DistortionSpec((dmat, dmat), (2, 2))
        with pytest.raises(InfeasibleDistortion):
            coordinate_rd_values(random_source(3), d, [(0, None, 0.3), (1, None, 0.3), (0, 1, 0.05)])
        assert calls == []


def channel_rate(px, channel) -> float:
    """I(X; X̂) in bits of a test channel on the source pmf px."""
    joint = px[:, None] * channel.rows
    return mutual_information(JointPmf(joint.shape, joint), [0])


class TestScalarQueryProperties:
    """Marginal (W = 1) and conditional queries on Dirichlet sources with 2-4
    letters, under Hamming distortion or a random nonnegative one: the point
    meets the target, closely under Hamming, the rate is no more than the
    test channel's, and R is nonincreasing."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.sampled_from([1, 2, 3]),
        st.booleans(),
        st.floats(0.05, 1.0),
        st.floats(0.02, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_meets_target_closely_and_nonincreasing(self, seed, nx, nw, hamming, share, step):
        rng = np.random.default_rng(seed)
        mass = rng.dirichlet(np.ones(nx * nw)).reshape(nx, nw)
        if hamming:
            d = DistortionSpec.hamming((nx,))
        else:
            dmat = rng.uniform(0.0, 1.0, size=(nx, int(rng.integers(2, 5))))
            d = DistortionSpec((dmat,), (dmat.shape[1],))
        dmat = d.matrices[0]
        least = float(mass.sum(axis=1) @ dmat.min(axis=1))
        d_at_zero = float((mass.T @ dmat).min(axis=1).sum())
        span = d_at_zero - least
        if nw == 1:
            p = JointPmf((nx,), mass[:, 0])
            query = ba_rate_distortion
        else:
            p = JointPmf((nx, nw), mass)
            query = ba_conditional_rd
        rates = []
        for D in (least + share * span, least + (share + step) * span):
            try:
                pt = query(p, d, D)
            except SweepResolutionError:
                # a narrow distortion range can need slopes beyond SLOPE_CAP;
                # such targets raise by policy and are outside this property
                assume(False)
            if D < d_at_zero - 1e-15:
                assert pt.distortion[0] <= D
                # a random measure can give R(D) a linear segment, where no
                # single slope's channel comes near D; Hamming gives none
                assert not hamming or D - pt.distortion[0] <= 1e-6 * span
            else:
                # the zero-rate branch takes targets within 1e-15 below d_at_zero
                assert pt.distortion[0] <= D + 1e-15
            if nw == 1:
                assert pt.rate <= channel_rate(p.mass, pt.test_channel) + 1e-12
            rates.append(pt.rate)
        assert rates[0] >= rates[1] - 1e-9


def erasure_segment_rate(D: float) -> float:
    """R(D) of a fair bit under d = [[0, 1, 0.3], [1, 0, 0.3]] for D on the
    segment from the all-erasure point (0.3, 0) to its tangent point t on
    1 - h(D), where (1 - h(t)) = log2((1 - t) / t) (0.3 - t), by bisection."""
    lo, hi = 0.05, 0.29
    for _ in range(100):
        t = 0.5 * (lo + hi)
        if np.log2((1 - t) / t) * (0.3 - t) > 1 - binary_entropy(t):
            lo = t
        else:
            hi = t
    return (1 - binary_entropy(t)) * D / (0.3 - t)


class TestErasureKink:
    def test_rate_on_the_linear_segment(self):
        # d(x, erasure) = 0.3 puts D = 0.15 on the segment of R(D) from the
        # all-erasure point (0.3, 0) to its tangent point on 1 - h(D): the dual
        # maximum sits at the kink slope, where the kernel slows down, and a
        # slope bracket search alone reports 0.3895096 bits
        d = DistortionSpec((np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.3]]),), (3,))
        p = JointPmf((2,), np.array([0.5, 0.5]))
        pt = ba_rate_distortion(p, d, 0.15)
        # tangent point: (1 - h(t)) = log2((1 - t) / t) (0.3 - t), by bisection
        lo, hi = 0.05, 0.29
        for _ in range(100):
            t = 0.5 * (lo + hi)
            if np.log2((1 - t) / t) * (0.3 - t) > 1 - binary_entropy(t):
                lo = t
            else:
                hi = t
        exact = (1 - binary_entropy(t)) * 0.15 / (0.3 - t)
        assert max(0.3895096, exact - 1e-6) <= pt.rate <= exact + 1e-12
        assert pt.rate <= channel_rate(p.mass, pt.test_channel)
        assert pt.distortion[0] <= 0.15

    def test_reaches_the_exact_rate_within_the_call_guard(self, monkeypatch):
        # the cuts of the evaluated slopes bracket the kink slope, where the
        # dual has a corner and Newton steps alone overshoot it both ways
        calls = kernel_calls(monkeypatch)
        d = DistortionSpec((np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.3]]),), (3,))
        rate = ba_rate_distortion(JointPmf((2,), np.array([0.5, 0.5])), d, 0.15).rate
        exact = erasure_segment_rate(0.15)
        assert exact - 1e-9 <= rate <= exact + 1e-12
        assert len(calls) <= rd.ASCENT_CALLS + 1


class TestNearLeastDistortion:
    @pytest.mark.parametrize("D", [1e-13, 5e-14])
    @pytest.mark.parametrize("mass", [[0.5, 0.5], [0.3, 0.7]])
    def test_certified_within_1e13_of_least(self, mass, D):
        # R at the least distortion would be an upper value here; the
        # supporting line at SLOPE_CAP is a certified lower one
        p = JointPmf((2,), np.array(mass))
        rate = ba_rate_distortion(p, DistortionSpec.hamming((2,)), D).rate
        assert -1e-10 <= rate - (entropy(p) - binary_entropy(D)) <= 1e-15


class TestFailurePolicy:
    def test_conditional_below_least_distortion(self):
        # every reproduction costs at least 0.1, whatever W says
        d = DistortionSpec((np.array([[0.1, 1.0], [1.0, 0.1]]),), (2,))
        p = JointPmf((2, 2), np.array([[0.3, 0.2], [0.1, 0.4]]))
        with pytest.raises(InfeasibleDistortion):
            ba_conditional_rd(p, d, 0.05)
        assert ba_conditional_rd(p, d, 0.1).distortion == pytest.approx((0.1,), abs=1e-15)

    @pytest.mark.parametrize(
        "dmat",
        [1.0 - np.eye(2), np.array([[0.1, 1.0], [1.0, 0.1]]), 0.01 * (1.0 - np.eye(2)),
         np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.3]])],
    )
    @pytest.mark.parametrize("mass", [[0.5, 0.5], [0.3, 0.7]])
    def test_marginal_equals_single_letter_conditional(self, dmat, mass):
        # 0.01 Hamming at D = 0.001 needs a slope beyond SLOPE_CAP, so both
        # raise instead of reporting a lossless or an unresolved point
        px = JointPmf((2,), np.array(mass))
        pxw = JointPmf((2, 1), np.array(mass)[:, None])
        d = DistortionSpec((dmat,), (dmat.shape[1],))
        for D in (-0.01, 0.0, 0.001, 0.004, 0.05, 0.1, 0.15, 0.3, 0.6):
            outcomes = []
            for query in (lambda: ba_rate_distortion(px, d, D), lambda: ba_conditional_rd(pxw, d, D)):
                try:
                    outcomes.append(query().rate)
                except (InfeasibleDistortion, SweepResolutionError) as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], D


class TestLeastDistortionPolicy:
    def test_marginal_conditional_and_joint_at_zero_distortion(self):
        # at D = 0 each query needs its slopes at SLOPE_CAP; under Hamming the
        # mixed channel is lossless and its rate certified, while 0.01 Hamming
        # leaves the supporting line there far below R, so all three raise
        a1 = 0.1
        same, diff = 0.5 * ((1 - a1) ** 2 + a1**2), a1 * (1 - a1)
        p = JointPmf((2, 2), np.array([[same, diff], [diff, same]]))
        for scale in (1.0, 0.01):
            d1 = DistortionSpec((scale * (1.0 - np.eye(2)),), (2,))
            d2 = DistortionSpec((scale * (1.0 - np.eye(2)),) * 2, (2, 2))
            queries = (lambda: ba_rate_distortion(marginalize(p, [0]), d1, 0.0),
                       lambda: ba_conditional_rd(p, d1, 0.0),
                       lambda: rd.ba_joint_rd(p, d2, (0.0, 0.0)))
            if scale == 1.0:
                h_cond = entropy(p) - 1.0  # H(X1 | X2) = h(P(X1 != X2))
                rates = [query().rate for query in queries]
                np.testing.assert_allclose(rates, [1.0, h_cond, 1.0 + h_cond], rtol=0, atol=1e-9)
                assert h_cond == pytest.approx(0.680, abs=1e-3)
            else:
                for query in queries:
                    with pytest.raises(SweepResolutionError):
                        query()


class TestZeroRateTarget:
    def test_distortion_never_above_target(self):
        # D = sum_w min_xhat sum_x p(x, w) d(x, xhat), summed in another order
        # than the search's own zero-rate distortion, so some D sit an ulp below it
        rng = np.random.default_rng(0)
        d = DistortionSpec.hamming((3,))
        ps = [JointPmf((3, 2), w / w.sum()) for w in rng.integers(0, 10, size=(3000, 3, 2)) if w.sum()]
        targets = [np.sum(np.min(p.mass.T @ d.matrices[0], axis=1)) for p in ps]
        # each query's zero-rate distortion from the components p(x | w) and
        # weights p(w) that the search forms, by the same expression
        pws = [p.mass.sum(axis=0) for p in ps]
        below = [D < pw[pw > 0] @ ((p.mass[:, pw > 0] / pw[pw > 0]).T @ d.matrices[0]).min(axis=1)
                 for p, pw, D in zip(ps, pws, targets)]
        assert sum(below) >= 100
        points = rd._lockstep([rd._query(p, d, 0, 1, D) for p, D in zip(ps, targets)])
        assert all(pt.distortion[0] <= D for pt, D in zip(points, targets))

    def test_one_query_at_a_time_makes_no_kernel_call(self, monkeypatch):
        # the zero-rate answer is checked before any kernel call, within 1e-15
        # of D, and mixed into D; a search that misses it runs up to 21 calls
        calls = kernel_calls(monkeypatch)
        rng = np.random.default_rng(0)
        d = DistortionSpec.hamming((3,))
        ps = [JointPmf((3, 2), w / w.sum()) for w in rng.integers(0, 10, size=(3000, 3, 2)) if w.sum()]
        for p in ps:
            D = np.sum(np.min(p.mass.T @ d.matrices[0], axis=1))
            pt = ba_conditional_rd(p, d, D)
            assert pt.rate == 0.0 and pt.distortion[0] <= D
        assert calls == []


class TestSubnormalMass:
    @pytest.mark.filterwarnings("error")
    def test_zero_distortion_with_subnormal_mass(self):
        # a subnormal mass makes some a q subnormal; a kernel entry divided by
        # it overflows, the gap reads inf and the entry runs to the iteration
        # cap, so the certificate must divide the source pmf instead
        mass = np.array([[1.0, 0.5], [0.25, 5e-324]])
        p = JointPmf((2, 2), mass / mass.sum())
        pt = ba_conditional_rd(p, DistortionSpec.hamming((2,)), 0.0)
        h_x_given_w = entropy(p) - entropy(marginalize(p, [1]))
        assert pt.rate == pytest.approx(h_x_given_w, abs=1e-9)
