"""Alternating-minimization solvers for marginal, conditional, and joint
rate-distortion functions on finite alphabets.

Distortion-constrained queries are answered by sweeping the Lagrangian slope:
the alternating update traces (D(lambda), R(lambda)) points on the curve, and a
query R(D) is recovered by a batched slope bracket search (marginal and
conditional problems) or by a cached two-multiplier sweep plus local
refinement (joint problems). Every query runs on one batched kernel,
``_ba_batch``, which takes a source pmf per batch entry: the bracket search
solves all components w of a conditional problem at several slopes per call,
warm-started from the previous round. Multipliers are in bits per distortion
unit throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .prob import LOG2, ConditionalPmf, JointPmf, ProbabilityError, marginalize

MAX_ITER = 10_000
RATE_TOL = 1e-10  # nats; certified dual-gap stopping criterion
SLOPE_CAP = 64.0  # bits per distortion unit
#: slopes of the scalar search's first round: 1, 2, 4, ..., SLOPE_CAP
_DOUBLING_SLOPES = 2.0 ** np.arange(int(np.log2(SLOPE_CAP)) + 1)
#: interior slopes per later round of the scalar search
BRACKET_POINTS = 7
JOINT_SLACK = 1e-6  # a sweep point "meets" (D1, D2) if achieved <= D_i + slack


class InfeasibleDistortion(ValueError):
    """Negative or otherwise unreachable distortion constraint."""


class SweepResolutionError(RuntimeError):
    """No sweep point came within the distortion slack of the query."""


@dataclass(frozen=True)
class DistortionSpec:
    """Per-coordinate distortion matrices d_i(x_i, xhat_i) >= 0."""

    matrices: tuple[np.ndarray, ...]
    repro_sizes: tuple[int, ...]

    def __post_init__(self):
        mats = []
        for m in self.matrices:
            arr = np.asarray(m, dtype=float)
            if arr.ndim != 2 or np.any(arr < 0):
                raise ProbabilityError("distortion matrices must be 2-D and nonnegative")
            arr.setflags(write=False)
            mats.append(arr)
        sizes = tuple(int(s) for s in self.repro_sizes)
        if len(sizes) != len(mats) or any(
            m.shape[1] != s for m, s in zip(mats, sizes)
        ):
            raise ProbabilityError("repro_sizes inconsistent with matrices")
        object.__setattr__(self, "matrices", tuple(mats))
        object.__setattr__(self, "repro_sizes", sizes)

    @classmethod
    def hamming(cls, alphabet_sizes) -> "DistortionSpec":
        """0/1 distortion with reproduction alphabet equal to the source's."""
        mats = tuple(1.0 - np.eye(int(s)) for s in alphabet_sizes)
        return cls(mats, tuple(int(s) for s in alphabet_sizes))

    @classmethod
    def from_json(cls, obj) -> "DistortionSpec":
        if obj == "hamming":
            raise ProbabilityError("'hamming' keyword needs alphabet sizes; use hamming()")
        try:
            mats = [np.asarray(m, dtype=float) for m in obj["matrices"]]
            sizes = obj.get("repro_sizes") or [m.shape[1] for m in mats]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ProbabilityError(f"bad distortion document: {exc}") from exc
        return cls(tuple(mats), tuple(sizes))

    def to_json_obj(self) -> dict:
        return {
            "matrices": [m.tolist() for m in self.matrices],
            "repro_sizes": list(self.repro_sizes),
        }

    def audit_mode_ok(self) -> bool:
        """d_i(x, x) = 0 and d_i(x, xhat) > 0 off-diagonal, square alphabets."""
        for m in self.matrices:
            if m.shape[0] != m.shape[1]:
                return False
            if np.any(np.diag(m) != 0):
                return False
            if np.any(m[~np.eye(m.shape[0], dtype=bool)] <= 0):
                return False
        return True


@dataclass(frozen=True)
class RdPoint:
    """A point on (or supporting) a rate-distortion curve."""

    distortion: tuple[float, ...]
    rate: float
    multipliers: tuple[float, ...]
    test_channel: ConditionalPmf | None = field(default=None, repr=False)


def _ba_batch(px, cost, max_iter=MAX_ITER, tol=RATE_TOL, q0=None):
    """Batched alternating minimization at fixed slopes.

    px: (nx,) source pmf shared by every entry, or (B, nx) one per entry;
    cost: (B, nx, nxh) slope-weighted cost exponents in *nats* (i.e. sum_i s_i
    * d_i with s in nats per distortion unit); q0: optional warm-start output
    pmf, (nxh,) or (B, nxh). Returns rates (B,) in bits, per-batch
    conditionals (B, nx, nxh), and certified lower bounds (B,) on the
    Lagrangian minimum in nats (valid at any iteration count, from the dual
    gap of the current output distribution).
    """
    cost = np.asarray(cost, dtype=float)
    bsz, nx, nxh = cost.shape
    a = np.exp(-cost)
    px = np.broadcast_to(np.asarray(px, dtype=float), (bsz, nx))
    if q0 is None:
        q = np.full((bsz, nxh), 1.0 / nxh)
    else:
        # warm start, floored away from the boundary so no letter is frozen out
        q = np.broadcast_to(np.asarray(q0, dtype=float), (bsz, nxh)) + 1e-9
        q = q / q.sum(axis=1, keepdims=True)
    cond_full = np.zeros((bsz, nx, nxh))
    rate_full = np.zeros(bsz)
    flb_full = np.full(bsz, -np.inf)

    def dual_certificate(q, a, px, support):
        """Upper value V(q) and dual gap, both in nats: the Lagrangian minimum
        satisfies V(q) - gap <= F* <= V(q)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.einsum("bh,bxh->bx", q, a)
            zsafe = np.where(z > 0, z, 1.0)
            v = -np.einsum("bx,bx->b", px, np.where(support, np.log(zsafe), 0.0))
            v = np.where(np.any((z <= 0) & support, axis=1), np.inf, v)
            ch = np.einsum("bx,bxh->bh", px / zsafe, a)
            gap = np.maximum(np.log(np.maximum(ch.max(axis=1), 1e-300)), 0.0)
        return v, gap

    # active-set iteration with periodic dual-gap checks: a batch entry drops
    # out once its certified gap is negligible, even while an unused
    # reproduction letter is still slowly losing its residual mass. Between
    # checks an iteration is two matrix-vector products, z = a q and
    # q <- q * a^T (px / z), the full update without forming the conditional;
    # the full update runs instead while some row has z = 0, since it spreads
    # such a row's mass uniformly.
    active = np.arange(bsz)
    check = 16
    for it in range(1, max_iter + 1):
        checking = it % check == 0 or it == max_iter
        if not checking:
            z = np.einsum("bxh,bh->bx", a, q)
            if z.min() > 0:
                q = q * np.einsum("bxh,bx->bh", a, px / z)
                continue
        raw = q[:, None, :] * a
        norm = raw.sum(axis=2, keepdims=True)
        cond = np.divide(raw, norm, out=np.full_like(raw, 1.0 / nxh), where=norm > 0)
        q = np.einsum("bx,bxh->bh", px, cond)
        if not checking:
            continue
        support = px > 0
        v, gap = dual_certificate(q, a, px, support)
        done = gap < tol
        if it == max_iter:
            done = np.ones_like(done)
        if np.any(done):
            idx = active[done]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(cond > 0, cond / np.maximum(q[:, None, :], 1e-300), 1.0)
                terms = np.where(cond > 0, cond * np.log(ratio), 0.0)
            r = np.einsum("bx,bxh->b", px, terms * support[:, :, None]) / LOG2
            rate_full[idx] = r[done]
            cond_full[idx] = cond[done]
            flb_full[idx] = np.where(np.isfinite(v[done]), v[done] - gap[done], -np.inf)
            if np.all(done):
                break
            keep = ~done
            active = active[keep]
            a = a[keep]
            q = q[keep]
            px = px[keep]
    return np.maximum(rate_full, 0.0), cond_full, flb_full


def _expected_distortions(px, cond, dmats):
    """E[d_i] for each batch entry; dmats: list of (nx, nxh) expanded matrices."""
    return [np.einsum("x,bxh,xh->b", px, cond, d) for d in dmats]


def _zero_distortion_rate(pxgw, dmat):
    """R at exactly zero distortion for each (W, nx) source row: BA restricted
    to the d = 0 support. Returns rates (W,) and conditionals (W, nx, nxh)."""
    mask = dmat == 0
    if np.any(~mask.any(axis=1) & (pxgw > 0)):
        raise InfeasibleDistortion("no zero-distortion reproduction for some symbol")
    cost = np.broadcast_to(np.where(mask, 0.0, np.inf), (len(pxgw), *dmat.shape))
    rates, conds, _ = _ba_batch(pxgw, cost)
    return rates, conds


def _scalar_query(pxgw, pw, dmat, target):
    """R_{X|W}(target) by a batched slope bracket search; W = 1 gives R_X.

    pxgw: (W, nx) component source pmfs with weights pw (W,). At a common
    slope the components decouple, so one kernel call solves every
    (component, slope) pair of a round and the pw-averaged rate and distortion
    trace the curve. The first round evaluates the doubling grid 1, 2, ...,
    SLOPE_CAP; each later round evaluates BRACKET_POINTS equally spaced slopes
    inside the bracket, warm-started from the output pmfs at the previous
    round's slope nearest the crossing, until the bracket is narrower than
    1e-12.

    Returns (rate_bits, slope_bits, distortion, conds, bracketed). The rate is
    the best supporting-line value rate + slope * (D(slope) - target) over the
    evaluated slopes; slope, distortion and the (W, nx, nxh) channels are
    those of that point. bracketed is False when even SLOPE_CAP leaves the
    distortion above target.
    """
    if target < 0:
        raise InfeasibleDistortion(f"negative distortion {target}")
    nw = len(pxgw)
    shape = dmat.shape
    zero_rate = pxgw @ dmat
    d_at_zero = float(pw @ zero_rate.min(axis=1))
    if target >= d_at_zero - 1e-15:
        conds = np.zeros((nw, *shape))
        conds[np.arange(nw), :, zero_rate.argmin(axis=1)] = 1.0
        return 0.0, 0.0, d_at_zero, conds, True
    if target <= 1e-13:
        rates, conds = _zero_distortion_rate(pxgw, dmat)
        return float(pw @ rates), SLOPE_CAP, 0.0, conds, True
    best = (-np.inf,)
    lo, hi = 0.0, None
    slopes, q0 = _DOUBLING_SLOPES, None
    for _ in range(60):
        k = slopes.size
        cost = np.broadcast_to((slopes * LOG2)[:, None, None] * dmat, (nw, k, *shape))
        rates, conds, _ = _ba_batch(np.repeat(pxgw, k, axis=0), cost.reshape(-1, *shape), q0=q0)
        conds = conds.reshape(nw, k, *shape)
        r = pw @ rates.reshape(nw, k)
        dd = pw @ np.einsum("wx,wkxh,xh->wk", pxgw, conds, dmat)
        bound = r + slopes * (dd - target)
        j = int(np.argmax(bound))
        if bound[j] > best[0]:
            best = (float(bound[j]), float(slopes[j]), float(dd[j]), conds[:, j])
        below = dd <= target
        first = int(np.argmax(below)) if below.any() else k
        if first == k and hi is None:
            return max(best[0], 0.0), best[1], best[2], best[3], False
        if first > 0:
            lo = slopes[first - 1]
        if first < k:
            hi = slopes[first]
        near = min(first, k - 1)
        if hi - lo < 1e-12:
            break
        slopes = lo + (hi - lo) * np.arange(1, BRACKET_POINTS + 1) / (BRACKET_POINTS + 1)
        q0 = np.repeat(np.einsum("wx,wxh->wh", pxgw, conds[:, near]), BRACKET_POINTS, axis=0)
    return max(best[0], 0.0), best[1], best[2], best[3], True


def ba_rate_distortion(p: JointPmf, d: DistortionSpec, D: float) -> RdPoint:
    """Marginal R_X(D) for a single-coordinate source."""
    if p.ncoords != 1:
        raise ProbabilityError("ba_rate_distortion expects a 1-coordinate pmf")
    px = p.mass
    dmat = d.matrices[0]
    rate, slope, _, conds, bracketed = _scalar_query(px[None, :], np.ones(1), dmat, float(D))
    if not bracketed:
        # query below the reachable sweep; fall back to the lossless point
        rates, conds = _zero_distortion_rate(px[None, :], dmat)
        rate, slope = float(rates[0]), SLOPE_CAP
    cond = conds[0]
    achieved = float(np.einsum("x,xh,xh->", px, cond, dmat))
    channel = ConditionalPmf(px.size, (dmat.shape[1],), cond)
    return RdPoint((achieved,), rate, (slope,), channel)


def ba_conditional_rd(pxw: JointPmf, d: DistortionSpec, D: float) -> RdPoint:
    """Conditional R_{X|W}(D); coordinate 0 is the source, coordinate 1 is W.

    At a common slope the per-w problems decouple; the slope search solves
    them all in each kernel call so the p(w)-averaged distortion meets D.
    """
    if pxw.ncoords != 2:
        raise ProbabilityError("ba_conditional_rd expects an (X, W) pmf")
    pw = pxw.mass.sum(axis=0)
    active = pw > 0
    pxgw = (pxw.mass[:, active] / pw[active]).T
    rate, slope, dist, _, _ = _scalar_query(pxgw, pw[active], d.matrices[0], float(D))
    return RdPoint((dist,), rate, (slope,))


# ---------------------------------------------------------------------------
# Joint (two-coordinate) solver: cached two-multiplier sweep + local refinement


def _joint_problem(p: JointPmf, d: DistortionSpec):
    n1, n2 = p.alphabet_sizes
    m1, m2 = d.repro_sizes
    px = p.mass.reshape(-1)
    d1 = np.kron(d.matrices[0], np.ones((n2, m2)))
    d2 = np.kron(np.ones((n1, m1)), d.matrices[1])
    return px, d1, d2, (m1, m2)


_SWEEP_CACHE: dict = {}
_DEFAULT_GRID = np.concatenate(([0.0], np.geomspace(1.0 / 32.0, 48.0, 30)))


#: iteration cap for joint sweeps; certified dual bounds stay valid at any cap
JOINT_MAX_ITER = 2500


def _sweep_joint(px, d1, d2, s1_grid, s2_grid, q0=None):
    """Batched BA over the slope-pair grid; returns flat point arrays."""
    s1, s2 = np.meshgrid(np.asarray(s1_grid), np.asarray(s2_grid), indexing="ij")
    s1 = s1.reshape(-1)
    s2 = s2.reshape(-1)
    cost = LOG2 * (s1[:, None, None] * d1[None] + s2[:, None, None] * d2[None])
    rates, cond, flb = _ba_batch(px, cost, max_iter=JOINT_MAX_ITER, q0=q0)
    dd1, dd2 = _expected_distortions(px, cond, [d1, d2])
    return s1, s2, rates, dd1, dd2, cond, flb


def _joint_sweep_cached(p, d, s1_grid=None, s2_grid=None):
    s1_grid = _DEFAULT_GRID if s1_grid is None else np.asarray(s1_grid, dtype=float)
    s2_grid = _DEFAULT_GRID if s2_grid is None else np.asarray(s2_grid, dtype=float)
    key = (
        p.alphabet_sizes,
        p.mass.tobytes(),
        tuple(m.tobytes() for m in d.matrices),
        d.repro_sizes,
        s1_grid.tobytes(),
        s2_grid.tobytes(),
    )
    if key not in _SWEEP_CACHE:
        px, d1, d2, repro = _joint_problem(p, d)
        _SWEEP_CACHE[key] = _sweep_joint(px, d1, d2, s1_grid, s2_grid) + (
            px,
            d1,
            d2,
            repro,
        )
        if len(_SWEEP_CACHE) > 16:
            _SWEEP_CACHE.pop(next(iter(_SWEEP_CACHE)))
    return _SWEEP_CACHE[key]


def _quad_box_max(coef, lo1, hi1, lo2, hi2):
    """Maximize c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2 over the box."""
    c0, c1, c2, c3, c4, c5 = coef

    def val(x, y):
        return c0 + c1 * x + c2 * y + c3 * x * x + c4 * x * y + c5 * y * y

    candidates = [(x, y) for x in (lo1, hi1) for y in (lo2, hi2)]
    hess = np.array([[2.0 * c3, c4], [c4, 2.0 * c5]])
    if np.all(np.linalg.eigvalsh(hess) < 0):
        x, y = np.linalg.solve(hess, [-c1, -c2])
        if lo1 <= x <= hi1 and lo2 <= y <= hi2:
            candidates.append((float(x), float(y)))
    # maxima along each edge: 1-D quadratics in the free variable
    for x in (lo1, hi1):
        if c5 < 0:
            y = (-c2 - c4 * x) / (2.0 * c5)
            if lo2 <= y <= hi2:
                candidates.append((x, float(y)))
    for y in (lo2, hi2):
        if c3 < 0:
            x = (-c1 - c4 * y) / (2.0 * c3)
            if lo1 <= x <= hi1:
                candidates.append((float(x), y))
    return max(candidates, key=lambda t: val(*t))


def ba_joint_rd(p: JointPmf, d: DistortionSpec, D) -> RdPoint:
    """Joint R_{X1X2}(D1, D2) via the two-multiplier Lagrangian sweep.

    The returned rate is the tightest supporting-line value over all sweep and
    refinement points; the test channel comes from the point whose achieved
    distortions meet the query within the sweep slack.
    """
    D1, D2 = float(D[0]), float(D[1])
    if D1 < 0 or D2 < 0:
        raise InfeasibleDistortion(f"negative distortion {(D1, D2)}")
    if p.ncoords != 2:
        raise ProbabilityError("ba_joint_rd expects a 2-coordinate pmf")
    s1, s2, rates, dd1, dd2, cond, flb, px, d1, d2, repro = _joint_sweep_cached(p, d)

    # zero-rate feasibility: a single reproduction pair dominating the target
    zero1 = px @ d1
    zero2 = px @ d2
    ok = (zero1 <= D1 + 1e-15) & (zero2 <= D2 + 1e-15)
    if np.any(ok):
        j = int(np.nonzero(ok)[0][0])
        c = np.zeros_like(d1)
        c[:, j] = 1.0
        channel = ConditionalPmf(px.size, (d1.shape[1],), c)
        return RdPoint((float(zero1[j]), float(zero2[j])), 0.0, (0.0, 0.0), channel)

    # supporting-line lower bounds from the certified Lagrangian minima:
    # R(D1, D2) >= F*(s1, s2) - s1 D1 - s2 D2 at every slope pair
    lb = flb / LOG2 - s1 * D1 - s2 * D2
    best = int(np.argmax(lb))
    best_val = float(lb[best])
    bs1, bs2 = float(s1[best]), float(s2[best])
    warm = np.einsum("x,xh->h", px, cond[best])

    dom_pts = []
    meets = (dd1 <= D1 + JOINT_SLACK) & (dd2 <= D2 + JOINT_SLACK)
    if np.any(meets):
        k = int(np.argmin(np.where(meets, rates, np.inf)))
        dom_pts.append((float(rates[k]), cond[k], float(dd1[k]), float(dd2[k]), float(s1[k]), float(s2[k])))

    # refinement by quadratic ascent on the concave dual surface
    # g(s1, s2) = F*(s1, s2)/log 2 - s1 D1 - s2 D2: fit a quadratic through the
    # supporting values near the incumbent, step to its stationary point, and
    # certify the step with a single warm-started solve
    near = (np.abs(s1 - bs1) <= 0.5 * max(bs1, 0.5) + 1e-12) & (
        np.abs(s2 - bs2) <= 0.5 * max(bs2, 0.5) + 1e-12
    )
    pts1, pts2, ptsg = list(s1[near]), list(s2[near]), list(lb[near])
    span = 0.5 * max(bs1, bs2, 0.5)
    for _ in range(10):
        p1 = np.array(pts1)
        p2 = np.array(pts2)
        g = np.array(ptsg)
        box = (np.abs(p1 - bs1) <= span + 1e-12) & (np.abs(p2 - bs2) <= span + 1e-12)
        if box.sum() < 6:
            box = np.argsort(np.hypot(p1 - bs1, p2 - bs2))[:8]
        x, y = p1[box] - bs1, p2[box] - bs2
        basis = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)
        coef, *_ = np.linalg.lstsq(basis, g[box], rcond=None)
        lo1, hi1 = max(-bs1, -span), min(SLOPE_CAP - bs1, span)
        lo2, hi2 = max(-bs2, -span), min(SLOPE_CAP - bs2, span)
        step = _quad_box_max(coef, lo1, hi1, lo2, hi2)
        c1, c2 = bs1 + step[0], bs2 + step[1]
        t1, t2, r, a1, a2, c, fl = _sweep_joint(px, d1, d2, [c1], [c2], q0=warm)
        val = float(fl[0]) / LOG2 - c1 * D1 - c2 * D2
        pts1.append(c1)
        pts2.append(c2)
        ptsg.append(val)
        if float(a1[0]) <= D1 + JOINT_SLACK and float(a2[0]) <= D2 + JOINT_SLACK:
            dom_pts.append((float(r[0]), c[0], float(a1[0]), float(a2[0]), c1, c2))
        moved = max(abs(c1 - bs1), abs(c2 - bs2))
        if val > best_val:
            best_val = val
            bs1, bs2 = c1, c2
            warm = np.einsum("x,xh->h", px, c[0])
        # trust-region style: grow the box after a full-length step, shrink
        # after an interior one
        span = 2.0 * span if moved >= 0.9 * span else max(0.45 * span, 1e-9)
        if moved < 1e-10 and span < 1e-6:
            break

    # a peak on a slope axis sits at a kink of the dual surface, which the
    # quadratic fit cannot represent; polish the free coordinate by golden
    # section (valid because the dual is concave along any line)
    if min(bs1, bs2) <= 1e-12 < max(bs1, bs2):
        on_s1 = bs2 <= 1e-12
        center = bs1 if on_s1 else bs2

        def g1d(s):
            c1, c2 = (s, 0.0) if on_s1 else (0.0, s)
            t1, t2, r, a1, a2, c, fl = _sweep_joint(px, d1, d2, [c1], [c2], q0=warm)
            if float(a1[0]) <= D1 + JOINT_SLACK and float(a2[0]) <= D2 + JOINT_SLACK:
                dom_pts.append(
                    (float(r[0]), c[0], float(a1[0]), float(a2[0]), c1, c2)
                )
            return float(fl[0]) / LOG2 - c1 * D1 - c2 * D2

        w = max(1.0, 0.5 * center)
        lo, hi = max(0.0, center - w), min(SLOPE_CAP, center + w)
        invphi = 0.5 * (np.sqrt(5.0) - 1.0)
        a, b = lo + (1.0 - invphi) * (hi - lo), lo + invphi * (hi - lo)
        fa, fb = g1d(a), g1d(b)
        for _ in range(28):
            if fa >= fb:
                hi, b, fb = b, a, fa
                a = lo + (1.0 - invphi) * (hi - lo)
                fa = g1d(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + invphi * (hi - lo)
                fb = g1d(b)
        s_best, f_best = (a, fa) if fa >= fb else (b, fb)
        if f_best > best_val:
            best_val = f_best
            bs1, bs2 = (s_best, 0.0) if on_s1 else (0.0, s_best)

    if not dom_pts:
        raise SweepResolutionError(
            f"no sweep point met ({D1}, {D2}) within slack {JOINT_SLACK}"
        )
    dom_pts.sort(key=lambda t: t[0])
    _, chan, a1, a2, t1, t2 = dom_pts[0]
    channel = ConditionalPmf(px.size, (chan.shape[1],), chan)
    return RdPoint((a1, a2), max(best_val, 0.0), (bs1, bs2), channel)


def trace_rd_curve(p: JointPmf, d: DistortionSpec, multipliers) -> list[RdPoint]:
    """Evaluate the sweep at an explicit multiplier grid (scalars or pairs)."""
    multipliers = list(multipliers)
    if not multipliers:
        raise ProbabilityError("multiplier grid must be nonempty")
    if p.ncoords == 1:
        px = p.mass
        dmat = d.matrices[0]
        lams = [float(lam) for lam in multipliers]
        rates, cond, _ = _ba_batch(px, (np.array(lams) * LOG2)[:, None, None] * dmat)
        dist = _expected_distortions(px, cond, [dmat])[0]
        return [
            RdPoint(
                (float(dist[i]),), float(rates[i]), (lam,),
                ConditionalPmf(px.size, (dmat.shape[1],), cond[i]),
            )
            for i, lam in enumerate(lams)
        ]
    if p.ncoords != 2:
        raise ProbabilityError("trace_rd_curve supports 1 or 2 coordinates")
    px, d1, d2, _ = _joint_problem(p, d)
    pairs = [(float(a), float(b)) for a, b in multipliers]
    cost = LOG2 * np.array([a * d1 + b * d2 for a, b in pairs])
    rates, cond, _ = _ba_batch(px, cost)
    dd1, dd2 = _expected_distortions(px, cond, [d1, d2])
    out = []
    for i, (a, b) in enumerate(pairs):
        channel = ConditionalPmf(px.size, (d1.shape[1],), cond[i])
        out.append(
            RdPoint((float(dd1[i]), float(dd2[i])), float(rates[i]), (a, b), channel)
        )
    return out


def marginal_rd_value(p: JointPmf, d: DistortionSpec, coord: int, D: float) -> float:
    """Convenience: R_{X_coord}(D) for a multi-coordinate source."""
    marg = marginalize(p, [coord])
    spec = DistortionSpec((d.matrices[coord],), (d.repro_sizes[coord],))
    return ba_rate_distortion(marg, spec, D).rate
