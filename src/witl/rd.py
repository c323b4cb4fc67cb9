"""Alternating-minimization solvers for marginal, conditional, and joint
rate-distortion functions on finite alphabets.

Distortion-constrained queries are answered by sweeping the Lagrangian slope:
the alternating update traces (D(lambda), R(lambda)) points on the curve, and a
query R(D) is recovered by a batched slope bracket search (marginal and
conditional problems) or by a cached 16x16 two-multiplier start sweep and a
projected Newton ascent on the concave dual (joint problems). Every query runs
on one batched kernel, ``_ba_batch``, which takes a source pmf per batch
entry: the bracket search solves all components w of a conditional problem at
several slopes per call, warm-started from the previous round, and each ascent
step is one single-entry call. Multipliers are in bits per distortion unit
throughout.
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
    """A distortion target below the least reachable distortion."""


class SweepResolutionError(RuntimeError):
    """No evaluated slope reached a reachable distortion target."""


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


def _ba_batch(px, cost, max_iter=MAX_ITER, q0=None):
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
        done = gap < RATE_TOL
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


def _zero_distortion_rate(pxgw, dmat):
    """R at the least reachable distortion (zero when every row of dmat has a
    zero) for each (W, nx) source row: BA restricted to each symbol's
    least-distortion reproductions. Returns certified lower bounds (W,) in
    bits and conditionals (W, nx, nxh)."""
    mask = dmat == dmat.min(axis=1, keepdims=True)
    cost = np.broadcast_to(np.where(mask, 0.0, np.inf), (len(pxgw), *dmat.shape))
    _, conds, flb = _ba_batch(pxgw, cost)
    return flb / LOG2, conds


def _scalar_query(pxgw, pw, dmat, target) -> RdPoint:
    """R_{X|W}(target) by a batched slope bracket search; W = 1 gives R_X.

    pxgw: (W, nx) component source pmfs with weights pw (W,). At a common
    slope the components decouple, so one kernel call solves every
    (component, slope) pair of a round and the pw-averaged rate and distortion
    trace the curve. The first round evaluates the doubling grid 1, 2, ...,
    SLOPE_CAP; each later round evaluates BRACKET_POINTS equally spaced slopes
    inside the bracket, warm-started from the output pmfs at the previous
    round's slope nearest the crossing, until the bracket is narrower than
    1e-12.

    The rate is the best certified dual bound pw . F*_w(s) / ln 2 - s * target
    over the evaluated slopes. The slope and distortion are those of the least
    evaluated slope whose distortion meets the target, and so is the test
    channel when W = 1. A target below the least reachable distortion raises
    InfeasibleDistortion; one that even SLOPE_CAP leaves unbracketed raises
    SweepResolutionError.
    """
    nw = len(pxgw)
    shape = dmat.shape
    least = float(pw @ (pxgw @ dmat.min(axis=1)))
    if target < 0 or target < least - 1e-15:
        raise InfeasibleDistortion(f"distortion {target} below least reachable {least}")
    zero_rate = pxgw @ dmat
    d_at_zero = float(pw @ zero_rate.min(axis=1))
    if target >= d_at_zero - 1e-15:
        conds = np.zeros((nw, *shape))
        conds[np.arange(nw), :, zero_rate.argmin(axis=1)] = 1.0
        rate, point = 0.0, (0.0, d_at_zero, conds)
    elif target <= least + 1e-13:
        # the supporting line at SLOPE_CAP; R(least) bounds R only at or below least
        _, _, flb = _ba_batch(pxgw, np.broadcast_to(SLOPE_CAP * LOG2 * dmat, (nw, *shape)))
        rate = float(pw @ flb) / LOG2 - SLOPE_CAP * target
        rates, conds = _zero_distortion_rate(pxgw, dmat)
        if target <= least:
            rate = max(rate, float(pw @ rates))
        point = (SLOPE_CAP, least, conds)
    else:
        rate = -np.inf
        lo, hi = 0.0, None
        slopes, q0 = _DOUBLING_SLOPES, None
        for _ in range(60):
            k = slopes.size
            cost = np.broadcast_to((slopes * LOG2)[:, None, None] * dmat, (nw, k, *shape))
            _, conds, flb = _ba_batch(np.repeat(pxgw, k, axis=0), cost.reshape(-1, *shape), q0=q0)
            conds = conds.reshape(nw, k, *shape)
            dd = pw @ np.einsum("wx,wkxh,xh->wk", pxgw, conds, dmat)
            rate = max(rate, float(np.max(pw @ flb.reshape(nw, k) / LOG2 - slopes * target)))
            below = dd <= target
            first = int(np.argmax(below)) if below.any() else k
            if first == k and hi is None:
                raise SweepResolutionError(f"slope {SLOPE_CAP} does not reach distortion {target}")
            if first > 0:
                lo = slopes[first - 1]
            if first < k:
                hi = slopes[first]
                point = (float(hi), float(dd[first]), conds[:, first])
            near = min(first, k - 1)
            if hi - lo < 1e-12:
                break
            slopes = lo + (hi - lo) * np.arange(1, BRACKET_POINTS + 1) / (BRACKET_POINTS + 1)
            q0 = np.repeat(np.einsum("wx,wxh->wh", pxgw, conds[:, near]), BRACKET_POINTS, axis=0)
    slope, dist, conds = point
    channel = ConditionalPmf(shape[0], (shape[1],), conds[0]) if nw == 1 else None
    return RdPoint((dist,), max(rate, 0.0), (slope,), channel)


def ba_rate_distortion(p: JointPmf, d: DistortionSpec, D: float) -> RdPoint:
    """Marginal R_X(D) for a single-coordinate source."""
    if p.ncoords != 1:
        raise ProbabilityError("ba_rate_distortion expects a 1-coordinate pmf")
    return _scalar_query(p.mass[None, :], np.ones(1), d.matrices[0], float(D))


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
    return _scalar_query(pxgw, pw[active], d.matrices[0], float(D))


# ---------------------------------------------------------------------------
# Joint (two-coordinate) solver: cached slope sweep + projected dual ascent


def _joint_problem(p: JointPmf, d: DistortionSpec):
    """Flattened source pmf and the stacked (2, nx, nxh) distortions."""
    n1, n2 = p.alphabet_sizes
    m1, m2 = d.repro_sizes
    px = p.mass.reshape(-1)
    d1 = np.kron(d.matrices[0], np.ones((n2, m2)))
    d2 = np.kron(np.ones((n1, m1)), d.matrices[1])
    return px, np.stack([d1, d2])


_SWEEP_CACHE: dict = {}
_DEFAULT_GRID = np.concatenate(([0.0], np.geomspace(1.0 / 32.0, 48.0, 15)))


#: iteration cap for joint sweeps; certified dual bounds stay valid at any cap
JOINT_MAX_ITER = 2500
#: guard on the kernel calls of one ascent; it normally stops on its gain
ASCENT_CALLS = 20
#: the ascent stops once its predicted dual gain is below this many bits
ASCENT_GAIN_TOL = 1e-12


def _slope_points(px, dm, slopes, q0=None, max_iter=MAX_ITER):
    """Batched BA at slope vectors (N, k), bits per distortion unit, for the
    stacked distortions dm (k, nx, nxh). Returns rates (bits), channels,
    certified Lagrangian bounds (nats) and expected distortions (N, k)."""
    cost = LOG2 * np.einsum("ni,ixh->nxh", slopes, dm)
    rates, cond, flb = _ba_batch(px, cost, max_iter=max_iter, q0=q0)
    return rates, cond, flb, np.einsum("x,nxh,ixh->ni", px, cond, dm)


def _joint_sweep_cached(p, d, px, dm):
    key = (p.alphabet_sizes, p.mass.tobytes(), tuple(m.tobytes() for m in d.matrices), d.repro_sizes)
    if key not in _SWEEP_CACHE:
        grid = np.stack(np.meshgrid(_DEFAULT_GRID, _DEFAULT_GRID, indexing="ij"), axis=-1).reshape(-1, 2)
        _SWEEP_CACHE[key] = (grid, *_slope_points(px, dm, grid, max_iter=JOINT_MAX_ITER))
        if len(_SWEEP_CACHE) > 16:
            _SWEEP_CACHE.pop(next(iter(_SWEEP_CACHE)))
    return _SWEEP_CACHE[key]


def _axis_channel(px, cond, dm, repro, s):
    """cond with the X̂_i half replaced by its best map wherever s_i = 0.

    At s_i = 0 the cost does not see X̂_i, so the kernel leaves that half of
    the channel arbitrary. Mapping each x̂_j to the x̂_i of least expected d_i
    keeps the rate and the Lagrangian, and its E[d_i] - D_i is the one-sided
    derivative of the dual along s_i.
    """
    c = cond.reshape(-1, *repro)
    for i in np.flatnonzero(s <= 0):
        ci = np.moveaxis(c, 1 + i, 1)
        marg = ci.sum(axis=1)
        di = np.moveaxis(dm[i].reshape(-1, *repro), 1 + i, 1)[:, :, 0]
        best = np.einsum("x,xb,xa->ab", px, marg, di).argmin(axis=0)
        ci = np.zeros_like(ci)
        ci[:, best, np.arange(best.size)] = marg
        c = np.moveaxis(ci, 1, 1 + i)
    return c.reshape(cond.shape)


def _dual_hessian(px, cond, dm, s):
    """Hessian of the Lagrangian minimum F*(s), nats with s in nats, at the
    channel's slopes s (bits), and the slope derivative (nxh, 2) of its output
    pmf q.

    The Hessian is the fixed-output curvature -E_x Cov(d_i, d_j) less the
    response of q, from linearizing the fixed point q(y) (c(y) - 1) = 0 of
    the alternating update q <- q c: with dq = q u,
    (M + diag(q (1 - c))) u = -B ds, M = sum_x p(x) W(.|x) W(.|x)^T and
    B[y, i] = sum_x p(x) W(y|x) (d_i - E[d_i | x]). The diagonal term keeps a
    letter the kernel is still driving out (c < 1) from reading as a free
    direction of q.
    """
    joint = px[:, None] * cond
    dev = dm - np.einsum("xh,ixh->ix", cond, dm)[:, :, None]
    b = np.einsum("xh,ixh->hi", joint, dev)
    a = np.exp(-LOG2 * np.einsum("i,ixh->xh", s, dm))
    q = joint.sum(axis=0)
    c = a.T @ (px / np.maximum(a @ q, 1e-300))
    resp = np.linalg.pinv(joint.T @ cond + np.diag(q * np.maximum(1.0 - c, 0.0)), hermitian=True) @ b
    fixed = np.einsum("xh,ixh,jxh->ij", joint, dev, dev)
    return -fixed - b.T @ resp, -q[:, None] * resp


def ba_joint_rd(p: JointPmf, d: DistortionSpec, D) -> RdPoint:
    """Joint R_{X1X2}(D1, D2) as the maximum of the concave dual
    g(s) = F*(s)/ln 2 - s1 D1 - s2 D2 over 0 <= s <= SLOPE_CAP.

    A cached 16x16 slope sweep, one kernel call per source, gives the start. A
    projected Newton ascent then takes the exact gradient E[d_i] - D_i
    (one-sided on an axis s_i = 0, see _axis_channel) and the exact Hessian
    from each channel, and makes one warm-started single-entry kernel call per
    trial step. A trial is kept unless its certified value falls short of the
    incumbent's by more than the kernel's tolerance; after a failed trial the
    next step is damped toward the gradient. The ascent stops once the
    predicted gain is below ASCENT_GAIN_TOL bits, or after ASCENT_CALLS calls.

    The returned rate is the best certified value of g at D over all evaluated
    slopes. The ascent aims at D - JOINT_SLACK / 2, so that the channel where
    it stops meets D exactly; that channel is the test channel. Should it not
    meet D, the test channel is the least-rate evaluated point that meets D
    within JOINT_SLACK.
    """
    target = np.array([float(D[0]), float(D[1])])
    if p.ncoords != 2:
        raise ProbabilityError("ba_joint_rd expects a 2-coordinate pmf")
    px, dm = _joint_problem(p, d)
    least = np.einsum("x,ix->i", px, dm.min(axis=2))
    if np.any((target < 0) | (target < least - 1e-15)):
        raise InfeasibleDistortion(f"distortion {target.tolist()} below least reachable {least.tolist()}")
    slopes, rates, cond, flb, dd = _joint_sweep_cached(p, d, px, dm)

    # zero-rate feasibility: a single reproduction pair dominating the target
    zero = px @ dm
    ok = np.all(zero <= target[:, None] + 1e-15, axis=0)
    if np.any(ok):
        j = int(np.nonzero(ok)[0][0])
        c = np.zeros_like(dm[0])
        c[:, j] = 1.0
        channel = ConditionalPmf(px.size, (c.shape[1],), c)
        return RdPoint((float(zero[0, j]), float(zero[1, j])), 0.0, (0.0, 0.0), channel)

    aim = target - 0.5 * JOINT_SLACK
    dominating = []

    def point(chan_rate, chan, s):
        """Best-map channel, its distortions and the kernel's output pmf (the
        warm start); the channel is kept if it meets the query."""
        warm = px @ chan
        chan = _axis_channel(px, chan, dm, d.repro_sizes, s)
        e = np.einsum("x,xh,ixh->i", px, chan, dm)
        if np.all(e <= target + JOINT_SLACK):
            dominating.append((chan_rate, chan, e))
        return chan, e, warm

    # supporting-line lower bounds from the certified Lagrangian minima:
    # R(D1, D2) >= F*(s1, s2) - s1 D1 - s2 D2 at every slope pair
    rate = float(np.max(flb / LOG2 - slopes @ target))
    meets = np.all(dd <= target + JOINT_SLACK, axis=1)
    if np.any(meets):
        k = int(np.argmin(np.where(meets, rates, np.inf)))
        point(float(rates[k]), cond[k], slopes[k])
    k = int(np.argmax(flb / LOG2 - slopes @ aim))
    s, val = slopes[k], float(flb[k] / LOG2 - slopes[k] @ aim)
    chan, e, warm = point(float(rates[k]), cond[k], s)
    sweep_q = np.einsum("x,nxh->nh", px, cond)
    damping = 0.0
    for _ in range(ASCENT_CALLS):
        grad = e - aim
        free = ((s > 0) | (grad > 0)) & ((s < SLOPE_CAP) | (grad < 0))
        if not free.any():
            break
        hess, dq = _dual_hessian(px, chan, dm, s)
        curv = -LOG2 * hess[np.ix_(free, free)]
        step = np.zeros(2)
        step[free] = np.linalg.solve(curv + (damping + 1e-12) * np.eye(len(curv)), grad[free])
        if grad @ step - 0.5 * step[free] @ curv @ step[free] < ASCENT_GAIN_TOL:
            break
        trial = np.clip(s + step, 0.0, SLOPE_CAP)
        if np.all(trial == s):
            break
        # warm start: the output pmf, predicted from the incumbent or cached by
        # the sweep, whose dual value V(q) >= F* at the trial is least
        pred = np.maximum(warm + dq @ (LOG2 * (trial - s)), 1e-12)
        qs = np.vstack([pred / pred.sum(), sweep_q])
        a = np.exp(-LOG2 * np.einsum("i,ixh->xh", trial, dm))
        q0 = qs[np.argmin(-np.log(np.maximum(qs @ a.T, 1e-300)) @ px)]
        r, c, fl, _ = _slope_points(px, dm, trial[None], q0=q0)
        certified = float(fl[0]) / LOG2
        rate = max(rate, certified - trial @ target)
        trial_point = point(float(r[0]), c[0], trial)
        # a trial within the kernel's tolerance of the incumbent is no worse;
        # after a failed one the next step is damped toward the gradient
        if certified - trial @ aim > val - RATE_TOL / LOG2:
            s, val, (chan, e, warm) = trial, certified - trial @ aim, trial_point
            damping /= 3.0
        else:
            # at least the damping that cuts the failed step to a quarter
            damping = max(10.0 * damping, 4.0 * np.linalg.norm(grad[free]) / np.linalg.norm(trial - s))

    if np.any(e > target):
        if not dominating:
            raise SweepResolutionError(
                f"no sweep point met {tuple(target)} within slack {JOINT_SLACK}"
            )
        _, chan, e = min(dominating, key=lambda pt: pt[0])
    channel = ConditionalPmf(px.size, (chan.shape[1],), chan)
    return RdPoint((float(e[0]), float(e[1])), max(rate, 0.0), (float(s[0]), float(s[1])), channel)


def trace_rd_curve(p: JointPmf, d: DistortionSpec, multipliers) -> list[RdPoint]:
    """Evaluate the sweep at an explicit multiplier grid (scalars or pairs)."""
    multipliers = list(multipliers)
    if not multipliers:
        raise ProbabilityError("multiplier grid must be nonempty")
    if p.ncoords == 1:
        px, dm = p.mass, np.stack(d.matrices[:1])
    elif p.ncoords == 2:
        px, dm = _joint_problem(p, d)
    else:
        raise ProbabilityError("trace_rd_curve supports 1 or 2 coordinates")
    slopes = np.array(multipliers, dtype=float).reshape(len(multipliers), -1)
    rates, cond, _, dd = _slope_points(px, dm, slopes)
    return [
        RdPoint(
            tuple(float(x) for x in dd[i]), float(rates[i]), tuple(float(x) for x in slopes[i]),
            ConditionalPmf(px.size, (dm.shape[2],), cond[i]),
        )
        for i in range(len(slopes))
    ]


def marginal_rd_value(p: JointPmf, d: DistortionSpec, coord: int, D: float) -> float:
    """Convenience: R_{X_coord}(D) for a multi-coordinate source."""
    marg = marginalize(p, [coord])
    spec = DistortionSpec((d.matrices[coord],), (d.repro_sizes[coord],))
    return ba_rate_distortion(marg, spec, D).rate
