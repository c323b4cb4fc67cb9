"""Alternating-minimization solvers for marginal, conditional, and joint
rate-distortion functions on finite alphabets.

A query R(D) maximizes the concave dual g(s) = F*(s)/ln 2 - s D over slopes s,
F* being the Lagrangian minimum: by a safeguarded Newton search on the scalar s
after one call on doubling slopes (marginal and conditional queries), or by a
projected Newton ascent from the source's best stored supporting plane, a new
source's from one call on diagonal doubling slopes (joint queries). Both take
their curvature from ``_dual_hessian`` and ask one kernel call per step,
warm-started from the output pmf that the linearization predicts. Searches run
in lockstep (``_lockstep``): a round is one call of the batched kernel
``_ba_batch`` on every open search's request, padded to the round's largest
alphabets, and the components w of a conditional problem share it too. The
kernel alternates as Blahut-Arimoto does and, at each dual-gap check, takes one
Newton step on the alternation's fixed point, so that calls near critical
slopes end on their certificate. That step is one batched LU solve of the fixed
point's linearization; the curvature applies its pseudo-inverse through one
eigendecomposition. Multipliers are in bits per distortion unit throughout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .prob import LOG2, ConditionalPmf, JointPmf, ProbabilityError, mutual_information

MAX_ITER = 10_000
RATE_TOL = 1e-10  # nats; certified dual-gap stopping criterion
SLOPE_CAP = 64.0  # bits per distortion unit
#: slopes of the scalar search's first round: 1, 2, 4, ..., SLOPE_CAP
_DOUBLING_SLOPES = 2.0 ** np.arange(int(np.log2(SLOPE_CAP)) + 1)
#: guard on the kernel calls of a scalar or joint ascent; it normally stops on its gain
ASCENT_CALLS = 20
#: an ascent stops once its predicted dual gain is below this many bits
ASCENT_GAIN_TOL = 1e-12
#: per joint source (16, first in first out), its 256 newest supporting planes of the
#: dual: (slope pair, channel, certified Lagrangian minimum in nats)
_SWEEP_CACHE: dict = {}


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
            if arr.ndim != 2 or not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ProbabilityError("distortion matrices must be 2-D, finite and nonnegative")
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


@dataclass(frozen=True)
class RdPoint:
    """A point on (or supporting) a rate-distortion curve."""

    distortion: tuple[float, ...]
    rate: float
    multipliers: tuple[float, ...]
    test_channel: ConditionalPmf | None = field(default=None, repr=False)


def _fixed_point_matrix(m, q, c):
    """M + diag(q (1 - c)_+), in place on M = sum_x p(x) W(.|x) W(.|x)^T and
    stacked over leading axes: the linearization of the fixed point
    q(y) (c(y) - 1) = 0 of the alternating update q <- q c, c = a^T (p / a q),
    in log coordinates dq = q u. The diagonal term, floored at zero, keeps a
    letter that is being driven out (c < 1) from reading as a free direction
    of q."""
    np.einsum("...hh->...h", m)[...] += q * np.maximum(1.0 - c, 0.0)
    return m


def _fixed_point_solve(joint, cond, q, c, rhs):
    """_fixed_point_matrix(M, q, c)^+ rhs for joint = p(x) W(y|x), rhs (..., nxh, k),
    stacked over leading axes. One eigendecomposition applies the pseudo-inverse
    without forming it, dropping as np.linalg.pinv does |lam| <= 1e-15 max|lam|,
    so that _dual_hessian's curvature is the pseudo-inverse's. M is summed over x
    in order (einsum), as pinv's reference M is: near-singular M amplifies the
    rounding of any other order."""
    m = np.einsum("...xh,...xk->...hk", joint, cond)
    lam, v = np.linalg.eigh(_fixed_point_matrix(m, q, c))
    keep = np.abs(lam) > 1e-15 * np.abs(lam).max(axis=-1, keepdims=True)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return v @ (inv[..., None] * (np.swapaxes(v, -1, -2) @ rhs))


def _ba_batch(px, cost, max_iter=MAX_ITER, q0=None, tol=RATE_TOL):
    """Batched alternating minimization at fixed slopes, Newton-polished.

    px: (nx,) source pmf shared by every entry, or (B, nx) one per entry;
    cost: (B, nx, nxh) slope-weighted cost exponents in *nats* (i.e. sum_i s_i
    * d_i with s in nats per distortion unit); q0: optional warm-start output
    pmf, (nxh,) or (B, nxh); tol: the stopping gap in nats, shared or (B,).
    Returns rates (B,) in bits, per-batch conditionals (B, nx, nxh), and
    certified lower bounds (B,) on the Lagrangian minimum in nats (valid at any
    iteration count, from the dual gap of the current output distribution).

    An entry stops once its gap is below its tol. Checks come every 16
    iterations, and each takes one Newton step per open entry on the fixed
    point q (c - 1) = 0: one batched LU solve of the ridged linearization
    (_fixed_point_matrix + 1e-15 max diag I) u = q (c - 1), dq = q u, applied
    as q <- q (1 + t u), t = min(1, 0.99 / max(-u)), renormalized, and kept
    only where it certifies a finite, smaller gap, so that its accuracy in
    near-null directions sets speed, never a certificate. When some gap fell
    at least tenfold, the next check is the next iteration.
    """
    cost = np.asarray(cost, dtype=float)
    bsz, nx, nxh = cost.shape
    a = np.exp(-cost)
    px = np.broadcast_to(np.asarray(px, dtype=float), (bsz, nx))
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (bsz,))
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
        """Upper value V(q), dual gap (both in nats) and c = a^T (px / a q):
        the Lagrangian minimum satisfies V(q) - gap <= F* <= V(q)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.einsum("bh,bxh->bx", q, a)
            zsafe = np.where(z > 0, z, 1.0)
            v = -np.einsum("bx,bx->b", px, np.where(support, np.log(zsafe), 0.0))
            v = np.where(np.any((z <= 0) & support, axis=1), np.inf, v)
            ch = np.einsum("bx,bxh->bh", px / zsafe, a)
            gap = np.maximum(np.log(np.maximum(ch.max(axis=1), 1e-300)), 0.0)
        return v, gap, ch

    # active-set iteration with dual-gap checks: a batch entry drops out once
    # its certified gap is negligible. Between checks an iteration is two
    # matrix-vector products, z = a q and q <- q * a^T (px / z), the full
    # update without forming the conditional; the full update runs instead
    # while some row has z = 0, since it spreads such a row's mass uniformly.
    # Alternation alone converges linearly, slowest where a letter's mass
    # decays toward zero near a critical slope; the Newton step at each check
    # moves such a letter by its whole predicted change at once.
    active = np.arange(bsz)
    check = 16
    next_check = check
    for it in range(1, max_iter + 1):
        checking = it == next_check or it == max_iter
        if not checking:
            z = (a @ q[..., None])[..., 0]
            if z.min() > 0:
                q = q * ((px / z)[:, None, :] @ a)[:, 0]
                continue
        raw = q[:, None, :] * a
        norm = raw.sum(axis=2, keepdims=True)
        cond = np.divide(raw, norm, out=np.full_like(raw, 1.0 / nxh), where=norm > 0)
        q = np.einsum("bx,bxh->bh", px, cond)
        if not checking:
            continue
        support = px > 0
        v, gap, ch = dual_certificate(q, a, px, support)
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
            active, a, q, px, support, tol = active[keep], a[keep], q[keep], px[keep], support[keep], tol[keep]
            cond, gap, ch = cond[keep], gap[keep], ch[keep]
        m = _fixed_point_matrix(np.swapaxes(px[:, :, None] * cond, 1, 2) @ cond, q, ch)
        # zero-mass letters and X̂_i duplicates at s_i = 0 make M singular; a ridge
        # at the scale of pinv's cutoff lets LU solve it (1e-16 still meets zero
        # pivots, and larger ridges damp directions that the pseudo-inverse keeps)
        diag = np.einsum("bhh->bh", m)
        diag += 1e-15 * diag.max(axis=1, keepdims=True)
        u = np.linalg.solve(m, (q * (ch - 1.0))[..., None])[..., 0]
        t = 0.99 / np.maximum(-u.min(axis=1), 0.99)
        qn = np.maximum(q * (1.0 + t[:, None] * u), 0.0)
        qn = qn / qn.sum(axis=1, keepdims=True)
        vn, gapn, _ = dual_certificate(qn, a, px, support)
        better = np.isfinite(vn) & (gapn < gap)
        q = np.where(better[:, None], qn, q)
        next_check = it + (1 if np.any(better & (10.0 * gapn <= gap)) else check)
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


def _scalar_search(pxgw, pw, dmat, target):
    """R_{X|W}(target) by a Newton search on the scalar dual, as a generator for
    _lockstep: it yields the (px, cost, q0, tol) of each kernel call it needs, is
    sent back (conditionals, bounds), and returns its RdPoint; W = 1 gives R_X.

    pxgw: (W, nx) component source pmfs with weights pw (W,). At a common
    slope the components decouple, so each kernel call solves them all, and
    g(s) = pw . F*_w(s) / ln 2 - s * target has g' = E[d] - target. One cold
    call on the doubling slopes 1, 2, ..., SLOPE_CAP brackets the target between
    lo and hi, the least slope that meets it. From the slope of best certified
    g, Newton steps s - g'/g'' (g'' pw-weighted from _dual_hessian) aim 1e-10 of
    the distortion range below the target, so that the last iterate meets it; a
    step out of (lo, hi) bisects. Each is one call run to a gap of RATE_TOL/1000
    from the output pmfs that the incumbent's slope derivative predicts, floored
    at 1e-3. A search stops once the predicted gain is below ASCENT_GAIN_TOL
    and hi's distortion is within 1e-7 of the range of the target, once
    hi - lo < 1e-12, or after ASCENT_CALLS calls.

    The rate is the best certified dual bound pw . F*_w(s) / ln 2 - s * target
    over the evaluated slopes. The slope and distortion are those of the least
    evaluated slope whose distortion meets the target, and so is the test
    channel when W = 1. A target below the least reachable distortion raises
    InfeasibleDistortion before any kernel call; one that even SLOPE_CAP leaves
    unbracketed raises SweepResolutionError.
    """
    if not np.isfinite(target):
        raise ProbabilityError(f"distortion target {target} is not finite")
    nw = len(pxgw)
    shape = dmat.shape
    least = float(pw @ (pxgw @ dmat.min(axis=1)))
    if target < 0 or target < least - 1e-15:
        raise InfeasibleDistortion(f"distortion {target} below least reachable {least}")
    zero_rate = pxgw @ dmat
    d_at_zero = float(pw @ zero_rate.min(axis=1))
    if target >= d_at_zero:
        conds = np.zeros((nw, *shape))
        conds[np.arange(nw), :, zero_rate.argmin(axis=1)] = 1.0
        rate, point = 0.0, (0.0, d_at_zero, conds)
    elif target <= least + 1e-13:
        # the supporting line at SLOPE_CAP; R(least) bounds R only at or below least
        _, flb = yield pxgw, np.broadcast_to(SLOPE_CAP * LOG2 * dmat, (nw, *shape)), None, RATE_TOL
        rate = float(pw @ flb) / LOG2 - SLOPE_CAP * target
        rates, conds = _zero_distortion_rate(pxgw, dmat)
        if target <= least:
            rate = max(rate, float(pw @ rates))
        point = (SLOPE_CAP, least, conds)
    else:
        cost = np.tile((_DOUBLING_SLOPES * LOG2)[:, None, None] * dmat, (nw, 1, 1))
        conds, flb = yield np.repeat(pxgw, len(_DOUBLING_SLOPES), axis=0), cost, None, RATE_TOL
        conds = conds.reshape(nw, -1, *shape)
        dd = pw @ np.einsum("wx,wkxh,xh->wk", pxgw, conds, dmat)
        bound = pw @ flb.reshape(nw, -1) / LOG2
        rate = float(np.max(bound - _DOUBLING_SLOPES * target))
        if not np.any(dd <= target):
            raise SweepResolutionError(f"slope {SLOPE_CAP} does not reach distortion {target}")
        first = int(np.argmax(dd <= target))
        lo, hi = (_DOUBLING_SLOPES[first - 1] if first else 0.0), _DOUBLING_SLOPES[first]
        point = (float(hi), float(dd[first]), conds[:, first])
        span = d_at_zero - least
        aim = target - 1e-10 * span
        j = int(np.argmax(bound - _DOUBLING_SLOPES * aim))
        s, val, chan, e = _DOUBLING_SLOPES[j], bound[j] - _DOUBLING_SLOPES[j] * aim, conds[:, j], dd[j]
        for _ in range(ASCENT_CALLS):
            hess, dq = _dual_hessian(pxgw, chan, dmat[None], np.array([s]))
            curv = -LOG2 * float(pw @ hess[:, 0, 0])
            step = (e - aim) / curv if curv > 0 else np.inf
            if hi - lo < 1e-12 or (
                0.5 * (e - aim) * step < ASCENT_GAIN_TOL and point[1] >= target - 1e-7 * span
            ):
                break
            trial = s + step if lo < s + step < hi else 0.5 * (lo + hi)
            pred = np.einsum("wx,wxh->wh", pxgw, chan) + dq[:, :, 0] * (LOG2 * (trial - s))
            pred = np.maximum(pred, 1e-3)  # so that a letter the incumbent froze out can regrow
            c, fl = yield (pxgw, trial * LOG2 * np.broadcast_to(dmat, (nw, *shape)),
                           pred / pred.sum(axis=1, keepdims=True), 1e-3 * RATE_TOL)
            et, bt = float(np.einsum("w,wx,wxh,xh->", pw, pxgw, c, dmat)), float(pw @ fl) / LOG2
            rate = max(rate, bt - trial * target)
            lo, hi, point = (lo, trial, (float(trial), et, c)) if et <= target else (trial, hi, point)
            if bt - trial * aim > val - RATE_TOL / LOG2:
                s, val, chan, e = trial, bt - trial * aim, c, et
    slope, dist, conds = point
    channel = ConditionalPmf(shape[0], (shape[1],), conds[0]) if nw == 1 else None
    return RdPoint((dist,), max(rate, 0.0), (slope,), channel)


def _lockstep(searches) -> list[RdPoint]:
    """The RdPoint of each search, a generator as _scalar_search and _joint_search
    are, run in lockstep: a round sends every open search the reply to its last
    request and makes one kernel call (_round_call) on the requests they yield.
    Every search raises on a bad target before the first call. The searches are
    independent, but the entries of a call share its check cadence, so a search's
    bounds may move within their stopping tolerance with the company it keeps."""
    points, replies = [None] * len(searches), dict.fromkeys(range(len(searches)))
    while replies:
        asked = []
        for i, reply in replies.items():
            try:
                asked.append((i, searches[i].send(reply)))
            except StopIteration as stop:
                points[i] = stop.value
        replies = dict(zip([i for i, _ in asked], _round_call([r for _, r in asked]))) if asked else {}
    return points


def _round_call(requests) -> list[tuple]:
    """(conditionals, bounds) for each (px, cost, q0, tol) request of a lockstep
    round, from one _ba_batch call. A lone request goes to the kernel as it is.
    Otherwise each is padded to the round's largest (nx, nxh): a padded source
    letter has no mass, so it enters no certificate or rate; a padded
    reproduction letter costs +inf, so its mass is 0 after the first update. In
    a round with warm starts, padded letters start at 0 and a cold request
    uniform on its own letters. Replies are sliced back to each request's shape."""
    if len(requests) == 1:
        px, cost, q0, tol = requests[0]
        _, conds, flb = _ba_batch(px, cost, q0=q0, tol=tol)
        return [(conds, flb)]
    shapes = [cost.shape for _, cost, _, _ in requests]
    sizes, nx, nxh = (np.array(n) for n in zip(*shapes))
    rows, nx, nxh = np.cumsum([0, *sizes]), nx.max(), nxh.max()
    px, cost = np.zeros((rows[-1], nx)), np.zeros((rows[-1], nx, nxh))
    q0 = None if all(r[2] is None for r in requests) else np.zeros((rows[-1], nxh))
    for (p, c, q, _), (b, x, h), at in zip(requests, shapes, rows):
        px[at:at + b, :x] = p
        cost[at:at + b, :x, h:] = np.inf
        cost[at:at + b, :x, :h] = c
        if q0 is not None:
            q0[at:at + b, :h] = 1.0 / h if q is None else q
    _, conds, flb = _ba_batch(px, cost, q0=q0, tol=np.repeat([r[3] for r in requests], sizes))
    return [(conds[at:at + b, :x, :h], flb[at:at + b]) for (b, x, h), at in zip(shapes, rows)]


def _problem(p: JointPmf, d: DistortionSpec, D) -> tuple:
    """The _scalar_search arguments of R_{X|W}(D) for an (X, W) p, or of R_X(D) for a 1-coordinate p."""
    pxw = p.mass.reshape(p.alphabet_sizes[0], -1)
    pw = pxw.sum(axis=0)
    return (pxw[:, pw > 0] / pw[pw > 0]).T, pw[pw > 0], d.matrices[0], float(D)


def ba_rate_distortion(p: JointPmf, d: DistortionSpec, D: float) -> RdPoint:
    """Marginal R_X(D) for a single-coordinate source."""
    if p.ncoords != 1:
        raise ProbabilityError("ba_rate_distortion expects a 1-coordinate pmf")
    return _lockstep([_scalar_search(*_problem(p, d, D))])[0]


def ba_conditional_rd(pxw: JointPmf, d: DistortionSpec, D: float) -> RdPoint:
    """Conditional R_{X|W}(D); coordinate 0 is the source, coordinate 1 is W.

    At a common slope the per-w problems decouple; the slope search solves
    them all in each kernel call so the p(w)-averaged distortion meets D.
    """
    if pxw.ncoords != 2:
        raise ProbabilityError("ba_conditional_rd expects an (X, W) pmf")
    return _lockstep([_scalar_search(*_problem(pxw, d, D))])[0]


# ---------------------------------------------------------------------------
# Joint (two-coordinate) solver: stored supporting planes + projected dual ascent


def _joint_problem(p: JointPmf, d: DistortionSpec):
    """Flattened source pmf and the stacked (2, nx, nxh) distortions."""
    n1, n2 = p.alphabet_sizes
    m1, m2 = d.repro_sizes
    px = p.mass.reshape(-1)
    d1 = np.kron(d.matrices[0], np.ones((n2, m2)))
    d2 = np.kron(np.ones((n1, m1)), d.matrices[1])
    return px, np.stack([d1, d2])


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
    """Hessian (..., k, k) of the Lagrangian minimum F*(s), nats with s in
    nats, at the channel's slopes s (k,) in bits, and the slope derivative
    (..., nxh, k) of its output pmf q, over the leading axes of px and cond.

    The Hessian is the fixed-output curvature -E_x Cov(d_i, d_j) less the
    response of q, from the kernel's fixed-point linearization
    (_fixed_point_solve): with dq = q u, (M + diag(q (1 - c))) u = -B ds,
    B[y, i] = sum_x p(x) W(y|x) (d_i - E[d_i | x]).
    """
    joint = px[..., None] * cond
    dev = dm - np.einsum("...xh,ixh->...ix", cond, dm)[..., None]
    b = np.einsum("...xh,...ixh->...hi", joint, dev)
    a = np.exp(-LOG2 * np.einsum("i,ixh->xh", s, dm))
    q = joint.sum(axis=-2)
    c = (px / np.maximum(q @ a.T, 1e-300)) @ a
    resp = _fixed_point_solve(joint, cond, q, c, b)
    fixed = np.einsum("...xh,...ixh,...jxh->...ij", joint, dev, dev)
    return -fixed - np.swapaxes(b, -1, -2) @ resp, -q[..., None] * resp


def ba_joint_rd(p: JointPmf, d: DistortionSpec, D) -> RdPoint:
    """Joint R_{X1X2}(D1, D2) as the maximum of the concave dual
    g(s) = F*(s)/ln 2 - s1 D1 - s2 D2 over 0 <= s <= SLOPE_CAP (_joint_search).

    A target that one reproduction pair meets is answered at zero rate first.
    Otherwise the source's stored supporting planes (_SWEEP_CACHE) give the
    first rate, their maximum at D, and the start, their argmax 5e-7 inside D;
    a new source's come from one call at (s, s), s in _DOUBLING_SLOPES. A
    projected Newton ascent then takes the exact gradient E[d_i] - D_i
    (one-sided on an axis s_i = 0, see _axis_channel) and the exact Hessian,
    and adds the plane of one single-entry kernel call per trial step,
    warm-started from the output pmf that the incumbent's slope derivative
    (_dual_hessian) predicts. A trial is kept unless its certified value
    falls short of the incumbent's by more than the kernel's tolerance; after
    a failed trial the next step is damped toward the gradient. The ascent
    stops once the predicted gain is below ASCENT_GAIN_TOL bits, or after
    ASCENT_CALLS calls.

    The returned rate is the best certified value of g at D over the planes.
    The test channel is the zero-rate one or the ascent's last (it aims 5e-7
    inside D), made to meet D with no slack by ``meet``.
    """
    return _lockstep([_joint_search(p, d, D)])[0]


def _joint_search(p: JointPmf, d: DistortionSpec, D):
    """One ba_joint_rd query as a generator for _lockstep, as _scalar_search is."""
    target = np.array([float(D[0]), float(D[1])])
    if p.ncoords != 2:
        raise ProbabilityError("ba_joint_rd expects a 2-coordinate pmf")
    if not np.all(np.isfinite(target)):
        raise ProbabilityError(f"distortion targets {target.tolist()} are not all finite")
    px, dm = _joint_problem(p, d)
    hot = np.eye(dm.shape[2])[dm.sum(axis=0).argmin(axis=1)]  # per x, a pair of least d_1 and d_2
    least = np.einsum("x,xh,ixh->i", px, hot, dm)
    if np.any(target < least):
        raise InfeasibleDistortion(f"distortion {target.tolist()} below least reachable {least.tolist()}")

    def meet(chan, e, s, rate):
        """The RdPoint of chan (distortions e, slopes s) made to meet D: for each D_i
        it overshoots, chan is mixed with a copy whose X̂_i is moved to its entry in
        ``hot``, by the largest weight that meets D_i. Should rounding leave D unmet,
        both coordinates are mixed, by weights nudged down to 0, where the channel is
        ``hot``, which meets D. An unmet D_i at SLOPE_CAP raises unless the channel's
        I(X; X̂) is within 1e-4 bits of the rate, which then holds within that."""
        over = e > target
        capped = np.any(over & (s >= SLOPE_CAP))
        lam = np.clip((target - least) / np.maximum(e - least, 1e-300), 0.0, 1.0)
        for shrink in 1.0 - np.concatenate(([0.0], 2.0 ** np.arange(-52, 1))):
            c = chan.reshape(-1, *d.repro_sizes)
            for i in np.flatnonzero(over):
                ci = np.moveaxis(c, 1 + i, 1)
                w = lam[i] * shrink
                one = hot.reshape(ci.shape[0], *d.repro_sizes).sum(axis=2 - i)  # X̂_i's entry in hot
                c = np.moveaxis(w * ci + (1 - w) * one[..., None] * ci.sum(1, keepdims=True), 1, 1 + i)
            channel = ConditionalPmf(px.size, (chan.shape[1],), c.reshape(chan.shape))
            e = np.einsum("x,xh,ixh->i", px, channel.rows, dm)
            if np.all(e <= target):
                break
            over[:] = True
        if capped and mutual_information(JointPmf(chan.shape, px[:, None] * channel.rows), [0]) > rate + 1e-4:
            raise SweepResolutionError(f"slope {SLOPE_CAP} does not reach distortion {target.tolist()}")
        return RdPoint((float(e[0]), float(e[1])), rate, (float(s[0]), float(s[1])), channel)

    # zero-rate feasibility: a single reproduction pair dominating the target
    zero = px @ dm
    ok = np.all(zero <= target[:, None] + 1e-15, axis=0)
    if np.any(ok):
        j = int(np.nonzero(ok)[0][0])
        c = np.zeros_like(dm[0])
        c[:, j] = 1.0
        return meet(c, zero[:, j], np.zeros(2), 0.0)

    key = (p.alphabet_sizes, p.mass.tobytes(), tuple(m.tobytes() for m in d.matrices), d.repro_sizes)
    if key not in _SWEEP_CACHE:
        diagonal = np.repeat(_DOUBLING_SLOPES[:, None], 2, axis=1)
        conds, flb = yield px, LOG2 * np.einsum("ni,ixh->nxh", diagonal, dm), None, RATE_TOL
        _SWEEP_CACHE[key] = deque(zip(diagonal, conds, flb), maxlen=256)
        if len(_SWEEP_CACHE) > 16:
            _SWEEP_CACHE.pop(next(iter(_SWEEP_CACHE)))
    planes = _SWEEP_CACHE[key]
    aim = target - 5e-7  # aimed a little inside D, so that the ascent's channel usually meets it

    def point(chan, s):
        """Best-map channel, its distortions and the kernel's output pmf (the warm start)."""
        warm = px @ chan
        chan = _axis_channel(px, chan, dm, d.repro_sizes, s)
        return chan, np.einsum("x,xh,ixh->i", px, chan, dm), warm

    # supporting-plane lower bounds from the certified Lagrangian minima:
    # R(D1, D2) >= F*(s1, s2) - s1 D1 - s2 D2 at every stored slope pair
    slopes, flb = np.array([pl[0] for pl in planes]), np.array([pl[2] for pl in planes]) / LOG2
    rate = float(np.max(flb - slopes @ target))
    k = int(np.argmax(flb - slopes @ aim))
    s, val = slopes[k], float(flb[k] - slopes[k] @ aim)
    chan, e, warm = point(planes[k][1], s)
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
        # warm start: the incumbent's output pmf moved by its slope derivative
        pred = np.maximum(warm + dq @ (LOG2 * (trial - s)), 1e-12)
        c, fl = yield px, LOG2 * np.einsum("ni,ixh->nxh", trial[None], dm), pred / pred.sum(), RATE_TOL
        planes.append((trial, c[0], fl[0]))  # a failed trial's plane is a lower bound too
        certified = float(fl[0]) / LOG2
        rate = max(rate, certified - trial @ target)
        trial_point = point(c[0], trial)
        # a trial within the kernel's tolerance of the incumbent is no worse;
        # after a failed one the next step is damped toward the gradient
        if certified - trial @ aim > val - RATE_TOL / LOG2:
            s, val, (chan, e, warm) = trial, certified - trial @ aim, trial_point
            damping /= 3.0
        else:
            # at least the damping that cuts the failed step to a quarter
            damping = max(10.0 * damping, 4.0 * np.linalg.norm(grad[free]) / np.linalg.norm(trial - s))

    return meet(chan, e, s, max(rate, 0.0))


def _coordinate_pmf(p: JointPmf, d: DistortionSpec, coord, given: int | None):
    """The pmf of X_coord, or of (X_coord, X_given), and X_coord's spec; coord is a
    coordinate or, for a joint query, a tuple of them. Keeping all of p in
    order keeps p itself, so its joint queries share one plane store."""
    coords = [coord] if np.ndim(coord) == 0 else list(coord)
    keep = coords if given is None else [*coords, given]
    spec = DistortionSpec(tuple(d.matrices[c] for c in coords), tuple(d.repro_sizes[c] for c in coords))
    if keep == list(range(p.ncoords)):
        return p, spec
    mass = np.moveaxis(p.mass, keep, range(len(keep))).sum(axis=tuple(range(len(keep), p.ncoords)))
    return JointPmf(mass.shape, mass), spec


def coordinate_rd_values(p: JointPmf, d: DistortionSpec, queries) -> list[RdPoint]:
    """R_{X_coord}(D), or R_{X_coord | X_given}(D), for each (coord, given or
    None, D) of a multi-coordinate source, in order, by one lockstep search
    (_lockstep), whose every round is one kernel call. A joint query
    ((i, j), None, (D_i, D_j)) asks R_{X_i X_j}(D_i, D_j) as ba_joint_rd does."""
    return _lockstep([
        _scalar_search(*_problem(*_coordinate_pmf(p, d, c, g), D)) if np.ndim(c) == 0
        else _joint_search(*_coordinate_pmf(p, d, c, g), D)
        for c, g, D in queries
    ])
