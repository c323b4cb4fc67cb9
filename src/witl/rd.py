"""Alternating-minimization solvers for marginal, conditional, and joint
rate-distortion functions on finite alphabets.

Every query R(D) maximizes the concave dual g(s) = pw . F*_w(s)/ln 2 - s . D
over slopes 0 <= s <= SLOPE_CAP, F*_w being component w's Lagrangian minimum:
R_X has one multiplier and one component, R_{X|W} one multiplier and a
component per letter of W, R_{X1..XN} N multipliers and one component. One
builder, ``_query``, makes each from a source and its coordinates, and one
generator, ``_dual_search``, serves all three: a zero-rate rule, a start from
stored supporting planes or one kernel call on diagonal doubling slopes, and a
projected Newton ascent with the curvature of ``_dual_hessian``, safeguarded by
the cuts of the channels it evaluates, one kernel call per step, run to a gap
of RATE_TOL/1000 for scalar queries and RATE_TOL for joint ones; every kind
fails at SLOPE_CAP by the one rule of ``meet``. Searches run in lockstep
(``_lockstep``): a round is one call of the batched kernel ``_ba_batch`` on
every open search's request, padded to the round's largest alphabets. The
kernel alternates as Blahut-Arimoto does and, at each dual-gap check, takes one
Newton step on the alternation's fixed point (one batched LU solve), so that
calls near critical slopes end on their certificate; the curvature applies the
same linearization's pseudo-inverse through one eigendecomposition. Multipliers
are in bits per distortion unit throughout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .prob import LOG2, ConditionalPmf, JointPmf, ProbabilityError, mutual_information

MAX_ITER = 10_000
RATE_TOL = 1e-10  # nats; certified dual-gap stopping criterion
SLOPE_CAP = 64.0  # bits per distortion unit
#: slopes of a search's start, on the diagonal: 1, 2, 4, ..., SLOPE_CAP
_DOUBLING_SLOPES = 2.0 ** np.arange(int(np.log2(SLOPE_CAP)) + 1)
#: guard on the trial kernel calls of an ascent; it normally stops on its gain
ASCENT_CALLS = 20
#: an ascent stops once its predicted dual gain is below this many bits
ASCENT_GAIN_TOL = 1e-12
#: factors on the weights by which ``meet`` mixes a channel into D: 1, then nudged down to 0
_SHRINKS = 1.0 - np.concatenate(([0.0], 2.0 ** np.arange(-52, 1)))
#: the fractions of a projected Newton step that an ascent tries, longest first
_HALVINGS = 0.5 ** np.arange(53)
#: per joint source (16, first in first out), its 256 newest supporting planes of the
#: dual: (slopes, (W, nx, nxh) channels, certified pw . F* in nats), W = 1
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


def _ba_batch(px, cost, q0=None, tol=RATE_TOL):
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
    for it in range(1, MAX_ITER + 1):
        checking = it == next_check or it == MAX_ITER
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
        if it == MAX_ITER:
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


def _axis_channel(px, cond, dm, repro, s):
    """cond (W, nx, nxh) with the X̂_i part replaced by its best map wherever s_i = 0.

    At s_i = 0 the cost does not see X̂_i, so the kernel leaves that part of
    the channel arbitrary. Mapping each component's X̂_i to its letter of least
    expected d_i keeps the rate and the Lagrangian, and its E[d_i] - D_i is the
    one-sided derivative of the dual along s_i.
    """
    c = cond.reshape(*cond.shape[:2], *repro)
    for i in np.flatnonzero(s <= 0):
        marg = c.sum(axis=2 + i, keepdims=True)
        cost = (px.reshape(*px.shape, *[1] * len(repro)) * marg * dm[i].reshape(-1, *repro)).sum(axis=1)
        letters = np.arange(repro[i]).reshape([-1 if j == i else 1 for j in range(len(repro))])
        c = np.where(letters == cost.argmin(axis=1 + i, keepdims=True)[:, None], marg, 0.0)
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


def _dual_search(px, pw, dm, repro, target, planes, tol):
    """R(target) = max over 0 <= s <= SLOPE_CAP of the concave dual
    g(s) = pw . F*_w(s) / ln 2 - s . target, as a generator for _lockstep: it
    yields the (px, cost, q0, tol) of each kernel call it needs, is sent back
    (conditionals, bounds, rates), and returns its RdPoint.

    px (W, nx): component source pmfs with weights pw (W,), which decouple at
    a common slope, so that each kernel call solves them all; dm (k, nx, nxh):
    the distortions of the k coordinates of X̂, of sizes repro; planes: a deque
    of supporting planes (slopes (k,), channels (W, nx, nxh), pw . F* in nats)
    to start from and add to; tol: the kernel's stopping gap in nats.

    A target that some constant reproduction per component meets within 1e-15
    is answered at zero rate, before one below the least distortion raises
    InfeasibleDistortion; both before any kernel call. Empty planes are filled
    by one call on the diagonal slopes (s, .., s), s in _DOUBLING_SLOPES. From
    the plane of best value at the target, a projected Newton ascent takes the
    exact gradient E[d] - target (one-sided on an axis s_i = 0, _axis_channel)
    and the pw-weighted Hessian (_dual_hessian), damped toward the gradient
    after a step that does not ascend, or a trial that falls short of the
    incumbent by more than tol. Any channels c give g(x) <= I(c) + x . (E_c[d]
    - target), so a maximizer x lies inside the cut where that exceeds the
    incumbent's value; each plane the search makes adds the cut of its channels
    (for k = 1 the start's cuts bracket the maximizer). The step is projected
    onto the box, then halved to its first power-of-two fraction strictly
    inside every cut. Each trial is one kernel call warm-started from the
    output pmfs that the incumbent's slope derivative predicts, and adds its
    plane. The ascent stops once the predicted gain is below ASCENT_GAIN_TOL
    bits or after ASCENT_CALLS trials.

    The rate is the best certified value of g at the target over the planes;
    the slopes are the incumbent's, and its channels are made to meet the
    target by ``meet``. The test channel is returned when W = 1.
    """
    if not np.isfinite(target).all():
        raise ProbabilityError(f"distortion targets {target.tolist()} are not all finite")
    (nw, nx), (k, _, nxh) = px.shape, dm.shape
    flat, dmw = (pw[:, None] * px).reshape(-1), np.concatenate((dm,) * nw, axis=1)

    def distortion(chans):
        """E[d_i] over the components of channels (..., W, nx, nxh)."""
        return np.einsum("x,...xh,ixh->...i", flat, chans.reshape(*chans.shape[:-3], -1, nxh), dmw)

    hot = np.eye(nxh)[dm.sum(axis=0).argmin(axis=1)].reshape(nx, *repro)  # per x, one of least sum_i d_i
    least = (pw @ px) @ dm.min(axis=2).T

    def meet(chan, e, s, rate):
        """The RdPoint of channels chan (distortions e, slopes s) made to meet D: for
        each D_i they overshoot, every component is mixed with a copy whose X̂_i is
        moved to its entry in ``hot``, by the largest weight that meets D_i. Should
        rounding leave D unmet, every coordinate is mixed, by weights nudged down to 0,
        where the channels are ``hot``, which meets D. An unmet D_i at SLOPE_CAP raises
        unless the channels' I(X; X̂ | W) is within 1e-4 bits of the rate, which then
        holds within that."""
        over = e > target
        capped = (over & (s >= SLOPE_CAP)).any()
        lam = np.clip((target - least) / np.maximum(e - least, 1e-300), 0.0, 1.0)
        for shrink in _SHRINKS:
            c = chan.reshape(nw, nx, *repro)
            for i in np.flatnonzero(over):
                w = lam[i] * shrink
                one = hot.sum(axis=tuple(1 + j for j in range(k) if j != i), keepdims=True)  # X̂_i's part of hot
                c = w * c + (1 - w) * one * c.sum(axis=2 + i, keepdims=True)
            rows = c.reshape(nw, nx, nxh)
            channel = ConditionalPmf(nx, (nxh,), rows[0]) if nw == 1 else None
            e = distortion(rows if channel is None else channel.rows)
            if (e <= target).all():
                break
            over[:] = True
        if capped and sum(pw[w] * mutual_information(JointPmf((nx, nxh), px[w, :, None] * rows[w]), [0])
                          for w in range(nw)) > rate + 1e-4:
            raise SweepResolutionError(f"slope {SLOPE_CAP} does not reach distortion {target.tolist()}")
        return RdPoint(tuple(e.tolist()), rate, tuple(s.tolist()), channel)

    zero = px @ dm  # (k, W, nxh): E[d_i] of each constant reproduction per component
    const = (zero - target[:, None, None]).max(axis=0).argmin(axis=1)
    e = pw @ zero[:, np.arange(nw), const].T
    if (e <= target + 1e-15).all():
        return meet(np.repeat(np.eye(nxh)[const][:, None], nx, axis=1), e, np.zeros(k), 0.0)
    if (target < least).any():
        raise InfeasibleDistortion(f"distortion {target.tolist()} below least reachable {least.tolist()}")

    def point(chan, s):
        """Best-map channels, their distortions and the kernel's output pmfs (the warm start)."""
        warm = np.einsum("wx,wxh->wh", px, chan)
        chan = chan if (s > 0).all() else _axis_channel(px, chan, dm, repro, s)
        return chan, distortion(chan), warm

    cold = not planes
    if cold:
        diagonal = np.repeat(_DOUBLING_SLOPES[:, None], k, axis=1)
        cost = np.repeat(LOG2 * np.einsum("ni,ixh->nxh", diagonal, dm), nw, axis=0)
        conds, flb, rates = yield np.concatenate((px,) * len(diagonal)), cost, None, tol
        conds = conds.reshape(-1, nw, nx, nxh)
        planes.extend(zip(diagonal, conds, flb.reshape(-1, nw) @ pw))
    slopes, fstar = np.array([pl[0] for pl in planes]), np.array([pl[2] for pl in planes])
    vals = fstar / LOG2 - slopes @ target
    j = int(vals.argmax())
    rate, s, val = float(vals[j]), slopes[j], float(vals[j])
    chan, e, warm = point(planes[j][1], s)
    # g(x) <= I(c) + x . (E_c[d] - target) for any channels c, so a maximizer x of
    # g, where g(x) >= val, lies inside the cut of each plane this search makes
    cut_i = rates.reshape(-1, nw) @ pw if cold else np.zeros(0)
    cut_d = (distortion(conds) if cold else np.zeros((0, k))) - target
    eye = np.eye(k)
    damping, calls, hess = 0.0, 0, None
    while calls < ASCENT_CALLS:
        grad = e - target
        free = np.where(grad > 0, s < SLOPE_CAP, s > 0)  # the slopes that may move along the gradient
        if not free.any():
            break
        if hess is None:
            hess, dq = _dual_hessian(px, chan, dm, s)
            hess = -LOG2 * np.einsum("w,wij->ij", pw, hess)
        # the damped Newton step on the free slopes, 0 on the others
        damped = np.where(np.outer(free, free), hess + (damping + 1e-12) * eye, eye)
        step = np.linalg.solve(damped, np.where(free, grad, 0.0))
        if grad @ step - 0.5 * step @ hess @ step < ASCENT_GAIN_TOL:
            break
        move = np.minimum(np.maximum(s + step, 0.0), SLOPE_CAP) - s
        # the first power-of-two fraction of the move strictly inside every cut
        toward = cut_d @ move
        limit = np.divide(cut_i + cut_d @ s - val, -toward, out=np.full(len(toward), 2.0), where=toward < 0)
        fractions = _HALVINGS[_HALVINGS < limit.min(initial=2.0)]
        if grad @ move <= 0 or not fractions.size:
            # the projected step does not ascend inside the cuts: damp it toward the gradient
            damping = max(10.0 * damping, 4.0 * np.linalg.norm(grad[free]) / np.linalg.norm(step))
            continue
        trial = s + fractions[0] * move
        if (trial == s).all():
            break
        # warm start: the incumbent's output pmfs moved by their slope derivative
        pred = np.maximum(warm + dq @ (LOG2 * (trial - s)), 1e-12)
        calls += 1
        c, fl, r = yield (px, (LOG2 * np.einsum("i,ixh->xh", trial, dm))[None].repeat(nw, axis=0),
                          pred / pred.sum(axis=1, keepdims=True), tol)
        fl = float(pw @ fl)
        planes.append((trial, c, fl))  # a failed trial's plane is a lower bound and a cut too
        trial_point = point(c, trial)
        # the kernel's rate is I(X; X̂ | W) of c, at least that of its best map
        cut_i, cut_d = np.concatenate((cut_i, [pw @ r])), np.concatenate((cut_d, [trial_point[1] - target]))
        value = fl / LOG2 - trial @ target
        rate = max(rate, value)
        # a trial within the kernel's tolerance of the incumbent is no worse
        if value > val - tol / LOG2:
            s, val, (chan, e, warm), hess = trial, value, trial_point, None
            damping /= 3.0
        else:  # at least the damping that cuts the failed step to a quarter
            damping = max(10.0 * damping, 4.0 * np.linalg.norm(grad[free]) / np.linalg.norm(trial - s))
    return meet(chan, e, s, max(rate, 0.0))


def _lockstep(searches) -> list[RdPoint]:
    """The RdPoint of each search, a generator as _query makes, run in lockstep:
    a round sends every open search the reply to its last request and makes one
    kernel call (_round_call) on the requests they yield. Every search raises on
    a bad target before the first call. The searches are independent, but the
    entries of a call share its check cadence, so a search's bounds may move
    within their stopping tolerance with the company it keeps."""
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
    """(conditionals, bounds, rates) for each (px, cost, q0, tol) request of a lockstep
    round, from one _ba_batch call. A lone request goes to the kernel as it is.
    Otherwise each is padded to the round's largest (nx, nxh): a padded source
    letter has no mass, so it enters no certificate or rate; a padded
    reproduction letter costs +inf, so its mass is 0 after the first update. In
    a round with warm starts, padded letters start at 0 and a cold request
    uniform on its own letters. Replies are sliced back to each request's shape.
    The lone branch is no special answer (padded, 32 DSBS rounds came out
    bit-identical) but saves 14-17 us of a 350-460 us round on a 2-core box,
    and every round of a warm single-source query is lone."""
    if len(requests) == 1:
        px, cost, q0, tol = requests[0]
        rates, conds, flb = _ba_batch(px, cost, q0=q0, tol=tol)
        return [(conds, flb, rates)]
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
    rates, conds, flb = _ba_batch(px, cost, q0=q0, tol=np.repeat([r[3] for r in requests], sizes))
    return [(conds[at:at + b, :x, :h], flb[at:at + b], rates[at:at + b]) for (b, x, h), at in zip(shapes, rows)]


def ba_rate_distortion(p: JointPmf, d: DistortionSpec, D: float) -> RdPoint:
    """Marginal R_X(D) for a single-coordinate source."""
    if p.ncoords != 1:
        raise ProbabilityError("ba_rate_distortion expects a 1-coordinate pmf")
    return coordinate_rd_values(p, d, [(0, None, D)])[0]


def ba_conditional_rd(pxw: JointPmf, d: DistortionSpec, D: float) -> RdPoint:
    """Conditional R_{X|W}(D); coordinate 0 is the source, coordinate 1 is W.

    At a common slope the per-w problems decouple; the slope search solves
    them all in each kernel call so the p(w)-averaged distortion meets D.
    """
    if pxw.ncoords != 2:
        raise ProbabilityError("ba_conditional_rd expects an (X, W) pmf")
    return coordinate_rd_values(pxw, d, [(0, 1, D)])[0]


def ba_joint_rd(p: JointPmf, d: DistortionSpec, D) -> RdPoint:
    """Joint R_{X1..XN}(D1, .., DN) of all N >= 2 coordinates, as the maximum of
    the concave dual g(s) = F*(s)/ln 2 - s . D over 0 <= s <= SLOPE_CAP."""
    if p.ncoords < 2 or np.size(D) != p.ncoords:
        raise ProbabilityError("ba_joint_rd expects a pmf of N >= 2 coordinates and N targets")
    return coordinate_rd_values(p, d, [(tuple(range(p.ncoords)), None, D)])[0]


def _joint_problem(p: JointPmf, d: DistortionSpec):
    """Flattened source pmf and the stacked (N, nx, nxh) distortions of its N
    coordinates, nx and nxh the products of their source and reproduction sizes."""
    k, shape = p.ncoords, (*p.alphabet_sizes, *d.repro_sizes)
    dm = [np.broadcast_to(np.expand_dims(d.matrices[i], [j for j in range(2 * k) if j not in (i, k + i)]), shape)
          for i in range(k)]
    return p.mass.reshape(-1), np.stack(dm).reshape(k, p.mass.size, -1)


def _query(p: JointPmf, d: DistortionSpec, coords, given, D):
    """R_{X_coords}(D), or R_{X_coords | X_given}(D), as a generator for _lockstep
    (_dual_search); coords is a coordinate or a tuple of them. A query that keeps
    all of p in order uses p and d themselves, so a warm joint query builds no pmf
    or spec. One coordinate's components are p(x | w) over the letters of X_given
    of positive mass, searched from no planes to a kernel gap of RATE_TOL / 1000;
    several coordinates search from the source's stored planes (_SWEEP_CACHE) to a
    gap of RATE_TOL, and store a new source's planes once there are some."""
    cs = [coords] if np.ndim(coords) == 0 else list(coords)
    if len(cs) > 1 and given is not None:
        raise ProbabilityError("a joint query takes no given coordinate")
    keep = cs if given is None else [*cs, given]
    if keep != list(range(p.ncoords)):
        mass = np.moveaxis(p.mass, keep, range(len(keep))).sum(axis=tuple(range(len(keep), p.ncoords)))
        p = JointPmf(mass.shape, mass)
        d = DistortionSpec(tuple(d.matrices[c] for c in cs), tuple(d.repro_sizes[c] for c in cs))
    target = np.array(D, dtype=float).reshape(-1)
    if len(cs) == 1:
        pxw = p.mass.reshape(p.alphabet_sizes[0], -1)
        pw = pxw.sum(axis=0)
        return (yield from _dual_search((pxw[:, pw > 0] / pw[pw > 0]).T, pw[pw > 0], d.matrices[0][None],
                                        d.repro_sizes[:1], target, deque(), RATE_TOL / 1000))
    px, dm = _joint_problem(p, d)
    key = (p.alphabet_sizes, p.mass.tobytes(), tuple(m.tobytes() for m in d.matrices), d.repro_sizes)
    planes = _SWEEP_CACHE.get(key, deque(maxlen=256))
    try:
        return (yield from _dual_search(px[None], np.ones(1), dm, d.repro_sizes, target, planes, RATE_TOL))
    finally:
        if planes and key not in _SWEEP_CACHE:
            _SWEEP_CACHE[key] = planes
            if len(_SWEEP_CACHE) > 16:
                _SWEEP_CACHE.pop(next(iter(_SWEEP_CACHE)))


def coordinate_rd_values(p: JointPmf, d: DistortionSpec, queries) -> list[RdPoint]:
    """R_{X_coords}(D), or R_{X_coords | X_given}(D), for each (coords, given or
    None, D) of a source, in order, by one lockstep search (_lockstep), whose
    every round is one kernel call. coords is one coordinate or a tuple of
    them; a joint query (coords, None, (D_i for i in coords)) asks the joint
    R(D) of those coordinates, as ba_joint_rd does of all of them."""
    return _lockstep([_query(p, d, c, g, D) for c, g, D in queries])
