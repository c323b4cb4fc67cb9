"""Alternating-minimization solvers for marginal, conditional, and joint
rate-distortion functions on finite alphabets.

Every query R(D) maximizes the concave dual g(s) = pw . F*_w(s)/ln 2 - s . D
over slopes 0 <= s <= SLOPE_CAP, F*_w being component w's Lagrangian minimum:
R_X has one multiplier and one component, R_{X|W} one multiplier and a
component per letter of W, R_{X1..XN} N multipliers and one component. One
builder, ``_query``, makes each from a source and its coordinates, and one
driver, ``_lockstep``, searches any set of them as the rows of one array
state (_Ascent): a zero-rate rule, a start from a joint source's stored
supporting planes, from a scalar row's memoized start (_START_MEMO) or on
diagonal doubling slopes, and a projected Newton ascent with the curvature
of ``_dual_hessian``, safeguarded by the cuts of the channels it evaluates,
run to a gap of RATE_TOL/1000 for scalar queries and RATE_TOL for joint ones;
every kind fails at SLOPE_CAP by the one rule of ``meet``. The start of the
rows with neither and each round is one call of the batched kernel
``_ba_batch``, padded to the open rows' largest alphabets. The kernel
alternates as Blahut-Arimoto does and, at each dual-gap check, takes one
Newton step on the alternation's fixed point (one batched LU solve), so that
calls near critical slopes end on their certificate; the curvature applies
the same linearization's pseudo-inverse through one eigendecomposition.
Multipliers are in bits per distortion unit throughout.
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
#: dual: (slopes, (W, nx, nxh) channels, certified pw . F* in nats), W = 1; a scalar
#: row keeps no planes here, its start is in _START_MEMO
_SWEEP_CACHE: dict = {}
#: per scalar row (64, first in first out), keyed by the shapes and bytes of its
#: components px, distortions dm and kernel tol, the reply of its start at
#: _DOUBLING_SLOPES: channels (n, W, nx, nxh), bounds and rates (n, W); no trial planes
_START_MEMO: dict = {}


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
    px, tol = np.full((bsz, nx), px, dtype=float), np.full(bsz, tol, dtype=float)
    if q0 is None:
        q = np.full((bsz, nxh), 1.0 / nxh)
    else:
        # warm start, floored away from the boundary so no letter is frozen out
        q = np.full((bsz, nxh), q0, dtype=float) + 1e-9
        q = q / q.sum(axis=1, keepdims=True)
    cond_full = np.zeros((bsz, nx, nxh))
    rate_full = np.zeros(bsz)
    flb_full = np.full(bsz, -np.inf)

    def dual_certificate(q, a, px, support):
        """Upper value V(q), dual gap (both in nats) and c = a^T (px / a q):
        the Lagrangian minimum satisfies V(q) - gap <= F* <= V(q)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (a @ q[..., None])[..., 0]
            zsafe = np.where(z > 0, z, 1.0)
            v = -(px * np.where(support, np.log(zsafe), 0.0)).sum(axis=1)
            v = np.where(np.any((z <= 0) & support, axis=1), np.inf, v)
            ch = ((px / zsafe)[:, None] @ a)[:, 0]
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
    active, positive = np.arange(bsz), a.min() > 1e-300  # if so, z = a q > 0 for any q of sum 1
    check = 16
    next_check = check
    for it in range(1, MAX_ITER + 1):
        checking = it == next_check or it == MAX_ITER
        if not checking:
            z = (a @ q[..., None])[..., 0]
            if positive or z.min() > 0:
                q = q * ((px / z)[:, None, :] @ a)[:, 0]
                continue
        raw = q[:, None, :] * a
        norm = raw.sum(axis=2, keepdims=True)
        cond = np.divide(raw, norm, out=np.full_like(raw, 1.0 / nxh), where=norm > 0)
        q = (px[:, None] @ cond)[:, 0]
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
            r = (px * (terms * support[:, :, None]).sum(axis=2)).sum(axis=1) / LOG2
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
    nats, at the channel's slopes s (..., k) in bits, and the slope derivative
    (..., nxh, k) of its output pmf q, over the leading axes of px (..., nx),
    cond (..., nx, nxh), dm (..., k, nx, nxh) and s, which broadcast.

    The Hessian is the fixed-output curvature -E_x Cov(d_i, d_j) less the
    response of q, from the kernel's fixed-point linearization
    (_fixed_point_solve): with dq = q u, (M + diag(q (1 - c))) u = -B ds,
    B[y, i] = sum_x p(x) W(y|x) (d_i - E[d_i | x]).
    """
    joint, cond = px[..., None] * cond, cond[..., None, :, :]
    dev = dm - (cond * dm).sum(axis=-1, keepdims=True)
    wdev = joint[..., None, :, :] * dev
    b = np.swapaxes(wdev.sum(axis=-2), -1, -2)
    a = np.exp(-LOG2 * (s[..., None, None] * dm).sum(axis=-3))
    q = joint.sum(axis=-2)
    c = ((px / np.maximum((a @ q[..., None])[..., 0], 1e-300))[..., None, :] @ a)[..., 0, :]
    resp = _fixed_point_solve(joint, cond[..., 0, :, :], q, c, b)
    fixed = wdev.reshape(*wdev.shape[:-2], -1) @ np.swapaxes(dev.reshape(*dev.shape[:-2], -1), -1, -2)
    return -fixed - np.swapaxes(b, -1, -2) @ resp, -q[..., None] * resp


class _Row:
    """A query as _query builds it: components px (W, nx) of weights pw (W,), which
    decouple at a common slope, so that one kernel call solves them all; distortions
    dm (k, nx, nxh) of the coordinates of X̂, of sizes repro; the target; a deque of
    supporting planes (slopes (k,), channels (W, nx, nxh), pw . F* in nats) to start
    from and add to; the kernel's gap tol in nats; and its key, in _SWEEP_CACHE for a
    joint row and in _START_MEMO for a scalar one (k = 1)."""

    def __init__(self, px, pw, dm, repro, target, planes, tol, key):
        self.px, self.pw, self.dm, self.repro, self.target, self.planes, self.tol, self.key = (
            px, pw, dm, repro, target, planes, tol, key)
        (self.nw, self.nx), (self.k, _, self.nxh) = px.shape, dm.shape
        self.hot = np.eye(self.nxh)[dm.sum(axis=0).argmin(axis=1)].reshape(self.nx, *repro)  # least sum_i d_i
        self.least, self.cuts = (pw @ px) @ dm.min(axis=2).T, (np.zeros(0), np.zeros((0, self.k)))

    def distortion(self, chans):
        """E[d_i] over the components of channels (..., W, nx, nxh)."""
        return np.einsum("w,wx,...wxh,ixh->...i", self.pw, self.px, chans, self.dm)

    def meet(self, chan, e, s, rate):
        """The RdPoint of channels chan (distortions e, slopes s) made to meet D: for
        each D_i they overshoot, every component is mixed with a copy whose X̂_i is
        moved to its entry in ``hot``, by the largest weight that meets D_i. Should
        rounding leave D unmet, every coordinate is mixed, by weights nudged down to 0,
        where the channels are ``hot``, which meets D. An unmet D_i at SLOPE_CAP raises
        unless the channels' I(X; X̂ | W) is within 1e-4 bits of the rate, which then
        holds within that."""
        nw, nx, nxh, k, target = self.nw, self.nx, self.nxh, self.k, self.target
        over = e > target
        capped = (over & (s >= SLOPE_CAP)).any()
        lam = np.minimum(np.maximum((target - self.least) / np.maximum(e - self.least, 1e-300), 0.0), 1.0)
        for shrink in _SHRINKS:
            c = chan.reshape(nw, nx, *self.repro)
            for i in np.flatnonzero(over):
                w = lam[i] * shrink
                one = self.hot.sum(axis=tuple(1 + j for j in range(k) if j != i), keepdims=True)  # X̂_i's part
                c = w * c + (1 - w) * one * c.sum(axis=2 + i, keepdims=True)
            rows = c.reshape(nw, nx, nxh)
            channel = ConditionalPmf(nx, (nxh,), rows[0]) if nw == 1 else None
            e = self.distortion(rows if channel is None else channel.rows[None])
            if (e <= target).all():
                break
            over[:] = True
        if capped and sum(self.pw[w] * mutual_information(JointPmf((nx, nxh), self.px[w, :, None] * rows[w]), [0])
                          for w in range(nw)) > rate + 1e-4:
            raise SweepResolutionError(f"slope {SLOPE_CAP} does not reach distortion {target.tolist()}")
        return RdPoint(tuple(e.tolist()), rate, tuple(s.tolist()), channel)

    def planted(self, conds, flb, rates):
        """Takes the planes and cuts of the start: channels (n, W, nx, nxh), bounds and
        rates (n, W) at the diagonal slopes (s, .., s), s in _DOUBLING_SLOPES."""
        slopes = np.repeat(_DOUBLING_SLOPES[:, None], self.k, axis=1)
        self.planes.extend(zip(slopes, map(np.copy, conds), flb @ self.pw))
        self.cuts = rates @ self.pw, self.distortion(conds) - self.target
        store, size = (_START_MEMO, 64) if self.k == 1 else (_SWEEP_CACHE, 16)
        if self.key not in store:  # a new scalar row's start, copied out of the call's reply; a new source's planes
            store[self.key] = tuple(map(np.copy, (conds, flb, rates))) if self.k == 1 else self.planes
            if len(store) > size:
                store.pop(next(iter(store)))

    def start(self):
        """The slopes, channels and value (bits) of the plane of best value at the target."""
        slopes, fstar = np.array([pl[0] for pl in self.planes]), np.array([pl[2] for pl in self.planes])
        vals = fstar / LOG2 - slopes @ self.target
        j = int(vals.argmax())
        return self.planes[j][0], self.planes[j][1], vals[j]


def _stack(arrays, shape):
    """The arrays, each zero-padded to shape, stacked on a new first axis."""
    if all(a.shape == shape for a in arrays):
        return np.array(arrays, dtype=float)
    out = np.zeros((len(arrays), *shape))
    for o, a in zip(out, arrays):
        o[tuple(slice(n) for n in a.shape)] = a
    return out


#: the arrays of an _Ascent and what each axis runs over: r its queries, c their
#: components, k slopes, x and h source and reproduction letters, . anything
_AXES = dict(index="r", rows="r", shape="r.", tol="r", real="rk", target="rk", s="rk", val="r", rate="r",
             damp="r", e="rk", hess="rkk", cut_i="r.", cut_d="r.k", rise="rk", trial="rk", px="cx", dm="ckxh",
             pad="cxh", floor="ch", chan="cxh", warm="ch", dq="chk")


class _Ascent:
    """The projected Newton ascents of a lockstep search's queries, as arrays (_AXES)
    with a row per query and a row per component, padded to the largest k, nx and
    nxh of the queries left with exact zeros: a letter of no mass, a slope with no
    distortion and an identity block in the Newton system, a cut with no terms; a
    padded reproduction letter of a real source letter costs +inf in the kernel.

    A scalar query whose start an equal row left in _START_MEMO plants it; the
    state's first kernel call starts the other queries without planes, each
    component at the diagonal slopes in _DOUBLING_SLOPES from a uniform output pmf.
    Then a query starts from its plane of best value at the target. ``step`` takes
    the exact gradient E[d] - target (one-sided on an axis s_i = 0, _axis_channel)
    and the pw-weighted Hessian of the incumbent (_dual_hessian), and solves the
    damped Newton step on the slopes that may move. Any channels c give g(x) <= I(c)
    + x . (E_c[d] - target), so a maximizer x lies inside the cut where that exceeds
    the incumbent's value; each plane a query makes adds the cut of its channels
    (for k = 1 the start's cuts bracket the maximizer). The step is projected onto
    the box and halved to its first power-of-two fraction strictly inside every cut;
    one that does not ascend inside the cuts is damped toward the gradient and
    solved again. Each trial is a kernel request warm-started from the output pmfs
    that the incumbent's slope derivative predicts, and adds a plane; it becomes the
    incumbent unless it falls short by more than the kernel's tolerance, which sets
    at least the damping that cuts its step to a quarter. A query stops once its
    predicted gain is below ASCENT_GAIN_TOL bits, after ASCENT_CALLS trials or when
    no slope may move: its rate is the best certified value of g at the target over
    its planes, and ``meet`` makes the incumbent's channels meet it."""

    def __init__(self, rows):
        """rows: (query index, _Row); those without planes make their start first."""
        qs = [q for _, q in rows]
        self.shape = np.array([(q.nw, q.nx, q.nxh, q.k) for q in qs])
        (nx, nxh, k), m, self.calls = self.shape[:, 1:].max(axis=0), len(_DOUBLING_SLOPES) + ASCENT_CALLS, 0
        self.index, self.rows = np.array([i for i, _ in rows]), np.array(qs, object)
        self.tol = np.array([q.tol for q in qs])
        self.damp, self.real = np.zeros(len(qs)), np.arange(k) < self.shape[:, 3:]
        self.px = _stack([p for q in qs for p in q.px], (nx,))
        self.dm = _stack([q.dm for q in qs for _ in q.pw], (k, nx, nxh))
        real_x, real_h = (np.arange(n) < np.repeat(self.shape[:, j], self.shape[:, 0])[:, None]
                          for j, n in ((1, nx), (2, nxh)))
        self.pad, self.floor = np.where(real_x[:, :, None] > real_h[:, None], np.inf, 0.0), 1e-12 * real_h
        self._fit(np.concatenate([q.pw for q in qs]))
        for q in qs:
            if not q.planes and q.key in _START_MEMO:  # a scalar row's memoized start
                q.planted(*_START_MEMO[q.key])
        cold = np.array([not q.planes for q in qs])
        if cold.any():  # the start of the rest, on the arrays just laid out
            comps, n = cold[self.owner], len(_DOUBLING_SLOPES)
            cost = LOG2 * (_DOUBLING_SLOPES[:, None, None, None] * self.dm[comps].sum(axis=1)) + self.pad[comps]
            reply = _ba_batch(np.concatenate((self.px[comps],) * n), cost.reshape(-1, nx, nxh), None,
                              np.concatenate((self.tol[self.owner[comps]],) * n))
            rates, conds, flb = (a.reshape(n, -1, *a.shape[1:]) for a in reply)
            at = 0
            for q in self.rows[cold]:
                q.planted(conds[:, at:at + q.nw, :q.nx, :q.nxh], flb[:, at:at + q.nw], rates[:, at:at + q.nw])
                at += q.nw
        starts = [q.start() for q in qs]
        self.target, self.s = _stack([q.target for q in qs], (k,)), _stack([st[0] for st in starts], (k,))
        self.cut_i, self.cut_d = _stack([q.cuts[0] for q in qs], (m,)), _stack([q.cuts[1] for q in qs], (m, k))
        self.val = self.rate = np.array([st[2] for st in starts])
        self.chan, self.e, self.warm = self._point(_stack([c for st in starts for c in st[1]], (nx, nxh)), self.s)
        self.hess, self.dq = np.zeros((len(qs), k, k)), np.zeros((len(self.px), nxh, k))
        self._curvature(np.ones(len(qs), bool))

    def _fit(self, pw):
        """Each component's query, each query's first component, and the (query,
        component) weights pw."""
        w = self.shape[:, 0]
        self.owner, self.first = np.repeat(np.arange(len(w)), w), np.cumsum(w) - w
        self.weight = np.zeros((len(w), len(pw)))
        self.weight[self.owner, np.arange(len(pw))] = pw

    def _point(self, chan, s):
        """Best-map channels (chan at the queries' slopes s), the queries' distortions
        and the kernel's output pmfs (the warm start)."""
        warm, fix = (self.px[:, None] @ chan)[:, 0], np.flatnonzero(((s <= 0) & self.real).any(axis=1))
        chan = chan.copy() if fix.size else chan
        for r in fix:
            (w, x, h, k), q, at = self.shape[r], self.rows[r], self.first[r]
            chan[at:at + w, :x, :h] = _axis_channel(q.px, chan[at:at + w, :x, :h], q.dm, q.repro, s[r, :k])
        joint = (self.px[..., None] * chan).reshape(len(chan), -1, 1)
        return chan, self.weight @ (self.dm.reshape(*self.dm.shape[:2], -1) @ joint)[..., 0], warm

    def _curvature(self, at):
        """The pw-weighted Hessian of -g, in bits, and the output pmfs' slope
        derivative at the incumbents of the queries at (a mask)."""
        at, comps = (slice(None), slice(None)) if at.all() else (at, at[self.owner])
        hess, self.dq[comps] = _dual_hessian(self.px[comps], self.chan[comps], self.dm[comps],
                                             self.s[self.owner[comps]])
        self.hess[at] = -LOG2 * (self.weight[at][:, comps] @ hess.reshape(len(hess), -1)).reshape(-1, *hess.shape[1:])

    def step(self):
        """Each stopping query's (index, RdPoint), the query leaving the state, and
        the kernel request of the others' trials, or None once none is left."""
        grad, eye = self.e - self.target, np.eye(self.s.shape[1])
        free = np.where(grad > 0, self.s < SLOPE_CAP, self.s > 0)  # the slopes that may move along the gradient
        self.rise, pair = np.where(free, grad, 0.0), free[:, :, None] & free[:, None, :]
        room = self.cut_i + (self.cut_d @ self.s[..., None])[..., 0] - self.val[:, None]
        while True:  # a query's step depends on its damping only: solve every one again until none damps
            step = np.linalg.solve(np.where(pair, self.hess + (self.damp + 1e-12)[:, None, None] * eye, eye),
                                   self.rise[..., None])[..., 0]
            gain = (step * (grad - 0.5 * (self.hess @ step[..., None])[..., 0])).sum(axis=1)
            move = np.minimum(np.maximum(self.s + step, 0.0), SLOPE_CAP) - self.s
            toward = (self.cut_d @ move[..., None])[..., 0]
            limit = np.divide(room, -toward, out=np.full_like(room, 2.0), where=toward < 0).min(axis=1)
            first = (_HALVINGS >= limit[:, None]).sum(axis=1)  # the first fraction of the move inside every cut
            damp = (gain >= ASCENT_GAIN_TOL) & (((grad * move).sum(axis=1) <= 0) | (first == len(_HALVINGS)))
            if not damp.any():
                break
            grow = 4.0 * np.linalg.norm(self.rise[damp], axis=1) / np.linalg.norm(step[damp], axis=1)
            self.damp[damp] = np.maximum(10.0 * self.damp[damp], grow)
        self.trial = self.s + _HALVINGS[np.minimum(first, len(_HALVINGS) - 1), None] * move
        stop = (gain < ASCENT_GAIN_TOL) | (self.trial == self.s).all(axis=1) | (self.calls >= ASCENT_CALLS)
        if not stop.any():
            return [], self._request()
        done = [(i, q.meet(self.chan[at:at + w, :x, :h], self.e[r, :k], self.s[r, :k], max(float(self.rate[r]), 0.0)))
                for r, i, q, at, (w, x, h, k) in zip(np.flatnonzero(stop), self.index[stop], self.rows[stop],
                                                      self.first[stop], self.shape[stop].tolist())]
        if stop.all():
            return done, None
        keep, pw = ~stop, self.weight.sum(axis=0)[~stop[self.owner]]
        nx, nxh, k = self.shape[keep, 1:].max(axis=0)
        axes = {"r": keep, "c": keep[self.owner], "k": slice(k), "x": slice(nx), "h": slice(nxh), ".": slice(None)}
        for name, roles in _AXES.items():
            setattr(self, name, getattr(self, name)[tuple(axes[a] for a in roles)])
        self._fit(pw)
        return done, self._request()

    def _request(self):
        """The kernel request of the trials, warm-started from the output pmfs that
        the incumbent's slope derivative predicts."""
        move = LOG2 * (self.trial - self.s)[self.owner, :, None]
        pred = np.maximum(self.warm + (self.dq @ move)[..., 0], self.floor)
        cost = LOG2 * (self.trial[self.owner, None] @ self.dm.reshape(*self.dm.shape[:2], -1)).reshape(self.pad.shape)
        return self.px, cost + self.pad, pred / pred.sum(axis=1, keepdims=True), self.tol[self.owner]

    def update(self, rates, conds, flb):
        """Takes the kernel's reply to the request of ``step``."""
        fl, rate = self.weight @ flb, self.weight @ rates
        # each query's plane holds the kernel's own channels; a failed trial's plane is a bound and a cut too
        for r, (q, at) in enumerate(zip(self.rows, self.first)):
            q.planes.append((self.trial[r, :q.k], conds[at:at + q.nw, :q.nx, :q.nxh].copy(), fl[r]))
        chan, e, warm = self._point(conds, self.trial)
        # the kernel's rate is I(X; X̂ | W) of c, at least that of its best map
        self.cut_i[:, len(_DOUBLING_SLOPES) + self.calls] = rate
        self.cut_d[:, len(_DOUBLING_SLOPES) + self.calls] = e - self.target
        value, self.calls = fl / LOG2 - (self.trial * self.target).sum(axis=1), self.calls + 1
        self.rate, won = np.maximum(self.rate, value), value > self.val - self.tol / LOG2
        if won.all():
            self.s, self.val, self.e, self.chan, self.warm, self.damp = self.trial, value, e, chan, warm, self.damp / 3
        else:  # at least the damping that cuts the failed step to a quarter
            grow = 4.0 * np.linalg.norm(self.rise, axis=1) / np.linalg.norm(self.trial - self.s, axis=1)
            self.damp = np.where(won, self.damp / 3, np.maximum(10.0 * self.damp, grow))
            self.s, self.val, self.e = (np.where(won[:, None], self.trial, self.s), np.where(won, value, self.val),
                                        np.where(won[:, None], e, self.e))
            wc = won[self.owner]
            self.chan, self.warm = np.where(wc[:, None, None], chan, self.chan), np.where(wc[:, None], warm, self.warm)
        if won.any():
            self._curvature(won)


def _lockstep(queries) -> list[RdPoint]:
    """The RdPoint of each query, a _Row or a zero-rate RdPoint as _query makes,
    the rows searched as one array state (_Ascent), whose start and each round is
    one kernel call. The rows are independent, but the entries of a call share its
    check cadence, so a row's bounds may move within their tolerance with its company."""
    points, rows = list(queries), [(i, q) for i, q in enumerate(queries) if isinstance(q, _Row)]
    live = _Ascent(rows) if rows else None
    while live is not None:
        done, request = live.step()
        for i, point in done:
            points[i] = point
        if request is None:
            break
        live.update(*_ba_batch(*request))
    return points


def ba_rate_distortion(p: JointPmf, d: DistortionSpec, D: float) -> RdPoint:
    """Marginal R_X(D) for a single-coordinate source."""
    if p.ncoords != 1:
        raise ProbabilityError("ba_rate_distortion expects a 1-coordinate pmf")
    return coordinate_rd_values(p, d, [(0, None, D)])[0]


def ba_conditional_rd(pxw: JointPmf, d: DistortionSpec, D: float) -> RdPoint:
    """Conditional R_{X|W}(D); coordinate 0 is the source, coordinate 1 is W,
    whose letters are the components of one search."""
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
    dm = np.zeros((k, *shape))
    for i in range(k):  # d_i on the axes of X_i and X̂_i, broadcast over the others
        dm[i] += d.matrices[i].reshape([n if j in (i, k + i) else 1 for j, n in enumerate(shape)])
    return p.mass.reshape(-1), dm.reshape(k, p.mass.size, -1)


def _query(p: JointPmf, d: DistortionSpec, coords, given, D):
    """The _Row of R_{X_coords}(D), or R_{X_coords | X_given}(D), or its zero-rate
    RdPoint; coords is a coordinate or a tuple of them. One coordinate's components
    are p(x | w) over the letters of X_given of positive mass, searched from no
    planes (but a start memoized under the key of its components, distortions and
    tol, _START_MEMO) to a kernel gap of RATE_TOL / 1000; several coordinates, from
    the source's stored planes (_SWEEP_CACHE) to a gap of RATE_TOL; only a joint
    query of some of p's coordinates builds their pmf and spec."""
    cs = [coords] if np.ndim(coords) == 0 else list(coords)
    if len(cs) > 1 and given is not None:
        raise ProbabilityError("a joint query takes no given coordinate")
    keep = cs if given is None else [*cs, given]
    target, mass = np.array(D, dtype=float).reshape(-1), p.mass
    if not np.isfinite(target).all():
        raise ProbabilityError(f"distortion targets {target.tolist()} are not all finite")
    if keep != list(range(p.ncoords)):
        mass = np.moveaxis(mass, keep, range(len(keep))).sum(axis=tuple(range(len(keep), p.ncoords)))
    if len(cs) == 1:
        pxw = mass.reshape(mass.shape[0], -1)
        pw = pxw.sum(axis=0)
        px, dm = (pxw[:, pw > 0] / pw[pw > 0]).T, d.matrices[cs[0]][None]
        q = _Row(px, pw[pw > 0], dm, (d.repro_sizes[cs[0]],), target, deque(), RATE_TOL / 1000,
                 (px.shape, px.tobytes(), dm.shape, dm.tobytes(), RATE_TOL / 1000))
    else:
        if mass is not p.mass:
            p = JointPmf(mass.shape, mass)
            d = DistortionSpec(tuple(d.matrices[c] for c in cs), tuple(d.repro_sizes[c] for c in cs))
        px, dm = _joint_problem(p, d)
        key = (p.alphabet_sizes, p.mass.tobytes(), tuple(m.tobytes() for m in d.matrices), d.repro_sizes)
        q = _Row(px[None], np.ones(1), dm, d.repro_sizes, target, _SWEEP_CACHE.get(key, deque(maxlen=256)),
                 RATE_TOL, key)
    zero = q.px @ q.dm  # (k, W, nxh): E[d_i] of each constant reproduction per component
    const = (zero - target[:, None, None]).max(axis=0).argmin(axis=1)
    e = q.pw @ zero[:, np.arange(q.nw), const].T
    if (e <= target + 1e-15).all():  # met within 1e-15 at zero rate
        return q.meet(np.repeat(np.eye(q.nxh)[const][:, None], q.nx, axis=1), e, np.zeros(q.k), 0.0)
    if (target < q.least).any():
        raise InfeasibleDistortion(f"distortion {target.tolist()} below least reachable {q.least.tolist()}")
    return q


def coordinate_rd_values(p: JointPmf, d: DistortionSpec, queries) -> list[RdPoint]:
    """R_{X_coords}(D), or R_{X_coords | X_given}(D), for each (coords, given or
    None, D) of a source, in order, by one lockstep search (_lockstep), whose
    every round is one kernel call. coords is one coordinate or a tuple of
    them; a joint query (coords, None, (D_i for i in coords)) asks the joint
    R(D) of those coordinates, as ba_joint_rd does of all of them."""
    return _lockstep([_query(p, d, c, g, D) for c, g, D in queries])
