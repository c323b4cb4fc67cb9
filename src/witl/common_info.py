"""Minimizing I(X; W) over auxiliary variables that render the coordinates
conditionally independent while preserving the joint law.

Two search routes:

* exhaustive mode for 2x2 sources with |W| = 2: the three marginal-matching
  equations are solved in closed form and the two residual free parameters are
  gridded, so the returned minimum is global up to grid resolution; every
  candidate pair is scored from per-point entropies and a near-optimal
  shortlist is rescored exactly;
* penalized descent for everything else: q(w|x) is optimized by L-BFGS with
  the closed-form gradient under a ramped conditional-total-correlation
  penalty, which keeps the X-marginal exact by construction. :func:`minimize`
  is that L-BFGS, in NumPy: it runs every restart in lockstep, one stacked
  gradient evaluation per round. Results on this route are certified upper
  bounds only.

The descent is written for a channel q(w|u) from any variable U that the
source X reaches: U = X here, and U = the reproduction pair (X̂1, X̂2) for the
Gray-Wyner common rate in :func:`witl.gray_wyner.c_star`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .prob import (
    LOG2,
    ConditionalPmf,
    JointPmf,
    ProbabilityError,
    entropy,
    joint_with_mixture,
    marginalize,
    mix_channels,
    mutual_information,
    total_variation,
    xlogy,
)

FEASIBILITY_TOL = 1e-6  # total variation between the mixture and the target
#: the descent's penalty weight starts at MU_INIT and grows by MU_FACTOR after
#: each of DESCENT_STAGES L-BFGS runs of at most DESCENT_MAXITER iterations
MU_INIT = 1.0
MU_FACTOR = 10.0
DESCENT_STAGES = 9
DESCENT_MAXITER = 300
#: each run keeps DESCENT_MEMORY (s, y) pairs; its Moré-Thuente line search
#: asks sufficient decrease WOLFE_C1 and curvature WOLFE_C2 (interval
#: tolerance 0.1, steps in [0, STEP_MAX]) within LINE_EVALS evaluations; a run
#: stops once an iteration lowers f by at most REL_REDUCTION * max(|f|, 1) or
#: max |g| is at most GRAD_TOL. These are L-BFGS-B's defaults without bounds
#: (m = 10, factr = 1e7, pgtol = 1e-5, maxls = 20).
DESCENT_MEMORY = 10
WOLFE_C1, WOLFE_C2 = 1e-3, 0.9
LINE_EVALS = 20
STEP_MAX = 1e10
_EPS = float(np.finfo(float).eps)
REL_REDUCTION = 1e7 * _EPS
GRAD_TOL = 1e-5
#: bits of rounding the 2x2 grid allows its approximate scores when it picks
#: the pairs to rescore exactly; not a tolerance (see :func:`_exhaustive_2x2`)
_SCORE_SLACK = 1e-9


class Minimum(NamedTuple):
    x: np.ndarray  # (R, n): each run's last accepted iterate
    fun: np.ndarray  # (R,)
    nit: np.ndarray  # (R,) iterations of each run
    nfev: int  # evaluations, summed over the runs


def _rowdot(a, b):
    return (a * b).sum(axis=-1)


class _Memory:
    """The L-BFGS memories of k rows, kept in the compact form of Byrd,
    Nocedal and Schnabel (1994) so that each row costs O(m n).

    Per row, with the pairs (s, y) as the rows of S and Y, newest last, and
    R = triu(S'Y): T = R^-1 S and Y in ``pairs`` (k, 2, m, n), unused leading
    slots zero; then D = diag(S'Y) and gamma = s'y / y'y of the newest pair
    (1 before the first) in ``scale`` (k, m + 1, 1).
    """

    def __init__(self, k, n):
        m = DESCENT_MEMORY
        self.pairs = np.zeros((k, 2, m, n))
        self.scale = np.zeros((k, m + 1, 1))
        self.scale[:, m] = 1.0
        self._step = np.tile(np.eye(m), (k, 1, 1))  # push sets the last column

    def push(self, rows, s, y):
        """Append the pair (s, y) to the listed rows, dropping the oldest. A
        row of T depends on its pair and newer ones only (R^-1 is upper
        triangular); with s appended, the new T is E T, E the identity with
        last column (-t_1'y, .., -t_(m-1)'y, 1) / s'y."""
        m = DESCENT_MEMORY
        sel = _rows(rows, len(self.scale))
        w, sc = self.pairs[sel], self.scale[sel]  # views when sel holds every row
        w[:, :, :-1], sc[:, :-2] = w[:, :, 1:], sc[:, 1:-1]
        w[:, 0, -1], w[:, 1, -1] = s, y
        c = w.reshape(len(s), 2 * m, -1) @ y[:, :, None]  # t_i'y, s'y, then y_i'y, y'y
        sy = c[:, m - 1:m]
        e = self._step[:len(s)]
        np.divide(c[:, :m], -sy, out=e[:, :, -1:])
        e[:, -1:, -1:] = 1.0 / sy
        w[:, 0] = e @ w[:, 0]
        sc[:, -2:-1] = sy
        np.divide(sy, c[:, -1:], out=sc[:, -1:])
        if not isinstance(sel, slice):
            self.pairs[sel], self.scale[sel] = w, sc

    def empty(self, i):
        return not self.scale[i, -2, 0]  # the newest s'y, 0 until a pair arrives

    def clear(self, i):
        self.pairs[i], self.scale[i], self.scale[i, -1] = 0.0, 0.0, 1.0

    def take(self, keep):
        self.pairs, self.scale = self.pairs[keep], self.scale[keep]

    def direction(self, sel, g):
        """-H g on the rows ``sel``. The L-BFGS inverse Hessian is
        H = gamma (I - Y'T)'(I - Y'T) + T' D T, so with v = T g and
        u = (I - Y'T) g, H g = gamma u + T'(D v - gamma Y u)."""
        w, sc = self.pairs[sel], self.scale[sel]
        t, ym, gamma = w[:, 0], w[:, 1], sc[:, -1:]
        g = g[:, :, None]
        v = t @ g
        u = g - ym.transpose(0, 2, 1) @ v
        return -(gamma * u + t.transpose(0, 2, 1) @ (sc[:, :-1] * v - gamma * (ym @ u)))[:, :, 0]


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stmin, stmax):
    """One safeguarded step of the Moré-Thuente search (MINPACK-2 dcstep):
    the interval (stx, fx, dx, sty, fy, dy) updated with the trial (stp, fp,
    dp), the next trial step, and whether a minimizer is bracketed."""
    opposite = dp < 0 < dx or dx < 0 < dp

    def root(theta, da, db, flip):
        # the discriminant of the cubic that interpolates two (step, f, slope)
        sc = max(abs(theta), abs(da), abs(db))
        gamma = sc * math.sqrt(max(0.0, (theta / sc) ** 2 - (da / sc) * (db / sc)))
        return -gamma if flip else gamma

    if fp > fx:  # a higher value: the minimizer is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = root(theta, dx, dp, stp < stx)
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:  # slopes of opposite sign: bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = root(theta, dx, dp, stp > stx)
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # same sign, the slope shrinks
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = root(theta, dx, dp, stp > stx)
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stmax if stp > stx else stmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(stmax, max(stmin, stpf))
    elif brackt:  # same sign, the slope does not shrink
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = root(theta, dy, dp, stp > sty)
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stmax if stp > stx else stmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


class _MoreThuente:
    """The Moré-Thuente line search (MINPACK-2 dcsrch) on phi(t) = f(x + t d),
    from phi(0) = f0 with slope g0 < 0 and first trial ``stp``. :meth:`step`
    takes phi and phi' at the trial step and returns (done, next trial):
    done when the strong Wolfe conditions hold or the search can make no
    further progress; either way the trial step is taken."""

    def __init__(self, stp, f0, g0):
        self.brackt, self.stage = False, 1
        self.finit, self.ginit, self.gtest = f0, g0, WOLFE_C1 * g0
        self.width, self.width1 = STEP_MAX, 2.0 * STEP_MAX
        self.stx = self.sty = 0.0
        self.fx = self.fy = f0
        self.gx = self.gy = g0
        self.stmin, self.stmax = 0.0, stp + 4.0 * stp

    def _stalled(self, stp):
        return self.brackt and (
            stp <= self.stmin or stp >= self.stmax or self.stmax - self.stmin <= 0.1 * self.stmax
        )

    def step(self, stp, f, g):
        ftest = self.finit + stp * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0:
            self.stage = 2
        if (
            self._stalled(stp)
            or stp == STEP_MAX and f <= ftest and g <= self.gtest
            or stp == 0.0 and (f > ftest or g >= self.gtest)
            or f <= ftest and abs(g) <= WOLFE_C2 * -self.ginit
        ):
            return True, stp
        gt = self.gtest if self.stage == 1 and self.fx >= f > ftest else 0.0
        # in stage 1 the search steps on phi(t) - t * gtest while phi is
        # not yet low enough and its slope has not turned up
        stx, fx, gx, sty, fy, gy, stp, self.brackt = _dcstep(
            self.stx, self.fx - self.stx * gt, self.gx - gt,
            self.sty, self.fy - self.sty * gt, self.gy - gt,
            stp, f - stp * gt, g - gt, self.brackt, self.stmin, self.stmax)
        self.stx, self.fx, self.gx = stx, fx + stx * gt, gx + gt
        self.sty, self.fy, self.gy = sty, fy + sty * gt, gy + gt
        if self.brackt:
            if abs(self.sty - self.stx) >= 0.66 * self.width1:
                stp = self.stx + 0.5 * (self.sty - self.stx)
            self.width1, self.width = self.width, abs(self.sty - self.stx)
            self.stmin, self.stmax = min(self.stx, self.sty), max(self.stx, self.sty)
        else:
            self.stmin = stp + 1.1 * (stp - self.stx)
            self.stmax = stp + 4.0 * (stp - self.stx)
        stp = min(max(stp, 0.0), STEP_MAX)
        return False, self.stx if self._stalled(stp) else stp


def _rows(picked, k):
    """Index ``picked`` of k rows: a slice, a view, when it holds them all."""
    return slice(None) if len(picked) == k else picked


def minimize(fun, x0) -> Minimum:
    """L-BFGS (Liu and Nocedal 1989) with the Moré-Thuente line search (Moré
    and Thuente 1994), run on every row of x0 (R, n) in lockstep: each round
    makes one ``fun`` call on the trial points of the rows still open, and
    ``fun(x (k, n))`` returns f (k,) and its gradient (k, n), as new arrays.

    Each row runs as an unconstrained L-BFGS-B run does: its own memory of
    ``DESCENT_MEMORY`` pairs (a pair is kept only if s'y > eps * (-s'g)), a
    first step 1/|g| along -g and then step 1 along -H g, its own line search,
    and its own stop (``REL_REDUCTION``, ``GRAD_TOL`` or ``DESCENT_MAXITER``
    iterations), after which it drops out of the rounds. A search that needs
    more than ``LINE_EVALS`` evaluations, or a direction that does not
    descend, returns the row to its iterate with its memory cleared, or stops
    it if the memory was already empty. Every operation acts row by row, so a
    row's result does not depend on the rows it runs with.
    """
    x = np.array(x0, dtype=float)
    k, n = x.shape
    fx, g = fun(x)
    nfev = k
    out_x, out_f, out_nit = x.copy(), fx.copy(), np.zeros(k, dtype=int)
    mem = _Memory(k, n)
    d = -g
    # per row, as Python floats: f, and the current search's f(0), slope and step
    f, gd0 = fx.tolist(), _rowdot(g, d).tolist()
    f0, stp = list(f), [min(1.0 / math.sqrt(-v), STEP_MAX) if v < 0 else STEP_MAX for v in gd0]
    ids, nit, evals = list(range(k)), [0] * k, [0] * k
    searches = {}  # row id -> its _MoreThuente, once its first trial step fails
    stop = [v <= GRAD_TOL for v in np.abs(g).max(axis=1).tolist()]
    while True:
        if any(stop):
            out = [i for i in range(k) if stop[i]]
            rid = [ids[i] for i in out]
            out_x[rid], out_f[rid], out_nit[rid] = x[out], [f[i] for i in out], [nit[i] for i in out]
            keep = [i for i in range(k) if not stop[i]]
            x, g, d = x[keep], g[keep], d[keep]
            mem.take(keep)
            ids, f, f0, gd0, stp, nit, evals = ([v[i] for i in keep] for v in (ids, f, f0, gd0, stp, nit, evals))
            k, stop = len(keep), [False] * len(keep)
        if not k:
            return Minimum(out_x, out_f, out_nit, nfev)
        delta = np.array(stp)[:, None] * d
        xt = x + delta
        ft, gt = fun(xt)
        nfev += k
        gdt = _rowdot(gt, d).tolist()
        gmax = None  # max |g| of the trial points, once a row accepts one
        acc, pair, turn, spent = [], [], [], []
        for i, fi in enumerate(ft.tolist()):
            evals[i] += 1
            gi = gdt[i]
            if not (fi <= f0[i] + stp[i] * (WOLFE_C1 * gd0[i]) and abs(gi) <= WOLFE_C2 * -gd0[i]):
                if ids[i] not in searches:
                    searches[ids[i]] = _MoreThuente(stp[i], f0[i], gd0[i])
                found, step = searches[ids[i]].step(stp[i], fi, gi)
                if not found:
                    stp[i] = step
                    if evals[i] >= LINE_EVALS:
                        spent.append(i)
                    continue
            searches.pop(ids[i], None)
            acc.append(i)
            nit[i] += 1
            if gmax is None:
                gmax = np.abs(gt).max(axis=1).tolist()
            if nit[i] >= DESCENT_MAXITER or gmax[i] <= GRAD_TOL or (
                f[i] - fi <= REL_REDUCTION * max(abs(f[i]), abs(fi), 1.0)
            ):
                stop[i] = True
            else:
                turn.append(i)
                # L-BFGS-B's pair: s = stp d and y = g_new - g_old, kept if
                # s'y = (g_new'd - g_old'd) stp > eps * (-g_old'd) stp
                if (gi - gd0[i]) * stp[i] > _EPS * (-gd0[i] * stp[i]):
                    pair.append(i)
            f[i] = fi
        if pair:
            sel = _rows(pair, k)
            mem.push(pair, delta[sel], (gt - g)[sel])
        if len(acc) == k:
            x, g = xt, gt
        elif acc:
            x[acc], g[acc] = xt[acc], gt[acc]
        if turn:
            # every row's direction and slope, each as if alone: cheaper than picking rows
            sel = _rows(turn, k)
            d[sel] = mem.direction(slice(None), g)[sel]
            slopes = _rowdot(g, d).tolist()
            for i in turn:
                f0[i], gd0[i], stp[i], evals[i] = f[i], slopes[i], 1.0, 0
            spent += [i for i in turn if slopes[i] >= 0]
        for i in spent:
            searches.pop(ids[i], None)
            if mem.empty(i):
                stop[i] = True
                continue
            mem.clear(i)
            d[i] = -g[i]
            f0[i], gd0[i], stp[i], evals[i] = f[i], float(_rowdot(g[i], d[i])), 1.0, 0


class CommonInfoInfeasible(RuntimeError):
    """The search budget produced no point within the feasibility tolerance."""


@dataclass(frozen=True)
class SolveBudget:
    restarts: int = 8
    seed: int = 0
    grid_resolution: float = 1e-3

    def __post_init__(self):
        if not self.restarts >= 1:
            raise ProbabilityError(f"restarts must be >= 1, got {self.restarts!r}")
        if not 0 < self.grid_resolution < 1:
            raise ProbabilityError(f"grid_resolution must be in (0, 1), got {self.grid_resolution!r}")


@dataclass(frozen=True)
class CommonInfoSolution:
    pw: np.ndarray
    channels: tuple[ConditionalPmf, ...]
    achieved_I: float
    marginal_residual: float
    status: str  # "exhaustive-optimal" | "local-restart-best"

    def to_json_obj(self) -> dict:
        return {
            "pw": [float(v) for v in self.pw],
            "channels": [c.rows.tolist() for c in self.channels],
            "achieved_I_bits": self.achieved_I,
            "marginal_residual_tv": self.marginal_residual,
            "status": self.status,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "CommonInfoSolution":
        try:
            pw = np.asarray(obj["pw"], dtype=float)
            channels = tuple(
                ConditionalPmf(pw.size, (np.asarray(rows).shape[1],), np.asarray(rows))
                for rows in obj["channels"]
            )
            return cls(
                pw,
                channels,
                float(obj["achieved_I_bits"]),
                float(obj["marginal_residual_tv"]),
                str(obj["status"]),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ProbabilityError(f"bad solution document: {exc}") from exc


def common_info_bounds(p: JointPmf) -> tuple[float, float]:
    """(max cut mutual information, min_j H(X^{-j})) sandwich for C(X)."""
    n = p.ncoords
    if n < 2:
        raise ProbabilityError("bounds require at least two coordinates")
    coords = list(range(n))
    lower = 0.0
    for r in range(1, n // 2 + 1):
        for group in itertools.combinations(coords, r):
            if r == n - r and group[0] != 0:
                continue  # complements already covered
            lower = max(lower, mutual_information(p, group))
    upper = min(
        entropy(marginalize(p, [i for i in coords if i != j])) for j in coords
    )
    return lower, upper


def bsc_broadcast_source(theta: float, a1: float, N: int) -> JointPmf:
    """N bits produced by independent BSC(a1) channels driven by Bern(theta)."""
    if not 0.0 <= a1 <= 0.5:
        raise ProbabilityError(f"crossover {a1!r} outside [0, 1/2]")
    if not 0.0 <= theta <= 1.0:
        raise ProbabilityError(f"theta {theta!r} outside [0, 1]")
    if N < 2:
        raise ProbabilityError("broadcast source needs N >= 2")
    bsc = ConditionalPmf(2, (2,), [[1 - a1, a1], [a1, 1 - a1]])
    return mix_channels([theta, 1 - theta], [bsc] * N)


def _solution_from_mixture(p, pw, channels, status):
    joint = joint_with_mixture(pw, channels)
    return CommonInfoSolution(
        pw=np.asarray(pw, dtype=float),
        channels=tuple(channels),
        achieved_I=mutual_information(joint, [0]),
        marginal_residual=total_variation(joint.mass.sum(axis=0), p),
        status=status,
    )


def _product_of_marginals(p: JointPmf, k: int):
    """The W of k equal-weight letters, each carrying the product of the
    marginals: it reproduces exactly the independent sources, with I(X; W) = 0."""
    channels = tuple(
        ConditionalPmf(k, (s,), np.tile(marginalize(p, [i]).mass, (k, 1)))
        for i, s in enumerate(p.alphabet_sizes)
    )
    return _solution_from_mixture(p, np.full(k, 1.0 / k), channels, "exhaustive-optimal")


def _h(v):
    """Binary entropy in bits, elementwise."""
    return -(xlogy(v, v) + xlogy(1.0 - v, 1.0 - v)) / LOG2


def _block1_scores(p1: float, p2: float, p11: float, grid: np.ndarray):
    """Block 1 of the 2x2 grid, b10 < p1 < b11, scored from per-point entropies.

    With f(t) = (p11 - p2 t)/(p1 - t), the pair (b10, b11) has b20 = f(b11),
    b21 = f(b10) and weight pi = (p1 - b11)/(b10 - b11), so
    H(X|W) = h(b11) + h(f(b10)) + pi (u(b10) - u(b11)) with u = h - h∘f: two
    entropies per grid point instead of four per pair. Returns the grid
    indices ``below`` and ``above`` of the candidate points (f within 1e-9 of
    [0, 1]), that approximate H(X|W) in bits as a (below.size, above.size)
    array, and the mask of the pairs that are surely feasible: pi in
    (1e-6, 1 - 1e-6) and f in [1e-9, 1 - 1e-9] at both points.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (p11 - p2 * grid) / (p1 - grid)
    near = (f >= -1e-9) & (f <= 1 + 1e-9)
    below = np.flatnonzero(near & (grid < p1))
    above = np.flatnonzero(near & (grid > p1))
    hf = np.zeros_like(grid)
    hf[near] = _h(np.clip(f[near], 0.0, 1.0))
    hg = _h(grid)
    u = hg - hf
    sure_f = (f >= 1e-9) & (f <= 1 - 1e-9)
    b, a = grid[below], grid[above]
    piw = (p1 - a) / (b[:, None] - a)
    score = (hg[above] + hf[below][:, None]) + piw * (u[below][:, None] - u[above])
    sure = (piw > 1e-6) & (piw < 1 - 1e-6) & sure_f[below][:, None] & sure_f[above]
    return below, above, score, sure


def _exhaustive_2x2(p: JointPmf, budget: SolveBudget):
    """Global grid search for a 2x2 source with |W| = 2.

    Free parameters are b1 = p(X1=1 | w) for w in {0, 1}; the weight and the
    X2 channel follow from the three marginal-matching equations. These
    separate: b20 = f(b11) and b21 = f(b10) with f(t) = (p11 - p2 t)/(p1 - t),
    and the weight lies in (0, 1) only when b10 and b11 straddle p1, so only
    such pairs of grid points with f near [0, 1] are candidates. They come in
    two blocks, b10 < p1 < b11 and then b10 > p1 > b11, each in row-major
    order; block 2 is block 1 with the labels of W swapped, so each of its
    pairs has the H(X|W) of its mirror in block 1.

    :func:`_block1_scores` scores block 1 from per-point entropies. Those
    scores differ from the pairwise formulas by rounding only (about 1e-14
    bits), so the block-1 pairs within ``_SCORE_SLACK`` of the best surely
    feasible score, followed by their block-2 mirrors, hold the optimum and
    every pair that ties with it. The slack bounds that rounding with room to
    spare; it is not a tolerance on the optimum, and its size changes only
    how many pairs are rescored. The shortlist is rescored with the pairwise
    formulas and the first minimum in candidate order wins, so the pick is
    the one that scoring every candidate makes. An independent source returns
    the constant W before the grid. Where no pair is surely feasible (the
    diagonal source, many sources with a zero cell) every candidate is kept.
    """
    # the grid excludes b10 == b11 (degenerate W), where an independent
    # source's optimum lies: the constant W of I(X; W) = 0
    independent = _product_of_marginals(p, 2)
    if independent.marginal_residual <= FEASIBILITY_TOL:
        return independent
    p1 = float(p.mass[1, :].sum())
    p2 = float(p.mass[:, 1].sum())
    p11 = float(p.mass[1, 1])
    res = budget.grid_resolution
    grid = np.linspace(0.0, 1.0, int(round(1.0 / res)) + 1)
    below, above, score, sure = _block1_scores(p1, p2, p11, grid)
    best = np.max(score, initial=-np.inf, where=sure)
    keep = score >= best - _SCORE_SLACK
    r, c = np.nonzero(keep)
    # block 2 is row-major over (b10 above p1, b11 below p1): the mirrors of
    # the kept pairs in that order are the kept pairs in column-major order
    c2, r2 = np.nonzero(keep.T)
    i0 = np.concatenate([below[r], above[c2]])
    i1 = np.concatenate([above[c], below[r2]])
    b10, b11 = grid[i0], grid[i1]
    with np.errstate(divide="ignore", invalid="ignore"):
        piw = (p1 - b11) / (b10 - b11)
        # (b20, b21) solve pi*b20 + (1-pi)*b21 = p2 and
        # pi*b10*b20 + (1-pi)*b11*b21 = p11
        b20 = (b11 * p2 - p11) / (piw * (b11 - b10))
        b21 = (p11 - b10 * p2) / ((1.0 - piw) * (b11 - b10))
    feas = (piw > 1e-9) & (piw < 1 - 1e-9)
    for b in (b20, b21):
        feas &= (b >= -1e-12) & (b <= 1 + 1e-12)
    if not np.any(feas):
        raise CommonInfoInfeasible("no feasible point on the exhaustive grid")

    # score the feasible points of the shortlist
    i0, i1, piw, b10, b11 = i0[feas], i1[feas], piw[feas], b10[feas], b11[feas]
    b20 = np.clip(b20[feas], 0.0, 1.0)
    b21 = np.clip(b21[feas], 0.0, 1.0)
    hg = _h(grid)
    hxw = piw * (hg[i0] + _h(b20)) + (1.0 - piw) * (hg[i1] + _h(b21))
    j = int(np.argmin(entropy(p) - hxw))
    pw = np.array([piw[j], 1.0 - piw[j]])
    channels = (
        ConditionalPmf(2, (2,), np.array([[1 - b10[j], b10[j]], [1 - b11[j], b11[j]]])),
        ConditionalPmf(2, (2,), np.array([[1 - b20[j], b20[j]], [1 - b21[j], b21[j]]])),
    )
    return _solution_from_mixture(p, pw, channels, "exhaustive-optimal")


def _log0(m):
    """log m, read as 0 where m == 0: every such log has a zero coefficient."""
    return np.log(np.where(m > 0, m, 1.0))


def _descent_terms(pxu, u_sizes):
    """The descent's terms for one pxu and u_sizes (see
    :func:`_penalized_descent`), as a function ``terms(z, mu)``; what depends
    only on pxu and u_sizes is worked out here, once.

    For logits z of q(w|u) (rows of shape (nu, K), flattened; z may stack
    such vectors on leading axes), ``terms(z, mu)`` returns q, I(X;W),
    TC(U_1, .., U_n | W), the objective I + mu * max(TC, 0) and its gradient
    in z, all in nats, one value per stacked vector (a float for 1-D z). Each
    stacked vector is computed as it would be alone.

    The masses p(w), p(x,w), p(u,w) and each p(u_i,w) are linear in q: the
    row blocks b of ``mass = t @ q``, t stacking p(u), p(x,u), diag p(u) and
    each M_i diag p(u) (M_i maps u to u_i). With S_b = sum m log m over block
    b, the objective is sum_b a_b S_b - sum_x p(x) log p(x), a = (-1 + c(n-1),
    1, c, -c, .., -c) and c = mu where TC > 0, else 0. The "+1" of
    d(m log m)/dm cancels, so the gradient in q is t' (a log m); the row
    softmax maps it to q(k|u) (g(u,k) - sum_w q(w|u) g(u,w)).
    """
    nx, nu = pxu.shape
    n = len(u_sizes)
    pu = pxu.sum(axis=0)
    px = pxu.sum(axis=1)
    xlogx = float(px @ _log0(px))  # sum_x p(x) log p(x)
    coord = np.indices(u_sizes).reshape(n, nu)  # coord[i, u] = u_i
    t = np.vstack([pu, pxu, np.diag(pu)] + [(np.arange(s)[:, None] == coord[i]) * pu
                                            for i, s in enumerate(u_sizes)])
    tt = np.ascontiguousarray(t.T)
    sizes = [1, nx, nu, *u_sizes]
    starts = np.cumsum([0] + sizes[:-1])
    # a = a0 + c a1, repeated over each block's rows
    a0 = np.repeat([-1.0, 1.0, 0.0] + [0.0] * n, sizes)[:, None]
    a1 = np.repeat([n - 1.0, 0.0, 1.0] + [-1.0] * n, sizes)[:, None]

    def terms(z, mu):
        z = np.asarray(z, dtype=float)
        lead = z.shape[:-1]
        zb = z.reshape(-1, nu, z.shape[-1] // nu)
        B, K = zb.shape[0], zb.shape[2]
        e = np.exp(zb - zb.max(axis=2, keepdims=True))
        q = e / e.sum(axis=2, keepdims=True)
        mass = t @ q  # (B, rows, w)
        logs = _log0(mass)
        s = np.add.reduceat((mass * logs).reshape(B, -1), starts * K, axis=1)
        i_xw = s[:, 1] - s[:, 0] - xlogx
        tc = s[:, 2] - s[:, 3:].sum(axis=1) + (n - 1) * s[:, 0]
        g = tt @ ((a0 + (mu * (tc > 0))[:, None, None] * a1) * logs)
        grad = q * (g - (q * g).sum(axis=2, keepdims=True))
        obj = i_xw + mu * np.maximum(tc, 0.0)
        if not lead:
            return q[0], float(i_xw[0]), float(tc[0]), float(obj[0]), grad.reshape(-1)
        return (q.reshape(lead + (nu, K)), i_xw.reshape(lead), tc.reshape(lead), obj.reshape(lead),
                grad.reshape(lead + (nu * K,)))

    return terms


def _penalized_descent(pxu, u_sizes, K: int, budget: SolveBudget):
    """Multi-restart penalized descent over softmax logits of q(w|u).

    pxu: (nx, nu) joint of the source X and the variable U = (U_1, .., U_n)
    that W observes, U flattened row-major over ``u_sizes``. Objective (nats):
    I(X;W) + mu * [sum_i H(U_i|W) - H(U|W)], the second term being the
    conditional total correlation that vanishes exactly when W splits U; mu
    ramps by ``MU_FACTOR`` over ``DESCENT_STAGES``. Each stage is one
    :func:`minimize` call that runs every restart in lockstep on the
    closed-form gradient of :func:`_descent_terms`, starting from where the
    last stage left it; the restarts start from N(0, 2^2) logits drawn in
    restart order. W depends on X only through U, so the X-marginal is exact
    by construction. Returns one (q (nu, K), I(X;W), TC) per restart, both
    values in nats; a restart's result does not depend on the others.
    """
    rng = np.random.default_rng(budget.seed)
    z = rng.normal(scale=2.0, size=(budget.restarts, pxu.shape[1] * K))
    terms = _descent_terms(pxu, u_sizes)
    mu = MU_INIT
    for _ in range(DESCENT_STAGES):
        z = minimize(lambda v, mu=mu: terms(v, mu)[3:], z).x
        mu *= MU_FACTOR
    q, i_xw, tc = terms(z, mu)[:3]
    return list(zip(q, i_xw.tolist(), tc.tolist()))


def _descent_solution(p: JointPmf, K: int, budget: SolveBudget):
    """Penalized descent over q(w|x) (U = X); the feasible restart of least
    I(X;W) wins, ties broken by residual, then restart order."""
    px = p.mass.reshape(-1)
    sizes = p.alphabet_sizes
    n = len(sizes)
    candidates = []
    for restart, (q, _, _) in enumerate(_penalized_descent(np.diag(px), sizes, K, budget)):
        joint = px[:, None] * q  # (x, w)
        qw = joint.sum(axis=0)
        keep = qw > 1e-12
        qw_k = qw[keep] / qw[keep].sum()
        shaped = joint.reshape(sizes + (K,))
        channels = []
        for i in range(n):
            axes = tuple(a for a in range(n) if a != i)
            mi = shaped.sum(axis=axes).T  # (K, |Xi|)
            rows = mi[keep] / np.maximum(mi[keep].sum(axis=1, keepdims=True), 1e-300)
            channels.append(ConditionalPmf(int(keep.sum()), (sizes[i],), rows))
        sol = _solution_from_mixture(p, qw_k, channels, "local-restart-best")
        candidates.append((sol.achieved_I, sol.marginal_residual, restart, sol))
    feasible = [c for c in candidates if c[1] <= FEASIBILITY_TOL]
    if not feasible:
        best = min(candidates, key=lambda c: c[1])
        raise CommonInfoInfeasible(
            f"best restart residual {best[1]:.3e} exceeds {FEASIBILITY_TOL}"
        )
    feasible.sort(key=lambda c: (c[0], c[1], c[2]))
    return feasible[0][3]


def solve_common_info(
    p: JointPmf, K: int | None = None, budget: SolveBudget | None = None
) -> CommonInfoSolution:
    """Search for an auxiliary W of cardinality at most K.

    The returned ``achieved_I`` is always an upper bound on C(X) for that K;
    only the exhaustive 2x2 route is optimal up to grid resolution. The
    default K = prod(alphabet sizes) is a support-size heuristic; no general
    cardinality bound is known for the infimum.
    """
    budget = budget or SolveBudget()
    if K is None:
        K = int(np.prod(p.alphabet_sizes))
    if K < 1:
        raise ProbabilityError("cardinality bound must be >= 1")
    if K == 1:
        sol = _product_of_marginals(p, 1)
        if sol.marginal_residual > FEASIBILITY_TOL:
            raise CommonInfoInfeasible(
                f"K=1 requires an independent source; residual {sol.marginal_residual:.3e}"
            )
        return sol
    if p.alphabet_sizes == (2, 2) and K == 2:
        return _exhaustive_2x2(p, budget)
    return _descent_solution(p, K, budget)
