"""Minimizing I(X; W) over auxiliary variables that render the coordinates
conditionally independent while preserving the joint law.

Two search routes:

* exhaustive mode for 2x2 sources with |W| = 2: the three marginal-matching
  equations are solved in closed form and the two residual free parameters are
  gridded, so the returned minimum is global up to grid resolution; every
  candidate pair is scored from per-point entropies and a near-optimal
  shortlist is rescored exactly;
* penalized descent for everything else: q(w|x) is optimized by L-BFGS-B with
  the closed-form gradient under a ramped conditional-total-correlation
  penalty, which keeps the X-marginal exact by construction. Results on this
  route are certified upper bounds only.

The descent is written for a channel q(w|u) from any variable U that the
source X reaches: U = X here, and U = the reproduction pair (X̂1, X̂2) for the
Gray-Wyner common rate in :func:`witl.gray_wyner.c_star`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import xlogy

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
)

FEASIBILITY_TOL = 1e-6  # total variation between the mixture and the target
#: the descent's penalty weight starts at MU_INIT and grows by MU_FACTOR after
#: each of DESCENT_STAGES L-BFGS-B runs of at most DESCENT_MAXITER iterations
MU_INIT = 1.0
MU_FACTOR = 10.0
DESCENT_STAGES = 9
DESCENT_MAXITER = 300
#: bits of rounding the 2x2 grid allows its approximate scores when it picks
#: the pairs to rescore exactly; not a tolerance (see :func:`_exhaustive_2x2`)
_SCORE_SLACK = 1e-9


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


def _softmax(z, axis=-1):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _log0(m):
    """log m, read as 0 where m == 0: every such log has a zero coefficient."""
    return np.log(np.where(m > 0, m, 1.0))


def _descent_terms(z, mu, pxu, u_sizes):
    """For logits z of q(w|u) (rows of shape (nu, K), flattened): q, I(X;W),
    TC(U_1, .., U_n | W), the objective I + mu * max(TC, 0) and its gradient
    in z, all in nats. See :func:`_penalized_descent` for pxu and u_sizes.

    With p(x,w) = sum_u p(x,u) q(w|u) and p(u,w) = p(u) q(w|u),
    dI/dq(w|u) = sum_x p(x,u) log p(x,w) - p(u) log p(w) and
    dTC/dq(w|u) = -p(u) [sum_i log p(u_i,w) - log p(u,w) - (n-1) log p(w)];
    the row softmax maps a gradient g in q to q(k|u) (g(u,k) - sum_w q(w|u) g(u,w)).
    """
    nu, n = pxu.shape[1], len(u_sizes)
    q = _softmax(z.reshape(nu, -1), axis=1)
    K = q.shape[1]
    pu = pxu.sum(axis=0)
    px = pxu.sum(axis=1)
    juw = pu[:, None] * q  # (u, w)
    jxw = pxu @ q  # (x, w)
    qw = juw.sum(axis=0)
    log_w, log_uw, log_xw = _log0(qw), _log0(juw), _log0(jxw)
    hw = -float(qw @ log_w)
    i_xw = float(-xlogy(px, px).sum()) + hw + float((jxw * log_xw).sum())
    tc = hw + float((juw * log_uw).sum())
    shaped = juw.reshape(tuple(u_sizes) + (K,))
    log_ui = 0.0  # sum_i log p(u_i, w), broadcast over (u_1, .., u_n, w)
    for i in range(n):
        mi = shaped.sum(axis=tuple(a for a in range(n) if a != i), keepdims=True)
        log_mi = _log0(mi)
        tc -= float((mi * log_mi).sum()) + hw
        log_ui = log_ui + log_mi
    g = pxu.T @ log_xw - pu[:, None] * log_w
    if tc > 0:
        g -= mu * pu[:, None] * (np.reshape(log_ui, (nu, K)) - log_uw - (n - 1) * log_w)
    grad = q * (g - (q * g).sum(axis=1, keepdims=True))
    return q, i_xw, tc, i_xw + mu * max(tc, 0.0), grad.reshape(-1)


def _penalized_descent(pxu, u_sizes, K: int, budget: SolveBudget):
    """Multi-restart penalized descent over softmax logits of q(w|u).

    pxu: (nx, nu) joint of the source X and the variable U = (U_1, .., U_n)
    that W observes, U flattened row-major over ``u_sizes``. Objective (nats):
    I(X;W) + mu * [sum_i H(U_i|W) - H(U|W)], the second term being the
    conditional total correlation that vanishes exactly when W splits U; mu
    ramps by ``MU_FACTOR`` over ``DESCENT_STAGES``. L-BFGS-B gets the
    closed-form gradient of :func:`_descent_terms`. W depends on X only
    through U, so the X-marginal is exact by construction. Returns one
    (q (nu, K), I(X;W), TC) per restart, both values in nats.
    """
    rng = np.random.default_rng(budget.seed)
    runs = []
    for _ in range(budget.restarts):
        z = rng.normal(scale=2.0, size=pxu.shape[1] * K)
        mu = MU_INIT
        for _ in range(DESCENT_STAGES):
            result = minimize(
                lambda z, mu: _descent_terms(z, mu, pxu, u_sizes)[3:],
                z,
                args=(mu,),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": DESCENT_MAXITER},
            )
            z = result.x
            mu *= MU_FACTOR
        runs.append(_descent_terms(z, mu, pxu, u_sizes)[:3])
    return runs


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
