"""Gray-Wyner machinery: one-sided region membership and the smallest common
rate at joint-decoding total rate, computed through both characterizations
(the equality-constrained minimization and the reproduction-pair route).

Every public solver makes one joint-RD solve and tries a fixed list of
candidate auxiliaries W, in this order:

* ``c3_tilde`` and ``check_membership``: constant W, the common-information
  auxiliary of :func:`witl.common_info.solve_common_info`, and W = X̂, the
  reproduction pair of the joint-RD test channel (pairs only);
* ``c_star``: constant W, the common-information descent run on U = X̂ instead
  of U = X, the exhaustive split of a 2x2 reproduction pair, and W = X̂.

Each W except the constant one and the common-information auxiliary sees the
source only through X̂: p(w, x) = sum_xh p(x, xh) q(w | xh), one choice of q
per candidate.

Auxiliary-variable witnesses are represented as a joint pmf over
(W, X_1, X_2); every reported number can be recomputed from that object alone.
Witness searches are finite, so all point values are certified upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common_info import CommonInfoInfeasible, SolveBudget, _penalized_descent, solve_common_info
from .prob import JointPmf, ProbabilityError, joint_with_mixture, marginalize, mutual_information
from .rd import (DistortionSpec, InfeasibleDistortion, RdPoint, SweepResolutionError,
                 ba_conditional_rd, ba_joint_rd, marginal_rd_value)

#: Theorem-3 equality tolerance (bits) for accepting a witness, and the looser
#: sensitivity tolerance reported alongside.
RESIDUAL_TOL = 1e-3
RESIDUAL_TOL_LOOSE = 1e-2
#: premise tolerance for activating the common-information lower bound
PREMISE_TOL = 1e-4
#: slack (bits) by which a membership rate may fall short of what a witness needs
MEMBERSHIP_TOL = 1e-6


@dataclass(frozen=True)
class RatePoint:
    R0: float
    privates: tuple[float, ...]

    def __post_init__(self):
        if self.R0 < 0 or any(r < 0 for r in self.privates):
            raise ProbabilityError("rates must be nonnegative")
        object.__setattr__(self, "privates", tuple(float(r) for r in self.privates))


@dataclass(frozen=True)
class MembershipWitness:
    """A W certifying D-achievability; absence of a witness is NOT a converse."""

    joint: JointPmf = field(repr=False)  # coordinates (W, X_1, ..., X_N)
    common_rate_needed: float
    private_rates_needed: tuple[float, ...]


@dataclass(frozen=True)
class C3Estimate:
    value_lower: float
    value_upper: float
    witness: JointPmf | None = field(repr=False)  # coordinates (W, X1, X2)
    constraint_residual: float
    value_upper_loose: float  # same search accepted at the looser tolerance
    joint_rate: float

    def to_json_obj(self) -> dict:
        obj = {
            "value_lower_bits": self.value_lower,
            "value_upper_bits": self.value_upper,
            "constraint_residual_bits": self.constraint_residual,
            "residual_tolerance_bits": RESIDUAL_TOL,
            "value_upper_at_loose_tolerance_bits": self.value_upper_loose,
            "loose_tolerance_bits": RESIDUAL_TOL_LOOSE,
            "joint_rate_bits": self.joint_rate,
            "witness_present": self.witness is not None,
        }
        if self.witness is not None:
            obj["witness"] = self.witness.to_json_obj()
        return obj


def witness_conditional_rate(joint: JointPmf, coord: int, d: DistortionSpec, D: float) -> float:
    """R_{X_coord | W}(D) evaluated for a (W, X...) witness joint."""
    m = marginalize(joint, [0, coord])  # (W, X_coord); the solver takes W second
    spec = DistortionSpec((d.matrices[coord - 1],), (d.repro_sizes[coord - 1],))
    xw = JointPmf((m.alphabet_sizes[1], m.alphabet_sizes[0]), m.mass.T)
    return ba_conditional_rd(xw, spec, D).rate


def witness_common_rate(joint: JointPmf) -> float:
    """I(X; W) for a (W, X...) witness joint."""
    return mutual_information(joint, [0])


def _constant_w(p: JointPmf) -> JointPmf:
    return JointPmf((1, *p.alphabet_sizes), p.mass[None, ...])


def _source_reproduction(p: JointPmf, rp: RdPoint) -> np.ndarray:
    """(x, xh) joint of the flattened source and its joint-RD reproduction."""
    nx = p.mass.size
    return p.mass.reshape(nx, 1) * rp.test_channel.rows.reshape(nx, -1)


def _through_reproduction(p: JointPmf, pxxh: np.ndarray, q: np.ndarray) -> JointPmf:
    """(W, X1, X2) joint of the W that sees X only through X̂:
    p(w, x) = sum_xh p(x, xh) q(w | xh), for q of shape (|X̂|, |W|)."""
    k = q.shape[1]
    return JointPmf((k, *p.alphabet_sizes), (pxxh @ q).T.reshape((k, *p.alphabet_sizes)))


def _candidate_joints(p: JointPmf, rp: RdPoint | None, budget: SolveBudget):
    """W candidates of the membership and c3_tilde searches; W = X̂ only when
    the joint-RD point rp exists."""
    candidates = [_constant_w(p)]
    try:
        sol = solve_common_info(p, K=None if p.alphabet_sizes != (2, 2) else 2, budget=budget)
        candidates.append(joint_with_mixture(sol.pw, sol.channels))
    except (CommonInfoInfeasible, ProbabilityError):
        pass  # no feasible auxiliary within the budget
    if rp is not None:
        pxxh = _source_reproduction(p, rp)
        candidates.append(_through_reproduction(p, pxxh, np.eye(pxxh.shape[1])))
    return candidates


def check_membership(
    p: JointPmf, rates: RatePoint, D, d: DistortionSpec | None = None,
    budget: SolveBudget | None = None,
) -> MembershipWitness | None:
    """One-sided D-achievability test: find a W with R0 >= I(X; W) and
    R_i >= R_{X_i|W}(D_i); returns None when the budgeted search fails,
    which does not certify non-membership."""
    budget = budget or SolveBudget()
    d = d or DistortionSpec.hamming(p.alphabet_sizes)
    D = tuple(float(x) for x in D)
    if len(D) != p.ncoords or len(rates.privates) != p.ncoords:
        raise ProbabilityError("distortion/rate dimension mismatch")
    rp = None
    if p.ncoords == 2:  # the joint solver takes pairs only
        try:
            rp = ba_joint_rd(p, d, D)
        except (InfeasibleDistortion, SweepResolutionError):
            pass  # no reproduction pair at this distortion
    for joint in _candidate_joints(p, rp, budget):
        common = witness_common_rate(joint)
        if rates.R0 < common - MEMBERSHIP_TOL:
            continue
        needed = []
        for i in range(p.ncoords):
            needed.append(witness_conditional_rate(joint, i + 1, d, D[i]))
            if rates.privates[i] < needed[-1] - MEMBERSHIP_TOL:
                break
        else:
            return MembershipWitness(joint, common, tuple(needed))
    return None


def _c3_from_candidates(p, d, D, rp, candidates):
    """Least I(X; W) among the candidates that meet the Theorem-3 equality
    I(X; W) + sum_i R_{X_i|W}(D_i) = R(D1, D2) within tolerance."""
    joint_rate = rp.rate
    scored = []
    for joint in candidates:
        common = witness_common_rate(joint)
        cond_sum = sum(witness_conditional_rate(joint, i + 1, d, D[i]) for i in range(2))
        scored.append((common, abs(cond_sum + common - joint_rate), joint))
    lower = _lower_bound(p, d, D, joint_rate)

    def pick(tol):
        return min((s for s in scored if s[1] <= tol), key=lambda s: s[0], default=None)

    best = pick(RESIDUAL_TOL)
    loose = pick(RESIDUAL_TOL_LOOSE)
    upper, residual, witness = best or (joint_rate, float("nan"), None)
    upper = max(upper, lower)  # numeric guard; lower is exact-side information
    return C3Estimate(
        value_lower=min(lower, upper),
        value_upper=upper,
        witness=witness,
        constraint_residual=residual,
        value_upper_loose=max(loose[0], lower) if loose else joint_rate,
        joint_rate=joint_rate,
    )


def _lower_bound(p, d, D, joint_rate):
    """I(X1; X2) when the marginal-sum premise holds within tolerance, else 0."""
    mi = mutual_information(p, [0])
    r1 = marginal_rd_value(p, d, 0, D[0])
    r2 = marginal_rd_value(p, d, 1, D[1])
    if abs(r1 + r2 - mi - joint_rate) <= PREMISE_TOL:
        return mi
    return 0.0


def _joint_point(p: JointPmf, d: DistortionSpec, D):
    """The distortion pair as floats and its joint-RD point; pairs only."""
    if p.ncoords != 2:
        raise ProbabilityError("common-rate solvers are defined for pairs")
    D = (float(D[0]), float(D[1]))
    return D, ba_joint_rd(p, d, D)


def c3_tilde(
    p: JointPmf, d: DistortionSpec, D, budget: SolveBudget | None = None
) -> C3Estimate:
    """Common rate via the equality-constrained minimization of I(X1,X2; W)."""
    D, rp = _joint_point(p, d, D)
    return _c3_from_candidates(p, d, D, rp, _candidate_joints(p, rp, budget or SolveBudget()))


def c_star(
    p: JointPmf, d: DistortionSpec, D, budget: SolveBudget | None = None
) -> C3Estimate:
    """Common rate via the reproduction-pair route: obtain an optimal joint-RD
    test channel, then search W splitting (Xhat1, Xhat2) while independent of
    the source given the reproductions."""
    D, rp = _joint_point(p, d, D)
    budget = budget or SolveBudget()
    pxxh = _source_reproduction(p, rp)
    nxh = pxxh.shape[1]
    runs = _penalized_descent(pxxh, d.repro_sizes, max(2, min(nxh, 8)), budget)
    # least I(X; W), any total correlation left over priced prohibitively
    qs = [min(runs, key=lambda r: r[1] + 1e9 * max(r[2], 0.0))[0]]
    # a 2x2 reproduction pair admits the exhaustive split of its own law
    if tuple(d.repro_sizes) == (2, 2):
        pxh = pxxh.sum(axis=0)
        try:
            sol = solve_common_info(JointPmf((2, 2), pxh), K=2, budget=budget)
            jw = joint_with_mixture(sol.pw, sol.channels).mass.reshape(sol.pw.size, nxh)
            qex = (jw / np.maximum(pxh[None, :], 1e-300)).T  # q(w | xh)
            qs.append(qex / np.maximum(qex.sum(axis=1, keepdims=True), 1e-300))
        except (CommonInfoInfeasible, ProbabilityError):
            pass  # the exhaustive grid found no split
    qs.append(np.eye(nxh))
    candidates = [_constant_w(p)] + [_through_reproduction(p, pxxh, q) for q in qs]
    return _c3_from_candidates(p, d, D, rp, candidates)
