"""Gray-Wyner machinery: one-sided region membership and the smallest common
rate at joint-decoding total rate, computed through both characterizations
(the equality-constrained minimization and the reproduction-pair route). The
reproduction-pair route searches W with the common-information descent of
:mod:`witl.common_info`, run on U = (X̂1, X̂2) instead of U = X.

Auxiliary-variable witnesses are represented as a joint pmf over
(W, X_1, X_2); every reported number can be recomputed from that object alone.
Witness searches are finite, so all point values are certified upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common_info import CommonInfoInfeasible, SolveBudget, _penalized_descent, solve_common_info
from .prob import (
    ConditionalPmf,
    JointPmf,
    ProbabilityError,
    joint_with_mixture,
    marginalize,
    mutual_information,
)
from .rd import (DistortionSpec, InfeasibleDistortion, SweepResolutionError, ba_conditional_rd,
                 ba_joint_rd, marginal_rd_value)

#: Theorem-3 equality tolerance (bits) for accepting a witness, and the looser
#: sensitivity tolerance reported alongside.
RESIDUAL_TOL = 1e-3
RESIDUAL_TOL_LOOSE = 1e-2
#: premise tolerance for activating the common-information lower bound
PREMISE_TOL = 1e-4


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


def _xw_marginal(joint: JointPmf, coord: int) -> JointPmf:
    """(X_coord, W) pmf from a (W, X_1, ..., X_N) joint; W second."""
    m = marginalize(joint, [0, coord])  # coordinate order (W, X_coord)
    return JointPmf((m.alphabet_sizes[1], m.alphabet_sizes[0]), m.mass.T)


def witness_conditional_rate(joint: JointPmf, coord: int, d: DistortionSpec, D: float) -> float:
    """R_{X_coord | W}(D) evaluated for a (W, X...) witness joint."""
    spec = DistortionSpec((d.matrices[coord - 1],), (d.repro_sizes[coord - 1],))
    return ba_conditional_rd(_xw_marginal(joint, coord), spec, D).rate


def witness_common_rate(joint: JointPmf) -> float:
    """I(X; W) for a (W, X...) witness joint."""
    return mutual_information(joint, [0])


def _joint_from_channel(p: JointPmf, cond: ConditionalPmf) -> JointPmf:
    """(W, X1, X2) joint where W is the flattened channel output given X."""
    nx = int(np.prod(p.alphabet_sizes))
    nw = int(np.prod(cond.out_sizes))
    pxw = p.mass.reshape(nx, 1) * cond.rows.reshape(nx, nw)
    mass = pxw.T.reshape((nw, *p.alphabet_sizes))
    return JointPmf((nw, *p.alphabet_sizes), mass)


def _candidate_joints(p: JointPmf, d: DistortionSpec, D, budget: SolveBudget):
    """W candidates shared by the membership and common-rate searches."""
    candidates = []
    # constant W
    candidates.append(JointPmf((1, *p.alphabet_sizes), p.mass[None, ...]))
    # the common-information auxiliary (conditional-independence route)
    try:
        sol = solve_common_info(p, K=None if p.alphabet_sizes != (2, 2) else 2, budget=budget)
        candidates.append(joint_with_mixture(sol.pw, sol.channels))
    except (CommonInfoInfeasible, ProbabilityError):
        pass  # no feasible auxiliary within the budget
    # the joint-RD reproduction pair as W; the joint solver takes pairs only
    if p.ncoords == 2:
        try:
            rp = ba_joint_rd(p, d, D)
            if rp.test_channel is not None:
                candidates.append(_joint_from_channel(p, rp.test_channel))
        except (InfeasibleDistortion, SweepResolutionError):
            pass  # no reproduction pair at this distortion
    return candidates


def check_membership(
    p: JointPmf, rates: RatePoint, D, d: DistortionSpec | None = None,
    budget: SolveBudget | None = None, tol: float = 1e-6,
) -> MembershipWitness | None:
    """One-sided D-achievability test: find a W with R0 >= I(X; W) and
    R_i >= R_{X_i|W}(D_i); returns None when the budgeted search fails,
    which does not certify non-membership."""
    budget = budget or SolveBudget()
    d = d or DistortionSpec.hamming(p.alphabet_sizes)
    D = tuple(float(x) for x in D)
    if len(D) != p.ncoords or len(rates.privates) != p.ncoords:
        raise ProbabilityError("distortion/rate dimension mismatch")
    for joint in _candidate_joints(p, d, D, budget):
        common = witness_common_rate(joint)
        if rates.R0 < common - tol:
            continue
        needed = []
        feasible = True
        for i in range(p.ncoords):
            ri = witness_conditional_rate(joint, i + 1, d, D[i])
            needed.append(ri)
            if rates.privates[i] < ri - tol:
                feasible = False
                break
        if feasible:
            return MembershipWitness(joint, common, tuple(needed))
    return None


def _evaluate_candidate(joint, d, D, joint_rate):
    common = witness_common_rate(joint)
    cond_sum = sum(
        witness_conditional_rate(joint, i + 1, d, D[i]) for i in range(2)
    )
    residual = abs(cond_sum + common - joint_rate)
    return common, residual


def _c3_from_candidates(p, d, D, joint_rate, candidates):
    scored = []
    for joint in candidates:
        common, residual = _evaluate_candidate(joint, d, D, joint_rate)
        scored.append((common, residual, joint))
    lower = _lower_bound(p, d, D, joint_rate)

    def pick(tol):
        ok = [s for s in scored if s[1] <= tol]
        if not ok:
            return None
        return min(ok, key=lambda s: s[0])

    best = pick(RESIDUAL_TOL)
    loose = pick(RESIDUAL_TOL_LOOSE)
    if best is None:
        upper, residual, witness = joint_rate, float("nan"), None
    else:
        upper, residual, witness = best[0], best[1], best[2]
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


def c3_tilde(
    p: JointPmf, d: DistortionSpec, D, budget: SolveBudget | None = None
) -> C3Estimate:
    """Common rate via the equality-constrained minimization of I(X1,X2; W)."""
    if p.ncoords != 2:
        raise ProbabilityError("common-rate solvers are defined for pairs")
    budget = budget or SolveBudget()
    D = (float(D[0]), float(D[1]))
    joint_rate = ba_joint_rd(p, d, D).rate
    candidates = _candidate_joints(p, d, D, budget)
    return _c3_from_candidates(p, d, D, joint_rate, candidates)


def c_star(
    p: JointPmf, d: DistortionSpec, D, budget: SolveBudget | None = None
) -> C3Estimate:
    """Common rate via the reproduction-pair route: obtain an optimal joint-RD
    test channel, then search W splitting (Xhat1, Xhat2) while independent of
    the source given the reproductions."""
    if p.ncoords != 2:
        raise ProbabilityError("common-rate solvers are defined for pairs")
    budget = budget or SolveBudget()
    D = (float(D[0]), float(D[1]))
    rp = ba_joint_rd(p, d, D)
    joint_rate = rp.rate
    candidates = [JointPmf((1, *p.alphabet_sizes), p.mass[None, ...])]
    if rp.test_channel is not None:
        nx = int(np.prod(p.alphabet_sizes))
        nxh = int(np.prod(d.repro_sizes))
        pxxh = p.mass.reshape(nx, 1) * rp.test_channel.rows.reshape(nx, nxh)
        K = max(2, min(nxh, 8))
        runs = _penalized_descent(pxxh, d.repro_sizes, K, budget)
        # least I(X; W), any total correlation left over priced prohibitively
        q = min(runs, key=lambda r: r[1] + 1e9 * max(r[2], 0.0))[0]
        # W depends on X only through Xhat: p(w, x) = sum_xh p(x, xh) q(w|xh)
        pwx = (pxxh @ q).T  # (w, x)
        candidates.append(
            JointPmf((K, *p.alphabet_sizes), pwx.reshape((K, *p.alphabet_sizes)))
        )
        # a 2x2 reproduction pair admits the exhaustive split of its own law
        if tuple(d.repro_sizes) == (2, 2):
            pxh = pxxh.sum(axis=0)
            try:
                sol = solve_common_info(JointPmf((2, 2), pxh), K=2, budget=budget)
                mix = joint_with_mixture(sol.pw, sol.channels)  # (w, xh1, xh2)
                jw = mix.mass.reshape(sol.pw.size, nxh)
                qex = (jw / np.maximum(pxh[None, :], 1e-300)).T  # q(w | xh)
                qex = qex / np.maximum(qex.sum(axis=1, keepdims=True), 1e-300)
                pwx2 = (pxxh @ qex).T
                candidates.append(
                    JointPmf(
                        (sol.pw.size, *p.alphabet_sizes),
                        pwx2.reshape((sol.pw.size, *p.alphabet_sizes)),
                    )
                )
            except (CommonInfoInfeasible, ProbabilityError):
                pass  # the exhaustive grid found no split
        candidates.append(_joint_from_channel(p, rp.test_channel))
    return _c3_from_candidates(p, d, D, joint_rate, candidates)
