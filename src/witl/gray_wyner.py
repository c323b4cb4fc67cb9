"""Gray-Wyner machinery: one-sided region membership and the smallest common
rate at joint-decoding total rate, computed through both characterizations
(the equality-constrained minimization and the reproduction-pair route).

Every public solver makes one joint-RD solve and scores one list of candidate
auxiliaries W (:func:`_candidate_joints`): the constant W, then the solver's
own auxiliaries, then W = X̂, the reproduction pair of the joint-RD test
channel, whenever a joint-RD point exists (pairs only). The own auxiliaries
are the common-information auxiliary of
:func:`witl.common_info.solve_common_info` for ``c3_tilde`` and
``check_membership``, and for ``c_star`` that descent run on U = X̂ instead of
U = X and the exhaustive split of a 2x2 reproduction pair. Those of ``c_star``
and W = X̂ see the source only through X̂: p(w, x) = sum_xh p(x, xh) q(w | xh),
one choice of q per candidate. The common-rate lower side is the Gray-Wyner
converse, read off the scores of the first and last candidates
(:func:`_c3_from_candidates`), with no RD query of its own.

Auxiliary-variable witnesses are represented as a joint pmf over
(W, X_1, X_2); every reported number can be recomputed from that object alone.
Witness searches are finite, so all point values are certified upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common_info import CommonInfoInfeasible, SolveBudget, _penalized_descent, solve_common_info
from .prob import JointPmf, ProbabilityError, joint_with_mixture, mutual_information
from .rd import (DistortionSpec, InfeasibleDistortion, RdPoint, SweepResolutionError,
                 _coordinate_pmf, _problem, _scalar_query, ba_joint_rd)

#: Theorem-3 equality tolerance (bits) for accepting a witness, and the looser
#: sensitivity tolerance reported alongside.
RESIDUAL_TOL = 1e-3
RESIDUAL_TOL_LOOSE = 1e-2
#: slack (bits) by which a membership rate may fall short of what a witness needs
MEMBERSHIP_TOL = 1e-6


@dataclass(frozen=True)
class RatePoint:
    R0: float
    privates: tuple[float, ...]

    def __post_init__(self):
        rates = np.array([self.R0, *self.privates], dtype=float)
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise ProbabilityError("rates must be finite and nonnegative")
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


def _witness_query(joint: JointPmf, coord: int, d: DistortionSpec, D: float) -> tuple:
    """The lockstep query of R_{X_coord | W}(D) for a (W, X...) witness joint."""
    xw = JointPmf((*joint.alphabet_sizes[1:], joint.alphabet_sizes[0]), np.moveaxis(joint.mass, 0, -1))
    return _problem(*_coordinate_pmf(xw, d, coord - 1, joint.ncoords - 1), D)


def witness_conditional_rate(joint: JointPmf, coord: int, d: DistortionSpec, D: float) -> float:
    """R_{X_coord | W}(D) evaluated for a (W, X...) witness joint."""
    return _scalar_query([_witness_query(joint, coord, d, D)])[0].rate


def witness_common_rate(joint: JointPmf) -> float:
    """I(X; W) for a (W, X...) witness joint."""
    return mutual_information(joint, [0])


def _private_rates(joints, d: DistortionSpec, D) -> list[tuple[float, ...]]:
    """(R_{X_1|W}(D_1), .., R_{X_N|W}(D_N)) for each (W, X...) witness joint,
    all asked in one lockstep search."""
    points = _scalar_query([_witness_query(joint, i + 1, d, Di)
                            for joint in joints for i, Di in enumerate(D)])
    n = len(D)
    return [tuple(pt.rate for pt in points[k:k + n]) for k in range(0, len(points), n)]


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


def _candidate_joints(p: JointPmf, own, joint_point):
    """The constant W, the solver's own auxiliaries (iterated lazily), then W = X̂
    if ``joint_point()``, called only once they are consumed, is an RdPoint."""
    yield _constant_w(p)
    yield from own
    try:
        rp = joint_point()
    except (InfeasibleDistortion, SweepResolutionError):
        return  # no reproduction pair at this distortion
    if rp is not None:
        pxxh = _source_reproduction(p, rp)
        yield _through_reproduction(p, pxxh, np.eye(pxxh.shape[1]))


def _common_info_auxiliary(p: JointPmf, budget: SolveBudget):
    """The auxiliary of :func:`solve_common_info`, searched when first iterated."""
    try:
        sol = solve_common_info(p, K=None if p.alphabet_sizes != (2, 2) else 2, budget=budget)
    except (CommonInfoInfeasible, ProbabilityError):
        return
    yield joint_with_mixture(sol.pw, sol.channels)


def check_membership(
    p: JointPmf, rates: RatePoint, D, d: DistortionSpec | None = None,
    budget: SolveBudget | None = None,
) -> MembershipWitness | None:
    """One-sided D-achievability test: find a W with R0 >= I(X; W) and
    R_i >= R_{X_i|W}(D_i); returns None when the budgeted search fails,
    which does not certify non-membership. A candidate's conditional rates are
    asked, in one lockstep search, only once its I(X; W) fits R0."""
    budget = budget or SolveBudget()
    d = d or DistortionSpec.hamming(p.alphabet_sizes)
    D = tuple(float(x) for x in D)
    if len(D) != p.ncoords or len(rates.privates) != p.ncoords:
        raise ProbabilityError("distortion/rate dimension mismatch")
    # the joint solver takes pairs only
    for joint in _candidate_joints(p, _common_info_auxiliary(p, budget),
                                   lambda: ba_joint_rd(p, d, D) if p.ncoords == 2 else None):
        common = witness_common_rate(joint)
        if rates.R0 < common - MEMBERSHIP_TOL:
            continue
        (privates,) = _private_rates([joint], d, D)
        if all(have >= need - MEMBERSHIP_TOL for have, need in zip(rates.privates, privates)):
            return MembershipWitness(joint, common, privates)
    return None


def _c3_from_candidates(d, D, rp, candidates):
    """Least I(X; W) among the candidates that meet the Theorem-3 equality
    I(X; W) + sum_i R_{X_i|W}(D_i) = R(D1, D2) within tolerance. The lower
    side is the Gray-Wyner converse R0 >= R_{X1}(D1) + R_{X2}(D2) - R(D1, D2):
    the constant W (first) scores the certified marginal rates, and W = X̂
    (last) scores I(X; X̂), an upper value of R(D1, D2) since the test channel
    meets D. Every candidate's conditional rates are asked in one lockstep
    search."""
    joint_rate = rp.rate
    common = [witness_common_rate(joint) for joint in candidates]
    privates = _private_rates(candidates, d, D)
    lower = max(0.0, sum(privates[0]) - common[-1])
    scored = [(c, abs(sum((c, *r)) - joint_rate), joint)
              for c, r, joint in zip(common, privates, candidates)]

    def pick(tol):
        return min((s for s in scored if s[1] <= tol), key=lambda s: s[0], default=None)

    best = pick(RESIDUAL_TOL)
    loose = pick(RESIDUAL_TOL_LOOSE)
    upper, residual, witness = best or (joint_rate, float("nan"), None)
    return C3Estimate(
        value_lower=lower,
        value_upper=max(upper, lower),  # numeric guard; lower is certified
        witness=witness,
        constraint_residual=residual,
        value_upper_loose=max(loose[0], lower) if loose else joint_rate,
        joint_rate=joint_rate,
    )


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
    own = _common_info_auxiliary(p, budget or SolveBudget())
    return _c3_from_candidates(d, D, rp, list(_candidate_joints(p, own, lambda: rp)))


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
    own = [_through_reproduction(p, pxxh, q) for q in qs]
    return _c3_from_candidates(d, D, rp, list(_candidate_joints(p, own, lambda: rp)))
