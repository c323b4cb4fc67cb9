"""Gray-Wyner machinery: one-sided region membership and the smallest common
rate at joint-decoding total rate, computed through both characterizations
(the equality-constrained minimization and the reproduction route).

Every public solver makes one joint-RD solve and scores one list of candidate
auxiliaries W (:func:`_candidate_joints`): the constant W, then every W that
:func:`_searched` tried on the variable U that W observes (U = X for
``c3_tilde`` and ``check_membership``, U = X̂ for ``c_star``), then W = X̂, the
reproductions of the joint-RD test channel, whenever a joint-RD point exists.
Each searched W is p(w, x) = sum_u p(x, u) q(w | u): every penalized-descent
restart, and the exhaustive split of a 2x2 U. None is dropped before it is
scored, so a larger budget never answers worse. The common-rate lower side is
the N-receiver Gray-Wyner converse, read off the scores of the first and last
candidates (:func:`_c3_from_candidates`). A source has N >= 2 coordinates, one
per receiver, and a witness is a (W, X_1, ..., X_N) joint pmf from which every
reported number can be recomputed; searches are finite, so every point value
is a certified upper bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .common_info import CommonInfoInfeasible, SolveBudget, _penalized_descent, solve_common_info
from .prob import JointPmf, ProbabilityError, joint_with_mixture, mutual_information
from .rd import DistortionSpec, InfeasibleDistortion, RdPoint, SweepResolutionError, _lockstep, _query, ba_joint_rd

#: Theorem-3 equality tolerance (bits) for accepting a witness, and the looser
#: sensitivity tolerance reported alongside.
RESIDUAL_TOL = 1e-3
RESIDUAL_TOL_LOOSE = 1e-2
#: slack (bits) by which a membership rate may fall short of what a witness needs
MEMBERSHIP_TOL = 1e-6

_log = logging.getLogger(__name__)


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
    witness: JointPmf | None = field(repr=False)  # coordinates (W, X_1, ..., X_N)
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


def _witness_query(joint: JointPmf, coord: int, d: DistortionSpec, D: float):
    """The query (rd._query) of R_{X_coord | W}(D) for a (W, X...) witness joint."""
    xw = JointPmf((*joint.alphabet_sizes[1:], joint.alphabet_sizes[0]), np.moveaxis(joint.mass, 0, -1))
    return _query(xw, d, coord - 1, joint.ncoords - 1, D)


def witness_conditional_rate(joint: JointPmf, coord: int, d: DistortionSpec, D: float) -> float:
    """R_{X_coord | W}(D) evaluated for a (W, X...) witness joint."""
    return _lockstep([_witness_query(joint, coord, d, D)])[0].rate


def witness_common_rate(joint: JointPmf) -> float:
    """I(X; W) for a (W, X...) witness joint."""
    return mutual_information(joint, [0])


def _private_rates(joints, d: DistortionSpec, D) -> list[tuple[float, ...]]:
    """(R_{X_1|W}(D_1), .., R_{X_N|W}(D_N)) for each (W, X...) witness joint,
    all asked in one lockstep search."""
    points = _lockstep([_witness_query(joint, i + 1, d, Di) for joint in joints for i, Di in enumerate(D)])
    n = len(D)
    return [tuple(pt.rate for pt in points[k:k + n]) for k in range(0, len(points), n)]


def _constant_w(p: JointPmf) -> JointPmf:
    return JointPmf((1, *p.alphabet_sizes), p.mass[None, ...])


def _source_reproduction(p: JointPmf, rp: RdPoint) -> np.ndarray:
    """(x, xh) joint of the flattened source and its joint-RD reproduction."""
    nx = p.mass.size
    return p.mass.reshape(nx, 1) * rp.test_channel.rows.reshape(nx, -1)


def _observing(p: JointPmf, pxu: np.ndarray, q: np.ndarray) -> JointPmf:
    """(W, X_1, ..., X_N) joint of the W that sees X only through U:
    p(w, x) = sum_u p(x, u) q(w | u), for pxu of shape (|X|, |U|) and q of
    shape (|U|, |W|)."""
    k = q.shape[1]
    return JointPmf((k, *p.alphabet_sizes), (pxu @ q).T.reshape((k, *p.alphabet_sizes)))


def _candidate_joints(p: JointPmf, searched, joint_point):
    """The constant W, the searched W (iterated lazily), then W = X̂ of the
    RdPoint ``joint_point()``, called only once they are consumed."""
    yield _constant_w(p)
    yield from searched
    try:
        rp = joint_point()
    except (InfeasibleDistortion, SweepResolutionError) as exc:
        _log.debug("W = X̂ not scored: no joint-RD point (%s: %s)", type(exc).__name__, exc)
        return
    pxxh = _source_reproduction(p, rp)
    yield _observing(p, pxxh, np.eye(pxxh.shape[1]))


def _searched(p: JointPmf, pxu: np.ndarray, u_sizes: tuple, K: int, budget: SolveBudget):
    """Every W searched on U (pxu the (x, u) joint, U row-major over ``u_sizes``),
    searched when first iterated: each penalized-descent restart at cardinality
    K (none for a 2x2 U at K = 2), then, for a 2x2 U, the exhaustive split of U's law."""
    if (u_sizes, K) != ((2, 2), 2):
        for q, _, _ in _penalized_descent(pxu, u_sizes, K, budget):
            yield _observing(p, pxu, q)
    if u_sizes == (2, 2):
        try:
            sol = solve_common_info(JointPmf((2, 2), pxu.sum(axis=0)), K=2, budget=budget)
        except CommonInfoInfeasible as exc:
            _log.debug("exhaustive split of U not scored: %s", exc)
            return
        split = joint_with_mixture(sol.pw, sol.channels).mass.reshape(-1, 4).T  # (u, w)
        # q(w | u) of the split; a letter of U of zero mass keeps a zero row
        yield _observing(p, pxu, split / np.maximum(split.sum(axis=1, keepdims=True), 1e-300))


def _searched_on_source(p: JointPmf, budget: SolveBudget):
    """The W searched on U = X, at K = 2 on a 2x2 source, else K = prod(sizes)."""
    sizes = p.alphabet_sizes
    K = 2 if sizes == (2, 2) else int(np.prod(sizes))
    return _searched(p, np.diag(p.mass.reshape(-1)), sizes, K, budget)


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
    if p.ncoords < 2 or len(D) != p.ncoords or len(rates.privates) != p.ncoords:
        raise ProbabilityError("need N >= 2 coordinates, each with a distortion and a rate")
    for joint in _candidate_joints(p, _searched_on_source(p, budget), lambda: ba_joint_rd(p, d, D)):
        common = witness_common_rate(joint)
        if rates.R0 < common - MEMBERSHIP_TOL:
            continue
        (privates,) = _private_rates([joint], d, D)
        if all(have >= need - MEMBERSHIP_TOL for have, need in zip(rates.privates, privates)):
            return MembershipWitness(joint, common, privates)
    return None


def _c3_from_candidates(d, D, rp, candidates):
    """Least I(X; W) among the candidates that meet the Theorem-3 equality
    I(X; W) + sum_i R_{X_i|W}(D_i) = R(D) within tolerance. The lower side is
    the N-receiver Gray-Wyner converse R0 >= (sum_i R_{X_i}(D_i) - R(D)) / (N - 1):
    the constant W (first) scores the certified marginal rates, and W = X̂
    (last) scores I(X; X̂), an upper value of R(D) since the test channel
    meets D. Every candidate's conditional rates are asked in one lockstep
    search."""
    joint_rate = rp.rate
    common = [witness_common_rate(joint) for joint in candidates]
    privates = _private_rates(candidates, d, D)
    lower = max(0.0, (sum(privates[0]) - common[-1]) / (len(D) - 1))
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


def c3_tilde(
    p: JointPmf, d: DistortionSpec, D, budget: SolveBudget | None = None
) -> C3Estimate:
    """Common rate via the equality-constrained minimization of I(X_1, .., X_N; W)."""
    rp = ba_joint_rd(p, d, D)
    searched = _searched_on_source(p, budget or SolveBudget())
    return _c3_from_candidates(d, D, rp, list(_candidate_joints(p, searched, lambda: rp)))


def c_star(
    p: JointPmf, d: DistortionSpec, D, budget: SolveBudget | None = None
) -> C3Estimate:
    """Common rate via the reproduction route: obtain an optimal joint-RD
    test channel, then score every W searched on U = X̂ at K = max(2, min(|X̂|, 8)),
    each independent of the source given the reproductions."""
    rp = ba_joint_rd(p, d, D)
    pxxh = _source_reproduction(p, rp)
    searched = _searched(p, pxxh, d.repro_sizes, max(2, min(pxxh.shape[1], 8)), budget or SolveBudget())
    return _c3_from_candidates(d, D, rp, list(_candidate_joints(p, searched, lambda: rp)))
