"""Wyner common information toolkit: discrete probability core, rate-distortion
solvers, common-information optimization, common-rate solvers with membership
checks, binary/Gaussian closed forms, exact distribution synthesis, and audits.

The library logs to the ``witl`` logger and its children, at debug level
only, with no handler of its own beyond a ``NullHandler``.
"""

import logging as _logging

_logging.getLogger("witl").addHandler(_logging.NullHandler())

from .prob import (
    ConditionalPmf,
    JointPmf,
    ProbabilityError,
    SupportViolation,
    binary_entropy,
    entropy,
    joint_with_mixture,
    kl_divergence,
    marginalize,
    mix_channels,
    mutual_information,
    total_variation,
)
from .rd import (
    DistortionSpec,
    InfeasibleDistortion,
    RdPoint,
    SweepResolutionError,
    ba_conditional_rd,
    ba_joint_rd,
    ba_rate_distortion,
)
from .common_info import (
    CommonInfoInfeasible,
    CommonInfoSolution,
    SolveBudget,
    bsc_broadcast_source,
    common_info_bounds,
    solve_common_info,
)
from .gray_wyner import (
    C3Estimate,
    MembershipWitness,
    RatePoint,
    c3_tilde,
    c_star,
    check_membership,
)
from .closed_form import (
    DsbsParams,
    GaussParams,
    InfiniteRate,
    RegionLabel,
    dsbs_allocation,
    dsbs_c3,
    dsbs_common_info,
    dsbs_conditional_rd,
    dsbs_joint_rd,
    dsbs_region,
    gauss_allocation,
    gauss_c3,
    gauss_common_info,
    gauss_common_info_N,
    gauss_conditional_rd,
    gauss_joint_rd,
    gauss_marginal_rd,
    gauss_region,
)
from .synthesis import (
    BudgetExceeded,
    GeneratorSpec,
    SynthesisResult,
    build_generator,
    exact_delta,
)
from .audit import (
    AuditCheck,
    AuditReport,
    audit_bounds_and_monotone,
    audit_lemma1,
    audit_theorem4_frontier,
    audit_theorem9_conditions,
    random_source,
)

__all__ = [
    "ConditionalPmf", "JointPmf", "ProbabilityError", "SupportViolation",
    "binary_entropy", "entropy", "joint_with_mixture", "kl_divergence",
    "marginalize", "mix_channels", "mutual_information", "total_variation",
    "DistortionSpec", "InfeasibleDistortion", "RdPoint", "SweepResolutionError",
    "ba_conditional_rd", "ba_joint_rd", "ba_rate_distortion",
    "CommonInfoInfeasible", "CommonInfoSolution", "SolveBudget",
    "bsc_broadcast_source", "common_info_bounds", "solve_common_info",
    "C3Estimate", "MembershipWitness", "RatePoint",
    "c3_tilde", "c_star", "check_membership",
    "DsbsParams", "GaussParams", "InfiniteRate", "RegionLabel",
    "dsbs_allocation", "dsbs_c3", "dsbs_common_info", "dsbs_conditional_rd",
    "dsbs_joint_rd", "dsbs_region",
    "gauss_allocation", "gauss_c3", "gauss_common_info", "gauss_common_info_N",
    "gauss_conditional_rd", "gauss_joint_rd", "gauss_marginal_rd", "gauss_region",
    "BudgetExceeded", "GeneratorSpec", "SynthesisResult",
    "build_generator", "exact_delta",
    "AuditCheck", "AuditReport", "audit_bounds_and_monotone", "audit_lemma1",
    "audit_theorem4_frontier", "audit_theorem9_conditions", "random_source",
]
