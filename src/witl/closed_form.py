"""Closed-form rate-distortion, common-information, common-rate, and
rate-allocation results for the doubly symmetric binary source (Hamming
distortion) and the unit-variance bivariate/equicorrelated Gaussian source
(squared error).

``DSBS`` and ``GAUSS`` (``FAMILIES`` by name) are ``ClosedFormFamily``
records: the one description of a family that the ``witl dsbs``/``witl gauss``
command groups and the t4/t9 audits are built from.

Region boundaries are formally ambiguous in the piecewise definitions; the
classifiers use closed predicates checked in a fixed order, and continuity of
the branch values makes the boundary tag irrelevant to any reported number.
Distortions above the zero-rate level (1/2 binary, 1 Gaussian) are clamped
before classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .prob import ProbabilityError, binary_entropy


class InfiniteRate(ValueError):
    """Zero squared-error distortion requested from a continuous source."""


class RegionLabel(Enum):
    E10 = "E10"
    E11 = "E11"
    E2 = "E2"
    E3 = "E3"
    D10 = "D10"
    D11 = "D11"
    D2 = "D2"
    D3 = "D3"
    ZERO = "ZERO"


@dataclass(frozen=True)
class DsbsParams:
    """Pair flip probability a0 with its channel crossover a1, a0 = 2 a1 (1 - a1)."""

    a0: float

    def __post_init__(self):
        if not 0.0 <= self.a0 <= 0.5:
            raise ProbabilityError(f"a0 = {self.a0!r} outside [0, 1/2]")

    @classmethod
    def from_a1(cls, a1: float) -> "DsbsParams":
        if not 0.0 <= a1 <= 0.5:
            raise ProbabilityError(f"a1 = {a1!r} outside [0, 1/2]")
        return cls(2.0 * a1 * (1.0 - a1))

    @property
    def a1(self) -> float:
        return 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * self.a0))


@dataclass(frozen=True)
class GaussParams:
    """Correlation coefficient of a unit-variance bivariate Gaussian.

    Negative inputs are mapped to |rho|: every formula here depends on rho
    through rho^2 or 1 +/- rho with the sign absorbable by reflecting one
    coordinate. ``reflected`` records that normalization.
    """

    rho: float
    reflected: bool = False

    def __post_init__(self):
        rho = self.rho
        if rho < 0.0:
            object.__setattr__(self, "rho", -rho)
            object.__setattr__(self, "reflected", True)
        if not 0.0 <= self.rho < 1.0:
            raise ProbabilityError(f"|rho| = {self.rho!r} outside [0, 1)")


def _check_nonneg(D1, D2):
    if D1 < 0 or D2 < 0:
        raise ProbabilityError(f"negative distortion {(D1, D2)}")


# ---------------------------------------------------------------------------
# DSBS with Hamming distortion


def dsbs_region(p: DsbsParams, D1: float, D2: float) -> RegionLabel:
    _check_nonneg(D1, D2)
    if D1 >= 0.5 and D2 >= 0.5:
        return RegionLabel.ZERO
    D1, D2 = min(D1, 0.5), min(D2, 0.5)
    a0, a1 = p.a0, p.a1
    if D1 <= a1 and D2 <= a1:
        return RegionLabel.E10
    if D1 + D2 - 2.0 * D1 * D2 <= a0:
        return RegionLabel.E11
    r1 = (D1 - D2) / (1.0 - 2.0 * D2) if D2 < 0.5 else 0.0
    r2 = (D2 - D1) / (1.0 - 2.0 * D1) if D1 < 0.5 else 0.0
    if max(r1, r2) <= a0:
        return RegionLabel.E2
    return RegionLabel.E3


def dsbs_joint_rd(p: DsbsParams, D1: float, D2: float) -> float:
    """R_{X1 X2}(D1, D2) in bits."""
    _check_nonneg(D1, D2)
    region = dsbs_region(p, D1, D2)
    D1, D2 = min(D1, 0.5), min(D2, 0.5)
    a0 = p.a0
    h = binary_entropy
    if region in (RegionLabel.E10, RegionLabel.E11):
        return 1.0 + h(a0) - h(D1) - h(D2)
    if region is RegionLabel.E2:
        if a0 == 0.0:
            return 1.0 - h(0.5 * (D1 + D2))
        u = min(max((D1 + D2 - a0) / (2.0 * (1.0 - a0)), 0.0), 1.0)
        v = min(max((D1 - D2 + a0) / (2.0 * a0), 0.0), 1.0)
        return 1.0 - (1.0 - a0) * h(u) - a0 * h(v)
    if region is RegionLabel.E3:
        return 1.0 - h(min(D1, D2))
    return 0.0


def dsbs_common_info(p: DsbsParams) -> float:
    """C(X1, X2) = 1 + h(a0) - 2 h(a1) in bits."""
    return 1.0 + binary_entropy(p.a0) - 2.0 * binary_entropy(p.a1)


def dsbs_conditional_rd(p: DsbsParams, Di: float) -> float:
    """R_{X_i | S}(D) given the hidden common bit: h(a1) - h(D), floored at 0."""
    if Di < 0:
        raise ProbabilityError(f"negative distortion {Di}")
    if Di >= p.a1:
        return 0.0
    return binary_entropy(p.a1) - binary_entropy(Di)


def _c3(region, common_info, joint_rd, p, D1, D2) -> tuple[float, float]:
    """Smallest common rate as a (lower, upper) pair in bits.

    Point-valued regions return lower == upper: C in the corner region (E10,
    D10), the joint rate in the two joint-rate regions, 0 at zero rate. The
    open region (E11, D11) returns the bracket [C(X1,X2), R_{X1X2}(D1,D2)].
    """
    label = region(p, D1, D2)
    if label in (RegionLabel.E10, RegionLabel.D10):
        c = common_info(p)
        return (c, c)
    if label in (RegionLabel.E11, RegionLabel.D11):
        return (common_info(p), joint_rd(p, D1, D2))
    if label is RegionLabel.ZERO:
        return (0.0, 0.0)
    r = joint_rd(p, D1, D2)
    return (r, r)


def dsbs_c3(p: DsbsParams, D1: float, D2: float) -> tuple[float, float]:
    """Smallest common rate as a (lower, upper) pair in bits; E11 is an open bracket."""
    return _c3(dsbs_region, dsbs_common_info, dsbs_joint_rd, p, D1, D2)


def dsbs_allocation(
    p: DsbsParams, Dp1: float, Dp2: float, D1: float, D2: float
) -> tuple[float, float, float]:
    """(R0, R1, R2) with R0 = R_{X1X2}(D1', D2') and R_i = h(D_i') - h(D_i).

    Requires (D1, D2) <= (D1', D2') <= (a1, a1); the triple sums to
    R_{X1X2}(D1, D2) identically.
    """
    a1 = p.a1
    if not (0 <= D1 <= Dp1 <= a1 and 0 <= D2 <= Dp2 <= a1):
        raise ProbabilityError(
            f"allocation requires (D1,D2) <= (D1',D2') <= (a1,a1); got "
            f"{(D1, D2)}, {(Dp1, Dp2)}, a1={a1}"
        )
    h = binary_entropy
    r0 = 1.0 + h(p.a0) - h(Dp1) - h(Dp2)
    return (r0, h(Dp1) - h(D1), h(Dp2) - h(D2))


# ---------------------------------------------------------------------------
# Gaussian with squared-error distortion


def gauss_common_info(g: GaussParams) -> float:
    """C(X1, X2) = (1/2) log2((1 + rho) / (1 - rho)) bits."""
    return 0.5 * math.log2((1.0 + g.rho) / (1.0 - g.rho))


def gauss_common_info_N(g: GaussParams, N: int) -> float:
    """Equicorrelated N-variate case: (1/2) log2(1 + N rho / (1 - rho))."""
    if N < 2:
        raise ProbabilityError("N-variate common information needs N >= 2")
    return 0.5 * math.log2(1.0 + N * g.rho / (1.0 - g.rho))


def gauss_marginal_rd(Di: float) -> float:
    """R_X(D) for a unit-variance Gaussian: max(0, (1/2) log2(1/D))."""
    if Di < 0:
        raise ProbabilityError(f"negative distortion {Di}")
    if Di == 0:
        raise InfiniteRate("zero distortion requires infinite rate")
    return max(0.0, 0.5 * math.log2(1.0 / Di))


def gauss_conditional_rd(g: GaussParams, Di: float) -> float:
    """R_{X_i | W}(D) = max(0, (1/2) log2((1 - rho) / D))."""
    if Di <= 0:
        if Di == 0:
            raise InfiniteRate("zero distortion requires infinite rate")
        raise ProbabilityError(f"negative distortion {Di}")
    return max(0.0, 0.5 * math.log2((1.0 - g.rho) / Di))


def gauss_region(g: GaussParams, D1: float, D2: float) -> RegionLabel:
    _check_nonneg(D1, D2)
    if D1 >= 1.0 and D2 >= 1.0:
        return RegionLabel.ZERO
    D1, D2 = min(D1, 1.0), min(D2, 1.0)
    rho = g.rho
    if D1 <= 1.0 - rho and D2 <= 1.0 - rho:
        return RegionLabel.D10
    if D1 + D2 - D1 * D2 <= 1.0 - rho * rho:
        return RegionLabel.D11
    r1 = (1.0 - D1) / (1.0 - D2) if D2 < 1.0 else math.inf
    r2 = (1.0 - D2) / (1.0 - D1) if D1 < 1.0 else math.inf
    if min(r1, r2) >= rho * rho:
        return RegionLabel.D2
    return RegionLabel.D3


def gauss_joint_rd(g: GaussParams, D1: float, D2: float) -> float:
    """R_{X1 X2}(D1, D2) in bits for the unit-variance pair."""
    _check_nonneg(D1, D2)
    if D1 == 0 or D2 == 0:
        raise InfiniteRate("zero distortion requires infinite rate")
    region = gauss_region(g, D1, D2)
    D1, D2 = min(D1, 1.0), min(D2, 1.0)
    rho = g.rho
    if region in (RegionLabel.D10, RegionLabel.D11):
        return 0.5 * math.log2((1.0 - rho * rho) / (D1 * D2))
    if region is RegionLabel.D2:
        gap = rho - math.sqrt((1.0 - D1) * (1.0 - D2))
        return 0.5 * math.log2((1.0 - rho * rho) / (D1 * D2 - gap * gap))
    if region is RegionLabel.D3:
        return 0.5 * math.log2(1.0 / min(D1, D2))
    return 0.0


def gauss_c3(g: GaussParams, D1: float, D2: float) -> tuple[float, float]:
    """Smallest common rate as a (lower, upper) pair; D11 is an open bracket."""
    return _c3(gauss_region, gauss_common_info, gauss_joint_rd, g, D1, D2)


def gauss_allocation(
    g: GaussParams, Dp1: float, Dp2: float, D1: float, D2: float
) -> tuple[float, float, float]:
    """(R0, R1, R2) with R0 = (1/2) log2((1 - rho^2) / (D1' D2')) and
    R_i = (1/2) log2(D_i' / D_i); sums to the joint rate at (D1, D2)."""
    lim = 1.0 - g.rho
    if not (0 < D1 <= Dp1 <= lim and 0 < D2 <= Dp2 <= lim):
        raise ProbabilityError(
            f"allocation requires (D1,D2) <= (D1',D2') <= (1-rho, 1-rho); got "
            f"{(D1, D2)}, {(Dp1, Dp2)}, 1-rho={lim}"
        )
    r0 = 0.5 * math.log2((1.0 - g.rho * g.rho) / (Dp1 * Dp2))
    return (r0, 0.5 * math.log2(Dp1 / D1), 0.5 * math.log2(Dp2 / D2))


def _dsbs_from_options(a1: float | None = None, a0: float | None = None) -> DsbsParams:
    if (a1 is None) == (a0 is None):
        raise ProbabilityError("give exactly one of --a1 / --a0")
    return DsbsParams.from_a1(a1) if a1 is not None else DsbsParams(a0)


@dataclass(frozen=True)
class ClosedFormFamily:
    """A closed-form family: ``parse`` turns the float ``options`` (one
    required, or several exclusive forms; the first alone gives the family by
    one number) into the parameters that every function here takes first."""

    name: str
    summary: str
    options: tuple[str, ...]
    parse: Callable[..., Any]
    config_key: str  # parameter attribute written to the CLI config
    region: Callable[..., RegionLabel]
    joint_rd: Callable[..., float]
    c3: Callable[..., tuple[float, float]]
    common_info: Callable[[Any], float]
    allocation: Callable[..., tuple[float, float, float]]
    corner: Callable[[Any], float]  # d0: the common rate is C below (d0, d0)
    audit_max: float  # largest distortion on the t4 audit grid
    grid_axis: tuple[float, float]  # distortion axis of the CLI grid
    ci_reports: tuple[str, ...] = ()  # parameter attributes the ci result echoes
    common_info_n: Callable[[Any, int], float] | None = None  # N-variate form, ``ci --n``
    note: str | None = None  # reported on c3 and ci when ``params.reflected``


DSBS = ClosedFormFamily(
    "dsbs", "Closed forms for the doubly symmetric binary source.",
    options=("a1", "a0"), parse=_dsbs_from_options, config_key="a0",
    region=dsbs_region, joint_rd=dsbs_joint_rd, c3=dsbs_c3,
    common_info=dsbs_common_info, allocation=dsbs_allocation,
    corner=lambda p: p.a1, audit_max=0.499, grid_axis=(0.0, 0.5), ci_reports=("a1",),
)
GAUSS = ClosedFormFamily(
    "gauss", "Closed forms for the unit-variance bivariate Gaussian source.",
    options=("rho",), parse=GaussParams, config_key="rho",
    region=gauss_region, joint_rd=gauss_joint_rd, c3=gauss_c3,
    common_info=gauss_common_info, allocation=gauss_allocation,
    corner=lambda g: 1.0 - g.rho, audit_max=0.999, grid_axis=(1e-3, 1.0),
    common_info_n=gauss_common_info_N,
    note="negative rho mapped to |rho| (one coordinate reflected)",
)
FAMILIES = {f.name: f for f in (DSBS, GAUSS)}
