"""Probability tensors over finite alphabets and the information functionals built on them.

All information quantities are in bits. The conventions 0*log(0) = 0 and
0*log(0/0) = 0 apply throughout; a genuine support violation in a divergence
is signaled with :class:`SupportViolation` instead of returning +inf.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod

import numpy as np

LOG2 = np.log(2.0)

#: |sum - 1| beyond which an input tensor is rejected instead of renormalized.
SUM_TOLERANCE = 1e-9


class ProbabilityError(ValueError):
    """Invalid probability data: negative mass, bad shape, or bad total."""


class SupportViolation(ProbabilityError):
    """q puts mass where p does not; the divergence is infinite."""


def _as_mass(values, sizes) -> np.ndarray:
    mass = np.asarray(values, dtype=float).reshape(-1)
    if mass.size != prod(sizes):
        raise ProbabilityError(
            f"mass has {mass.size} entries, alphabet sizes {sizes} require {prod(sizes)}"
        )
    if not np.all(np.isfinite(mass)):
        raise ProbabilityError("probability mass must be finite")
    if np.any(mass < 0):
        raise ProbabilityError("negative probability mass")
    total = mass.sum()
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ProbabilityError(f"mass sums to {total!r}, not 1")
    return (mass / total).reshape(tuple(sizes))


@dataclass(frozen=True)
class JointPmf:
    """A joint pmf over N finite coordinates, stored as an N-dim tensor.

    ``mass`` is row-major over the coordinates in ``alphabet_sizes`` order.
    Instances are immutable; the mass array is set non-writeable.
    """

    alphabet_sizes: tuple[int, ...]
    mass: np.ndarray = field(repr=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.alphabet_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ProbabilityError(f"bad alphabet sizes {sizes}")
        object.__setattr__(self, "alphabet_sizes", sizes)
        mass = _as_mass(self.mass, sizes)
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def ncoords(self) -> int:
        return len(self.alphabet_sizes)

    @classmethod
    def from_flat(cls, alphabet_sizes, flat) -> "JointPmf":
        return cls(tuple(alphabet_sizes), np.asarray(flat, dtype=float))

    @classmethod
    def from_json(cls, text_or_obj) -> "JointPmf":
        """Parse ``{"alphabet_sizes": [..], "pmf": [..row-major..]}``."""
        obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
        try:
            sizes = obj["alphabet_sizes"]
            pmf = obj["pmf"]
        except (KeyError, TypeError) as exc:
            raise ProbabilityError(f"source document missing field: {exc}") from exc
        return cls.from_flat(sizes, pmf)

    def to_json_obj(self) -> dict:
        return {
            "alphabet_sizes": list(self.alphabet_sizes),
            "pmf": [float(v) for v in self.mass.reshape(-1)],
        }


@dataclass(frozen=True)
class ConditionalPmf:
    """Rows of conditional pmfs p(out | w), one row per conditioning value.

    ``rows`` has shape (given_size, *out_sizes); each row sums to one.
    """

    given_size: int
    out_sizes: tuple[int, ...]
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.out_sizes)
        rows = np.asarray(self.rows, dtype=float).reshape((self.given_size, *sizes))
        if not np.all(np.isfinite(rows)):
            raise ProbabilityError("conditional mass must be finite")
        if np.any(rows < 0):
            raise ProbabilityError("negative conditional mass")
        totals = rows.reshape(self.given_size, -1).sum(axis=1)
        if np.any(np.abs(totals - 1.0) > SUM_TOLERANCE):
            raise ProbabilityError("conditional rows must each sum to 1")
        rows = rows / totals.reshape((-1,) + (1,) * len(sizes))
        rows.setflags(write=False)
        object.__setattr__(self, "out_sizes", sizes)
        object.__setattr__(self, "rows", rows)


def xlogy(x, y) -> np.ndarray:
    """x * log(y) elementwise (natural log), read as 0 where x == 0, so that
    0 * log 0 = 0; x > 0 with y == 0 gives -inf. Raises no RuntimeWarning."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return x * np.log(np.where(x == 0, 1.0, y))


def entropy(p: JointPmf | np.ndarray) -> float:
    """Shannon entropy in bits."""
    mass = p.mass if isinstance(p, JointPmf) else np.asarray(p, dtype=float)
    return float(-xlogy(mass, mass).sum() / LOG2)


def binary_entropy(a: float) -> float:
    """h(a) in bits; rejects arguments outside [0, 1]."""
    if not 0.0 <= a <= 1.0:
        raise ProbabilityError(f"binary_entropy argument {a!r} outside [0, 1]")
    return float(-(xlogy(a, a) + xlogy(1.0 - a, 1.0 - a)) / LOG2)


def marginalize(p: JointPmf, keep) -> JointPmf:
    """Marginal of ``p`` onto the coordinate set ``keep`` (order preserved)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ProbabilityError("keep must be a nonempty coordinate set")
    if any(k < 0 or k >= p.ncoords for k in keep):
        raise ProbabilityError(f"coordinate out of range in {keep}")
    drop = tuple(i for i in range(p.ncoords) if i not in keep)
    mass = p.mass.sum(axis=drop) if drop else p.mass
    return JointPmf(tuple(p.alphabet_sizes[k] for k in keep), mass)


def mutual_information(p: JointPmf, group_a) -> float:
    """I(X_A ; X_Ac) in bits for a proper nonempty coordinate subset A."""
    group_a = sorted(set(int(k) for k in group_a))
    if not group_a or len(group_a) >= p.ncoords:
        raise ProbabilityError("group_A must be a proper nonempty coordinate subset")
    group_b = [i for i in range(p.ncoords) if i not in group_a]
    ha = entropy(marginalize(p, group_a))
    hb = entropy(marginalize(p, group_b))
    return max(0.0, ha + hb - entropy(p))


def kl_divergence(q: JointPmf, p: JointPmf) -> float:
    """D(q || p) in bits; raises :class:`SupportViolation` when unbounded."""
    if q.alphabet_sizes != p.alphabet_sizes:
        raise ProbabilityError("kl_divergence requires identical shapes")
    qm, pm = q.mass, p.mass
    if np.any((qm > 0) & (pm == 0)):
        raise SupportViolation("q has mass outside the support of p")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = xlogy(qm, np.where(qm > 0, qm / np.where(pm > 0, pm, 1.0), 1.0))
    return max(0.0, float(terms.sum() / LOG2))


def total_variation(q: JointPmf | np.ndarray, p: JointPmf | np.ndarray) -> float:
    qm = q.mass if isinstance(q, JointPmf) else np.asarray(q, dtype=float)
    pm = p.mass if isinstance(p, JointPmf) else np.asarray(p, dtype=float)
    return 0.5 * float(np.abs(qm - pm).sum())


def kron_rows(*factors) -> np.ndarray:
    """Row-wise Kronecker product: row r is f0[r] ⊗ f1[r] ⊗ ... .

    Each factor is (R, n_i); the result is (R, n_0 n_1 ...), row-major over
    the factors as a :class:`JointPmf` lays out its coordinates. Products
    are taken left to right, so a leading factor of ones changes no bit.
    """
    rows = np.asarray(factors[0], dtype=float)
    for f in factors[1:]:
        rows = (rows[:, :, None] * f[:, None, :]).reshape(len(rows), -1)
    return rows


def joint_with_mixture(pw, channels) -> JointPmf:
    """Joint pmf over (W, X_1..X_N) for the mixture p(w) prod_i p(x_i | w).

    ``channels`` is one single-coordinate :class:`ConditionalPmf` per output
    coordinate, all sharing the same conditioning alphabet as ``pw``.
    """
    pw = np.asarray(pw, dtype=float)
    if np.any(pw < 0) or abs(pw.sum() - 1.0) > SUM_TOLERANCE:
        raise ProbabilityError("weights must be a pmf")
    k = pw.size
    for ch in channels:
        if ch.given_size != k:
            raise ProbabilityError("channel conditioning size does not match weights")
        if len(ch.out_sizes) != 1:
            raise ProbabilityError("mixtures take single-coordinate channels")
    sizes = tuple(ch.out_sizes[0] for ch in channels)
    return JointPmf((k, *sizes), kron_rows(pw[:, None], *(ch.rows for ch in channels)))


def mix_channels(pw, channels) -> JointPmf:
    """The mixture sum_w p(w) prod_i p(x_i | w): :func:`joint_with_mixture`
    with W summed out."""
    joint = joint_with_mixture(pw, channels)
    return JointPmf(joint.alphabet_sizes[1:], joint.mass.sum(axis=0))
