"""Exact small-blocklength evaluation of the generator interpretation: a
common uniform message drives independent per-coordinate generators, and the
output law is scored against the i.i.d. target by normalized divergence.

Everything here is exact enumeration over the n-sequence space; Monte-Carlo
estimation is deliberately excluded because plug-in divergence estimates bias
the trend checks this module exists to support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .common_info import CommonInfoSolution
from .prob import LOG2, ConditionalPmf, JointPmf, ProbabilityError, SupportViolation, kron_rows, xlogy

#: enumeration budget: (joint alphabet size)^n * codebook size
ENUMERATION_BUDGET = 50_000_000


class BudgetExceeded(RuntimeError):
    """The exact enumeration would exceed the state x codeword budget."""


def _check_budget(alphabet: int, n: int, M: int) -> None:
    if float(alphabet) ** n * M > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"alphabet^n * M = {alphabet}^{n} * {M} exceeds {ENUMERATION_BUDGET}"
        )


@dataclass(frozen=True)
class GeneratorSpec:
    n: int
    M: int
    codebook: np.ndarray = field(repr=False)  # (M, n) symbols over the W alphabet
    channels: tuple[ConditionalPmf, ...]

    def __post_init__(self):
        cb = np.asarray(self.codebook, dtype=np.int64).reshape(self.M, self.n)
        k = self.channels[0].given_size
        if np.any(cb < 0) or np.any(cb >= k):
            raise ProbabilityError("codebook symbol outside the W alphabet")
        cb.setflags(write=False)
        object.__setattr__(self, "codebook", cb)


@dataclass(frozen=True)
class SynthesisResult:
    n: int
    M: int
    delta: float  # bits per symbol


def _type_class_prefix(base, M: int) -> list[tuple[int, ...]]:
    """The first min(M, class size) arrangements of ``base`` (sorted
    ascending) in lexicographic order, by successive next-permutation steps."""
    seq = [int(v) for v in base]
    rows = [tuple(seq)]
    while len(rows) < M:
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            break  # the last arrangement: the class is exhausted
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])
        rows.append(tuple(seq))
    return rows


def build_generator(
    sol: CommonInfoSolution,
    n: int,
    R0: float,
    seed: int = 0,
    mode: str = "random",
) -> GeneratorSpec:
    """Codebook of M = ceil(2^(n R0)) length-n W-sequences plus the solution's
    per-coordinate channels.

    ``mode="random"`` draws codewords i.i.d. per symbol from p(w) (the
    random-coding ensemble); ``mode="type"`` enumerates sequences of the type
    closest to p(w) deterministically, in lexicographic order, for
    variance-free trend plots. When M exceeds the size of that type class the
    distinct sequences repeat cyclically, so the effective common rate is
    log2(distinct) / n, below R0.
    """
    if n < 1:
        raise ProbabilityError("blocklength must be >= 1")
    if R0 < 0:
        raise ProbabilityError("common rate must be >= 0")
    M = max(1, math.ceil(2.0 ** (n * R0)))
    _check_budget(int(np.prod([c.out_sizes[0] for c in sol.channels])), n, M)
    k = sol.pw.size
    if mode == "random":
        rng = np.random.default_rng(seed)
        codebook = rng.choice(k, size=(M, n), p=sol.pw)
    elif mode == "type":
        counts = np.floor(n * sol.pw).astype(int)
        while counts.sum() < n:
            counts[int(np.argmax(n * sol.pw - counts))] += 1
        distinct = _type_class_prefix(np.repeat(np.arange(k), counts), M)
        codebook = np.array([distinct[i % len(distinct)] for i in range(M)])
    else:
        raise ProbabilityError(f"unknown codebook mode {mode!r}")
    return GeneratorSpec(n=n, M=M, codebook=codebook, channels=sol.channels)


def _per_symbol_tables(gen: GeneratorSpec, p: JointPmf):
    """v[w, j] = prod_i p(x_i(j) | w) over flattened joint symbols j."""
    sizes = tuple(c.out_sizes[0] for c in gen.channels)
    if sizes != p.alphabet_sizes:
        raise ProbabilityError("generator channels do not match the target alphabet")
    return kron_rows(*(ch.rows for ch in gen.channels))


def exact_delta(gen: GeneratorSpec, p: JointPmf) -> SynthesisResult:
    """Normalized divergence of the generator's output law from the i.i.d.
    target, by exact summation over all n-sequences of joint symbols.

    The output law q is the mixture over codewords of the n-fold Kronecker
    products of per-symbol tables. For a k-letter W and j joint symbols, each
    of the M' = min(M, k^n) distinct codewords is split into a prefix of
    h = ceil(n/2) letters and a suffix of n - h; with A the prefix rows
    weighted by count / M and B the suffix rows, q reshaped to
    (j^h, j^(n-h)) is A^T B, one matrix product. A and B hold at most
    M' * j^h entries each, within ``ENUMERATION_BUDGET``.
    """
    n, m = gen.n, gen.M
    j = int(np.prod(p.alphabet_sizes))
    _check_budget(j, n, m)
    v = _per_symbol_tables(gen, p)
    codewords, counts = np.unique(gen.codebook, axis=0, return_counts=True)
    h = (n + 1) // 2
    # row r of v[codewords[:, i]] is codeword r's table at letter i; the
    # leading ones give a zero-letter suffix (n = 1) the row [1]
    ones = np.ones((len(codewords), 1))
    prefix = kron_rows(ones, *v[codewords[:, :h].T]) * (counts / m)[:, None]
    q = (prefix.T @ kron_rows(ones, *v[codewords[:, h:].T])).reshape(-1)
    # p^n is the n-fold Kronecker power of p
    pn_full = kron_rows(*[p.mass.reshape(1, -1)] * n)[0]
    if np.any((q > 0) & (pn_full == 0)):
        raise SupportViolation("generator output puts mass outside the target support")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0, q / np.where(pn_full > 0, pn_full, 1.0), 1.0)
        delta = float(xlogy(q, ratio).sum() / LOG2) / n
    return SynthesisResult(n=n, M=m, delta=max(delta, 0.0))
