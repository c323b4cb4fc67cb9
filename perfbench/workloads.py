"""The four benchmark workloads: seeded inputs, the ops that call ``witl``'s
public API, and the checks that score each answer against a reference.

An op is one public call. Inputs are made here from the seed; the program
sees only the generated inputs. Ops look up ``witl`` functions as module
attributes at call time, so the tracer's wrappers see every call. Reference
values (``witl.closed_form``, ``witl.prob``, ``common_info_bounds``) are
computed in the checks, outside the timed call.

Distortions, crossovers and rates are spread over their ranges with a seeded
low-discrepancy sequence rather than independent draws, so that any run's
prefix of rounds covers the range evenly and run-to-run cost stays steady.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import witl.audit as audit
import witl.closed_form as cf
import witl.common_info as common_info
import witl.gray_wyner as gray_wyner
import witl.prob as prob
import witl.rd as rd

# test tolerances the checks reuse (tests/test_acceptance.py, tests/test_rd.py,
# tests/test_common_info.py)
JOINT_RD_TOL = 5e-3
CONDITIONAL_RD_TOL = 1e-7
C3_TOL = 2e-2
DSBS_C_TOL = 1e-3
SANDWICH_TOL = 1e-6
IDENTITY_TOL = 1e-9
BROADCAST_BELOW_TOL = 1e-4
BROADCAST_ABOVE_TOL = 5e-2
DISTORTION_TOL = 1e-6

# irrational steps of the low-discrepancy sequences
PHI = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0) - 1.0
SQRT3 = math.sqrt(3.0) - 1.0


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object, "Checks"], None]
    span: str | None = None  # layer span the benchmark opens around the call


class Checks:
    """Verdicts of one run.

    ``margin_min`` is the smallest share of a tolerance left unused by any
    comparison with a reference value (1 = exact, < 0 = violated);
    inequalities count with their share capped at 1.
    ``accuracy`` keeps the raw worst-case figures by layer.
    """

    def __init__(self):
        self.margin_min: float | None = None
        self.accuracy: dict[str, float] = {}
        self.failures: list[str] = []
        self._op_failures = 0

    def begin(self):
        self._op_failures = len(self.failures)

    def failed_since_begin(self) -> bool:
        return len(self.failures) > self._op_failures

    def fail(self, what: str):
        self.failures.append(what)

    def holds(self, what: str, condition: bool):
        if not condition:
            self.fail(what)

    def near(self, what, value, ref, tol, key=None):
        err = abs(float(value) - float(ref))
        self._margin(1.0 - err / tol)
        if key:
            self.worst(key, err)
        self.holds(f"{what}: |{value} - {ref}| <= {tol}", err <= tol)

    def at_least(self, what, lhs, rhs, tol):
        slack = float(lhs) - float(rhs)
        self._margin(min(1.0, (slack + tol) / tol))
        self.holds(f"{what}: {lhs} >= {rhs} - {tol}", slack >= -tol)

    def worst(self, key, value, lowest=False):
        value = float(value)
        old = self.accuracy.get(key)
        if old is None or (value < old if lowest else value > old):
            self.accuracy[key] = value

    def _margin(self, share):
        if self.margin_min is None or share < self.margin_min:
            self.margin_min = share


def spread(rng, count, lo, hi, step):
    """Seeded low-discrepancy points in [lo, hi)."""
    return lo + (hi - lo) * ((rng.random() + step * np.arange(count)) % 1.0)


def dsbs_source(a1: float) -> prob.JointPmf:
    p11 = 0.5 * ((1.0 - a1) ** 2 + a1**2)
    p10 = a1 * (1.0 - a1)
    return prob.JointPmf((2, 2), np.array([[p11, p10], [p10, p11]]))


def dsbs_given_common_bit(a1: float) -> prob.JointPmf:
    """(X_i, S) pmf: S uniform, X_i = S through a BSC(a1)."""
    return prob.JointPmf((2, 2), 0.5 * np.array([[1.0 - a1, a1], [a1, 1.0 - a1]]))


def _int_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# rd_cold: lemma-1 audits on fresh Dirichlet sources (every joint query cold)


def _check_audit(report, checks: Checks):
    # verdicts only: solver noise moves slacks of tight inequalities by up to
    # 9e-5 against the 1e-4 audit tolerance, too much for a steady margin
    for c in report.checks:
        checks.holds(f"{c.name}: verdict {c.verdict}", c.verdict in ("pass", "equal"))
        if c.verdict == "pass":
            checks.worst("audit.lemma1.min_slack_bits", c.slack, lowest=True)
    checks.holds("lemma-1 report passed", report.passed)


def conditional_zero_rate_distortion(p: prob.JointPmf, coord: int) -> float:
    """Smallest Hamming D at which R_{X_coord | X_other}(D) is 0: the error
    of guessing X_coord from the other coordinate."""
    mass = p.mass if coord == 0 else p.mass.T
    return float(1.0 - mass.max(axis=0).sum())


def perturb(p: prob.JointPmf, rng, sd: float) -> prob.JointPmf:
    """p with each mass scaled by exp(sd * N(0, 1)), renormalized."""
    mass = p.mass * np.exp(sd * rng.standard_normal(p.mass.shape))
    return prob.JointPmf(p.alphabet_sizes, mass / mass.sum())


#: D_i of an audit as a share of the conditional zero-rate distortion of X_i.
#: Conditional RD slows without bound as D nears that boundary (a DSBS query
#: at 0.995 of it took 7.8 s, against 0.07 s at 0.19), so shares stop short of it.
COLD_SHARES = (0.1, 0.8)
#: rd_cold cycles through a fixed design: the Dirichlet sources
#: ``random_source(COLD_DESIGN_SEED + i)`` with evenly spread shares. The run's
#: seed perturbs every source and share, so each audit is new to the sweep
#: cache, but every run holds the same mix of cheap and costly sources. An
#: audit costs 0.5-8 s by source, and a run holds nine to twelve, so sources
#: drawn afresh per seed moved the run's throughput by a third. The
#: perturbation is tiny because cost is steep near zero-rate kinks: one
#: design source cost 2.0 s and 6.9 s under two perturbations of sd 0.01,
#: and 1.7-2.1 s under three of sd 0.001.
COLD_DESIGN_SEED = 1000
COLD_DESIGN_ROUNDS = 12
COLD_SOURCE_SD = 0.001
COLD_SHARE_SD = 0.001


def rd_cold(seed: int, workdir: Path, rounds: int = 40) -> list[list[Op]]:
    # short rounds, so that where a run's time runs out moves its mix little
    pattern = ((3, 3), (2, 2))
    rng = np.random.default_rng(seed)
    design = COLD_DESIGN_ROUNDS * len(pattern)
    s1 = spread(np.random.default_rng(COLD_DESIGN_SEED), design, *COLD_SHARES, PHI)
    s2 = spread(np.random.default_rng(COLD_DESIGN_SEED + 1), design, *COLD_SHARES, SQRT2)
    out = []
    for r in range(rounds):
        ops = []
        for k, sizes in enumerate(pattern):
            i = (r * len(pattern) + k) % design
            p = perturb(audit.random_source(COLD_DESIGN_SEED + i, sizes), rng, COLD_SOURCE_SD)
            D1 = (s1[i] + COLD_SHARE_SD * rng.standard_normal()) * conditional_zero_rate_distortion(p, 0)
            D2 = (s2[i] + COLD_SHARE_SD * rng.standard_normal()) * conditional_zero_rate_distortion(p, 1)
            D1, D2 = float(D1), float(D2)
            spec = rd.DistortionSpec.hamming(sizes)
            ops.append(Op(
                f"audit_lemma1.{sizes[0]}x{sizes[1]}",
                lambda p=p, spec=spec, a=D1, b=D2: audit.audit_lemma1(p, spec, a, b),
                _check_audit,
            ))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# rd_warm: one cold sweep per DSBS source, then warm joint and conditional queries


def _channel_rate(p: prob.JointPmf, point) -> float:
    rows = point.test_channel.rows
    joint = p.mass.reshape(-1, 1) * rows.reshape(p.mass.size, -1)
    return prob.mutual_information(prob.JointPmf(joint.shape, joint), [0])


def _joint_check(p, par, D1, D2):
    def check(point, checks: Checks):
        checks.near("joint R(D1,D2) vs DSBS closed form", point.rate,
                    cf.dsbs_joint_rd(par, D1, D2), JOINT_RD_TOL, "rd.joint.ref_err_max_bits")
        over = max(point.distortion[0] - D1, point.distortion[1] - D2)
        checks.worst("rd.joint.distortion_overshoot_max", over)
        checks.holds(f"achieved distortion overshoot {over} <= {DISTORTION_TOL}", over <= DISTORTION_TOL)
        checks.holds("joint answer carries a test channel", point.test_channel is not None)
        if point.test_channel is not None:
            checks.worst("rd.joint.channel_rate_excess_max_bits", _channel_rate(p, point) - point.rate)

    return check


def _conditional_check(par, D):
    def check(point, checks: Checks):
        checks.near("R_{X|S}(D) vs DSBS closed form", point.rate, cf.dsbs_conditional_rd(par, D),
                    CONDITIONAL_RD_TOL, "rd.conditional.ref_err_max_bits")

    return check


#: conditional queries of a round at these shares of a1, where R_{X|S}(D)
#: reaches 0; the last is in the zero-rate region. Every round asks the same
#: mix, so near-boundary queries (slow) weigh the same in every run.
WARM_SHARES = (0.2, 0.4, 0.6, 0.75, 0.9, 1.2)


#: crossovers of the rd_warm sources: the seed picks where a run enters this
#: grid and jitters each point, so every run of eight or more rounds sees all
#: of it
WARM_A1_GRID = tuple(0.05 + 0.25 * (k + 0.5) / 8 for k in range(8))
WARM_A1_JITTER = 0.004


def rd_warm(seed: int, workdir: Path, rounds: int = 40, grid: int = 6) -> list[list[Op]]:
    rng = np.random.default_rng(seed)
    start = int(rng.integers(len(WARM_A1_GRID)))
    a1s = [WARM_A1_GRID[(start + r) % len(WARM_A1_GRID)] + WARM_A1_JITTER * (2.0 * rng.random() - 1.0)
           for r in range(rounds)]
    spec2 = rd.DistortionSpec.hamming((2, 2))
    spec1 = rd.DistortionSpec.hamming((2,))
    out = []
    for r in range(rounds):
        a1 = float(a1s[r])
        par = cf.DsbsParams.from_a1(a1)
        p = dsbs_source(a1)
        pxs = dsbs_given_common_bit(a1)
        axis = 0.02 + 0.48 * (np.arange(grid) + rng.random(grid)) / grid
        ops = []
        for D1 in axis:
            for D2 in axis:
                D1, D2 = float(D1), float(D2)
                if cf.dsbs_region(par, D1, D2) is cf.RegionLabel.ZERO:
                    continue
                ops.append(Op("ba_joint_rd",
                              lambda p=p, D=(D1, D2): rd.ba_joint_rd(p, spec2, D),
                              _joint_check(p, par, D1, D2)))
        for share in WARM_SHARES:
            D = a1 * share * (1.0 + 0.02 * (rng.random() - 0.5))
            ops.append(Op("ba_conditional_rd",
                          lambda D=D, pxs=pxs: rd.ba_conditional_rd(pxs, spec1, D),
                          _conditional_check(par, D)))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# common_rate: Gray-Wyner common rate and membership on DSBS, broadcast descent

PROBE = (0.05, 0.05)  # the test_5 probe inside the point-valued region E10
# The descent runs on the 3-receiver broadcast source, where C = H(X) - 3 h(a1)
# is exact. Seeded Dirichlet 3x3 sources with K=3 are not used: the descent
# finds no feasible W on some of them (4 of 30 at 1 restart, 2 of 30 at 2).
BROADCAST_RECEIVERS = 3


def _c3_check(par):
    def check(est, checks: Checks):
        lo, hi = cf.dsbs_c3(par, *PROBE)
        checks.near("C3 vs DSBS closed form", est.value_upper, hi, C3_TOL, "gray_wyner.ref_err_max_bits")
        checks.near("C3 joint rate vs DSBS closed form", est.joint_rate, cf.dsbs_joint_rd(par, *PROBE),
                    JOINT_RD_TOL, "rd.joint.ref_err_max_bits")

    return check


def _member_check(expect_witness: bool, rates):
    def check(witness, checks: Checks):
        if not expect_witness:
            checks.holds("no witness below the joint rate", witness is None)
            return
        checks.holds("witness for an achievable rate point", witness is not None)
        if witness is not None:
            checks.holds("witness common rate within R0",
                         witness.common_rate_needed <= rates.R0 + 1e-6)
            for need, have in zip(witness.private_rates_needed, rates.privates):
                checks.holds("witness private rate within R_i", need <= have + 1e-6)

    return check


def _descent_check(p, a1, receivers):
    def check(sol, checks: Checks):
        exact = prob.entropy(p) - receivers * prob.binary_entropy(a1)
        checks.worst("common_info.ref_err_max_bits", abs(sol.achieved_I - exact))
        checks.at_least("descent C >= exact C", sol.achieved_I, exact, BROADCAST_BELOW_TOL)
        checks.holds("descent C <= exact C + 5e-2", sol.achieved_I <= exact + BROADCAST_ABOVE_TOL)
        lower, _ = common_info.common_info_bounds(p)
        checks.at_least("descent C >= max cut information", sol.achieved_I, lower, SANDWICH_TOL)
        checks.holds("descent W reproduces the source",
                     sol.marginal_residual <= common_info.FEASIBILITY_TOL)

    return check


#: crossovers of the common_rate sources. c3_tilde and c_star cost 1-3 s on
#: this grid but 42 s and 28 s at a1 = 0.1502, a few thousandths from 0.15, so
#: a1 is not drawn at random: a run would hold one op. The seed picks where a
#: run enters the grid and the margins of the membership rate points.
A1_GRID = tuple(0.1 + 0.025 * k for k in range(9))


def common_rate(seed: int, workdir: Path, rounds: int = 40) -> list[list[Op]]:
    rng = np.random.default_rng(seed)
    start = int(rng.integers(len(A1_GRID)))
    a1s = [A1_GRID[(start + r) % len(A1_GRID)] for r in range(rounds)]
    spec = rd.DistortionSpec.hamming((2, 2))
    # the library's default budget seed, as test_5 uses; with seed 0 the
    # broadcast descent found a feasible W at 3 restarts on 110 of 110 a1 in
    # [0.1, 0.3], while 2 restarts at per-round seeds failed on 3 of 90
    budget = common_info.SolveBudget(restarts=2)
    budget_descent = common_info.SolveBudget(restarts=3)
    out = []
    for r in range(rounds):
        a1 = float(a1s[r])
        par = cf.DsbsParams.from_a1(a1)
        lo, hi = cf.dsbs_c3(par, *PROBE)
        if lo != hi:
            raise ValueError(f"probe {PROBE} is not point-valued at a1={a1}")
        p = dsbs_source(a1)
        cond = [cf.dsbs_conditional_rd(par, D) for D in PROBE]
        c = cf.dsbs_common_info(par)
        margin = 0.015 + 0.01 * rng.random()
        inside = gray_wyner.RatePoint(c + margin, tuple(v + margin for v in cond))
        # sum R0 + R1 + R2 = R(D1, D2) - 2 * deficit: below the joint rate, so no W exists
        deficit = 0.04 + 0.02 * rng.random()
        outside = gray_wyner.RatePoint(c, tuple(v - deficit for v in cond))
        broadcast = common_info.bsc_broadcast_source(0.5, a1, BROADCAST_RECEIVERS)
        out.append([
            Op("c3_tilde", lambda p=p, b=budget: gray_wyner.c3_tilde(p, spec, PROBE, b), _c3_check(par)),
            Op("c_star", lambda p=p, b=budget: gray_wyner.c_star(p, spec, PROBE, b), _c3_check(par)),
            Op("check_membership.inside",
               lambda p=p, b=budget, x=inside: gray_wyner.check_membership(p, x, PROBE, spec, b),
               _member_check(True, inside)),
            Op("check_membership.outside",
               lambda p=p, b=budget, x=outside: gray_wyner.check_membership(p, x, PROBE, spec, b),
               _member_check(False, outside)),
            Op("solve_common_info.broadcast",
               lambda p=broadcast, b=budget_descent: common_info.solve_common_info(p, K=2, budget=b),
               _descent_check(broadcast, a1, BROADCAST_RECEIVERS)),
        ])
    return out


# ---------------------------------------------------------------------------
# ci_synth: 2x2 sources through the witl CLI, in process

SYNTH_R0 = 0.94  # M = 184 at n = 8; 4^8 * M stays inside the enumeration budget


def _cli(argv: list[str]):
    import witl.cli as cli

    try:
        cli.main.main(args=argv, prog_name="witl", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise RuntimeError(f"witl {argv[0]} exited with code {exc.code}") from exc


def _read_rows(path: Path) -> list[tuple[int, int, int, float]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    rows = []
    for ln in lines[1:]:
        n, m, s, delta = ln.split(",")
        rows.append((int(n), int(m), int(s), float(delta)))
    return rows


def _ci_check(p, solution: Path, a1):
    def check(_, checks: Checks):
        doc = json.loads(solution.read_text())["result"]
        achieved = doc["achieved_I_bits"]
        lower, upper = common_info.common_info_bounds(p)
        checks.holds("exhaustive route on a 2x2 source", doc["status"] == "exhaustive-optimal")
        checks.at_least("C >= max cut information", achieved, lower, SANDWICH_TOL)
        checks.holds("C <= min_j H(X^-j) + grid resolution",
                     achieved <= upper + common_info.SolveBudget().grid_resolution)
        checks.holds("W reproduces the source", doc["marginal_residual_tv"] <= common_info.FEASIBILITY_TOL)
        if a1 is not None:
            checks.near("C vs DSBS closed form", achieved, cf.dsbs_common_info(cf.DsbsParams.from_a1(a1)),
                        DSBS_C_TOL, "common_info.ref_err_max_bits")

    return check


def _synth_check(csv: Path, R0: float, ns, seeds: int, identity_ref=None):
    def check(_, checks: Checks):
        rows = _read_rows(csv)
        checks.holds("one row per blocklength and seed", len(rows) == len(ns) * seeds)
        for n, M, _, delta in rows:
            checks.holds(f"M = ceil(2^(n R0)) at n={n}", M == max(1, math.ceil(2.0 ** (n * R0))))
            checks.holds(f"delta >= 0 at n={n}", delta >= 0.0)
            if identity_ref is not None:
                checks.near(f"M=1 identity: delta = D(p1 x p2 || p) at n={n}", delta, identity_ref,
                            IDENTITY_TOL, "synthesis.identity_err_max_bits")

    return check


def _product_divergence(p: prob.JointPmf) -> float:
    """D(p1 x p2 || p): the exact per-letter delta of a one-letter W."""
    marginals = [prob.marginalize(p, [i]).mass for i in range(2)]
    return prob.kl_divergence(prob.JointPmf((2, 2), np.outer(*marginals)), p)


def _constant_w_solution(p: prob.JointPmf) -> dict:
    """A one-letter W: every codeword is the same, so the synthesized law is
    (p1 x p2)^n and delta = D(p1 x p2 || p) at every n and M."""
    marginals = [prob.marginalize(p, [i]).mass for i in range(2)]
    return {
        "pw": [1.0],
        "channels": [[m.tolist()] for m in marginals],
        "achieved_I_bits": 0.0,
        "marginal_residual_tv": prob.total_variation(np.outer(*marginals), p.mass),
        "status": "exhaustive-optimal",
    }


def ci_synth(seed: int, workdir: Path, rounds: int = 120) -> list[list[Op]]:
    import witl.cli  # noqa: F401  (the CLI import is part of set-up)

    rng = np.random.default_rng(seed)
    a1s = spread(rng, rounds, 0.05, 0.3, PHI)
    ns = range(2, 9)
    seeds = 2
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for r in range(rounds):
        # alternate Dirichlet sources with DSBS ones, which have a closed-form C
        a1 = float(a1s[r]) if r % 2 else None
        p = dsbs_source(a1) if a1 is not None else audit.random_source(_int_seed(rng), (2, 2))
        src = workdir / f"source{r}.json"
        src.write_text(json.dumps(p.to_json_obj()))
        k1 = workdir / f"constant_w{r}.json"
        k1.write_text(json.dumps(_constant_w_solution(p)))
        sol = workdir / f"solution{r}.json"
        n_arg = f"{ns[0]}..{ns[-1]}"
        synth = ["synth", "--source", str(src), "--R0", repr(SYNTH_R0), "--n", n_arg]
        csv = {m: workdir / f"synth{r}_{m}.csv" for m in ("random", "type", "identity")}
        out.append([
            Op("cli.ci", lambda a=["ci", "--source", str(src), "--card", "2", "-o", str(sol)]: _cli(a),
               _ci_check(p, sol, a1), "cli"),
            Op("cli.synth.random",
               lambda a=synth + ["--solution", str(sol), "--mode", "random", "--seeds", str(seeds),
                                 "-o", str(csv["random"])]: _cli(a),
               _synth_check(csv["random"], SYNTH_R0, ns, seeds), "cli"),
            Op("cli.synth.type",
               lambda a=synth + ["--solution", str(sol), "--mode", "type", "-o", str(csv["type"])]: _cli(a),
               _synth_check(csv["type"], SYNTH_R0, ns, 1), "cli"),
            Op("cli.synth.identity",
               lambda a=synth + ["--solution", str(k1), "--mode", "type", "-o", str(csv["identity"])]: _cli(a),
               _synth_check(csv["identity"], SYNTH_R0, ns, 1, _product_divergence(p)), "cli"),
        ])
    return out


WORKLOADS = {
    "rd_cold": rd_cold,
    "rd_warm": rd_warm,
    "common_rate": common_rate,
    "ci_synth": ci_synth,
}
