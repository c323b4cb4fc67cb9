"""Command-line front end: source ingestion, solver dispatch, and JSON/CSV
emission for tables and region plots.

Exit codes: 0 success, 1 audit failure, 2 input error, 3 budget exhaustion.
All floating-point output is serialized at 12 significant digits.
"""

from __future__ import annotations

import json
import sys
from importlib.metadata import PackageNotFoundError, version as pkg_version

import click
import numpy as np

from . import audit as audit_mod
from . import closed_form as cf
from .common_info import (
    CommonInfoInfeasible,
    CommonInfoSolution,
    SolveBudget,
    solve_common_info,
)
from .gray_wyner import C3Estimate, RatePoint, c3_tilde, c_star, check_membership
from .prob import JointPmf, ProbabilityError
from .rd import (
    DistortionSpec,
    InfeasibleDistortion,
    SweepResolutionError,
    ba_joint_rd,
    ba_rate_distortion,
)
from .synthesis import BudgetExceeded, build_generator, exact_delta

try:
    VERSION = pkg_version("witl")
except PackageNotFoundError:
    VERSION = "unknown"

EXIT_AUDIT_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_json(result, config, output):
    doc = {"tool": "witl", "version": VERSION, "config": config, "result": _round12(result)}
    text = json.dumps(doc, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _emit_csv(rows, columns, config, output):
    lines = [
        "# tool=witl version=%s config=%s" % (VERSION, json.dumps(config)),
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _load_source(path) -> JointPmf:
    with open(path) as fh:
        return JointPmf.from_json(fh.read())


def _load_distortion(spec, p: JointPmf) -> DistortionSpec:
    if spec == "hamming":
        return DistortionSpec.hamming(p.alphabet_sizes)
    with open(spec) as fh:
        return DistortionSpec.from_json(json.load(fh))


def _parse_pair(text):
    parts = [float(v) for v in text.split(",")]
    return parts


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    """Map library exceptions onto the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (BudgetExceeded, CommonInfoInfeasible, SweepResolutionError) as exc:
            _fail(EXIT_BUDGET, exc)
        except (ProbabilityError, InfeasibleDistortion, FileNotFoundError,
                json.JSONDecodeError, ValueError) as exc:
            _fail(EXIT_INPUT_ERROR, exc)

    wrapper.__name__ = fn.__name__
    return wrapper


@click.group()
def main():
    """Wyner common information toolkit."""


@main.command()
@click.option("--source", required=True, type=click.Path())
@click.option("--dist", default="hamming", show_default=True)
@click.option("--D", "dvals", required=True, help="Distortion, e.g. 0.1 or 0.05,0.05")
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def rd(source, dist, dvals, output):
    """Rate-distortion value for a 1- or 2-coordinate source."""
    p = _load_source(source)
    d = _load_distortion(dist, p)
    targets = _parse_pair(dvals)
    if p.ncoords == 1:
        point = ba_rate_distortion(p, d, targets[0])
    elif p.ncoords == 2 and len(targets) == 2:
        point = ba_joint_rd(p, d, tuple(targets))
    else:
        raise ProbabilityError("rd needs a 1-coordinate source or a pair with --D d1,d2")
    result = {
        "rate_bits": point.rate,
        "distortion": list(point.distortion),
        "multipliers": list(point.multipliers),
    }
    _emit_json(result, {"subcommand": "rd", "source": source, "dist": dist, "D": targets}, output)


@main.command()
@click.option("--source", required=True, type=click.Path())
@click.option("--card", type=int, default=None, help="Cardinality bound |W|.")
@click.option("--restarts", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def ci(source, card, restarts, seed, output):
    """Common information of the source (upper-bound search)."""
    p = _load_source(source)
    budget = SolveBudget(restarts=restarts, seed=seed)
    sol = solve_common_info(p, K=card, budget=budget)
    config = {"subcommand": "ci", "source": source, "card": card,
              "restarts": restarts, "seed": seed}
    _emit_json(sol.to_json_obj(), config, output)


@main.command()
@click.option("--source", required=True, type=click.Path())
@click.option("--dist", default="hamming", show_default=True)
@click.option("--D", "dvals", required=True)
@click.option("--method", type=click.Choice(["tilde", "star", "both"]), default="tilde",
              show_default=True)
@click.option("--restarts", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def c3(source, dist, dvals, method, restarts, seed, output):
    """Smallest common rate at joint-decoding total rate."""
    p = _load_source(source)
    d = _load_distortion(dist, p)
    targets = _parse_pair(dvals)
    if len(targets) != 2:
        raise ProbabilityError("c3 needs --D d1,d2")
    budget = SolveBudget(restarts=restarts, seed=seed)
    result = {}
    if method in ("tilde", "both"):
        result["tilde"] = c3_tilde(p, d, targets, budget).to_json_obj()
    if method in ("star", "both"):
        result["star"] = c_star(p, d, targets, budget).to_json_obj()
    config = {"subcommand": "c3", "source": source, "dist": dist, "D": targets,
              "method": method, "restarts": restarts, "seed": seed}
    _emit_json(result, config, output)


@main.command()
@click.option("--source", required=True, type=click.Path())
@click.option("--rates", required=True, type=click.Path(),
              help='JSON {"R0": .., "privates": [..]}')
@click.option("--dist", default="hamming", show_default=True)
@click.option("--D", "dvals", required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def member(source, rates, dist, dvals, seed, output):
    """One-sided region membership: witness or none (absence is not a converse)."""
    p = _load_source(source)
    d = _load_distortion(dist, p)
    with open(rates) as fh:
        robj = json.load(fh)
    try:
        point = RatePoint(float(robj["R0"]), tuple(float(v) for v in robj["privates"]))
    except (KeyError, TypeError) as exc:
        raise ProbabilityError(f"bad rates document: {exc}") from exc
    targets = _parse_pair(dvals)
    witness = check_membership(p, point, targets, d, SolveBudget(seed=seed))
    if witness is None:
        result = {"member": None, "note": "one-sided check: no witness found within budget"}
    else:
        result = {
            "member": {
                "common_rate_needed_bits": witness.common_rate_needed,
                "private_rates_needed_bits": list(witness.private_rates_needed),
                "witness": witness.joint.to_json_obj(),
            },
            "note": "one-sided check: witness certifies membership",
        }
    config = {"subcommand": "member", "source": source, "rates": rates,
              "dist": dist, "D": targets, "seed": seed}
    _emit_json(result, config, output)


def _dsbs_params(a1, a0):
    if (a1 is None) == (a0 is None):
        raise ProbabilityError("give exactly one of --a1 / --a0")
    return cf.DsbsParams.from_a1(a1) if a1 is not None else cf.DsbsParams(a0)


@main.group()
def dsbs():
    """Closed forms for the doubly symmetric binary source."""


@dsbs.command("c3")
@click.option("--a1", type=float, default=None)
@click.option("--a0", type=float, default=None)
@click.option("--D", "dvals", required=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def dsbs_c3_cmd(a1, a0, dvals, output):
    p = _dsbs_params(a1, a0)
    d1, d2 = _parse_pair(dvals)
    lo, hi = cf.dsbs_c3(p, d1, d2)
    region = cf.dsbs_region(p, d1, d2).value
    result = {"region": region, "value_lower_bits": lo, "value_upper_bits": hi}
    if lo == hi:
        result["value"] = lo
    _emit_json(result, {"subcommand": "dsbs c3", "a0": p.a0, "D": [d1, d2]}, output)


@dsbs.command("rd")
@click.option("--a1", type=float, default=None)
@click.option("--a0", type=float, default=None)
@click.option("--D", "dvals", required=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def dsbs_rd_cmd(a1, a0, dvals, output):
    p = _dsbs_params(a1, a0)
    d1, d2 = _parse_pair(dvals)
    result = {
        "region": cf.dsbs_region(p, d1, d2).value,
        "joint_rate_bits": cf.dsbs_joint_rd(p, d1, d2),
    }
    _emit_json(result, {"subcommand": "dsbs rd", "a0": p.a0, "D": [d1, d2]}, output)


@dsbs.command("ci")
@click.option("--a1", type=float, default=None)
@click.option("--a0", type=float, default=None)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def dsbs_ci_cmd(a1, a0, output):
    p = _dsbs_params(a1, a0)
    result = {"common_information_bits": cf.dsbs_common_info(p), "a1": p.a1}
    _emit_json(result, {"subcommand": "dsbs ci", "a0": p.a0}, output)


@dsbs.command("alloc")
@click.option("--a1", type=float, default=None)
@click.option("--a0", type=float, default=None)
@click.option("--Dp", "dpvals", required=True, help="Coarse pair D1',D2'")
@click.option("--D", "dvals", required=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def dsbs_alloc_cmd(a1, a0, dpvals, dvals, output):
    p = _dsbs_params(a1, a0)
    dp1, dp2 = _parse_pair(dpvals)
    d1, d2 = _parse_pair(dvals)
    r0, r1, r2 = cf.dsbs_allocation(p, dp1, dp2, d1, d2)
    result = {"R0_bits": r0, "R1_bits": r1, "R2_bits": r2, "sum_bits": r0 + r1 + r2}
    _emit_json(result, {"subcommand": "dsbs alloc", "a0": p.a0,
                        "Dp": [dp1, dp2], "D": [d1, d2]}, output)


@dsbs.command("grid")
@click.option("--a1", type=float, default=None)
@click.option("--a0", type=float, default=None)
@click.option("--grid", "n", type=int, default=50, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def dsbs_grid_cmd(a1, a0, n, output):
    """n x n CSV of (D1, D2, region, R_joint, C3_low, C3_high)."""
    p = _dsbs_params(a1, a0)
    axis = np.linspace(0.0, 0.5, n)
    rows = []
    for d1 in axis:
        for d2 in axis:
            lo, hi = cf.dsbs_c3(p, d1, d2)
            rows.append((float(d1), float(d2), cf.dsbs_region(p, d1, d2).value,
                         cf.dsbs_joint_rd(p, d1, d2), lo, hi))
    config = {"subcommand": "dsbs grid", "a0": p.a0, "grid": n}
    _emit_csv(rows, ["D1", "D2", "region", "R_joint", "C3_low", "C3_high"], config, output)


@main.group()
def gauss():
    """Closed forms for the unit-variance bivariate Gaussian source."""


@gauss.command("c3")
@click.option("--rho", type=float, required=True)
@click.option("--D", "dvals", required=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def gauss_c3_cmd(rho, dvals, output):
    g = cf.GaussParams(rho)
    d1, d2 = _parse_pair(dvals)
    lo, hi = cf.gauss_c3(g, d1, d2)
    result = {"region": cf.gauss_region(g, d1, d2).value,
              "value_lower_bits": lo, "value_upper_bits": hi}
    if lo == hi:
        result["value"] = lo
    if g.reflected:
        result["note"] = "negative rho mapped to |rho| (one coordinate reflected)"
    _emit_json(result, {"subcommand": "gauss c3", "rho": g.rho, "D": [d1, d2]}, output)


@gauss.command("rd")
@click.option("--rho", type=float, required=True)
@click.option("--D", "dvals", required=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def gauss_rd_cmd(rho, dvals, output):
    g = cf.GaussParams(rho)
    d1, d2 = _parse_pair(dvals)
    try:
        rate = cf.gauss_joint_rd(g, d1, d2)
        result = {"region": cf.gauss_region(g, d1, d2).value, "joint_rate_bits": rate}
    except cf.InfiniteRate:
        result = {"region": cf.gauss_region(g, max(d1, 1e-300), max(d2, 1e-300)).value,
                  "joint_rate_bits": "infinite"}
    _emit_json(result, {"subcommand": "gauss rd", "rho": g.rho, "D": [d1, d2]}, output)


@gauss.command("ci")
@click.option("--rho", type=float, required=True)
@click.option("--n", "nvar", type=int, default=2, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def gauss_ci_cmd(rho, nvar, output):
    g = cf.GaussParams(rho)
    value = cf.gauss_common_info(g) if nvar == 2 else cf.gauss_common_info_N(g, nvar)
    result = {"common_information_bits": value, "n_variables": nvar}
    if g.reflected:
        result["note"] = "negative rho mapped to |rho| (one coordinate reflected)"
    _emit_json(result, {"subcommand": "gauss ci", "rho": g.rho, "n": nvar}, output)


@gauss.command("alloc")
@click.option("--rho", type=float, required=True)
@click.option("--Dp", "dpvals", required=True)
@click.option("--D", "dvals", required=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def gauss_alloc_cmd(rho, dpvals, dvals, output):
    g = cf.GaussParams(rho)
    dp1, dp2 = _parse_pair(dpvals)
    d1, d2 = _parse_pair(dvals)
    r0, r1, r2 = cf.gauss_allocation(g, dp1, dp2, d1, d2)
    result = {"R0_bits": r0, "R1_bits": r1, "R2_bits": r2, "sum_bits": r0 + r1 + r2}
    _emit_json(result, {"subcommand": "gauss alloc", "rho": g.rho,
                        "Dp": [dp1, dp2], "D": [d1, d2]}, output)


@gauss.command("grid")
@click.option("--rho", type=float, required=True)
@click.option("--grid", "n", type=int, default=50, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def gauss_grid_cmd(rho, n, output):
    """n x n CSV of (D1, D2, region, R_joint, C3_low, C3_high)."""
    g = cf.GaussParams(rho)
    axis = np.linspace(1e-3, 1.0, n)
    rows = []
    for d1 in axis:
        for d2 in axis:
            lo, hi = cf.gauss_c3(g, d1, d2)
            rows.append((float(d1), float(d2), cf.gauss_region(g, d1, d2).value,
                         cf.gauss_joint_rd(g, d1, d2), lo, hi))
    config = {"subcommand": "gauss grid", "rho": g.rho, "grid": n}
    _emit_csv(rows, ["D1", "D2", "region", "R_joint", "C3_low", "C3_high"], config, output)


@main.command()
@click.option("--source", required=True, type=click.Path())
@click.option("--solution", type=click.Path(), default=None,
              help="Reuse a `witl ci` output instead of re-solving.")
@click.option("--R0", "r0", type=float, required=True)
@click.option("--n", "nrange", required=True, help="Blocklength range a..b or single n.")
@click.option("--seeds", type=int, default=1, show_default=True)
@click.option("--mode", type=click.Choice(["random", "type"]), default="random",
              show_default=True)
@click.option("--card", type=int, default=None)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def synth(source, solution, r0, nrange, seeds, mode, card, output):
    """Exact generator simulation: CSV of (n, M, seed, delta)."""
    p = _load_source(source)
    if solution:
        with open(solution) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict):
            doc = doc.get("result", doc)
        sol = CommonInfoSolution.from_json_obj(doc)
    else:
        sol = solve_common_info(p, K=card, budget=SolveBudget())
    if ".." in nrange:
        lo, hi = nrange.split("..")
        ns = range(int(lo), int(hi) + 1)
    else:
        ns = [int(nrange)]
    rows = []
    for n in ns:
        for seed in range(seeds):
            gen = build_generator(sol, n, r0, seed=seed, mode=mode)
            res = exact_delta(gen, p)
            rows.append((n, res.M, seed, res.delta))
    config = {"subcommand": "synth", "source": source, "R0": r0,
              "n": nrange, "seeds": seeds, "mode": mode, "card": card}
    _emit_csv(rows, ["n", "M", "seed", "delta"], config, output)


@main.command("audit")
@click.option("--suite", type=click.Choice(["lemma1", "t4", "t9", "bounds"]), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--a1", type=float, default=0.1, show_default=True)
@click.option("--rho", type=float, default=0.5, show_default=True)
@click.option("--family", type=click.Choice(["dsbs", "gauss"]), default="dsbs",
              show_default=True)
@click.option("--D", "dvals", default="0.05,0.05", show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_guard
def audit_cmd(suite, seed, a1, rho, family, dvals, output):
    """Run an audit suite; exits nonzero on any failed check."""
    d1, d2 = _parse_pair(dvals)
    if suite == "lemma1":
        p = audit_mod.random_source(seed)
        report = audit_mod.audit_lemma1(p, DistortionSpec.hamming(p.alphabet_sizes), d1, d2)
    elif suite == "t4":
        report = audit_mod.audit_theorem4_frontier(family, a1 if family == "dsbs" else rho)
    elif suite == "t9":
        report = audit_mod.audit_theorem9_conditions(
            family, a1 if family == "dsbs" else rho, d1, d2)
    else:
        report = audit_mod.audit_bounds_and_monotone(
            audit_mod.random_source(seed), SolveBudget(seed=seed), a1=a1)
    config = {"subcommand": "audit", "suite": suite, "seed": seed, "a1": a1,
              "rho": rho, "family": family, "D": [d1, d2]}
    _emit_json(report.to_json_obj(), config, output)
    if not report.passed:
        sys.exit(EXIT_AUDIT_FAIL)


if __name__ == "__main__":
    main()
