"""Command-line front end: source ingestion, solver dispatch, and JSON/CSV
emission for tables and region plots. The ``dsbs`` and ``gauss`` groups are
built from the ``closed_form.FAMILIES`` records, one body per subcommand.

Exit codes: 0 success, 1 audit failure, 2 input error, 3 budget exhaustion.
All floating-point output is serialized at 12 significant digits.
"""

from __future__ import annotations

import functools
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
from .gray_wyner import RatePoint, c3_tilde, c_star, check_membership
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


def _write(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _emit_json(result, config, output):
    doc = {"tool": "witl", "version": VERSION, "config": config, "result": _round12(result)}
    _write(json.dumps(doc, indent=2), output)


def _emit_csv(rows, columns, config, output):
    lines = [
        "# tool=witl version=%s config=%s" % (VERSION, json.dumps(config)),
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    _write("\n".join(lines), output)


def _load_source(path) -> JointPmf:
    with open(path) as fh:
        return JointPmf.from_json(fh.read())


def _load_distortion(spec, p: JointPmf) -> DistortionSpec:
    if spec == "hamming":
        return DistortionSpec.hamming(p.alphabet_sizes)
    with open(spec) as fh:
        return DistortionSpec.from_json(json.load(fh))


def _parse_pair(text, count):
    """The ``count`` comma-separated floats in ``text``."""
    values = [float(v) for v in text.split(",")]
    if len(values) != count:
        raise ProbabilityError(f"expected {count} comma-separated value(s), got {text!r}")
    return values


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (BudgetExceeded, CommonInfoInfeasible, SweepResolutionError) as exc:
            _fail(EXIT_BUDGET, exc)
        except (ProbabilityError, InfeasibleDistortion, FileNotFoundError,
                json.JSONDecodeError, ValueError) as exc:
            _fail(EXIT_INPUT_ERROR, exc)

    return wrapper


_OUTPUT = click.option("--output", "-o", type=click.Path(), default=None)


@click.group()
def main():
    """Wyner common information toolkit."""


@main.command()
@click.option("--source", required=True, type=click.Path())
@click.option("--dist", default="hamming", show_default=True)
@click.option("--D", "dvals", required=True, help="Distortion, e.g. 0.1 or 0.05,0.05")
@_OUTPUT
@_guard
def rd(source, dist, dvals, output):
    """Rate-distortion value of a source: R_X(D) for one coordinate, joint R(D) for N >= 2."""
    p = _load_source(source)
    d = _load_distortion(dist, p)
    targets = _parse_pair(dvals, p.ncoords)
    if p.ncoords == 1:
        point = ba_rate_distortion(p, d, targets[0])
    else:
        point = ba_joint_rd(p, d, tuple(targets))
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
@_OUTPUT
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
@click.option("--D", "dvals", required=True, help="One distortion per coordinate, e.g. 0.05,0.05")
@click.option("--method", type=click.Choice(["tilde", "star", "both"]), default="tilde",
              show_default=True)
@click.option("--restarts", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_OUTPUT
@_guard
def c3(source, dist, dvals, method, restarts, seed, output):
    """Smallest common rate at joint-decoding total rate, one distortion per receiver."""
    p = _load_source(source)
    d = _load_distortion(dist, p)
    targets = _parse_pair(dvals, p.ncoords)
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
@_OUTPUT
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
    targets = _parse_pair(dvals, p.ncoords)
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


# Closed-form subcommands: each body serves every family, with its parameters parsed.


def _family_c3(fam, params, config, output, dvals):
    """Smallest common rate C3(D1, D2): a point value or an open bracket."""
    d1, d2 = config["D"] = _parse_pair(dvals, 2)
    lo, hi = fam.c3(params, d1, d2)
    result = {"region": fam.region(params, d1, d2).value,
              "value_lower_bits": lo, "value_upper_bits": hi}
    if lo == hi:
        result["value"] = lo
    if fam.note and params.reflected:
        result["note"] = fam.note
    _emit_json(result, config, output)


def _family_rd(fam, params, config, output, dvals):
    """Joint rate-distortion value R(D1, D2) and its region."""
    d1, d2 = config["D"] = _parse_pair(dvals, 2)
    result = {"region": fam.region(params, d1, d2).value}
    try:
        result["joint_rate_bits"] = fam.joint_rd(params, d1, d2)
    except cf.InfiniteRate:
        result["joint_rate_bits"] = "infinite"
    _emit_json(result, config, output)


def _family_ci(fam, params, config, output, nvar=None):
    """Common information C(X1, X2), or of N equicorrelated variables."""
    value = fam.common_info(params) if nvar in (None, 2) else fam.common_info_n(params, nvar)
    result = {"common_information_bits": value}
    result.update((key, getattr(params, key)) for key in fam.ci_reports)
    if nvar is not None:
        result["n_variables"] = config["n"] = nvar
    if fam.note and params.reflected:
        result["note"] = fam.note
    _emit_json(result, config, output)


def _family_alloc(fam, params, config, output, dpvals, dvals):
    """Rate allocation (R0, R1, R2) through the coarse pair D' down to D."""
    dp1, dp2 = config["Dp"] = _parse_pair(dpvals, 2)
    d1, d2 = config["D"] = _parse_pair(dvals, 2)
    r0, r1, r2 = fam.allocation(params, dp1, dp2, d1, d2)
    result = {"R0_bits": r0, "R1_bits": r1, "R2_bits": r2, "sum_bits": r0 + r1 + r2}
    _emit_json(result, config, output)


def _family_grid(fam, params, config, output, n):
    """n x n CSV of (D1, D2, region, R_joint, C3_low, C3_high)."""
    config["grid"] = n
    axis = np.linspace(*fam.grid_axis, n)
    rows = []
    for d1 in axis:
        for d2 in axis:
            lo, hi = fam.c3(params, d1, d2)
            rows.append((float(d1), float(d2), fam.region(params, d1, d2).value,
                         fam.joint_rd(params, d1, d2), lo, hi))
    _emit_csv(rows, ["D1", "D2", "region", "R_joint", "C3_low", "C3_high"], config, output)


def _run_family(fam, name, body, output, **kwargs):
    """Parse the family's parameter options, then run the subcommand body."""
    params = fam.parse(**{opt: kwargs.pop(opt) for opt in fam.options})
    config = {"subcommand": f"{fam.name} {name}", fam.config_key: getattr(params, fam.config_key)}
    body(fam, params, config, output, **kwargs)


def _family_group(fam):
    """``witl <family>``: each subcommand takes the family's parameter options,
    then its own options and ``-o``."""
    group = click.Group(fam.name, help=fam.summary)
    required = len(fam.options) == 1
    family_options = [click.option(f"--{opt}", type=float, required=required)
                      for opt in fam.options]
    dist = click.option("--D", "dvals", required=True)
    coarse = click.option("--Dp", "dpvals", required=True, help="Coarse pair D1',D2'")
    n_var = click.option("--n", "nvar", type=int, default=2, show_default=True)
    grid = click.option("--grid", "n", type=click.IntRange(min=1), default=50, show_default=True)
    for name, body, options in (
        ("c3", _family_c3, [dist]),
        ("rd", _family_rd, [dist]),
        ("ci", _family_ci, [n_var] if fam.common_info_n else []),
        ("alloc", _family_alloc, [coarse, dist]),
        ("grid", _family_grid, [grid]),
    ):
        command = _guard(functools.partial(_run_family, fam, name, body))
        for option in reversed([*family_options, *options, _OUTPUT]):
            command = option(command)
        group.add_command(click.command(name, help=body.__doc__)(command))
    return group


for _fam in cf.FAMILIES.values():
    main.add_command(_family_group(_fam))


@main.command()
@click.option("--source", required=True, type=click.Path())
@click.option("--solution", type=click.Path(), default=None,
              help="Reuse a `witl ci` output instead of re-solving.")
@click.option("--R0", "r0", type=float, required=True)
@click.option("--n", "nrange", required=True, help="Blocklength range a..b or single n.")
@click.option("--seeds", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--mode", type=click.Choice(["random", "type"]), default="random",
              show_default=True)
@click.option("--card", type=int, default=None, help="Cardinality bound |W| of a new solve.")
@_OUTPUT
@_guard
def synth(source, solution, r0, nrange, seeds, mode, card, output):
    """Exact generator simulation: CSV of (n, M, seed, delta)."""
    if solution and card is not None:
        raise ProbabilityError("--card bounds |W| of a new solve; a --solution already fixes |W|")
    p = _load_source(source)
    if ".." in nrange:
        lo, hi = nrange.split("..")
        ns = range(int(lo), int(hi) + 1)
    else:
        ns = [int(nrange)]
    if not ns:
        raise ProbabilityError(f"empty blocklength range {nrange!r}")
    if solution:
        with open(solution) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict):
            doc = doc.get("result", doc)
        sol = CommonInfoSolution.from_json_obj(doc)
    else:
        sol = solve_common_info(p, K=card, budget=SolveBudget())
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
@click.option("--family", type=click.Choice(list(cf.FAMILIES)), default="dsbs",
              show_default=True)
@click.option("--D", "dvals", default="0.05,0.05", show_default=True)
@_OUTPUT
@_guard
def audit_cmd(suite, seed, a1, rho, family, dvals, output):
    """Run an audit suite; exits nonzero on any failed check."""
    d1, d2 = _parse_pair(dvals, 2)
    number = {"a1": a1, "rho": rho}[cf.FAMILIES[family].options[0]]
    if suite == "lemma1":
        p = audit_mod.random_source(seed)
        report = audit_mod.audit_lemma1(p, DistortionSpec.hamming(p.alphabet_sizes), d1, d2)
    elif suite == "t4":
        report = audit_mod.audit_theorem4_frontier(family, number)
    elif suite == "t9":
        report = audit_mod.audit_theorem9_conditions(family, number, d1, d2)
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
