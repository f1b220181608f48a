"""Command line front end: validate models, solve stopping problems, simulate rules.

Exit codes: 0 success, 2 schema or validation failure (also a kernel whose
simulated jumps pile up inside the horizon, and an --eps too small for any
iteration budget), 3 fixed point not reached to --tol within the grid's
steps + 2 sweeps, 4 contraction hypothesis violated, 5 unknown simulation
rule.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .grid import TimeGrid
from .model import (
    ModelFormatError,
    SMPModel,
    contraction_factor,
    kernel_mass,
    load_model,
    validate_model,
)
from .simulate import AlwaysStop, JumpLimitError, NeverStop, RegionRule, estimate_value
from .smdp import build_smdp, solve_smdp
from .solver import (
    ContractionError,
    eps_region,
    exactness_gap,
    route_discrepancy,
    solve_value,
    stopping_region,
    write_region_csv,
    write_value_csv,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_BUDGET = 3
EXIT_CONTRACTION = 4
EXIT_RULE = 5

RULE_NAMES = ("optimal", "eps", "always", "never")


@dataclass(frozen=True)
class RunConfig:
    """All tunables of one CLI invocation; its field defaults are the CLI's only defaults."""

    model_path: str
    command: str
    grid_steps: int = 1024
    tol: float = 1e-9
    eta: float = 1e-6
    eps: float | None = None
    n_paths: int = 100000
    seed: int = 42
    out_dir: str = "."
    x0: str | None = None
    rule: str = "optimal"

    def validate(self) -> list[str]:
        bad = []
        if self.grid_steps < 1:
            bad.append("--grid must be at least 1")
        if not 0 < self.tol < math.inf:
            bad.append("--tol must be positive and finite")
        if not 0 <= self.eta < math.inf:
            bad.append("--eta must be nonnegative and finite")
        if self.eps is not None and not 0 < self.eps < math.inf:
            bad.append("--eps must be positive and finite")
        if self.n_paths < 2:
            bad.append("--paths must be at least 2")
        return bad


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load(cfg: RunConfig) -> SMPModel:
    model = load_model(cfg.model_path)
    report = validate_model(model)
    if not report.ok:
        raise ModelFormatError(report.violations)
    return model


def _print_violations(violations) -> None:
    print("model INVALID:")
    for v in violations:
        print(f"  - {v}")


def cmd_check(cfg: RunConfig) -> int:
    try:
        model = _load(cfg)
    except ModelFormatError as err:
        _print_violations(err.violations)
        return EXIT_SCHEMA
    horizon = model.horizon
    print(f"model ok: {len(model.states)} states, horizon T = {horizon:g}")
    print(f"{'delta':>12}  {'sup_x Q(delta,E|x)':>20}")
    for frac in (16, 8, 4, 2):
        delta = horizon / frac
        sup = max(kernel_mass(model.kernel, x, delta) for x in range(len(model.states)))
        print(f"{delta:>12.6g}  {sup:>20.6g}")
    beta = contraction_factor(model)
    note = "geometric iteration budget available" if beta < 1 else "no geometric budget"
    print(f"beta = sup_x Q(T,E|x) = {beta:.6g}  ({note})")
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    try:
        model = _load(cfg)
    except ModelFormatError as err:
        _print_violations(err.violations)
        return EXIT_SCHEMA
    try:
        grid = TimeGrid(model.horizon, cfg.grid_steps)
    except ValueError as err:
        print(f"cannot build the grid: {err}")
        return EXIT_SCHEMA
    v, report = solve_value(model, grid, tol=cfg.tol)
    u, _ = solve_smdp(build_smdp(model), grid, tol=cfg.tol)
    discrepancy = route_discrepancy(v, u)
    region = stopping_region(v, model, eta=cfg.eta)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_value_csv(v, model.states, out / "value.csv")
    write_region_csv(region, model.states, out / "region.csv")
    _write_json(
        {
            "horizon": model.horizon,
            "grid_steps": grid.steps,
            "tol": cfg.tol,
            "eta": cfg.eta,
            "iterations": report.iterations,
            "final_diff": report.final_diff,
            "fixed_point_residual": report.residual,
            "converged": report.converged,
            "cross_check_discrepancy": discrepancy,
            "boundary": dict(zip(model.states.labels, region.boundary)),
        },
        out / "solve_report.json",
    )
    print(
        f"solved in {report.iterations} iterations, residual {report.residual:.3g}, "
        f"cross-check {discrepancy:.3g}"
    )
    if not report.converged:
        print("iteration budget exhausted before reaching tol; results written anyway")
        return EXIT_BUDGET
    return EXIT_OK


def cmd_eps(cfg: RunConfig) -> int:
    try:
        model = _load(cfg)
    except ModelFormatError as err:
        _print_violations(err.violations)
        return EXIT_SCHEMA
    try:
        grid = TimeGrid(model.horizon, cfg.grid_steps)
    except ValueError as err:
        print(f"cannot build the grid: {err}")
        return EXIT_SCHEMA
    try:
        result = eps_region(model, grid, cfg.eps, eta=cfg.eta)
    except ContractionError as err:
        print(f"contraction hypothesis violated; use the solve command instead ({err})")
        return EXIT_CONTRACTION
    except ValueError as err:
        print(f"no iteration budget for --eps: {err}")
        return EXIT_SCHEMA
    gap = exactness_gap(model, result.region, result.refined)
    verdict = "exact" if gap > cfg.eps else "eps-optimal"
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_region_csv(result.region, model.states, out / "eps_region.csv")
    _write_json(
        {
            "eps": cfg.eps,
            "beta": result.budget.beta,
            "bound_M": result.budget.bound,
            "n_iterations": result.budget.n_iter,
            "gap": None if gap == float("inf") else gap,
            "gap_infinite": gap == float("inf"),
            "verdict": verdict,
            "grid_steps": grid.steps,
            "eta": cfg.eta,
        },
        out / "eps_report.json",
    )
    gap_text = "inf" if gap == float("inf") else f"{gap:.6g}"
    print(
        f"beta = {result.budget.beta:.6g}, M = {result.budget.bound:.6g}, "
        f"N = {result.budget.n_iter}, gap = {gap_text}: {verdict}"
    )
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.rule not in RULE_NAMES:
        print(f"unknown rule '{cfg.rule}'; choose one of {', '.join(RULE_NAMES)}")
        return EXIT_RULE
    try:
        model = _load(cfg)
    except ModelFormatError as err:
        _print_violations(err.violations)
        return EXIT_SCHEMA
    x0 = cfg.x0 if cfg.x0 is not None else model.states.labels[0]
    try:
        model.states.index(x0)
    except ValueError as err:
        print(str(err))
        return EXIT_SCHEMA

    dp_value = None
    if cfg.rule in ("optimal", "eps"):
        try:
            grid = TimeGrid(model.horizon, cfg.grid_steps)
        except ValueError as err:
            print(f"cannot build the grid: {err}")
            return EXIT_SCHEMA
    if cfg.rule == "optimal":
        v, _ = solve_value(model, grid, tol=cfg.tol)
        rule = RegionRule(stopping_region(v, model, eta=cfg.eta))
        dp_value = float(v.values[-1, model.states.index(x0)])
    elif cfg.rule == "eps":
        if cfg.eps is None:
            print("--eps is required for rule 'eps'")
            return EXIT_SCHEMA
        try:
            rule = RegionRule(eps_region(model, grid, cfg.eps, eta=cfg.eta).region)
        except ContractionError as err:
            print(f"contraction hypothesis violated; use rule 'optimal' instead ({err})")
            return EXIT_CONTRACTION
        except ValueError as err:
            print(f"no iteration budget for --eps: {err}")
            return EXIT_SCHEMA
    elif cfg.rule == "always":
        rule = AlwaysStop()
    else:
        rule = NeverStop()

    try:
        report = estimate_value(model, rule, x0, cfg.n_paths, cfg.seed)
    except JumpLimitError as err:
        print(f"cannot simulate this model: {err}")
        return EXIT_SCHEMA
    payload = report.to_json_dict()
    payload["rule"] = cfg.rule
    payload["x0"] = x0
    if dp_value is not None:
        payload["dp_value"] = dp_value
        payload["abs_delta_vs_dp"] = abs(report.mean - dp_value)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(payload, out / "mc_report.json")
    print(f"rule {cfg.rule}: mean cost {report.mean:.6g} (SE {report.std_err:.3g}) from x0 = {x0}")
    if dp_value is not None:
        print(f"dp value at (T, x0) = {dp_value:.6g}, |MC - DP| = {payload['abs_delta_vs_dp']:.3g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Flags store under ``RunConfig`` field names; an absent flag takes the field's default."""
    parser = argparse.ArgumentParser(
        prog="smpstop",
        description="Finite-horizon optimal stopping of semi-Markov processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--model", dest="model_path", required=True, metavar="MODEL", help="model JSON file")
    common.add_argument("--grid", dest="grid_steps", type=int, metavar="K", help="time grid steps")
    common.add_argument("--tol", type=float, help="fixed-point tolerance")
    common.add_argument("--eta", type=float, help="relative stop-payoff tolerance")
    common.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    sub.add_parser("check", parents=[common], help="validate a model and print regularity diagnostics")
    sub.add_parser("solve", parents=[common], help="solve the value function and stopping region")
    p_eps = sub.add_parser("eps", parents=[common], help="budgeted iteration and eps-stopping region")
    p_eps.add_argument("--eps", type=float, required=True, help="accuracy target")
    p_sim = sub.add_parser(
        "simulate", parents=[common], argument_default=argparse.SUPPRESS, help="Monte-Carlo cost of a stopping rule"
    )
    p_sim.add_argument("--rule", metavar="NAME", help="optimal, eps, always, or never")
    p_sim.add_argument("--paths", dest="n_paths", type=int, metavar="N")
    p_sim.add_argument("--seed", type=int, metavar="S")
    p_sim.add_argument("--x0", metavar="NAME", help="initial state (default: first)")
    p_sim.add_argument("--eps", type=float, help="accuracy target for rule 'eps'")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    problems = cfg.validate()
    if problems:
        for p in problems:
            print(p)
        return EXIT_SCHEMA
    handler = {
        "check": cmd_check,
        "solve": cmd_solve,
        "eps": cmd_eps,
        "simulate": cmd_simulate,
    }[cfg.command]
    return handler(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
