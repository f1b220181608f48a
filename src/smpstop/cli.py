"""Command line front end: validate models, solve stopping problems, simulate rules.

Exit codes: 0 success, 2 schema or validation failure (also a simulated
path whose jumps pile up inside the horizon before the rule stops it, an
--eps too small for any iteration budget, and an --out that cannot be
written), 3 fixed point not reached to --tol within the grid's steps + 2
sweeps, 4 contraction hypothesis violated, 5 unknown simulation rule.
Commands raise ``CommandError``; ``main`` alone prints its lines and
returns its code, and ``run``, the console entry point, exits with it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .grid import TimeGrid, discretize_kernel
from .model import (
    ModelFormatError,
    SMPModel,
    contraction_factor,
    load_model,
    sup_kernel_mass,
    validate_model,
)
from .simulate import AlwaysStop, JumpLimitError, NeverStop, RegionRule, estimate_value
from .solver import (
    ContractionError,
    eps_region,
    exactness_gap,
    operator_discrepancy,
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
        if self.rule == "eps" and self.eps is None:
            bad.append("--eps is required for rule 'eps'")
        return bad


class CommandError(Exception):
    """A command's failure: the exit code ``main`` returns and the lines it prints."""

    def __init__(self, code: int, *lines: str):
        super().__init__(*lines)
        self.code = code
        self.lines = lines


def _load(cfg: RunConfig) -> SMPModel:
    try:
        model = load_model(cfg.model_path)
    except ModelFormatError as err:
        violations = err.violations
    else:
        violations = validate_model(model).violations
    if violations:
        raise CommandError(EXIT_SCHEMA, "model INVALID:", *(f"  - {v}" for v in violations))
    return model


def _grid(cfg: RunConfig, model: SMPModel) -> TimeGrid:
    try:
        return TimeGrid(model.horizon, cfg.grid_steps)
    except ValueError as err:
        raise CommandError(EXIT_SCHEMA, f"cannot build the grid: {err}") from None


def _eps_region(cfg: RunConfig, model: SMPModel, grid: TimeGrid, instead: str):
    """The eps-stopping region; ``instead`` names what to use when beta = 1."""
    try:
        return eps_region(model, grid, cfg.eps, eta=cfg.eta)
    except ContractionError as err:
        message = f"contraction hypothesis violated; use {instead} instead ({err})"
        raise CommandError(EXIT_CONTRACTION, message) from None
    except ValueError as err:
        raise CommandError(EXIT_SCHEMA, f"no iteration budget for --eps: {err}") from None


def _write(cfg: RunConfig, artifacts: dict) -> None:
    """Create --out and write each artifact: a dict as JSON, a callable is called with its path."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, artifact in artifacts.items():
            if isinstance(artifact, dict):
                (out / name).write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
            else:
                artifact(out / name)
    except OSError as err:
        raise CommandError(EXIT_SCHEMA, f"cannot write to --out: {err}") from None


def cmd_check(cfg: RunConfig) -> int:
    model = _load(cfg)
    horizon = model.horizon
    print(f"model ok: {len(model.states)} states, horizon T = {horizon:g}")
    print(f"{'delta':>12}  {'sup_x Q(delta,E|x)':>20}")
    for frac in (16, 8, 4, 2):
        delta = horizon / frac
        print(f"{delta:>12.6g}  {sup_kernel_mass(model.kernel, delta):>20.6g}")
    beta = contraction_factor(model)
    note = "geometric iteration budget available" if beta < 1 else "no geometric budget"
    print(f"beta = sup_x Q(T,E|x) = {beta:.6g}  ({note})")
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    model = _load(cfg)
    grid = _grid(cfg, model)
    kg = discretize_kernel(model.kernel, grid)
    v, report = solve_value(model, grid, tol=cfg.tol, kg=kg)
    discrepancy = operator_discrepancy(v, model, kg, report.next_values)
    region = stopping_region(v, model, eta=cfg.eta)
    _write(cfg, {
        "value.csv": lambda path: write_value_csv(v, model.states, path),
        "region.csv": lambda path: write_region_csv(region, model.states, path),
        "solve_report.json": {
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
    })
    print(
        f"solved in {report.iterations} iterations, residual {report.residual:.3g}, "
        f"cross-check {discrepancy:.3g}"
    )
    if not report.converged:
        raise CommandError(EXIT_BUDGET, "iteration budget exhausted before reaching tol; results written anyway")
    return EXIT_OK


def cmd_eps(cfg: RunConfig) -> int:
    model = _load(cfg)
    grid = _grid(cfg, model)
    result = _eps_region(cfg, model, grid, "the solve command")
    gap = exactness_gap(model, result.region, result.refined)
    verdict = "exact" if gap > cfg.eps else "eps-optimal"
    _write(cfg, {
        "eps_region.csv": lambda path: write_region_csv(result.region, model.states, path),
        "eps_report.json": {
            "eps": cfg.eps,
            "beta": result.budget.beta,
            "bound_M": result.budget.bound,
            "n_iterations": result.budget.n_iter,
            "gap": None if gap == math.inf else gap,
            "gap_infinite": gap == math.inf,
            "verdict": verdict,
            "grid_steps": grid.steps,
            "eta": cfg.eta,
        },
    })
    gap_text = "inf" if gap == math.inf else f"{gap:.6g}"
    print(
        f"beta = {result.budget.beta:.6g}, M = {result.budget.bound:.6g}, "
        f"N = {result.budget.n_iter}, gap = {gap_text}: {verdict}"
    )
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.rule not in RULE_NAMES:
        raise CommandError(EXIT_RULE, f"unknown rule '{cfg.rule}'; choose one of {', '.join(RULE_NAMES)}")
    model = _load(cfg)
    x0 = cfg.x0 if cfg.x0 is not None else model.states.labels[0]
    if x0 not in model.states.labels:
        raise CommandError(EXIT_SCHEMA, f"unknown state {x0!r}")
    dp_value = None
    if cfg.rule == "optimal":
        v, _ = solve_value(model, _grid(cfg, model), tol=cfg.tol)
        rule = RegionRule(stopping_region(v, model, eta=cfg.eta))
        dp_value = float(v.values[-1, model.states.index(x0)])
    elif cfg.rule == "eps":
        rule = RegionRule(_eps_region(cfg, model, _grid(cfg, model), "rule 'optimal'").region)
    else:
        rule = AlwaysStop() if cfg.rule == "always" else NeverStop()
    try:
        report = estimate_value(model, rule, x0, cfg.n_paths, cfg.seed)
    except JumpLimitError as err:
        raise CommandError(EXIT_SCHEMA, f"cannot simulate this model: {err}") from None
    payload = {**report.to_json_dict(), "rule": cfg.rule, "x0": x0}
    if dp_value is not None:
        payload["dp_value"] = dp_value
        payload["abs_delta_vs_dp"] = abs(report.mean - dp_value)
    _write(cfg, {"mc_report.json": payload})
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
    cfg = config_from_args(build_parser().parse_args(argv))
    commands = {"check": cmd_check, "solve": cmd_solve, "eps": cmd_eps, "simulate": cmd_simulate}
    try:
        problems = cfg.validate()
        if problems:
            raise CommandError(EXIT_SCHEMA, *problems)
        return commands[cfg.command](cfg)
    except CommandError as err:
        print(*err.lines, sep="\n")
        return err.code


def run() -> None:
    """Console entry point: exit with the code of ``main``.

    ``main`` writes and closes every file it makes. At exit the
    interpreter runs full garbage collections over every tracked object,
    about 22 000 once numpy is loaded and 4-7 ms each, but it skips frozen
    objects, so the heap is frozen first. ``main`` itself stays free of
    that, for callers that go on running.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
