"""Seeded model files and CLI arguments for the three benchmark workloads.

Every model is drawn from ``numpy.random.default_rng([seed, tag])`` and
written as JSON; the program under test only ever sees these files.
``python3 bench/workloads.py --workload W --seed S --work DIR`` writes
them. ``describe`` needs only the standard library, so the process that
times the CLI never loads numpy: a child's peak RSS counts the memory of
the process that forked it.

Jump probabilities are multiples of 1/64, so every row of the jump matrix
sums to exactly 1 in floating point, and the contraction factor of a row
whose edges all reach CDF 1 is exactly 1.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

NAMES = ("solve", "eps", "simulate")

# Fixed flags of the timed command, per workload.
SOLVE_GRID = 1536
EPS_GRID = 1536
EPS_TARGET = 1e-4
SIM_GRID = 256
SIM_PATHS = 30_000
SIM_X0 = "calm"
TOL = 1e-9
ETA = 1e-6
CLOSED_FORM_GRID = 1024
# Traced run of ``simulate``: sojourn draws timed per round.
TRACE_DRAWS = 20_000


@dataclass(frozen=True)
class Workload:
    """One workload: its model files and the CLI command it times.

    ``command(out)`` is the timed CLI invocation writing into ``out``;
    ``artifacts`` are the files it must write. ``closed_form`` is a
    model the checks solve once per run (``solve`` only).
    """

    name: str
    seed: int
    model: Path
    argv: tuple[str, ...]
    artifacts: tuple[str, ...]
    grid: int
    closed_form: Path | None = None

    def command(self, out: Path) -> list[str]:
        return [self.name, "--model", str(self.model), *self.argv, "--out", str(out)]


def _rng(seed: int, tag: int):
    import numpy as np

    return np.random.default_rng([seed, tag])


def _jitter(rng, value: float, spread: float = 0.05) -> float:
    return float(value * rng.uniform(1.0 - spread, 1.0 + spread))


def _row(rng, n: int, total: int) -> list[int]:
    """n integers summing to ``total``: an even split with n random unit moves.

    Seeds move probability around without changing how concentrated the
    rows are, so the work of a solve does not depend on the seed.
    """
    counts = [total // n + (x < total % n) for x in range(n)]
    for _ in range(n):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if counts[i] > 2:
            counts[i] -= 1
            counts[j] += 1
    return counts


def _fast_law(rng, exponential: bool) -> dict:
    """Sojourn law with mean near 1/60 whose CDF is exactly 1.0 at T = 1.

    Rates of at least 57 leave an exponential tail exp(-57) below 2**-54;
    the Weibull laws have (1/scale)**shape > 1000.
    """
    if exponential:
        return {"type": "exp", "rate": _jitter(rng, 60.0)}
    return {"type": "weibull", "shape": _jitter(rng, 3.0), "scale": _jitter(rng, 0.08)}


def solve_model(seed: int) -> dict:
    """Dense 8-state kernel, all 64 edges fast: beta = 1 and many jumps per horizon.

    Exponential and Weibull edges alternate. Half of the states (chosen by
    the seed) are cheap to run and dear to stop in, the other half the
    reverse, so about a third of the grid is in the stopping region and
    value iteration takes 31-35 sweeps on every seed.
    """
    rng = _rng(seed, 1)
    n = 8
    P = [[c / 64.0 for c in _row(rng, n, 64)] for _ in range(n)]
    sojourn = [[_fast_law(rng, (x + y) % 2 == 0) for y in range(n)] for x in range(n)]
    dear = rng.permutation(n) < n // 2
    return {
        "states": [f"s{i}" for i in range(n)],
        "T": 1.0,
        "transition": P,
        "sojourn": sojourn,
        "cost_rate": [_jitter(rng, 2.0 if d else 0.3, 0.1) for d in dear],
        "terminal_cost": [_jitter(rng, 0.4 if d else 1.2, 0.1) for d in dear],
    }


def closed_form_model() -> dict:
    """Unit-rate exponential self-loop, c = 1, g = 0.5, T = 1: value min(s, 0.5)."""
    return {
        "states": ["a"],
        "T": 1.0,
        "transition": [[1.0]],
        "sojourn": [[{"type": "exp", "rate": 1.0}]],
        "cost_rate": [1.0],
        "terminal_cost": [0.5],
    }


def eps_model(seed: int) -> dict:
    """6 states; every state sends 6/64 of its jumps to an atom past the horizon.

    The other edges are fast, so beta = 58/64 ~ 0.906 exactly and the
    budget at eps = 1e-4 asks for well over 100 sweeps.
    """
    rng = _rng(seed, 2)
    n = 6
    P = [[0.0] * n for _ in range(n)]
    sojourn: list[list] = [[None] * n for _ in range(n)]
    for x in range(n):
        far = int(rng.integers(0, n))
        others = [y for y in range(n) if y != far]
        for y, c in zip(others, _row(rng, n - 1, 58)):
            P[x][y] = c / 64.0
        P[x][far] = 6 / 64.0
        sojourn[x][far] = {"type": "point", "d": float(rng.uniform(1.2, 2.0))}
        for y in others:
            sojourn[x][y] = _fast_law(rng, (x + y) % 2 == 0)
    return {
        "states": [f"e{i}" for i in range(n)],
        "T": 1.0,
        "transition": P,
        "sojourn": sojourn,
        "cost_rate": [_jitter(rng, 1.2, 0.5) for _ in range(n)],
        "terminal_cost": [_jitter(rng, 0.5, 0.6) for _ in range(n)],
    }


def simulate_model(seed: int) -> dict:
    """3 states with long-tailed jump counts; the rule fires only in the costly state.

    State ``calm`` (the start) is cheap to run and dear to stop in;
    ``busy`` is dear to run and cheap to stop in, so paths that reach it
    early stop there and the others run out the horizon. Weibull shapes
    below 1 put mass on very short sojourns, which gives bursts of jumps.
    Seeds jitter every parameter by a few percent, which keeps the number
    of jumps per path, and so the work per path, the same on every seed.
    """
    rng = _rng(seed, 3)
    a = 24 + int(rng.integers(-1, 2))
    b = 40 + int(rng.integers(-1, 2))
    j = lambda v: _jitter(rng, v, 0.03)  # noqa: E731
    return {
        "states": ["calm", "busy", "idle"],
        "T": 1.0,
        "transition": [
            [0.0, a / 64.0, (64 - a) / 64.0],
            [b / 64.0, 0.0, (64 - b) / 64.0],
            [0.5, 0.5, 0.0],
        ],
        "sojourn": [
            [None, {"type": "weibull", "shape": j(0.7), "scale": j(0.3)}, {"type": "exp", "rate": j(4.0)}],
            [{"type": "exp", "rate": j(5.0)}, None, {"type": "weibull", "shape": j(0.7), "scale": j(0.2)}],
            [{"type": "uniform", "a": 0.05, "b": j(0.4)}, {"type": "exp", "rate": j(6.0)}, None],
        ],
        "cost_rate": [j(0.2), j(3.0), j(0.6)],
        "terminal_cost": [j(1.75), j(0.4), j(1.0)],
    }


def describe(name: str, seed: int, work: Path) -> Workload:
    """The workload's commands, reading model files under ``work`` (see ``write_models``)."""
    if name == "solve":
        return Workload(
            name=name,
            seed=seed,
            model=work / "solve_model.json",
            argv=("--grid", str(SOLVE_GRID), "--tol", repr(TOL), "--eta", repr(ETA)),
            artifacts=("value.csv", "region.csv", "solve_report.json"),
            grid=SOLVE_GRID,
            closed_form=work / "closed_form_model.json",
        )
    if name == "eps":
        return Workload(
            name=name,
            seed=seed,
            model=work / "eps_model.json",
            argv=("--grid", str(EPS_GRID), "--eps", repr(EPS_TARGET), "--eta", repr(ETA)),
            artifacts=("eps_region.csv", "eps_report.json"),
            grid=EPS_GRID,
        )
    if name == "simulate":
        return Workload(
            name=name,
            seed=seed,
            model=work / "simulate_model.json",
            argv=(
                "--grid", str(SIM_GRID), "--tol", repr(TOL), "--eta", repr(ETA),
                "--rule", "optimal", "--paths", str(SIM_PATHS), "--seed", str(seed), "--x0", SIM_X0,
            ),
            artifacts=("mc_report.json",),
            grid=SIM_GRID,
        )
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")


def write_models(w: Workload) -> None:
    """Generate the workload's model files from its seed."""
    w.model.parent.mkdir(parents=True, exist_ok=True)
    data = {"solve": solve_model, "eps": eps_model, "simulate": simulate_model}[w.name](w.seed)
    w.model.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    if w.closed_form is not None:
        w.closed_form.write_text(json.dumps(closed_form_model(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write a workload's model files.")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    write_models(describe(args.workload, args.seed, args.work))
