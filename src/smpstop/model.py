"""Finite-state semi-Markov process models: states, kernel, costs, horizon.

The kernel is factored into a jump chain P(y|x) and per-edge sojourn laws
F(t|x,y), encoding Q(t, B|x) = sum_{y in B} P(y|x) F(t|x,y). Model types
accept whatever they are given; semantic problems are collected by
``validate_model`` into a report instead of raising, so malformed inputs
can be inspected and listed.

No type here is changed after construction, its arrays are read-only,
and every operation here is pure, so models can be shared freely across
workers.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .distributions import SojournDist, dist_from_dict, dist_to_dict

__all__ = [
    "ROW_SUM_TOL",
    "ModelFormatError",
    "StateSpace",
    "SemiMarkovKernel",
    "CostModel",
    "SMPModel",
    "ValidationReport",
    "RegularityCheck",
    "validate_model",
    "kernel_mass",
    "sup_kernel_mass",
    "check_regularity",
    "contraction_factor",
    "model_from_dict",
    "model_to_dict",
    "load_model",
    "save_model",
]

ROW_SUM_TOL = 1e-12
# the CSV artifacts write labels unquoted, so these would split or break a row
_CSV_BREAKING = ',"\r\n'


class ModelFormatError(ValueError):
    """A model file violates the schema; carries the list of violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class StateSpace:
    """Ordered, unique state labels with a label -> index map."""

    def __init__(self, labels: tuple[str, ...]):
        labels = tuple(str(s) for s in labels)
        if not labels:
            raise ValueError("state space must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        self.labels = labels
        self._index = {s: i for i, s in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown state {label!r}") from None


class SemiMarkovKernel:
    """Jump-chain matrix plus one sojourn law per positive-probability edge.

    ``sojourn[x][y]`` may be None wherever ``transition[x, y] == 0``.
    """

    def __init__(self, transition: np.ndarray, sojourn: tuple[tuple[SojournDist | None, ...], ...]):
        P = np.array(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        P.flags.writeable = False
        rows = tuple(tuple(row) for row in sojourn)
        if len(rows) != P.shape[0] or any(len(r) != P.shape[0] for r in rows):
            raise ValueError("sojourn table shape must match the transition matrix")
        self.transition = P
        self.sojourn = rows

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Row-wise cumulative sums of the transition matrix, inf from each row's last positive column on.

        A draw at or above a row's sum, which may fall short of 1, picks that column.
        """
        last = self.n_states - 1 - np.argmax(self.transition[:, ::-1] > 0, axis=1)
        cumulative = np.where(np.arange(self.n_states) < last[:, None], np.cumsum(self.transition, axis=1), np.inf)
        cumulative.flags.writeable = False
        return cumulative


class CostModel:
    """Per-state running cost rate and terminal cost."""

    def __init__(self, rate: np.ndarray, terminal: np.ndarray):
        for name, values in (("rate", rate), ("terminal", terminal)):
            arr = np.atleast_1d(np.array(values, dtype=float))
            arr.flags.writeable = False
            setattr(self, name, arr)


class SMPModel:
    """A finite semi-Markov process with costs and a planning horizon."""

    def __init__(self, states: StateSpace, kernel: SemiMarkovKernel, costs: CostModel, horizon: float):
        self.states = states
        self.kernel = kernel
        self.costs = costs
        self.horizon = float(horizon)


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class RegularityCheck(NamedTuple):
    """Result of the uniform jump-probability bound: sup_x Q(delta, E|x) <= 1 - eps."""

    ok: bool
    sup_mass: float


def validate_model(model: SMPModel) -> ValidationReport:
    """Collect every invariant violation of a model into a report.

    An empty report means: state labels free of commas, double quotes and
    line breaks, a square row-stochastic jump matrix of finite entries
    (rows sum to 1 within ROW_SUM_TOL), a sojourn law on every positive
    edge, finite nonnegative costs, and a nonnegative finite horizon.
    """
    bad: list[str] = []
    for label in model.states.labels:
        if any(ch in label for ch in _CSV_BREAKING):
            bad.append(f"state label {label!r} holds a comma, double quote or line break; CSV rows cannot carry it")
    n = len(model.states)
    P = model.kernel.transition
    if model.kernel.n_states != n:
        bad.append(f"transition matrix is {P.shape[0]}x{P.shape[1]} for {n} states")
        return ValidationReport(tuple(bad))
    for x in range(n):
        for y in range(n):
            if not np.isfinite(P[x, y]):
                bad.append(f"transition[{x}][{y}] = {P[x, y]:.12g} is not finite")
            elif P[x, y] < 0:
                bad.append(f"transition[{x}][{y}] = {P[x, y]:.12g} is negative")
        row_sum = float(P[x].sum())
        if abs(row_sum - 1.0) > ROW_SUM_TOL:
            bad.append(f"transition row {x} sums to {row_sum:.12g}")
        for y in range(n):
            if P[x, y] > 0 and model.kernel.sojourn[x][y] is None:
                bad.append(f"sojourn[{x}][{y}] missing for a positive transition probability")
    for name, arr in (("cost rate c", model.costs.rate), ("terminal cost g", model.costs.terminal)):
        if arr.shape != (n,):
            bad.append(f"{name} has length {arr.shape[0]}, expected {n}")
            continue
        for x, value in enumerate(arr):
            if not np.isfinite(value):
                bad.append(f"{name}({model.states.labels[x]}) = {value:.12g} is not finite")
            elif value < 0:
                bad.append(f"{name}({model.states.labels[x]}) = {value:.12g} is negative")
    if not (np.isfinite(model.horizon) and model.horizon >= 0):
        bad.append(f"horizon T = {model.horizon!r} must be nonnegative and finite")
    return ValidationReport(tuple(bad))


def kernel_mass(kernel: SemiMarkovKernel, x: int, t: float) -> float:
    """Total jump probability Q(t, E|x) = sum_y P(y|x) F(t|x,y), clipped into [0, 1]."""
    row = kernel.transition[x]
    total = 0.0
    for y in range(kernel.n_states):
        if row[y] > 0.0:
            total += row[y] * float(kernel.sojourn[x][y].cdf(t))
    return min(max(total, 0.0), 1.0)


def sup_kernel_mass(kernel: SemiMarkovKernel, t: float) -> float:
    """sup_x Q(t, E|x), the largest jump probability within [0, t] over source states."""
    return max(kernel_mass(kernel, x, t) for x in range(kernel.n_states))


def check_regularity(model: SMPModel, delta: float, eps: float) -> RegularityCheck:
    """Check sup_x Q(delta, E|x) <= 1 - eps, the bound that keeps jump counts finite."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    sup = sup_kernel_mass(model.kernel, delta)
    return RegularityCheck(ok=sup <= 1.0 - eps, sup_mass=sup)


def contraction_factor(model: SMPModel) -> float:
    """beta = sup_x Q(T, E|x); values below 1 give a geometric iteration budget."""
    return sup_kernel_mass(model.kernel, model.horizon)


# ---------------------------------------------------------------------------
# JSON model files


def model_to_dict(model: SMPModel) -> dict:
    n = len(model.states)
    sojourn = [
        [
            dist_to_dict(model.kernel.sojourn[x][y]) if model.kernel.sojourn[x][y] is not None else None
            for y in range(n)
        ]
        for x in range(n)
    ]
    return {
        "states": list(model.states.labels),
        "T": model.horizon,
        "transition": model.kernel.transition.tolist(),
        "sojourn": sojourn,
        "cost_rate": model.costs.rate.tolist(),
        "terminal_cost": model.costs.terminal.tolist(),
    }


def _require_numbers(raw, length, what, bad):
    if not isinstance(raw, list) or len(raw) != length or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw
    ):
        bad.append(f"'{what}' must be a list of {length} numbers")
        return None
    return [float(v) for v in raw]


def model_from_dict(data) -> SMPModel:
    """Build a model from the JSON schema, raising ModelFormatError on violations.

    The sojourn table must be non-null exactly where the transition
    probability is positive. Semantic checks beyond the schema (row sums,
    cost signs) are left to ``validate_model``.
    """
    bad: list[str] = []
    if not isinstance(data, dict):
        raise ModelFormatError(["model file must contain a JSON object"])
    for key in ("states", "T", "transition", "sojourn", "cost_rate", "terminal_cost"):
        if key not in data:
            bad.append(f"missing required key '{key}'")
    if bad:
        raise ModelFormatError(bad)

    raw_states = data["states"]
    if not isinstance(raw_states, list) or not raw_states or not all(isinstance(s, str) for s in raw_states):
        bad.append("'states' must be a non-empty list of strings")
        raise ModelFormatError(bad)
    if len(set(raw_states)) != len(raw_states):
        bad.append("'states' must be unique")
        raise ModelFormatError(bad)
    n = len(raw_states)

    if not isinstance(data["T"], (int, float)) or isinstance(data["T"], bool):
        bad.append("'T' must be a number")

    transition = data["transition"]
    P = np.zeros((n, n))
    # rows whose numbers were read; the sojourn table is paired only with these
    row_read = [False] * n
    if isinstance(transition, list) and len(transition) == n:
        for x, raw_row in enumerate(transition):
            row = _require_numbers(raw_row, n, f"transition[{x}]", bad)
            if row is not None:
                P[x] = row
                row_read[x] = True
    else:
        bad.append(f"'transition' must be a {n}x{n} matrix")

    sojourn_rows: list[list[SojournDist | None]] = [[None] * n for _ in range(n)]
    raw_sojourn = data["sojourn"]
    if isinstance(raw_sojourn, list) and len(raw_sojourn) == n and all(
        isinstance(r, list) and len(r) == n for r in raw_sojourn
    ):
        for x in range(n):
            for y in range(n):
                if not np.isfinite(P[x, y]):
                    continue  # validate_model reports the entry itself
                cell = raw_sojourn[x][y]
                present = P[x, y] > 0
                if cell is None:
                    if present:
                        bad.append(f"sojourn[{x}][{y}] is null but transition[{x}][{y}] > 0")
                    continue
                if not present and row_read[x]:
                    bad.append(f"sojourn[{x}][{y}] must be null where transition[{x}][{y}] = 0")
                    continue
                try:
                    sojourn_rows[x][y] = dist_from_dict(cell)
                except ValueError as err:
                    bad.append(f"sojourn[{x}][{y}]: {err}")
    else:
        bad.append(f"'sojourn' must be a {n}x{n} table of distributions or nulls")

    rate = _require_numbers(data["cost_rate"], n, "cost_rate", bad)
    terminal = _require_numbers(data["terminal_cost"], n, "terminal_cost", bad)
    if bad:
        raise ModelFormatError(bad)

    return SMPModel(
        states=StateSpace(tuple(raw_states)),
        kernel=SemiMarkovKernel(P, tuple(tuple(r) for r in sojourn_rows)),
        costs=CostModel(np.array(rate), np.array(terminal)),
        horizon=float(data["T"]),
    )


def load_model(path) -> SMPModel:
    """Read a model JSON file; raises ModelFormatError on any schema violation."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ModelFormatError([f"cannot read model file: {err}"]) from None
    try:
        # every schema number is a float, so integers parse as floats: a huge
        # one reads as inf, which validation reports, instead of overflowing
        data = json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ModelFormatError([f"invalid JSON: {err}"]) from None
    return model_from_dict(data)


def save_model(model: SMPModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")
