"""Correctness checks on the CLI's artifacts, against ``reference.Reference``.

Each check returns a list of failure messages; an empty list is a pass.
None of them compares with a stored copy of an earlier output: they test
the artifacts against the reference recursion and the method's
properties.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from reference import Reference

# %.12g keeps 12 significant digits: a relative rounding error of 5e-12.
CSV_REL = 5e-12
# Band around a stop threshold within which rounding may move a node
# across it; membership of such nodes is not judged.
AMBIGUOUS = 1e-9


def read_table(path: Path, labels: list[str], nodes: np.ndarray, column: str) -> tuple[np.ndarray, list[str]]:
    """Parse an (s, state, <column>) CSV into a (K+1, n) array, checking its layout."""
    bad: list[str] = []
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != f"s,state,{column}":
        return np.zeros(0), [f"{path.name}: header is not 's,state,{column}'"]
    rows = [line.split(",") for line in lines[1:]]
    n = len(labels)
    if len(rows) != len(nodes) * n or any(len(r) != 3 for r in rows):
        return np.zeros(0), [f"{path.name}: {len(rows)} rows, expected {len(nodes) * n}"]
    s = np.array([float(r[0]) for r in rows]).reshape(len(nodes), n)
    if [r[1] for r in rows] != labels * len(nodes):
        bad.append(f"{path.name}: state column is not the labels in order at every node")
    if np.abs(s - nodes[:, None]).max() > 1e-11 * max(1.0, nodes[-1]):
        bad.append(f"{path.name}: the s column is not the grid nodes")
    return np.array([float(r[2]) for r in rows]).reshape(len(nodes), n), bad


def region_from(values: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    member = values >= threshold[None, :]
    member[0, :] = False
    return member


def compare_regions(got: np.ndarray, want: np.ndarray, values: np.ndarray, threshold: np.ndarray, what: str) -> list[str]:
    """Regions must agree at every node whose value is clear of the threshold."""
    clear = np.abs(values - threshold[None, :]) > AMBIGUOUS * (1.0 + np.abs(threshold[None, :]))
    wrong = (got != want) & clear
    if wrong.any():
        k, x = np.argwhere(wrong)[0]
        return [f"{what}: {int(wrong.sum())} nodes differ, first at node {k} state {x}"]
    return []


def check_solve(model: dict, out: Path, steps: int, tol: float, eta: float) -> list[str]:
    ref = Reference(model, steps)
    labels = list(model["states"])
    values, bad = read_table(out / "value.csv", labels, ref.nodes, "value")
    member, bad_r = read_table(out / "region.csv", labels, ref.nodes, "stop")
    bad += bad_r
    if bad:
        return bad
    scale = float(np.abs(values).max())
    rounding = 2 * CSV_REL * scale + 1e-13 * (1.0 + scale)
    residual = float(np.abs(ref.sweep(values) - values).max())
    if residual > tol + rounding:
        bad.append(f"value.csv: one reference sweep moves it by {residual:.3g} > tol {tol:g} + rounding {rounding:.3g}")
    cap = np.minimum(ref.g[None, :], ref.nodes[:, None] * ref.c.max())
    if values.min() < 0.0 or (values - cap).max() > CSV_REL * scale:
        bad.append("value.csv: value leaves [0, min(g, s max c)]")
    if (values[0] != 0.0).any():
        bad.append("value.csv: value at zero remaining horizon is not 0")
    if not np.isin(member, (0.0, 1.0)).all():
        bad.append("region.csv: stop column is not 0/1")
    threshold = ref.threshold(eta)
    want = region_from(values, threshold)
    bad += compare_regions(member == 1.0, want, values, threshold, "region.csv vs {V >= g - eta(1+g)}")
    report = json.loads((out / "solve_report.json").read_text())
    if not report["converged"] or report["fixed_point_residual"] > tol:
        bad.append(f"solve_report.json: not converged to tol (residual {report['fixed_point_residual']})")
    if report["grid_steps"] != steps or report["iterations"] < 1:
        bad.append("solve_report.json: grid_steps or iterations wrong")
    if not report["cross_check_discrepancy"] <= 1e-12:
        bad.append(f"solve_report.json: cross-check discrepancy {report['cross_check_discrepancy']}")
    for x, label in enumerate(labels):
        hits = np.flatnonzero(member[:, x] == 1.0)
        upset = hits.size > 0 and (member[hits[0]:, x] == 1.0).all()
        got = report["boundary"][label]
        if upset != (got is not None) or (upset and abs(got - ref.nodes[hits[0]]) > 1e-9):
            bad.append(f"solve_report.json: boundary of {label} is {got}, region says otherwise")
    return bad


def check_closed_form(out: Path, steps: int) -> list[str]:
    """Single-state model: the value is min(s, 0.5) up to the grid's first-order error."""
    nodes = (1.0 / steps) * np.arange(steps + 1)
    nodes[-1] = 1.0
    values, bad = read_table(out / "value.csv", ["a"], nodes, "value")
    if bad:
        return bad
    err = float(np.abs(values[:, 0] - np.minimum(nodes, 0.5)).max())
    return [] if err <= 5e-3 else [f"closed form: max |V - min(s, 0.5)| = {err:.3g} > 5e-3"]


def check_eps(model: dict, out: Path, steps: int, eps: float, eta: float) -> list[str]:
    ref = Reference(model, steps)
    labels = list(model["states"])
    member, bad = read_table(out / "eps_region.csv", labels, ref.nodes, "stop")
    if bad:
        return bad
    member = member == 1.0
    report = json.loads((out / "eps_report.json").read_text())
    beta, bound = ref.beta(), ref.bound()
    if abs(report["beta"] - beta) > 1e-12 or abs(report["bound_M"] - bound) > 1e-12 * (1.0 + bound):
        bad.append(f"eps_report.json: beta {report['beta']} / M {report['bound_M']} vs reference {beta} / {bound}")
    n_iter = report["n_iterations"]
    if n_iter not in ref.budgets(eps):
        bad.append(f"eps_report.json: n_iterations {n_iter} vs reference budget {sorted(ref.budgets(eps))}")
    threshold = ref.threshold(eta)
    refined = ref.iterate(n_iter + 1)
    bad += compare_regions(member, region_from(refined, threshold), refined, threshold, f"eps_region.csv vs {n_iter + 1} reference sweeps")
    outside = ~member
    outside[0, :] = False
    if outside.any():
        gap = float((ref.g[None, :] - refined)[outside].min())
        if report["gap_infinite"] or abs(report["gap"] - gap) > 1e-9:
            bad.append(f"eps_report.json: gap {report['gap']} vs reference {gap:.12g}")
    elif not report["gap_infinite"] or report["gap"] is not None:
        bad.append("eps_report.json: nothing lies outside the region but the gap is finite")
    exact = report["gap_infinite"] or report["gap"] > eps
    if report["verdict"] != ("exact" if exact else "eps-optimal"):
        bad.append(f"eps_report.json: verdict {report['verdict']} does not follow from gap and eps")
    # Iterates rise from below to the fixed point, so the eps-region lies
    # inside the optimal region, and is all of it when the verdict is exact.
    optimal = ref.fixed_point()
    clear = np.abs(optimal - threshold[None, :]) > AMBIGUOUS * (1.0 + np.abs(threshold[None, :]))
    opt_member = region_from(optimal, threshold)
    if (member & ~opt_member & clear).any():
        bad.append("eps_region.csv: not a subset of the optimal region of the reference fixed point")
    if exact and (opt_member & ~member & clear).any():
        bad.append("eps_region.csv: verdict exact but the region misses optimal nodes")
    return bad


def check_simulate(model: dict, out: Path, steps: int, n_paths: int, seed: int, x0: str) -> list[str]:
    ref = Reference(model, steps)
    report = json.loads((out / "mc_report.json").read_text())
    bad: list[str] = []
    if (report["n_paths"], report["seed"], report["rule"], report["x0"]) != (n_paths, seed, "optimal", x0):
        bad.append("mc_report.json: n_paths, seed, rule or x0 differ from the flags")
    if sum(report["stop_index_histogram"].values()) != n_paths:
        bad.append("mc_report.json: stop histogram does not count every path")
    mean, se = report["mean"], report["std_err"]
    if not (se > 0 and abs(report["ci95"][0] - (mean - 1.96 * se)) < 1e-12 and abs(report["ci95"][1] - (mean + 1.96 * se)) < 1e-12):
        bad.append("mc_report.json: ci95 is not mean -+ 1.96 SE")
    dp = float(ref.fixed_point()[-1, model["states"].index(x0)])
    if abs(report["dp_value"] - dp) > 1e-7:
        bad.append(f"mc_report.json: dp_value {report['dp_value']} vs reference {dp:.12g}")
    if abs(report["abs_delta_vs_dp"] - abs(mean - report["dp_value"])) > 1e-15:
        bad.append("mc_report.json: abs_delta_vs_dp is not |mean - dp_value|")
    if abs(mean - dp) > 3 * se + 1e-2:
        bad.append(f"mc_report.json: |MC - DP| = {abs(mean - dp):.4g} > 3 SE + 1e-2 = {3 * se + 1e-2:.4g}")
    return bad
