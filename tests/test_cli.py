import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import smpstop.cli as cli
import smpstop.smdp
import smpstop.solver
from smpstop import (
    PointMass,
    TimeGrid,
    Uniform,
    save_model,
    solve_value,
)
from smpstop.smdp import SolveReport
from conftest import read_value_csv, single_state_model, two_state_model


@pytest.fixture
def m1_file(tmp_path):
    path = tmp_path / "m1.json"
    save_model(single_state_model(), path)
    return path


@pytest.fixture
def m2_file(tmp_path):
    path = tmp_path / "m2.json"
    save_model(two_state_model(), path)
    return path


def run(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# check


def test_check_valid_model(m1_file, capsys):
    assert run("check", "--model", str(m1_file)) == 0
    out = capsys.readouterr().out
    assert "model ok" in out
    assert "0.632121" in out  # beta of the unit-rate exponential at T = 1


def test_check_invalid_model(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"states": ["a"]}))
    assert run("check", "--model", str(path)) == 2
    assert "missing required key" in capsys.readouterr().out


def test_check_negative_rate(tmp_path, capsys):
    from smpstop import model_to_dict

    data = model_to_dict(single_state_model())
    data["sojourn"][0][0]["rate"] = -1.0
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(data))
    assert run("check", "--model", str(path)) == 2
    assert "rate must be positive" in capsys.readouterr().out


def _write_m2_with(tmp_path, edit):
    from smpstop import model_to_dict

    data = model_to_dict(two_state_model())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("y", [0, 1])
def test_solve_rejects_nan_transition(tmp_path, capsys, y):
    path = _write_m2_with(tmp_path, lambda d: d["transition"][0].__setitem__(y, math.nan))
    assert run("solve", "--model", str(path), "--grid", "64", "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().out == f"model INVALID:\n  - transition[0][{y}] = nan is not finite\n"


@pytest.mark.parametrize("key", ["cost_rate", "terminal_cost"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_non_finite_costs(tmp_path, capsys, key, bad):
    path = _write_m2_with(tmp_path, lambda d: d[key].__setitem__(1, bad))
    assert run("solve", "--model", str(path), "--grid", "64", "--out", str(tmp_path / "o")) == 2
    assert f"= {bad} is not finite" in capsys.readouterr().out


def test_solve_rejects_infinite_rate(tmp_path, capsys):
    path = _write_m2_with(tmp_path, lambda d: d["sojourn"][0][1].__setitem__("rate", math.inf))
    assert run("solve", "--model", str(path), "--grid", "64", "--out", str(tmp_path / "o")) == 2
    assert "sojourn[0][1]: rate must be finite" in capsys.readouterr().out


def _relabel(labels):
    return lambda data: data.__setitem__("states", list(labels))


COMMANDS = [("check",), ("solve",), ("eps", "--eps", "0.1"), ("simulate", "--paths", "10")]


@pytest.mark.parametrize("label", ["ca,lm", 'bu"sy', "idle\rx", "idle\nx"], ids=["comma", "quote", "cr", "lf"])
def test_labels_that_break_csv_rows_exit_2(tmp_path, capsys, label):
    path = _write_m2_with(tmp_path, _relabel([label, "b"]))
    for argv in COMMANDS:
        out = tmp_path / "o"
        assert run(*argv, "--model", str(path), "--grid", "64", "--out", str(out)) == 2, argv
        assert capsys.readouterr().out == f"model INVALID:\n  - state label {label!r} holds a comma, " \
            "double quote or line break; CSV rows cannot carry it\n"
        assert not out.exists()


def test_labels_with_format_characters_are_written_as_they_are(tmp_path):
    path = _write_m2_with(tmp_path, _relabel(["100%", "{x}"]))
    out = tmp_path / "o"
    assert run("solve", "--model", str(path), "--grid", "64", "--out", str(out)) == 0
    for name in ("value.csv", "region.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[1:3] == ["0,100%,0", "0,{x},0"]
    assert read_value_csv(out / "value.csv")[1] == ("100%", "{x}")


def one_state_with_rate(rate: bytes) -> bytes:
    return b'{"states": ["a"], "T": 1, "transition": [[1]], "sojourn": [[{"type": "exp", "rate": %s}]], ' \
        b'"cost_rate": [1], "terminal_cost": [0.5]}' % rate


MALFORMED_INPUT = {
    "null-rate": (one_state_with_rate(b"null"), "sojourn[0][0]: rate must be a number"),
    "huge-int-rate": (one_state_with_rate(b"1" + b"0" * 5000), "sojourn[0][0]: rate must be finite"),
    "not-utf-8": (b"\xff\xfe{}", "cannot read model file: 'utf-8' codec can't decode byte 0xff"),
    "deep-nesting": (b"[" * 100000 + b"]" * 100000, "invalid JSON: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("name", MALFORMED_INPUT)
def test_malformed_model_input_exits_2(tmp_path, capsys, name):
    payload, message = MALFORMED_INPUT[name]
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    assert run("check", "--model", str(path)) == 2
    assert capsys.readouterr().out.startswith(f"model INVALID:\n  - {message}")


def test_check_does_not_load_fft(m1_file):
    # numpy.fft loads on the first sweep; a model check runs none. numpy does not
    # import dataclasses, and the library's records are not dataclasses.
    code = (
        "import sys, smpstop.cli; code = smpstop.cli.main(['check', '--model', sys.argv[1]]); "
        "print('numpy.fft' in sys.modules, 'dataclasses' in sys.modules); sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(m1_file)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "False False"


def _point_mass_sojourns(data):
    data["sojourn"] = [[None, {"type": "point", "d": 0.5}], [{"type": "point", "d": 0.5}, None]]


def _largest_costs(data):
    data["cost_rate"] = data["terminal_cost"] = [1.7e308, 1.7e308]


# id: (model edit, argv, exit code, artifacts written)
ENTRY_POINT_CASES = {
    "solve": (None, ("solve",), 0, ["region.csv", "solve_report.json", "value.csv"]),
    "eps": (None, ("eps", "--eps", "0.01"), 0, ["eps_region.csv", "eps_report.json"]),
    "simulate": (None, ("simulate", "--rule", "optimal", "--paths", "200", "--x0", "b"), 0, ["mc_report.json"]),
    "solve-invalid": (lambda d: d["transition"][0].__setitem__(0, math.nan), ("solve",), 2, []),
    "simulate-overflow": (
        lambda d: d.__setitem__("cost_rate", [1e300, 1e300]), ("simulate", "--rule", "never", "--paths", "200"), 2, []
    ),
    "solve-overflow": (_largest_costs, ("solve",), 2, []),
    "eps-overflow": (_largest_costs, ("eps", "--eps", "0.01"), 2, []),
    "solve-budget": (None, ("solve", "--tol", "1e-320"), 3, ["region.csv", "solve_report.json", "value.csv"]),
    "eps-contraction": (_point_mass_sojourns, ("eps", "--eps", "0.01"), 4, []),
    "simulate-rule": (None, ("simulate", "--rule", "bogus"), 5, []),
}


@pytest.mark.parametrize("case", ENTRY_POINT_CASES)
def test_the_console_entry_point_writes_what_main_writes(m2_file, tmp_path, capsys, case):
    # run() flushes stdout and ends the process with os._exit, skipping the
    # interpreter's teardown. Stdout is a pipe here, block-buffered once
    # PYTHONUNBUFFERED is unset, so a missing flush would lose the output.
    edit, argv, expected_code, names = ENTRY_POINT_CASES[case]
    model = m2_file if edit is None else _write_m2_with(tmp_path, edit)
    argv = [*argv, "--model", str(model), "--grid", "64"]
    code = run(*argv, "--out", str(tmp_path / "main"))
    stdout = capsys.readouterr().out
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-m", "smpstop.cli", *argv, "--out", str(tmp_path / "process")],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert code == expected_code
    assert stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, "")
    for side in ("main", "process"):
        assert sorted(p.name for p in (tmp_path / side).glob("*")) == names
    for name in names:
        assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_check_zero_horizon(tmp_path, capsys):
    path = tmp_path / "t0.json"
    save_model(single_state_model(horizon=0.0), path)
    assert run("check", "--model", str(path)) == 0
    assert "beta = sup_x Q(T,E|x) = 0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# solve


def test_solve_artifacts(m1_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert run("solve", "--model", str(m1_file), "--grid", "256", "--out", str(out)) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"]
    assert report["iterations"] >= 1
    assert report["fixed_point_residual"] <= 1e-9
    assert report["cross_check_discrepancy"] <= 1e-12
    assert abs(report["boundary"]["a"] - 0.5) <= 1.0 / 256 + 1e-12
    assert (out / "value.csv").exists() and (out / "region.csv").exists()


def test_solve_round_trip_12_digits(m2_file, tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--model", str(m2_file), "--grid", "128", "--out", str(out)) == 0
    nodes, labels, values = read_value_csv(out / "value.csv")
    model = two_state_model()
    v, _ = solve_value(model, TimeGrid(1.0, 128), tol=1e-9)
    np.testing.assert_allclose(values, v.values, rtol=1e-11, atol=1e-300)
    assert labels == model.states.labels


def test_solve_runs_one_fixed_point_solve(m2_file, tmp_path, monkeypatch):
    reports = []

    def counting(*args, **kwargs):
        reports.append(SolveReport(*args, **kwargs))
        return reports[-1]

    for module in (smpstop.solver, smpstop.smdp):
        monkeypatch.setattr(module, "SolveReport", counting)
    assert run("solve", "--model", str(m2_file), "--grid", "64", "--out", str(tmp_path)) == 0
    assert len(reports) == 1
    assert json.loads((tmp_path / "solve_report.json").read_text())["cross_check_discrepancy"] == 0.0


def _shift_base_cell(out):
    out[-1, 0] += 1e-9


def _fill_rest_column(out):
    out[-1, -1] = 1e-9


@pytest.mark.parametrize("fault", [None, _shift_base_cell, _fill_rest_column], ids=["real", "base-cell", "rest-column"])
def test_solve_cross_check_sees_a_faulty_decision_process_sweep(m2_file, tmp_path, monkeypatch, fault):
    # the one-sweep check compares T([v, 0]) with [G(v), 0], rest-state column included;
    # both run smdp._sweep, so the fault goes only into the decision process's (n + 1)-wide sweeps
    if fault is not None:
        sweep = smpstop.smdp._sweep

        def faulty(model, kg, values, *rest):
            out = sweep(model, kg, values, *rest)
            if out.shape[1] == len(model.states) + 1:
                fault(out)
            return out

        monkeypatch.setattr(smpstop.smdp, "_sweep", faulty)
    assert run("solve", "--model", str(m2_file), "--grid", "64", "--out", str(tmp_path)) == 0
    discrepancy = json.loads((tmp_path / "solve_report.json").read_text())["cross_check_discrepancy"]
    if fault is None:
        assert discrepancy == 0.0
    else:
        assert discrepancy > 1e-12


@pytest.mark.parametrize(
    "argv",
    [("solve",), ("eps", "--eps", "0.01"), ("simulate", "--rule", "optimal", "--paths", "200")],
    ids=["solve", "eps", "simulate"],
)
def test_one_kernel_discretization_per_command(m2_file, tmp_path, discretizations, argv):
    assert run(*argv, "--model", str(m2_file), "--grid", "64", "--out", str(tmp_path)) == 0
    assert discretizations == [64]


def test_solve_budget_exhausted_exit_code(m1_file, tmp_path, monkeypatch, capsys):
    real = cli.solve_value

    def exhausted(model, grid, tol=1e-9, kg=None):
        v, rep = real(model, grid, tol=tol, kg=kg)
        return v, SolveReport(rep.iterations, rep.final_diff, rep.residual, False, rep.sup_diffs)

    monkeypatch.setattr(cli, "solve_value", exhausted)
    out = tmp_path / "run"
    assert run("solve", "--model", str(m1_file), "--grid", "64", "--out", str(out)) == 3
    assert (out / "value.csv").exists()
    assert "budget exhausted" in capsys.readouterr().out


def test_solve_rejects_zero_horizon(tmp_path, capsys):
    path = tmp_path / "t0.json"
    save_model(single_state_model(horizon=0.0), path)
    assert run("solve", "--model", str(path), "--out", str(tmp_path / "o")) == 2
    assert "cannot build the grid" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# eps


def test_eps_report_synthetic_budget(tmp_path, capsys):
    path = tmp_path / "syn.json"
    save_model(single_state_model(c=4.0, g=5.0, dist=Uniform(0.0, 2.0)), path)
    out = tmp_path / "run"
    assert run("eps", "--model", str(path), "--eps", "0.01", "--grid", "256", "--out", str(out)) == 0
    report = json.loads((out / "eps_report.json").read_text())
    assert report["beta"] == 0.5
    assert report["bound_M"] == 9.0
    assert report["n_iterations"] == 11
    assert report["verdict"] in ("exact", "eps-optimal")
    assert (out / "eps_region.csv").exists()


def test_eps_verdict_consistency(m1_file, tmp_path):
    out = tmp_path / "run"
    assert run("eps", "--model", str(m1_file), "--eps", "0.01", "--grid", "1024", "--out", str(out)) == 0
    report = json.loads((out / "eps_report.json").read_text())
    if report["gap_infinite"]:
        assert report["verdict"] == "exact"
    elif report["gap"] > 0.01:
        assert report["verdict"] == "exact"
    else:
        assert report["verdict"] == "eps-optimal"


def test_eps_gap_infinite_when_everything_stops(tmp_path):
    path = tmp_path / "free.json"
    save_model(single_state_model(g=0.0), path)
    out = tmp_path / "run"
    assert run("eps", "--model", str(path), "--eps", "0.5", "--grid", "64", "--out", str(out)) == 0
    report = json.loads((out / "eps_report.json").read_text())
    assert report["gap_infinite"]
    assert report["gap"] is None
    assert report["verdict"] == "exact"


def test_eps_contraction_violated(tmp_path, capsys):
    path = tmp_path / "atom.json"
    save_model(single_state_model(dist=PointMass(0.5)), path)
    assert run("eps", "--model", str(path), "--eps", "0.01", "--out", str(tmp_path / "o")) == 4
    assert "contraction hypothesis violated" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_optimal_writes_dp_delta(m1_file, tmp_path):
    out = tmp_path / "run"
    code = run(
        "simulate", "--model", str(m1_file), "--rule", "optimal",
        "--grid", "256", "--paths", "500", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "mc_report.json").read_text())
    assert report["rule"] == "optimal"
    assert report["x0"] == "a"
    assert report["mean"] == 0.5
    assert report["abs_delta_vs_dp"] <= 5e-3
    assert report["stop_index_histogram"] == {"0": 500}


def test_simulate_always_and_never(m1_file, tmp_path):
    out_a = tmp_path / "a"
    assert run("simulate", "--model", str(m1_file), "--rule", "always", "--paths", "200", "--out", str(out_a)) == 0
    always = json.loads((out_a / "mc_report.json").read_text())
    assert always["mean"] == 0.5 and always["std_err"] == 0.0

    out_n = tmp_path / "n"
    assert run("simulate", "--model", str(m1_file), "--rule", "never", "--paths", "200", "--out", str(out_n)) == 0
    never = json.loads((out_n / "mc_report.json").read_text())
    assert never["mean"] == pytest.approx(1.0, rel=1e-9)
    assert never["stopped_before_T_frac"] == 0.0


def test_simulate_eps_rule(m2_file, tmp_path):
    out = tmp_path / "run"
    code = run(
        "simulate", "--model", str(m2_file), "--rule", "eps", "--eps", "0.05",
        "--grid", "256", "--paths", "500", "--x0", "b", "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "mc_report.json").read_text())
    assert report["rule"] == "eps" and report["x0"] == "b"


def test_simulate_unknown_rule(m1_file, tmp_path, capsys):
    assert run("simulate", "--model", str(m1_file), "--rule", "sometimes", "--out", str(tmp_path)) == 5
    assert "unknown rule" in capsys.readouterr().out


def test_simulate_eps_rule_requires_eps(m1_file, tmp_path, capsys):
    assert run("simulate", "--model", str(m1_file), "--rule", "eps", "--out", str(tmp_path)) == 2
    assert "--eps is required" in capsys.readouterr().out


def test_flag_errors_come_before_the_model_is_read(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run("simulate", "--model", str(missing), "--rule", "eps", "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().out == "--eps is required for rule 'eps'\n"


def test_simulate_unknown_start_state(m1_file, tmp_path, capsys):
    assert run("simulate", "--model", str(m1_file), "--x0", "zz", "--paths", "10", "--out", str(tmp_path)) == 2
    assert "unknown state" in capsys.readouterr().out


def test_simulate_refuses_jumps_piling_up(tmp_path):
    # both sojourns last 1e-300, so a path would need ~1e300 jumps to reach T
    def atoms(data):
        data["sojourn"] = [[None, {"type": "point", "d": 1e-300}], [{"type": "point", "d": 1e-300}, None]]

    path = _write_m2_with(tmp_path, atoms)
    argv = ["simulate", "--model", str(path), "--rule", "never", "--paths", "10", "--out", str(tmp_path / "o")]
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "smpstop.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert "jumps pile up inside the horizon" in proc.stdout
    assert time.perf_counter() - started < 20.0
    assert not (tmp_path / "o" / "mc_report.json").exists()


# finite costs whose Monte-Carlo figures overflow a float: (cost_rate, terminal_cost, rule)
OVERFLOWING_COSTS = {
    "std-err": ([1e300, 1e300], [0.5, 0.5], "never"),
    "mean": ([1.7e308, 0.0], [0.5, 0.5], "never"),
    "std-err-optimal": ([1e300, 1e300], [1e308, 1e308], "optimal"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", OVERFLOWING_COSTS)
def test_simulate_costs_too_large_for_finite_figures_exit_2(tmp_path, capsys, case):
    # before the fix these wrote Infinity or NaN into mc_report.json, after numpy's overflow warnings
    rate, terminal, rule = OVERFLOWING_COSTS[case]

    def costs(data):
        data["cost_rate"], data["terminal_cost"] = rate, terminal
        data["sojourn"][0][1]["rate"], data["sojourn"][1][0]["rate"] = 1.0, 2.0

    path = _write_m2_with(tmp_path, costs)
    out = tmp_path / "o"
    assert run("simulate", "--model", str(path), "--rule", rule, "--grid", "64", "--paths", "200", "--out", str(out)) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot simulate this model: the path costs are too large")
    assert captured.err == ""
    assert not (out / "mc_report.json").exists()


def extreme_cost_model(tmp_path, rate, terminal):
    """Two swapping states, exponential one way and Weibull the other, with the given costs."""
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({
        "states": ["a", "b"], "T": 1.0, "transition": [[0.0, 1.0], [1.0, 0.0]],
        "sojourn": [[None, {"type": "exp", "rate": 2.0}], [{"type": "weibull", "shape": 1.5, "scale": 0.8}, None]],
        "cost_rate": rate, "terminal_cost": terminal,
    }))
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve",), "cannot solve this model: the values overflow a float"),
        (("eps", "--eps", "0.01"), "no iteration budget for --eps: the bound M = T * max c + max g overflows a float"),
        (("simulate", "--rule", "optimal"), "cannot solve this model: the values overflow a float"),
        (("simulate", "--rule", "eps", "--eps", "0.01"), "no iteration budget for --eps: the bound M"),
    ],
    ids=["solve", "eps", "simulate-optimal", "simulate-eps"],
)
def test_costs_too_large_for_finite_values_exit_2(tmp_path, capsys, argv, message):
    # before the fix solve wrote NaN values and residuals (exit 3), and eps ended in an OverflowError traceback
    path = extreme_cost_model(tmp_path, [1.7e308, 1.7e308], [1.7e308, 1.7e308])
    out = tmp_path / "o"
    assert run(*argv, "--model", str(path), "--grid", "64", "--out", str(out)) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
    assert captured.err == ""
    assert not out.exists()


def _finite_json(text: str) -> None:
    def constant(name):
        raise AssertionError(f"non-finite {name} in JSON")

    def walk(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, float):
            assert math.isfinite(node)

    walk(json.loads(text, parse_constant=constant))


def _finite_csv(text: str) -> None:
    for row in list(csv.reader(text.splitlines()))[1:]:
        for cell in row:
            try:
                number = float(cell)
            except ValueError:
                continue  # a state label
            assert math.isfinite(number), row


# (cost_rate, terminal_cost)
EXTREME_COSTS = {
    "rates-1e300": ([1e300, 1e300], [0.3, 1.0]),
    "rate-1.7e308": ([1.7e308, 0.0], [0.3, 1.0]),
    "all-1.7e308": ([1.7e308, 1.7e308], [1.7e308, 1.7e308]),
    # M = 1e308 is finite, but the sweeps overflow
    "all-5e307": ([5e307, 5e307], [5e307, 5e307]),
}
EXTREME_COMMANDS = {
    "check": ("check",),
    "solve": ("solve",),
    "eps": ("eps", "--eps", "0.01"),
    "simulate-optimal": ("simulate", "--rule", "optimal", "--paths", "200"),
    "simulate-never": ("simulate", "--rule", "never", "--paths", "200"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", EXTREME_COMMANDS)
@pytest.mark.parametrize("costs", EXTREME_COSTS)
def test_extreme_costs_give_no_traceback_and_finite_artifacts(tmp_path, capsys, costs, command):
    # a numpy warning is an error here, and an exception would leave main as a traceback
    path = extreme_cost_model(tmp_path, *EXTREME_COSTS[costs])
    out = tmp_path / "o"
    code = run(*EXTREME_COMMANDS[command], "--model", str(path), "--grid", "64", "--out", str(out))
    assert code in {0, 2, 3, 4, 5}
    assert capsys.readouterr().err == ""
    for artifact in out.glob("*") if out.exists() else ():
        (_finite_json if artifact.suffix == ".json" else _finite_csv)(artifact.read_text())


def test_simulate_stops_before_jumps_pile_up(tmp_path):
    # --rule always stops every path at jump 0, before any sojourn is drawn
    def atoms(data):
        data["sojourn"] = [[None, {"type": "point", "d": 1e-300}], [{"type": "point", "d": 1e-300}, None]]

    path = _write_m2_with(tmp_path, atoms)
    assert run("simulate", "--model", str(path), "--rule", "always", "--paths", "10", "--out", str(tmp_path / "o")) == 0
    report = json.loads((tmp_path / "o" / "mc_report.json").read_text())
    assert report["x0"] == "a"
    assert report["mean"] == two_state_model().costs.terminal[0]
    assert report["std_err"] == 0.0
    assert report["stop_index_histogram"] == {"0": 10}


def test_simulate_byte_identical_reruns(m2_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["simulate", "--model", str(m2_file), "--rule", "optimal", "--grid", "256",
            "--paths", "2000", "--seed", "42", "--x0", "b"]
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert (out1 / "mc_report.json").read_bytes() == (out2 / "mc_report.json").read_bytes()


# sha256 of the mc_report.json that the one-path-at-a-time simulator wrote for
# these flags; the batched engine must reproduce every byte. The optimal
# report also holds the solver's dp_value.
GOLDEN_REPORTS = [
    ("optimal", (), 7, "b76d77de9392c5d201e6fcf25ae20a298579cf68b07f54898adfdf4c9138da75"),
    ("eps", ("--eps", "0.01"), 8, "6adf5ba220927f52d61e03808086b8f384cea24b379b77cc8d7e227eab16d418"),
    ("always", (), 9, "8e84af02a8adbf389f0538f256cf083c626e3ce9d8a8e3303a4f294e25fe36de"),
    ("never", (), 10, "71c3cd2c2dd589483f8520656f1c936e52cd9e2488af4ac9725f4e0ec30a5fbe"),
]


@pytest.mark.parametrize("rule, extra, seed, digest", GOLDEN_REPORTS, ids=[g[0] for g in GOLDEN_REPORTS])
def test_simulate_reports_match_recorded_hashes(m2_file, tmp_path, rule, extra, seed, digest):
    args = ["simulate", "--model", str(m2_file), "--rule", rule, "--grid", "256", "--paths", "3000",
            "--seed", str(seed), "--x0", "b", "--out", str(tmp_path), *extra]
    assert run(*args) == 0
    assert hashlib.sha256((tmp_path / "mc_report.json").read_bytes()).hexdigest() == digest


# sha256 of the solve and eps artifacts for these flags. Identical flags
# must give identical bytes; a solver change that moves one must say why.
GOLDEN_ARTIFACTS = [
    ("solve", "m2", ("--grid", "128"), {
        "value.csv": "1e4ec892e5c7b84b559333ad5548f1c5f1db80dc269ade1a14d64e53374fe98e",
        "region.csv": "d83f9501e8f4a810ee4f651fd2d4c874ed59765149065c3448066159cc1054f1",
        "solve_report.json": "cbdb03450d58146b7de0c21061628ddc849754ba83a870af56dae0f32fb1e5d3",
    }),
    ("eps", "m1", ("--grid", "256", "--eps", "0.01"), {
        "eps_region.csv": "9252658a559e86c013f2b3810f6e67d1fa3985b8d1453e044c01f9be0a9dd2b4",
        "eps_report.json": "5d966f23cd31bd18fd889692b920f351b35b2439b12eac2ffa3badb66f374230",
    }),
]


@pytest.mark.parametrize("command, model, extra, digests", GOLDEN_ARTIFACTS, ids=[g[0] for g in GOLDEN_ARTIFACTS])
def test_solve_and_eps_artifacts_match_recorded_hashes(m1_file, m2_file, tmp_path, command, model, extra, digests):
    path = {"m1": m1_file, "m2": m2_file}[model]
    assert run(command, "--model", str(path), "--out", str(tmp_path), *extra) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "argv",
    [("solve",), ("eps", "--eps", "0.1"), ("simulate", "--paths", "10")],
    ids=lambda a: a[0],
)
@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
def test_unusable_out_exits_2(m1_file, tmp_path, capsys, argv, under_file):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker / "sub" if under_file else blocker
    assert run(*argv, "--model", str(m1_file), "--grid", "64", "--out", str(out)) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write to --out: ") and str(out) in lines[0]
    assert blocker.read_text() == "keep\n"


# ---------------------------------------------------------------------------
# config validation


# 5e-324 * (1 - beta) rounds to zero at beta = 0.8647, so log(eps (1 - beta)) has no value
@pytest.mark.parametrize(
    "argv",
    [("eps", "--eps"), ("simulate", "--paths", "10", "--rule", "eps", "--eps")],
    ids=["eps", "simulate-eps"],
)
def test_flag_whose_budget_underflows_exits_2(m2_file, tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(*argv, "5e-324", "--model", str(m2_file), "--grid", "64", "--out", str(out)) == 2
    expected = f"no iteration budget for {argv[-1]}: 5e-324 * (1 - beta) underflows to zero"
    assert capsys.readouterr().out.startswith(expected)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, checks",
    [(("solve",), 3, 1), (("simulate", "--paths", "10"), 0, 0)],
    ids=["solve", "simulate-optimal"],
)
def test_tol_below_round_off_stops_after_steps_plus_two_sweeps(m2_file, tmp_path, monkeypatch, argv, code, checks):
    # FFT round-off keeps each step near 1e-17, so no sweep reaches --tol 1e-320; the grid
    # bounds the solve at 64 + 2 sweeps (plus the residual's), where log(1/tol) gave 50 910.
    # solve's cross-check reads G(v) from the residual's sweep instead of sweeping again;
    # its one sweep of T (operator_discrepancy) runs through the same function, so it counts too
    sweeps = []
    sweep = smpstop.smdp._sweep
    monkeypatch.setattr(smpstop.smdp, "_sweep", lambda *a: sweeps.append(1) or sweep(*a))
    out = tmp_path / "o"
    assert run(*argv, "--tol", "1e-320", "--model", str(m2_file), "--grid", "64", "--out", str(out)) == code
    assert len(sweeps) == 64 + 2 + 1 + checks
    if argv[0] == "solve":
        report = json.loads((out / "solve_report.json").read_text())
        assert report["iterations"] == 66 and not report["converged"]
        assert report["fixed_point_residual"] <= 1e-15


@pytest.mark.parametrize("argv", [("check",), ("solve",), ("eps", "--eps", "0.5"), ("simulate",)], ids=lambda a: a[0])
def test_parse_defaults_are_run_config_defaults(argv):
    cfg = cli.config_from_args(cli.build_parser().parse_args([*argv, "--model", "m.json"]))
    eps = 0.5 if argv[0] == "eps" else None
    assert cfg == cli.RunConfig(model_path="m.json", command=argv[0], eps=eps)


def test_config_rejects_bad_numbers(m1_file, capsys):
    assert run("solve", "--model", str(m1_file), "--grid", "0") == 2
    assert run("solve", "--model", str(m1_file), "--tol", "0") == 2
    assert run("simulate", "--model", str(m1_file), "--paths", "1") == 2
    assert run("eps", "--model", str(m1_file), "--eps", "-1") == 2


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_config_rejects_non_finite_tol(m1_file, tmp_path, capsys, value):
    assert run("solve", "--model", str(m1_file), "--tol", value, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().out == "--tol must be positive and finite\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_config_rejects_non_finite_eps(m1_file, tmp_path, capsys, value):
    assert run("eps", "--model", str(m1_file), "--eps", value, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().out == "--eps must be positive and finite\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-0.001"])
def test_config_rejects_bad_eta(m1_file, tmp_path, capsys, value):
    assert run("solve", "--model", str(m1_file), "--eta", value, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().out == "--eta must be nonnegative and finite\n"
    assert not (tmp_path / "o").exists()
    assert run("solve", "--model", str(m1_file), "--eta", "0", "--grid", "64", "--out", str(tmp_path / "o")) == 0
