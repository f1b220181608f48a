#!/usr/bin/env python3
"""Benchmark of ``smpstop solve``, ``eps`` and ``simulate``, end to end and layer by layer.

    python3 bench/run.py --workload solve|eps|simulate --seed N --seconds S --trace 0|1

Run from the repository root (the program is taken from ``src``). The run
generates the workload's model files from the seed and byte-compiles
``src``. With ``--trace 0`` it then alternates one ``smpstop check``
process on the workload's model and one process of the workload's CLI
command, one single-threaded process at a time, until ``S`` seconds have
passed. It reports the lower quartile of the ``check`` wall times
(``setup_s``), the lower quartile of the command's wall times (``run_s``)
and the median peak resident memory of the command (``peak_rss_mb``).
With ``--trace 1`` it runs ``traced.py`` in a child process for ``S``
seconds and reports the per-layer metrics from its spans. Either way
every artifact is checked against ``reference.py`` and compared byte for
byte across repeats. The last line of standard output is the JSON result;
the trace file and all generated files go under ``bench/work``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI = [sys.executable, "-m", "smpstop.cli"]
# A process still running after this many seconds is killed and counts as
# failed, so a run ends in time even if the program hangs.
PROCESS_LIMIT_S = 100.0


@dataclass(frozen=True)
class Proc:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_process(argv: list[str], log: Path, limit_s: float = PROCESS_LIMIT_S) -> Proc:
    """Run one process to its end; wall time, user+sys time and peak RSS from its rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(limit_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(argv, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def median(values) -> float:
    return float(statistics.median(values))


def lower_quartile(values: list[float]) -> float:
    """First quartile of a timing sample, never below its smallest value.

    The host's speed switches between a fast and a slow state for seconds
    to minutes at a time, so one process's wall time varies by up to 1.8x
    and a median over one run flips between the two states. The lower
    quartile follows the fast state.
    """
    return float(statistics.quantiles(values, n=4, method="inclusive")[0]) if len(values) > 1 else float(values[0])


def identical(first: Path, other: Path, names: tuple[str, ...]) -> list[str]:
    """Artifacts of a repeat must be byte-identical to those of the first process."""
    return [f"{name}: differs between repeats" for name in names if (first / name).read_bytes() != (other / name).read_bytes()]


class Run:
    """Counts of program invocations and the correctness problems found."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.procs: list[Proc] = []

    def cli(self, args: list[str], log: str) -> Proc:
        proc = run_process(CLI + args, self.work / log)
        self.attempted += 1
        self.procs.append(proc)
        if proc.code != 0:
            self.failed += 1
            tail = (self.work / log).read_text(errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"exit {proc.code} from {' '.join(args[:1])}: {tail}")
        return proc


def check_artifacts(w: workloads.Workload, run: Run, out: Path) -> list[str]:
    """Checks against the reference; they load numpy and scipy, so they run after all timing."""
    import checks

    model = json.loads(w.model.read_text())
    if w.name == "solve":
        bad = checks.check_solve(model, out, w.grid, workloads.TOL, workloads.ETA)
        closed = run.work / "closed_form"
        proc = run.cli(["solve", "--model", str(w.closed_form), "--grid", str(workloads.CLOSED_FORM_GRID),
                        "--out", str(closed)], "closed_form.log")
        if proc.code == 0:
            bad += checks.check_closed_form(closed, workloads.CLOSED_FORM_GRID)
        return bad
    if w.name == "eps":
        return checks.check_eps(model, out, w.grid, workloads.EPS_TARGET, workloads.ETA)
    return checks.check_simulate(model, out, w.grid, workloads.SIM_PATHS, w.seed, workloads.SIM_X0)


def timed_commands(w: workloads.Workload, run: Run, seconds: float) -> tuple[list[Proc], list[Proc], Path | None]:
    """Alternate ``smpstop check`` and the workload's command until ``seconds`` pass.

    Both kinds of process see the same states of the host. Returns the
    successful ``check`` and command processes and the output directory of
    the first command.
    """
    setups: list[Proc] = []
    done: list[Proc] = []
    first: Path | None = None
    start = time.perf_counter()
    attempts = 0
    while attempts == 0 or time.perf_counter() - start < seconds:
        setup = run.cli(["check", "--model", str(w.model)], f"check{attempts}.log")
        if setup.code == 0:
            setups.append(setup)
        out = run.work / f"run{attempts}"
        proc = run.cli(w.command(out), f"run{attempts}.log")
        attempts += 1
        if proc.code == 0:
            if first is None:
                first = out
            else:
                run.problems += identical(first, out, w.artifacts)
                shutil.rmtree(out)
            done.append(proc)
    if first is None:
        run.problems.append("no run of the workload's command succeeded")
    return setups, done, first


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics: medians over the traced rounds of each layer's span.

    A layer that the workload's command does not run has no span; its
    metrics read 0.
    """
    by_name: dict[str, list[dict]] = {}
    for rec in trace["spans"]:
        by_name.setdefault(rec["name"], []).append(rec)

    def over_rounds(name, value):
        return median(value(r) for r in by_name[name]) if name in by_name else 0.0

    def busy(name):
        return over_rounds(name, lambda r: r["busy"])

    def per_call_us(name):
        return over_rounds(name, lambda r: 1e6 * r["busy"] / r["count"])

    def count(name):
        return over_rounds(name, lambda r: r["count"])

    procs = trace["processes"]
    untraced = [p for p in procs if p["kind"] == "untraced"]
    startup = {p["round"]: p["wall_s"] for p in procs if p["kind"] == "startup"}
    mains = [r["busy"] for r in by_name["cli.main"]]
    paths = by_name.get("simulate.paths", [])
    values = {
        "cli.import_s": (busy("cli.import"), "s"),
        "cli.main_s": (busy("cli.main"), "s"),
        "cli.cpu_s": (median(p["cpu_s"] for p in untraced), "s"),
        "model.load_s": (busy("model.load"), "s"),
        "model.contraction_factor_s": (busy("model.contraction_factor"), "s"),
        "distributions.sample_us": (per_call_us("distributions.sample"), "us"),
        "grid.discretize_kernel_s": (busy("grid.discretize_kernel"), "s"),
        "grid.convolve_values_s": (busy("grid.convolve_values"), "s"),
        "solver.apply_G_s": (busy("solver.apply_G"), "s"),
        "solver.solve_value_s": (busy("solver.solve_value"), "s"),
        "solver.solve_value_sweeps": (count("solver.solve_value"), "count"),
        "solver.cross_check_s": (busy("solver.cross_check"), "s"),
        "solver.stopping_region_s": (busy("solver.stopping_region"), "s"),
        "solver.eps_region_s": (busy("solver.eps_region"), "s"),
        "solver.eps_sweeps": (count("solver.eps_region"), "count"),
        "solver.write_csv_s": (busy("solver.write_csv"), "s"),
        "solver.csv_bytes": (count("solver.write_csv"), "bytes"),
        "smdp.solve_smdp_s": (busy("smdp.solve_smdp"), "s"),
        "smdp.solve_smdp_sweeps": (count("smdp.solve_smdp"), "count"),
        "simulate.estimate_value_s": (busy("simulate.estimate_value"), "s"),
        "simulate.paths_per_s": (over_rounds("simulate.estimate_value", lambda r: r["count"] / r["busy"]), "1/s"),
        "simulate.path_stream_us": (per_call_us("simulate.path_stream"), "us"),
        "simulate.sample_trajectory_us": (per_call_us("simulate.sample_trajectory"), "us"),
        "simulate.execute_rule_us": (per_call_us("simulate.execute_rule"), "us"),
        "simulate.trajectory_cost_us": (per_call_us("simulate.trajectory_cost"), "us"),
        "simulate.jumps_mean": (median(r["counts"]["jumps_total"] / r["count"] for r in paths) if paths else 0.0, "count"),
        "simulate.jumps_max": (max(r["counts"]["jumps_max"] for r in paths) if paths else 0, "count"),
        # Traced cli.main against the untraced process of the same round,
        # less that round's start-up (interpreter, imports, argument parser).
        "trace.overhead_ratio": (median(main / (p["wall_s"] - startup[p["round"]])
                                        for main, p in zip(mains, untraced)), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced(w: workloads.Workload, run: Run, seconds: float) -> dict:
    trace_file = run.work / "trace.json"
    child = run_process([sys.executable, str(HERE / "traced.py"), "--workload", w.name, "--seed", str(w.seed),
                         "--seconds", str(seconds), "--work", str(run.work), "--out", str(trace_file)],
                        run.work / "traced.log", seconds + PROCESS_LIMIT_S)
    if child.code != 0 or not trace_file.is_file():
        raise RuntimeError(f"traced run failed with exit {child.code}; see {run.work / 'traced.log'}")
    trace = json.loads(trace_file.read_text())
    run.problems += trace["problems"]
    invocations = [(f"cli.main of round {r}", code) for r, code in enumerate(trace["main_codes"])]
    invocations += [(f"the {p['kind']} process of round {p['round']}", p["code"]) for p in trace["processes"]]
    run.attempted += len(invocations)
    run.failed += sum(code != 0 for _, code in invocations)
    run.problems += [f"exit {code} from {what}" for what, code in invocations if code != 0]
    # The first untraced process's artifacts are checked against the
    # reference; every other output must be byte-identical to them.
    outputs = [Path(p["out"]) for p in trace["processes"] if p["out"] is not None and p["code"] == 0]
    outputs += [run.work / f"traced_out{r}" for r, code in enumerate(trace["main_codes"]) if code == 0]
    if outputs:
        run.problems += check_artifacts(w, run, outputs[0])
        for other in outputs[1:]:
            run.problems += identical(outputs[0], other, w.artifacts)
    else:
        run.problems.append("no run of the workload's command succeeded")
    metrics = layer_metrics(trace)
    trace.update(
        workload=w.name,
        seed=w.seed,
        processes=trace["processes"] + [p.__dict__ for p in run.procs + [child]],
        metrics=metrics,
    )
    trace_file.write_text(json.dumps(trace, indent=1) + "\n")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    # One BLAS/OpenMP thread in this process (it imports numpy for the
    # checks) and in every child, which inherits the environment.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[name] = "1"
    if not (SRC / "smpstop" / "cli.py").is_file():
        print(f"error: the program is missing: {SRC / 'smpstop' / 'cli.py'} not found", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = workloads.describe(args.workload, args.seed, work)
    gen = run_process([sys.executable, str(HERE / "workloads.py"), "--workload", w.name, "--seed", str(w.seed),
                       "--work", str(work)], work / "models.log")
    if gen.code != 0:
        print(f"error: model generation failed; see {work / 'models.log'}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    run = Run(work)
    setup = run.cli(["check", "--model", str(w.model)], "check.log")
    if setup.code != 0:
        print(f"error: smpstop check exited {setup.code}; see {work / 'check.log'}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = traced(w, run, args.seconds)
    else:
        setups, done, first = timed_commands(w, run, args.seconds)
        if first is not None:
            run.problems += check_artifacts(w, run, first)
        metrics = {
            "setup_s": {"value": lower_quartile([setup.wall_s] + [p.wall_s for p in setups]), "unit": "s"},
            "run_s": {"value": lower_quartile([p.wall_s for p in done]) if done else float("nan"), "unit": "s"},
            "peak_rss_mb": {"value": median(p.rss_mb for p in done) if done else float("nan"), "unit": "MB"},
        }
        (work / "run.json").write_text(json.dumps({"processes": [p.__dict__ for p in run.procs], "problems": run.problems,
                                                    "metrics": metrics}, indent=1) + "\n")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{w.name} seed {w.seed}: {run.attempted} invocations in {time.perf_counter() - start:.1f} s, "
          f"{len(run.problems)} check failures")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
