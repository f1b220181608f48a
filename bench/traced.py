"""Traced in-process run of one workload: spans around calls into each smpstop layer.

Run by ``run.py --trace 1`` as a child process with ``src`` on
``PYTHONPATH``. Its first act is to import the CLI, so ``cli.import`` is
a cold import. It then repeats rounds until ``--seconds`` have passed,
keeps every span in memory and writes them to ``--out`` as JSON at the
end. A round calls the layers that the workload's command runs, on the
workload's model and grid, then ``cli.main`` on the workload's
arguments. Between rounds it runs the command as an untraced process and
``smpstop --help`` (start-up alone), so that the tracing overhead compares
timings taken in the same state of the host. Per-path Monte-Carlo layers
are timed on every path and aggregated into one span per layer per round,
with the call count.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - T0, "end": None, "busy": None, "count": 1, "counts": {}}
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - T0
            rec["busy"] = rec["end"] - rec["start"]

    def aggregate(self, name: str, start: float, end: float, busy: float, count: int) -> None:
        """One span standing for ``count`` calls between ``start`` and ``end``, busy for ``busy`` s."""
        rec = self._open(name)
        rec.update(start=start - T0, end=end - T0, busy=busy, count=count)

    def dump(self, path: Path, **extra) -> None:
        path.write_text(json.dumps({"spans": self.spans, **extra}, indent=1) + "\n")


def _simulate(tr: Tracer, sim, model, rule, x0: str, n_paths: int, seed: int) -> list[str]:
    """``estimate_value`` once, then the same paths layer by layer."""
    clock = time.perf_counter
    with tr.span("simulate.estimate_value") as rec:
        mc = sim.estimate_value(model, rule, x0, n_paths, seed)
        rec["count"] = n_paths
    x_idx = model.states.index(x0)
    horizon = model.horizon
    busy = {"simulate.path_stream": 0.0, "simulate.sample_trajectory": 0.0,
            "simulate.execute_rule": 0.0, "simulate.trajectory_cost": 0.0}
    costs = [0.0] * n_paths
    jumps_total = jumps_max = 0
    with tr.span("simulate.paths") as rec:
        first = clock()
        for i in range(n_paths):
            t0 = clock()
            rng = sim.path_stream(seed, i)
            t1 = clock()
            traj = sim.sample_trajectory(model, x_idx, rng)
            t2 = clock()
            outcome = sim.execute_rule(rule, traj, horizon)
            t3 = clock()
            costs[i] = sim.trajectory_cost(traj, outcome, model)
            t4 = clock()
            busy["simulate.path_stream"] += t1 - t0
            busy["simulate.sample_trajectory"] += t2 - t1
            busy["simulate.execute_rule"] += t3 - t2
            busy["simulate.trajectory_cost"] += t4 - t3
            jumps = len(traj.sojourns)
            jumps_total += jumps
            jumps_max = max(jumps_max, jumps)
        last = clock()
        for name, seconds in busy.items():
            tr.aggregate(name, first, last, seconds, n_paths)
        rec["count"] = n_paths
        rec["counts"] = {"jumps_total": jumps_total, "jumps_max": jumps_max}
    import numpy as np

    arr = np.array(costs)
    mean = float(arr[0]) if float(arr.min()) == float(arr.max()) else float(arr.mean())
    if mean != mc.mean:
        return [f"traced per-path loop mean {mean!r} != estimate_value mean {mc.mean!r}"]
    return []


def _sample(tr: Tracer, model, seed: int, draws: int) -> None:
    """``SojournDist.sample`` on every edge law of the model, ``draws`` times in all."""
    import numpy as np

    laws = [d for row in model.kernel.sojourn for d in row if d is not None]
    rng = np.random.default_rng(seed)
    clock = time.perf_counter
    busy = 0.0
    first = clock()
    for i in range(draws):
        law = laws[i % len(laws)]
        t0 = clock()
        law.sample(rng)
        busy += clock() - t0
    tr.aggregate("distributions.sample", first, clock(), busy, draws)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    tr = Tracer()
    with tr.span("cli.import"):
        import smpstop.cli as cli
    import numpy as np

    from smpstop import grid as grid_mod
    from smpstop import model as model_mod
    from smpstop import simulate as sim
    from smpstop import smdp, solver

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run
    import workloads

    w = workloads.describe(args.workload, args.seed, args.work)
    problems: list[str] = []
    main_codes: list[int] = []
    processes: list[dict] = []
    started = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - started < args.seconds:
        with tr.span(f"round{rnd}"):
            with tr.span("model.load"):
                model = model_mod.load_model(w.model)
                report = model_mod.validate_model(model)
            if not report.ok:
                raise RuntimeError(f"validate_model: {report.violations}")
            with tr.span("model.contraction_factor"):
                model_mod.contraction_factor(model)
            grid = grid_mod.TimeGrid(model.horizon, w.grid)
            with tr.span("grid.discretize_kernel"):
                kg = grid_mod.discretize_kernel(model.kernel, grid)
            probe = np.ones((grid.steps + 1, len(model.states)))
            with tr.span("grid.convolve_values"):
                grid_mod.convolve_values(kg, probe)
            with tr.span("solver.apply_G"):
                solver.apply_G(solver.ValueGrid(grid, np.zeros_like(probe)), model, kg)
            csv_dir = args.work / "traced_csv"
            csv_dir.mkdir(exist_ok=True)
            if w.name == "eps":
                with tr.span("solver.eps_region") as rec:
                    result = solver.eps_region(model, grid, workloads.EPS_TARGET, eta=workloads.ETA)
                    rec["count"] = result.budget.n_iter + 1
                with tr.span("solver.stopping_region"):
                    solver.stopping_region(result.refined, model, eta=workloads.ETA)
                with tr.span("solver.write_csv") as rec:
                    solver.write_region_csv(result.region, model.states, csv_dir / "eps_region.csv")
                rec["count"] = (csv_dir / "eps_region.csv").stat().st_size
            else:
                with tr.span("solver.solve_value") as rec:
                    value, rep = solver.solve_value(model, grid, tol=workloads.TOL)
                    rec["count"] = rep.iterations + 1
                with tr.span("solver.stopping_region"):
                    region = solver.stopping_region(value, model, eta=workloads.ETA)
            if w.name == "solve":
                with tr.span("solver.cross_check"):
                    solver.cross_check(model, grid, tol=workloads.TOL)
                with tr.span("smdp.solve_smdp") as rec:
                    _, rep = smdp.solve_smdp(smdp.build_smdp(model), grid, tol=workloads.TOL)
                    rec["count"] = rep.iterations + 1
                with tr.span("solver.write_csv") as rec:
                    solver.write_value_csv(value, model.states, csv_dir / "value.csv")
                    solver.write_region_csv(region, model.states, csv_dir / "region.csv")
                rec["count"] = sum((csv_dir / name).stat().st_size for name in ("value.csv", "region.csv"))
            if w.name == "simulate":
                _sample(tr, model, args.seed, workloads.TRACE_DRAWS)
                problems += _simulate(tr, sim, model, sim.RegionRule(region), workloads.SIM_X0,
                                      workloads.SIM_PATHS, args.seed)
            out = args.work / f"traced_out{rnd}"
            with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                main_codes.append(cli.main(w.command(out)))
        base = args.work / f"untraced_out{rnd}"
        for kind, argv, out_dir in (("untraced", w.command(base), str(base)), ("startup", ["--help"], None)):
            proc = run.run_process(run.CLI + argv, args.work / f"{kind}{rnd}.log")
            processes.append({"kind": kind, "round": rnd, "out": out_dir, **proc.__dict__})
        rnd += 1
    tr.dump(args.out, problems=problems, main_codes=main_codes, processes=processes, rounds=rnd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
