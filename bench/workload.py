"""Run one benchmark workload in this process and print its measurements.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; one process runs one
workload, so its peak resident set belongs to that workload.  Each pass is a
closed loop: the next pass starts when the previous one ends.  A pass is
timed from the first call into tsdyn to its last output; the correctness
checks of a pass run after the clock stops.  With ``--trace 1`` untraced and
traced passes alternate, so the tracing overhead is measured in the same
process.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tsdyn
from tsdyn import analysis, cli, impulsive
from tsdyn.dynamic import TimeScaleSolution
from tsdyn.impulsive import BoundedSolutionEvaluator, StabilityCert
from tsdyn.timescale import INTERIOR, LEFT_ENDPOINT

import tracing


class CheckFailed(Exception):
    """A pass produced output that fails a correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_json(path: Path):
    return json.loads(path.read_text())


def _lifted_solution(ts, path: Path) -> TimeScaleSolution:
    """A CSV written by ``write_solution_csv`` as a solution on the scale."""
    t, y, branch = cli.read_solution_csv(path)
    interior = np.array([b == "interior" for b in branch])
    endpoint_values = {}
    for ti, yi in zip(t[~interior], y[~interior]):
        k, code = ts.locate(float(ti))
        _require(code == LEFT_ENDPOINT, f"endpoint row at t={ti} is not a left endpoint")
        endpoint_values[k - 1] = yi
    return TimeScaleSolution(ts=ts, t=t[interior], y=y[interior],
                             endpoint_values=endpoint_values, provenance="lifted")


def _check_returns(path: Path) -> dict:
    entries = _read_json(path)["entries"]
    _require(len(entries) > 0, "return-time set is empty")
    defects = [e["defect"] for e in entries]
    zetas = [e["zeta"] for e in entries]
    _require(all(b < a for a, b in zip(defects, defects[1:])),
             f"return defects not strictly decreasing: {defects}")
    _require(all(b > a for a, b in zip(zetas, zetas[1:])),
             f"return shifts not strictly increasing: {zetas}")
    return {"zetas": zetas, "defects": defects}


class Example5:
    """The bundled scenario through ``cli.run("example")``: check, bounded,
    decompose, returns and verify, with a fresh config every pass."""

    # Return shifts mined from the bundled orbit over window [0, 20].
    RETURN_SHIFTS = [1503, 9390, 12919]
    # Criterion-5 threshold for value() against the deep-past RK4 oracle.
    ORACLE_LIMIT = 1e-6
    ORACLE_STEP = 2e-3
    ORACLE_POINTS = 5

    def __init__(self, spec: dict) -> None:
        self.path = cli.bundled_example_path()
        cfg = cli.load_config(self.path)
        model, ts = cfg.model, cfg.ts
        cert = impulsive.certify(model)
        horizon = BoundedSolutionEvaluator(model, cert, cfg.tolerances["eval_tol"]).horizon
        grid = analysis.compact_grid(ts, cfg.windows["t0"], cfg.windows["t_end"],
                                     cfg.tolerances["grid_step"])
        interior = [t for t in grid if ts.locate(t)[1] == INTERIOR]
        picks = np.linspace(0, len(interior) - 1, self.ORACLE_POINTS + 2)[1:-1]
        self.oracle_t = [interior[int(round(i))] for i in picks]
        # One RK4 run from horizon below the first point, chained through
        # the later ones: each point sees at least the evaluator's horizon.
        s_points = [ts.psi(t) for t in self.oracle_t]
        x = np.zeros(model.dimension)
        s = s_points[0] - horizon
        self.oracle = []
        for target in s_points:
            x = impulsive.integrate(model, x, s, target, self.ORACLE_STEP).x[-1]
            self.oracle.append(x)
            s = target
        self.info = {
            "config": "bundled example5.json",
            "horizon_gaps": horizon / ts.stride,
            "grid_points": len(grid),
            "oracle_t": self.oracle_t,
            "oracle_step": self.ORACLE_STEP,
        }

    def run_pass(self, out: Path):
        cfg = cli.load_config(self.path)
        return cli.run("example", cfg, out)

    def check(self, status, out: Path) -> dict:
        _require(status == cli.EXIT_OK, f"example exited with {status}")
        verify = _read_json(out / "verify.json")
        _require(verify["mpps"]["passed"], "mpps verdict failed")
        returns = _check_returns(out / "returns.json")
        _require(returns["zetas"] == self.RETURN_SHIFTS,
                 f"return shifts {returns['zetas']} != {self.RETURN_SHIFTS}")
        t, y, branch = cli.read_solution_csv(out / "bounded.csv")
        rows = {float(ti): yi for ti, yi, b in zip(t, y, branch) if b == "interior"}
        err = max(float(np.linalg.norm(rows[t_o] - x_o))
                  for t_o, x_o in zip(self.oracle_t, self.oracle))
        _require(err <= self.ORACLE_LIMIT, f"oracle disagreement {err:.3e}")
        bound = verify["bound"]["metrics"]
        return {
            "check.oracle_err": err,
            "check.recurrence_final_sup": verify["poisson"]["metrics"]["final_sup_difference"],
            "check.bound_margin": bound["bound"] - bound["max_solution_norm"],
        }


class Wide8:
    """The seeded 8-dimensional scenario through the ``check``, ``bounded``
    and ``returns`` subcommands: a deep certificate grid, few expensive
    evaluator calls and a million-shift return scan, with no RK4."""

    SUBCOMMANDS = ("check", "bounded", "returns")

    def __init__(self, spec: dict) -> None:
        self.path = spec["config"]
        cfg = cli.load_config(self.path)
        model, ts = cfg.model, cfg.ts
        self.ts = ts
        self.sup_f = model.forcing.sup_norm(ts)
        seq = model.sequence
        self.sup_seq = seq.sup_norm(seq.min_index(), seq.min_index()).ceiling
        self.info = {
            "seed": spec["seed"],
            "eval_tol": cfg.tolerances["eval_tol"],
            "grid_step": cfg.tolerances["grid_step"],
            "window": [cfg.windows["t0"], cfg.windows["t_end"]],
            "zeta_max": cfg.windows["zeta_max"],
            "return_window": cfg.windows["return_window"],
        }
        # A seed that trips a library error is never redrawn: the record
        # says so and every pass then fails with the same error.
        try:
            self.info["spectral_radius"] = impulsive.check_contractive_period(model).value
            cert = impulsive.certify(model)
            horizon = BoundedSolutionEvaluator(model, cert, cfg.tolerances["eval_tol"]).horizon
        except Exception as exc:
            self.info["reference_error"] = f"{type(exc).__name__}: {exc}"
            return
        self.info.update({
            "cert_prefactor": cert.prefactor,
            "cert_decay_rate": cert.decay_rate,
            "horizon": horizon,
            "horizon_gaps": horizon / ts.stride,
        })

    def run_pass(self, out: Path):
        cfg = cli.load_config(self.path)
        return [cli.run(sub, cfg, out) for sub in self.SUBCOMMANDS]

    def check(self, statuses, out: Path) -> dict:
        _require(statuses == [cli.EXIT_OK] * 3, f"subcommands exited with {statuses}")
        checked = _read_json(out / "check.json")
        _require(checked["A1"]["passed"] and checked["A2"]["passed"], "assumption failed")
        cert = StabilityCert(**checked["certificate"])
        lifted = _lifted_solution(self.ts, out / "bounded.csv")
        report = analysis.verify_bound(lifted, cert, self.sup_f, self.sup_seq)
        _require(report.passed, f"bound check failed: {report.metrics}")
        _check_returns(out / "returns.json")
        return {"check.bound_margin": report.metrics["bound"] - report.metrics["max_solution_norm"]}


class SimulateLong:
    """The bundled scenario through ``cli.run("simulate")`` over a long
    window, then ``impulsive.integrate`` over the psi image of the window:
    almost all RK4 and a large CSV, with no certificate or evaluator."""

    # Agreement of the two integrators through psi: same steps, same
    # arithmetic up to the order of additions.
    CONJUGACY_LIMIT = 1e-9

    def __init__(self, spec: dict) -> None:
        self.path = cli.bundled_example_path()
        self.overrides = spec["overrides"]
        cfg = cli.load_config(self.path, self.overrides)
        self.ts = cfg.ts
        self.info = {"overrides": self.overrides, "rk_step": cfg.tolerances["rk_step"]}

    def run_pass(self, out: Path):
        cfg = cli.load_config(self.path, self.overrides)
        status = cli.run("simulate", cfg, out)
        ts, windows = cfg.ts, cfg.windows
        trajectory = impulsive.integrate(
            cfg.model, np.asarray(windows["initial"], dtype=float),
            ts.psi(windows["t0"]), ts.psi(windows["t_end"]), cfg.tolerances["rk_step"],
        )
        return status, trajectory

    def check(self, result, out: Path) -> dict:
        status, trajectory = result
        _require(status == cli.EXIT_OK, f"simulate exited with {status}")
        simulated = _lifted_solution(self.ts, out / "trajectory.csv")
        _require(simulated.t.size == trajectory.s.size,
                 f"{simulated.t.size} simulated samples vs {trajectory.s.size} integrated")
        err = float(np.max(np.linalg.norm(simulated.y - trajectory.x, axis=1)))
        _require(len(simulated.endpoint_values) == len(trajectory.jumps),
                 "simulated and integrated jump counts differ")
        for jump in trajectory.jumps:
            after = simulated.endpoint_values[jump.index]
            err = max(err, float(np.linalg.norm(after - jump.after)))
        _require(err <= self.CONJUGACY_LIMIT, f"conjugacy error {err:.3e}")
        return {"check.conjugacy_err": err}


WORKLOADS = {"example5": Example5, "wide8": Wide8, "simulate-long": SimulateLong}
CHECK_METRICS = ("check.oracle_err", "check.conjugacy_err",
                 "check.recurrence_final_sup", "check.bound_margin")


def _median_metrics(per_pass: list[dict]) -> dict:
    keys = per_pass[0].keys() if per_pass else ()
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}


def _one_pass(workload, out: Path, tracer=None):
    """Run and check one pass, traced when a tracer is given.

    Returns (wall seconds, check metrics or None, error or None, layer
    metrics or None); the checks run after the clock and the tracer stop.
    """
    gc.collect()
    if tracer is not None:
        tracer.begin_pass()
    start = time.perf_counter()
    try:
        result, error = workload.run_pass(out), None
    except Exception:
        result, error = None, traceback.format_exc(limit=4)
    wall = time.perf_counter() - start
    layer = tracer.end_pass() if tracer is not None else None
    try:
        if error is None:
            return wall, workload.check(result, out), None, layer
    except Exception:
        error = traceback.format_exc(limit=4)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return wall, None, error, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", required=True, help="workload inputs as JSON")
    parser.add_argument("--out", required=True, help="scratch directory for pass outputs")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)
    out_root = Path(args.out)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup_start = time.perf_counter()
    workload = WORKLOADS[args.workload](json.loads(args.spec))
    reference_s = time.perf_counter() - setup_start

    walls = {False: [], True: []}
    failed_walls: list[float] = []
    failures: list[str] = []
    checks: list[dict] = []
    layers: list[dict] = []
    calls: dict[str, int] = {}
    attempted = 0
    # A traced run alternates untraced and traced passes and needs one of
    # each, unless passes fail.
    while (sum(failed_walls) + sum(walls[False]) + sum(walls[True]) < args.seconds
           or (tracer is not None and not failures and not (walls[False] and walls[True]))):
        traced = tracer is not None and attempted % 2 == 1
        wall, checked, error, layer = _one_pass(
            workload, out_root / f"pass{attempted}", tracer if traced else None)
        attempted += 1
        if error is not None:
            failures.append(error)
            failed_walls.append(wall)
            continue
        walls[traced].append(wall)
        checks.append(checked)
        if traced:
            layers.append(layer["metrics"])
            for name, count in layer["calls"].items():
                calls[name] = calls.get(name, 0) + count

    report = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "walls_s": walls[False],
        "traced_walls_s": walls[True],
        "failed_walls_s": failed_walls,
        "reference_setup_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": {**dict.fromkeys(CHECK_METRICS, 0.0), **_median_metrics(checks)},
        "checks_run": sorted(checks[0]) if checks else [],
        "info": workload.info,
        "versions": {"tsdyn": tsdyn.__version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    if tracer is not None:
        report["layers"] = _median_metrics(layers)
        report["coverage_problems"] = tracing.coverage_problems(
            args.workload, calls, tracer.missing)
        report["rebound"] = tracer.rebound
        report["missing"] = tracer.missing
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
