"""tsdyn benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of the repository::

    python3 bench/run.py --workload {example5,wide8,simulate-long} \\
        --seed N --seconds S --trace {0,1}

The runner makes the workload's inputs from the seed, times ``SETUP_PROBES``
fresh interpreters that import tsdyn and load the config, then runs the
workload in one child process for about ``--seconds`` seconds of passes.
It prints a summary line (machine, versions, sizes, per-pass times, checks)
and, as the last line, the result object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import wide8

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench-out"

WORKLOADS = ("example5", "wide8", "simulate-long")
SETUP_PROBES = 9
# Whole run, set-up probes included; the workload child gets what is left.
RUN_TIMEOUT_S = 170.0
# simulate-long: the bundled scenario over [0, T_END], about 1e5 RK4 steps
# per integrator at the bundled step 1e-3.
SIMULATE_T_END = 120.0


def _inputs(workload: str, seed: int, scratch: Path) -> dict:
    """The workload's inputs, a function of the seed alone."""
    if workload == "wide8":
        path = scratch / "wide8.json"
        path.write_text(json.dumps(wide8.scenario(seed)))
        return {"config": str(path), "overrides": [], "seed": seed}
    if workload == "simulate-long":
        rng = random.Random(seed)
        initial = [rng.uniform(-1.0, 1.0) for _ in range(2)]
        overrides = [f"windows.t_end={SIMULATE_T_END!r}", f"windows.initial={json.dumps(initial)}"]
        return {"config": "", "overrides": overrides, "seed": seed}
    return {"config": "", "overrides": [], "seed": seed}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one thread per process: a BLAS pool must not compete for the cores
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _setup_seconds(spec: dict, env: dict, timeout: float) -> float:
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), spec["config"], json.dumps(spec["overrides"])],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _declared(kind: str) -> dict:
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tsdyn benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "tsdyn" / "__init__.py").is_file():
        print(f"bench: no tsdyn package under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    load_before = os.getloadavg()
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        spec = _inputs(args.workload, args.seed, scratch)
        env = _child_env()
        # the first probe compiles and caches bytecode; it is not counted
        setup = [_setup_seconds(spec, env, 60.0) for _ in range(SETUP_PROBES + 1)][1:]
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        child = subprocess.run(
            [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spec", json.dumps(spec), "--out", str(scratch / "passes"),
             "--spans", str(SCRATCH / f"trace-{args.workload}.csv")],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr)
        return 1
    report = json.loads(child.stdout.strip().splitlines()[-1])

    attempted, failed = report["attempted"], report["failed"]
    # with no successful pass, the time to failure stands in for wall_s
    walls = report["walls_s"] or report["failed_walls_s"]
    problems = report.get("coverage_problems", [])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": "closed loop, one caller, one process, one thread per BLAS pool",
        "fail_rate": failed / attempted,
        "walls_s": report["walls_s"],
        "traced_walls_s": report["traced_walls_s"],
        "setup_s": setup,
        "peak_rss_mb": report["peak_rss_mb"],
        "reference_setup_s": report["reference_setup_s"],
        "checks": report["checks"],
        "checks_run": report["checks_run"],
        "failures": report["failures"],
        "coverage_problems": problems,
        "inputs": report["info"],
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "load_before": load_before,
            "load_after": os.getloadavg(),
        },
        "versions": report["versions"],
    }
    for key in ("rebound", "missing", "spans"):
        if key in report:
            summary[key] = report[key]
    print(json.dumps({"summary": summary}))

    if args.trace:
        traced = statistics.median(report["traced_walls_s"] or walls)
        declared = _declared("per_layer")
        layers = report["layers"] or dict.fromkeys(
            (n for n in declared if "." in n and n.split(".")[0] not in ("check", "trace")), 0.0)
        values = {**layers, **report["checks"],
                  "trace.wall_s": traced,
                  "trace.overhead_s": traced - statistics.median(walls)}
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": report["peak_rss_mb"]}
        declared = _declared("end_to_end")
    if set(values) != set(declared):
        print(f"bench: metrics {sorted(set(values) ^ set(declared))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
