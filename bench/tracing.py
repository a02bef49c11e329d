"""Outside-in tracing of tsdyn for the benchmark's traced run.

The tracer replaces public entry points of each tsdyn module (module
functions and class methods) with wrappers that record one span per call:
name, start, end and the index of the enclosing span.  Every other binding
of the same function object inside the package (``from .x import f``) is
rebound to the wrapper too, so calls made through a by-name import are not
lost.  Spans stay in memory; :meth:`Tracer.end_pass` turns the spans of
one pass into the per-layer metrics, and :meth:`Tracer.write_spans` writes
them out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time

import numpy as np

from tsdyn import analysis, cli, dynamic, forcing, impulsive, matrixkit, timescale

# (owner, attribute, span name).  A method is wrapped on its class, so every
# instance and every bound method taken later goes through the wrapper.
TARGETS = (
    (cli, "load_config", "cli.load_config"),
    (cli, "run", "cli.run"),
    (cli, "write_solution_csv", "cli.write_csv"),
    (timescale.TimeScaleSpec, "locate", "timescale.locate"),
    (forcing.TrigForcing, "value_many", "forcing.value_many"),
    (forcing.TrigForcing, "sup_norm", "forcing.sup_norm"),
    (forcing, "find_return_times", "forcing.find_return_times"),
    (matrixkit, "expm", "matrixkit.expm"),
    (matrixkit, "spectral_norm", "matrixkit.spectral_norm"),
    (matrixkit, "spectral_radius", "matrixkit.spectral_radius"),
    (impulsive, "certify", "impulsive.certify"),
    (impulsive.BoundedSolutionEvaluator, "__init__", "impulsive.evaluator_build"),
    (impulsive.BoundedSolutionEvaluator, "value", "impulsive.value"),
    (impulsive, "integrate", "impulsive.integrate"),
    (dynamic, "lift", "dynamic.lift"),
    (dynamic, "decompose", "dynamic.decompose"),
    (dynamic, "simulate_dynamic", "dynamic.simulate"),
    (analysis, "verify_periodic", "analysis.verify_periodic"),
    (analysis, "verify_poisson", "analysis.verify_poisson"),
    (analysis, "verify_bound", "analysis.verify_bound"),
    (analysis, "verify_stability", "analysis.verify_stability"),
    (analysis, "mpps_report", "analysis.mpps_report"),
)

# Spans each workload must record at least once per traced run, and spans
# the workload design predicts it never records.  A wrapper that a call
# path bypasses then fails the run instead of reading as zero.
_COMMON = ("cli.load_config", "cli.run", "cli.write_csv", "timescale.locate",
           "forcing.value_many")
_CERTIFIED = _COMMON + (
    "forcing.sup_norm", "forcing.find_return_times", "matrixkit.expm",
    "matrixkit.spectral_norm", "matrixkit.spectral_radius", "impulsive.certify",
    "impulsive.evaluator_build", "impulsive.value", "dynamic.lift",
)
EXPECTED_CALLS = {
    "example5": _CERTIFIED + (
        "dynamic.decompose", "dynamic.simulate", "analysis.verify_periodic",
        "analysis.verify_poisson", "analysis.verify_bound",
        "analysis.verify_stability", "analysis.mpps_report",
    ),
    "wide8": _CERTIFIED,
    "simulate-long": _COMMON + ("dynamic.simulate", "impulsive.integrate"),
}
EXPECTED_ABSENT = {
    "example5": (),
    "wide8": ("dynamic.simulate", "impulsive.integrate"),
    "simulate-long": ("impulsive.value", "impulsive.certify"),
}


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Span recorder for the wrapped tsdyn entry points.

    Wrappers record only while ``active`` is true, so the untraced passes
    and the correctness checks of a traced run leave no spans.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._pass_start = 0
        self.counters: dict[str, float] = {}
        self.certificates: set = set()
        self.rebound: list[str] = []
        self.missing: list[str] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        hooks = {
            "cli.write_csv": self._count_csv_rows,
            "forcing.find_return_times": self._count_shifts,
            "impulsive.certify": self._record_certificate,
            "impulsive.evaluator_build": self._record_horizon,
            "impulsive.integrate": self._count_integrate_steps,
            "dynamic.lift": self._count_lift_points,
            "dynamic.simulate": self._count_simulate_steps,
        }
        package = [m for n, m in sys.modules.items() if n == "tsdyn" or n.startswith("tsdyn.")]
        for owner, attr, name in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            setattr(owner, attr, wrapper)
            if inspect.ismodule(owner):
                for module in package:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, alias, wrapper)
                            self.rebound.append(f"{module.__name__}.{alias}")

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        return wrapper

    # -- counters fed by the wrappers ---------------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _count_csv_rows(self, fn, args, kwargs, result) -> None:
        sol = _arguments(fn, args, kwargs)["sol"]
        self._add("cli.csv_rows", sol.t.size + len(sol.endpoint_values))

    def _count_shifts(self, fn, args, kwargs, result) -> None:
        self._add("forcing.shifts_scanned", int(_arguments(fn, args, kwargs)["zeta_max"]))

    def _record_certificate(self, fn, args, kwargs, result) -> None:
        self.certificates.add(
            (result.floquet_radius, result.decay_rate, result.prefactor, result.grid_resolution)
        )

    def _record_horizon(self, fn, args, kwargs, result) -> None:
        evaluator = args[0]
        gaps = evaluator.horizon / evaluator.model.ts.stride
        self.counters["impulsive.horizon_gaps"] = max(
            self.counters.get("impulsive.horizon_gaps", 0.0), gaps
        )

    def _count_integrate_steps(self, fn, args, kwargs, result) -> None:
        self._add("impulsive.integrate_steps", result.s.size - 1)

    def _count_lift_points(self, fn, args, kwargs, result) -> None:
        self._add("dynamic.lift_points", len(_arguments(fn, args, kwargs)["t_grid"]))

    def _count_simulate_steps(self, fn, args, kwargs, result) -> None:
        self._add("dynamic.simulate_steps", result.t.size - 1)

    # -- passes ---------------------------------------------------------

    def begin_pass(self) -> None:
        """Start recording one pass; counters restart, spans accumulate."""
        self._pass_start = len(self.spans)
        self.counters = {}
        self.certificates = set()
        self.active = True

    def end_pass(self) -> dict:
        """Stop recording and return the pass's per-layer metrics."""
        self.active = False
        offset = self._pass_start
        spans = self.spans[offset:]
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= offset:
                child_time[parent - offset] += end - start
        own: dict[str, float] = {}
        value_us = []
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child_time[i])
            if name == "impulsive.value":
                value_us.append((end - start) * 1e6)

        counters = self.counters
        simulate_s = inclusive.get("dynamic.simulate", 0.0)
        simulate_steps = counters.get("dynamic.simulate_steps", 0.0)
        certify_calls = calls.get("impulsive.certify", 0)
        metrics = {
            "cli.load_config_s": inclusive.get("cli.load_config", 0.0),
            "cli.write_csv_s": inclusive.get("cli.write_csv", 0.0),
            "cli.csv_rows": counters.get("cli.csv_rows", 0.0),
            "timescale.locate_calls": calls.get("timescale.locate", 0),
            "timescale.locate_self_s": own.get("timescale.locate", 0.0),
            "forcing.value_many_calls": calls.get("forcing.value_many", 0),
            "forcing.value_many_self_s": own.get("forcing.value_many", 0.0),
            "forcing.find_return_times_s": inclusive.get("forcing.find_return_times", 0.0),
            "forcing.shifts_scanned": counters.get("forcing.shifts_scanned", 0.0),
            "forcing.sup_norm_s": inclusive.get("forcing.sup_norm", 0.0),
            "matrixkit.expm_calls": calls.get("matrixkit.expm", 0),
            "matrixkit.expm_self_s": own.get("matrixkit.expm", 0.0),
            "matrixkit.spectral_norm_calls": calls.get("matrixkit.spectral_norm", 0),
            "matrixkit.spectral_norm_self_s": own.get("matrixkit.spectral_norm", 0.0),
            "impulsive.certify_calls": certify_calls,
            "impulsive.certify_s": inclusive.get("impulsive.certify", 0.0),
            "impulsive.certify_useful_ratio": (
                len(self.certificates) / certify_calls if certify_calls else 0.0
            ),
            "impulsive.evaluator_build_calls": calls.get("impulsive.evaluator_build", 0),
            "impulsive.evaluator_build_s": inclusive.get("impulsive.evaluator_build", 0.0),
            "impulsive.value_calls": calls.get("impulsive.value", 0),
            "impulsive.value_self_s": own.get("impulsive.value", 0.0),
            "impulsive.value_us_p50": float(np.percentile(value_us, 50)) if value_us else 0.0,
            "impulsive.value_us_p99": float(np.percentile(value_us, 99)) if value_us else 0.0,
            "impulsive.horizon_gaps": counters.get("impulsive.horizon_gaps", 0.0),
            "impulsive.integrate_s": inclusive.get("impulsive.integrate", 0.0),
            "impulsive.integrate_steps": counters.get("impulsive.integrate_steps", 0.0),
            "dynamic.lift_calls": calls.get("dynamic.lift", 0),
            "dynamic.lift_points": counters.get("dynamic.lift_points", 0.0),
            "dynamic.lift_self_s": own.get("dynamic.lift", 0.0),
            "dynamic.simulate_s": simulate_s,
            "dynamic.simulate_steps": simulate_steps,
            "dynamic.rk4_steps_per_s": simulate_steps / simulate_s if simulate_s else 0.0,
            "analysis.verify_poisson_s": inclusive.get("analysis.verify_poisson", 0.0),
            "analysis.verify_stability_s": inclusive.get("analysis.verify_stability", 0.0),
            "analysis.verify_periodic_s": inclusive.get("analysis.verify_periodic", 0.0),
            "analysis.verify_bound_s": inclusive.get("analysis.verify_bound", 0.0),
        }
        return {"metrics": metrics, "calls": calls}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])


def coverage_problems(workload: str, calls: dict, missing: list) -> list[str]:
    """Departures of the recorded call counts from the workload design."""
    problems = []
    for name in EXPECTED_CALLS[workload]:
        if name not in missing and calls.get(name, 0) == 0:
            problems.append(f"{name} recorded no call on {workload}")
    for name in EXPECTED_ABSENT[workload]:
        if calls.get(name, 0):
            problems.append(f"{name} recorded {calls[name]} calls on {workload}, predicted 0")
    return problems
