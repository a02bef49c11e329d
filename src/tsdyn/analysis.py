"""Numerical certification of the solution structure: periodicity of the
periodic component, Poisson recurrence of the sequence-driven component, the
sup-norm bound, asymptotic stability, and the aggregate verdict.

Each check produces a serializable :class:`VerificationReport` whose pass
flag is a pure function of the computed metrics and the echoed thresholds,
so reports are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamic import TimeScaleSolution, simulate_dynamic
from .errors import TimeScaleDomainError
from .forcing import ReturnTimeSet
from .impulsive import ImpulsiveModel, StabilityCert, solution_bound
from .timescale import TimeScaleSpec

_ABSCISSA_RTOL = 2.0 ** -40
_SEPARATION_FLOOR = 1e-12
_DEFAULT_SLACK = 0.10
_DEFAULT_EPS_FACTOR = 5.0
_DEFAULT_EPS_OFFSET = 1e-6


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification: metrics, verdict, echoed parameters."""

    kind: str
    metrics: dict[str, float]
    passed: bool
    parameters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "metrics": dict(self.metrics),
            "passed": bool(self.passed),
            "parameters": _jsonable(self.parameters),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


# ----------------------------------------------------------------------
# periodicity


def verify_periodic(
    theta1: TimeScaleSolution, ts: TimeScaleSpec, tol: float
) -> VerificationReport:
    """Check that a solution is periodic with the time-scale period.

    Pairs every stored abscissa ``t`` with ``t + period`` (and endpoint
    values at consecutive jump indices) and measures the worst deviation.
    Raises if the solution does not cover any shifted pair.
    """
    period = ts.period
    deviations: list[float] = []
    t = theta1.t
    for i in range(t.size):
        target = t[i] + period
        idx = int(np.searchsorted(t, target))
        for j in (idx - 1, idx, idx + 1):
            if 0 <= j < t.size and abs(t[j] - target) <= _ABSCISSA_RTOL * max(
                1.0, abs(target)
            ):
                deviations.append(float(np.linalg.norm(theta1.y[j] - theta1.y[i])))
                break
    for k, v in theta1.endpoint_values.items():
        if k + 1 in theta1.endpoint_values:
            deviations.append(float(np.linalg.norm(theta1.endpoint_values[k + 1] - v)))
    if not deviations:
        raise ValueError("solution does not cover any period-shifted grid pair")
    metric = max(deviations)
    return VerificationReport(
        kind="periodicity",
        metrics={"max_shift_deviation": metric, "pairs": float(len(deviations))},
        passed=metric < tol,
        parameters={"tol": tol, "period": period},
    )


# ----------------------------------------------------------------------
# Poisson recurrence


def compact_grid(ts: TimeScaleSpec, lo: float, hi: float, grid_step: float) -> list[float]:
    """Grid over ``[lo, hi]`` intersected with the scale, endpoints included."""
    if hi < lo:
        raise ValueError(f"empty compact window [{lo}, {hi}]")
    if grid_step <= 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step!r}")
    pts: list[float] = []
    k_lo = math.floor((lo - ts.anchor) / ts.period) - 1
    k_hi = math.ceil((hi - ts.anchor) / ts.period) + 1
    for k in range(k_lo, k_hi + 1):
        a = max(ts.endpoint(2 * k - 1), lo)
        b = min(ts.endpoint(2 * k), hi)
        if b < a:
            continue
        n = max(1, math.ceil((b - a) / grid_step))
        pts.extend(float(a + (b - a) * i / n) for i in range(n))
        pts.append(float(b))
    return sorted(set(pts))


def verify_poisson(
    theta2_eval: Callable[[np.ndarray], np.ndarray],
    ts: TimeScaleSpec,
    returns: ReturnTimeSet,
    compact_lo: float,
    compact_hi: float,
    grid_step: float,
    eps: float | None = None,
    slack: float = _DEFAULT_SLACK,
) -> VerificationReport:
    """Check recurrence of a solution along mined return times.

    ``theta2_eval`` maps a 1-d array of points on the scale to an ``(n, m)``
    array of values; it is called once on the compact grid and once per
    return shift.  For each return shift the supremum of
    ``||theta(t + period*zeta) - theta(t)||`` over the gridded compact
    window is computed.  The check passes when the sequence of suprema never
    grows by more than the slack factor from one return to the next and the
    final supremum falls below the threshold ``eps`` (default:
    ``5 * final_defect + 1e-6``, the empirically calibrated convolution-bound
    constant).
    """
    if not returns.entries:
        raise ValueError("return-time set is empty")
    grid = np.asarray(compact_grid(ts, compact_lo, compact_hi, grid_step))
    base = np.asarray(theta2_eval(grid), dtype=float)
    sups: list[float] = []
    for entry in returns.entries:
        shifted = np.asarray(theta2_eval(grid + ts.period * entry.zeta), dtype=float)
        sups.append(float(np.max(np.linalg.norm(shifted - base, axis=1))))
    eps_used = (
        eps
        if eps is not None
        else _DEFAULT_EPS_FACTOR * returns.entries[-1].defect + _DEFAULT_EPS_OFFSET
    )
    monotone = all(sups[i + 1] <= (1.0 + slack) * sups[i] for i in range(len(sups) - 1))
    final_ok = sups[-1] < eps_used
    metrics = {f"D_{i}": s for i, s in enumerate(sups)}
    metrics["final_sup_difference"] = sups[-1]
    return VerificationReport(
        kind="poisson",
        metrics=metrics,
        passed=monotone and final_ok,
        parameters={
            "zetas": list(returns.zetas),
            "defects": list(returns.defects),
            "eps": eps_used,
            "eps_rule": "given" if eps is not None else "5*final_defect+1e-6",
            "slack": slack,
            "compact": [compact_lo, compact_hi],
            "grid_step": grid_step,
            "grid_points": len(grid),
        },
    )


# ----------------------------------------------------------------------
# sup-norm bound


def verify_bound(
    theta: TimeScaleSolution,
    cert: StabilityCert,
    sup_f: float,
    sup_seq: float,
) -> VerificationReport:
    """Check the sampled solution stays under the certified sup-norm bound."""
    bound = solution_bound(cert, theta.ts, sup_f, sup_seq)
    observed = theta.max_norm()
    return VerificationReport(
        kind="bound",
        metrics={"max_solution_norm": observed, "bound": bound},
        passed=observed <= bound,
        parameters={
            "prefactor": cert.prefactor,
            "decay_rate": cert.decay_rate,
            "sup_forcing": sup_f,
            "sup_sequence": sup_seq,
        },
    )


# ----------------------------------------------------------------------
# asymptotic stability


def verify_stability(
    model: ImpulsiveModel,
    cert: StabilityCert,
    y0a,
    y0b,
    t0: float,
    horizon: float,
    step: float,
) -> VerificationReport:
    """Check exponential contraction of two trajectories.

    Simulates both initial states over the horizon, fits the slope of the
    log separation against the collapsed time ``psi(t)``, and checks both
    the fitted slope against the certified decay rate and pointwise
    domination by the certificate envelope.
    """
    ts = model.ts
    if horizon < 5.0 * ts.period:
        raise ValueError("stability check needs a horizon of at least five periods")
    t_end = t0 + horizon
    if not ts.contains(t_end):
        raise TimeScaleDomainError(f"t0 + horizon = {t_end!r} is not in the time scale")
    s0 = ts.psi(t0)

    sol_a = simulate_dynamic(model, y0a, t0, t_end, step)
    sol_b = simulate_dynamic(model, y0b, t0, t_end, step)
    if sol_a.t.size != sol_b.t.size:
        raise RuntimeError("trajectory meshes diverged")  # identical construction

    separation = np.linalg.norm(sol_a.y - sol_b.y, axis=1)
    collapsed = np.array([ts.psi(t) for t in sol_a.t])
    initial = float(np.linalg.norm(np.asarray(y0a, float) - np.asarray(y0b, float)))

    envelope = cert.prefactor * initial * np.exp(-cert.decay_rate * (collapsed - s0))
    margin = envelope - separation
    for k, va in sol_a.endpoint_values.items():
        sep = float(np.linalg.norm(va - sol_b.endpoint_values[k]))
        env = cert.prefactor * initial * math.exp(
            -cert.decay_rate * (ts.impulse_point(k) - s0)
        )
        margin = np.append(margin, env - sep)
    envelope_ok = bool(np.all(margin >= -1e-12 * max(1.0, initial)))

    mask = separation > _SEPARATION_FLOOR
    metrics = {
        "initial_separation": initial,
        "final_separation": float(separation[-1]),
        "envelope_min_margin": float(np.min(margin)) if margin.size else 0.0,
    }
    if initial <= _SEPARATION_FLOOR or int(np.count_nonzero(mask)) < 2:
        passed = envelope_ok  # coincident starts stay coincident
    else:
        coeffs = np.polyfit(collapsed[mask], np.log(separation[mask]), 1)
        slope = float(coeffs[0])
        metrics["fitted_slope"] = slope
        passed = envelope_ok and slope <= -cert.decay_rate
    return VerificationReport(
        kind="stability",
        metrics=metrics,
        passed=passed,
        parameters={
            "decay_rate": cert.decay_rate,
            "prefactor": cert.prefactor,
            "t0": t0,
            "horizon": horizon,
            "step": step,
            "separation_floor": _SEPARATION_FLOOR,
        },
    )


# ----------------------------------------------------------------------
# aggregate verdict


def mpps_report(
    periodic: VerificationReport,
    poisson: VerificationReport,
    bound: VerificationReport,
    stability: VerificationReport,
    poisson_full: VerificationReport | None = None,
    tol: float = 1e-8,
) -> VerificationReport:
    """Aggregate verdict: periodic + Poisson decomposition, bounded, stable.

    When a recurrence report for the full solution is supplied, the
    identity between its suprema and the sequence-component suprema (the
    periodic component cancels under period-multiple shifts) is asserted
    within ``2 * tol`` and folded into the verdict.
    """
    components = {
        "periodicity": periodic,
        "poisson": poisson,
        "bound": bound,
        "stability": stability,
    }
    passed = all(r.passed for r in components.values())
    metrics = {f"{name}_passed": float(r.passed) for name, r in components.items()}
    parameters: dict = {"tol": tol}
    if poisson_full is not None:
        d2 = _sup_sequence_of(poisson)
        dfull = _sup_sequence_of(poisson_full)
        if len(d2) != len(dfull):
            raise ValueError("full and component recurrence reports use different returns")
        deviation = max(abs(a - b) for a, b in zip(d2, dfull))
        metrics["recurrence_identity_deviation"] = deviation
        passed = passed and deviation <= 2.0 * tol
        parameters["recurrence_identity_tol"] = 2.0 * tol
    return VerificationReport(
        kind="mpps", metrics=metrics, passed=passed, parameters=parameters
    )


def _sup_sequence_of(report: VerificationReport) -> list[float]:
    out = []
    i = 0
    while f"D_{i}" in report.metrics:
        out.append(report.metrics[f"D_{i}"])
        i += 1
    return out


def _window_padding(
    cert: StabilityCert, ts: TimeScaleSpec, sup_seq: float, eps: float
) -> int:
    """Heuristic depth (in periods) a mining window should extend below a
    compact set so unmined past terms cannot dominate the recurrence check.

    Internal tolerance heuristic only; deliberately not part of the public
    API surface.
    """
    # the sup-norm ceiling of a solution driven by forcing 1 and sequence 2*sup_seq
    tau0 = 1.0 / (2.0 * solution_bound(cert, ts, 1.0, 2.0 * sup_seq))
    if eps <= 0.0 or tau0 * eps >= 1.0:
        return 0
    return math.ceil(math.log(1.0 / (tau0 * eps)) / (cert.decay_rate * ts.stride))
