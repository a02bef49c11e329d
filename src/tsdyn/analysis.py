"""Numerical certification of the solution structure: periodicity of the
periodic component, Poisson recurrence of the sequence-driven component, the
sup-norm bound, asymptotic stability, and the aggregate verdict.

Each check produces a serializable :class:`VerificationReport` whose pass
flag is a pure function of the computed metrics and the echoed thresholds,
so reports are deterministic for fixed inputs and seeds.

:func:`verify_all`, the one pipeline that runs them all from an evaluator,
lays out the one ``parts`` batch that the periodicity and both recurrence
reports share, and returns the reports keyed as ``verify.json`` holds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamic import TimeScaleSolution, lift_and_parts, simulate_dynamic
from .errors import TimeScaleDomainError
from .forcing import ReturnTimeSet, TableSequence, TrigForcing
from .impulsive import BoundedSolutionEvaluator, ImpulsiveModel, StabilityCert, solution_bound
from .timescale import TimeScaleSpec

_SEPARATION_FLOOR = 1e-12
# Growth a recurrence supremum may show from one return to the next.
_SLACK = 0.10
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


def verify_periodic(values: np.ndarray, period: float, tol: float) -> VerificationReport:
    """Check that a solution is periodic with the time-scale period.

    ``values`` has shape ``(2, n, m)``: row 0 holds the solution on the ``n``
    points of a compact grid, and row 1 holds it on that grid shifted by
    exactly one ``period``.  The metric is the worst deviation
    ``max_n ||row1 - row0||`` over the ``n`` pairs.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[0] != 2 or values.shape[1] == 0:
        raise ValueError(f"values must have shape (2, n, m) with n > 0, got {values.shape}")
    metric = float(np.linalg.norm(values[1] - values[0], axis=-1).max())
    return VerificationReport(
        kind="periodicity",
        metrics={"max_shift_deviation": metric, "pairs": float(values.shape[1])},
        passed=metric < tol,
        parameters={"tol": tol, "period": period},
    )


# ----------------------------------------------------------------------
# Poisson recurrence


def compact_grid(ts: TimeScaleSpec, lo: float, hi: float, grid_step: float) -> np.ndarray:
    """Increasing float64 grid over ``[lo, hi]`` on the scale (a step below the
    float spacing may repeat a point): the part ``[a, b]`` of each interval holds
    ``a + (b - a) * i / n`` for ``i < n``, then ``b`` if ``b > a``.  Sized in bytes
    first: too large to index raises at once, too large to hold once it fails."""
    if hi < lo:
        raise ValueError(f"empty compact window [{lo}, {hi}]")
    if grid_step <= 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step!r}")

    def too_many(limit: str) -> ValueError:
        return ValueError(f"grid of [{lo}, {hi}] at grid_step={grid_step}: "
                          f"{count:.6g} {what}, too many to {limit}")

    k_lo, k_hi = ts.interval_span(lo, hi)
    count, what = 2 * (k_hi - k_lo + 1), "interval ends"
    try:
        if 8 * count > np.iinfo(np.intp).max:
            raise too_many("index")
        ends = ts.endpoint(np.arange(2 * k_lo - 1, 2 * k_hi + 1))  # left, right of each k
        a, b = np.maximum(ends[0::2], lo), np.minimum(ends[1::2], hi)
        a, b = a[a <= b], b[a <= b]
        n = np.maximum(1, np.ceil((b - a) / grid_step))
        size = n + (a < b)  # a one-point part gives its point once
        count, what = np.sum(size), "points"
        if 8 * count > np.iinfo(np.intp).max:
            raise too_many("index")
        r = np.repeat(np.arange(n.size), size.astype(np.int64))
        i = np.arange(count) - (np.cumsum(size) - size)[r]
        return np.where(i < n[r], a[r] + (b - a)[r] * i / n[r], b[r])
    except MemoryError as err:
        raise too_many("hold") from err


def verify_poisson(
    values: np.ndarray,
    returns: ReturnTimeSet,
    compact_lo: float,
    compact_hi: float,
    grid_step: float,
    eps: float | None = None,
) -> VerificationReport:
    """Check recurrence of a solution along mined return times.

    ``values`` has shape ``(R+1, n, m)``: row 0 holds the solution on the
    ``n`` points of a compact grid, and row ``i`` holds it on that grid
    shifted by ``period * zeta_i``, the ``i``-th of the ``R`` return shifts.
    The compact window and grid step only echo how the grid was made.  For
    each return shift the supremum of ``||theta(t + period*zeta) - theta(t)||``
    over the grid is computed.  The check passes when the sequence of suprema
    never grows by more than the factor ``1 + _SLACK`` from one return to the
    next and the final supremum falls below the threshold ``eps`` (default:
    ``5 * final_defect + 1e-6``, the empirically calibrated convolution-bound
    constant).
    """
    if not returns.entries:
        raise ValueError("return-time set is empty")
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[0] != len(returns.entries) + 1:
        raise ValueError(
            f"values must have shape ({len(returns.entries) + 1}, n, m), got {values.shape}"
        )
    sups = np.linalg.norm(values[1:] - values[0], axis=-1).max(axis=-1).tolist()
    eps_used = (
        eps
        if eps is not None
        else _DEFAULT_EPS_FACTOR * returns.entries[-1].defect + _DEFAULT_EPS_OFFSET
    )
    monotone = all(sups[i + 1] <= (1.0 + _SLACK) * sups[i] for i in range(len(sups) - 1))
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
            "slack": _SLACK,
            "compact": [compact_lo, compact_hi],
            "grid_step": grid_step,
            "grid_points": values.shape[1],
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
    y0,
    t0: float,
    horizon: float,
    step: float,
) -> VerificationReport:
    """Check exponential contraction of two trajectories separated by ``y0``.

    By linearity the separation of two trajectories that start ``y0`` apart
    is the homogeneous solution from ``y0``, so it is marched directly, with
    the model's matrix and scale and no forcing, rather than as the
    difference of two forced marches that cancel down to round-off.
    The check fits the slope of the log separation against the collapsed
    time, :meth:`TimeScaleSpec.psi` of the whole sample array, and checks
    both the fitted slope against the certified decay rate and pointwise
    domination by the certificate envelope.  The slope is the closed-form
    least-squares one, ``sum(x y) / sum(x x)`` over the centered times ``x``
    and log separations ``y``, which a degree-one ``np.polyfit`` gives up to
    round-off.
    """
    ts = model.ts
    if horizon < 5.0 * ts.period:
        raise ValueError("stability check needs a horizon of at least five periods")
    t_end = t0 + horizon
    if not ts.contains(t_end):
        raise TimeScaleDomainError(f"t0 + horizon = {t_end!r} is not in the time scale")
    s0 = ts.psi(t0)

    y0 = np.asarray(y0, float)
    # the march reads the sequence at the gap indices k0..k1 of its ends
    k0, k1 = ts.locate(t0)[0], ts.locate(t_end)[0]
    zeros = np.zeros(model.dimension)
    homogeneous = ImpulsiveModel(
        model.matrix, ts, TrigForcing.zero(model.dimension, ts.period),
        TableSequence({k: zeros for k in range(k0, k1 + 1)}),
    )
    sol = simulate_dynamic(homogeneous, y0, t0, t_end, step)

    separation = np.linalg.norm(sol.y, axis=1)
    collapsed = ts.psi(sol.t)  # the samples hold no left endpoint
    initial = float(np.linalg.norm(y0))

    envelope = cert.prefactor * initial * np.exp(-cert.decay_rate * (collapsed - s0))
    margin = envelope - separation
    for k, v in sol.endpoint_values.items():
        env = cert.prefactor * initial * math.exp(-cert.decay_rate * (ts.impulse_point(k) - s0))
        margin = np.append(margin, env - float(np.linalg.norm(v)))
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
        x = collapsed[mask] - collapsed[mask].mean()
        y = np.log(separation[mask])
        slope = float(x @ (y - y.mean()) / (x @ x))
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
    poisson_full: VerificationReport,
    tol: float = 1e-8,
) -> VerificationReport:
    """Aggregate verdict: periodic + Poisson decomposition, bounded, stable.

    The identity between the suprema of ``poisson_full``, the recurrence
    report of the full solution, and the sequence-component suprema (the
    periodic component cancels under period-multiple shifts) is asserted
    within ``2 * tol`` and folded into the verdict.  The two reports are
    compared metric by metric, so they must hold the same returns.
    """
    components = {"periodicity": periodic, "poisson": poisson, "bound": bound,
                  "stability": stability}
    if poisson.metrics.keys() != poisson_full.metrics.keys():
        raise ValueError("full and component recurrence reports use different returns")
    deviation = max(abs(v - poisson_full.metrics[k]) for k, v in poisson.metrics.items())
    metrics = {f"{name}_passed": float(r.passed) for name, r in components.items()}
    metrics["recurrence_identity_deviation"] = deviation
    passed = all(r.passed for r in components.values()) and deviation <= 2.0 * tol
    return VerificationReport(
        kind="mpps", metrics=metrics, passed=passed,
        parameters={"tol": tol, "recurrence_identity_tol": 2.0 * tol},
    )


# ----------------------------------------------------------------------
# the whole pipeline


def verify_all(
    evaluator: BoundedSolutionEvaluator,
    returns: ReturnTimeSet,
    compact_lo: float,
    compact_hi: float,
    grid_step: float,
    y0,
    stability_periods: float,
    step: float,
) -> dict[str, VerificationReport]:
    """Every verification report of the evaluator's model, certificate and
    ``tol``, keyed as in ``verify.json``.

    One ``parts`` batch holds the compact grid (row 0), its copy one period
    on (row 1) and its return-shifted copies (rows 2 on).  Periodicity reads
    rows 0 and 1 against ``2 * tol``: the periodic part has no truncation, so
    within ``tol`` of the exact part at each point two values one period
    apart differ by at most ``2 * tol``.  Both recurrence reports read the
    rest with row 0, the sequence part against the default rule of
    :func:`verify_poisson` and the full solution against that threshold plus
    ``2 * tol``; the bound report reads the lift of row 0, so the compact
    grid is evaluated once.  The separation ``y0`` is marched from the anchor
    over ``stability_periods`` periods at RK4 step ``step``.
    """
    model, cert, tol = evaluator.model, evaluator.cert, evaluator.tol
    ts = model.ts
    grid = compact_grid(ts, compact_lo, compact_hi, grid_step)
    theta, values = lift_and_parts(evaluator, grid, ts.period * np.array([1, *returns.zetas]))
    periodic = verify_periodic(values[:2, :, 0], ts.period, 2.0 * tol)
    values = np.delete(values, 1, axis=0)
    window = (compact_lo, compact_hi, grid_step)
    poisson = verify_poisson(values[..., 1, :], returns, *window)
    poisson_full = verify_poisson(
        values.sum(axis=-2), returns, *window, eps=poisson.parameters["eps"] + 2.0 * tol
    )
    bound = verify_bound(theta, cert, evaluator.sup_forcing, evaluator.sup_sequence)
    # the anchor is the right endpoint of interval 0: inside the psi domain
    stability = verify_stability(model, cert, y0, ts.anchor, stability_periods * ts.period, step)
    return {
        "periodicity": periodic,
        "poisson": poisson,
        "poisson_full_solution": poisson_full,
        "bound": bound,
        "stability": stability,
        "mpps": mpps_report(periodic, poisson, bound, stability, poisson_full, tol=tol),
    }
