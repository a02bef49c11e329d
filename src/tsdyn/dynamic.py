"""Solutions living on the time scale itself: simulation of the dynamic
equation as the impulsive march read back on the scale, the bounded
solution and its periodic/Poisson split pulled back through the psi
substitution, and delta-derivative residuals.

``lift``, ``decompose`` and ``as_timescale_function`` share one path onto
the scale: each point is located once, regular points are evaluated in one
batch at ``psi(t)``, and left endpoints take the right limit of their jump.

A solution on the scale stores regular samples for points where psi is
defined and keeps the values at left endpoints (where psi is undefined and
the solution comes from the right limit after a jump) in a separate map so
nothing ever interpolates across a hole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import MissingSampleError, TimeScaleDomainError
from .impulsive import BoundedSolutionEvaluator, ImpulsiveModel, _march
from .timescale import (
    GAP,
    LEFT_ENDPOINT,
    RIGHT_ENDPOINT,
    TimeScaleSpec,
    _edge_tol,
    sample_index,
)


@dataclass(frozen=True, eq=False)
class TimeScaleSolution:
    """Sampled solution on the time scale.

    ``t``/``y`` hold strictly increasing samples away from left endpoints;
    ``endpoint_values`` maps ``k`` to the value at ``endpoint(2k+1)``, i.e.
    the state right after the k-th jump.  ``provenance`` records whether the
    object came from simulation or from lifting an impulsive-side
    evaluation.
    """

    ts: TimeScaleSpec
    t: np.ndarray
    y: np.ndarray
    endpoint_values: Mapping[int, np.ndarray] = field(default_factory=dict)
    provenance: str = "simulated"

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or y.ndim != 2 or y.shape[0] != t.size:
            raise ValueError("samples must be a 1-d abscissa array with matching rows")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("sample abscissae must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        if self.provenance not in ("simulated", "lifted"):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def dimension(self) -> int:
        return self.y.shape[1]

    def value(self, t: float) -> np.ndarray:
        """Stored value at ``t``; left endpoints resolve via the endpoint map."""
        k, code = self.ts.locate(t)
        if code == LEFT_ENDPOINT:
            try:
                return self.endpoint_values[k - 1]
            except KeyError:
                raise MissingSampleError(f"no endpoint value stored for t={t!r}") from None
        i = sample_index(self.t, t)
        if i is None:
            raise MissingSampleError(f"no sample stored at t={t!r}")
        return self.y[i]

    def max_norm(self) -> float:
        """Largest sample norm, endpoint values included."""
        best = float(np.max(np.linalg.norm(self.y, axis=1))) if self.t.size else 0.0
        for v in self.endpoint_values.values():
            best = max(best, float(np.linalg.norm(v)))
        return best


def simulate_dynamic(
    model: ImpulsiveModel,
    y0,
    t0: float,
    t_end: float,
    step: float,
) -> TimeScaleSolution:
    """Integrate the dynamic equation: the impulsive march read back on the scale.

    A point ``t`` of the scale is the pair ``(s, k)`` with ``t = s + k*gap``.
    The fixed-step RK4 march of :func:`tsdyn.impulsive.integrate` runs from
    the pair of ``t0`` to the pair of ``t_end``.  On each impulse-free segment
    RK4 is evaluated as the affine recurrence ``y <- R y + c_n`` by a blocked
    scan (Blelloch 1990), equal to a per-step loop up to round-off; the jump
    ``y(next_left) = y(right) + gap * (A y(right) + f(right) + term_k)`` is
    the exact discrete update at each right-scattered endpoint, and its
    right limits become the values at left endpoints.  ``t0`` may be a left
    endpoint, in which case ``y0`` supplies the value there.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    ts = model.ts
    k0, start = ts.locate(t0)
    k1, end = ts.locate(t_end)
    if start == GAP:
        raise TimeScaleDomainError(f"t0={t0!r} is not in the time scale")
    if end == GAP:
        raise TimeScaleDomainError(f"t_end={t_end!r} is not in the time scale")
    if t_end <= t0:
        raise ValueError(f"requires t0 < t_end, got t0={t0!r}, t_end={t_end!r}")
    y = np.asarray(y0, dtype=float).copy()
    if y.shape != (model.dimension,):
        raise ValueError(f"y0 must have shape ({model.dimension},)")

    # a left endpoint is the right limit at the impulse before it; a right
    # endpoint must not round past its own impulse
    if start == LEFT_ENDPOINT:
        s0 = ts.impulse_point(k0 - 1)
    else:
        s0 = min(t0 - k0 * ts.gap, ts.impulse_point(k0))
    s1 = ts.impulse_point(k1 - 1) if end == LEFT_ENDPOINT else t_end - k1 * ts.gap
    s, y, jumps = _march(model, y, s0, s1, k0, k1, step)
    endpoint_values = {jump.index: jump.after for jump in jumps}
    if start == LEFT_ENDPOINT:
        endpoint_values[k0 - 1] = y[0]
        s, y = s[1:], y[1:]
    # each jump strictly below a sample moves it one gap further right; the
    # shift is added in place, a slice per gap, to allocate no array per sample
    bounds = np.searchsorted(s, [jump.s for jump in jumps], side="right")
    for j, (lo, hi) in enumerate(zip([0, *bounds], [*bounds, s.size])):
        s[lo:hi] += ts.gap * (k0 + j)
    return TimeScaleSolution(
        ts=ts, t=s, y=y, endpoint_values=endpoint_values, provenance="simulated"
    )


def _on_scale(model: ImpulsiveModel, points, evaluate):
    """Locate each point once; evaluate the regular points in one batch at
    ``psi(t) = t - k*gap``.  Returns their positions, their values, and the
    index of the jump before each left endpoint, keyed by its position."""
    ts = model.ts
    regular: list[int] = []
    collapsed: list[float] = []
    jumps: dict[int, int] = {}
    for i, t in enumerate(points):
        k, code = ts.locate(t)
        if code == GAP:
            raise TimeScaleDomainError(f"t={t!r} is not in the time scale")
        if code == LEFT_ENDPOINT:
            jumps[i] = k - 1
        else:
            regular.append(i)
            collapsed.append(t - k * ts.gap)
    return regular, evaluate(collapsed), jumps


def lift(
    model: ImpulsiveModel,
    evaluator: BoundedSolutionEvaluator,
    t_grid: Sequence[float],
) -> TimeScaleSolution:
    """The bounded solution on a grid of the time scale.

    Regular grid points map through psi and are evaluated in one batch; at
    a left endpoint the value is the right limit after the jump.
    """
    points = sorted(set(float(t) for t in t_grid))
    regular, y, jumps = _on_scale(model, points, evaluator.values)
    return TimeScaleSolution(
        ts=model.ts,
        t=np.asarray(points)[regular],
        y=y,
        endpoint_values={k: evaluator.right_limit(k) for k in jumps.values()},
        provenance="lifted",
    )


def decompose(
    model: ImpulsiveModel,
    evaluator: BoundedSolutionEvaluator,
    t_grid: Sequence[float],
) -> tuple[TimeScaleSolution, TimeScaleSolution]:
    """Split the bounded solution into periodic and Poisson parts on a grid.

    One batched evaluation of :meth:`BoundedSolutionEvaluator.parts`; at a
    left endpoint each part takes its own share of the jump.  The two parts
    sum to the lift of the full bounded solution up to round-off.
    """
    points = sorted(set(float(t) for t in t_grid))
    regular, y, jumps = _on_scale(model, points, evaluator.parts)
    t = np.asarray(points)[regular]
    ends = {k: evaluator.right_limit_parts(k) for k in jumps.values()}
    return tuple(
        TimeScaleSolution(model.ts, t, y[:, i], {k: v[i] for k, v in ends.items()}, "lifted")
        for i in (0, 1)
    )


def as_timescale_function(
    model: ImpulsiveModel, evaluator: BoundedSolutionEvaluator
) -> Callable:
    """Wrap an evaluator's parts as a function on the whole time scale.

    The function takes one point or an array of points and returns the
    parts ``[periodic, sequence]`` with shape ``points.shape + (2, m)``;
    summing over the parts axis gives the full bounded solution.  Regular
    points go through psi in one batched evaluation; left endpoints return
    the parts of the jump right limit.
    """
    m = model.dimension

    def theta(t):
        points = np.asarray(t, dtype=float)
        flat = points.reshape(-1).tolist()
        regular, parts, jumps = _on_scale(model, flat, evaluator.parts)
        out = np.empty((len(flat), 2, m))
        out[regular] = parts
        for i, k in jumps.items():
            out[i] = evaluator.right_limit_parts(k)
        return out.reshape(points.shape + (2, m))

    return theta


def delta_residual(model: ImpulsiveModel, sol: TimeScaleSolution, t: float) -> float:
    """Residual of the dynamic equation at a stored sample point.

    At a right-scattered point the delta derivative is the exact difference
    quotient across the hole, so the residual measures how well the stored
    jump satisfies the discrete update.  At right-dense points a one-sided
    forward difference at the solver mesh stands in for the derivative and
    the residual is expected to scale with the mesh step.
    """
    ts = model.ts
    k, code = ts.locate(t)
    if code == GAP:
        raise TimeScaleDomainError(f"t={t!r} is not in the time scale")
    y_t = sol.value(t)
    rhs = model.matrix @ y_t + model.forcing.value(t) + model.sequence.term(k)
    if code == RIGHT_ENDPOINT:
        y_next = sol.value(ts.endpoint(2 * k + 1))
        quotient = (y_next - y_t) / ts.gap
        return float(np.linalg.norm(quotient - rhs))
    idx = int(np.searchsorted(sol.t, t, side="right"))
    while idx < sol.t.size and abs(sol.t[idx] - t) <= _edge_tol(t):
        idx += 1  # skip samples the abscissa snap treats as t itself
    if idx >= sol.t.size:
        raise MissingSampleError(f"no forward neighbor stored after t={t!r}")
    t_next = float(sol.t[idx])
    if t_next > ts.endpoint(2 * k) + _edge_tol(t_next):
        raise MissingSampleError(
            f"forward neighbor of t={t!r} falls outside its interval"
        )
    quotient = (sol.y[idx] - y_t) / (t_next - t)
    return float(np.linalg.norm(quotient - rhs))
