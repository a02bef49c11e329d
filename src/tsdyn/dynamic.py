"""Solutions living on the time scale itself: simulation of the dynamic
equation as the impulsive march read back on the scale, the bounded
solution and its periodic/Poisson split pulled back through the psi
substitution, and delta-derivative residuals.

``lift``, ``decompose``, ``lift_and_parts`` and ``as_timescale_function``
take the evaluator alone and read the model it was built on
(``evaluator.model``), so the points are evaluated and jumped with one
model.  They share one path onto the scale: one ``locate`` call and one
evaluator batch, a regular point at ``psi(t)`` and a left endpoint at the
impulse before it, whose row then takes the jump
(:meth:`ImpulsiveModel.jump`) to give the right limit.

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
    TimeScaleSpec,
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
    The RK4-plus-jump march of :func:`tsdyn.impulsive.integrate` runs from
    the pair of ``t0`` to the pair of ``t_end``, and the right limits of its
    jumps become the values at left endpoints.  ``t0`` may be a left
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
    s0 = (ts.impulse_point(k0 - 1) if start == LEFT_ENDPOINT
          else min(ts.psi(t0), ts.impulse_point(k0)))
    s1 = ts.impulse_point(k1 - 1) if end == LEFT_ENDPOINT else ts.psi(t_end)
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


def _grid(t_grid: Sequence[float]) -> np.ndarray:
    """The points of ``t_grid`` sorted, each once."""
    return np.array(sorted(set(float(t) for t in t_grid)))


def _on_scale(model: ImpulsiveModel, points, evaluate):
    """``evaluate`` at points of the scale in one batch, elementwise: a regular
    point at ``psi(t)``, which rejects points off the scale, and a left endpoint
    at the impulse before it, not yet jumped (:func:`_jumped`).  Returns the
    values, the left-endpoint mask and the impulse before each point, all
    over the flattened points."""
    ts = model.ts
    t = np.asarray(points, dtype=float).reshape(-1)
    k, code = ts.locate(t)
    left = code == LEFT_ENDPOINT
    s = np.empty(t.shape)
    s[~left] = ts.psi(t[~left])
    s[left] = ts.impulse_point(k[left] - 1)
    return evaluate(s), left, k - 1


def _jumped(model: ImpulsiveModel, values: np.ndarray, left, jumps) -> np.ndarray:
    """``values`` from :func:`_on_scale`, each left endpoint's row jumped in
    place to its right limit."""
    for i, j in zip(np.flatnonzero(left).tolist(), jumps[left].tolist()):
        values[i] = model.jump(j, values[i])
    return values


def _lifted(ts: TimeScaleSpec, t: np.ndarray, y, left, jumps) -> TimeScaleSolution:
    """A lifted solution from jumped ``_on_scale`` values at the points ``t``:
    the values at left endpoints go to the endpoint map, keyed by their jump."""
    ends = dict(zip(jumps[left].tolist(), y[left]))
    return TimeScaleSolution(ts, t[~left], y[~left], ends, "lifted")


def lift(evaluator: BoundedSolutionEvaluator, t_grid: Sequence[float]) -> TimeScaleSolution:
    """The bounded solution of the evaluator's model on a grid of the time
    scale, from one batched :meth:`BoundedSolutionEvaluator.value` call."""
    model, t = evaluator.model, _grid(t_grid)
    values, left, jumps = _on_scale(model, t, evaluator.value)
    return _lifted(model.ts, t, _jumped(model, values, left, jumps), left, jumps)


def decompose(
    evaluator: BoundedSolutionEvaluator, t_grid: Sequence[float]
) -> tuple[TimeScaleSolution, TimeScaleSolution]:
    """Split the bounded solution into periodic and Poisson parts on a grid.

    One batched evaluation of :meth:`BoundedSolutionEvaluator.parts`; at a
    left endpoint each part takes its own share of the jump.  The two parts
    sum to the lift of the full bounded solution up to round-off.
    """
    model, t = evaluator.model, _grid(t_grid)
    parts, left, jumps = _on_scale(model, t, evaluator.parts)
    parts = _jumped(model, parts, left, jumps)
    return tuple(_lifted(model.ts, t, parts[:, i], left, jumps) for i in (0, 1))


def lift_and_parts(
    evaluator: BoundedSolutionEvaluator, t_grid: Sequence[float], shifts
) -> tuple[TimeScaleSolution, np.ndarray]:
    """:func:`lift` on a grid, and the parts that :func:`as_timescale_function`
    gives on the grid and on its copies moved by each of ``shifts``, shape
    ``(1 + len(shifts), n, 2, m)`` with the grid itself in row 0, all from one
    :meth:`BoundedSolutionEvaluator.parts` batch.  The lift sums row 0's
    parts before a left endpoint jumps, as ``value`` does, so it is the same
    bits as :func:`lift` on the grid."""
    model, t = evaluator.model, _grid(t_grid)
    points = np.add.outer(np.concatenate(([0.0], shifts)), t)
    parts, left, jumps = _on_scale(model, points, evaluator.parts)
    n = t.size
    y = _jumped(model, parts[:n].sum(axis=-2), left[:n], jumps[:n])
    parts = _jumped(model, parts, left, jumps).reshape(points.shape + parts.shape[1:])
    return _lifted(model.ts, t, y, left[:n], jumps[:n]), parts


def as_timescale_function(evaluator: BoundedSolutionEvaluator) -> Callable:
    """Wrap an evaluator's parts as a function on the whole time scale.

    The function takes one point or an array of points and returns the
    parts ``[periodic, sequence]`` with shape ``points.shape + (2, m)``;
    summing over the parts axis gives the full bounded solution.
    """
    def parts(t):
        values = _jumped(evaluator.model, *_on_scale(evaluator.model, t, evaluator.parts))
        return values.reshape(np.shape(t) + values.shape[1:])

    return parts


def delta_residual(model: ImpulsiveModel, sol: TimeScaleSolution, t: float) -> float:
    """Residual of the dynamic equation at a stored sample point.

    At a right-scattered point the delta derivative is the exact difference
    quotient across the hole, so the residual measures how well the stored
    jump satisfies the discrete update.  At right-dense points a one-sided
    forward difference at the solver mesh stands in for the derivative and
    the residual is expected to scale with the mesh step.
    """
    ts = model.ts
    jump = ts.jump_operators(t)  # raises off the scale
    k = ts.locate(t)[0]
    y_t = sol.value(t)
    rhs = model.matrix @ y_t + model.forcing.value(t) + model.sequence.term(k)
    if jump.right_scattered:
        quotient = (sol.value(jump.sigma) - y_t) / ts.gap
        return float(np.linalg.norm(quotient - rhs))
    # the sample after t's own; a left endpoint keeps its value in the
    # endpoint map, so its neighbour is the first sample above it
    i = sample_index(sol.t, t)
    idx = int(np.searchsorted(sol.t, t)) if i is None else i + 1
    if idx >= sol.t.size:
        raise MissingSampleError(f"no forward neighbor stored after t={t!r}")
    t_next = float(sol.t[idx])
    if ts.locate(t_next)[0] != k:
        raise MissingSampleError(
            f"forward neighbor of t={t!r} falls outside its interval"
        )
    quotient = (sol.y[idx] - y_t) / (t_next - t)
    return float(np.linalg.norm(quotient - rhs))
