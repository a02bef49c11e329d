"""Solutions living on the time scale itself: direct simulation of the
dynamic equation, lifting of impulsive-side evaluations through the psi
substitution, delta-derivative residuals, and the periodic/Poisson split.

A solution on the scale stores regular samples for points where psi is
defined and keeps the values at left endpoints (where psi is undefined and
the solution comes from the right limit after a jump) in a separate map so
nothing ever interpolates across a hole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import MissingSampleError, TimeScaleDomainError
from .impulsive import (
    BoundedSolutionEvaluator,
    ImpulsiveModel,
    StabilityCert,
    _rk4_segment,
)
from .timescale import GAP, LEFT_ENDPOINT, RIGHT_ENDPOINT, TimeScaleSpec

_ABSCISSA_RTOL = 2.0 ** -40


@dataclass(frozen=True, eq=False)
class TimeScaleSolution:
    """Sampled solution on the time scale.

    ``t``/``y`` hold strictly increasing samples away from left endpoints;
    ``endpoint_values`` maps ``k`` to the value at ``endpoint(2k+1)``, i.e.
    the state right after the k-th jump.  ``provenance`` records whether the
    object came from direct simulation or from lifting an impulsive-side
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
        idx = int(np.searchsorted(self.t, t))
        for i in (idx - 1, idx, idx + 1):
            if 0 <= i < self.t.size and abs(self.t[i] - t) <= _ABSCISSA_RTOL * max(
                1.0, abs(t)
            ):
                return self.y[i]
        raise MissingSampleError(f"no sample stored at t={t!r}")

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
    """Integrate the dynamic equation directly on the time scale.

    Fourth-order fixed-step integration of ``y' = A y + f(t) + g(t)`` on each
    interval, followed by the exact discrete update
    ``y(next_left) = y(right) + gap * (A y(right) + f(right) + term_k)``
    at each right-scattered endpoint.  ``t0`` may be a left endpoint, in
    which case ``y0`` supplies the value there.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    ts = model.ts
    if not ts.contains(t0):
        raise TimeScaleDomainError(f"t0={t0!r} is not in the time scale")
    if not ts.contains(t_end):
        raise TimeScaleDomainError(f"t_end={t_end!r} is not in the time scale")
    if t_end <= t0:
        raise ValueError(f"requires t0 < t_end, got t0={t0!r}, t_end={t_end!r}")

    A = model.matrix
    y = np.asarray(y0, dtype=float).copy()
    if y.shape != (model.dimension,):
        raise ValueError(f"y0 must have shape ({model.dimension},)")

    samples_t: list[float] = []
    samples_y: list[np.ndarray] = []
    endpoint_values: dict[int, np.ndarray] = {}
    f_at_right = model.forcing.value(ts.anchor)

    k, code = ts.locate(t0)
    if code == LEFT_ENDPOINT:
        endpoint_values[k - 1] = y.copy()
        cursor = ts.endpoint(2 * k - 1)
    else:
        samples_t.append(t0)
        samples_y.append(y.copy())
        cursor = t0

    end_tol = _ABSCISSA_RTOL * max(1.0, abs(t_end))
    while cursor < t_end - end_tol:
        right = ts.endpoint(2 * k)
        seg_end = min(right, t_end)
        length = seg_end - cursor
        if length > _ABSCISSA_RTOL * max(1.0, abs(seg_end)):
            n = max(1, math.ceil(length / step))
            h = length / n
            nodes = cursor + length * np.arange(2 * n + 1) / (2.0 * n)
            u = model.forcing.value_many(nodes) + model.sequence.term(k)
            rec: list[np.ndarray] = []
            y = _rk4_segment(A, u, h, n, y, rec)
            samples_t.extend(cursor + h * (i + 1) for i in range(n - 1))
            samples_t.append(seg_end)
            samples_y.extend(rec)
        if abs(seg_end - right) <= _ABSCISSA_RTOL * max(1.0, abs(right)) and right < t_end - end_tol:
            y = y + ts.gap * (A @ y + f_at_right + model.sequence.term(k))
            endpoint_values[k] = y.copy()
            k += 1
            cursor = ts.endpoint(2 * k - 1)
        else:
            cursor = seg_end
    return TimeScaleSolution(
        ts=ts,
        t=np.asarray(samples_t),
        y=np.vstack(samples_y),
        endpoint_values=endpoint_values,
        provenance="simulated",
    )


def lift(
    model: ImpulsiveModel,
    phi,
    t_grid: Sequence[float],
) -> TimeScaleSolution:
    """Pull an impulsive-side evaluation back onto the time scale.

    ``phi`` is either a :class:`BoundedSolutionEvaluator` or a plain callable
    ``s -> vector``.  Regular grid points map through psi and, for an
    evaluator, are evaluated in one batch; at a left endpoint the value is
    the right limit after the jump (taken from the evaluator's part-aware
    jump when available, else the full jump).
    """
    ts = model.ts
    if isinstance(phi, BoundedSolutionEvaluator):
        values = phi.values
        right_limit = phi.right_limit
    else:

        def values(ss) -> np.ndarray:
            return np.array([np.asarray(phi(s), dtype=float) for s in ss]).reshape(
                len(ss), model.dimension
            )

        def right_limit(k: int) -> np.ndarray:
            x = phi(ts.impulse_point(k))
            pulse = model.matrix @ x + model.forcing.value(ts.anchor)
            pulse = pulse + model.sequence.term(k)
            return x + ts.gap * pulse

    samples_t: list[float] = []
    jumps: list[int] = []
    for t in sorted(float(t) for t in t_grid):
        k, code = ts.locate(t)
        if code == GAP:
            raise TimeScaleDomainError(f"grid point t={t!r} is not in the time scale")
        if code == LEFT_ENDPOINT:
            jumps.append(k - 1)
        elif not samples_t or t > samples_t[-1]:  # skip duplicate grid points
            samples_t.append(t)
    return TimeScaleSolution(
        ts=ts,
        t=np.asarray(samples_t),
        y=values([ts.psi(t) for t in samples_t]),
        endpoint_values={k: np.asarray(right_limit(k), dtype=float) for k in jumps},
        provenance="lifted",
    )


def as_timescale_function(
    model: ImpulsiveModel, evaluator: BoundedSolutionEvaluator
) -> Callable:
    """Wrap an evaluator as a function on the whole time scale.

    The function takes one point or a 1-d array of points and returns a
    vector or an ``(n, m)`` array.  Regular points go through psi in one
    batched evaluation; left endpoints return the jump right limit
    restricted to the evaluator's included forcing parts.
    """
    ts = model.ts

    def theta(t):
        points = np.asarray(t, dtype=float)
        flat = points.reshape(-1).tolist()
        out = np.empty((len(flat), model.dimension))
        regular: list[int] = []
        jumps: dict[int, int] = {}
        for i, x in enumerate(flat):
            k, code = ts.locate(x)
            if code == GAP:
                raise TimeScaleDomainError(f"t={x!r} is not in the time scale")
            if code == LEFT_ENDPOINT:
                jumps[i] = k - 1
            else:
                regular.append(i)
        out[regular] = evaluator.values([ts.psi(flat[i]) for i in regular])
        for i, k in jumps.items():
            out[i] = evaluator.right_limit(k)
        return out.reshape(points.shape + (model.dimension,))

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
    while idx < sol.t.size and abs(sol.t[idx] - t) <= _ABSCISSA_RTOL * max(1.0, abs(t)):
        idx += 1  # skip samples the abscissa snap treats as t itself
    if idx >= sol.t.size:
        raise MissingSampleError(f"no forward neighbor stored after t={t!r}")
    t_next = float(sol.t[idx])
    if t_next > ts.endpoint(2 * k) + _ABSCISSA_RTOL * max(1.0, abs(t_next)):
        raise MissingSampleError(
            f"forward neighbor of t={t!r} falls outside its interval"
        )
    quotient = (sol.y[idx] - y_t) / (t_next - t)
    return float(np.linalg.norm(quotient - rhs))


def decompose(
    model: ImpulsiveModel,
    cert: StabilityCert,
    t_grid: Sequence[float],
    tol: float = 1e-8,
) -> tuple[TimeScaleSolution, TimeScaleSolution]:
    """Split the bounded solution into periodic and Poisson parts on a grid.

    Lifts the periodic-forcing component and the sequence-forcing component
    separately; their sum matches the lift of the full bounded solution to
    within twice the evaluation tolerance pointwise.
    """
    periodic = BoundedSolutionEvaluator(model, cert, tol, include_sequence=False)
    poisson = BoundedSolutionEvaluator(model, cert, tol, include_periodic=False)
    return lift(model, periodic, t_grid), lift(model, poisson, t_grid)
