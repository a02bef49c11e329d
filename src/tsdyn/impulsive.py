"""Linear impulsive system obtained from the time-scale equation by the psi
substitution: transition matrices, spectral assumption checks, exponential
decay certificates, forward integration, and the bounded two-sided solution
with its periodic/sequence split.

Between impulse moments the state obeys ``x' = A x + u(s)`` where ``u``
collects the collapsed periodic forcing and the piecewise-constant sequence
forcing; at each impulse moment the state jumps by
``gap * (A x + f(psi_inv(s_k)) + term_k)``.

Because every factor appearing in the transition matrix is a function of the
single matrix ``A``, matrix exponentials and jump factors commute.  The
bounded-solution evaluator uses this to write the convolution over the
infinite past in closed form: one augmented matrix exponential per partial
segment (Van Loan, "Computing integrals involving the matrix exponential",
IEEE TAC 23(3), 1978), an exact geometric sum for the periodic forcing, and a
truncated sum over whole gaps for the sequence forcing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matrixkit
from .errors import AssumptionError, ConvergenceError, HorizonError, MissingSampleError
from .forcing import PoissonSequence, TrigForcing
from .timescale import TimeScaleSpec

_DET_FLOOR = 1e-10
_RADIUS_MARGIN = 1e-10
_DECAY_SAFETY = 0.9
_ABSCISSA_RTOL = 2.0 ** -40


@dataclass(frozen=True, eq=False)
class ImpulsiveModel:
    """Constant-matrix linear model on a periodic interval time scale."""

    matrix: np.ndarray
    ts: TimeScaleSpec
    forcing: TrigForcing
    sequence: PoissonSequence

    def __post_init__(self) -> None:
        A = np.asarray(self.matrix, dtype=float).copy()
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"system matrix must be square, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("system matrix must have finite entries")
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)
        m = A.shape[0]
        if self.forcing.dimension != m:
            raise ValueError(
                f"forcing dimension {self.forcing.dimension} != system dimension {m}"
            )
        if self.sequence.dimension != m:
            raise ValueError(
                f"sequence dimension {self.sequence.dimension} != system dimension {m}"
            )
        if self.forcing.period != self.ts.period:
            raise ValueError("forcing period must equal the time-scale period")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def jump_factor(self) -> np.ndarray:
        """Matrix ``I + gap * A`` applied by each impulse."""
        return np.eye(self.dimension) + self.ts.gap * self.matrix


class AssumptionCheck(NamedTuple):
    passed: bool
    value: float


def check_invertible_jump(model: ImpulsiveModel) -> AssumptionCheck:
    """First assumption: the jump factor ``I + gap*A`` is invertible."""
    value = float(matrixkit.det(model.jump_factor))
    return AssumptionCheck(passed=bool(abs(value) > _DET_FLOOR), value=value)


def check_contractive_period(model: ImpulsiveModel) -> AssumptionCheck:
    """Second assumption: the one-period transition matrix is a contraction.

    The matrix is ``expm(stride * A) @ (I + gap*A)``; all its eigenvalues
    must lie strictly inside the unit circle.
    """
    B = matrixkit.expm(model.ts.stride * model.matrix) @ model.jump_factor
    radius = float(matrixkit.spectral_radius(B))
    return AssumptionCheck(passed=bool(radius < 1.0 - _RADIUS_MARGIN), value=radius)


@dataclass(frozen=True)
class StabilityCert:
    """Certified exponential decay of the transition matrices.

    Guarantees ``||U(s, r)|| <= prefactor * exp(-decay_rate * (s - r))`` for
    all ``s >= r``; ``floquet_radius`` is the spectral radius of the
    one-period transition matrix and ``decay_rate`` is 90% of the exact
    Floquet rate, leaving margin for the finite-grid prefactor estimate.
    """

    floquet_radius: float
    decay_rate: float
    prefactor: float
    grid_resolution: int

    def __post_init__(self) -> None:
        if not (0.0 < self.floquet_radius < 1.0):
            raise ValueError("certificate requires a contractive period map")
        if self.decay_rate <= 0.0 or self.prefactor < 1.0:
            raise ValueError("certificate requires decay_rate > 0 and prefactor >= 1")


def certify(model: ImpulsiveModel, grid_resolution: int = 201) -> StabilityCert:
    """Produce a decay certificate from the spectral assumptions.

    The decay rate is ``0.9 * (-ln rho) / stride``.  The prefactor is built
    from a grid maximum of ``||U(r+q, r)|| * exp(rate*q)`` over gaps ``q`` up
    to two periods (the impulse count over a window of length ``q`` takes
    only the two integer values bracketing ``q/stride``, so the supremum over
    ``r`` is exact), a Lipschitz inflation covering off-grid gaps, and a
    whole-period factor ``sup_j ||B^j|| exp(rate*j*stride)`` through which
    transitions over longer gaps factor.
    """
    a1 = check_invertible_jump(model)
    if not a1.passed:
        raise AssumptionError(f"jump factor is singular (det = {a1.value:.3e})")
    a2 = check_contractive_period(model)
    if not a2.passed:
        raise AssumptionError(
            f"period map is not a contraction (spectral radius = {a2.value:.10f})"
        )
    if grid_resolution < 8:
        raise ValueError("grid_resolution must be at least 8")

    A = model.matrix
    stride = model.ts.stride
    rho = a2.value
    rate = _DECAY_SAFETY * (-math.log(rho)) / stride
    Q = model.jump_factor

    qs = np.linspace(0.0, 2.0 * stride, grid_resolution)
    grid_max = 0.0
    for q in qs:
        E = matrixkit.expm(q * A)
        ratio = q / stride
        counts = {int(math.floor(ratio)), int(math.ceil(ratio))}
        for i in counts:
            norm = matrixkit.spectral_norm(E @ matrixkit.int_power(Q, i))
            grid_max = max(grid_max, norm * math.exp(rate * q))
    h = 2.0 * stride / (grid_resolution - 1)
    a_norm = matrixkit.spectral_norm(A)
    grid_max *= math.exp((a_norm + rate) * h)

    # sup over j of ||B^j|| e^{rate*j*stride}; the summand decays like
    # rho^(0.1 j) asymptotically, so the running maximum freezes quickly.
    B = matrixkit.expm(stride * A) @ Q
    growth = math.exp(rate * stride)
    power = np.eye(model.dimension)
    period_factor = 1.0
    weight = 1.0
    for j in range(1, 5000):
        power = power @ B
        weight *= growth
        c = matrixkit.spectral_norm(power) * weight
        period_factor = max(period_factor, c)
        if c < 1e-9 * period_factor and j >= 8:
            break
    else:
        raise ConvergenceError("whole-period factor did not stabilize")

    prefactor = max(1.0, grid_max ** 3 * period_factor)
    return StabilityCert(
        floquet_radius=rho,
        decay_rate=rate,
        prefactor=prefactor,
        grid_resolution=int(grid_resolution),
    )


def matriciant(model: ImpulsiveModel, s: float, r: float) -> np.ndarray:
    """Transition matrix ``U(s, r)`` of the homogeneous impulsive system.

    Equals ``expm(A*(s-r))`` times the jump factor raised to the number of
    impulse moments in ``[r, s)``; ``U(s, s)`` is the identity.
    """
    if s < r:
        raise ValueError(f"matriciant requires s >= r, got s={s!r} < r={r!r}")
    count = model.ts.count_impulses(r, s)
    E = matrixkit.expm((s - r) * model.matrix)
    return E @ matrixkit.int_power(model.jump_factor, count)


# ----------------------------------------------------------------------
# forward integration


@dataclass(frozen=True)
class JumpRecord:
    """State values on both sides of one impulse."""

    index: int
    s: float
    before: np.ndarray
    after: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of the impulsive system on the line.

    ``s`` holds strictly increasing sample abscissae carrying the
    left-limit value at impulse moments; ``jumps`` records both one-sided
    values at every impulse crossed.
    """

    s: np.ndarray
    x: np.ndarray
    jumps: tuple[JumpRecord, ...]

    def __post_init__(self) -> None:
        if np.any(np.diff(self.s) <= 0.0):
            raise ValueError("sample abscissae must be strictly increasing")

    def value(self, s: float) -> np.ndarray:
        """Sample value at abscissa ``s`` (must match a stored mesh point)."""
        idx = int(np.searchsorted(self.s, s))
        for i in (idx - 1, idx, idx + 1):
            if 0 <= i < self.s.size and abs(self.s[i] - s) <= _ABSCISSA_RTOL * max(
                1.0, abs(s)
            ):
                return self.x[i]
        raise MissingSampleError(f"no sample stored at s={s!r}")


def _rk4_segment(A, u_half_nodes, h, n, y0, record=None):
    """Classical RK4 for ``y' = A y + u`` with forcing pre-tabulated at the
    half-step mesh (2n+1 nodes).  Appends every post-step state to record."""
    y = y0
    for i in range(n):
        u0 = u_half_nodes[2 * i]
        um = u_half_nodes[2 * i + 1]
        u1 = u_half_nodes[2 * i + 2]
        k1 = A @ y + u0
        k2 = A @ (y + 0.5 * h * k1) + um
        k3 = A @ (y + 0.5 * h * k2) + um
        k4 = A @ (y + h * k3) + u1
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if record is not None:
            record.append(y)
    return y


def _collapsed_forcing_nodes(model: ImpulsiveModel, a: float, b: float, n: int, k: int):
    """Forcing ``f(psi_inv(s)) + term_k`` tabulated at the half-step mesh of
    an impulse-free segment ``[a, b]`` inside gap index ``k``."""
    nodes = a + (b - a) * np.arange(2 * n + 1) / (2.0 * n)
    fvals = model.forcing.value_many(nodes + k * model.ts.gap)
    return fvals + model.sequence.term(k)


def integrate(
    model: ImpulsiveModel,
    x0,
    s0: float,
    s1: float,
    step: float,
) -> Trajectory:
    """Integrate the impulsive system from ``s0`` to ``s1``.

    Classical fixed-step fourth-order integration on each impulse-free
    segment, with the mesh split exactly at every impulse moment where the
    state jump ``gap * (A x + f(psi_inv(s_k)) + term_k)`` is applied.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    if s1 < s0:
        raise ValueError(f"requires s0 <= s1, got s0={s0!r}, s1={s1!r}")
    A = model.matrix
    ts = model.ts
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (model.dimension,):
        raise ValueError(f"x0 must have shape ({model.dimension},)")

    ss: list[float] = [s0]
    xs: list[np.ndarray] = [x]
    jumps: list[JumpRecord] = []
    f_at_right = model.forcing.value(ts.anchor)  # f(psi_inv(s_k)) for every k

    cursor = s0
    k = ts.impulse_index_below(s0) + 1  # gap index containing (cursor, next impulse]
    while cursor < s1 - _ABSCISSA_RTOL * max(1.0, abs(s1)):
        seg_end = min(ts.impulse_point(k), s1)
        length = seg_end - cursor
        if length > _ABSCISSA_RTOL * max(1.0, abs(seg_end)):
            n = max(1, math.ceil(length / step))
            u = _collapsed_forcing_nodes(model, cursor, seg_end, n, k)
            rec: list[np.ndarray] = []
            x = _rk4_segment(A, u, length / n, n, x, rec)
            h = length / n
            ss.extend(cursor + h * (i + 1) for i in range(n - 1))
            ss.append(seg_end)  # last abscissa written exactly
            xs.extend(rec)
        sk = ts.impulse_point(k)
        if abs(seg_end - sk) <= _ABSCISSA_RTOL * max(1.0, abs(sk)) and sk < s1:
            before = x
            x = x + ts.gap * (A @ x + f_at_right + model.sequence.term(k))
            jumps.append(JumpRecord(index=k, s=sk, before=before, after=x))
            k += 1
        cursor = seg_end
    return Trajectory(s=np.asarray(ss), x=np.vstack(xs), jumps=tuple(jumps))


# ----------------------------------------------------------------------
# bounded solution


def solution_bound(cert: StabilityCert, ts: TimeScaleSpec, sup_f: float, sup_seq: float) -> float:
    """Certified ceiling for the bounded solution's sup norm.

    ``N * (sup_f + sup_seq) * (1/lambda + gap / (1 - exp(-lambda * stride)))``:
    the integral of the decay envelope over the past plus its sum over the
    impulses.
    """
    rate = cert.decay_rate
    geometry = 1.0 / rate + ts.gap / (1.0 - math.exp(-rate * ts.stride))
    return cert.prefactor * (sup_f + sup_seq) * geometry


class BoundedSolutionEvaluator:
    """Evaluator of the unique bounded solution in closed form.

    The solution at ``s`` is the integral of ``U(s, r)`` against the total
    forcing over ``(-inf, s]`` plus the impulse sum over moments below ``s``.
    It splits into the partial segment ``(s_k, s]`` back to the last impulse,
    of length ``L``, and whole gaps, each one factor of the one-period map
    ``B = expm(stride*A) (I + gap*A)`` further back.

    * On every segment the periodic forcing is ``C z`` with ``z' = W z``
      (:meth:`TrigForcing.realization`, started at the phase of a left
      interval endpoint) and the sequence term is constant, so the top block
      row of ``expm(L * [[A, C, I], [0, W, 0], [0, 0, 0]])`` holds
      ``expm(A L)``, the periodic integral map and the sequence kernel.
    * The whole gaps of the periodic part form a geometric series, summed
      exactly as ``expm(A L) (I - B)^{-1} a``.
    * The whole gaps of the sequence part are truncated at ``horizon``,
      where the certified exponential tail drops below half of ``tol``; the
      other half is margin.  Their sum is one contraction of the stack
      ``B^j G`` against the sequence terms.

    ``include_periodic`` / ``include_sequence`` select which forcing parts
    enter, yielding the periodic component, the sequence-driven component,
    or (both) the full bounded solution.  Instances are immutable after
    construction and safe for concurrent evaluation.
    """

    def __init__(
        self,
        model: ImpulsiveModel,
        cert: StabilityCert,
        tol: float = 1e-8,
        include_periodic: bool = True,
        include_sequence: bool = True,
    ) -> None:
        if tol <= 0.0:
            raise ValueError(f"tol must be positive, got {tol!r}")
        self.model = model
        self.cert = cert
        self.tol = float(tol)
        self.include_periodic = bool(include_periodic)
        self.include_sequence = bool(include_sequence)

        ts = model.ts
        m = model.dimension
        self._f_at_right = model.forcing.value(ts.anchor)
        self.sup_bound = solution_bound(
            cert, ts, model.forcing.sup_norm(ts), _sequence_ceiling(model.sequence)
        )
        if self.sup_bound > 0.0:
            self.horizon = max(
                ts.stride, math.log(2.0 * self.sup_bound / self.tol) / cert.decay_rate
            )
        else:
            self.horizon = ts.stride

        C, W, self._z0 = model.forcing.realization(ts.anchor + ts.gap)
        d = W.shape[0]
        generator = np.zeros((2 * m + d, 2 * m + d))
        generator[:m, :m] = model.matrix
        generator[:m, m:m + d] = C
        generator[:m, m + d:] = np.eye(m)
        generator[m:m + d, m:m + d] = W
        self._generator = generator

        whole = self._segment(ts.stride)
        E, F, G = whole[:, :m], whole[:, m:m + d], whole[:, m + d:]
        Q = model.jump_factor
        B = E @ Q
        # periodic head: sum over j >= 0 of B^j (gap f(s_k) + Q F z0)
        self._periodic_head = np.linalg.solve(
            np.eye(m) - B, ts.gap * self._f_at_right + Q @ (F @ self._z0)
        )
        # a point walks at most horizon/stride + 2 whole gaps (index snapping adds one)
        stack = np.empty((int(self.horizon // ts.stride) + 3, m, m))
        stack[0] = ts.gap * np.eye(m) + Q @ G
        for j in range(1, stack.shape[0]):
            stack[j] = B @ stack[j - 1]
        self._gap_stack = stack

    # -- public API ----------------------------------------------------

    def value(self, s: float) -> np.ndarray:
        """Bounded-solution value at ``s`` (left limit at impulse moments)."""
        return self.values([s])[0]

    def values(self, s) -> np.ndarray:
        """Bounded-solution values at a 1-d array of points, shape ``(n, m)``.

        Each point costs one matrix-vector product; points with equal
        partial length share one segment exponential, and points below the
        same impulse with the same depth share one walk over the gaps.
        """
        ts = self.model.ts
        m = self.model.dimension
        s = np.asarray(s, dtype=float).reshape(-1)
        k_hi = [ts.impulse_index_below(x) for x in s]
        lengths, which = np.unique(
            [x - ts.impulse_point(k) for x, k in zip(s, k_hi)], return_inverse=True
        )
        # value = segment(L) @ [head, z0, term of the partial segment]
        weights = np.zeros((s.size, self._generator.shape[0]))
        if self.include_periodic:
            weights[:, :m] = self._periodic_head
            weights[:, m:-m] = self._z0
        if self.include_sequence:
            # the deepest gap covered starts at impulse_index_below(x - horizon),
            # so the dropped tail lies at distance >= horizon from x
            depths = [k - ts.impulse_index_below(x - self.horizon) for x, k in zip(s, k_hi)]
            walks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
            for i, key in enumerate(zip(k_hi, depths)):
                if key not in walks:
                    walks[key] = self._gap_walk(*key)
                head, term = walks[key]
                weights[i, :m] += head
                weights[i, -m:] = term
        segments = [self._segment(L) for L in lengths]
        out = np.empty((s.size, m))
        for i, j in enumerate(which):
            out[i] = segments[j] @ weights[i]
        return out

    def right_limit(self, k: int) -> np.ndarray:
        """Right-limit value just after the impulse at ``impulse_point(k)``."""
        return self.jump_image(k, self.value(self.model.ts.impulse_point(k)))

    def jump_image(self, k: int, x: np.ndarray) -> np.ndarray:
        """Apply the impulse-k jump to ``x``, restricted to the included parts."""
        pulse = self.model.matrix @ x
        if self.include_periodic:
            pulse = pulse + self._f_at_right
        if self.include_sequence:
            pulse = pulse + self.model.sequence.term(k)
        return x + self.model.ts.gap * pulse

    # -- internals -----------------------------------------------------

    def _segment(self, length: float) -> np.ndarray:
        """Top block row ``[expm(A L), F(L), K(L)]`` of the augmented exponential."""
        return matrixkit.expm(length * self._generator)[: self.model.dimension]

    def _gap_walk(self, k: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Sequence sum over the ``depth`` whole gaps ending at impulse ``k``,
        and the term ``k + 1`` driving the partial segment above it."""
        seq = self.model.sequence
        seq_min = seq.min_index()
        if k - depth + 1 < seq_min:
            raise HorizonError(
                f"truncation horizon needs sequence index {k - depth + 1} but the "
                f"sequence starts at {seq_min}; deepen the seed index"
            )
        terms = seq.terms(k - depth + 1, k + 1)
        head = np.einsum("jab,jb->a", self._gap_stack[depth - 1::-1], terms[:-1])
        return head, terms[-1]


# ----------------------------------------------------------------------
# helpers


def _sequence_ceiling(seq: PoissonSequence) -> float:
    if hasattr(seq, "max_index"):
        return seq.sup_norm(seq.min_index(), seq.max_index()).ceiling
    return seq.sup_norm(seq.min_index(), seq.min_index()).ceiling
