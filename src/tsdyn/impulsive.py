"""Linear impulsive system obtained from the time-scale equation by the psi
substitution: transition matrices, spectral assumption checks, exponential
decay certificates, forward integration, and the bounded two-sided solution
with its periodic/sequence split.

Between impulse moments the state obeys ``x' = A x + u(s)`` where ``u``
collects the collapsed periodic forcing and the piecewise-constant sequence
forcing; at each impulse moment the state jumps by
``gap * (A x + f(psi_inv(s_k)) + term_k)`` (:meth:`ImpulsiveModel.jump`).

Forward integration is one RK4-plus-jump march (``_march``), run on the
line by ``integrate`` and read back on the time scale by
``dynamic.simulate_dynamic``.  RK4 with constant ``A`` is affine in the
start state and the segment's constant sequence term, so ``_rk4_kernel``
tabulates it once per segment geometry; every whole stride reads one
kernel, since ``f`` has the scale's period.

Because every factor appearing in the transition matrix is a function of the
single matrix ``A``, matrix exponentials and jump factors commute.  The
bounded-solution evaluator uses this to write the convolution over the
infinite past in closed form: the top rows of one augmented matrix exponential
(Van Loan, IEEE TAC 23(3), 1978), tabulated on one stride and carried between
nodes by its action on two weight vectors (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33(2), 2011), an exact geometric sum for the periodic forcing, and a
truncated sum over whole gaps for the sequence forcing.  The two sums give the
periodic and the sequence-driven parts of the solution side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import matrixkit
from .errors import AssumptionError, ConvergenceError, HorizonError, MissingSampleError
from .forcing import PoissonSequence, TrigForcing
from .timescale import TimeScaleSpec, _checked_index, _edge_tol, _snapped_ceil, sample_index

# A1's floor on sigma_min / sigma_max of I + gap*A, its relative distance to
# the nearest singular matrix, which unlike the determinant does not scale with
# m or with A: forming I + gap*A perturbs it by about 1e-16 of its norm, and
# the floor keeps invertibility four decades clear of that round-off.
_RCOND_FLOOR = 1e-12
_RADIUS_MARGIN = 1e-10
_DECAY_SAFETY = 0.9
# Nodes of the certificate's grid over gaps q in [0, stride].
_CERT_GRID = 201
# Degree of the Taylor polynomial between the nodes of the evaluator's table.
_TAYLOR_DEGREE = 15


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` locked against writes: one array serves every caller."""
    a.setflags(write=False)
    return a


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
        object.__setattr__(self, "matrix", _read_only(A))
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

    @cached_property
    def jump_factor(self) -> np.ndarray:
        """Matrix ``I + gap * A`` applied by each impulse (read-only)."""
        return _read_only(np.eye(self.dimension) + self.ts.gap * self.matrix)

    @cached_property
    def jump_rcond(self) -> float:
        """Reciprocal condition number ``sigma_min / sigma_max`` of
        :attr:`jump_factor`, computed once per model; 0 for a zero factor."""
        sigma = np.linalg.svd(self.jump_factor, compute_uv=False)
        return float(sigma[-1] / sigma[0]) if sigma[0] > 0.0 else 0.0

    @cached_property
    def period_map(self) -> np.ndarray:
        """One-period map ``expm(stride * A) @ (I + gap * A)`` (read-only)."""
        return _read_only(matrixkit.expm(self.ts.stride * self.matrix) @ self.jump_factor)

    @cached_property
    def floquet_radius(self) -> float:
        """Spectral radius of :attr:`period_map`, computed once per model."""
        return float(matrixkit.spectral_radius(self.period_map))

    @cached_property
    def forcing_at_impulse(self) -> np.ndarray:
        """``f(psi_inv(s_k))``, the same for every ``k``: each ``psi_inv(s_k)``
        is a right endpoint, a whole number of periods from the anchor."""
        return _read_only(self.forcing.value(self.ts.anchor))

    def jump(self, k: int, x) -> np.ndarray:
        """State right after impulse ``k`` from the state ``x`` at
        ``impulse_point(k)``: ``x + gap * (A x + f(psi_inv(s_k)) + term_k)``.

        ``x`` may also hold the parts ``[periodic, sequence]`` of a state as
        rows of a ``(2, m)`` array; the pulse then splits by row, ``f``
        driving the periodic part and ``term_k`` the sequence part.
        """
        f = self.forcing_at_impulse
        term = self.sequence.term(k)
        if np.ndim(x) == 2:
            f, term = np.stack([f, 0.0 * f]), np.stack([0.0 * term, term])
        return x + self.ts.gap * (x @ self.matrix.T + f + term)


class AssumptionCheck(NamedTuple):
    passed: bool
    value: float


def check_invertible_jump(model: ImpulsiveModel) -> AssumptionCheck:
    """First assumption: the jump factor ``I + gap*A`` is invertible, read as
    :attr:`ImpulsiveModel.jump_rcond` above ``_RCOND_FLOOR``; the value is
    ``det(I + gap*A)``."""
    value = float(np.linalg.det(model.jump_factor))
    return AssumptionCheck(passed=bool(model.jump_rcond > _RCOND_FLOOR), value=value)


def check_contractive_period(model: ImpulsiveModel) -> AssumptionCheck:
    """Second assumption: the one-period transition matrix is a contraction.

    The matrix is :attr:`ImpulsiveModel.period_map`; all its eigenvalues
    must lie strictly inside the unit circle.  The radius is computed once
    per model (:attr:`ImpulsiveModel.floquet_radius`).
    """
    radius = model.floquet_radius
    return AssumptionCheck(passed=bool(radius < 1.0 - _RADIUS_MARGIN), value=radius)


@dataclass(frozen=True)
class StabilityCert:
    """Certified exponential decay of the transition matrices.

    Guarantees ``||U(s, r)|| <= prefactor * exp(-decay_rate * (s - r))`` for
    all ``s >= r``; ``floquet_radius`` is the spectral radius of the
    one-period transition matrix and ``decay_rate`` is 90% of the exact
    Floquet rate, so that the weighted whole-period norms fall below one.
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


def certify(model: ImpulsiveModel) -> StabilityCert:
    """Produce a decay certificate from the spectral assumptions.

    The decay rate is ``rate = 0.9 * (-ln rho) / stride``.  ``A`` commutes
    with ``Q = I + gap*A``, so for ``q = j*stride + q'``, ``0 <= q' < stride``,
    ``U(r+q, r) = B^j expm(A q') Q^i`` with ``B`` the period map and ``i`` in
    {0, 1}, and ``||U(r+q, r)|| e^{rate q} <= g c_j``.  Here ``g`` is the
    maximum of ``max(||E||, ||E Q||) e^{rate q'}``, ``E = expm(A q')``, over
    ``_CERT_GRID`` nodes on ``[0, stride]``, times ``exp((||A|| + rate) h)``
    to reach every ``q'`` within a grid step ``h`` after a node; and
    ``c_j = ||B^j|| e^{rate j stride}``.  These are submultiplicative, so
    once ``c_J <= 1`` each ``c_j <= c_(j mod J)`` and ``sup_j c_j`` is
    exactly ``max(1, c_1, .., c_{J-1})``: the loop stops at the first such
    ``J`` and the prefactor is ``g`` times that supremum.
    """
    a1 = check_invertible_jump(model)
    if not a1.passed:
        raise AssumptionError(f"jump factor is singular "
                              f"(det = {a1.value:.3e}, rcond = {model.jump_rcond:.3e})")
    a2 = check_contractive_period(model)
    if not a2.passed:
        raise AssumptionError(
            f"period map is not a contraction (spectral radius = {a2.value:.10f})"
        )

    A = model.matrix
    stride = model.ts.stride
    rho = a2.value
    rate = _DECAY_SAFETY * (-math.log(rho)) / stride

    qs = np.linspace(0.0, stride, _CERT_GRID)
    E = matrixkit.expm(qs[:, None, None] * A)
    norms = np.maximum(matrixkit.spectral_norm(E), matrixkit.spectral_norm(E @ model.jump_factor))
    grid_max = max(n * math.exp(rate * q) for n, q in zip(norms.tolist(), qs.tolist()))
    h = stride / (_CERT_GRID - 1)
    a_norm = matrixkit.spectral_norm(A)
    try:
        grid_max *= math.exp((a_norm + rate) * h)
    except OverflowError:
        raise ConvergenceError(
            f"certificate grid inflation overflows: ||A|| = {a_norm:.3e}, grid step {h:.3e}"
        ) from None

    B = model.period_map
    growth = math.exp(rate * stride)
    power = np.eye(model.dimension)
    period_factor = weight = 1.0
    for _ in range(5000):
        power = power @ B
        weight *= growth
        c = float(matrixkit.spectral_norm(power)) * weight
        if c <= 1.0:
            break
        period_factor = max(period_factor, c)
    else:
        raise ConvergenceError("weighted period-map norms did not fall below one")

    return StabilityCert(floquet_radius=rho, decay_rate=rate,
                         prefactor=max(1.0, grid_max * period_factor), grid_resolution=_CERT_GRID)


def matriciant(model: ImpulsiveModel, s: float, r: float) -> np.ndarray:
    """Transition matrix ``U(s, r)`` of the homogeneous impulsive system.

    Equals ``expm(A*(s-r))`` times ``Q = I + gap*A`` raised to the number
    ``n`` of impulse moments in ``[r, s)``, taken as ``B^j expm(A q') Q^(n-j)``
    with ``j`` whole period maps ``B``: a large ``Q^n`` never multiplies a
    small exponential.  ``U(s, s)`` is the identity.
    """
    if s < r:
        raise ValueError(f"matriciant requires s >= r, got s={s!r} < r={r!r}")
    count = model.ts.count_impulses(r, s)
    j = min(count, math.floor((s - r) / model.ts.stride))
    E = matrixkit.expm((s - r - j * model.ts.stride) * model.matrix)
    return (np.linalg.matrix_power(model.period_map, j) @ E
            @ np.linalg.matrix_power(model.jump_factor, count - j))


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
        i = sample_index(self.s, s)
        if i is None:
            raise MissingSampleError(f"no sample stored at s={s!r}")
        return self.x[i]


def _rk4_kernel(A, u, h):
    """Classical RK4 for ``y' = A y + u + term`` over ``n`` steps of size
    ``h``, with ``u`` tabulated at the half-step mesh (``2n+1`` nodes) and
    ``term`` constant.  Returns ``(powers, response, gains)``, each indexed
    by step ``i = 1..n``, for the post-step states
    ``y_i = R^i y_0 + Zf_i + G_i term``.

    With constant ``A`` one RK4 step is the affine map ``y <- R y + c_i``,
    where, for ``H = h A``, ``R = I + H + H^2/2 + H^3/6 + H^4/24`` and
    ``c_i = P0 u_2i + Pm u_2i+1 + P1 u_2i+2 + (P0 + Pm + P1) term`` with
    ``P0 = h/6 (I + H + H^2/2 + H^3/4)``, ``Pm = h/6 (4I + 2H + H^2/2)`` and
    ``P1 = h/6 I``.  ``powers`` holds ``R^1..R^n``, built by doubling;
    ``response`` the zero-start response ``Zf`` to ``u``, from the doubling
    scan ``c[d:] += c[:-d] @ (R^d)^T`` (Hillis & Steele, CACM 29(12), 1986);
    and ``gains`` ``G_i = (I + R + .. + R^(i-1)) (P0 + Pm + P1)``, a
    cumulative sum of the powers times ``P0 + Pm + P1``.  The method is unchanged, so results differ
    from a per-step loop only at round-off.  A segment of the same geometry
    and forcing table then costs two ``(n*m, m)`` matrix-vector products,
    whatever its start state and term.
    """
    m = A.shape[0]
    n = (len(u) - 1) // 2
    eye = np.eye(m)
    H = h * A
    H2 = H @ H
    H3 = H2 @ H
    R = eye + H + H2 / 2.0 + H3 / 6.0 + (H2 @ H2) / 24.0
    P0 = (h / 6.0) * (eye + H + H2 / 2.0 + H3 / 4.0)
    Pm = (h / 6.0) * (4.0 * eye + 2.0 * H + H2 / 2.0)
    powers = np.empty((n, m, m))  # powers[i - 1] = R^i
    powers[0] = R
    d = 1
    while d < n:
        powers[d:2 * d] = powers[:min(d, n - d)] @ powers[d - 1]
        d *= 2
    response = u[0:-1:2] @ P0.T + u[1::2] @ Pm.T + (h / 6.0) * u[2::2]
    d = 1
    while d < n:
        response[d:] += response[:-d] @ powers[d - 1].T
        d *= 2
    gains = np.empty((n, m, m))  # gains[i - 1] = G_i, summed in place
    gains[0] = P0 + Pm + (h / 6.0) * eye
    np.matmul(powers[:-1], gains[0], out=gains[1:])
    np.cumsum(gains, axis=0, out=gains)
    return powers, response, gains


def _march(model: ImpulsiveModel, x, s0: float, s1: float, k0: int, k1: int, step: float):
    """The one RK4-plus-jump march, from ``(s0, k0)`` to ``(s1, k1)``.

    A point ``t`` of the time scale is the pair ``(s, k)`` with
    ``t = s + k * gap``, where ``k`` indexes the gap whose impulse is still
    ahead.  Each impulse-free segment is integrated by fixed-step RK4, and
    jump ``k`` fires at ``impulse_point(k)`` for every ``k0 <= k < k1``.
    No segment leaves the stride between two impulses, so one a stride long
    up to rounding runs from impulse to impulse, and every such whole stride
    is the same segment one stride later: the same steps and, ``f`` having
    the scale's period, the same forcing table.  So all of them read one
    :func:`_rk4_kernel`, built on the first one's nodes, and each partial
    segment its own; only the carry across the impulses loops.
    Returns the sample abscissae on the line (left limits at impulse moments,
    the segment ends written exactly), the states and the jump records.
    """
    ts, m = model.ts, model.dimension
    impulses = np.asarray(ts.impulse_point(np.arange(k0, k1)), dtype=float)
    starts = np.append(s0, impulses)
    ends = np.append(impulses, s1)
    lengths = ends - starts
    live = lengths > _edge_tol(ends)
    whole = np.abs(lengths - ts.stride) <= _edge_tol(ends)
    # a length that is a whole number of steps up to rounding takes that
    # many, whichever coordinates it was measured in
    counts = np.ones(lengths.size, dtype=np.int64)
    counts[live] = np.maximum(1, _checked_index(_snapped_ceil(lengths[live] / step)))
    rows = 1 + int(counts[live].sum())
    ss = np.empty(rows)
    xs = np.empty((rows, m))
    ss[0], xs[0] = s0, x
    jumps: list[JumpRecord] = []
    strides = {}  # the kernel of the whole strides, by step count
    pos = 1
    for i, k in enumerate(range(k0, k1 + 1)):
        cursor, seg_end = float(starts[i]), float(ends[i])
        if live[i]:
            n = int(counts[i])
            h = (seg_end - cursor) / n
            kernel = strides.get(n) if whole[i] else None
            if kernel is None:
                nodes = cursor + (seg_end - cursor) * np.arange(2 * n + 1) / (2.0 * n)
                kernel = _rk4_kernel(model.matrix, model.forcing.value_many(nodes + k * ts.gap), h)
                if whole[i]:
                    strides[n] = kernel
            powers, response, gains = kernel
            term = model.sequence.term(k)
            out = xs[pos:pos + n]
            out[:] = (powers.reshape(-1, m) @ x).reshape(n, m)
            out += response
            out += (gains.reshape(-1, m) @ term).reshape(n, m)
            ss[pos:pos + n - 1] = cursor + h * np.arange(1, n)
            ss[pos + n - 1] = seg_end
            pos += n
            x = out[-1].copy()  # the jump record keeps its own row
        if k < k1:
            before = x
            x = model.jump(k, x)
            jumps.append(JumpRecord(index=k, s=seg_end, before=before, after=x))
    return ss, xs, tuple(jumps)


def integrate(
    model: ImpulsiveModel,
    x0,
    s0: float,
    s1: float,
    step: float,
) -> Trajectory:
    """Integrate the impulsive system from ``s0`` to ``s1``.

    Classical fixed-step fourth-order integration on each impulse-free
    segment, with the mesh split exactly at every impulse moment where
    :meth:`ImpulsiveModel.jump` is applied.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    if s1 < s0:
        raise ValueError(f"requires s0 <= s1, got s0={s0!r}, s1={s1!r}")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (model.dimension,):
        raise ValueError(f"x0 must have shape ({model.dimension},)")
    ts = model.ts
    k0, k1 = ts.impulse_index_below(s0) + 1, ts.impulse_index_below(s1) + 1
    s, x, jumps = _march(model, x, s0, s1, k0, k1, step)
    return Trajectory(s=s, x=x, jumps=jumps)


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
      row ``[E, F, K](L)`` of ``expm(L G)``, ``G = [[A, C, I], [0, W, 0], [0, 0, 0]]``,
      holds ``expm(A L)``, the periodic integral map and the sequence kernel.
    * That row is tabulated at ``x_i = i h``, ``h = stride / n``, ``n =
      ceil(stride * max(1, ||A||_1, ||W||_1))``, from one ``expm(h G)``; at
      ``L = x_i + delta``, ``|delta| <= h/2``, node ``i`` acts on the degree-15
      Taylor polynomial of ``expm(delta G)`` on the point's weights, whose
      remainder is below the unit roundoff: 7.6e-19 in the diagonal blocks,
      2.5e-17 ``|delta|`` times ``||C||_1`` and 1 in the blocks of C and I.
    * The whole gaps of the periodic part form a geometric series, summed
      exactly as ``E(L) (I - B)^{-1} a``.
    * The whole gaps of the sequence part are truncated at ``horizon``,
      where the certified exponential tail drops below half of ``tol``; the
      other half is margin.  Their sum is one contraction of the stack
      ``B^j (gap I + Q K)`` against the sequence terms.  A point ``s`` reads
      the terms ``impulse_index_below(s - horizon) + 1 .. impulse_index_below(s) + 1``,
      at most ``depth = ceil(horizon / stride) + 1`` whole gaps of them.
      ``horizon`` rests on ``sup_bound``, the :func:`solution_bound` of the
      ceilings ``sup_forcing`` and ``sup_sequence`` of the two forcings.

    :meth:`parts` returns the periodic component and the sequence-driven
    component side by side, both from the same row of the table;
    :meth:`value` is their sum, the full bounded solution.  Both act
    elementwise, a scalar being the 0-d case.  At the left endpoint after
    impulse ``k`` the solution is ``model.jump(k, value(impulse_point(k)))``.

    Nothing on an instance changes after construction, so instances are safe
    for concurrent evaluation and every call gives the bits a fresh instance
    gives.
    """

    def __init__(self, model: ImpulsiveModel, cert: StabilityCert, tol: float = 1e-8) -> None:
        if tol <= 0.0:
            raise ValueError(f"tol must be positive, got {tol!r}")
        self.model = model
        self.cert = cert
        self.tol = float(tol)

        ts = model.ts
        m = model.dimension
        self.sup_forcing = model.forcing.sup_norm(ts)
        self.sup_sequence = model.sequence.ceiling
        self.sup_bound = solution_bound(cert, ts, self.sup_forcing, self.sup_sequence)
        if self.sup_bound > 0.0:
            self.horizon = max(
                ts.stride, math.log(2.0 * self.sup_bound / self.tol) / cert.decay_rate
            )
        else:
            self.horizon = ts.stride

        C, W, z0 = model.forcing.realization(ts.anchor + ts.gap)
        d = W.shape[0]
        generator = np.zeros((2 * m + d, 2 * m + d))
        generator[:m, :m] = model.matrix
        generator[:m, m:m + d] = C
        generator[:m, m + d:] = np.eye(m)
        generator[m:m + d, m:m + d] = W
        self._generator = _read_only(generator)
        n = math.ceil(ts.stride * max(1.0, np.linalg.norm(model.matrix, 1), np.linalg.norm(W, 1)))
        self._node_step = ts.stride / n
        table = [np.eye(m, 2 * m + d)]
        step = matrixkit.expm(self._node_step * generator)
        for _ in range(n):
            table.append(table[-1] @ step)
        self._table = _read_only(np.array(table))
        E, F, K = table[-1][:, :m], table[-1][:, m:m + d], table[-1][:, m + d:]
        Q = model.jump_factor
        B = E @ Q
        # periodic head: sum over j >= 0 of B^j (gap f(s_k) + Q F z0)
        head = np.linalg.solve(np.eye(m) - B, ts.gap * model.forcing_at_impulse + Q @ (F @ z0))
        self._head_weights = _read_only(np.concatenate([head, z0, np.zeros(m)]))
        # ceil(horizon / stride) gaps cover the horizon; the index snap adds one
        self.depth = math.ceil(self.horizon / ts.stride) + 1
        stack = np.empty((self.depth, m, m))
        stack[0] = ts.gap * np.eye(m) + Q @ K
        for j in range(1, stack.shape[0]):
            stack[j] = B @ stack[j - 1]
        self._gap_stack = _read_only(stack)

    # -- public API ----------------------------------------------------

    def value(self, s) -> np.ndarray:
        """Bounded-solution values at ``s``, elementwise, shape
        ``np.shape(s) + (m,)`` (left limits at impulse moments)."""
        return self.parts(s).sum(axis=-2)

    def parts(self, s) -> np.ndarray:
        """Periodic and sequence-driven parts at ``s``, elementwise, shape
        ``np.shape(s) + (2, m)`` with rows ``[periodic, sequence]``.

        Both rows are the point's node of the table applied to the Taylor
        polynomial acting on ``[head, z0, 0]`` and ``[walk, 0, term]``; points
        below the same impulse with the same depth share one walk over the gaps.
        """
        ts = self.model.ts
        m = self.model.dimension
        seq = self.model.sequence
        shape = np.shape(s)
        s = np.asarray(s, dtype=float).reshape(-1)
        k_hi = ts.impulse_index_below(s)
        # the deepest gap covered starts at impulse_index_below(x - horizon),
        # so the dropped tail lies at distance >= horizon from x
        below = ts.impulse_index_below(s - self.horizon)
        if s.size and below.min() + 1 < seq.min_index():
            raise HorizonError(
                f"truncation horizon needs sequence index {below.min() + 1} but the "
                f"sequence starts at {seq.min_index()}; deepen the seed index"
            )
        keys, walk_of = np.unique(np.stack([k_hi, k_hi - below], axis=1), axis=0,
                                  return_inverse=True)
        key_weights = np.zeros((len(keys), 2, self._generator.shape[0]))
        key_weights[:, 0] = self._head_weights
        for row, (k, depth) in zip(key_weights[:, 1], keys.tolist()):
            # the sum over the depth whole gaps ending at impulse k, and the
            # term k + 1 driving the partial segment above it
            terms = seq.terms(k - depth + 1, k + 1)
            row[:m] = np.einsum("jab,jb->a", self._gap_stack[depth - 1::-1], terms[:-1])
            row[-m:] = terms[-1]
        weights = key_weights[walk_of.reshape(-1)]  # numpy 2.0.0 returns shape (n, 1)
        lengths = s - ts.impulse_point(k_hi)
        node = np.clip(np.rint(lengths / self._node_step), 0, len(self._table) - 1).astype(int)
        delta = (lengths - node * self._node_step)[:, None, None]
        action = weights  # Horner's rule on the weights, one point per product
        for j in range(_TAYLOR_DEGREE, 0, -1):
            action = action @ self._generator.T
            action *= delta / j
            action += weights
        parts = np.empty((s.size, 2, m))
        for i, rows in enumerate(self._table):
            at = node == i
            parts[at] = action[at] @ rows.T
        return parts.reshape(shape + (2, m))
