"""Property tests on random stable systems: the decay certificate bounds the
transition matrices, also of far-from-normal systems, over thirty periods and
its stacked grid gives the bits of a per-node loop,
and for the closed-form bounded-solution evaluator, batched and single-point
evaluation agree, the value matches forward integration from two horizons
back at tolerances 1e-6, 1e-8 and 1e-11, its node table matches one Pade
exponential per point and keeps its size under a louder forcing, the
periodic component is stride-periodic, the two components sum to
the full solution, left endpoints evaluated inside a lifted batch or by the
function on the scale are the jumps of single-point values, and an instance
that has served earlier calls gives the bits of a fresh one; no point walks
more whole gaps than the evaluator's depth.  The RK4 kernel agrees with a
plain per-step RK4 loop, stable or not, and so does ``integrate``, whose whole
strides share one kernel, on forced models with the abscissae in every bit;
the early-abandoning return-time scan,
one loop for every sequence kind, finds exactly the records of a full scan, on
table and logistic sequences, whose rank-one form (logistic only) gives the
bits of their terms.  A logistic defect is read in closed form,
``||C|| * max |z[k + zeta] - z[k]|``, so it is within 4.5e-16 relative of
exact arithmetic and does not change when the output map's signs flip."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tsdyn import (
    BoundedSolutionEvaluator,
    ForcingComponent,
    Harmonic,
    ImpulsiveModel,
    LogisticSequence,
    StabilityCert,
    TableSequence,
    TimeScaleSpec,
    TrigForcing,
    as_timescale_function,
    certify,
    check_contractive_period,
    check_invertible_jump,
    compact_grid,
    decompose,
    find_return_times,
    integrate,
    lift,
    matriciant,
    recurrence_defect,
)
from tsdyn import forcing, impulsive, matrixkit
from tsdyn.impulsive import _rk4_kernel
from tsdyn.timescale import LEFT_ENDPOINT, _BOUNDARY_RTOL, _edge_tol, _snapped_ceil

# Deterministic example generation keeps the suite reproducible.
PROPERTY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
TOL = 1e-6

coefficient = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def stable_models(draw):
    m = draw(st.integers(1, 8))
    period = draw(st.sampled_from([6.0, 7.0, 8.0]))
    gap = draw(st.floats(0.2, 0.5)) * period
    anchor = draw(st.floats(0.0, 0.9)) * (period - gap)
    ts = TimeScaleSpec(anchor=anchor, period=period, gap=gap)

    rates = draw(st.lists(st.floats(0.5, 1.5), min_size=m, max_size=m))
    coupling = np.array(
        draw(st.lists(st.floats(-0.15, 0.15), min_size=m * m, max_size=m * m))
    ).reshape(m, m)
    matrix = coupling - np.diag(rates) - np.diag(np.diag(coupling))

    components = []
    for _ in range(m):
        orders = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True))
        harmonics = tuple(Harmonic(n, draw(coefficient), draw(coefficient)) for n in orders)
        components.append(ForcingComponent(draw(coefficient), harmonics))
    forcing = TrigForcing(period, tuple(components))

    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        sequence = TableSequence({k: rng.uniform(-1.0, 1.0, m) for k in range(-1000, 101)})
    else:
        sequence = LogisticSequence(
            draw(st.floats(3.6, 4.0)), draw(st.floats(0.1, 0.9)), k_min=-2000,
            output_map=rng.uniform(-1.0, 1.0, m),
        )
    model = ImpulsiveModel(matrix=matrix, ts=ts, forcing=forcing, sequence=sequence)
    assume(check_invertible_jump(model).passed)
    assume(check_contractive_period(model).passed)
    return model


points = st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6)


def _scale(y) -> float:
    return max(1.0, float(np.max(np.abs(y))))


@PROPERTY_SETTINGS
@given(model=stable_models(), s=points)
def test_batched_matches_single_point(model, s):
    ev = BoundedSolutionEvaluator(model, certify(model), TOL)
    assert ev.depth == math.ceil(ev.horizon / model.ts.stride) + 1
    batched = ev.value(s)
    single = np.array([ev.value(x) for x in s])
    assert batched.shape == (len(s), model.dimension)
    assert np.max(np.abs(batched - single)) <= 1e-12 * _scale(single)


@PROPERTY_SETTINGS
@given(model=stable_models(), s=points)
def test_components(model, s):
    cert = certify(model)
    ev = BoundedSolutionEvaluator(model, cert, TOL)
    parts = ev.parts(s)
    assert parts.shape == (len(s), 2, model.dimension)
    assert np.array_equal(parts.sum(axis=1), ev.value(s))
    here = parts[:, 0]
    shifted = ev.parts(np.asarray(s) + model.ts.stride)[:, 0]
    assert np.max(np.abs(shifted - here)) <= 1e-12 * _scale(here)
    # superposition: each part is the bounded solution under its own forcing alone
    m, ts = model.dimension, model.ts
    quiet = TableSequence({k: np.zeros(m) for k in range(-1000, 101)})
    periodic_only = ImpulsiveModel(model.matrix, ts, model.forcing, quiet)
    sequence_only = ImpulsiveModel(model.matrix, ts, TrigForcing.zero(m, ts.period), model.sequence)
    periodic = BoundedSolutionEvaluator(periodic_only, cert, TOL).value(s)
    assert np.max(np.abs(periodic - here)) <= 1e-12 * _scale(here)
    sequence = BoundedSolutionEvaluator(sequence_only, cert, TOL).value(s)
    assert np.max(np.abs(sequence - parts[:, 1])) <= TOL


@PROPERTY_SETTINGS
@given(model=stable_models(), s=points)
# 1e-12 past the impulse at 0 is outside the snap at right endpoint 0 and
# inside the one at left endpoint 1, across the hole, so impulse_index_below
# and psi_inv must read the same snap
@example(
    model=ImpulsiveModel(
        matrix=np.array([[-1.0]]), ts=TimeScaleSpec(anchor=0.0, period=6.0, gap=3.0),
        forcing=TrigForcing(6.0, (ForcingComponent(0.0, (Harmonic(1, 0.0, 0.0),)),)),
        sequence=LogisticSequence(3.7, 0.4, k_min=-2000, output_map=[1.0]),
    ),
    s=[1e-12],
)
def test_left_endpoints_join_the_batch(model, s):
    # lift and decompose evaluate each left endpoint inside their one batch,
    # at the impulse before it; the result must be the jump of that impulse's
    # single-point evaluation, bit for bit
    ev = BoundedSolutionEvaluator(model, certify(model), TOL)
    ts = model.ts
    s = np.asarray(s)
    impulses = ts.impulse_index_below(s).tolist()
    grid = [ts.endpoint(2 * k + 1) for k in impulses] + ts.psi_inv(s).tolist()
    full = lift(ev, grid)
    periodic, sequence = decompose(ev, grid)
    for k in impulses:
        x = ts.impulse_point(k)
        assert np.array_equal(full.endpoint_values[k], model.jump(k, ev.value(x)))
        split = model.jump(k, ev.parts(x))
        assert np.array_equal(periodic.endpoint_values[k], split[0])
        assert np.array_equal(sequence.endpoint_values[k], split[1])
    assert np.array_equal(full.y, ev.value(ts.psi(full.t)))
    # the function on the scale reads the same model: each left endpoint is
    # the jump of its impulse's parts, and every other point the parts at psi
    t = np.array(grid)
    rows = as_timescale_function(ev)(t)
    k, code = ts.locate(t)
    left = code == LEFT_ENDPOINT
    for i in np.flatnonzero(left).tolist():
        jump = int(k[i]) - 1
        assert np.array_equal(rows[i], ev.model.jump(jump, ev.parts(ts.impulse_point(jump))))
    assert np.array_equal(rows[~left], ev.parts(ts.psi(t[~left])))
    # a scalar is the 0-d case of a batch, row for row
    values, parts = ev.value(s), ev.parts(s)
    assert values.shape == (s.size, model.dimension)
    for i, x in enumerate(s.tolist()):
        assert np.array_equal(ev.value(x), values[i])
        assert np.array_equal(ev.parts(x), parts[i])


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(model=stable_models(), s=points, shift=st.integers(1, 3))
def test_shared_and_fresh_evaluators_agree(model, s, shift):
    # an evaluator keeps nothing from one call to the next: after any sequence
    # of calls (period-shifted points, whose partial lengths lie a few ulps
    # from the base points' own, scalars, impulse moments) it gives the bits
    # of a fresh one
    cert = certify(model)
    ts = model.ts
    base = np.asarray(s)
    shifted = base + shift * ts.period
    # an impulse moment is where a left endpoint of the scale is evaluated
    k = ts.impulse_index_below(float(base[0]))
    calls = [
        ("parts", base), ("value", shifted), ("parts", ts.impulse_point(k)),
        ("parts", np.concatenate([shifted, base[::2]])), ("value", base),
        ("parts", ts.impulse_point(k + shift)), ("parts", shifted + ts.stride),
        ("parts", base),
    ]
    shared = BoundedSolutionEvaluator(model, cert, TOL)
    for name, arg in calls:
        fresh = BoundedSolutionEvaluator(model, cert, TOL)
        assert np.array_equal(getattr(shared, name)(arg), getattr(fresh, name)(arg)), name


def certify_per_node(model):
    """The certificate with one ``expm`` per grid node and one norm per node
    and impulse count: the loop that the stacked grid of ``certify`` replaced."""
    stride = model.ts.stride
    rho = check_contractive_period(model).value
    rate = impulsive._DECAY_SAFETY * (-math.log(rho)) / stride
    grid_max = 0.0
    for q in np.linspace(0.0, stride, impulsive._CERT_GRID):
        E = matrixkit.expm(q * model.matrix)
        for M in (E, E @ model.jump_factor):
            norm = float(matrixkit.spectral_norm(M))
            grid_max = max(grid_max, norm * math.exp(rate * q))
    h = stride / (impulsive._CERT_GRID - 1)
    grid_max *= math.exp((matrixkit.spectral_norm(model.matrix) + rate) * h)
    # sup_j ||B^j|| e^{rate j stride} is reached before the first power at most 1
    power, period_factor, weight = np.eye(model.dimension), 1.0, 1.0
    while True:
        power = power @ model.period_map
        weight *= math.exp(rate * stride)
        c = float(matrixkit.spectral_norm(power)) * weight
        if c <= 1.0:
            break
        period_factor = max(period_factor, c)
    prefactor = max(1.0, grid_max * period_factor)
    return StabilityCert(rho, rate, prefactor, impulsive._CERT_GRID)


@PROPERTY_SETTINGS
@given(model=stable_models())
def test_stacked_certificate_grid_matches_per_node_loop(model):
    assert certify(model) == certify_per_node(model)


def pade_parts(ev, s):
    """Parts at each point of ``s`` from one Pade ``expm`` of the augmented
    generator per partial length, with the head and the gap stack read from
    its whole-stride rows: the arithmetic that the evaluator's node table
    replaced, one point at a time."""
    model, ts, m = ev.model, ev.model.ts, ev.model.dimension
    C, W, z0 = model.forcing.realization(ts.anchor + ts.gap)
    d = W.shape[0]
    generator = np.zeros((2 * m + d, 2 * m + d))
    generator[:m, :m] = model.matrix
    generator[:m, m:m + d] = C
    generator[:m, m + d:] = np.eye(m)
    generator[m:m + d, m:m + d] = W
    whole = matrixkit.expm(ts.stride * generator)[:m]
    E, F, K = whole[:, :m], whole[:, m:m + d], whole[:, m + d:]
    Q = model.jump_factor
    B = E @ Q
    head = np.linalg.solve(np.eye(m) - B, ts.gap * model.forcing_at_impulse + Q @ (F @ z0))
    out = []
    for x in np.asarray(s, dtype=float).tolist():
        k = int(ts.impulse_index_below(x))
        depth = k - int(ts.impulse_index_below(x - ev.horizon))
        terms = model.sequence.terms(k - depth + 1, k + 1)
        kernel = ts.gap * np.eye(m) + Q @ K
        walk = sum(np.linalg.matrix_power(B, j) @ kernel @ terms[depth - 1 - j]
                   for j in range(depth))
        rows = matrixkit.expm((x - ts.impulse_point(k)) * generator)[:m]
        out.append([rows @ np.concatenate([head, z0, np.zeros(m)]),
                    rows @ np.concatenate([walk, np.zeros(d), terms[-1]])])
    return np.array(out)


def node_count(model):
    """The table's node count: ``ceil(stride * max(1, ||A||_1, ||W||_1))``."""
    W = model.forcing.realization(0.0)[1]
    scale = max(1.0, np.linalg.norm(model.matrix, 1), np.linalg.norm(W, 1))
    return math.ceil(model.ts.stride * scale)


def scaled_forcing(forcing, c):
    """``forcing`` with every coefficient multiplied by ``c``."""
    return TrigForcing(forcing.period, tuple(
        ForcingComponent(c * comp.constant, tuple(
            Harmonic(h.n, c * h.cos_coeff, c * h.sin_coeff) for h in comp.harmonics))
        for comp in forcing.components
    ))


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(model=stable_models(), s=points, k=st.integers(-3, 3))
def test_node_table_matches_pade_per_point(model, s, k):
    # the table's points, at nodes, at node midpoints and at both ends of a
    # segment, agree with one Pade exponential per point
    ev = BoundedSolutionEvaluator(model, certify(model), TOL)
    ts, n = model.ts, node_count(model)
    assert len(ev._table) == n + 1
    h = ts.stride / n
    start = ts.impulse_point(k)
    x = np.concatenate([s, start + h * np.arange(n + 1), start + h * (np.arange(n) + 0.5),
                        [np.nextafter(start, np.inf), start + ts.stride]])
    want = pade_parts(ev, x)
    for got, ref in ((ev.parts(x), want), (ev.value(x), want.sum(axis=1))):
        err = np.abs(got - ref).reshape(len(x), -1).max(axis=1)
        assert np.all(err <= 1e-13 * (1.0 + np.abs(ref).reshape(len(x), -1).max(axis=1)))


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(model=stable_models(), s=points)
def test_node_count_ignores_forcing_amplitude(model, s):
    # the node count reads A and W, not C: a forcing a million times larger
    # keeps the table, and the periodic part is linear in the forcing
    loud = ImpulsiveModel(model.matrix, model.ts, scaled_forcing(model.forcing, 1e6),
                          model.sequence)
    cert = certify(model)
    quiet_ev, loud_ev = (BoundedSolutionEvaluator(x, cert, TOL) for x in (model, loud))
    assert len(loud_ev._table) == len(quiet_ev._table) == node_count(model) + 1
    want = 1e6 * quiet_ev.parts(s)[:, 0]
    got = loud_ev.parts(s)[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(model=stable_models(), s=st.floats(-10.0, 10.0), tol=st.sampled_from([1e-6, 1e-8, 1e-11]))
def test_agrees_with_deep_past_integration(model, s, tol):
    # the oracle starts from zero at the impulse two horizons back, where its
    # start has decayed to N tol^2 / (4 sup_bound).  RK4 at steps h and h/2,
    # with (h ||A||)^5 = tol / 100, is Richardson-extrapolated: the finer march
    # alone is within tol / 10 by its own estimate, and the extrapolation
    # leaves the rounding of the march, 1e-13 to 5e-13 on these models
    ev = BoundedSolutionEvaluator(model, certify(model), tol)
    ts = model.ts
    start = ts.impulse_point(ts.impulse_index_below(s - 2.0 * ev.horizon))
    h = (tol / 100.0) ** 0.2 / max(1.0, np.linalg.norm(model.matrix, 2))
    coarse, fine = (integrate(model, np.zeros(model.dimension), start, s, step).value(s)
                    for step in (h, h / 2.0))
    assert np.linalg.norm(fine - coarse) / 15.0 <= tol / 10.0
    oracle = (16.0 * fine - coarse) / 15.0
    assert np.linalg.norm(ev.value(s) - oracle) <= tol


@st.composite
def scales_horizons_points(draw):
    """A time scale, a horizon (random, a whole number of strides, or one
    within 1e-13 relative of it) and points with |s| up to 1e6: random ones,
    impulse points and points a horizon above an impulse point, each moved
    by up to 1e-12 or by up to 1.5 times the index snap's tolerance."""
    period = draw(st.floats(0.5, 20.0))
    gap = draw(st.floats(0.05, 0.95)) * period
    anchor = draw(st.floats(0.0, 0.99)) * (period - gap)
    ts = TimeScaleSpec(anchor=anchor, period=period, gap=gap)
    whole = draw(st.integers(1, 60)) * ts.stride
    h = draw(st.sampled_from([whole, whole * (1.0 + 1e-13), whole * (1.0 - 1e-13)])
             | st.floats(ts.stride, 60.0 * ts.stride))
    impulses = st.integers(-int(1e6 / ts.stride), int(1e6 / ts.stride)).map(ts.impulse_point)
    base = st.floats(-1e6, 1e6) | impulses | impulses.map(lambda x: x + h)
    nudge = st.sampled_from([0.0, 1e-12, -1e-12]) | st.floats(-1e-12, 1e-12)
    # the snap takes a quotient q = (x - anchor) / stride within
    # _BOUNDARY_RTOL * max(1, |q|) of a whole number as whole; here x = s - h
    snapped = st.floats(-1.5, 1.5).map(lambda f: f * _BOUNDARY_RTOL * ts.stride)
    s = np.array(draw(st.lists(st.tuples(base, nudge, snapped), min_size=1, max_size=50)))
    scale = np.maximum(1.0, np.abs(s[:, 0] - h - ts.anchor) / ts.stride)
    return ts, h, s[:, 0] + s[:, 1] + s[:, 2] * scale


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(case=scales_horizons_points())
def test_walk_depth_bound(case):
    # the evaluator's gap stack holds depth = ceil(h / stride) + 1 entries:
    # no point walks more whole gaps than that, index snap included
    ts, h, s = case
    walked = ts.impulse_index_below(s) - ts.impulse_index_below(s - h)
    assert walked.max() <= math.ceil(h / ts.stride) + 1


@st.composite
def non_normal_models(draw):
    """Unforced models with ``A = V diag(D) V^-1``, ``V = I + b * U`` for a
    strictly upper triangular ``U`` and ``b`` up to 20: ``A`` is far from
    normal, so its exponentials and jump-factor powers grow transiently."""
    m = draw(st.integers(2, 4))
    period = draw(st.sampled_from([6.0, 7.0, 8.0]))
    gap = draw(st.floats(0.2, 0.5)) * period
    anchor = draw(st.floats(0.0, 0.9)) * (period - gap)
    ts = TimeScaleSpec(anchor=anchor, period=period, gap=gap)
    D = -np.array(draw(st.lists(st.floats(0.1, 1.5), min_size=m, max_size=m)))
    upper = np.triu(np.reshape(draw(st.lists(coefficient, min_size=m * m, max_size=m * m)),
                               (m, m)), 1)
    V = np.eye(m) + draw(st.floats(0.0, 20.0)) * upper
    quiet = TableSequence({k: np.zeros(m) for k in range(-10, 11)})
    model = ImpulsiveModel(V @ np.diag(D) @ np.linalg.inv(V), ts, TrigForcing.zero(m, period),
                           quiet)
    assume(check_invertible_jump(model).passed)
    assume(check_contractive_period(model).passed)
    return model


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(
    model=st.one_of(stable_models(), non_normal_models()),
    r=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4),
    fraction=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_certificate_bounds_transition_matrices(model, r, fraction):
    # ||U(r+q, r)|| <= N exp(-lambda q) for gaps q up to thirty periods
    cert = certify(model)
    for start, share in zip(r, fraction):
        q = 30.0 * model.ts.period * share
        norm = np.linalg.norm(matriciant(model, start + q, start), 2)
        assert norm <= cert.prefactor * np.exp(-cert.decay_rate * q) * (1.0 + 1e-12)


def rk4_loop(A, u, h, y):
    """Per-step classical RK4 with the forcing at the half-step mesh."""
    out = []
    for i in range((len(u) - 1) // 2):
        k1 = A @ y + u[2 * i]
        k2 = A @ (y + 0.5 * h * k1) + u[2 * i + 1]
        k3 = A @ (y + 0.5 * h * k2) + u[2 * i + 1]
        k4 = A @ (y + h * k3) + u[2 * i + 2]
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


@st.composite
def step_counts(draw):
    # one or two steps, counts around a square, and long segments
    b = draw(st.integers(2, 40))
    return draw(st.sampled_from([1, 2, b * b - 1, b * b, b * b + 1, 5000 + b]))


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(
    m=st.integers(1, 8),
    n=step_counts(),
    h=st.sampled_from([1e-3, 1e-2, 5e-2]),
    abscissa=st.floats(-2.0, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(m=8, n=5041, h=5e-2, abscissa=1.0, seed=0)
@example(m=8, n=1, h=1e-3, abscissa=-2.0, seed=1)
@example(m=3, n=1599, h=1e-2, abscissa=1.0, seed=2)
@example(m=2, n=4096, h=1e-3, abscissa=-0.5, seed=3)
@example(m=5, n=4097, h=5e-2, abscissa=1.0, seed=4)
def test_rk4_scan_matches_step_loop(m, n, h, abscissa, seed):
    # the kernel's powers, doubling scan and gains against the per-step loop,
    # with a constant term on top of the tabulated forcing
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (m, m))
    # shift the spectrum so its rightmost eigenvalue sits at the drawn abscissa
    A += (abscissa - np.max(np.linalg.eigvals(A).real)) * np.eye(m)
    u = rng.uniform(-1.0, 1.0, (2 * n + 1, m))
    y0 = rng.uniform(-1.0, 1.0, m)
    term = rng.uniform(-1.0, 1.0, m)
    expected = rk4_loop(A, u + term, h, y0)
    powers, response, gains = _rk4_kernel(A, u, h)
    got = powers @ y0 + response + gains @ term
    assert got.shape == (n, m)
    assert np.max(np.abs(got - expected)) <= 1e-11 * _scale(expected)


@st.composite
def forced_marches(draw):
    """A model of :func:`stable_models` or :func:`non_normal_models` given a
    nonzero trig forcing and a logistic or table sequence, with a window of
    about three to five strides that starts at an impulse or inside an
    interval, and the march's step."""
    model = draw(st.one_of(stable_models(), non_normal_models()))
    m, ts = model.dimension, model.ts
    components = tuple(
        ForcingComponent(draw(coefficient), (Harmonic(draw(st.integers(1, 6)),
                                                      draw(st.floats(0.5, 1.0)), draw(coefficient)),))
        for _ in range(m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        sequence = TableSequence({k: rng.uniform(-1.0, 1.0, m) for k in range(-100, 101)})
    else:
        sequence = LogisticSequence(draw(st.floats(3.6, 4.0)), draw(st.floats(0.1, 0.9)),
                                    k_min=-100, output_map=rng.uniform(-1.0, 1.0, m))
    model = ImpulsiveModel(model.matrix, ts, TrigForcing(ts.period, components), sequence)
    step = draw(st.sampled_from([0.05, 0.02, 0.013]))
    k = draw(st.integers(-5, 5))
    offset = 0.0 if draw(st.booleans()) else draw(st.floats(0.05, 0.95))
    s0 = ts.impulse_point(k) + offset * ts.stride
    # the last segment inside an interval, a whole stride, or less than one
    # step short of one: the same step count with another step
    end = draw(st.sampled_from(["inside", "impulse", "short"]))
    if end == "inside":
        s1 = s0 + draw(st.floats(3.0, 5.0)) * ts.stride
    else:
        s1 = ts.impulse_point(k + draw(st.integers(3, 5)))
        s1 -= draw(st.floats(0.1, 0.9)) * step if end == "short" else 0.0
    return model, s0, s1, step


def march_loop(model, x, s0, s1, step):
    """Per-segment, per-step RK4 with the forcing plus ``term_k`` at the
    half-step mesh, and ``jump`` at each impulse crossed."""
    ts = model.ts
    k0, k1 = ts.impulse_index_below(s0) + 1, ts.impulse_index_below(s1) + 1
    ss, xs, jumps = [np.array([s0])], [x[np.newaxis]], []
    cursor = s0
    for k in range(k0, k1 + 1):
        seg_end = ts.impulse_point(k) if k < k1 else s1
        length = seg_end - cursor
        if length > _edge_tol(seg_end):
            n = max(1, int(_snapped_ceil(length / step)))
            h = length / n
            nodes = cursor + length * np.arange(2 * n + 1) / (2.0 * n)
            u = model.forcing.value_many(nodes + k * ts.gap) + model.sequence.term(k)
            xs.append(rk4_loop(model.matrix, u, h, x))
            ss.append(np.append(cursor + h * np.arange(1, n), seg_end))
            x = xs[-1][-1]
        if k < k1:
            before, x = x, model.jump(k, x)
            jumps.append((k, seg_end, before, x))
        cursor = seg_end
    return np.concatenate(ss), np.concatenate(xs), jumps


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(case=forced_marches(), seed=st.integers(0, 2 ** 32 - 1))
def test_integrate_matches_step_loop(case, seed):
    # whole strides read one kernel and the partial ends one each; the states
    # agree with a per-step march at round-off and the abscissae in every bit
    model, s0, s1, step = case
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, model.dimension)
    s, x, jumps = march_loop(model, x0, s0, s1, step)
    traj = integrate(model, x0, s0, s1, step)
    assert np.array_equal(traj.s, s)
    bound = 1e-11 * _scale(np.concatenate([x.ravel(), *(after for _, _, _, after in jumps)]))
    assert np.max(np.abs(traj.x - x)) <= bound
    assert [(j.index, j.s) for j in traj.jumps] == [(k, at) for k, at, _, _ in jumps]
    for j, (_, _, before, after) in zip(traj.jumps, jumps):
        assert np.max(np.abs(j.before - before)) <= bound
        assert np.max(np.abs(j.after - after)) <= bound


def _quantized_table(m, levels, lo, hi, zeta_max, seed):
    """Few quantized levels, so many shifts tie; only a strict improvement records."""
    values = 0.25 * np.random.default_rng(seed).integers(0, levels, (hi + zeta_max - lo + 1, m))
    return TableSequence({lo + k: v for k, v in enumerate(values)})


def _logistic(m, r, k_min, seed):
    """The logistic orbit through an output map, as every bundled scenario runs."""
    rng = np.random.default_rng(seed)
    return LogisticSequence(r, rng.uniform(0.01, 0.99), k_min, rng.uniform(-2.0, 2.0, m))


@st.composite
def return_scans(draw):
    """A sequence with a window ``(lo, hi)`` and a ``zeta_max`` it covers."""
    m = draw(st.integers(1, 3))
    lo = draw(st.integers(-5, 5))
    hi = lo + draw(st.integers(1, 6)) - 1
    zeta_max = draw(st.integers(1, 150))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(["table", "chaotic", "periodic"]))
    if kind == "table":
        seq = _quantized_table(m, draw(st.integers(2, 4)), lo, hi, zeta_max, seed)
    elif kind == "chaotic":
        seq = _logistic(m, draw(st.floats(3.6, 4.0)), lo, seed)
    else:
        # a periodic window of the map: once the transient below the window
        # has died out, the defects of whole periods tie at rounding level
        seq = _logistic(m, draw(st.floats(2.9, 3.83)), lo - draw(st.integers(0, 400)), seed)
    return seq, (lo, hi), zeta_max


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(
    scan=return_scans(),
    max_count=st.integers(1, 8),
    block=st.integers(1, 16),
)
@example(scan=(_quantized_table(1, 2, 0, 0, 150, 0), (0, 0), 150), max_count=8, block=1)
@example(scan=(_quantized_table(2, 3, -3, 2, 64, 1), (-3, 2), 64), max_count=1, block=16)
# blocks narrower than the window: each block shares width - 1 terms with the
# block before, and at block=1 that is all but one of its terms
@example(scan=(_logistic(2, 3.9, -2, 5), (-2, 3), 40), max_count=8, block=1)
@example(scan=(_quantized_table(2, 3, 0, 5, 30, 2), (0, 5), 30), max_count=8, block=4)
# zeta_max below the width: the stream after the window is shorter than it
@example(scan=(_logistic(1, 3.7, 0, 7), (0, 5), 3), max_count=3, block=2)
@example(scan=(_quantized_table(1, 2, 0, 7, 4, 3), (0, 7), 4), max_count=4, block=1)
# shift 1 alone: the scan records it before its blocks, which are then empty
@example(scan=(_logistic(2, 3.9, -2, 3), (-2, 1), 1), max_count=3, block=1)
# shifts 2 and 3 each record a defect within a relative 1e-5 of the last, a block later
@example(scan=(_logistic(2, 4.0, -2, 29), (-2, 3), 3), max_count=3, block=1)
# records (1, 2, 6) with defects (0.494, 4.78e-16, 0.0): differences at
# rounding level, which the scan must order exactly as the full scan does
@example(
    scan=(LogisticSequence(3.3, 0.6546884913226735, k_min=0, output_map=[1.4343491343457004]),
          (380, 381), 2031),
    max_count=50, block=forcing._SCAN_BLOCK,
)
# a window of width 1: offset 0, read as one slice, is the whole defect
@example(scan=(_logistic(2, 3.9, 4, 11), (4, 4), 100), max_count=8, block=8)
# shift 1's defect is 1, so no shift of the block (2, 3) survives offset 0;
# shift 4 of the next block records 0.5
@example(
    scan=(TableSequence({k: [v] for k, v in enumerate([0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5])}),
          (0, 1), 5),
    max_count=8, block=2,
)
def test_pruned_return_scan_matches_full_scan(scan, max_count, block):
    seq, (lo, hi), zeta_max = scan
    records, best = [], math.inf
    for zeta in range(1, zeta_max + 1):
        d = recurrence_defect(seq, (lo, hi), zeta)
        if d < best:
            best = d
            records.append((zeta, d))
    with mock.patch.object(forcing, "_SCAN_BLOCK", block):  # many blocks per scan
        got = find_return_times(seq, (lo, hi), zeta_max, max_count)
    assert [(e.zeta, e.defect) for e in got.entries] == records[-max_count:]


def _exact_defect(seq, window, zeta):
    """A logistic sequence's defect in exact arithmetic: ``max |dz|`` over the
    orbit's floats as a Fraction, times ``||C||`` as a 50-digit square root."""
    lo, hi = window
    z, C = seq.rank_one(lo, hi + zeta)
    dz = max(abs(Fraction(z[k + zeta]) - Fraction(z[k])) for k in range(hi - lo + 1))
    squares = sum(Fraction(c) ** 2 for c in C)
    with localcontext() as ctx:
        ctx.prec = 50
        norm = (Decimal(squares.numerator) / Decimal(squares.denominator)).sqrt()
        return norm * Decimal(dz.numerator) / Decimal(dz.denominator)


logistic_scans = dict(
    m=st.integers(1, 8), r=st.floats(2.9, 4.0), k_min=st.integers(-50, 50),
    width=st.integers(1, 8), zeta_max=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1),
)


@PROPERTY_SETTINGS
@given(**logistic_scans)
def test_logistic_defects_are_exact_to_rounding(m, r, k_min, width, zeta_max, seed):
    # the distance of two terms C z_a and C z_b is ||C|| |z_a - z_b|: one
    # rounded norm, one exact difference of close floats and one product
    seq = _logistic(m, r, k_min, seed)
    window = (k_min, k_min + width - 1)
    returns = find_return_times(seq, window, zeta_max, max_count=zeta_max)
    checked = [*zip(returns.zetas, returns.defects),
               *((zeta, recurrence_defect(seq, window, zeta)) for zeta in (1, zeta_max))]
    for zeta, defect in checked:
        exact = _exact_defect(seq, window, zeta)
        assert abs(Decimal(defect) - exact) <= Decimal("4.5e-16") * exact


@PROPERTY_SETTINGS
@given(**logistic_scans, flips=st.integers(1, 255))
def test_output_map_signs_leave_returns_unchanged(m, r, k_min, width, zeta_max, seed, flips):
    # the defects read C through ||C|| alone
    signs = [-1.0 if flips >> i & 1 else 1.0 for i in range(m)]
    assume(-1.0 in signs)
    seq = _logistic(m, r, k_min, seed)
    C = seq.rank_one(k_min, k_min)[1]
    flipped = LogisticSequence(r, seq.z0, k_min, C * signs)
    window = (k_min, k_min + width - 1)
    got, want = (find_return_times(s, window, zeta_max, max_count=zeta_max) for s in (flipped, seq))
    assert [(e.zeta, e.defect.hex()) for e in got.entries] == \
        [(e.zeta, e.defect.hex()) for e in want.entries]
    for zeta in (1, zeta_max):
        assert recurrence_defect(flipped, window, zeta).hex() == \
            recurrence_defect(seq, window, zeta).hex()


@PROPERTY_SETTINGS
@given(
    m=st.integers(1, 8), r=st.floats(2.9, 4.0), k_min=st.integers(-50, 50),
    offset=st.integers(0, 300), count=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1),
)
def test_rank_one_gives_the_terms(m, r, k_min, offset, count, seed):
    seq = _logistic(m, r, k_min, seed)
    lo, hi = k_min + offset, k_min + offset + count - 1
    z, C = seq.rank_one(lo, hi)
    assert z.shape == (count,) and not z.flags.writeable
    assert np.outer(z, C).tobytes() == seq.terms(lo, hi).tobytes()
    for i in (0, count - 1):  # a term is the output map times its orbit value
        assert seq.term(lo + i).tobytes() == (C * z[i]).tobytes()


def reference_value_many(forcing, t):
    """The walk over each component's harmonics that the coefficient table replaced."""
    base = 2.0 * np.pi / forcing.period
    out = np.empty((t.size, forcing.dimension))
    for i, comp in enumerate(forcing.components):
        acc = np.full(t.shape, comp.constant)
        for h in comp.harmonics:
            phase = base * h.n * t
            if h.cos_coeff:
                acc = acc + h.cos_coeff * np.cos(phase)
            if h.sin_coeff:
                acc = acc + h.sin_coeff * np.sin(phase)
        out[:, i] = acc
    return out


def reference_derivative_bound(forcing, order):
    per_comp = []
    for comp in forcing.components:
        total = abs(comp.constant) if order == 0 else 0.0
        for h in comp.harmonics:
            freq = 2.0 * np.pi * h.n / forcing.period
            total += (abs(h.cos_coeff) + abs(h.sin_coeff)) * freq ** order
        per_comp.append(total)
    return float(np.linalg.norm(per_comp))


@PROPERTY_SETTINGS
@given(model=stable_models(), t0=st.floats(-20.0, 20.0),
       u=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=6))
def test_forcing_reads_one_table(model, t0, u):
    # the realization's closed form matches value_many; with each component's
    # orders listed in increasing order, value_many and derivative_bound give
    # the bits of the per-harmonic walk, and listing order does not matter
    f = model.forcing
    t = t0 + np.array(u)
    C, W, z0 = f.realization(t0)
    closed = np.stack([C @ matrixkit.expm(x * W) @ z0 for x in u])
    assert np.max(np.abs(closed - f.value_many(t))) <= 1e-13
    ordered = TrigForcing(f.period, tuple(
        ForcingComponent(c.constant, tuple(sorted(c.harmonics, key=lambda h: h.n)))
        for c in f.components
    ))
    assert np.array_equal(ordered.value_many(t), reference_value_many(ordered, t))
    assert np.array_equal(f.value_many(t), ordered.value_many(t))
    for order in range(3):
        assert ordered.derivative_bound(order) == reference_derivative_bound(ordered, order)


def reference_compact_grid(ts, lo, hi, grid_step):
    """The loop over intervals and points that the array grid replaced."""
    pts = []
    k_lo, k_hi = ts.interval_span(lo, hi)
    for k in range(k_lo, k_hi + 1):
        a = max(ts.endpoint(2 * k - 1), lo)
        b = min(ts.endpoint(2 * k), hi)
        if b < a:
            continue
        n = max(1, math.ceil((b - a) / grid_step))
        pts.extend(float(a + (b - a) * i / n) for i in range(n))
        pts.append(float(b))
    return sorted(set(pts))


@st.composite
def grid_windows(draw):
    """A scale, a step and a window: anywhere, inside a hole, of zero length
    at an interval end, or spanning hundreds of intervals."""
    period = draw(st.floats(0.5, 20.0))
    gap = draw(st.floats(0.05, 0.95)) * period
    anchor = draw(st.sampled_from([0.0]) | st.floats(0.0, 0.99)) * (period - gap)
    ts = TimeScaleSpec(anchor=anchor, period=period, gap=gap)
    step = draw(st.floats(0.01, 2.0)) * period
    k = draw(st.integers(-1000, 1000))
    kind = draw(st.sampled_from(["any", "hole", "end", "span"]))
    if kind == "hole":
        a, b = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2)))
        lo, hi = ts.endpoint(2 * k) + gap * a, ts.endpoint(2 * k) + gap * b
    elif kind == "end":
        lo = hi = ts.endpoint(draw(st.sampled_from([2 * k - 1, 2 * k])))
    else:
        lo = draw(st.floats(-1e3, 1e3) | st.just(-0.0))
        hi = lo + period * draw(st.floats(100.0, 500.0) if kind == "span" else st.floats(0.0, 5.0))
    return ts, lo, hi, step


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(case=grid_windows())
def test_compact_grid_matches_point_loop(case):
    # the same floats in the same order, signed zeros included, each once
    ts, lo, hi, step = case
    got, want = compact_grid(ts, lo, hi, step), reference_compact_grid(ts, lo, hi, step)
    assert got.dtype == np.float64 and np.all(np.diff(got) > 0)
    assert np.array_equal(got.view(np.int64), np.array(want, dtype=float).view(np.int64))
