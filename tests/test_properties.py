"""Property tests on random stable systems: the decay certificate bounds the
transition matrices, and for the closed-form bounded-solution evaluator,
batched and single-point evaluation agree, the value matches forward
integration from deep in the past, the periodic component is
stride-periodic, and the two components sum to the full solution.  The
blocked RK4 scan agrees with a plain per-step RK4 loop, stable or not."""

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tsdyn import (
    BoundedSolutionEvaluator,
    ForcingComponent,
    Harmonic,
    ImpulsiveModel,
    LogisticSequence,
    TableSequence,
    TimeScaleSpec,
    TrigForcing,
    certify,
    check_contractive_period,
    check_invertible_jump,
    integrate,
    matriciant,
)
from tsdyn.impulsive import _rk4_segment

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
    batched = ev.values(s)
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
    assert np.array_equal(parts.sum(axis=1), ev.values(s))
    here = parts[:, 0]
    shifted = ev.parts(np.asarray(s) + model.ts.stride)[:, 0]
    assert np.max(np.abs(shifted - here)) <= 1e-12 * _scale(here)
    # superposition: each part is the bounded solution under its own forcing alone
    m, ts = model.dimension, model.ts
    quiet = TableSequence({k: np.zeros(m) for k in range(-1000, 101)})
    periodic_only = ImpulsiveModel(model.matrix, ts, model.forcing, quiet)
    sequence_only = ImpulsiveModel(model.matrix, ts, TrigForcing.zero(m, ts.period), model.sequence)
    periodic = BoundedSolutionEvaluator(periodic_only, cert, TOL).values(s)
    assert np.max(np.abs(periodic - here)) <= 1e-12 * _scale(here)
    sequence = BoundedSolutionEvaluator(sequence_only, cert, TOL).values(s)
    assert np.max(np.abs(sequence - parts[:, 1])) <= TOL


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(model=stable_models(), s=st.floats(-10.0, 10.0))
def test_agrees_with_deep_past_integration(model, s):
    ev = BoundedSolutionEvaluator(model, certify(model), TOL)
    traj = integrate(model, np.zeros(model.dimension), s - ev.horizon, s, 2.5e-3)
    assert np.linalg.norm(ev.value(s) - traj.value(s)) <= TOL


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(
    model=stable_models(),
    r=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4),
    fraction=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_certificate_bounds_transition_matrices(model, r, fraction):
    # ||U(r+q, r)|| <= N exp(-lambda q) for gaps q up to six periods
    cert = certify(model)
    for start, share in zip(r, fraction):
        q = 6.0 * model.ts.period * share
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
    # step counts around a whole number of blocks, and long segments
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
def test_rk4_scan_matches_step_loop(m, n, h, abscissa, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (m, m))
    # shift the spectrum so its rightmost eigenvalue sits at the drawn abscissa
    A += (abscissa - np.max(np.linalg.eigvals(A).real)) * np.eye(m)
    u = rng.uniform(-1.0, 1.0, (2 * n + 1, m))
    y0 = rng.uniform(-1.0, 1.0, m)
    expected = rk4_loop(A, u, h, y0)
    got = _rk4_segment(A, u, h, y0)
    assert got.shape == (n, m)
    assert np.max(np.abs(got - expected)) <= 1e-11 * _scale(expected)
