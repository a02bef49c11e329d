"""Property tests of the closed-form bounded-solution evaluator on random
stable systems: batched and single-point evaluation agree, the value matches
forward integration from deep in the past, the periodic component is
stride-periodic, and the two components sum to the full solution."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
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
)

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
    m = draw(st.integers(1, 4))
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
        orders = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
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
    full = BoundedSolutionEvaluator(model, cert, TOL).values(s)
    periodic = BoundedSolutionEvaluator(model, cert, TOL, include_sequence=False)
    sequence = BoundedSolutionEvaluator(model, cert, TOL, include_periodic=False)
    here = periodic.values(s)
    shifted = periodic.values(np.asarray(s) + model.ts.stride)
    assert np.max(np.abs(shifted - here)) <= 1e-12 * _scale(here)
    parts = here + sequence.values(s)
    assert np.max(np.abs(parts - full)) <= 1e-12 * _scale(full)


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(model=stable_models(), s=st.floats(-10.0, 10.0))
def test_agrees_with_deep_past_integration(model, s):
    ev = BoundedSolutionEvaluator(model, certify(model), TOL)
    traj = integrate(model, np.zeros(model.dimension), s - ev.horizon, s, 2.5e-3)
    assert np.linalg.norm(ev.value(s) - traj.value(s)) <= TOL
