import numpy as np
import pytest

from tsdyn import (
    BoundedSolutionEvaluator,
    ImpulsiveModel,
    MissingSampleError,
    TimeScaleDomainError,
    TimeScaleSolution,
    TimeScaleSpec,
    TrigForcing,
    as_timescale_function,
    certify,
    compact_grid,
    decompose,
    delta_residual,
    integrate,
    lift,
    lift_and_parts,
    matriciant,
    simulate_dynamic,
)

from tsdyn.timescale import LEFT_ENDPOINT, RIGHT_ENDPOINT

from conftest import ROTATION_A, near_impulses, zero_table


def quiet_model(ts, dimension=2):
    return ImpulsiveModel(
        matrix=ROTATION_A[:dimension, :dimension],
        ts=ts,
        forcing=TrigForcing.zero(dimension, ts.period),
        sequence=zero_table(dimension, -40, 40),
    )


class TestSolutionContainer:
    def test_validation(self, ts5):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeScaleSolution(
                ts=ts5, t=np.array([0.0, 0.0]), y=np.zeros((2, 2)), provenance="lifted"
            )
        with pytest.raises(ValueError, match="provenance"):
            TimeScaleSolution(
                ts=ts5, t=np.array([0.0]), y=np.zeros((1, 2)), provenance="guessed"
            )

    def test_value_lookup(self, ts5):
        sol = TimeScaleSolution(
            ts=ts5,
            t=np.array([0.0, 0.5]),
            y=np.array([[1.0, 2.0], [3.0, 4.0]]),
            endpoint_values={0: np.array([9.0, 9.0])},
        )
        assert np.array_equal(sol.value(0.5), [3.0, 4.0])
        assert np.array_equal(sol.value(4.0), [9.0, 9.0])  # left endpoint -> map
        with pytest.raises(MissingSampleError):
            sol.value(0.25)
        assert sol.max_norm() == pytest.approx(np.hypot(9.0, 9.0))


class TestSimulateDynamic:
    def test_zero_solution(self, ts5):
        sol = simulate_dynamic(quiet_model(ts5), np.zeros(2), 0.0, 9.0, 1e-2)
        assert sol.max_norm() == 0.0
        assert set(sol.endpoint_values) == {0}

    def test_domain_validation(self, model5):
        with pytest.raises(TimeScaleDomainError):
            simulate_dynamic(model5, np.zeros(2), 2.0, 9.0, 1e-2)
        with pytest.raises(TimeScaleDomainError):
            simulate_dynamic(model5, np.zeros(2), 0.0, 10.0, 1e-2)

    def test_discrete_update_is_exact(self, model5, ts5):
        y0 = np.array([0.4, -0.2])
        sol = simulate_dynamic(model5, y0, 0.0, 5.0, 1e-2)
        y_right = sol.value(1.0)
        want = y_right + 3.0 * (
            ROTATION_A @ y_right + model5.forcing.value(1.0) + model5.sequence.term(0)
        )
        assert np.array_equal(sol.endpoint_values[0], want)

    def test_conjugate_to_impulsive_integration(self, model5, ts5):
        rng = np.random.default_rng(21)
        for _ in range(20):
            y0 = rng.uniform(-1.0, 1.0, 2)
            t0 = float(rng.uniform(-3.9, 0.9))  # interior of interval 0
            t_end = t0 + 8.0
            sol = simulate_dynamic(model5, y0, t0, t_end, 1e-2)
            traj = integrate(model5, y0, ts5.psi(t0), ts5.psi(t_end), 1e-2)
            # the meshes correspond index-by-index through psi
            assert sol.t.size == traj.s.size
            for i in (sol.t.size // 3, sol.t.size - 1):
                assert ts5.psi(float(sol.t[i])) == pytest.approx(float(traj.s[i]), abs=1e-9)
                assert np.linalg.norm(sol.y[i] - traj.x[i]) < 1e-9

    @pytest.mark.parametrize(
        "t0, t_end, jumps",
        [
            (0.3, 30.5, {0, 1, 2, 3}),  # interior start and end
            (4.0, 30.5, {0, 1, 2, 3}),  # start on a left endpoint
            (0.3, 12.0, {0, 1}),        # end on a left endpoint
            (4.0, 28.0, {0, 1, 2, 3}),  # both
        ],
    )
    def test_zero_forcing_matches_matriciant(self, ts5, t0, t_end, jumps):
        # without forcing the state is the transition matrix applied to the
        # start, which matriciant gives in closed form, with no integrator
        model = quiet_model(ts5)
        y0 = np.array([0.7, -0.4])
        sol = simulate_dynamic(model, y0, t0, t_end, 1e-2)
        assert set(sol.endpoint_values) == jumps
        k0, code = ts5.locate(t0)
        if code == LEFT_ENDPOINT:
            # y0 is the right limit at impulse k0 - 1: undo that jump so the
            # transition matrix from the impulse moment applies it again
            r = ts5.impulse_point(k0 - 1)
            x0 = np.linalg.solve(model.jump_factor, y0)
        else:
            r, x0 = ts5.psi(t0), y0
        for t, y in zip(sol.t, sol.y):
            want = matriciant(model, ts5.psi(float(t)), r) @ x0
            assert np.linalg.norm(y - want) < 1e-8
        for k, y in sol.endpoint_values.items():
            if k >= k0:  # endpoint values the simulation computed
                want = model.jump_factor @ matriciant(model, ts5.impulse_point(k), r) @ x0
                assert np.linalg.norm(y - want) < 1e-8

    def test_right_endpoints_of_a_non_dyadic_scale(self):
        # on this scale t - k*gap rounds past impulse_point(k) at about a
        # third of the right endpoints, and an interval is a whole number of
        # steps long only up to rounding
        ts = TimeScaleSpec(anchor=0.3, period=0.7, gap=0.2)
        model = quiet_model(ts)
        y0 = np.array([0.7, -0.4])
        for k in range(40):
            sol = simulate_dynamic(model, y0, ts.endpoint(2 * k), ts.endpoint(2 * k + 2), 1e-2)
            assert ts.locate(float(sol.t[0])) == (k, RIGHT_ENDPOINT)
            assert np.array_equal(sol.y[0], y0)
            assert set(sol.endpoint_values) == {k}
            assert sol.t.size == 1 + 50  # the start, then 50 steps over the next interval

    def test_marches_on_the_line_and_on_the_scale_fire_the_same_jumps(self, model5, ts5):
        # integrate counts the impulses above s with impulse_index_below,
        # simulate_dynamic those above psi_inv(s) with locate; next to an
        # impulse both must read one snap
        x = np.array([0.3, -0.2])
        for s in near_impulses(ts5, range(-3, 4)).tolist():
            fired = [jump.index for jump in integrate(model5, x, s, s + 7.3, 1e-2).jumps]
            sol = simulate_dynamic(model5, x, ts5.psi_inv(s), ts5.psi_inv(s + 7.3), 1e-2)
            assert sorted(sol.endpoint_values) == fired, s

    def test_start_on_left_endpoint_uses_given_value(self, model5):
        y0 = np.array([1.0, 1.0])
        sol = simulate_dynamic(model5, y0, 4.0, 9.0, 1e-2)
        assert np.array_equal(sol.endpoint_values[0], y0)
        assert sol.t[0] > 4.0


class TestLift:
    def test_zero(self, ts5):
        model = quiet_model(ts5)
        ev = BoundedSolutionEvaluator(model, certify(model))
        lifted = lift(ev, [0.0, 1.0, 4.0, 5.0, 9.0])
        assert lifted.max_norm() == 0.0
        assert lifted.provenance == "lifted"

    def test_uses_psi(self, model5, cert5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-9)
        lifted = lift(ev, [0.0, 9.0])
        assert np.array_equal(lifted.value(0.0), ev.value(0.0))   # psi(0) = 0
        assert np.array_equal(lifted.value(9.0), ev.value(6.0))   # psi(9) = 6

    def test_left_endpoint_value_is_right_limit(self, model5, cert5, ts5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-9)
        lifted = lift(ev, [4.0])
        phi0 = ev.value(1.0)  # impulse moment s_0 = 1
        want = phi0 + 3.0 * (
            ROTATION_A @ phi0 + model5.forcing.value(1.0) + model5.sequence.term(0)
        )
        assert np.allclose(lifted.value(4.0), want, atol=1e-12)

    def test_rejects_points_off_scale(self, model5, cert5):
        ev = BoundedSolutionEvaluator(model5, cert5)
        with pytest.raises(TimeScaleDomainError):
            lift(ev, [2.5])

    def test_takes_the_evaluator_alone(self, model5, cert5):
        # the model is always the one the evaluator was built on
        ev = BoundedSolutionEvaluator(model5, cert5)
        for call in (lambda: lift(model5, ev, [0.0]), lambda: decompose(model5, ev, [0.0]),
                     lambda: as_timescale_function(model5, ev)):
            with pytest.raises(TypeError):
                call()

    def test_as_timescale_function(self, model5, cert5, ts5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-9)
        theta = as_timescale_function(ev)
        assert np.array_equal(theta(9.0), ev.parts(6.0))
        assert np.array_equal(theta(9.0).sum(axis=0), ev.value(6.0))
        # the left endpoint 4 takes the right limit after impulse 0 at s_0 = 1
        s0 = ts5.impulse_point(0)
        assert np.array_equal(theta(4.0), model5.jump(0, ev.parts(s0)))
        assert np.allclose(
            theta(4.0).sum(axis=0), model5.jump(0, ev.value(s0)), rtol=0.0, atol=1e-14
        )
        batch = theta(np.array([[9.0, 4.0], [0.0, 9.0]]))
        assert batch.shape == (2, 2, 2, 2)
        assert np.array_equal(batch[0, 1], theta(4.0))

    def test_lift_and_parts_is_one_batch_of_both(self, model5, cert5, ts5):
        # the grid holds the left endpoints 4 and 12, and the shifts move it
        # by whole periods, onto more left endpoints
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-9)
        grid = compact_grid(ts5, 0.0, 17.0, 0.25)
        assert {4.0, 12.0} <= set(grid)
        shifts = ts5.period * np.array([1, 3, 1503])
        theta, parts = lift_and_parts(ev, grid, shifts)
        want = lift(ev, grid)
        assert theta.t.tobytes() == want.t.tobytes() and theta.y.tobytes() == want.y.tobytes()
        assert theta.endpoint_values.keys() == want.endpoint_values.keys()
        for k, v in want.endpoint_values.items():  # summed, then jumped, as value is
            assert theta.endpoint_values[k].tobytes() == v.tobytes()
        points = np.add.outer(np.concatenate(([0.0], shifts)), grid)
        assert parts.shape == (4, len(grid), 2, 2)
        assert parts.tobytes() == as_timescale_function(ev)(points).tobytes()


class TestDeltaResidual:
    def test_zero_model(self, ts5):
        model = quiet_model(ts5)
        sol = simulate_dynamic(model, np.zeros(2), 0.0, 9.0, 1e-2)
        assert delta_residual(model, sol, 0.5) == 0.0
        assert delta_residual(model, sol, 1.0) == 0.0

    def test_right_scattered_is_exact(self, model5):
        sol = simulate_dynamic(model5, np.array([0.3, 0.1]), 0.0, 9.0, 1e-3)
        # endpoint update is the defining formula, so the residual is rounding
        assert delta_residual(model5, sol, 1.0) < 1e-12

    def test_interior_scales_with_step(self, model5, cert5, ts5):
        grid = [0.0] + list(np.arange(4.0, 9.001, 1e-3))
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-9)
        sol = lift(ev, grid)
        r = delta_residual(model5, sol, 5.0)
        # forward difference of a smooth solution: residual ~ step * |y''|
        assert r < 1e-2

    def test_missing_forward_neighbor(self, model5):
        sol = simulate_dynamic(model5, np.zeros(2), 0.0, 9.0, 1e-2)
        with pytest.raises(MissingSampleError):
            delta_residual(model5, sol, 9.0)  # final right endpoint: no sigma value


class TestPeriodicityTransport:
    def test_period_forcing_collapses_to_stride_periodic(self, forcing5, ts5):
        # an omega-periodic forcing composed with psi_inv is stride-periodic
        rng = np.random.default_rng(50)
        for s in rng.uniform(-20.0, 20.0, 200):
            a = forcing5.value(ts5.psi_inv(float(s) + ts5.stride))
            b = forcing5.value(ts5.psi_inv(float(s)))
            assert np.linalg.norm(a - b) < 1e-12

    def test_stride_periodic_lifts_to_period_periodic(self, ts5):
        # and a stride-periodic function of the collapsed time is
        # omega-periodic back on the scale
        def collapsed(s):
            return np.array([np.cos(2.0 * np.pi * s / ts5.stride)])

        rng = np.random.default_rng(51)
        for _ in range(200):
            k = int(rng.integers(-50, 50))
            t = float(rng.uniform(ts5.endpoint(2 * k - 1) + 1e-6, ts5.endpoint(2 * k)))
            a = collapsed(ts5.psi(t + ts5.period))
            b = collapsed(ts5.psi(t))
            assert np.linalg.norm(a - b) < 1e-9


class TestLiftedResiduals:
    def test_right_scattered_identity_for_lifted_solution(self, model5, cert5, ts5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-9)
        grid = [9.0, 12.0] + list(np.linspace(12.1, 16.9, 5))
        sol = lift(ev, grid)
        # the endpoint value is the jump image of the sampled value, so the
        # difference quotient across the hole reproduces the equation exactly
        assert delta_residual(model5, sol, 9.0) < 1e-13

    def test_interior_residual_small_everywhere(self, model5, cert5):
        step = 1e-3
        grid = [0.0] + list(np.arange(4.0, 9.0001, step))
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-9)
        sol = lift(ev, grid)
        for t in (4.5, 6.25, 8.0):
            assert delta_residual(model5, sol, t) < 1e-2


class TestDecompose:
    def test_zero_sequence(self, model5_no_sequence):
        cert = certify(model5_no_sequence)
        grid = [0.0, 4.0, 6.5, 9.0]
        ev = BoundedSolutionEvaluator(model5_no_sequence, cert)
        theta1, theta2 = decompose(ev, grid)
        assert theta2.max_norm() == 0.0
        assert theta1.max_norm() > 0.1

    def test_zero_forcing(self, model5_no_forcing):
        cert = certify(model5_no_forcing)
        ev = BoundedSolutionEvaluator(model5_no_forcing, cert)
        theta1, theta2 = decompose(ev, [0.0, 4.0, 6.5])
        assert theta1.max_norm() < 1e-12
        assert theta2.max_norm() > 0.1

    def test_sum_matches_full_solution(self, model5, cert5):
        ev = BoundedSolutionEvaluator(model5, cert5, 1e-8)
        grid = [0.0, 4.0, 5.5, 9.0, 12.0, 13.0]
        theta1, theta2 = decompose(ev, grid)
        full = lift(ev, grid)
        for t in grid:
            gap = np.linalg.norm(full.value(t) - theta1.value(t) - theta2.value(t))
            assert gap <= 1e-14

    def test_periodic_part_is_period_periodic(self, model5, cert5):
        grid = list(np.linspace(4.05, 8.95, 25)) + list(np.linspace(12.05, 16.95, 25))
        theta1, _ = decompose(BoundedSolutionEvaluator(model5, cert5, 1e-8), grid)
        for t in np.linspace(4.05, 8.95, 25):
            dev = np.linalg.norm(theta1.value(t + 8.0) - theta1.value(t))
            assert dev < 1e-6
