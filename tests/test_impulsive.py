import math

import numpy as np
import pytest

from tsdyn import (
    AssumptionError,
    BoundedSolutionEvaluator,
    ForcingComponent,
    HorizonError,
    ImpulsiveModel,
    LogisticSequence,
    TrigForcing,
    certify,
    check_contractive_period,
    check_invertible_jump,
    integrate,
    matriciant,
    solution_bound,
)
from tsdyn.matrixkit import expm, spectral_norm

from conftest import ROTATION_A, zero_table


def quiet_model(ts, matrix, dimension):
    """Model with zero periodic and zero sequence forcing."""
    return ImpulsiveModel(
        matrix=np.asarray(matrix, float),
        ts=ts,
        forcing=TrigForcing.zero(dimension, ts.period),
        sequence=zero_table(dimension, -40, 40),
    )


class TestAssumptions:
    def test_worked_example(self, model5):
        a1 = check_invertible_jump(model5)
        assert a1.passed and a1.value == pytest.approx(0.4, abs=1e-14)
        a2 = check_contractive_period(model5)
        assert a2.passed
        assert a2.value == pytest.approx(math.exp(-2.0) * math.sqrt(0.4), abs=1e-12)

    def test_singular_jump(self, ts5):
        model = quiet_model(ts5, -np.eye(2) / ts5.gap, 2)
        a1 = check_invertible_jump(model)
        assert not a1.passed and a1.value == pytest.approx(0.0, abs=1e-14)

    def test_zero_matrix(self, ts5):
        model = quiet_model(ts5, np.zeros((2, 2)), 2)
        assert check_invertible_jump(model).value == pytest.approx(1.0)
        a2 = check_contractive_period(model)
        assert not a2.passed and a2.value == pytest.approx(1.0)

    def test_diagonal_closed_form(self, ts5):
        model = quiet_model(ts5, -np.eye(2), 2)
        a2 = check_contractive_period(model)
        # per diagonal entry: e^(stride * a) * |1 + gap * a| = e^-5 * |-2|
        assert a2.passed
        assert a2.value == pytest.approx(2.0 * math.exp(-5.0), rel=1e-10)


class TestCertificate:
    def test_worked_example_rates(self, model5, cert5):
        rho = math.exp(-2.0) * math.sqrt(0.4)
        assert cert5.floquet_radius == pytest.approx(rho, abs=1e-12)
        assert cert5.decay_rate == pytest.approx(0.9 * (-math.log(rho)) / 5.0, rel=1e-10)
        assert cert5.decay_rate == pytest.approx(0.4424, abs=5e-4)
        assert cert5.prefactor >= 1.0

    def test_requires_assumptions(self, ts5):
        with pytest.raises(AssumptionError):
            certify(quiet_model(ts5, np.zeros((2, 2)), 2))

    def test_decay_bound_on_grid(self, model5, cert5):
        rng = np.random.default_rng(12)
        for _ in range(200):
            r = float(rng.uniform(-10.0, 10.0))
            q = float(rng.uniform(0.0, 30.0))
            norm = spectral_norm(matriciant(model5, r + q, r))
            assert norm <= cert5.prefactor * math.exp(-cert5.decay_rate * q) * (1 + 1e-9)

    def test_scalar_closed_form_oracle(self, ts5):
        a = -0.5
        model = quiet_model(ts5, np.array([[a]]), 1)
        cert = certify(model)
        # ||U(r+q, r)|| e^{rate q} = e^{(a+rate) q} (1 + gap*a)^i; the grid
        # maximum over one period bounds the certified prefactor from below
        rng = np.random.default_rng(13)
        grid_max = 0.0
        for _ in range(500):
            r = float(rng.uniform(0.0, 5.0))
            q = float(rng.uniform(0.0, 10.0))
            i = ts5.count_impulses(r, r + q)
            grid_max = max(
                grid_max,
                math.exp((a + cert.decay_rate) * q) * abs(1.0 + ts5.gap * a) ** i,
            )
        assert cert.prefactor >= grid_max * (1 - 1e-9)
        assert cert.prefactor <= 10.0 * grid_max


class TestMatriciant:
    def test_identity_at_equal_times(self, model5):
        assert np.allclose(matriciant(model5, 2.0, 2.0), np.eye(2), atol=1e-14)

    def test_no_impulse_is_plain_exponential(self, model5):
        got = matriciant(model5, 5.9, 1.1)  # (1.1, 5.9) contains no impulse... s_1=6
        assert np.allclose(got, expm(4.8 * ROTATION_A), atol=1e-13)

    def test_single_impulse(self, model5, ts5):
        got = matriciant(model5, 6.0, 0.0)  # crosses s_0 = 1 only (s_1 = 6 excluded)
        want = expm(6.0 * ROTATION_A) @ (np.eye(2) + 3.0 * ROTATION_A)
        assert np.allclose(got, want, atol=1e-13)

    def test_rejects_reversed_arguments(self, model5):
        with pytest.raises(ValueError):
            matriciant(model5, 0.0, 1.0)

    def test_cocycle(self, model5):
        rng = np.random.default_rng(14)
        for _ in range(50):
            r = float(rng.uniform(-20.0, 20.0))
            q1 = float(rng.uniform(0.0, 12.0))
            q2 = float(rng.uniform(0.0, 12.0))
            U_sr = matriciant(model5, r + q1 + q2, r)
            U_sq = matriciant(model5, r + q1 + q2, r + q1)
            U_qr = matriciant(model5, r + q1, r)
            assert np.max(np.abs(U_sr - U_sq @ U_qr)) < 1e-10

    def test_period_shift(self, model5, ts5):
        rng = np.random.default_rng(15)
        for _ in range(50):
            r = float(rng.uniform(-20.0, 20.0))
            q = float(rng.uniform(0.0, 12.0))
            a = matriciant(model5, r + q, r)
            b = matriciant(model5, r + q + ts5.stride, r + ts5.stride)
            assert np.max(np.abs(a - b)) < 1e-12


class TestIntegrate:
    def test_equilibrium(self, ts5):
        model = quiet_model(ts5, ROTATION_A, 2)
        traj = integrate(model, np.zeros(2), 0.0, 10.0, 1e-2)
        assert np.max(np.abs(traj.x)) == 0.0

    def test_matches_exponential_without_impulses(self, ts5):
        model = quiet_model(ts5, ROTATION_A, 2)
        x0 = np.array([1.0, -0.5])
        traj = integrate(model, x0, 1.2, 5.8, 1e-3)  # no impulse in (1.2, 5.8)
        want = expm(4.6 * ROTATION_A) @ x0
        assert np.linalg.norm(traj.value(5.8) - want) < 1e-8

    def test_matches_matriciant_across_impulses(self, ts5):
        model = quiet_model(ts5, ROTATION_A, 2)
        x0 = np.array([0.3, 0.9])
        traj = integrate(model, x0, 0.0, 13.0, 1e-3)
        want = matriciant(model, 13.0, 0.0) @ x0
        assert np.linalg.norm(traj.value(13.0) - want) < 1e-8

    def test_jump_records(self, model5):
        x0 = np.array([0.2, -0.1])
        traj = integrate(model5, x0, 0.0, 7.0, 1e-2)
        assert [j.index for j in traj.jumps] == [0, 1]
        j0 = traj.jumps[0]
        expected = j0.before + 3.0 * (
            ROTATION_A @ j0.before + model5.forcing.value(1.0) + model5.sequence.term(0)
        )
        assert np.allclose(j0.after, expected, atol=1e-14)
        # samples keep the left-limit value at the impulse abscissa
        assert np.array_equal(traj.value(1.0), j0.before)

    def test_rejects_bad_step(self, model5):
        with pytest.raises(ValueError):
            integrate(model5, np.zeros(2), 0.0, 1.0, 0.0)


class TestBoundedSolution:
    def test_zero_forcing_gives_zero(self, ts5):
        model = quiet_model(ts5, ROTATION_A, 2)
        cert = certify(model)
        ev = BoundedSolutionEvaluator(model, cert)
        assert np.allclose(ev.value(3.3), np.zeros(2), atol=1e-12)

    def test_scalar_closed_form(self, ts5):
        # 1-d system, constant forcing c, zero sequence: the bounded solution
        # is the geometric/integral sum of e^{a(s-r)} (1+gap*a)^i weights
        a, c = -0.6, 0.8
        model = ImpulsiveModel(
            matrix=np.array([[a]]),
            ts=ts5,
            forcing=TrigForcing(8.0, (ForcingComponent(constant=c),)),
            sequence=zero_table(1, -40, 40),
        )
        cert = certify(model)
        s = 3.45
        q = 1.0 + ts5.gap * a

        # closed-form oracle: exact exponential integral per impulse-free
        # segment (weight constant there) plus the geometric impulse sum
        k_hi = ts5.impulse_index_below(s)
        total = 0.0
        upper = s
        count = 0
        for k in range(k_hi, k_hi - 30, -1):
            lower = ts5.impulse_point(k)
            total += c * q ** count * (math.exp(a * (s - lower)) - math.exp(a * (s - upper))) / a
            count += 1
            total += ts5.gap * c * math.exp(a * (s - lower)) * q ** (count - 1)
            upper = lower
        got = BoundedSolutionEvaluator(model, cert, tol=1e-9).value(s)
        assert got[0] == pytest.approx(total, abs=1e-9)
        # and the equation itself pins the constant solution -c/a
        assert got[0] == pytest.approx(-c / a, abs=1e-9)

    def test_agrees_with_deep_past_integration(self, model5, cert5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-8)
        for s in (10.0, 3.25, 17.5):
            traj = integrate(model5, np.zeros(2), s - ev.horizon, s, 2e-3)
            assert np.linalg.norm(ev.value(s) - traj.value(s)) < 1e-6

    def test_satisfies_equation_between_impulses(self, model5, cert5, ts5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-8)
        h = 1e-3
        for s in (2.5, 4.8, 9.3):
            derivative = (ev.value(s + h) - ev.value(s - h)) / (2.0 * h)
            k = ts5.impulse_index_below(s) + 1
            rhs = (
                ROTATION_A @ ev.value(s)
                + model5.forcing.value(ts5.psi_inv(s))
                + model5.sequence.term(k)
            )
            assert np.linalg.norm(derivative - rhs) < 1e-4

    def test_jump_relation_at_impulses(self, model5, cert5, ts5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-10)
        k = 1
        sk = ts5.impulse_point(k)
        left = ev.value(sk)
        right = ev.right_limit(k)
        jump = ts5.gap * (
            ROTATION_A @ left + model5.forcing.value(ts5.psi_inv(sk)) + model5.sequence.term(k)
        )
        assert np.allclose(right - left, jump, atol=1e-12)
        # approaching from the right converges to the right limit
        assert np.linalg.norm(ev.value(sk + 1e-7) - right) < 1e-5

    def test_sup_bound(self, model5, cert5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-8)
        worst = max(np.linalg.norm(ev.value(s)) for s in np.linspace(-20.0, 20.0, 161))
        assert worst <= ev.sup_bound

    def test_sup_bound_is_solution_bound(self, model5, cert5, ts5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-8)
        sup_seq = model5.sequence.sup_norm(-2000, -2000).ceiling
        assert ev.sup_bound == solution_bound(cert5, ts5, model5.forcing.sup_norm(ts5), sup_seq)

    def test_horizon_error_for_shallow_seed(self, ts5, forcing5):
        shallow = LogisticSequence(3.9, 0.4, k_min=-4, output_map=(1.0, 2.0))
        model = ImpulsiveModel(matrix=ROTATION_A, ts=ts5, forcing=forcing5, sequence=shallow)
        cert = certify(model)
        ev = BoundedSolutionEvaluator(model, cert, tol=1e-8)
        with pytest.raises(HorizonError):
            ev.value(2.0)


class TestComponents:
    def test_zero_sequence_means_zero_poisson_part(self, model5_no_sequence):
        cert = certify(model5_no_sequence)
        poi = BoundedSolutionEvaluator(model5_no_sequence, cert, include_periodic=False)
        assert np.allclose(poi.value(4.2), np.zeros(2), atol=1e-12)
        full = BoundedSolutionEvaluator(model5_no_sequence, cert).value(4.2)
        per = BoundedSolutionEvaluator(
            model5_no_sequence, cert, include_sequence=False
        ).value(4.2)
        assert np.allclose(full, per, atol=1e-12)

    def test_zero_forcing_means_zero_periodic_part(self, model5_no_forcing):
        cert = certify(model5_no_forcing)
        per = BoundedSolutionEvaluator(model5_no_forcing, cert, include_sequence=False)
        assert np.allclose(per.value(4.2), np.zeros(2), atol=1e-12)

    def test_periodic_component_is_stride_periodic(self, model5, cert5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-8, include_sequence=False)
        for s in np.linspace(1.3, 5.9, 12):
            assert np.linalg.norm(ev.value(s + 5.0) - ev.value(s)) < 1e-6

    def test_parts_sum_to_full(self, model5, cert5):
        tol = 1e-8
        full = BoundedSolutionEvaluator(model5, cert5, tol)
        per = BoundedSolutionEvaluator(model5, cert5, tol, include_sequence=False)
        poi = BoundedSolutionEvaluator(model5, cert5, tol, include_periodic=False)
        for s in (1.0, 2.2, 8.8, 14.3):
            gap = np.linalg.norm(full.value(s) - per.value(s) - poi.value(s))
            assert gap <= 2.0 * tol


class TestModelValidation:
    def test_dimension_mismatch(self, ts5, forcing5):
        with pytest.raises(ValueError, match="dimension"):
            ImpulsiveModel(
                matrix=np.eye(3), ts=ts5, forcing=forcing5,
                sequence=zero_table(3, -5, 5),
            )

    def test_period_mismatch(self, ts5, sequence5):
        with pytest.raises(ValueError, match="period"):
            ImpulsiveModel(
                matrix=ROTATION_A, ts=ts5,
                forcing=TrigForcing.zero(2, 6.0), sequence=sequence5,
            )
