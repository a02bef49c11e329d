import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tsdyn import (
    AssumptionError,
    BoundedSolutionEvaluator,
    ForcingComponent,
    HorizonError,
    ImpulsiveModel,
    LogisticSequence,
    TableSequence,
    TrigForcing,
    certify,
    check_contractive_period,
    check_invertible_jump,
    find_return_times,
    integrate,
    matriciant,
    recurrence_defect,
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

    def test_long_window_matches_diagonal_closed_form(self, ts5):
        # A = V diag(D) V^-1 is far from normal: Q^n grows like 2.6^n while
        # expm(Aq) shrinks, so their product in one piece cancels to noise
        V = np.array([[1.0, 5.0], [0.0, 1.0]])
        D = np.array([-0.3, -1.2])
        model = quiet_model(ts5, V @ np.diag(D) @ np.linalg.inv(V), 2)
        r = 0.3
        for q in (50.0, 100.0, 150.0):
            n = ts5.count_impulses(r, r + q)
            want = V @ np.diag(np.exp(D * q) * (1.0 + ts5.gap * D) ** n) @ np.linalg.inv(V)
            got = matriciant(model, r + q, r)
            assert spectral_norm(got - want) <= 1e-10 * spectral_norm(want)
        # the proven stop gives a prefactor of the size of the transient growth
        assert certify(model).prefactor < 1e3

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
        right = model5.jump(k, left)  # the value at the left endpoint after impulse k
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
        assert ev.sup_forcing == model5.forcing.sup_norm(ts5)
        assert ev.sup_sequence == model5.sequence.sup_norm(-2000, -2000).ceiling
        assert ev.sup_bound == solution_bound(cert5, ts5, ev.sup_forcing, ev.sup_sequence)

    def test_concurrent_evaluation_matches_serial(self, model5, cert5):
        # more threads than cores and a short switch interval interleave the
        # threads inside one shared instance; grids a whole period apart share
        # partial lengths, so the threads compute the same segments at once
        grids = [np.linspace(-20.0, 20.0, 97) + 8.0 * i for i in range(4)]
        expected = [BoundedSolutionEvaluator(model5, cert5, 1e-8).parts(g) for g in grids]
        shared = BoundedSolutionEvaluator(model5, cert5, 1e-8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(shared.parts, g) for g in grids * 4]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected * 4):
            assert np.array_equal(got, want)

    def test_horizon_error_for_shallow_seed(self, ts5, forcing5):
        shallow = LogisticSequence(3.9, 0.4, k_min=-4, output_map=(1.0, 2.0))
        model = ImpulsiveModel(matrix=ROTATION_A, ts=ts5, forcing=forcing5, sequence=shallow)
        cert = certify(model)
        ev = BoundedSolutionEvaluator(model, cert, tol=1e-8)
        batch = np.array([30.0, 2.0, 9.5])
        deepest = int(ts5.impulse_index_below(2.0 - ev.horizon)) + 1
        assert deepest < -4
        # the batch is checked as a whole: the message names the deepest
        # index any of its points reads
        with pytest.raises(HorizonError, match=rf"index {deepest} but .* starts at -4"):
            ev.value(batch)


class TestComponents:
    def test_zero_sequence_means_zero_poisson_part(self, model5_no_sequence):
        cert = certify(model5_no_sequence)
        ev = BoundedSolutionEvaluator(model5_no_sequence, cert)
        periodic, sequence = ev.parts(4.2)
        assert np.array_equal(sequence, np.zeros(2))
        ts = model5_no_sequence.ts
        right = model5_no_sequence.jump(1, ev.parts(ts.impulse_point(1)))
        assert np.array_equal(right[1], np.zeros(2))
        assert np.array_equal(ev.value(4.2), periodic)

    def test_zero_forcing_means_zero_periodic_part(self, model5_no_forcing):
        cert = certify(model5_no_forcing)
        ev = BoundedSolutionEvaluator(model5_no_forcing, cert)
        assert np.allclose(ev.parts(4.2)[0], np.zeros(2), atol=1e-12)

    def test_periodic_component_is_stride_periodic(self, model5, cert5):
        ev = BoundedSolutionEvaluator(model5, cert5, tol=1e-8)
        s = np.linspace(1.3, 5.9, 12)
        drift = ev.parts(s + 5.0)[:, 0] - ev.parts(s)[:, 0]
        assert np.max(np.linalg.norm(drift, axis=1)) < 1e-6

    def test_parts_sum_to_full(self, model5, cert5, ts5):
        ev = BoundedSolutionEvaluator(model5, cert5, 1e-8)
        s = np.array([1.0, 2.2, 8.8, 14.3])
        assert np.array_equal(ev.parts(s).sum(axis=1), ev.value(s))
        # and so do their right limits after an impulse
        for k in (0, 1, 3):
            x = ts5.impulse_point(k)
            split = model5.jump(k, ev.parts(x)).sum(axis=0)
            assert np.allclose(split, model5.jump(k, ev.value(x)), rtol=0.0, atol=1e-14)

    def test_elementwise_shapes(self, model5, cert5):
        ev = BoundedSolutionEvaluator(model5, cert5, 1e-8)
        s = np.array([[1.0, 2.2, 8.8], [14.3, -3.1, 0.0]])
        assert ev.value(2.2).shape == (2,) and ev.parts(2.2).shape == (2, 2)
        assert ev.value(s).shape == (2, 3, 2) and ev.parts(s).shape == (2, 3, 2, 2)
        assert np.array_equal(ev.parts(s)[1, 0], ev.parts(14.3))
        assert np.array_equal(ev.value(s)[0, 1], ev.value(2.2))


class TestJump:
    def test_formula(self, model5, ts5):
        x = np.array([0.3, -1.7])
        k = 2
        pulse = (
            ROTATION_A @ x
            + model5.forcing.value(ts5.psi_inv(ts5.impulse_point(k)))
            + model5.sequence.term(k)
        )
        assert np.allclose(model5.jump(k, x), x + ts5.gap * pulse, rtol=0.0, atol=1e-14)

    def test_parts_split_the_pulse(self, model5, ts5):
        parts = np.array([[0.3, -1.7], [2.0, 0.5]])
        k = -1
        jumped = model5.jump(k, parts)
        f = model5.forcing.value(ts5.anchor)
        term = model5.sequence.term(k)
        assert np.allclose(jumped[0], parts[0] + ts5.gap * (ROTATION_A @ parts[0] + f))
        assert np.allclose(jumped[1], parts[1] + ts5.gap * (ROTATION_A @ parts[1] + term))
        assert np.allclose(jumped.sum(axis=0), model5.jump(k, parts.sum(axis=0)))


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


class InterfaceOnly:
    """A sequence kind with only the members every reader may use: no
    ``sup_norm``, no private state of a library kind."""

    def __init__(self, table: TableSequence) -> None:
        self.dimension, self.ceiling = table.dimension, table.ceiling
        self.min_index, self.term, self.terms = table.min_index, table.term, table.terms

    def rank_one(self, k_lo, k_hi):
        return None


def test_any_kind_with_the_interface_runs(ts5, forcing5):
    rng = np.random.default_rng(11)
    table = TableSequence({k: rng.uniform(-1.0, 1.0, 2) for k in range(-400, 401)})
    wrapped = InterfaceOnly(table)
    models = [ImpulsiveModel(matrix=ROTATION_A, ts=ts5, forcing=forcing5, sequence=seq)
              for seq in (table, wrapped)]
    cert = certify(models[1])
    s = np.linspace(-20.0, 20.0, 161)
    want, got = (BoundedSolutionEvaluator(model, cert, 1e-8) for model in models)
    assert got.sup_sequence == want.sup_sequence == table.ceiling
    assert got.parts(s).tobytes() == want.parts(s).tobytes()
    assert models[1].jump(3, s[:2]).tobytes() == models[0].jump(3, s[:2]).tobytes()
    returns = find_return_times(wrapped, (0, 20), 300, max_count=8)
    assert returns == find_return_times(table, (0, 20), 300, max_count=8)
    for entry in returns.entries:
        assert entry.defect == recurrence_defect(wrapped, (0, 20), entry.zeta)
