import json
import math

import numpy as np
import pytest

from tsdyn import (
    BoundedSolutionEvaluator,
    ImpulsiveModel,
    ReturnTimeSet,
    TableSequence,
    TimeScaleSolution,
    TrigForcing,
    as_timescale_function,
    certify,
    compact_grid,
    find_return_times,
    lift,
    matriciant,
    mpps_report,
    solution_bound,
    verify_bound,
    verify_periodic,
    verify_poisson,
    verify_stability,
)
from tsdyn.forcing import ReturnEntry

from conftest import ROTATION_A


def return_grids(ts, returns, lo, hi, step):
    """The compact grid (row 0) stacked with its return-shifted copies."""
    return np.add.outer(ts.period * np.array([0, *returns.zetas]), compact_grid(ts, lo, hi, step))


def constant_solution(ts, lo_k, hi_k, value, step=0.5):
    pts, vals = [], []
    for k in range(lo_k, hi_k + 1):
        a, b = ts.endpoint(2 * k - 1), ts.endpoint(2 * k)
        n = max(1, int(round((b - a) / step)))
        for i in range(1, n + 1):
            pts.append(a + (b - a) * i / n)
            vals.append(value)
    endpoint_values = {k: np.asarray(value) for k in range(lo_k, hi_k)}
    return TimeScaleSolution(
        ts=ts, t=np.array(pts), y=np.array(vals), endpoint_values=endpoint_values,
        provenance="lifted",
    )


class TestCompactGrid:
    def test_respects_scale(self, ts5):
        grid = compact_grid(ts5, 1.0, 17.0, 0.05)
        assert grid[0] == 1.0 and grid[-1] == 17.0
        assert all(ts5.contains(t) for t in grid)
        assert 4.0 in grid and 12.0 in grid  # left endpoints included
        assert not any(1.0 < t < 4.0 for t in grid)

    def test_validation(self, ts5):
        with pytest.raises(ValueError):
            compact_grid(ts5, 3.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            compact_grid(ts5, 1.0, 3.0, 0.0)


class TestVerifyPeriodic:
    def test_constant_passes(self, ts5):
        values = np.broadcast_to([1.0, -2.0], (2, 41, 2))
        report = verify_periodic(values, ts5.period, tol=1e-6)
        assert report.passed
        assert report.metrics == {"max_shift_deviation": 0.0, "pairs": 41.0}

    def test_periodic_component_passes(self, model5, cert5, ts5):
        parts = as_timescale_function(BoundedSolutionEvaluator(model5, cert5, 1e-8))
        values = parts(np.add.outer([0.0, ts5.period], compact_grid(ts5, 1.0, 17.0, 0.2)))
        assert verify_periodic(values[..., 0, :], ts5.period, tol=1e-6).passed
        # the sequence-driven part is not periodic
        assert not verify_periodic(values[..., 1, :], ts5.period, tol=1e-6).passed

    @pytest.mark.parametrize("shape", [(3, 5, 2), (1, 5, 2), (2, 5), (2, 0, 2)])
    def test_rejects_wrong_shape(self, ts5, shape):
        with pytest.raises(ValueError, match="shape"):
            verify_periodic(np.zeros(shape), ts5.period, tol=1e-6)


class TestVerifyPoisson:
    def test_exact_recurrence_gives_zero(self, ts5, forcing5):
        returns = ReturnTimeSet(window=(0, 5), entries=(ReturnEntry(1, 0.0),))
        grids = return_grids(ts5, returns, 1.0, 17.0, 0.25)
        values = forcing5.value_many(grids.ravel()).reshape(grids.shape + (2,))
        report = verify_poisson(values, returns, 1.0, 17.0, 0.25, eps=1e-9)
        assert report.passed
        assert report.metrics["final_sup_difference"] < 1e-12

    def test_worked_scenario(self, model5, cert5, ts5):
        returns = find_return_times(model5.sequence, (0, 20), 100_000, max_count=3)
        parts = as_timescale_function(BoundedSolutionEvaluator(model5, cert5, 1e-8))
        values = parts(return_grids(ts5, returns, 1.0, 17.0, 0.05))
        report = verify_poisson(values[..., 1, :], returns, 1.0, 17.0, 0.05)
        assert report.passed
        sups = [report.metrics[f"D_{i}"] for i in range(3)]
        assert all(s > 0 for s in sups)
        assert report.parameters["eps_rule"] == "5*final_defect+1e-6"
        assert report.metrics["final_sup_difference"] <= report.parameters["eps"]

    def test_shuffled_table_fails(self, ts5):
        rng = np.random.default_rng(40)
        n_hi = 260
        values = rng.uniform(0.0, 1.0, size=(n_hi + 60, 2))
        table = TableSequence({k - 40: values[k] for k in range(n_hi + 60)})
        model = ImpulsiveModel(
            matrix=ROTATION_A, ts=ts5, forcing=TrigForcing.zero(2, 8.0), sequence=table,
        )
        cert = certify(model)
        returns = find_return_times(table, (0, 20), 180, max_count=3)
        parts = as_timescale_function(BoundedSolutionEvaluator(model, cert, 1e-6))
        values = parts(return_grids(ts5, returns, 1.0, 17.0, 0.5))
        report = verify_poisson(values[..., 1, :], returns, 1.0, 17.0, 0.5, eps=1e-3)
        assert not report.passed

    def test_requires_returns(self, ts5):
        with pytest.raises(ValueError):
            verify_poisson(
                np.zeros((1, 3, 2)), ReturnTimeSet(window=(0, 1), entries=()), 1.0, 17.0, 0.5,
            )


class TestVerifyBound:
    def test_zero_solution(self, ts5, cert5):
        sol = constant_solution(ts5, 0, 2, [0.0, 0.0])
        assert verify_bound(sol, cert5, 1.25, math.sqrt(5.0)).passed

    def test_worked_scenario(self, model5, cert5, ts5):
        grid = compact_grid(ts5, -4.0, 20.0, 0.1)
        sol = lift(BoundedSolutionEvaluator(model5, cert5, 1e-8), grid)
        sup_f = model5.forcing.sup_norm(ts5)
        sup_seq = model5.sequence.sup_norm(-100, 100).ceiling
        report = verify_bound(sol, cert5, sup_f, sup_seq)
        assert report.passed
        assert report.metrics["max_solution_norm"] < report.metrics["bound"]

    def test_violation_detected(self, ts5, cert5):
        big = solution_bound(cert5, ts5, 1.25, math.sqrt(5.0)) + 1.0
        sol = constant_solution(ts5, 0, 2, [big, 0.0])
        assert not verify_bound(sol, cert5, 1.25, math.sqrt(5.0)).passed


class TestVerifyStability:
    def test_identical_starts(self, model5, cert5):
        # two identical starts are zero apart
        report = verify_stability(model5, cert5, np.zeros(2), 0.5, 80.0, 1e-2)
        assert report.passed
        assert "fitted_slope" not in report.metrics

    def test_distinct_starts_contract(self, model5, cert5):
        rng = np.random.default_rng(33)
        y0a = rng.uniform(-1.0, 1.0, 2)
        y0b = rng.uniform(-1.0, 1.0, 2)
        report = verify_stability(model5, cert5, y0a - y0b, 1.0, 80.0, 1e-2)
        assert report.passed
        assert report.metrics["fitted_slope"] <= -cert5.decay_rate
        assert report.metrics["envelope_min_margin"] >= 0.0

    def test_separation_is_the_homogeneous_solution(self, model5, cert5):
        # over fifteen periods the separation falls to ~1e-16, where the
        # difference of two forced trajectories would be round-off alone
        rng = np.random.default_rng(33)
        y0a = rng.uniform(-1.0, 1.0, 2)
        y0b = rng.uniform(-1.0, 1.0, 2)
        ts = model5.ts
        for t0, horizon in ((1.0, 80.0), (0.5, 120.0)):
            report = verify_stability(model5, cert5, y0a - y0b, t0, horizon, 1e-2)
            exact = matriciant(model5, ts.psi(t0 + horizon), ts.psi(t0)) @ (y0a - y0b)
            final = report.metrics["final_separation"]
            assert final == pytest.approx(float(np.linalg.norm(exact)), rel=1e-8)

    def test_requires_long_horizon(self, model5, cert5):
        with pytest.raises(ValueError, match="five periods"):
            verify_stability(model5, cert5, np.ones(2), 0.5, 16.0, 1e-2)


class TestAggregate:
    def _stub(self, kind, passed, metrics=None):
        from tsdyn import VerificationReport

        return VerificationReport(kind=kind, metrics=metrics or {}, passed=passed)

    def test_conjunction(self):
        full = self._stub("poisson", True, {"D_0": 0.5})
        good = [
            self._stub("periodicity", True),
            self._stub("poisson", True, {"D_0": 0.5}),
            self._stub("bound", True),
            self._stub("stability", True),
        ]
        assert mpps_report(*good, full).passed
        bad = good[:3] + [self._stub("stability", False)]
        assert not mpps_report(*bad, full).passed

    def test_recurrence_identity(self):
        p2 = self._stub("poisson", True, {"D_0": 0.5, "D_1": 0.1})
        full_close = self._stub("poisson", True, {"D_0": 0.5 + 1e-9, "D_1": 0.1})
        report = mpps_report(
            self._stub("periodicity", True), p2, self._stub("bound", True),
            self._stub("stability", True), poisson_full=full_close, tol=1e-8,
        )
        assert report.passed
        assert report.metrics["recurrence_identity_deviation"] <= 2e-8
        full_far = self._stub("poisson", True, {"D_0": 0.6, "D_1": 0.1})
        report = mpps_report(
            self._stub("periodicity", True), p2, self._stub("bound", True),
            self._stub("stability", True), poisson_full=full_far, tol=1e-8,
        )
        assert not report.passed

    def test_identity_requires_the_same_returns(self):
        one = ReturnTimeSet(window=(0, 5), entries=(ReturnEntry(1, 0.5),))
        two = ReturnTimeSet(window=(0, 5), entries=(ReturnEntry(1, 0.5), ReturnEntry(2, 0.25)))
        p2 = verify_poisson(np.zeros((2, 3, 2)), one, 1.0, 17.0, 0.5)
        full = verify_poisson(np.zeros((3, 3, 2)), two, 1.0, 17.0, 0.5)
        with pytest.raises(ValueError, match="different returns"):
            mpps_report(
                self._stub("periodicity", True), p2, self._stub("bound", True),
                self._stub("stability", True), poisson_full=full,
            )

    def test_worked_scenario_identity(self, model5, cert5, ts5):
        returns = find_return_times(model5.sequence, (0, 20), 100_000, max_count=3)
        tol = 1e-8
        parts = as_timescale_function(BoundedSolutionEvaluator(model5, cert5, tol))
        kw = dict(compact_lo=1.0, compact_hi=17.0, grid_step=0.25)
        values = parts(return_grids(ts5, returns, 1.0, 17.0, 0.25))
        rep2 = verify_poisson(values[..., 1, :], returns, **kw)
        repf = verify_poisson(
            values.sum(axis=-2), returns, eps=rep2.parameters["eps"] + 2 * tol, **kw,
        )
        report = mpps_report(
            self._stub("periodicity", True), rep2, self._stub("bound", True),
            self._stub("stability", True), poisson_full=repf, tol=tol,
        )
        assert report.metrics["recurrence_identity_deviation"] <= 2 * tol
        assert report.passed

    def test_reports_serialize(self, ts5, cert5):
        sol = constant_solution(ts5, 0, 2, [0.0, 0.0])
        report = verify_bound(sol, cert5, 1.0, 1.0)
        text = json.dumps(report.to_dict())
        assert "bound" in json.loads(text)["kind"]
