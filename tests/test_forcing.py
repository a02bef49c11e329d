import math

import numpy as np
import pytest

from tsdyn import (
    ForcingComponent,
    Harmonic,
    LogisticSequence,
    TableSequence,
    TimeScaleSpec,
    TrigForcing,
    find_return_times,
    piecewise_forcing_value,
    recurrence_defect,
)
from tsdyn.matrixkit import expm


class TestTrigForcing:
    def test_pinned_values(self, forcing5):
        assert np.allclose(forcing5.value(0.0), [1.0, 0.0], atol=1e-15)
        assert np.allclose(forcing5.value(4.0), [-1.0, 0.0], atol=1e-15)

    def test_periodicity(self, forcing5):
        rng = np.random.default_rng(0)
        ts = rng.uniform(-8.0, 8.0, size=10_000)
        diff = forcing5.value_many(ts + 8.0) - forcing5.value_many(ts)
        # a few ulps of the phase magnitude
        assert float(np.max(np.abs(diff))) < 1e-13

    def test_sup_norm_worked_example(self, forcing5, ts5):
        # ||f||^2 = c^2 (5 - 4 c^2) with c = cos(pi t / 4), maximized at c^2 = 5/8
        assert forcing5.sup_norm(ts5) == pytest.approx(1.25, rel=1e-6)
        assert forcing5.sup_norm() == pytest.approx(1.25, rel=1e-6)

    def test_sup_norm_dense_grid_oracle(self, forcing5, ts5):
        pts = np.linspace(ts5.endpoint(-1), ts5.endpoint(0), 1_000_000)
        oracle = math.sqrt(float(np.max(np.sum(forcing5.value_many(pts) ** 2, axis=1))))
        assert forcing5.sup_norm(ts5) == pytest.approx(oracle, rel=1e-6)

    def test_sup_norm_is_upper_bound(self, forcing5, ts5):
        rng = np.random.default_rng(8)
        rich = TrigForcing(8.0, tuple(
            ForcingComponent(rng.uniform(-1, 1), tuple(
                Harmonic(n, rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in (1, 3, 4)
            ))
            for _ in range(3)
        ))
        for forcing in (forcing5, rich):
            pts = np.linspace(ts5.endpoint(-1), ts5.endpoint(0), 1_000_000)
            dense = math.sqrt(float(np.max(np.sum(forcing.value_many(pts) ** 2, axis=1))))
            bound = forcing.sup_norm(ts5)
            assert dense <= bound <= dense * (1.0 + 1e-2)

    def test_realization(self, forcing5):
        t0 = 4.3
        C, W, z0 = forcing5.realization(t0)
        for u in (0.0, 0.7, 5.0, 11.2):
            want = forcing5.value(t0 + u)
            assert np.allclose(C @ expm(u * W) @ z0, want, atol=1e-13)

    def test_sup_norm_trivial_cases(self):
        assert TrigForcing.zero(3, 8.0).sup_norm() == 0.0
        const = TrigForcing(8.0, (ForcingComponent(2.0), ForcingComponent(-1.0)))
        assert const.sup_norm() == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Harmonic(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            TrigForcing(-1.0, (ForcingComponent(),))
        with pytest.raises(ValueError):
            TrigForcing(8.0, ())

    def test_derivative_bound(self, forcing5):
        # component frequencies pi/4 and pi/2
        want = math.hypot((math.pi / 4.0) ** 2, (math.pi / 2.0) ** 2)
        assert forcing5.derivative_bound(2) == pytest.approx(want, rel=1e-12)


class TestLogisticSequence:
    def test_orbit_start(self):
        seq = LogisticSequence(3.9, 0.5, k_min=0, output_map=(1.0, 2.0))
        assert np.allclose(seq.orbit(2), [0.5, 0.975])

    def test_term_with_output_map(self):
        seq = LogisticSequence(3.9, 0.5, k_min=0, output_map=(1.0, 2.0))
        assert np.allclose(seq.term(1), [0.975, 1.95])

    def test_zero_output_map(self):
        seq = LogisticSequence(3.9, 0.5, k_min=0, output_map=(0.0, 0.0))
        assert np.all(seq.term(123) == 0.0)

    def test_confinement(self):
        seq = LogisticSequence(3.9, 0.4, k_min=0, output_map=(1.0,))
        orbit = seq.orbit(10_000)
        assert np.all((orbit >= 0.0) & (orbit <= 1.0))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LogisticSequence(4.5, 0.5)
        with pytest.raises(ValueError):
            LogisticSequence(3.9, 0.0)
        with pytest.raises(ValueError):
            LogisticSequence(3.9, 1.0)

    def test_no_backward_extension(self):
        seq = LogisticSequence(3.9, 0.4, k_min=-10, output_map=(1.0,))
        with pytest.raises(ValueError, match="does not extend backward"):
            seq.term(-11)

    def test_memo_consistency(self):
        a = LogisticSequence(3.9, 0.4, k_min=0, output_map=(1.0,))
        late = a.term(500).copy()
        early = a.term(3).copy()
        b = LogisticSequence(3.9, 0.4, k_min=0, output_map=(1.0,))
        assert np.array_equal(b.term(500), late)
        assert np.array_equal(b.term(3), early)

    def test_concurrent_reads_match_sequential(self):
        from concurrent.futures import ThreadPoolExecutor

        reference = LogisticSequence(3.9, 0.4, k_min=0, output_map=(1.0, 2.0))
        expected = reference.terms(0, 4000)
        fresh = LogisticSequence(3.9, 0.4, k_min=0, output_map=(1.0, 2.0))
        indices = list(range(4000, -1, -1)) * 2  # descending, forcing growth races
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fresh.term, indices))
        for k, value in zip(indices, results):
            assert np.array_equal(value, expected[k])

    def test_sup_norm(self, sequence5):
        observed, ceiling = sequence5.sup_norm(-2000, 8000)
        scale = math.sqrt(5.0)
        assert ceiling == pytest.approx(scale)
        # orbit maximum is at most r/4 = 0.975 after the first step
        assert observed <= scale * 0.975 + 1e-12
        assert observed == pytest.approx(2.18, abs=0.01)
        # oracle: direct scan of the orbit
        orbit = sequence5.orbit(10_001)
        assert observed == pytest.approx(scale * float(np.max(orbit)), rel=1e-12)


class TestTableSequence:
    def test_lookup_and_errors(self):
        seq = TableSequence({0: [1.0, 0.0], 1: [0.0, 1.0]})
        assert np.allclose(seq.term(1), [0.0, 1.0])
        with pytest.raises(KeyError):
            seq.term(2)

    def test_all_zero(self):
        seq = TableSequence({k: [0.0] for k in range(5)})
        assert seq.sup_norm(0, 4) == (0.0, 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TableSequence({0: [1.0], 1: [1.0, 2.0]})


class TestPiecewiseForcing:
    def test_interval_values(self, sequence5, ts5):
        assert np.array_equal(piecewise_forcing_value(sequence5, ts5, 0.0), sequence5.term(0))
        assert np.array_equal(piecewise_forcing_value(sequence5, ts5, 9.0), sequence5.term(1))
        # shared right endpoint belongs to its own interval
        assert np.array_equal(piecewise_forcing_value(sequence5, ts5, 1.0), sequence5.term(0))
        assert np.array_equal(piecewise_forcing_value(sequence5, ts5, 4.0), sequence5.term(1))

    def test_constant_on_interval(self, sequence5, ts5):
        for t in np.linspace(4.0, 9.0, 17):
            assert np.array_equal(
                piecewise_forcing_value(sequence5, ts5, float(t)), sequence5.term(1)
            )


class TestReturnTimes:
    def test_periodic_table(self):
        period = 4
        base = [[0.1], [0.7], [0.3], [0.9]]
        table = {k: base[k % period] for k in range(0, 120)}
        returns = find_return_times(TableSequence(table), (0, 10), 100, max_count=8)
        assert returns.entries[-1].zeta == period
        assert returns.entries[-1].defect == 0.0

    def test_constant_sequence(self):
        table = {k: [0.5, 0.5] for k in range(0, 60)}
        returns = find_return_times(TableSequence(table), (0, 10), 40, max_count=4)
        assert returns.entries[-1] == returns.entries[0]
        assert returns.entries[0].zeta == 1
        assert returns.entries[0].defect == 0.0

    def test_worked_example_records(self, sequence5):
        returns = find_return_times(sequence5, (0, 20), 100_000, max_count=32)
        assert len(returns.entries) >= 3
        defects = returns.defects
        assert all(b < a for a, b in zip(defects, defects[1:]))
        zetas = returns.zetas
        assert all(b > a for a, b in zip(zetas, zetas[1:]))
        # oracle: recompute two defects by the direct definition
        for entry in returns.entries[-2:]:
            direct = recurrence_defect(sequence5, (0, 20), entry.zeta)
            assert entry.defect == pytest.approx(direct, rel=1e-12)

    def test_max_count_keeps_deepest(self, sequence5):
        all_records = find_return_times(sequence5, (0, 20), 100_000, max_count=64)
        last3 = find_return_times(sequence5, (0, 20), 100_000, max_count=3)
        assert last3.entries == all_records.entries[-3:]

    def test_window_validation(self, sequence5):
        with pytest.raises(ValueError, match="empty"):
            find_return_times(sequence5, (5, 4), 100)

    def test_requires_defined_indices(self):
        seq = TableSequence({k: [0.1 * k] for k in range(0, 30)})
        with pytest.raises(KeyError):
            find_return_times(seq, (0, 10), 100)


def test_spec_round_trips_through_timescale():
    # forcing period must match the scale period when used together
    ts = TimeScaleSpec(anchor=1.0, period=8.0, gap=3.0)
    f = TrigForcing(8.0, (ForcingComponent(1.0),))
    with pytest.raises(ValueError):
        f.sup_norm(TimeScaleSpec(anchor=1.0, period=6.0, gap=3.0))
    assert f.sup_norm(ts) == 1.0
