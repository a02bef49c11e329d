import math
import tracemalloc

import numpy as np
import pytest

from tsdyn import (
    ForcingComponent,
    Harmonic,
    HorizonError,
    LogisticSequence,
    TableSequence,
    TimeScaleSpec,
    TrigForcing,
    find_return_times,
    recurrence_defect,
)
from tsdyn.forcing import _logistic_tail
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

    def test_sup_norm_trivial_cases(self, ts5):
        assert TrigForcing.zero(3, 8.0).sup_norm(ts5) == 0.0
        const = TrigForcing(8.0, (ForcingComponent(2.0), ForcingComponent(-1.0)))
        assert const.sup_norm(ts5) == pytest.approx(math.sqrt(5.0), rel=1e-12)

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


class TestCoefficientTable:
    # order 1 listed twice and after order 3; 0.2 + 0.1 rounds up to
    # 0.30000000000000004, so adding the two terms one by one rounds apart
    # from one term with the merged coefficient
    REPEATED = TrigForcing(8.0, (
        ForcingComponent(0.3, (Harmonic(3, 0.2, 0.1), Harmonic(1, 0.2), Harmonic(1, 0.1))),
        ForcingComponent(-0.7),
    ))
    MERGED = TrigForcing(8.0, (
        ForcingComponent(0.3, (Harmonic(1, 0.2 + 0.1), Harmonic(3, 0.2, 0.1))),
        ForcingComponent(-0.7),
    ))

    def test_repeated_order_adds_up(self):
        t = np.linspace(-8.0, 8.0, 1001)
        assert np.array_equal(self.REPEATED.value_many(t), self.MERGED.value_many(t))
        for order in range(3):
            assert self.REPEATED.derivative_bound(order) == self.MERGED.derivative_bound(order)
        C, W, z0 = self.REPEATED.realization(0.7)
        assert np.array_equal(C, self.MERGED.realization(0.7)[0])
        assert C.shape == (2, 5) and C[0, 1] == 0.2 + 0.1

    def test_table_is_read_only_and_shared(self, forcing5):
        C = forcing5.realization(0.0)[0]
        assert not C.flags.writeable
        with pytest.raises(ValueError):
            C[0, 0] = 1.0
        for t0 in (4.3, -11.0, 1e6):
            assert forcing5.realization(t0)[0] is C


class TestLogisticSequence:
    def test_orbit_start(self):
        seq = LogisticSequence(3.9, 0.5, k_min=0, output_map=(1.0, 2.0))
        z, C = seq.rank_one(0, 1)
        assert np.allclose(z, [0.5, 0.975])
        assert np.array_equal(C, [1.0, 2.0])
        assert np.allclose(seq.terms(0, 1), [[0.5, 1.0], [0.975, 1.95]])

    def test_term_with_output_map(self):
        seq = LogisticSequence(3.9, 0.5, k_min=0, output_map=(1.0, 2.0))
        assert np.allclose(seq.term(1), [0.975, 1.95])

    def test_zero_output_map(self):
        seq = LogisticSequence(3.9, 0.5, k_min=0, output_map=(0.0, 0.0))
        assert np.all(seq.term(123) == 0.0)

    def test_confinement(self):
        seq = LogisticSequence(3.9, 0.4, k_min=0, output_map=(1.0,))
        orbit = seq.rank_one(0, 9_999)[0]
        assert orbit.size == 10_000
        assert np.all((orbit >= 0.0) & (orbit <= 1.0))
        assert np.array_equal(seq.terms(0, 9_999)[:, 0], orbit)

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

    def test_growth_matches_scalar_recurrence(self):
        r, z = 3.9, 0.4
        reference = [z]
        for _ in range(2 ** 14 + 5):
            z = r * z * (1.0 - z)
            reference.append(z)
        bits = np.array(reference).view(np.int64)
        # the orbit step is unrolled eight times: every remainder, and a long
        # run, gives the bits of one step per iteration
        for count in [*range(18), 2 ** 14 + 5]:
            tail = np.fromiter(_logistic_tail(r, 0.4, count), float, count)
            assert np.array_equal(tail.view(np.int64), bits[1:count + 1])
        seq = LogisticSequence(r, 0.4, k_min=-7, output_map=(1.0,))
        for count in (1, 2, 3, 17, 130, 2_500, 10_000):  # several cache growths
            assert seq.rank_one(-7, count - 8)[0].tolist() == reference[:count]
            assert seq.terms(-7, count - 8)[:, 0].tolist() == reference[:count]
        assert seq.terms(-7, 9_992)[:, 0].tolist() == reference[:10_000]
        z = seq.rank_one(-7, -5)[0]
        with pytest.raises(ValueError):  # a reader cannot write the cache
            z[:] = 0.0
        assert seq.rank_one(-7, -5)[0].tolist() == reference[:3]
        # pieces iterate past the cache with the same step: their bits are rank_one's
        orbit = seq.rank_one(-7, 2 ** 14 - 3)[0]
        for size in (1, 7, 8, 9, 4097):
            fresh = LogisticSequence(r, 0.4, k_min=-7, output_map=(1.0,))
            z = np.concatenate([piece for piece, _ in fresh.pieces(-7, 2 ** 14 - 3, size)])
            assert np.array_equal(z.view(np.int64), orbit.view(np.int64))

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

    def test_pieces_read_the_orbit_forward(self):
        reference = LogisticSequence(3.9, 0.4, k_min=-7, output_map=(1.0, 2.0))
        orbit, C = reference.rank_one(-7, 2_000)
        for cached, (lo, hi), size in [(-7, (-7, 2_000), 64), (500, (-7, 2_000), 1),
                                       (500, (300, 1_700), 333), (20, (900, 1_000), 7),
                                       (20, (5, 4), 3)]:
            seq = LogisticSequence(3.9, 0.4, k_min=-7, output_map=(1.0, 2.0))
            seq.rank_one(-7, cached)  # views of the cache below, iterates above
            pieces = list(seq.pieces(lo, hi, size))
            assert all(np.array_equal(c, C) for _, c in pieces)
            assert [z.size for z, _ in pieces] == [min(size, hi + 1 - a)
                                                   for a in range(lo, hi + 1, size)]
            z = np.concatenate([np.empty(0), *(z for z, _ in pieces)])
            assert z.tobytes() == orbit[lo + 7:hi + 8].tobytes()
            assert not any(z.flags.writeable for z, _ in pieces)
        with pytest.raises(ValueError, match="does not extend backward"):
            reference.pieces(-8, 0, 4)

    def test_sup_norm(self, sequence5):
        observed, ceiling = sequence5.sup_norm(-2000, 8000)
        scale = math.sqrt(5.0)
        assert ceiling == pytest.approx(scale)
        # orbit maximum is at most r/4 = 0.975 after the first step
        assert observed <= scale * 0.975 + 1e-12
        assert observed == pytest.approx(2.18, abs=0.01)
        # oracles: direct scans of the orbit and of the term norms
        orbit = sequence5.rank_one(-2000, 8000)[0]
        assert orbit.size == 10_001
        assert observed == pytest.approx(scale * float(np.max(orbit)), rel=1e-12)
        norms = np.linalg.norm(sequence5.terms(-2000, 8000), axis=1)
        assert observed == pytest.approx(float(np.max(norms)), rel=1e-12)
        assert ceiling == sequence5.ceiling


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

    def test_callers_array_stays_writable(self):
        a = np.array([1.0, 2.0])
        seq = TableSequence({0: a})
        a[0] = 5.0  # the table holds its own copy
        assert np.array_equal(seq.term(0), [1.0, 2.0])
        assert not seq.term(0).flags.writeable

    def test_hole_rejected(self):
        # every reader walks contiguous runs, so a hole is refused up front
        with pytest.raises(ValueError, match="index 2 is missing"):
            TableSequence({0: [1.0], 1: [1.0], 3: [1.0], 4: [1.0]})

    def test_non_finite_entry_named(self):
        with pytest.raises(ValueError, match="entry 3 must be a finite vector"):
            TableSequence({k: [0.0, math.inf if k == 3 else 1.0] for k in range(2, 6)})

    def test_pieces_are_views_of_the_rows(self):
        seq = TableSequence({k: [0.5 * k, 1.0] for k in range(-3, 7)})
        pieces = list(seq.pieces(-2, 5, 3))
        assert [output for _, output in pieces] == [None, None, None]
        assert all(np.shares_memory(rows, seq.terms(-3, 6)) for rows, _ in pieces)
        assert np.array_equal(np.concatenate([rows for rows, _ in pieces]), seq.terms(-2, 5))
        with pytest.raises(KeyError, match="no entry at index 7"):
            seq.pieces(0, 7, 3)  # at once, before any piece is read

    def test_terms_are_views_of_one_array(self):
        seq = TableSequence({k: [0.5 * k, 1.0] for k in range(-3, 7)})
        assert np.shares_memory(seq.terms(-3, 2), seq.terms(0, 6))
        assert np.array_equal(seq.terms(0, 2), [[0.0, 1.0], [0.5, 1.0], [1.0, 1.0]])
        assert seq.min_index() == -3
        observed, ceiling = seq.sup_norm(-3, -3)
        assert (observed, ceiling) == pytest.approx((math.hypot(1.5, 1.0), math.hypot(3.0, 1.0)))
        for lo, hi, missing in [(-4, 0, -4), (0, 7, 7)]:
            with pytest.raises(KeyError, match=f"no entry at index {missing}"):
                seq.terms(lo, hi)


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
        # oracle: the direct definition, bit for bit
        for entry in returns.entries:
            assert entry.defect == recurrence_defect(sequence5, (0, 20), entry.zeta)

    def test_records_match_a_scan(self):
        # quantized terms make many shifts tie; only a strict improvement records
        rng = np.random.default_rng(3)
        seq = TableSequence({k: [0.25 * v] for k, v in enumerate(rng.integers(0, 5, 400))})
        returns = find_return_times(seq, (0, 10), 300, max_count=300)
        records, best = [], math.inf
        for zeta in range(1, 301):
            d = recurrence_defect(seq, (0, 10), zeta)
            if d < best:
                best = d
                records.append((zeta, d))
        assert len(records) >= 2
        assert [(e.zeta, e.defect) for e in returns.entries] == records

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_defects_record_nothing(self):
        # every row norm of a difference overflows to inf, and inf never
        # strictly improves on the running best, shift 1 included
        seq = TableSequence({k: [1e200 * k, 0.0] for k in range(40)})
        assert find_return_times(seq, (0, 5), 20).entries == ()

    def test_max_count_keeps_deepest(self, sequence5):
        all_records = find_return_times(sequence5, (0, 20), 100_000, max_count=64)
        last3 = find_return_times(sequence5, (0, 20), 100_000, max_count=3)
        assert last3.entries == all_records.entries[-3:]

    def test_logistic_scan_never_builds_the_term_table(self):
        seq = LogisticSequence(3.9, 0.4, k_min=0, output_map=np.linspace(0.5, 2.0, 8))
        seq.rank_one(0, 20 + 200_000)  # the orbit is grown before measuring
        tracemalloc.start()
        try:
            returns = find_return_times(seq, (0, 20), 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert returns.entries
        # the (200_021, 8) term table alone would be about 12 MiB
        assert peak < 4 * 2 ** 20

    def test_scan_memory_is_flat_in_zeta_max(self):
        def peak(zeta_max):
            seq = LogisticSequence(3.9, 0.4, k_min=0, output_map=(1.0, 2.0))
            tracemalloc.start()
            try:
                find_return_times(seq, (0, 20), zeta_max)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20_000)  # numpy's first-call allocations, outside the measurement
        small, large = peak(100_000), peak(400_000)
        # one block of 2^14 shifts and the window, whatever zeta_max: filling
        # the orbit to zeta_max alone would take 3.2 MB at 4e5
        assert large < 1.5 * 2 ** 20
        assert large <= 1.1 * small

    def test_scan_grows_the_cache_only_to_its_window(self):
        find_return_times(LogisticSequence(3.9, 0.4, k_min=0), (0, 20), 20_000)  # warm up
        seq = LogisticSequence(3.9, 0.4, k_min=0, output_map=(1.0, 2.0))
        tracemalloc.start()
        try:
            returns = find_return_times(seq, (0, 20), 400_000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert returns.entries
        # what is still allocated is the sequence's cache (and the records):
        # the window's 22 orbit values, not the 400_021 the scan read
        assert held < 64 * 2 ** 10

    def test_window_validation(self, sequence5):
        with pytest.raises(ValueError, match="empty"):
            find_return_times(sequence5, (5, 4), 100)

    def test_window_below_first_index(self, sequence5):
        with pytest.raises(HorizonError, match=r"\[-2001, 0\].*-2000"):
            find_return_times(sequence5, (-2001, 0), 100)

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
