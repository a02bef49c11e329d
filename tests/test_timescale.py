import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdyn import TimeScaleDomainError, TimeScaleSpec
from tsdyn.timescale import (
    GAP,
    INTERIOR,
    LEFT_ENDPOINT,
    RIGHT_ENDPOINT,
    _snapped_ceil,
    sample_index,
)


def dyadic_scale_points(ts, rng, count, k_range=1000):
    """Random points of the scale at dyadic offsets, so +period stays exact."""
    ks = rng.integers(-k_range, k_range + 1, size=count)
    offsets = rng.integers(0, 2 ** 20 + 1, size=count)
    stride = ts.stride
    return np.array(
        [ts.endpoint(2 * int(k)) - (stride * int(j)) / 2 ** 20 for k, j in zip(ks, offsets)]
    )


class TestConstruction:
    def test_rejects_degenerate_gap(self):
        with pytest.raises(ValueError, match="0 < gap < period"):
            TimeScaleSpec(anchor=1.0, period=8.0, gap=9.0)
        with pytest.raises(ValueError, match="0 < gap < period"):
            TimeScaleSpec(anchor=1.0, period=8.0, gap=0.0)

    def test_rejects_bad_normalization(self):
        # anchor + gap - period = 5 >= 0
        with pytest.raises(ValueError, match="normalization"):
            TimeScaleSpec(anchor=10.0, period=8.0, gap=3.0)
        with pytest.raises(ValueError, match="normalization"):
            TimeScaleSpec(anchor=-0.5, period=8.0, gap=3.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TimeScaleSpec(anchor=math.nan, period=8.0, gap=3.0)


class TestEndpoints:
    def test_worked_example_endpoints(self, ts5):
        # left endpoints 8k-4, right endpoints 8k+1
        assert ts5.endpoint(-1) == -4.0
        assert ts5.endpoint(2) == 9.0
        assert ts5.endpoint(0) == ts5.anchor
        assert ts5.endpoint(3) == 12.0
        assert ts5.endpoint(-3) == -12.0

    def test_interval_lengths_and_gaps(self, ts5):
        for k in range(-5, 5):
            assert ts5.endpoint(2 * k) - ts5.endpoint(2 * k - 1) == pytest.approx(5.0)
            assert ts5.endpoint(2 * k + 1) - ts5.endpoint(2 * k) == pytest.approx(3.0)

    def test_index_cap(self, ts5):
        with pytest.raises(ValueError, match="exceeds"):
            ts5.endpoint(2 ** 54)

    def test_interval_span(self, ts5):
        assert ts5.interval_span(1.0, 17.0) == (0, 2)   # right endpoints of 0 and 2
        assert ts5.interval_span(4.0, 4.0) == (0, 1)    # left endpoint of interval 1
        assert ts5.interval_span(2.0, 2.5) == (0, 1)    # inside the hole (1, 4)
        assert ts5.interval_span(-6.0, -4.0) == (-1, 0)  # hole (-7, -4) to a left endpoint
        assert ts5.interval_span(-12.0, -7.0) == (-2, -1)  # interval -1 end to end
        # no boundary snap: just past a right endpoint reaches the next index
        assert ts5.interval_span(1.0 + 1e-14, 1.0 + 1e-14) == (0, 1)
        assert all(isinstance(k, int) for k in ts5.interval_span(-6.0, 2.0))


class TestMembership:
    def test_examples(self, ts5):
        assert ts5.contains(0.0)          # inside [-4, 1]
        assert not ts5.contains(2.0)      # inside the hole (1, 4)
        assert ts5.contains(ts5.anchor)   # endpoints belong to the scale

    def test_locate(self, ts5):
        assert ts5.locate(1.0) == (0, RIGHT_ENDPOINT)  # shared edge stays in its interval
        assert ts5.locate(2.0) == (1, GAP)             # hole indexed by the interval after it
        assert ts5.locate(4.0) == (1, LEFT_ENDPOINT)
        assert ts5.locate(9.0) == (1, RIGHT_ENDPOINT)
        for t in np.linspace(4.0, 9.0, 17)[1:-1]:
            assert ts5.locate(float(t)) == (1, INTERIOR)

    def test_boundary_snap(self, ts5):
        assert ts5.contains(1.0 + 1e-14)
        assert ts5.contains(4.0 - 1e-14)
        assert not ts5.contains(1.0 + 1e-9)

    def test_jump_operators(self, ts5):
        j = ts5.jump_operators(1.0)  # right endpoint
        assert j.sigma == 4.0 and j.rho == 1.0
        assert j.point_class.right_scattered and j.point_class.left_dense

        j = ts5.jump_operators(0.0)  # interior
        assert j.sigma == 0.0 and j.rho == 0.0
        assert j.point_class.right_dense and j.point_class.left_dense

        j = ts5.jump_operators(4.0)  # left endpoint
        assert j.rho == 1.0 and j.sigma == 4.0
        assert j.point_class.left_scattered and j.point_class.right_dense

    def test_jump_operators_outside_scale(self, ts5):
        with pytest.raises(TimeScaleDomainError):
            ts5.jump_operators(2.5)


class TestPsi:
    def test_pinned_values(self, ts5):
        assert ts5.psi(0.0) == 0.0
        assert ts5.psi(9.0) == 6.0
        assert ts5.psi(8.0) == ts5.psi(0.0) + 5.0  # shift law instance

    def test_undefined_at_left_endpoints_and_holes(self, ts5):
        with pytest.raises(TimeScaleDomainError):
            ts5.psi(4.0)
        with pytest.raises(TimeScaleDomainError):
            ts5.psi(2.0)

    def test_psi_inv_values(self, ts5):
        assert ts5.psi_inv(6.0) == 9.0
        assert ts5.psi_inv(0.0) == 0.0
        # right jump of size gap at impulse moments
        eps = 1e-9
        assert ts5.psi_inv(1.0 + eps) - ts5.psi_inv(1.0) == pytest.approx(3.0, abs=1e-8)

    def test_round_trip_exact(self, ts5):
        rng = np.random.default_rng(7)
        for t in dyadic_scale_points(ts5, rng, 10_000):
            assert ts5.psi_inv(ts5.psi(t)) == t

    def test_round_trip_other_direction_on_image(self, ts5):
        # exact equality both ways holds on the image of psi, where psi_inv
        # reconstructs the original point without rounding
        rng = np.random.default_rng(8)
        for t in dyadic_scale_points(ts5, rng, 10_000):
            s = ts5.psi(t)
            assert ts5.psi_inv(s) == t
            assert ts5.psi(ts5.psi_inv(s)) == s

    def test_round_trip_other_direction_generic(self, ts5):
        # for arbitrary s the single addition s + k*gap may round by one ulp
        # (the result lives on a coarser float grid); the index bookkeeping
        # stays exact, so the defect never exceeds that one rounding
        rng = np.random.default_rng(8)
        for s in rng.uniform(-5000.0, 5000.0, size=10_000):
            t = ts5.psi_inv(s)
            assert abs(ts5.psi(t) - s) <= np.spacing(abs(t))

    def test_shift_law_exact(self, ts5):
        rng = np.random.default_rng(9)
        for t in dyadic_scale_points(ts5, rng, 10_000):
            assert ts5.psi(t + ts5.period) - ts5.psi(t) == ts5.stride

    def test_strictly_increasing(self, ts5):
        rng = np.random.default_rng(10)
        pts = np.sort(dyadic_scale_points(ts5, rng, 2000))
        vals = [ts5.psi(t) for t in pts]
        diffs = np.diff(vals)
        keep = np.diff(pts) > 0
        assert np.all(diffs[keep] > 0)


class TestImpulses:
    def test_pinned_values(self, ts5):
        assert ts5.impulse_point(0) == 1.0
        assert ts5.impulse_point(3) == 16.0
        for k in range(-10, 10):
            assert ts5.impulse_point(k + 1) - ts5.impulse_point(k) == pytest.approx(5.0)

    def test_count_examples(self, ts5):
        assert ts5.count_impulses(0.0, 6.0) == 1  # only s_0 = 1; s_1 = 6 excluded
        assert ts5.count_impulses(3.0, 3.0) == 0
        assert ts5.count_impulses(1.0, 6.0) == 1  # left-closed
        assert ts5.count_impulses(0.0, 6.0) == ts5.count_impulses(5.0, 11.0)

    def test_count_requires_order(self, ts5):
        with pytest.raises(ValueError):
            ts5.count_impulses(1.0, 0.0)

    def test_count_shift_law(self, ts5):
        rng = np.random.default_rng(11)
        stride = ts5.stride
        for _ in range(1000):
            r = float(rng.integers(-4000, 4000)) + rng.integers(0, 2 ** 20) / 2 ** 20
            s = r + float(rng.integers(0, 50)) + rng.integers(0, 2 ** 20) / 2 ** 20
            assert ts5.count_impulses(r + stride, s + stride) == ts5.count_impulses(r, s)

    def test_index_below(self, ts5):
        assert ts5.impulse_index_below(1.0) == -1   # strict
        assert ts5.impulse_index_below(1.0 + 1e-6) == 0
        assert ts5.impulse_index_below(6.0 - 1e-6) == 0

    def test_index_below_checks_the_index_it_returns(self):
        # s just past 2**52 strides has ceiling 2**52 + 1 but index 2**52,
        # the last one allowed; one stride further is past the cap
        ts = TimeScaleSpec(anchor=0.0, period=3.0, gap=1.0)  # stride 2 divides exactly
        cap = 2 ** 52
        assert ts.impulse_index_below(2.0 * (cap + 1)) == cap
        for s in (2.0 * (cap + 2), -2.0 * cap, np.array([0.5, 2.0 * (cap + 2)])):
            with pytest.raises(ValueError, match="exceeds"):
                ts.impulse_index_below(s)


# ----------------------------------------------------------------------
# array forms


def reference_locate(ts, t):
    """Per-point classification written out with Python floats and ints."""
    tol = 2.0 ** -40 * max(1.0, abs(t))
    kc = math.floor((t - ts.anchor) / ts.period)
    for k in (kc, kc + 1):
        left = ts.anchor + ts.gap + (k - 1) * ts.period
        right = ts.anchor + k * ts.period
        if abs(t - left) <= tol:
            return k, LEFT_ENDPOINT
        if abs(t - right) <= tol:
            return k, RIGHT_ENDPOINT
        if left < t < right:
            return k, INTERIOR
    return kc + 1, GAP


def reference_sample_index(grid, t):
    """Per-point snapped lookup: the lower of two snapped neighbours wins."""
    idx = int(np.searchsorted(grid, t))
    for i in (idx - 1, idx):
        if 0 <= i < grid.size and abs(grid[i] - t) <= 2.0 ** -40 * max(1.0, abs(t)):
            return i
    return None


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def scales_and_points(draw):
    """A random valid scale and points on its edges, within one ulp and
    3e-12 relative of them, in its holes and anywhere in between."""
    period = draw(st.floats(0.5, 50.0))
    gap = draw(st.floats(0.02, 0.98)) * period
    anchor = draw(st.floats(0.0, 0.99)) * (period - gap)
    ts = TimeScaleSpec(anchor=anchor, period=period, gap=gap)
    ks = np.array(draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8)))
    edges = np.concatenate([
        ts.anchor + ks * ts.period,                  # right endpoints
        ts.anchor + ts.gap + (ks - 1) * ts.period,   # left endpoints
        ts.impulse_point(ks),
    ])
    rel = 3e-12 * np.maximum(1.0, np.abs(edges))
    points = np.concatenate([
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        edges + rel, edges - rel, edges * (1.0 + 3e-12), edges * (1.0 - 3e-12),
        ts.anchor + ks * ts.period + ts.gap / 2.0,   # holes
        np.array(draw(st.lists(st.floats(-1e6, 1e6), max_size=16))),
    ])
    return ts, points


class TestArrayForms:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(scales_and_points())
    def test_array_forms_match_scalar_forms(self, case):
        ts, t = case
        k, code = ts.locate(t)
        assert k.dtype == np.int64 and k.shape == code.shape == t.shape
        below = ts.impulse_index_below(t)
        regular = (code != GAP) & (code != LEFT_ENDPOINT)
        collapsed = ts.psi(t[regular])
        scalar_psi = []
        for i, x in enumerate(t.tolist()):
            ki, ci = ts.locate(x)
            assert type(ki) is int and type(ci) is str
            assert (ki, ci) == (k[i], code[i]) == reference_locate(ts, x)
            assert type(ts.contains(x)) is bool
            bi = ts.impulse_index_below(x)
            assert type(bi) is int and bi == below[i]
            point = ts.impulse_point(bi)
            assert type(point) is float and same_bits(point, ts.impulse_point(below)[i])
            if regular[i]:
                scalar_psi.append(ts.psi(x))
                assert type(scalar_psi[-1]) is float
        assert same_bits(collapsed, scalar_psi)
        u = (t - ts.anchor) / ts.stride
        assert _snapped_ceil(u).tolist() == [_snapped_ceil(x) for x in u.tolist()]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(scales_and_points(), st.lists(st.integers(-2 * 10 ** 6, 2 * 10 ** 6), max_size=16))
    def test_endpoint_array_matches_scalar(self, case, ks):
        ts, _ = case
        got = ts.endpoint(np.array(ks, dtype=np.int64))
        assert got.dtype == np.float64 and got.shape == (len(ks),)
        scalar = [ts.endpoint(k) for k in ks]
        assert all(type(x) is float for x in scalar)
        assert same_bits(got, scalar)
        # the two per-parity formulas, in Python ints and floats
        assert scalar == [ts.anchor + (k // 2) * ts.period if k % 2 == 0
                          else ts.anchor + ts.gap + ((k + 1) // 2 - 1) * ts.period for k in ks]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(scales_and_points())
    def test_sample_index_array_matches_scalar(self, case):
        _, t = case
        grid = np.unique(t)  # holds edges next to points within their snap
        queries = np.concatenate([t, t + 0.25])
        found = sample_index(grid, queries)
        assert found.dtype.kind == "i" and found.shape == queries.shape
        for i, x in enumerate(queries.tolist()):
            j = sample_index(grid, x)
            assert j == reference_sample_index(grid, x)
            assert (j is None and found[i] == -1) or (type(j) is int and j == found[i])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(scales_and_points(), st.integers(-1000, 1000))
    def test_array_psi_rejects_left_endpoints_and_holes(self, case, k):
        ts, _ = case
        inside = ts.endpoint(2 * k) - ts.stride / 2.0
        for bad in (ts.endpoint(2 * k - 1), ts.endpoint(2 * k) + ts.gap / 2.0):
            with pytest.raises(TimeScaleDomainError):
                ts.psi(np.array([inside, bad, inside]))
