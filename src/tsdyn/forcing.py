"""Forcing terms: periodic trigonometric polynomials and sequence-driven
piecewise-constant inputs, plus return-time mining for recurrence sequences.

The continuous forcing is restricted to trigonometric polynomials in
``2*pi*n*t/period`` so periodicity holds by construction.  The
piecewise-constant forcing takes the value ``sequence.term(k)`` on the k-th
interval of the time scale.  Sequences come in two kinds, a logistic-map
orbit pushed through a linear output map and an explicit integer-indexed
table, and every reader uses only the members both have: ``dimension``,
``min_index()``, ``term(k)``, ``terms(lo, hi)``, the ``ceiling`` on every
term's norm, ``rank_one(lo, hi)``: ``(z, C)`` with
``terms(lo, hi) == np.outer(z, C)``, or ``None`` for a kind without it, and
``pieces(lo, hi, size)``, which reads the terms forward, ``size`` at a time,
each piece ``(z, C)`` or ``(rows, None)``.  The return scan reads the
distance of two rank-one terms in closed form, ``||C|| |z_a - z_b|``, and
the row norm of their difference otherwise.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import HorizonError
from .timescale import TimeScaleSpec

# Uniform samples over one interval (or period) behind TrigForcing.sup_norm.
_SUP_GRID = 8192


# ----------------------------------------------------------------------
# trigonometric forcing


@dataclass(frozen=True)
class Harmonic:
    """One term ``cos_coeff*cos(2 pi n t / period) + sin_coeff*sin(...)``."""

    n: int
    cos_coeff: float = 0.0
    sin_coeff: float = 0.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"harmonic order must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("cos_coeff", "sin_coeff"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ForcingComponent:
    """Constant term plus a finite list of harmonics for one coordinate."""

    constant: float = 0.0
    harmonics: tuple[Harmonic, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(float(self.constant)):
            raise ValueError("constant term must be finite")
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "harmonics", tuple(self.harmonics))


@dataclass(frozen=True)
class TrigForcing:
    """Vector-valued trigonometric polynomial with a fixed period.

    ``value(t + period) == value(t)`` holds identically by construction.
    Evaluation, derivative bounds and the realization read one coefficient
    table: the increasing harmonic orders of all components, and the matrix
    whose row ``i`` is component ``i``'s constant, then its cos and its sin
    coefficient of each order (a repeated order adds up).
    """

    period: float
    components: tuple[ForcingComponent, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(float(self.period)) and self.period > 0.0):
            raise ValueError(f"period must be positive and finite, got {self.period!r}")
        object.__setattr__(self, "period", float(self.period))
        comps = tuple(self.components)
        if not comps:
            raise ValueError("forcing needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def dimension(self) -> int:
        return len(self.components)

    @staticmethod
    def zero(dimension: int, period: float) -> "TrigForcing":
        return TrigForcing(period, tuple(ForcingComponent() for _ in range(dimension)))

    def value(self, t: float) -> np.ndarray:
        """Evaluate the forcing vector at time ``t``."""
        return self.value_many(np.array([float(t)]))[0]

    @cached_property
    def _table(self) -> tuple[tuple[int, ...], np.ndarray]:
        """The read-only coefficient table ``(orders, coeffs)``, built on first use."""
        orders = sorted({h.n for comp in self.components for h in comp.harmonics})
        slot = {n: 1 + 2 * j for j, n in enumerate(orders)}
        coeffs = np.zeros((self.dimension, 1 + 2 * len(orders)))
        for i, comp in enumerate(self.components):
            coeffs[i, 0] = comp.constant
            for h in comp.harmonics:
                coeffs[i, slot[h.n]:slot[h.n] + 2] += (h.cos_coeff, h.sin_coeff)
        coeffs.setflags(write=False)
        return tuple(orders), coeffs

    def value_many(self, ts: np.ndarray) -> np.ndarray:
        """Evaluate at an array of times; returns shape ``(len(ts), m)``."""
        ts = np.asarray(ts, dtype=float)
        orders, coeffs = self._table
        base = 2.0 * np.pi / self.period
        # column 1 + j multiplies waves[j]; only the used waves, once for all rows
        waves = {j: (np.sin if j % 2 else np.cos)(base * orders[j // 2] * ts)
                 for j in np.flatnonzero(coeffs[:, 1:].any(axis=0)).tolist()}
        out = np.empty((ts.size, self.dimension))
        for i, row in enumerate(coeffs):  # the constant, then one add per term
            terms = (row[1 + j] * waves[j] for j in np.flatnonzero(row[1:]).tolist())
            out[:, i] = sum(terms, np.full(ts.shape, row[0]))
        return out

    def derivative_bound(self, order: int) -> float:
        """Upper bound on the 2-norm of the order-th derivative of the forcing."""
        orders, coeffs = self._table
        weights = np.abs(coeffs[:, 1::2]) + np.abs(coeffs[:, 2::2])  # a column per order
        total = np.abs(coeffs[:, 0]) if order == 0 else np.zeros(self.dimension)
        for j, n in enumerate(orders):
            total = total + weights[:, j] * (2.0 * np.pi * n / self.period) ** order
        return float(np.linalg.norm(total))

    def realization(self, t0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Linear realization ``(C, W, z0)`` with ``value(t0 + u) = C expm(W u) z0``.

        ``C`` is the coefficient table.  The state stacks ``1`` and the pair
        ``cos, sin`` of each of its orders, so ``z' = W z`` where ``W`` rotates
        each pair at its angular frequency and ``z0`` is the state at ``t0``.
        """
        orders, coeffs = self._table
        base = 2.0 * np.pi / self.period
        z0 = np.array([1.0, *(f(base * n * t0) for n in orders for f in (math.cos, math.sin))])
        sub = np.zeros(z0.size - 1)  # W[i + 1, i]: a pair's frequency at its cos slot i
        sub[1::2] = base * np.array(orders, dtype=float)
        return coeffs, np.diag(sub, -1) - np.diag(sub, 1), z0

    def sup_norm(self, ts: TimeScaleSpec) -> float:
        """Certified upper bound on the supremum of ``||value(t)||`` on the scale.

        The maximization runs over the scale's one closed interval per period.
        The squared norm ``q`` is sampled on a uniform grid of ``_SUP_GRID``
        nodes and spacing ``h`` that contains both ends.  A maximizer is
        either a sampled end or a zero of ``q'`` within ``h/2`` of a sample,
        where ``q`` lies at most ``h^2/8 * sup|q''|`` below it, and
        ``|q''| <= 2 (D1^2 + D0 D2)`` with ``Dk = derivative_bound(k)``.
        """
        if ts.period != self.period:
            raise ValueError("time-scale period differs from forcing period")
        lo, hi = ts.endpoint(-1), ts.endpoint(0)
        pts = np.linspace(lo, hi, _SUP_GRID)
        peak = float(np.max(np.sum(self.value_many(pts) ** 2, axis=1)))
        h = (hi - lo) / (_SUP_GRID - 1)
        d0, d1, d2 = (self.derivative_bound(k) for k in range(3))
        return math.sqrt(peak + h * h / 4.0 * (d1 * d1 + d0 * d2))


# ----------------------------------------------------------------------
# sequence-driven forcing


class SupNormBound(NamedTuple):
    """Observed maximum over a scanned index range plus a certified ceiling."""

    observed: float
    ceiling: float


def _logistic_tail(r: float, z: float, count: int):
    """The ``count`` logistic iterates after ``z``, in plain Python floats.

    The loop is unrolled eight times: the step itself is a few float
    operations, so the cost of one loop iteration is a large share of it.
    Filling 10^6 terms through ``np.fromiter`` took 0.074-0.081 s with one
    step per iteration and 0.060-0.065 s with eight (CPython 3.11, 2-vCPU
    Xeon).  Each step is the same expression in the same order, so the
    iterates have the same bits."""
    for _ in range(count >> 3):
        z = r * z * (1.0 - z)
        yield z
        z = r * z * (1.0 - z)
        yield z
        z = r * z * (1.0 - z)
        yield z
        z = r * z * (1.0 - z)
        yield z
        z = r * z * (1.0 - z)
        yield z
        z = r * z * (1.0 - z)
        yield z
        z = r * z * (1.0 - z)
        yield z
        z = r * z * (1.0 - z)
        yield z
    for _ in range(count & 7):
        z = r * z * (1.0 - z)
        yield z


def _orbit_pieces(r: float, orbit: np.ndarray, start: int, stop: int, size: int):
    """The orbit at offsets ``start .. stop - 1`` from the cached ``orbit``, in
    read-only pieces of ``size``: views of the cache as far as it reaches,
    then iterates of its last value, computed a piece at a time and not kept.
    The arithmetic and its order are those of a cache fill, so the bits are
    the same."""
    tail = _logistic_tail(r, float(orbit[-1]), stop - orbit.size)
    for _ in itertools.islice(tail, max(0, start - orbit.size)):  # before start: not kept
        pass
    for a in range(start, stop, size):
        b = min(a + size, stop)
        z = orbit[a:b]
        if z.size < b - a:  # past the cache
            fresh = np.fromiter(tail, float, b - max(a, orbit.size))
            z = np.concatenate((z, fresh)) if z.size else fresh
            z.setflags(write=False)
        yield z


class LogisticSequence:
    """Bounded vector sequence built from a logistic-map orbit.

    The orbit ``z[k+1] = r * z[k] * (1 - z[k])`` is seeded with ``z0`` at
    index ``k_min`` and only extends forward; terms are ``C * z[k]`` with
    ``C = output_map``.  Orbit values are memoized in an append-only
    cache guarded by a lock, so concurrent readers observe the same values
    as a sequential run.  Only the random-access readers (``rank_one``,
    ``terms`` and ``term``, which the evaluator and
    :func:`recurrence_defect` call) grow the cache; ``pieces`` reads it as
    far as it reaches and iterates the rest without storing it, so a return
    scan grows it only to its window.

    The default seed 0.4 sits away from the map's short periodic windows;
    the default seed index -2000 leaves the evaluation horizon of the
    bounded solution far above the start of the orbit.
    """

    def __init__(
        self,
        r: float,
        z0: float = 0.4,
        k_min: int = -2000,
        output_map: Sequence[float] = (1.0,),
    ) -> None:
        r = float(r)
        z0 = float(z0)
        if not (0.0 < r <= 4.0):
            raise ValueError(f"logistic parameter must lie in (0, 4], got {r}")
        if not (0.0 < z0 < 1.0):
            raise ValueError(f"seed must lie in the open unit interval, got {z0}")
        out = np.asarray(output_map, dtype=float)
        if out.ndim != 1 or out.size < 1 or not np.all(np.isfinite(out)):
            raise ValueError("output_map must be a finite nonempty vector")
        self._r = r
        self._z0 = z0
        self._k_min = int(k_min)
        self._output = out.copy()
        self._output.setflags(write=False)
        self._ceiling = float(np.linalg.norm(self._output))
        self._lock = threading.Lock()
        self._orbit = np.array([z0])
        self._orbit.setflags(write=False)

    @property
    def r(self) -> float:
        return self._r

    @property
    def z0(self) -> float:
        return self._z0

    @property
    def dimension(self) -> int:
        return self._output.size

    @property
    def ceiling(self) -> float:
        """``||C||``: the orbit stays in [0, 1], so no term's norm exceeds it."""
        return self._ceiling

    def _offsets(self, k_lo: int, k_hi: int) -> tuple[int, int]:
        """The orbit offsets ``k_lo - k_min`` and ``k_hi - k_min + 1``."""
        k_lo, k_hi = int(k_lo), int(k_hi)
        if k_lo < self._k_min:
            raise ValueError(
                f"sequence index {k_lo} precedes the seed index {self._k_min}; "
                "the orbit does not extend backward"
            )
        return k_lo - self._k_min, k_hi - self._k_min + 1

    def rank_one(self, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The read-only orbit ``z[k_lo..k_hi]`` (inclusive, in [0, 1]) and the
        output map ``C``, with ``terms(k_lo, k_hi) == np.outer(z, C)``.  A grown
        cache is a new array, so a returned orbit never changes."""
        start, needed = self._offsets(k_lo, k_hi)
        if needed > self._orbit.size:
            with self._lock:
                if needed > self._orbit.size:
                    old = self._orbit
                    count = max(needed, 2 * old.size) - old.size
                    tail = _logistic_tail(self._r, float(old[-1]), count)
                    grown = np.concatenate((old, np.fromiter(tail, float, count)))
                    grown.setflags(write=False)
                    self._orbit = grown
        return self._orbit[start:needed], self._output

    def pieces(self, k_lo: int, k_hi: int, size: int):
        """The orbit ``z[k_lo..k_hi]`` read forward as read-only pieces of
        ``size`` indices (the last may be shorter), each paired with ``C``.
        The cache is read as far as it reaches and never grown: past it the
        orbit is iterated from its last cached value, a piece at a time."""
        start, stop = self._offsets(k_lo, k_hi)
        return zip(_orbit_pieces(self._r, self._orbit, start, stop, int(size)),
                   itertools.repeat(self._output))

    def terms(self, k_lo: int, k_hi: int) -> np.ndarray:
        """Stacked terms for ``k_lo..k_hi`` inclusive, shape ``(count, m)``."""
        return np.outer(*self.rank_one(k_lo, k_hi))

    def term(self, k: int) -> np.ndarray:
        """Sequence value at integer index ``k`` (k >= the seed index)."""
        return self.terms(k, k)[0]

    def min_index(self) -> int:
        return self._k_min

    def sup_norm(self, k_lo: int, k_hi: int) -> SupNormBound:
        """Max term norm ``ceiling * max z`` over ``[k_lo, k_hi]``, plus the ceiling."""
        z, _ = self.rank_one(k_lo, k_hi)
        return SupNormBound(observed=self.ceiling * float(np.max(z)), ceiling=self.ceiling)


class TableSequence:
    """Explicitly tabulated bounded sequence over one contiguous index range,
    stored as its first index and one read-only ``(n, m)`` array of terms."""

    def __init__(self, table: Mapping[int, Sequence[float]]) -> None:
        if not table:
            raise ValueError("table must be nonempty")
        index = {int(k): v for k, v in table.items()}
        first, last = min(index), max(index)
        if last - first + 1 != len(index):
            missing = next(k for k in range(first, last) if k not in index)
            raise ValueError(
                f"table indices must form one contiguous range; index {missing} is missing"
            )
        try:  # the stack copies, so the caller's arrays stay writable
            rows = np.array([index[k] for k in range(first, last + 1)], dtype=float)
        except ValueError:  # ragged
            rows = np.empty(0)
        if rows.ndim != 2:
            raise ValueError("table entries must be vectors of one dimension")
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise ValueError(f"table entry {first + int(bad[0])} must be a finite vector")
        rows.setflags(write=False)
        self._first = first
        self._rows = rows
        self._ceiling = float(np.linalg.norm(rows, axis=1).max())

    @property
    def dimension(self) -> int:
        return self._rows.shape[1]

    @property
    def ceiling(self) -> float:
        """The largest term norm of the table."""
        return self._ceiling

    def rank_one(self, k_lo: int, k_hi: int) -> None:  # a table has no rank-one form
        return None

    def term(self, k: int) -> np.ndarray:
        return self.terms(k, k)[0]

    def terms(self, k_lo: int, k_hi: int) -> np.ndarray:
        """Read-only view of the terms ``k_lo..k_hi`` inclusive, shape ``(count, m)``."""
        lo, hi = int(k_lo) - self._first, int(k_hi) - self._first
        if lo < 0 or hi >= len(self._rows):
            k = int(k_lo) if lo < 0 else self._first + len(self._rows)
            raise KeyError(f"sequence has no entry at index {k}")
        return self._rows[lo:hi + 1]

    def pieces(self, k_lo: int, k_hi: int, size: int):
        """The terms ``k_lo..k_hi`` read forward as read-only views of
        ``size`` rows (the last may be shorter), each paired with ``None``.
        A range the table does not cover raises ``KeyError`` at once."""
        rows = self.terms(k_lo, k_hi)
        return ((rows[a:a + size], None) for a in range(0, len(rows), int(size)))

    def min_index(self) -> int:
        return self._first

    def sup_norm(self, k_lo: int, k_hi: int) -> SupNormBound:
        observed = float(np.linalg.norm(self.terms(k_lo, k_hi), axis=1).max())
        return SupNormBound(observed=observed, ceiling=self.ceiling)


PoissonSequence = Union[LogisticSequence, TableSequence]


# ----------------------------------------------------------------------
# return-time mining


@dataclass(frozen=True)
class ReturnEntry:
    zeta: int
    defect: float


@dataclass(frozen=True)
class ReturnTimeSet:
    """Record-improving return times for a sequence window.

    ``entries`` carry strictly increasing shifts with strictly decreasing
    recurrence defects by construction of the mining scan.
    """

    window: tuple[int, int]
    entries: tuple[ReturnEntry, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        zetas = [e.zeta for e in self.entries]
        defects = [e.defect for e in self.entries]
        if any(b <= a for a, b in zip(zetas, zetas[1:])):
            raise ValueError("return shifts must be strictly increasing")
        if any(b >= a for a, b in zip(defects, defects[1:])):
            raise ValueError("return defects must be strictly decreasing")

    @property
    def zetas(self) -> tuple[int, ...]:
        return tuple(e.zeta for e in self.entries)

    @property
    def defects(self) -> tuple[float, ...]:
        return tuple(e.defect for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "entries": [{"zeta": e.zeta, "defect": e.defect} for e in self.entries],
        }


def _piece(seq: PoissonSequence, k_lo: int, k_hi: int):
    """The terms ``k_lo..k_hi`` as one piece of the form ``seq.pieces`` gives:
    ``(z, C)`` from ``rank_one``, or ``(terms, None)`` for a kind without it."""
    rank = seq.rank_one(k_lo, k_hi)
    return (seq.terms(k_lo, k_hi), None) if rank is None else rank


def _term_distance(output):
    """``dist(x, y) = ||term_x - term_y||`` elementwise, for values ``x`` and
    ``y`` of pieces paired with ``output``: ``||C|| |z_x - z_y|`` when the
    output is a map ``C``, since rank-one terms are ``C z``, and the row norm
    of the difference of two terms when it is ``None``."""
    if output is None:
        return lambda x, y: np.linalg.norm(x - y, axis=1)
    c = float(np.linalg.norm(output))
    return lambda x, y: c * np.abs(x - y)


def recurrence_defect(seq: PoissonSequence, window: tuple[int, int], zeta: int) -> float:
    """``max_k ||term(k + zeta) - term(k)||`` over the index window, each
    distance as :func:`find_return_times` computes it: for a sequence with a
    rank-one form ``(z, C)`` it is ``||C|| * max_k |z[k + zeta] - z[k]|``."""
    lo, hi, zeta = int(window[0]), int(window[1]), int(zeta)
    if hi < lo:
        raise ValueError(f"window is empty: {window}")
    first = min(lo, lo + zeta)
    values, output = _piece(seq, first, max(hi, hi + zeta))
    k = np.arange(lo - first, hi - first + 1)
    return float(np.max(_term_distance(output)(values[k + zeta], values[k])))


# Shifts per block of the return scan: the abandoning threshold tightens once
# per block, and the per-block temporaries stay near a MiB at m = 8.
_SCAN_BLOCK = 1 << 14


def find_return_times(
    seq: PoissonSequence,
    window: tuple[int, int],
    zeta_max: int,
    max_count: int = 3,
) -> ReturnTimeSet:
    """Scan shifts ``1..zeta_max`` and keep record-improving recurrence defects.

    A shift is recorded whenever its defect (:func:`recurrence_defect`)
    strictly improves the best value seen so far; the deepest ``max_count``
    records are returned.  Requires the sequence to be defined on
    ``[window_lo, window_hi + zeta_max]``; a window starting below
    ``seq.min_index()`` raises :class:`~tsdyn.errors.HorizonError`.

    The scan is exact and early-abandoning (Rakthanmanon et al., "Searching
    and mining trillions of time series subsequences under dynamic time
    warping", KDD 2012).  It walks the shifts in increasing order in blocks.
    Within a block it walks the window offsets in order, keeps each live
    shift's running maximum of ``||term(k + zeta) - term(k)||`` and, after
    each offset, abandons every shift whose running maximum is not strictly
    below the best defect of all earlier blocks.  At offset 0 every shift of
    the block is live, so its distances are one slice of the block's terms
    against the window's first term, with no index array and no gather.  An
    abandoned shift has defect >= running maximum >= best, so it cannot
    strictly improve on the best and is never a record; it also cannot lower
    the running best.  The survivors' defects are the distances of
    :func:`recurrence_defect` and the maximum is exact, so the records, their
    defects and the tie rule (a tie never records) are those of the full
    scan.

    One loop serves every sequence kind.  For a sequence whose ``rank_one``
    gives ``(z, C)`` (a :class:`LogisticSequence`) the distance of two terms
    is ``||C|| |z_a - z_b|`` in closed form, so the scan reads the orbit
    alone and the ``(zeta_max, m)`` term table is never built; any other
    sequence (a table) is scanned by the row norms of its terms.

    The indices ``lo .. hi + zeta_max`` are read forward once.  The window
    and the term after it come from the random-access path, so a logistic
    cache grows only to ``hi + 1``; the rest streams through
    ``seq.pieces``, one piece per block of shifts.  A block holds its own
    terms and the ``width - 1`` that it shares with the block before, so
    the scan's memory is one block and the window, whatever ``zeta_max``.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError(f"window is empty: {window}")
    zeta_max = int(zeta_max)
    if zeta_max < 1:
        raise ValueError(f"zeta_max must be >= 1, got {zeta_max}")
    if max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count}")
    if lo < seq.min_index():
        raise HorizonError(
            f"return window {list(window)} starts below the sequence's first "
            f"index {seq.min_index()}"
        )

    width = hi - lo + 1
    values, output = _piece(seq, lo, hi + 1)
    dist = _term_distance(output)
    # the block of shifts start .. start + n - 1 reads the terms lo + start ..
    # hi + start + n - 1: the width - 1 it shares with the block before, then
    # the n of its piece; the first block shares lo + 2 .. hi + 1
    stream = seq.pieces(hi + 2, hi + zeta_max, _SCAN_BLOCK)  # a short table raises here
    shared = values[2:]
    window_terms = values[:width]
    # shift 1 records (unless its defect overflows), so it bounds every block
    best = recurrence_defect(seq, (lo, hi), 1)
    records = [ReturnEntry(zeta=1, defect=best)] if best < math.inf else []
    for start, (piece, _) in zip(range(2, zeta_max + 1, _SCAN_BLOCK), stream):
        terms = np.concatenate((shared, piece))  # terms[j] is the term lo + start + j
        shared = terms[len(piece):].copy()  # a copy, so this block's terms can go
        # offset 0: every shift of the block is live, so one slice reads it
        defects = dist(terms[:len(piece)], window_terms[0])
        shifts = np.flatnonzero(defects < best)  # the live shifts, as start + shifts
        defects = defects[shifts]
        for offset in range(1, width):
            if shifts.size == 0:
                break
            np.maximum(defects, dist(terms[offset + shifts], window_terms[offset]), out=defects)
            live = defects < best
            shifts, defects = shifts[live], defects[live]
        # prior[j]: the best defect of every shorter shift; a record is strictly below it
        prior = np.minimum.accumulate(np.concatenate(([best], defects)))
        records.extend(
            ReturnEntry(zeta=start + int(shifts[j]), defect=float(defects[j]))
            for j in np.flatnonzero(defects < prior[:-1])
        )
        best = float(prior[-1])
    return ReturnTimeSet(window=(lo, hi), entries=tuple(records[-max_count:]))
