"""Forcing terms: periodic trigonometric polynomials and sequence-driven
piecewise-constant inputs, plus return-time mining for recurrence sequences.

The continuous forcing is restricted to trigonometric polynomials in
``2*pi*n*t/period`` so periodicity holds by construction.  The
piecewise-constant forcing takes the value ``sequence.term(k)`` on the k-th
interval of the time scale.  Sequences come in two variants: a logistic-map
orbit pushed through a linear output map, and an explicit integer-indexed
table.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
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

    def value_many(self, ts: np.ndarray) -> np.ndarray:
        """Evaluate at an array of times; returns shape ``(len(ts), m)``."""
        ts = np.asarray(ts, dtype=float)
        base = 2.0 * np.pi / self.period
        out = np.empty((ts.size, self.dimension))
        for i, comp in enumerate(self.components):
            acc = np.full(ts.shape, comp.constant)
            for h in comp.harmonics:
                phase = base * h.n * ts
                if h.cos_coeff:
                    acc = acc + h.cos_coeff * np.cos(phase)
                if h.sin_coeff:
                    acc = acc + h.sin_coeff * np.sin(phase)
            out[:, i] = acc
        return out

    def derivative_bound(self, order: int) -> float:
        """Upper bound on the 2-norm of the order-th derivative of the forcing."""
        per_comp = []
        for comp in self.components:
            total = abs(comp.constant) if order == 0 else 0.0
            for h in comp.harmonics:
                freq = 2.0 * np.pi * h.n / self.period
                total += (abs(h.cos_coeff) + abs(h.sin_coeff)) * freq ** order
            per_comp.append(total)
        return float(np.linalg.norm(per_comp))

    def realization(self, t0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Linear realization ``(C, W, z0)`` with ``value(t0 + u) = C expm(W u) z0``.

        The state stacks ``1`` and the pair ``cos, sin`` of every harmonic
        order present in any component, so ``z' = W z`` where ``W`` rotates
        each pair at its angular frequency and ``z0`` is the state at ``t0``.
        """
        orders = sorted({h.n for comp in self.components for h in comp.harmonics})
        slot = {n: 1 + 2 * i for i, n in enumerate(orders)}
        size = 1 + 2 * len(orders)
        C = np.zeros((self.dimension, size))
        W = np.zeros((size, size))
        z0 = np.zeros(size)
        z0[0] = 1.0
        base = 2.0 * np.pi / self.period
        for n, j in slot.items():
            W[j, j + 1] = -base * n
            W[j + 1, j] = base * n
            z0[j] = math.cos(base * n * t0)
            z0[j + 1] = math.sin(base * n * t0)
        for i, comp in enumerate(self.components):
            C[i, 0] = comp.constant
            for h in comp.harmonics:
                C[i, slot[h.n]] += h.cos_coeff
                C[i, slot[h.n] + 1] += h.sin_coeff
        return C, W, z0

    def sup_norm(self, ts: TimeScaleSpec | None = None) -> float:
        """Certified upper bound on the supremum of ``||value(t)||`` over one period.

        With a time-scale spec the maximization is restricted to the scale
        (one closed interval per period); otherwise the full period is used.
        The squared norm ``q`` is sampled on a uniform grid of ``_SUP_GRID``
        nodes and spacing ``h`` that contains both ends.  A maximizer is
        either a sampled end or a zero of ``q'`` within ``h/2`` of a sample,
        where ``q`` lies at most ``h^2/8 * sup|q''|`` below it, and
        ``|q''| <= 2 (D1^2 + D0 D2)`` with ``Dk = derivative_bound(k)``.
        """
        if ts is None:
            lo, hi = 0.0, self.period
        else:
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
    """The ``count`` logistic iterates after ``z``, in plain Python floats."""
    for _ in range(count):
        z = r * z * (1.0 - z)
        yield z


class LogisticSequence:
    """Bounded vector sequence built from a logistic-map orbit.

    The orbit ``z[k+1] = r * z[k] * (1 - z[k])`` is seeded with ``z0`` at
    index ``k_min`` and only extends forward; terms are
    ``output_map * z[k]``.  Orbit values are memoized in an append-only
    cache guarded by a lock, so concurrent readers observe the same values
    as a sequential run.

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
    def k_min(self) -> int:
        return self._k_min

    @property
    def output_map(self) -> np.ndarray:
        return self._output

    @property
    def dimension(self) -> int:
        return self._output.size

    def orbit(self, count: int) -> np.ndarray:
        """First ``count`` orbit values starting at index ``k_min``."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return self._values(self._k_min, self._k_min + count - 1).copy()

    def _values(self, k_lo: int, k_hi: int) -> np.ndarray:
        """Read-only view of the orbit z[k_lo..k_hi] (inclusive), growing the
        cache as needed.  A grown cache is a new array, so a view never changes."""
        if k_lo < self._k_min:
            raise ValueError(
                f"sequence index {k_lo} precedes the seed index {self._k_min}; "
                "the orbit does not extend backward"
            )
        needed = k_hi - self._k_min + 1
        if needed > self._orbit.size:
            with self._lock:
                if needed > self._orbit.size:
                    old = self._orbit
                    count = max(needed, 2 * old.size) - old.size
                    tail = _logistic_tail(self._r, float(old[-1]), count)
                    grown = np.concatenate((old, np.fromiter(tail, float, count)))
                    grown.setflags(write=False)
                    self._orbit = grown
        lo = k_lo - self._k_min
        return self._orbit[lo: k_hi - self._k_min + 1]

    def term(self, k: int) -> np.ndarray:
        """Sequence value at integer index ``k`` (k >= k_min)."""
        z = self._values(int(k), int(k))[0]
        return self._output * z

    def terms(self, k_lo: int, k_hi: int) -> np.ndarray:
        """Stacked terms for ``k_lo..k_hi`` inclusive, shape ``(count, m)``."""
        z = self._values(int(k_lo), int(k_hi))
        return np.outer(z, self._output)

    def min_index(self) -> int:
        return self._k_min

    def sup_norm(self, k_lo: int, k_hi: int) -> SupNormBound:
        """Max term norm over ``[k_lo, k_hi]`` plus the ceiling ``||output_map||``.

        The ceiling certifies the supremum over the whole (bi-infinite)
        sequence since the orbit stays inside the unit interval.
        """
        z = self._values(int(k_lo), int(k_hi))
        scale = float(np.linalg.norm(self._output))
        return SupNormBound(observed=scale * float(np.max(z)), ceiling=scale)


class TableSequence:
    """Explicitly tabulated bounded sequence over a finite set of indices."""

    def __init__(self, table: Mapping[int, Sequence[float]]) -> None:
        if not table:
            raise ValueError("table must be nonempty")
        converted: dict[int, np.ndarray] = {}
        dim = None
        for k, v in table.items():
            arr = np.asarray(v, dtype=float)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ValueError(f"table entry {k} must be a finite vector")
            if dim is None:
                dim = arr.size
            elif arr.size != dim:
                raise ValueError("table entries must share one dimension")
            arr.setflags(write=False)
            converted[int(k)] = arr
        self._table = converted
        self._dim = int(dim)

    @property
    def dimension(self) -> int:
        return self._dim

    def term(self, k: int) -> np.ndarray:
        try:
            return self._table[int(k)]
        except KeyError:
            raise KeyError(f"sequence has no entry at index {k}") from None

    def terms(self, k_lo: int, k_hi: int) -> np.ndarray:
        return np.stack([self.term(k) for k in range(int(k_lo), int(k_hi) + 1)])

    def min_index(self) -> int:
        return min(self._table)

    def sup_norm(self, k_lo: int, k_hi: int) -> SupNormBound:
        observed = max(
            float(np.linalg.norm(self.term(k))) for k in range(int(k_lo), int(k_hi) + 1)
        )
        ceiling = max(float(np.linalg.norm(v)) for v in self._table.values())
        return SupNormBound(observed=observed, ceiling=ceiling)


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


def recurrence_defect(seq: PoissonSequence, window: tuple[int, int], zeta: int) -> float:
    """``max_k ||term(k + zeta) - term(k)||`` over the index window."""
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError(f"window is empty: {window}")
    base = seq.terms(lo, hi)
    shifted = seq.terms(lo + zeta, hi + zeta)
    return float(np.max(np.linalg.norm(shifted - base, axis=1)))


# Shifts per block of the return scan: the abandoning threshold tightens once
# per block, and the per-block temporaries stay near a MiB at m = 8.
_SCAN_BLOCK = 1 << 14

# Rounding slack of the scalar prefilter of a logistic scan: relative and
# absolute (in units of ||output_map||) bounds on how far a computed row norm
# of two terms' difference can sit from ||output_map|| * |dz|.
_REL = 1e-12
_ABS = 1e-14


def _scalar_survivors(
    z: np.ndarray, c: float, width: int, zetas: np.ndarray, best: float
) -> np.ndarray:
    """The shifts of one block of a logistic scan that may still record.

    ``sd`` is each shift's running maximum of ``|z[offset + zeta] - z[offset]|``
    and ``[c*(sd(1 - _REL) - _ABS), c*(sd(1 + _REL) + _ABS)]`` brackets its
    computed vector defect (proof in :func:`find_return_times`).
    """
    sd = np.zeros(zetas.size)
    for offset in range(width):
        np.maximum(sd, np.abs(z[offset + zetas] - z[offset]), out=sd)
        lower = c * (sd * (1.0 - _REL) - _ABS)
        live = lower < best
        zetas, sd, lower = zetas[live], sd[live], lower[live]
        if zetas.size == 0:
            break
    upper = c * (sd * (1.0 + _REL) + _ABS)
    # earlier[j]: the least upper bound of the survivors before shift j
    earlier = np.minimum.accumulate(np.concatenate(([math.inf], upper[:-1])))
    return zetas[lower < earlier]


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
    below the best defect of all earlier blocks.  An abandoned shift has
    defect >= running maximum >= best, so it cannot strictly improve on the
    best and is never a record; it also cannot lower the running best.  The
    survivors' defects are the same row norms as :func:`recurrence_defect`'s
    and the maximum is exact, so the records, their defects and the tie rule
    (a tie never records) are those of the full scan.

    A :class:`LogisticSequence` has rank-one terms ``C z_k``, so its scan
    reads the orbit ``z`` and builds rows ``np.outer(z[idx], C)`` only for
    the shifts that pass a scalar prefilter first.  With ``c = ||C||`` and
    ``sd`` a shift's running maximum of ``|z[offset + zeta] - z[offset]|``,
    its computed defect ``d`` lies in ``[lb, ub]``, ``lb = c*(sd(1 - 1e-12)
    - 1e-14)`` and ``ub = c*(sd(1 + 1e-12) + 1e-14)``: the row norm of
    ``fl(z_a C) - fl(z_b C)`` is within ``2u||C|| + (m + 4)u ||C|| |dz|`` of
    ``||C|| |dz|`` for ``z`` in [0, 1] (``u`` the unit roundoff), which
    these slacks cover for ``m`` up to about 9000.  The prefilter drops a
    shift once ``lb >= best`` (then ``d >= best``), and after the offsets
    every shift whose ``lb`` is not below the least ``ub`` of the block's
    earlier survivors (then ``d >= lb >= ub_i >= d_i`` for an earlier shift
    ``i``, and by induction ``d`` is at least the defect of an earlier kept
    shift or ``best``).  Either way the
    dropped shift never strictly improves on a shorter shift's defect, so it
    is never a record and never lowers the running best, and the exact
    survivors' records are the full scan's.  The ``(zeta_max, m)`` term
    table is never built.
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
    if isinstance(seq, LogisticSequence):
        z = seq._values(lo, hi + zeta_max)  # indices lo .. hi+zeta_max
        C = seq.output_map
        c = float(np.linalg.norm(C))

        def rows(idx):
            return np.outer(z[idx], C)
    else:
        z = None
        rows = seq.terms(lo, hi + zeta_max).__getitem__
    best = math.inf
    records: list[ReturnEntry] = []
    for start in range(1, zeta_max + 1, _SCAN_BLOCK):
        zetas = np.arange(start, min(start + _SCAN_BLOCK, zeta_max + 1))
        if z is not None:
            zetas = _scalar_survivors(z, c, width, zetas, best)
        defects = np.zeros(zetas.size)
        for offset in range(width):
            if zetas.size == 0:
                break
            norms = np.linalg.norm(rows(offset + zetas) - rows(offset), axis=1)
            np.maximum(defects, norms, out=defects)
            live = defects < best
            zetas, defects = zetas[live], defects[live]
        # prior[j]: the best defect of every shorter shift; a record is strictly below it
        prior = np.minimum.accumulate(np.concatenate(([best], defects)))
        records.extend(
            ReturnEntry(zeta=int(zetas[j]), defect=float(defects[j]))
            for j in np.flatnonzero(defects < prior[:-1])
        )
        best = float(prior[-1])
    return ReturnTimeSet(window=(lo, hi), entries=tuple(records[-max_count:]))
