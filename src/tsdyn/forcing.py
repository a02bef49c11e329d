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

from .timescale import TimeScaleSpec


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

    def sup_norm(self, ts: TimeScaleSpec | None = None, grid: int = 8192) -> float:
        """Certified upper bound on the supremum of ``||value(t)||`` over one period.

        With a time-scale spec the maximization is restricted to the scale
        (one closed interval per period); otherwise the full period is used.
        The squared norm ``q`` is sampled on a uniform grid of spacing ``h``
        that contains both ends.  A maximizer is either a sampled end or a
        zero of ``q'`` within ``h/2`` of a sample, where ``q`` lies at most
        ``h^2/8 * sup|q''|`` below it, and ``|q''| <= 2 (D1^2 + D0 D2)`` with
        ``Dk = derivative_bound(k)``.
        """
        if ts is None:
            lo, hi = 0.0, self.period
        else:
            if ts.period != self.period:
                raise ValueError("time-scale period differs from forcing period")
            lo, hi = ts.endpoint(-1), ts.endpoint(0)
        pts = np.linspace(lo, hi, grid)
        peak = float(np.max(np.sum(self.value_many(pts) ** 2, axis=1)))
        h = (hi - lo) / (grid - 1)
        d0, d1, d2 = (self.derivative_bound(k) for k in range(3))
        return math.sqrt(peak + h * h / 4.0 * (d1 * d1 + d0 * d2))


# ----------------------------------------------------------------------
# sequence-driven forcing


class SupNormBound(NamedTuple):
    """Observed maximum over a scanned index range plus a certified ceiling."""

    observed: float
    ceiling: float


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
        return self._values(self._k_min, self._k_min + count - 1)

    def _values(self, k_lo: int, k_hi: int) -> np.ndarray:
        """Orbit slice z[k_lo..k_hi] (inclusive), growing the cache as needed."""
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
                    grown = np.empty(max(needed, 2 * old.size))
                    grown[: old.size] = old
                    r = self._r
                    for i in range(old.size, grown.size):
                        z = grown[i - 1]
                        grown[i] = r * z * (1.0 - z)
                    self._orbit = grown
        lo = k_lo - self._k_min
        return self._orbit[lo: k_hi - self._k_min + 1].copy()

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

    def max_index(self) -> int:
        return max(self._table)

    def sup_norm(self, k_lo: int, k_hi: int) -> SupNormBound:
        observed = max(
            float(np.linalg.norm(self.term(k))) for k in range(int(k_lo), int(k_hi) + 1)
        )
        ceiling = max(float(np.linalg.norm(v)) for v in self._table.values())
        return SupNormBound(observed=observed, ceiling=ceiling)


PoissonSequence = Union[LogisticSequence, TableSequence]


def piecewise_forcing_value(seq: PoissonSequence, ts: TimeScaleSpec, t: float) -> np.ndarray:
    """Sequence-driven forcing at ``t``: the term indexed by t's interval."""
    return seq.term(ts.interval_index(t))


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


def find_return_times(
    seq: PoissonSequence,
    window: tuple[int, int],
    zeta_max: int,
    max_count: int = 3,
) -> ReturnTimeSet:
    """Scan shifts ``1..zeta_max`` and keep record-improving recurrence defects.

    A shift is recorded whenever its defect strictly improves the best value
    seen so far; the deepest ``max_count`` records are returned.  Requires the
    sequence to be defined on ``[window_lo, window_hi + zeta_max]``.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError(f"window is empty: {window}")
    zeta_max = int(zeta_max)
    if zeta_max < 1:
        raise ValueError(f"zeta_max must be >= 1, got {zeta_max}")
    if max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count}")

    terms = seq.terms(lo, hi + zeta_max)  # indices lo .. hi+zeta_max
    width = hi - lo + 1
    best_by_shift = np.zeros(zeta_max)
    for offset in range(width):
        col = terms[offset + 1: offset + 1 + zeta_max] - terms[offset]
        np.maximum(best_by_shift, np.linalg.norm(col, axis=1), out=best_by_shift)

    records: list[ReturnEntry] = []
    best = math.inf
    for i in range(zeta_max):
        d = float(best_by_shift[i])
        if d < best:
            best = d
            records.append(ReturnEntry(zeta=i + 1, defect=d))
    return ReturnTimeSet(window=(lo, hi), entries=tuple(records[-max_count:]))
