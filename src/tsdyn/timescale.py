"""Geometry of a periodic time scale made of evenly spaced closed intervals.

The scale is the union of intervals ``[endpoint(2k-1), endpoint(2k)]`` where

    endpoint(2k-1) = anchor + gap + (k - 1) * period
    endpoint(2k)   = anchor + k * period

so each interval has length ``period - gap`` and consecutive intervals are
separated by a hole of length ``gap``.  The psi substitution removes the
holes, mapping the scale (minus its left endpoints) bijectively onto the
real line; the images of the right endpoints are the impulse moments

    impulse_point(k) = anchor + k * (period - gap).

All boundary classification uses a relative tolerance of 2**-40 so that
floating-point noise cannot flip a point across an interval edge.  It is
applied by two snaps, one on each side of psi:

* the point snap of ``locate``: a point ``t`` within tolerance of an edge,
  measured at ``t``, is treated as being exactly on the edge;
* the impulse snap on the line: ``s`` is treated as impulse ``k`` when
  ``s + k * gap`` is within tolerance of right endpoint ``k``, or
  ``s + (k + 1) * gap`` of left endpoint ``k + 1``, each measured as the
  point snap measures it at that edge of hole ``k``.

``impulse_index_below``, ``count_impulses`` and ``psi_inv`` read the impulse
snap, so ``psi_inv(s)`` is never in a hole or on a left endpoint and
``locate`` puts it in the interval above ``impulse_index_below(s)``.  This
module is the one home of both snaps and of the psi formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TimeScaleDomainError

# Boundary snap: points within 2**-40 * max(1, |t|) of an interval edge are
# treated as the edge itself.  Indices are capped so k * period stays exact.
_BOUNDARY_RTOL = 2.0 ** -40
_MAX_INDEX = 2 ** 52

# Location codes returned by TimeScaleSpec.locate, and their indices in _CODES.
LEFT_ENDPOINT = "left_endpoint"
INTERIOR = "interior"
RIGHT_ENDPOINT = "right_endpoint"
GAP = "gap"
_CODES = np.array([LEFT_ENDPOINT, INTERIOR, RIGHT_ENDPOINT, GAP])
_LEFT, _INTERIOR, _RIGHT, _GAP = range(4)


def _edge_tol(t):
    return _BOUNDARY_RTOL * np.maximum(1.0, np.abs(t))


def _scalar(x):
    """A 0-d result as the Python scalar it holds; arrays pass through."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def _finite(x, name):
    """``x`` as a float array; raises if any entry is nan or infinite."""
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {x[~finite].item(0)!r}")
    return x


def _checked_index(k):
    """Whole numbers as int64 indices, elementwise; raises past 2**52."""
    k = np.asarray(k, dtype=float)
    outside = ~(np.abs(k) <= _MAX_INDEX)
    if outside.any():
        raise ValueError(f"index {k[outside].item(0)!r} exceeds the exact floating-point range")
    return _scalar(k.astype(np.int64))


def sample_index(grid: np.ndarray, t):
    """Index of the entry of the increasing ``grid`` that the boundary snap
    treats as ``t`` itself, elementwise.  A miss reads None for a scalar
    ``t`` and -1 in an array."""
    t = np.asarray(t, dtype=float)
    idx = np.searchsorted(grid, t)
    found = np.full(t.shape, -1)
    for i in (idx, idx - 1) if grid.size else ():  # the lower neighbour wins
        near = np.abs(grid.take(i, mode="clip") - t) <= _edge_tol(t)
        found = np.where((0 <= i) & (i < grid.size) & near, i, found)
    return found if found.ndim else (int(found) if found >= 0 else None)


def _snapped_ceil(u):
    """The number of steps ``ceil(u)`` as a float, treating a ``u`` within
    tolerance of a whole number as that number; callers check the count."""
    u = np.asarray(u, dtype=float)
    r = np.rint(u)
    return np.where(np.abs(u - r) <= _edge_tol(u), r, np.ceil(u))


@dataclass(frozen=True)
class JumpInfo:
    """A point ``t`` of the scale with its forward jump ``sigma`` and backward
    jump ``rho``; the density/scatter classification on each side follows."""

    t: float
    sigma: float
    rho: float

    @property
    def right_scattered(self) -> bool:
        return self.sigma > self.t

    @property
    def right_dense(self) -> bool:
        return not self.right_scattered

    @property
    def left_scattered(self) -> bool:
        return self.rho < self.t

    @property
    def left_dense(self) -> bool:
        return not self.left_scattered


@dataclass(frozen=True)
class TimeScaleSpec:
    """Parameters (anchor, period, gap) of the periodic interval time scale.

    Invariants enforced at construction:

    * ``0 < gap < period`` (holes are nondegenerate and shorter than a period);
    * the normalization ``anchor + gap - period < 0 <= anchor`` placing zero
      inside the half-open interval indexed by ``k = 0``.  Downstream index
      bookkeeping (``psi(0) == 0`` in particular) relies on it, so violating
      specs are rejected rather than re-anchored.

    ``endpoint``, ``locate``, ``contains``, ``psi``, ``psi_inv``,
    ``impulse_point`` and ``impulse_index_below`` act elementwise on arrays;
    a scalar is the 0-d case and returns a Python ``int``, ``float`` or
    ``str``.  ``locate`` snaps points of the scale onto edges, and
    ``psi_inv`` and ``impulse_index_below`` snap points of the line onto
    impulses at the edges of the hole they open (see the module docstring).
    Nan and infinite points raise.  Indices beyond ``2**52`` raise, so
    ``k * period`` stays exact.

    Instances are immutable and every method is a pure function, so a spec
    may be shared freely across threads.
    """

    anchor: float
    period: float
    gap: float

    def __post_init__(self) -> None:
        for name in ("anchor", "period", "gap"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite real number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not (0.0 < self.gap < self.period):
            raise ValueError(
                f"requires 0 < gap < period, got gap={self.gap}, period={self.period}"
            )
        if not (self.anchor + self.gap - self.period < 0.0 <= self.anchor):
            raise ValueError(
                "normalization anchor + gap - period < 0 <= anchor violated "
                f"(anchor={self.anchor}, period={self.period}, gap={self.gap})"
            )
        # Boundary classification needs edges separated by much more than the
        # snap tolerance to stay unambiguous.
        scale = _edge_tol(abs(self.anchor) + self.period)
        if self.gap <= 16.0 * scale or self.stride <= 16.0 * scale:
            raise ValueError("gap and period - gap must exceed the boundary tolerance")

    @property
    def stride(self) -> float:
        """Interval length and impulse spacing: ``period - gap``."""
        return self.period - self.gap

    # ------------------------------------------------------------------
    # endpoints and membership

    def endpoint(self, k):
        """Interval endpoint with signed index ``k`` (odd: left, even: right)."""
        k = np.asarray(_checked_index(k))
        left = self.anchor + self.gap + ((k + 1) // 2 - 1) * self.period  # j = (k + 1) // 2
        return _scalar(np.where(k % 2 == 0, self.anchor + (k // 2) * self.period, left))

    def interval_span(self, lo: float, hi: float) -> tuple[int, int]:
        """Interval indices ``floor((lo - anchor) / period)`` and
        ``ceil((hi - anchor) / period)``; every interval that meets
        ``[lo, hi]`` has an index between them.  Unlike :meth:`locate` this
        applies no boundary snap, so the indices follow the plain quotients."""
        return (math.floor((lo - self.anchor) / self.period),
                math.ceil((hi - self.anchor) / self.period))

    def locate(self, t):
        """Classify ``t`` against the scale, elementwise.

        Returns ``(k, code)`` where ``code`` is one of ``LEFT_ENDPOINT``,
        ``INTERIOR``, ``RIGHT_ENDPOINT`` (``k`` indexes the containing
        interval ``[endpoint(2k-1), endpoint(2k)]``) or ``GAP`` (``k`` indexes
        the interval immediately to the right of the hole).  For an array
        ``t`` these are an int array and an array of codes.
        """
        k, code = self._classify(t)
        return k, _scalar(_CODES[code])

    def _classify(self, t):
        """``locate`` with each code given by its index in ``_CODES``."""
        t = _finite(t, "t")
        tol = _edge_tol(t)
        kc = np.floor((t - self.anchor) / self.period)
        code = np.full(t.shape, _GAP, dtype=np.int8)
        above = np.ones(t.shape, dtype=np.int8)  # k - kc
        # Precedence: the interval at or below t, then the next; in each, the
        # left edge, the right edge, the interior.  Writing the tests in
        # reverse keeps the first that holds.
        for offset in (1, 0):
            k = kc + offset
            left = self.anchor + self.gap + (k - 1) * self.period
            right = self.anchor + k * self.period
            for c, hit in ((_INTERIOR, (left < t) & (t < right)),
                           (_RIGHT, np.abs(t - right) <= tol), (_LEFT, np.abs(t - left) <= tol)):
                code[hit] = c
                above[hit] = offset
        return _checked_index(kc + above), code

    def contains(self, t):
        """True iff ``t`` belongs to the time scale, elementwise."""
        return self.locate(t)[1] != GAP

    # ------------------------------------------------------------------
    # jump operators

    def jump_operators(self, t: float) -> JumpInfo:
        """Forward/backward jump values at ``t``, which classify the point.

        Interior points are dense on both sides.  Right endpoints are
        right-scattered (sigma jumps over the hole) and left-dense; left
        endpoints are left-scattered and right-dense.
        """
        k, code = self.locate(t)
        if code == GAP:
            raise TimeScaleDomainError(f"t={t!r} is not in the time scale")
        sigma = self.endpoint(2 * k + 1) if code == RIGHT_ENDPOINT else t
        rho = self.endpoint(2 * k - 2) if code == LEFT_ENDPOINT else t
        return JumpInfo(t, sigma, rho)

    # ------------------------------------------------------------------
    # psi substitution

    def psi(self, t):
        """Collapse ``t`` onto the real line by removing the holes left of it.

        Defined for ``t`` in the scale minus its left endpoints, using the
        half-open membership ``endpoint(2k-1) < t <= endpoint(2k)``; the value
        is ``t - k * gap``, elementwise.  Left endpoints (where psi is
        undefined) and points outside the scale raise.
        """
        t = np.asarray(t, dtype=float)
        k, code = self._classify(t)
        for bad, why in ((code == _GAP, "is not in the time scale"),
                         (code == _LEFT, "is a left endpoint, where psi is undefined")):
            if bad.any():
                raise TimeScaleDomainError(f"t={t[bad].item(0)!r} {why}")
        return _scalar(t - k * self.gap)

    def psi_inv(self, s):
        """Inverse of :meth:`psi`, elementwise; defined on all of the real line.

        Uses the half-open membership ``impulse_point(k-1) < s <=
        impulse_point(k)`` and returns ``s + k * gap``.  Left-continuous at
        impulse points, with a right jump of size ``gap``.  A point that
        snaps onto impulse ``k`` returns right endpoint ``k`` itself, so the
        point returned is never in a hole nor on a left endpoint, and
        :meth:`locate` gives it the index ``k`` that :meth:`impulse_index_below`
        puts above ``s``.
        """
        s = np.asarray(s, dtype=float)
        k, snap = self._impulse_above(s)
        k = _checked_index(k)
        return _scalar(np.where(snap, self.anchor + k * self.period, s + k * self.gap))

    # ------------------------------------------------------------------
    # impulse moments

    def impulse_point(self, k):
        """k-th impulse moment ``anchor + k * (period - gap)`` on the line."""
        return _scalar(self.anchor + _checked_index(k) * self.stride)

    def impulse_index_below(self, s):
        """Largest ``k`` with ``impulse_point(k) < s`` (strict, snapped)."""
        return _checked_index(self._impulse_above(s)[0] - 1)

    def _impulse_above(self, s):
        """The ``k`` with ``impulse_point(k-1) < s <= impulse_point(k)`` as a
        float, and whether ``s`` snaps onto impulse ``k``, elementwise.

        ``s`` snaps onto the nearest impulse ``r`` when ``s + r * gap`` is
        within tolerance of right endpoint ``r``, or ``s + (r + 1) * gap`` of
        left endpoint ``r + 1``: either edge of hole ``r``, each measured as
        :meth:`locate` measures it.  Elsewhere ``k`` is the plain ceiling.
        """
        s = _finite(s, "s")
        u = (s - self.anchor) / self.stride
        r = np.rint(u)
        t = s + r * self.gap
        snap = np.abs(t - (self.anchor + r * self.period)) <= _edge_tol(t)
        t = s + (r + 1) * self.gap
        snap |= np.abs(t - (self.anchor + self.gap + r * self.period)) <= _edge_tol(t)
        return np.where(snap, r, np.ceil(u)), snap

    def count_impulses(self, r: float, s: float) -> int:
        """Number of impulse moments in the half-open interval ``[r, s)``."""
        if r > s:
            raise ValueError(f"requires r <= s, got r={r!r}, s={s!r}")
        below = self.impulse_index_below(np.array([r, s]))
        return int(below[1] - below[0])
