"""Geometry of the periodic interval time scale.

Walks through the basic objects: interval endpoints, membership, forward and
backward jump operators, the gap-collapsing psi substitution, and impulse
moment bookkeeping on the collapsed line.
"""

import numpy as np

from tsdyn import TimeScaleSpec

ts = TimeScaleSpec(anchor=1.0, period=8.0, gap=3.0)

print("A periodic time scale made of closed intervals [8k-4, 8k+1]:")
for k in range(-1, 3):
    print(f"  interval {k:+d}: [{ts.endpoint(2 * k - 1):6.1f}, {ts.endpoint(2 * k):6.1f}]")

print("\nMembership and classification:")
for t in (0.0, 1.0, 2.5, 4.0):
    if ts.contains(t):
        j = ts.jump_operators(t)
        kind = (
            "right-scattered" if j.right_scattered else
            "left-scattered" if j.left_scattered else "dense"
        )
        print(f"  t = {t:4.1f}: in the scale, {kind:15s} sigma = {j.sigma:4.1f}, rho = {j.rho:4.1f}")
    else:
        print(f"  t = {t:4.1f}: inside a hole")

print("\nThe psi substitution removes the holes (here each hole has length 3):")
for t in (0.0, 1.0, 5.0, 9.0, 13.0):
    try:
        print(f"  psi({t:5.1f}) = {ts.psi(t):6.1f}   and back: psi_inv = {ts.psi_inv(ts.psi(t)):6.1f}")
    except Exception as exc:
        print(f"  psi({t:5.1f}) undefined: {exc}")

print("\nRight endpoints land on evenly spaced impulse moments:")
print("  impulse points:", [ts.impulse_point(k) for k in range(-1, 4)])
print("  impulses in [0, 6):", ts.count_impulses(0.0, 6.0))
print("  impulses in [0, 16):", ts.count_impulses(0.0, 16.0))

rng = np.random.default_rng(0)
ks = rng.integers(-500, 500, size=1000)
offsets = rng.integers(0, 2 ** 20, size=1000)
pts = np.array([ts.endpoint(2 * int(k)) - ts.stride * int(j) / 2 ** 20 for k, j in zip(ks, offsets)])
exact = np.count_nonzero(ts.psi_inv(ts.psi(pts)) == pts)
print(f"\npsi round trip is exact on {exact}/1000 random scale points")
