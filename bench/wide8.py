"""Seeded generator of the ``wide8`` scenario: an 8-dimensional system whose
work stays in a narrow band across seeds.

The spectrum of the system matrix, the condition number of its eigenvector
basis, the time scale, the harmonic amplitudes and the norm of the output map
are fixed.  The seed draws only the orientation of the eigenvector basis, the
harmonic phases and the direction of the output map, so the certificate, the
truncation horizon and the quadrature node count move little from seed to
seed while the inputs are genuinely different.
"""

from __future__ import annotations

import math

import numpy as np

DIMENSION = 8
THETA, OMEGA, DELTA = 1.0, 8.0, 3.0
STRIDE = OMEGA - DELTA
# One-period map radius: the dominant eigenvalue a of A solves
# |exp(STRIDE*a) * (1 + DELTA*a)| = RADIUS.
RADIUS = 0.5
# Subdominant spectrum as (real, imaginary) pairs and one real eigenvalue;
# their one-period moduli are 0.30, 0.27, 0.07 and 0.04, all below RADIUS,
# so the dominant eigenvalue is simple and real.
PAIRS = ((-0.15, 0.1), (-0.25, 0.3), (-0.45, 0.2))
REAL_TAIL = -0.6
# Condition number of the eigenvector basis.  Near 1 the singular values of
# the transition matrices pair up and the power-iteration norm stalls; far
# above 1 the certificate prefactor, and with it the work, spreads widely
# across seeds.
BASIS_CONDITION = 1.5
HARMONICS = 6
OUTPUT_NORM = 2.0

WINDOWS = {
    "t0": 0.0,
    "t_end": 9.0,
    "return_window": [0, 20],
    "zeta_max": 1_000_000,
    "max_returns": 3,
}
TOLERANCES = {"eval_tol": 1e-11, "grid_step": 0.25}


def period_modulus(a: float) -> float:
    """One-period multiplier of a real eigenvalue ``a`` of A."""
    return math.exp(STRIDE * a) * (1.0 + DELTA * a)


def dominant_eigenvalue() -> float:
    """Real eigenvalue with one-period modulus RADIUS, by bisection.

    The multiplier rises monotonically from 0 to 1 on ``(-1/DELTA, 0)``.
    """
    lo, hi = -1.0 / DELTA, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if period_modulus(mid) < RADIUS:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _spectrum_block() -> np.ndarray:
    D = np.zeros((DIMENSION, DIMENSION))
    i = 0
    for a, b in PAIRS:
        D[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
        i += 2
    D[i, i] = dominant_eigenvalue()
    D[i + 1, i + 1] = REAL_TAIL
    return D


def scenario(seed: int) -> dict:
    """The wide8 configuration document for ``seed``."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((DIMENSION, DIMENSION)))
    W, _ = np.linalg.qr(rng.standard_normal((DIMENSION, DIMENSION)))
    V = U @ np.diag(np.geomspace(1.0, BASIS_CONDITION, DIMENSION)) @ W.T
    A = V @ _spectrum_block() @ np.linalg.inv(V)
    forcing = []
    for _ in range(DIMENSION):
        phases = rng.uniform(0.0, 2.0 * math.pi, HARMONICS)
        forcing.append({
            "constant": 0.0,
            "harmonics": [
                {"n": n, "cos": math.cos(p) / n, "sin": math.sin(p) / n}
                for n, p in enumerate(phases, start=1)
            ],
        })
    direction = rng.standard_normal(DIMENSION)
    output_map = OUTPUT_NORM * direction / np.linalg.norm(direction)
    return {
        "timescale": {"theta": THETA, "omega": OMEGA, "delta": DELTA},
        "matrix": A.tolist(),
        "forcing": forcing,
        "gamma": {"kind": "logistic", "r": 3.9, "z0": 0.4, "k_min": -2000,
                  "C": output_map.tolist()},
        "tolerances": dict(TOLERANCES),
        "windows": dict(WINDOWS),
    }
