"""Dense real-matrix utilities for small systems (targeting m <= 16).

The matrix exponential by Pade scaling and squaring and integer matrix
powers, which numpy does not provide, plus the spectral radius and spectral
norm read off numpy's eigenvalue and singular value routines.
"""

from __future__ import annotations

import math

import numpy as np

# [13/13] Pade coefficients and the 1-norm bound under which the approximant
# needs no squaring (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def _as_square(M, name: str = "M") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    return A


def expm(M) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a [13/13] Pade core.

    The argument is scaled by a power of two until its 1-norm is at most
    ``theta_13``, where the Pade approximant's backward error is below the
    unit roundoff (Higham, "The scaling and squaring method for the matrix
    exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005); the
    approximant is then squared back.
    """
    A = _as_square(M)
    if not np.all(np.isfinite(A)):
        raise ValueError("expm requires finite entries")
    m = A.shape[0]
    norm = float(np.max(np.sum(np.abs(A), axis=0))) if m else 0.0
    squarings = math.ceil(math.log2(norm / _PADE13_THETA)) if norm > _PADE13_THETA else 0
    X = A / (2.0 ** squarings)
    b = _PADE13
    ident = np.eye(m)
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        R = R @ R
    return R


def int_power(M, n: int) -> np.ndarray:
    """Non-negative integer matrix power by repeated squaring."""
    A = _as_square(M)
    n = int(n)
    if n < 0:
        raise ValueError(f"int_power requires n >= 0, got {n}")
    result = np.eye(A.shape[0])
    base = A.copy()
    while n:
        if n & 1:
            result = result @ base
        n >>= 1
        if n:
            base = base @ base
    return result


def spectral_norm(M) -> float:
    """Largest singular value (the matrix 2-norm), from numpy's SVD."""
    A = _as_square(M)
    if not np.all(np.isfinite(A)):
        raise ValueError("spectral_norm requires finite entries")
    if A.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus, from numpy's eigenvalue routine."""
    A = _as_square(M)
    if not np.all(np.isfinite(A)):
        raise ValueError("spectral_radius requires finite entries")
    if A.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))
