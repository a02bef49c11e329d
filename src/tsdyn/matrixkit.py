"""Dense real-matrix utilities for small systems (targeting m <= 16).

Self-contained implementations on top of plain numpy arrays: matrix
exponential by Pade scaling and squaring, determinant by partially pivoted LU,
spectral radius by closed form (m <= 2) or Gelfand iteration, and spectral
norm from numpy's singular value decomposition.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

# [13/13] Pade coefficients and the 1-norm bound under which the approximant
# needs no squaring (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152
_GELFAND_MAX_SQUARINGS = 60


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


def det(M) -> float:
    """Determinant via LU factorization with partial pivoting."""
    A = _as_square(M).copy()
    m = A.shape[0]
    sign = 1.0
    for col in range(m):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if A[pivot, col] == 0.0:
            return 0.0
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            sign = -sign
        A[col + 1:, col] /= A[col, col]
        A[col + 1:, col + 1:] -= np.outer(A[col + 1:, col], A[col, col + 1:])
    return sign * float(np.prod(np.diag(A)))


def spectral_norm(M) -> float:
    """Largest singular value (the matrix 2-norm), from numpy's SVD."""
    A = _as_square(M)
    if not np.all(np.isfinite(A)):
        raise ValueError("spectral_norm requires finite entries")
    if A.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def _eigen_moduli_2x2(A: np.ndarray) -> float:
    a, b = A[0, 0], A[0, 1]
    c, d = A[1, 0], A[1, 1]
    tr = a + d
    dt = a * d - b * c
    disc = tr * tr - 4.0 * dt
    if disc >= 0.0:
        root = math.sqrt(disc)
        return max(abs((tr + root) / 2.0), abs((tr - root) / 2.0))
    # complex conjugate pair: |lambda|^2 = det
    return math.sqrt(dt)


def spectral_radius(M, tol: float = 1e-8) -> float:
    """Largest eigenvalue modulus.

    Exact closed form for m <= 2; otherwise the Gelfand limit
    ``||M^(2^j)||^(1/2^j)`` evaluated by repeated squaring with norm
    renormalization until two consecutive estimates agree to ``tol``
    relative.  Raises :class:`ConvergenceError` if 60 squarings do not
    stabilize the estimate.
    """
    A = _as_square(M)
    if not np.all(np.isfinite(A)):
        raise ValueError("spectral_radius requires finite entries")
    m = A.shape[0]
    if m == 0:
        return 0.0
    if m == 1:
        return abs(float(A[0, 0]))
    if m == 2:
        return _eigen_moduli_2x2(A)
    X = A.copy()
    log_scale = 0.0
    previous = None
    for j in range(1, _GELFAND_MAX_SQUARINGS + 1):
        n = spectral_norm(X)
        if n == 0.0:
            return 0.0
        # X approximates M^(2^(j-1)) * exp(-log_scale)
        estimate = math.exp((log_scale + math.log(n)) / 2.0 ** (j - 1))
        if previous is not None and abs(estimate - previous) <= tol * max(estimate, 1e-300):
            return estimate
        previous = estimate
        X = X / n
        X = X @ X
        log_scale = 2.0 * (log_scale + math.log(n))
    raise ConvergenceError(
        "Gelfand iteration for the spectral radius did not stabilize in 60 squarings"
    )
