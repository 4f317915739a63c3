"""Dense complex linear algebra for the small (8x8 / 15x15) generator systems.

A thin, validated wrapper around LAPACK via scipy: LU with partial
pivoting, explicit singularity detection and a residual check.  Matrices
and vectors are plain complex numpy arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

RESIDUAL_RTOL = 1e-10
PIVOT_RTOL = 1e-14


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when an LU pivot falls below the numerical-singularity threshold."""

    def __init__(self, pivot_index: int, pivot_magnitude: float, threshold: float):
        self.pivot_index = pivot_index
        self.pivot_magnitude = pivot_magnitude
        super().__init__(
            f"matrix numerically singular: |pivot[{pivot_index}]| = "
            f"{pivot_magnitude:.3e} < {threshold:.3e}"
        )


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    return a


def _as_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x.view(float))):
        raise ValueError("vector has non-finite entries")
    return x


def solve(a, b) -> np.ndarray:
    """Solve a x = b by LU with partial pivoting.

    Raises SingularMatrixError (carrying the offending pivot index) when a
    pivot falls below PIVOT_RTOL * max|a|.  The returned x satisfies
    max|a x - b| <= RESIDUAL_RTOL * (1 + max|b|); this is asserted.
    """
    a = _as_matrix(a)
    b = _as_vector(b)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")

    lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    threshold = PIVOT_RTOL * np.abs(a).max()
    small = np.flatnonzero(pivots < threshold)
    if small.size:
        k = int(small[0])
        raise SingularMatrixError(k, float(pivots[k]), float(threshold))

    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    residual = np.abs(a @ x - b).max()
    bound = RESIDUAL_RTOL * (1.0 + np.abs(b).max())
    if residual > bound:
        raise np.linalg.LinAlgError(
            f"solve residual {residual:.3e} exceeds tolerance {bound:.3e}"
        )
    return x
