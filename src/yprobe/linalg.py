"""Dense complex linear algebra for the small (8x8 / 15x15) generator systems.

A thin, validated wrapper around LAPACK via scipy: LU with partial
pivoting, explicit singularity detection and a residual check, for one
matrix or a stack of them.  Matrices and vectors are plain complex numpy
arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

RESIDUAL_RTOL = 1e-10
PIVOT_RTOL = 1e-14


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when an LU pivot falls below the numerical-singularity threshold.

    matrix_index locates the offending matrix in a stack (a[matrix_index]
    is that matrix); it is () for a single matrix.
    """

    def __init__(self, pivot_index: int, pivot_magnitude: float, threshold: float,
                 matrix_index: tuple = ()):
        self.pivot_index = pivot_index
        self.pivot_magnitude = pivot_magnitude
        self.matrix_index = matrix_index
        super().__init__(
            f"{_where(matrix_index)}matrix numerically singular: |pivot[{pivot_index}]| = "
            f"{pivot_magnitude:.3e} < {threshold:.3e}"
        )


def _where(index: tuple) -> str:
    """Message prefix naming a matrix of a stack; empty for a single matrix."""
    return f"a[{', '.join(map(str, index))}]: " if index else ""


def _first(flags: np.ndarray) -> tuple:
    """Index of the first true entry of flags, in C order."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(flags), flags.shape))


def solve(a, b) -> np.ndarray:
    """Solve a x = b by LU with partial pivoting, for one matrix or a stack.

    a has shape (..., n, n); b has shape (..., n), or (n,) to share one
    right-hand side across the stack.  The whole stack is factored and
    solved by one batched scipy call, and every matrix is checked on its
    own: non-finite entries raise ValueError, a pivot below
    PIVOT_RTOL * max|a_k| raises SingularMatrixError (carrying the pivot
    and the matrix index), and max|a_k x_k - b_k| must stay within
    RESIDUAL_RTOL * (1 + max|b_k|).  Errors in a stack name the matrix.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if b.ndim == 0 or b.shape[-1] != a.shape[-1] or b.shape[:-1] not in ((), a.shape[:-2]):
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not np.isfinite(a).all():
        bad = ~np.isfinite(a).all(axis=(-2, -1))
        raise ValueError(f"{_where(_first(bad))}matrix has non-finite entries")
    if not np.isfinite(b).all():
        bad = ~np.isfinite(b).all(axis=-1)
        raise ValueError(f"{_where(_first(bad))}vector has non-finite entries")

    lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diagonal(lu, axis1=-2, axis2=-1))
    threshold = PIVOT_RTOL * np.abs(a).max(axis=(-2, -1))
    small = pivots < threshold[..., None]
    if small.any():
        *index, k = _first(small)
        index = tuple(index)
        raise SingularMatrixError(k, float(pivots[index][k]), float(threshold[index]),
                                  index)

    x = scipy.linalg.lu_solve((lu, piv), b[..., None], check_finite=False)
    residual = np.abs(a @ x - b[..., None]).max(axis=(-2, -1))
    bound = RESIDUAL_RTOL * (1.0 + np.abs(b).max(axis=-1))
    over = residual > bound
    if over.any():
        index = _first(over)
        raise np.linalg.LinAlgError(
            f"{_where(index)}solve residual {residual[index]:.3e} exceeds tolerance "
            f"{np.broadcast_to(bound, over.shape)[index]:.3e}"
        )
    return x[..., 0]
