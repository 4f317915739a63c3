"""Dense complex linear algebra for the small (8x8 / 15x15) generator systems.

A thin, validated wrapper around LAPACK getrf/getrs, one call per matrix:
LU with partial pivoting and explicit singularity detection, factored once
for any number of residual-checked solves, for one matrix or a stack of
them.  Matrices and vectors are plain complex numpy arrays.  power_orbit
walks the powers of one matrix applied to a vector, for the time steppers.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

RESIDUAL_RTOL = 1e-10
PIVOT_RTOL = 1e-14

_GETRF, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=complex)


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


class LU:
    """A checked LU factorization (partial pivoting) of one matrix or a stack.

    a has shape (..., n, n); each matrix is factored by one getrf call, as
    scipy.linalg.lu_factor would, into factors = (lu, piv) along one leading
    axis.  Each is checked on its own: non-finite entries raise ValueError, a
    pivot that is 0 or below PIVOT_RTOL * max|a_k| raises SingularMatrixError
    (carrying the pivot and the matrix index).  solve() reuses the factors.
    """

    def __init__(self, a):
        self.a = a = np.asarray(a, dtype=complex)
        if a.ndim < 2:
            raise ValueError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
        if a.shape[-2] != a.shape[-1]:
            raise ValueError(f"matrix must be square, got {a.shape}")
        if not np.isfinite(a).all():
            bad = ~np.isfinite(a).all(axis=(-2, -1))
            raise ValueError(f"{_where(_first(bad))}matrix has non-finite entries")
        lu = a.reshape((-1,) + a.shape[-2:]).swapaxes(1, 2).copy().swapaxes(1, 2)
        piv = np.empty(lu.shape[:-1], dtype=np.int32)
        for k, m in enumerate(lu):
            lu[k], piv[k], info = _GETRF(m, overwrite_a=True)
            if info < 0:
                raise ValueError(f"getrf: illegal value in argument {-info}")
        self.factors = lu, piv
        pivots = np.abs(np.diagonal(lu, axis1=-2, axis2=-1)).reshape(a.shape[:-1])
        threshold = PIVOT_RTOL * np.abs(a).max(axis=(-2, -1))
        small = (pivots < threshold[..., None]) | (pivots == 0.0)
        if small.any():
            *index, k = _first(small)
            index = tuple(index)
            raise SingularMatrixError(k, float(pivots[index][k]), float(threshold[index]),
                                      index)

    def solve(self, b) -> np.ndarray:
        """x with a x = b, for b of shape (..., n) or one shared (n,) vector.

        Each max|a_k x_k - b_k| must stay within RESIDUAL_RTOL * (1 + max|b_k|);
        errors in a stack name the matrix.
        """
        a = self.a
        b = np.asarray(b, dtype=complex)
        if b.ndim == 0 or b.shape[-1] != a.shape[-1] or b.shape[:-1] not in ((), a.shape[:-2]):
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        if not np.isfinite(b).all():
            bad = ~np.isfinite(b).all(axis=-1)
            raise ValueError(f"{_where(_first(bad))}vector has non-finite entries")
        x = np.empty(a.shape[:-1], dtype=complex)
        rhs = np.broadcast_to(b, x.shape).reshape(-1, a.shape[-1])
        flat_x = x.reshape(rhs.shape)
        for k, (lu, piv) in enumerate(zip(*self.factors)):
            flat_x[k], info = _GETRS(lu, piv, rhs[k])
            if info < 0:
                raise ValueError(f"getrs: illegal value in argument {-info}")
        residual = np.abs(a @ x[..., None] - b[..., None]).max(axis=(-2, -1))
        bound = RESIDUAL_RTOL * (1.0 + np.abs(b).max(axis=-1))
        over = residual > bound
        if over.any():
            index = _first(over)
            raise np.linalg.LinAlgError(
                f"{_where(index)}solve residual {residual[index]:.3e} exceeds tolerance "
                f"{np.broadcast_to(bound, over.shape)[index]:.3e}"
            )
        return x


def solve(a, b) -> np.ndarray:
    """Solve a x = b for one matrix or a stack: LU(a).solve(b), with all its checks."""
    return LU(a).solve(b)


def power_orbit(p, x0, n: int) -> np.ndarray:
    """The n + 1 vectors p^k x0 for k = 0..n, as rows of one array.

    The orbit is walked by doubling: with the first m rows known,
    rows m..2m-1 are the first m rows times (p^m)^T, and p^m is then
    squared.  That takes about 2 log2(n) matrix products instead of n
    matrix-vector steps.
    """
    x0 = np.asarray(x0)
    out = np.empty((n + 1,) + x0.shape, dtype=np.result_type(p, x0))
    out[0] = x0
    m = 1
    while m <= n:
        count = min(m, n + 1 - m)
        out[m:m + count] = out[:count] @ p.T
        m += count
        if m <= n:
            p = p @ p
    return out
