"""Dense complex linear algebra for the small (8x8 / 15x15) generator systems.

A thin, validated wrapper around LAPACK zgetrf/zgetrs, one call per matrix:
LU with partial pivoting and explicit singularity detection, factored once
for any number of solves, each checked by its normwise backward error, for
one matrix or a stack of them.  The routines are those of the ILP64
OpenBLAS that numpy's wheel already loads, called through ctypes, so
importing yprobe loads no scipy; a numpy without that library (conda, MKL)
falls back to scipy's wrappers of the same routines.  Matrices and vectors
are plain complex numpy arrays.  power_orbit walks the powers of one matrix
applied to a vector, for the time steppers.
"""

from __future__ import annotations

import ctypes

import numpy as np

# A solve passes when its normwise backward error |a x - b| / (|a| |x| + |b|),
# in infinity norms, is at most BACKWARD_TOL (Rigal & Gaches 1967; Higham,
# Accuracy and Stability, Thm 7.1).  LU gives about 1e-16 on these systems
# however ill-conditioned they are.
BACKWARD_TOL = 1e-13
PIVOT_RTOL = 1e-14


def _numpy_openblas():
    """zgetrf/zgetrs of the ILP64 OpenBLAS that numpy's wheel loads, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        routines = lib.scipy_zgetrf_64_, lib.scipy_zgetrs_64_
    except (AttributeError, OSError):
        return None
    for routine in routines:
        routine.restype = None
    return routines


_OPENBLAS = _numpy_openblas()
_TRANS_LEN = ctypes.c_size_t(1)  # zgetrs's hidden length of its TRANS string


def _check_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")


def _addresses(stack: np.ndarray) -> range:
    """Address of each stack[k] in memory."""
    start, step = stack.ctypes.data, stack.strides[0]
    return range(start, start + len(stack) * step, step or 1)  # empty: stride 0


def _openblas_factor(lu: np.ndarray) -> tuple:
    """Factor each F-ordered lu[k] in place: (scipy's 0-based pivots, solve_rows).

    solve_rows(x) overwrites each row of a C-ordered x with lu[k]^-1 x[k].
    n, lda, ipiv and info are 64-bit and the pivots 1-based.  The calls
    declare no argtypes and reuse pointer objects, resetting their value per
    matrix: that keeps a call as cheap as scipy's, where argtypes or new
    objects per call would double it.
    """
    zgetrf, zgetrs = _OPENBLAS
    ipiv = np.empty(lu.shape[:-1], dtype=np.int64)
    n_p, one_p = ctypes.byref(ctypes.c_int64(lu.shape[-1])), ctypes.byref(ctypes.c_int64(1))
    info = ctypes.c_int64()
    info_p, pa, pp = ctypes.byref(info), ctypes.c_void_p(), ctypes.c_void_p()
    for pa.value, pp.value in zip(_addresses(lu), _addresses(ipiv)):
        zgetrf(n_p, n_p, pa, n_p, pp, info_p)
    _check_info("getrf", info.value)  # the same arguments for every matrix

    def solve_rows(x):
        info = ctypes.c_int64()
        info_p = ctypes.byref(info)
        pa, pp, px = ctypes.c_void_p(), ctypes.c_void_p(), ctypes.c_void_p()
        for pa.value, pp.value, px.value in zip(_addresses(lu), _addresses(ipiv),
                                                _addresses(x)):
            zgetrs(b"N", n_p, one_p, pa, n_p, pp, px, n_p, info_p, _TRANS_LEN)
        _check_info("getrs", info.value)

    return (ipiv - 1).astype(np.int32), solve_rows


def _scipy_factor(lu: np.ndarray) -> tuple:
    """_openblas_factor through scipy's wrappers of the same routines."""
    import scipy.linalg
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=complex)
    piv = np.empty(lu.shape[:-1], dtype=np.int32)
    for k, m in enumerate(lu):
        lu[k], piv[k], info = getrf(m, overwrite_a=True)
        _check_info("getrf", info)

    def solve_rows(x):
        for k, (m, p) in enumerate(zip(lu, piv)):
            x[k], info = getrs(m, p, x[k])
            _check_info("getrs", info)

    return piv, solve_rows


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
        piv, self._solve_rows = (_openblas_factor if _OPENBLAS else _scipy_factor)(lu)
        self.factors = lu, piv
        magnitude = np.abs(a)
        self._norm = magnitude.sum(axis=-1).max(axis=-1)
        pivots = np.abs(np.diagonal(lu, axis1=-2, axis2=-1)).reshape(a.shape[:-1])
        threshold = PIVOT_RTOL * magnitude.max(axis=(-2, -1))
        small = (pivots < threshold[..., None]) | (pivots == 0.0)
        if small.any():
            *index, k = _first(small)
            index = tuple(index)
            raise SingularMatrixError(k, float(pivots[index][k]), float(threshold[index]),
                                      index)

    def solve(self, b) -> np.ndarray:
        """x with a x = b, for b of shape (..., n) or one shared (n,) vector.

        Each max|a_k x_k - b_k| must stay within
        BACKWARD_TOL * (|a_k| max|x_k| + max|b_k|), |a_k| the largest row sum
        of |a_k|; errors in a stack name the matrix.
        """
        a = self.a
        b = np.asarray(b, dtype=complex)
        if b.ndim == 0 or b.shape[-1] != a.shape[-1] or b.shape[:-1] not in ((), a.shape[:-2]):
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        if not np.isfinite(b).all():
            bad = ~np.isfinite(b).all(axis=-1)
            raise ValueError(f"{_where(_first(bad))}vector has non-finite entries")
        x = np.array(np.broadcast_to(b, a.shape[:-1]), order="C")
        self._solve_rows(x.reshape(-1, a.shape[-1]))
        residual = np.abs(a @ x[..., None] - b[..., None]).max(axis=(-2, -1))
        bound = BACKWARD_TOL * (self._norm * np.abs(x).max(axis=-1) + np.abs(b).max(axis=-1))
        over = ~(residual <= bound)
        if over.any():
            index = _first(over)
            raise np.linalg.LinAlgError(
                f"{_where(index)}solve residual {residual[index]:.3e} exceeds tolerance "
                f"{bound[index]:.3e}"
            )
        return x


def solve(a, b) -> np.ndarray:
    """Solve a x = b for one matrix or a stack: LU(a).solve(b), with all its checks."""
    return LU(a).solve(b)


def power_orbit(p, x0, n: int, every: int) -> np.ndarray:
    """The states of n steps x -> p x from x0: after each multiple of every steps, and the last.

    Rows are p^(k every) x0 for k = 0..n // every, then p^n x0 if every does
    not divide n.  The orbit of q = p^every is walked by doubling: with the
    first m rows known, rows m..2m-1 are the first m rows times (q^m)^T, and
    q^m is then squared.  That takes about 2 log2(n / every) matrix products
    instead of n matrix-vector steps.
    """
    x0 = np.asarray(x0)
    n_full, rem = divmod(n, every)
    out = np.empty((n_full + 1 + (rem > 0),) + x0.shape, dtype=np.result_type(p, x0))
    out[0] = x0
    q = np.linalg.matrix_power(p, every) if n_full else p
    m = 1
    while m <= n_full:
        count = min(m, n_full + 1 - m)
        out[m:m + count] = out[:count] @ q.T
        m += count
        if m <= n_full:
            q = q @ q
    if rem:
        out[-1] = np.linalg.matrix_power(p, rem) @ out[-2]
    return out
