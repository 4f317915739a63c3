import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import yprobe
from yprobe import linalg
from yprobe.liouvillian import build_for
from yprobe.linalg import LU, SingularMatrixError, solve
from yprobe.presets import PRESETS


class TestSolve:
    def test_identity(self):
        b = np.array([1.0, 2j, 3.0])
        assert np.allclose(solve(np.eye(3), b), b, atol=0)

    def test_diagonal(self):
        a = np.diag([2j, -1.0])
        x = solve(a, np.array([2j, 3.0]))
        assert np.allclose(x, [1.0, -3.0], atol=1e-14)

    def test_random_15x15_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
            a += 15 * np.eye(15)  # keep it well conditioned
            b = rng.normal(size=15) + 1j * rng.normal(size=15)
            x = solve(a, b)
            assert np.abs(a @ x - b).max() <= 1e-10 * (1 + np.abs(b).max())

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) + 8 * np.eye(8)
        b1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        b2 = rng.normal(size=8) + 1j * rng.normal(size=8)
        lhs = solve(a, b1 + b2)
        rhs = solve(a, b1) + solve(a, b2)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_singular_matrix_reports_pivot(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrixError) as err:
            solve(a, np.ones(2))
        assert err.value.pivot_index == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve(np.ones((2, 3)), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            solve(np.eye(3), np.ones(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve(np.array([[np.inf, 0], [0, 1]]), np.ones(2))


def well_conditioned_stack(rng, shape, n):
    a = rng.normal(size=(*shape, n, n)) + 1j * rng.normal(size=(*shape, n, n))
    return a + n * np.eye(n)


def near_singular(rng, n):
    """A matrix with pivots above PIVOT_RTOL and condition number 1e12."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q1 @ np.diag([1.0] * (n - 1) + [1e-12]) @ q2


def wilkinson(n):
    """Partial pivoting's worst case: its LU grows entries as 2^(n-1).

    At n = 40 a solve has a backward error of about 1e-7 (Higham, Accuracy
    and Stability, sec. 9.4), far above BACKWARD_TOL.
    """
    w = np.eye(n) - np.tril(np.ones((n, n)), -1)
    w[:, -1] = 1.0
    return w.astype(complex)


def backward_error(a, x, b):
    return np.abs(a @ x - b).max() / (np.abs(a).sum(axis=-1).max() * np.abs(x).max()
                                      + np.abs(b).max())


class TestStackedSolve:
    def test_matches_single_solves(self):
        rng = np.random.default_rng(3)
        a = well_conditioned_stack(rng, (6,), 15)
        b = rng.normal(size=(6, 15)) + 1j * rng.normal(size=(6, 15))
        assert np.array_equal(solve(a, b), [solve(ak, bk) for ak, bk in zip(a, b)])

    def test_rhs_broadcast_from_one_vector(self):
        rng = np.random.default_rng(4)
        a = well_conditioned_stack(rng, (5,), 8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.array_equal(solve(a, b), [solve(ak, b) for ak in a])

    def test_two_stack_axes(self):
        rng = np.random.default_rng(5)
        a = well_conditioned_stack(rng, (2, 3), 4)
        b = rng.normal(size=(2, 3, 4)) + 0j
        x = solve(a, b)
        assert x.shape == (2, 3, 4)
        assert np.array_equal(x[1, 2], solve(a[1, 2], b[1, 2]))

    def test_singular_matrix_is_named(self):
        a = np.array([np.eye(2)] * 4, dtype=complex)
        a[2] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(SingularMatrixError, match=r"a\[2\]") as err:
            solve(a, np.ones(2))
        assert err.value.matrix_index == (2,)
        assert err.value.pivot_index == 1

    def test_singular_matrix_index_indexes_the_stack(self):
        a = np.array([[np.eye(2)] * 3] * 2, dtype=complex)
        a[1, 2] = [[0.0, 0.0], [0.0, 1.0]]
        with pytest.raises(SingularMatrixError) as err:
            solve(a, np.ones(2))
        assert err.value.matrix_index == (1, 2)
        assert np.array_equal(a[err.value.matrix_index], a[1, 2])
        assert err.value.pivot_index == 0

    def test_single_matrix_has_empty_index(self):
        with pytest.raises(SingularMatrixError) as err:
            solve(np.array([[1.0, 0.0], [0.0, 1e-20]]), np.ones(2))
        assert err.value.matrix_index == ()
        assert str(err.value).startswith("matrix numerically singular")

    def test_nonfinite_matrix_is_named(self):
        a = np.array([np.eye(3)] * 4, dtype=complex)
        a[3, 0, 2] = np.nan
        with pytest.raises(ValueError, match=r"a\[3\]: matrix has non-finite"):
            solve(a, np.ones(3))

    def test_nonfinite_rhs_is_named(self):
        b = np.ones((4, 3), dtype=complex)
        b[1, 1] = np.inf
        with pytest.raises(ValueError, match=r"a\[1\]: vector has non-finite"):
            solve(np.array([np.eye(3)] * 4), b)

    def test_residual_failure_is_named(self):
        rng = np.random.default_rng(0)
        a = well_conditioned_stack(rng, (3,), 40)
        a[1] = wilkinson(40)
        with pytest.raises(np.linalg.LinAlgError, match=r"a\[1\]: solve residual"):
            solve(a, rng.normal(size=40) + 0j)

    def test_ill_conditioned_exact_solve_passes(self):
        # cond = 1e12 and |x| ~ 1e12, but x is exact to rounding: the
        # backward error, not the size of the residual, decides
        rng = np.random.default_rng(0)
        a = well_conditioned_stack(rng, (3,), 4)
        a[1] = near_singular(rng, 4)
        x = solve(a, np.ones(4))
        assert np.abs(x[1]).max() > 1e10
        assert backward_error(a[1], x[1], np.ones(4)) <= 1e-15

    def test_perturbed_factor_is_caught(self):
        rng = np.random.default_rng(6)
        a = well_conditioned_stack(rng, (3,), 15)
        lu = LU(a)
        lu.factors[0][1, 4, 9] += 1e-8
        with pytest.raises(np.linalg.LinAlgError, match=r"a\[1\]: solve residual"):
            lu.solve(rng.normal(size=15) + 0j)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4), (1, 3, 4), ()])
    def test_stack_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="mismatch"):
            solve(np.array([np.eye(4)] * 3), np.ones(shape))

    def test_empty_stack(self):
        assert solve(np.zeros((0, 3, 3)), np.ones(3)).shape == (0, 3)

    def test_vector_rejected_as_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            solve(np.ones(3), np.ones(3))


class TestFactorOnce:
    def test_repeated_solves_equal_fresh_factorizations(self):
        rng = np.random.default_rng(8)
        a = well_conditioned_stack(rng, (5,), 15)
        b = rng.normal(size=(5, 15)) + 1j * rng.normal(size=(5, 15))
        lu = LU(a)
        x = lu.solve(b)
        assert np.array_equal(x, solve(a, b))
        assert np.array_equal(lu.solve(x), solve(a, x))

    def test_every_solve_is_residual_checked(self):
        rng = np.random.default_rng(0)
        a = well_conditioned_stack(rng, (3,), 40)
        a[1] = wilkinson(40)
        # b = a @ 1 meets no pivot growth and is solved exactly; a random
        # right-hand side on the same factors brings the growth out
        lu = LU(a)
        assert np.array_equal(lu.solve((a @ np.ones((3, 40, 1)))[..., 0])[1], np.ones(40))
        with pytest.raises(np.linalg.LinAlgError, match=r"a\[1\]: solve residual"):
            lu.solve(rng.normal(size=40) + 0j)


class TestLapackCalls:
    @pytest.mark.parametrize("n", [2, 8, 15])
    @pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)])
    def test_bit_equal_to_scipy_lu(self, shape, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(*shape, n, n)) + 1j * rng.normal(size=(*shape, n, n))
        b = rng.normal(size=(*shape, n)) + 1j * rng.normal(size=(*shape, n))
        lu, piv = scipy.linalg.lu_factor(a)
        got = LU(a)
        assert np.array_equal(got.factors[0], lu.reshape(-1, n, n))
        assert np.array_equal(got.factors[1], piv.reshape(-1, n))
        want = scipy.linalg.lu_solve((lu, piv), b[..., None])[..., 0]
        assert np.array_equal(got.solve(b), want)

    def test_exactly_singular_member_is_named(self):
        rng = np.random.default_rng(9)
        a = well_conditioned_stack(rng, (2, 3), 8)
        a[1, 2, :, 3] = 0.0  # elimination keeps the column zero: getrf reports U[3, 3] = 0
        with pytest.raises(SingularMatrixError, match=r"a\[1, 2\]") as err:
            LU(a)
        assert err.value.matrix_index == (1, 2)
        assert err.value.pivot_index == 3
        assert err.value.pivot_magnitude == 0.0

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError) as err:
            solve(np.zeros((3, 3)), np.ones(3))
        assert err.value.pivot_index == 0


class TestLapackPaths:
    """numpy's bundled OpenBLAS by default, scipy's LAPACK where numpy lacks it."""

    def test_import_loads_no_scipy_linalg(self):
        # a fresh process: pytest's warning filter has loaded scipy.linalg in this one
        code = "import sys, yprobe.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
        src = str(Path(yprobe.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    @pytest.mark.skipif(linalg._OPENBLAS is None, reason="numpy exports no zgetrf/zgetrs")
    @pytest.mark.parametrize("name,shared_rhs", [
        *((name, False) for name, pr in PRESETS.items() if "t_max" not in pr.grid),
        ("fig5b", True),  # a V stack with one right-hand side for all
    ])
    def test_scipy_fallback_is_bit_equal(self, monkeypatch, name, shared_rhs):
        lv = build_for(PRESETS[name].params)
        a = lv.m0 + 1j * np.linspace(-10.0, 10.0, 128)[:, None, None] * np.eye(lv.dim)
        rng = np.random.default_rng(len(name))
        b = rng.normal(size=(lv.dim if shared_rhs else (128, lv.dim))) + 1j
        lu = LU(a)
        x = lu.solve(b)
        monkeypatch.setattr(linalg, "_OPENBLAS", None)
        fallback = LU(a)
        assert np.array_equal(fallback.factors[0], lu.factors[0])
        assert np.array_equal(fallback.factors[1], lu.factors[1])
        assert np.array_equal(fallback.solve(b), x)
        assert np.array_equal(fallback.solve(x), lu.solve(x))
