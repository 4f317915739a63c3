import numpy as np
import pytest

from yprobe.linalg import LU, SingularMatrixError, solve


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

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
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
    """A matrix with pivots above PIVOT_RTOL but a residual far above RESIDUAL_RTOL."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q1 @ np.diag([1.0] * (n - 1) + [1e-12]) @ q2


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

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix_is_named(self):
        a = np.array([np.eye(2)] * 4, dtype=complex)
        a[2] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(SingularMatrixError, match=r"a\[2\]") as err:
            solve(a, np.ones(2))
        assert err.value.matrix_index == (2,)
        assert err.value.pivot_index == 1

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
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
        a = well_conditioned_stack(rng, (3,), 4)
        a[1] = near_singular(rng, 4)
        with pytest.raises(np.linalg.LinAlgError, match=r"a\[1\]: solve residual"):
            solve(a, np.ones(4))

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4), (1, 3, 4), ()])
    def test_stack_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="mismatch"):
            solve(np.array([np.eye(4)] * 3), np.ones(shape))

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
        a = well_conditioned_stack(rng, (3,), 4)
        a[1] = near_singular(rng, 4)
        # b = a @ 1 is solved accurately; its solution, as a new right-hand
        # side, brings out the near-singular direction of a[1]
        lu = LU(a)
        x = lu.solve((a @ np.ones((3, 4, 1)))[..., 0])
        with pytest.raises(np.linalg.LinAlgError, match=r"a\[1\]: solve residual"):
            lu.solve(x)
