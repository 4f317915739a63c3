import numpy as np
import pytest

from yprobe.linalg import SingularMatrixError, solve


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
