import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import fmgeig as fg
from fmgeig.errors import NotPositiveDefiniteError
from fmgeig.linalg import cho_solve, pcg_solve


def random_spd(n, rng):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


class TestCG:
    def test_identity_converges_in_one_iteration(self):
        b = np.array([1.0, -2.0, 3.0])
        x, iters, _ = fg.cg_solve(sp.csr_array(sp.identity(3)), b)
        assert iters == 1
        assert np.abs(x - b).max() < 1e-15

    def test_exact_initial_guess(self):
        rng = np.random.default_rng(1)
        matrix = sp.csr_array(random_spd(6, rng))
        xstar = rng.standard_normal(6)
        x, iters, res = fg.cg_solve(matrix, matrix @ xstar, x0=xstar, tol=1e-10)
        assert iters == 0
        assert res == 0.0
        assert np.array_equal(x, xstar)

    def test_matches_dense_cholesky(self, small_ctx):
        # Level-1 model stiffness (49 dofs) against the dense factorization.
        matrix = small_ctx.stiffness[1]
        rng = np.random.default_rng(2)
        b = rng.standard_normal(matrix.shape[0])
        x, _, _ = fg.cg_solve(matrix, b, tol=1e-12, max_iters=10000)
        expected = cho_solve(fg.cholesky_dense(matrix.toarray()), b)
        assert np.abs(x - expected).max() < 1e-9

    def test_energy_error_monotone(self, small_ctx):
        matrix = small_ctx.stiffness[1]
        rng = np.random.default_rng(3)
        b = rng.standard_normal(matrix.shape[0])
        xstar = cho_solve(fg.cholesky_dense(matrix.toarray()), b)
        errors = []
        fg.cg_solve(
            matrix, b, tol=0.0, max_iters=60,
            callback=lambda x: errors.append(fg.norm_a(matrix, x - xstar)),
        )
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev * (1.0 + 1e-10) + 1e-13 * errors[0]

    def test_breakdown_on_indefinite(self):
        matrix = sp.csr_array(sp.diags([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            fg.cg_solve(matrix, np.array([0.0, 1.0]), tol=0.0, max_iters=5)

    def test_fixed_iteration_mode(self, small_ctx):
        matrix = small_ctx.stiffness[1]
        b = np.ones(matrix.shape[0])
        _, iters, _ = fg.cg_solve(matrix, b, tol=0.0, max_iters=3)
        assert iters == 3


class TestPCG:
    def test_jacobi_preconditioner(self, small_ctx):
        matrix = small_ctx.stiffness[1]
        rng = np.random.default_rng(4)
        b = rng.standard_normal(matrix.shape[0])
        inv_diag = 1.0 / matrix.diagonal()
        x, iters, _ = pcg_solve(
            matrix, b, precond=lambda r: inv_diag * r, tol=1e-12, max_iters=1000
        )
        expected = cho_solve(fg.cholesky_dense(matrix.toarray()), b)
        assert np.abs(x - expected).max() < 1e-9


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(fg.cholesky_dense(np.eye(4)), np.eye(4))

    def test_two_by_two_closed_form(self):
        lower = fg.cholesky_dense(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.array_equal(lower, np.array([[2.0, 0.0], [1.0, 2.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((20, 20))
        m = m.T @ m + np.eye(20)
        lower = fg.cholesky_dense(m)
        assert np.abs(lower @ lower.T - m).max() <= 1e-12

    def test_not_pd_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            fg.cholesky_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestGeneralizedEig:
    def test_diagonal_pencil(self):
        vals, vecs = fg.generalized_eig_dense(np.diag([1.0, 2.0, 3.0]), np.eye(3), 2)
        assert np.abs(vals - [1.0, 2.0]).max() < 1e-14
        assert np.abs(np.abs(vecs) - np.eye(3)[:, :2]).max() < 1e-12

    def test_proportional_pencil(self):
        rng = np.random.default_rng(9)
        b = random_spd(10, rng)
        vals, _ = fg.generalized_eig_dense(2.0 * b, b, 10)
        assert np.abs(vals - 2.0).max() < 1e-12

    def test_model_problem_residual(self, small_ctx, lam1_exact):
        a = small_ctx.stiffness[0].toarray()
        b = small_ctx.mass[0].toarray()
        vals, vecs = fg.generalized_eig_dense(a, b, 1)
        assert vals[0] >= lam1_exact
        residual = np.linalg.norm(a @ vecs[:, 0] - vals[0] * (b @ vecs[:, 0]))
        assert residual <= 1e-10 * np.abs(a).max()

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_residual_and_orthonormality_random(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(5, 30)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        b = random_spd(n, rng)
        q = int(rng.integers(1, n + 1))
        vals, vecs = fg.generalized_eig_dense(a, b, q)
        assert np.all(np.diff(vals) >= -1e-12)
        gram = vecs.T @ b @ vecs
        assert np.abs(gram - np.eye(q)).max() <= 1e-10
        for j in range(q):
            res = np.linalg.norm(a @ vecs[:, j] - vals[j] * (b @ vecs[:, j]))
            assert res <= 1e-10 * max(np.abs(a).max(), 1.0)

    @pytest.mark.parametrize("seed", [13, 14])
    def test_matches_scipy_eigh(self, seed):
        rng = np.random.default_rng(seed)
        n = 17
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        b = random_spd(n, rng)
        vals, _ = fg.generalized_eig_dense(a, b, n)
        expected = scipy.linalg.eigh(a, b, eigvals_only=True)
        assert np.abs(vals - expected).max() < 1e-9

    def test_sign_convention(self):
        rng = np.random.default_rng(16)
        a = random_spd(8, rng)
        _, vecs = fg.generalized_eig_dense(a, np.eye(8), 4)
        for j in range(4):
            lead = np.argmax(np.abs(vecs[:, j]))
            assert vecs[lead, j] > 0.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            fg.generalized_eig_dense(np.eye(3), np.eye(3), 4)

    def test_b_not_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            fg.generalized_eig_dense(np.eye(2), np.diag([1.0, -1.0]), 1)
