"""Dense and sparse symmetric linear algebra kernels.

Sparse operators are scipy CSR arrays (sorted indices, numerically
symmetric); vectors and dense matrices are plain ndarrays.  The module
provides the conjugate gradient solver that doubles as the multigrid
smoother, dense Cholesky solves, and the generalized symmetric eigensolver
of the coarse and augmented Ritz problems, which delegates to LAPACK
through :func:`scipy.linalg.eigh`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefiniteError

__all__ = [
    "cg_solve",
    "cholesky_dense",
    "cho_solve",
    "generalized_eig_dense",
    "sign_fix",
]


def cg_solve(
    matrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    max_iters: int | None = None,
    tol: float = 1e-10,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Conjugate gradients for symmetric positive definite systems.

    ``b`` is a vector or an ``(n, q)`` block solved column-wise (not block
    CG): each column iterates as if solved alone, until its residual drops
    below ``tol`` times its initial residual ``|b - M x0|`` or ``max_iters``
    is reached; with ``tol = 0`` exactly ``max_iters`` iterations run on
    every nonzero column, which is how the multigrid smoother uses it.  The
    energy-norm error of each column is non-increasing over iterations.

    Returns
    -------
    (x, iterations, residual)
        Final iterate, the iteration count summed over columns and the
        final residual 2-norm of each column.

    Raises
    ------
    NotPositiveDefiniteError
        On breakdown ``p' M p <= 0`` in a column still iterating.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix/vector dimension mismatch")
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if max_iters is None:
        max_iters = 10 * n

    # Column dots by einsum: multithreaded BLAS-1 is slow on short columns.
    r = b - matrix @ x
    rr = np.einsum("i...,i...->...", r, r)
    threshold = tol**2 * rr
    p = r.copy()
    iters = np.zeros(rr.shape, dtype=int)
    for _ in range(max_iters):
        live = rr > threshold
        if not live.any():
            break
        mp = matrix @ p
        pmp = np.einsum("i...,i...->...", p, mp)
        broken = live & (pmp <= 0.0)
        if broken.any():
            raise NotPositiveDefiniteError(
                "conjugate gradient breakdown: p'Mp = %g" % pmp[broken].min()
            )
        alpha = np.divide(rr, pmp, out=np.zeros_like(rr), where=live)
        x += alpha * p
        mp *= alpha
        r -= mp
        rr_next = np.einsum("i...,i...->...", r, r)
        p *= np.divide(rr_next, rr, out=np.zeros_like(rr), where=live)
        p += r
        rr = rr_next
        iters += live
    return x, int(iters.sum()), np.sqrt(rr)


def cholesky_dense(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L`` with ``L L' = M`` for symmetric ``M``."""
    try:
        return np.linalg.cholesky(np.asarray(matrix, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("dense Cholesky failed: %s" % exc) from None


def cho_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L' x = b`` from a dense lower Cholesky factor."""
    y = scipy.linalg.solve_triangular(lower, b, lower=True)
    return scipy.linalg.solve_triangular(lower, y, lower=True, trans="T")


def sign_fix(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each largest-magnitude entry is positive (in place)."""
    lead = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors


def generalized_eig_dense(
    a: np.ndarray, b: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``q`` smallest eigenpairs of ``A y = lambda B y`` for symmetric A, SPD B.

    Solved by LAPACK (:func:`scipy.linalg.eigh` restricted to the lowest
    ``q`` indices), so the returned vectors are B-orthonormal.  Eigenvalues
    come out ascending; ties keep LAPACK's output order.  Each vector is
    scaled so its largest-magnitude entry is positive.

    Raises
    ------
    NotPositiveDefiniteError
        When ``B`` is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError("A and B must be square with matching shape")
    if not 1 <= q <= n:
        raise ValueError("q must be in 1..%d, got %r" % (n, q))

    try:
        vals, vecs = scipy.linalg.eigh(a, b, subset_by_index=[0, q - 1])
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("generalized eigensolve failed: %s" % exc) from None
    return vals, sign_fix(vecs)
