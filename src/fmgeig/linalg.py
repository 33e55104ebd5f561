"""Dense and sparse symmetric linear algebra kernels.

Sparse operators are scipy CSR arrays (sorted indices, numerically
symmetric); vectors and dense matrices are plain ndarrays.  The module
provides the multigrid smoother, a fixed number of column-wise conjugate
gradient steps; the dense Cholesky factor of the coarsest stiffness; and
the generalized symmetric eigensolver of the coarse and augmented Ritz
problems, which delegates to LAPACK through :func:`scipy.linalg.eigh`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefiniteError

__all__ = [
    "cg_solve",
    "cholesky_dense",
    "generalized_eig_dense",
    "sign_fix",
]


def cg_solve(
    matrix, b: np.ndarray, x0: np.ndarray, steps: int
) -> tuple[np.ndarray, int]:
    """Run ``steps`` conjugate gradient iterations on an SPD system from ``x0``.

    This is the multigrid smoother.  ``b`` is a vector or an ``(n, q)``
    block iterated column-wise (not block CG): each column iterates as if
    solved alone and stops early only when its residual is exactly zero.
    The energy-norm error of each column is non-increasing over iterations.

    Returns
    -------
    (x, iterations)
        Final iterate and the iteration count summed over columns.

    Raises
    ------
    NotPositiveDefiniteError
        On breakdown ``p' M p <= 0`` in a column still iterating.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix/vector dimension mismatch")
    x = np.array(x0, dtype=float)

    # Column dots by einsum: multithreaded BLAS-1 is slow on short columns.
    r = b - matrix @ x
    rr = np.einsum("i...,i...->...", r, r)
    p = r.copy()
    iters = np.zeros(rr.shape, dtype=int)
    for _ in range(steps):
        live = rr > 0.0
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
    return x, int(iters.sum())


def cholesky_dense(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L`` with ``L L' = M`` for symmetric ``M``."""
    try:
        return np.linalg.cholesky(np.asarray(matrix, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("dense Cholesky failed: %s" % exc) from None


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
