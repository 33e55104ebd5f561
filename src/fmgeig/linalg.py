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
) -> tuple[np.ndarray, int, float]:
    """Conjugate gradients for symmetric positive definite systems.

    Iterates until the residual drops below ``tol`` times the initial
    residual ``|b - M x0|`` or ``max_iters`` is reached, whichever comes
    first; with ``tol = 0`` exactly ``max_iters`` iterations run, which is
    how the multigrid smoother uses it.  The energy-norm error is
    non-increasing over iterations.

    Returns
    -------
    (x, iterations, residual)
        Final iterate, iteration count and final residual 2-norm.

    Raises
    ------
    NotPositiveDefiniteError
        On breakdown ``p' M p <= 0`` for a nonzero search direction.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix/vector dimension mismatch")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if max_iters is None:
        max_iters = 10 * n

    r = b - matrix @ x
    rr = float(r @ r)
    ref = np.sqrt(rr)
    if ref == 0.0:
        return x, 0, 0.0
    threshold = (tol * ref) ** 2
    p = r.copy()
    iters = 0
    while iters < max_iters and rr > threshold:
        mp = matrix @ p
        pmp = float(p @ mp)
        if pmp <= 0.0:
            raise NotPositiveDefiniteError(
                "conjugate gradient breakdown: p'Mp = %g" % pmp
            )
        alpha = rr / pmp
        x += alpha * p
        r -= alpha * mp
        rr_next = float(r @ r)
        p = r + (rr_next / rr) * p
        rr = rr_next
        iters += 1
    return x, iters, float(np.sqrt(rr))


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
    for j in range(vectors.shape[1]):
        lead = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[lead, j] < 0.0:
            vectors[:, j] = -vectors[:, j]
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
