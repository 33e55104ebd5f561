"""Dense symmetric linear algebra kernels.

Matrices are plain ndarrays.  The module provides the dense Cholesky
factor of the coarsest stiffness and of mass Gram matrices, the column sign
convention of eigenvector blocks, and the generalized symmetric eigensolver
of the coarse and augmented Ritz problems, which delegates to LAPACK through
:func:`scipy.linalg.eigh`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefiniteError

__all__ = ["cholesky_dense", "generalized_eig_dense", "sign_fix"]


def cholesky_dense(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L`` with ``L L' = M`` for symmetric ``M``."""
    try:
        return np.linalg.cholesky(np.asarray(matrix, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("dense Cholesky failed: %s" % exc) from None


def sign_fix(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's leading entry is positive (in place).

    The leading entry is the first within a relative 1e-8 of the column's
    largest magnitude, so entries that tie up to round-off (mirror-symmetric
    meshes give them) cannot make the sign follow the summation order.
    """
    size = np.abs(vectors)
    lead = np.argmax(size >= (1.0 - 1e-8) * size.max(axis=0, initial=0.0), axis=0)
    vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors


def generalized_eig_dense(
    a: np.ndarray, b: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``q`` smallest eigenpairs of ``A y = lambda B y`` for symmetric A, SPD B.

    Solved by LAPACK (:func:`scipy.linalg.eigh` restricted to the lowest
    ``q`` indices), so the returned vectors are B-orthonormal.  Eigenvalues
    come out ascending; ties keep LAPACK's output order.  Each vector's sign
    follows :func:`sign_fix`.

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
        raise ValueError("q must be in 1..%d, the dofs of the pencil, got %r" % (n, q))

    try:
        vals, vecs = scipy.linalg.eigh(a, b, subset_by_index=[0, q - 1])
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("generalized eigensolve failed: %s" % exc) from None
    return vals, sign_fix(vecs)
