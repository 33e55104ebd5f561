"""Dense symmetric linear algebra kernels.

Matrices are plain ndarrays.  The module provides the dense Cholesky
factor of mass Gram matrices, the column sign convention of eigenvector
blocks, the generalized symmetric eigensolver of the coarse and augmented
Ritz problems, which delegates to LAPACK through :func:`scipy.linalg.eigh`,
and a scope that runs the OpenBLAS builds of numpy and scipy on one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

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
    # Column-major, so that the reductions down the columns of a thin
    # row-major block run on contiguous memory: half the time at q=6.
    size = np.abs(vectors, order="F")
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


@functools.cache
def _openblas_controls() -> tuple:
    """``(get, set)`` thread-count functions of every OpenBLAS build mapped
    into the process (numpy and scipy each bundle their own), found once.

    A build is a library named ``*openblas*`` in ``/proc/self/maps`` that
    exports ``openblas_get_num_threads`` and ``openblas_set_num_threads``,
    with or without the ``scipy_`` prefix and the ``64_`` suffix of the
    bundled builds.  Empty where the file or the symbols are missing.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = dict.fromkeys(
        f[5].strip() for f in fields
        if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()
    )
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in (("", ""), ("scipy_", ""), ("", "64_"), ("scipy_", "64_")):
            get = getattr(lib, "%sopenblas_get_num_threads%s" % (prefix, suffix), None)
            put = getattr(lib, "%sopenblas_set_num_threads%s" % (prefix, suffix), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                controls.append((get, put))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every OpenBLAS build on one thread, and restore
    each build's thread count on exit, also when the block raises.

    After a threaded call an OpenBLAS worker busy-waits for more work, for
    about 0.12 s after a 49x49 ``dpotri`` on a 2-CPU host: thin dense
    products that OpenBLAS splits over two threads keep both CPUs busy, and
    the spin takes a CPU from the code that runs next.  The count is
    process-wide, so concurrent callers must take turns around the block.
    Does nothing when no build is found.
    """
    controls = _openblas_controls()
    counts = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, counts):
            put(count)
