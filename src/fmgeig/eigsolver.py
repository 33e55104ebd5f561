"""Multilevel-correction eigensolver built on the V-cycle machinery.

The scheme reduces an elliptic eigenvalue solve to boundary-value solves:
starting from a dense eigensolve on the coarsest space, each finer level
improves the current eigenpairs by a handful of correction steps.  One
correction step runs ``m`` V-cycles on the auxiliary source problem

    A_k u_new = lambda_j * B_k u_j    (initial guess u_j)

for all tracked pairs at once, as one block of V-cycles, then solves a
small dense eigenproblem on the coarse space augmented with the smoothed
vectors and maps the Ritz pairs back to the fine level.  The cost is
dominated by the V-cycles, so the full sweep over levels is linear in the
finest dof count.

All operations keep the eigenvector blocks orthonormal in the mass inner
product and return eigenvalues in ascending order.  In each vector the first
entry within a relative 1e-8 of the largest magnitude is positive, a sign
convention that entries tied up to round-off cannot flip.
:func:`direct_fine_solve` provides an independent baseline: LOBPCG on the
fine-level pencil with one block V-cycle as preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ConvergenceError, DegenerateAugmentationError, SolverError
from .fem import CoefficientField
from .linalg import cholesky_dense, generalized_eig_dense, sign_fix
from .mesh import MeshHierarchy
from .multigrid import MGContext, build_mg_context, mg_solve, v_cycle

__all__ = [
    "EigenApprox",
    "SolverConfig",
    "b_orthonormalize",
    "coarse_eigensolve",
    "one_correction_step",
    "augmented_ritz",
    "full_multigrid",
    "direct_fine_solve",
]

#: Iteration cap of one LOBPCG call in :func:`direct_fine_solve` (converged
#: runs take 20-40 iterations on every level).
DIRECT_MAX_ITERS = 100
#: Smallest residual target :func:`~fmgeig.harness.run_study` accepts for the
#: baseline.  LOBPCG stops at 2e-14 to 4e-14 of max|A| on the model problem,
#: so a target of 1e-14 does all the work and then fails.
DIRECT_TOL_FLOOR = 1e-13
#: LOBPCG calls per :func:`direct_fine_solve`.  At tolerances of 1e-12 and
#: below, soft locking can stall a call above the target; a second call from
#: the returned block restarts the search directions and gets there.
DIRECT_ATTEMPTS = 2
#: Relative pivot threshold below which :func:`one_correction_step` drops
#: augmented-basis columns as numerically dependent.
GRAM_DROP_TOL = 1e-12


@dataclass
class EigenApprox:
    """A block of approximate eigenpairs living on one hierarchy level.

    ``eigenvalues`` ascend and ``vectors`` (one per column, interior dofs)
    are orthonormal in the level mass inner product.
    """

    level: int
    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def q(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass
class SolverConfig:
    """Algorithm knobs for the full multigrid eigenvalue scheme.

    q: number of eigenpairs tracked simultaneously.
    m: V-cycles per auxiliary boundary-value solve.
    p: correction steps per level.
    nu: smoothing steps before and after the coarse correction of each
        V-cycle: ``nu + 1`` products with A per smoothing (a Chebyshev
        polynomial of degree ``nu + 1``).

    The scheme starts with a dense eigensolve on the coarsest level, whose
    space also augments every correction step.
    """

    q: int = 1
    m: int = 2
    p: int = 2
    nu: int = 2
    smoother: ClassVar[str] = "chebyshev"  # read by perfbench/workloads.py only

    def __post_init__(self):
        for name in ("q", "m", "p", "nu"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1, got %r" % (name, getattr(self, name)))


def _gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left' right`` for thin ``(n, q)`` blocks.

    ``np.einsum`` without ``optimize`` runs its own single-threaded loops:
    on these shapes threaded BLAS costs more than it saves, and the sums do
    not depend on the thread count.
    """
    return np.einsum("ij,ik->jk", left, right)


def b_orthonormalize(mass, vectors: np.ndarray) -> np.ndarray:
    """Cholesky-QR in the mass inner product, run twice.

    Each pass factors the mass Gram matrix ``V'BV = L L'`` and replaces
    ``V`` by ``V L^{-T}``, applying the inverse of the small factor to the
    block.  The QR factor with positive diagonal is unique, so the result
    is the basis Gram-Schmidt would give (columns, in order; ``Q'BV`` is
    upper triangular with a positive diagonal); the second pass removes the
    loss of orthogonality the first leaves on ill-conditioned blocks.
    Raises :class:`SolverError` when the mass Gram matrix is non-finite or
    not numerically positive definite (e.g. a zero column).
    """
    out = np.asarray(vectors, dtype=float)
    for _ in range(2):
        gram = _gram(out, mass @ out)
        if not np.all(np.isfinite(gram)):
            raise SolverError("mass-orthonormalization hit a non-finite column")
        lower = cholesky_dense(gram)
        inverse = scipy.linalg.solve_triangular(lower, np.eye(lower.shape[0]), lower=True)
        out = np.einsum("ij,kj->ik", out, inverse)
    return out


def coarse_eigensolve(ctx: MGContext, q: int, level: int = 0) -> EigenApprox:
    """Dense solve of the level pencil for the ``q`` smallest eigenpairs."""
    a = ctx.stiffness[level]
    if q > a.shape[0]:
        raise ValueError(
            "q = %d exceeds the %d dofs of level %d" % (q, a.shape[0], level)
        )
    vals, vecs = generalized_eig_dense(
        a.toarray(), ctx.mass[level].toarray(), q
    )
    return EigenApprox(level, vals, vecs)


def augmented_ritz(
    a_aug: np.ndarray, b_aug: np.ndarray, q: int, drop_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-filtered dense solve of the augmented-space pencil.

    Diagonally pivoted Cholesky on ``b_aug`` (LAPACK ``dpstrf``) decides
    which basis columns are numerically dependent: it stops once the largest
    remaining pivot falls to ``drop_tol`` times the largest diagonal entry,
    and the columns not yet pivoted are removed before the eigensolve.
    Returns eigenvalues, eigenvectors in the retained basis, and the sorted
    indices of retained columns.
    """
    tol = drop_tol * float(b_aug.diagonal().max(initial=0.0))
    _, piv, rank, _ = scipy.linalg.lapack.dpstrf(b_aug, tol=tol)
    perm = piv - 1
    if rank < q:
        raise DegenerateAugmentationError(
            "augmented basis has numerical rank %d < q = %d" % (rank, q)
        )
    kept = np.sort(perm[:rank])
    if rank < b_aug.shape[0]:
        a_aug = a_aug[np.ix_(kept, kept)]
        b_aug = b_aug[np.ix_(kept, kept)]
    vals, vecs = generalized_eig_dense(a_aug, b_aug, q)
    return vals, vecs, kept


def one_correction_step(
    ctx: MGContext, approx: EigenApprox, config: SolverConfig
) -> EigenApprox:
    """Improve the eigenpairs on their level by one multigrid correction.

    ``m`` block V-cycles approximate the auxiliary source problems with
    right-hand sides ``lambda_j B u_j``; the coarse space plus the span of
    the smoothed vectors then yields new Ritz pairs.  Exact eigenpairs are a
    fixed point.  Raises :class:`SolverError` when the cycles increase the
    residual of any pair.
    """
    k = approx.level
    if k < 1:
        raise ValueError("correction requires a level above the coarsest, got %d" % k)
    a_k = ctx.stiffness[k]
    b_k = ctx.mass[k]

    rhs = (b_k @ approx.vectors) * approx.eigenvalues
    before = np.linalg.norm(rhs - a_k @ approx.vectors, axis=0)
    smoothed = mg_solve(ctx, k, rhs, approx.vectors, config.m)
    a_s = a_k @ smoothed
    after = np.linalg.norm(rhs - a_s, axis=0)
    floor = 1e-12 * np.linalg.norm(rhs, axis=0)
    diverged = np.flatnonzero(after > np.maximum(before * (1.0 + 1e-8), floor))
    if diverged.size:
        j = diverged[0]
        raise SolverError(
            "multigrid diverged on pair %d: residual %g -> %g" % (j, before[j], after[j])
        )

    # Augmented space: the coarse space, spanned by P = coarse_prolongation[k]
    # with its blocks P'AP and P'BP cached per level, plus the smoothed
    # vectors S.  The cross blocks are P'(AS) and P'(BS), so the step forms
    # only (n, q) products; the projected pencil is dense and small.
    prolong = ctx.coarse_prolongation[k]
    n_h = prolong.shape[1]
    b_s = b_k @ smoothed
    a_cross = prolong.T @ a_s
    b_cross = prolong.T @ b_s
    a_aug = np.block([[ctx.coarse_stiffness[k], a_cross], [a_cross.T, _gram(smoothed, a_s)]])
    b_aug = np.block([[ctx.coarse_mass[k], b_cross], [b_cross.T, _gram(smoothed, b_s)]])
    a_aug = 0.5 * (a_aug + a_aug.T)
    b_aug = 0.5 * (b_aug + b_aug.T)

    vals, ritz, kept = augmented_ritz(a_aug, b_aug, approx.q, GRAM_DROP_TOL)
    coef = np.zeros((a_aug.shape[0], approx.q))
    coef[kept] = ritz  # dropped basis columns get zero weight
    vectors = prolong @ coef[:n_h]
    vectors += np.einsum("ij,jk->ik", smoothed, coef[n_h:])

    vectors = b_orthonormalize(b_k, vectors)
    return EigenApprox(k, vals, sign_fix(vectors))


def full_multigrid(
    hierarchy: MeshHierarchy,
    coeff: CoefficientField,
    config: SolverConfig,
    ctx: MGContext | None = None,
    on_level=None,
) -> EigenApprox:
    """Run the full multilevel scheme and return the finest-level eigenpairs.

    Starts from a dense eigensolve on the coarsest level, then for every
    finer level prolongates the current block, re-orthonormalizes it in the
    mass inner product and applies ``config.p`` correction steps.
    ``on_level`` (if given) is called with the accepted :class:`EigenApprox`
    of each level, which is exactly what a run with fewer levels would
    return.  A caller-provided ``ctx`` is used as is (its smoothing count
    overrides ``config.nu``).
    """
    if ctx is None:
        ctx = build_mg_context(hierarchy, coeff, config.nu)

    approx = coarse_eigensolve(ctx, config.q)
    if on_level is not None:
        on_level(approx)
    for k in range(1, hierarchy.n_levels):
        vectors = ctx.transfer[k - 1] @ approx.vectors
        vectors = sign_fix(b_orthonormalize(ctx.mass[k], vectors))
        approx = EigenApprox(k, approx.eigenvalues.copy(), vectors)
        for _ in range(config.p):
            approx = one_correction_step(ctx, approx, config)
        if on_level is not None:
            on_level(approx)
    return approx


def direct_fine_solve(
    ctx: MGContext, q: int, tol: float, level: int | None = None
) -> EigenApprox:
    """Baseline solver: LOBPCG on the level pencil, preconditioned by one V-cycle.

    :func:`scipy.sparse.linalg.lobpcg` iterates a block of ``q + 2``
    columns (Knyazev 2001); the guard columns beyond ``q`` keep clustered
    eigenvalues converging at the rate of the next spectral gap.  The
    preconditioner, one V-cycle from a zero guess, is a fixed symmetric
    positive definite operator, as LOBPCG's theory assumes.  The
    starting block comes from a fixed seed, so results are reproducible.
    The returned pairs satisfy ``|A u - lambda B u| <= tol * max|A|``, or
    :class:`ConvergenceError` is raised after ``DIRECT_ATTEMPTS`` calls.
    A level with fewer than ``5 (q + 2)`` dofs, too small for the block
    iteration, is solved densely.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive, got %r" % (tol,))
    if level is None:
        level = ctx.n_levels - 1
    a = ctx.stiffness[level]
    b = ctx.mass[level]
    n = a.shape[0]
    if n < 5 * (q + 2):
        return coarse_eigensolve(ctx, q, level)
    a_scale = float(np.abs(a.data).max())

    block = np.random.default_rng(0).standard_normal((n, q + 2))
    for _ in range(DIRECT_ATTEMPTS):
        vals, block = scipy.sparse.linalg.lobpcg(
            a, block, B=b, M=lambda r: v_cycle(ctx, level, r, np.zeros_like(r)),
            tol=0.1 * tol * a_scale, maxiter=DIRECT_MAX_ITERS, largest=False,
        )
        order = np.argsort(vals)
        vals, block = vals[order], block[:, order]
        vecs = sign_fix(b_orthonormalize(b, block[:, :q]))
        residuals = np.linalg.norm(a @ vecs - (b @ vecs) * vals[:q], axis=0)
        worst = float(residuals.max())
        if worst <= tol * a_scale:
            return EigenApprox(level, vals[:q], vecs)
    raise ConvergenceError(
        "LOBPCG stopped at residual %g > tol %g (relative to max|A|)"
        % (worst / a_scale, tol)
    )
