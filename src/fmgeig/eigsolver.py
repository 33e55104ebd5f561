"""Multilevel-correction eigensolver built on the V-cycle machinery.

The scheme reduces an elliptic eigenvalue solve to boundary-value solves:
starting from a dense eigensolve on the coarsest space, each finer level
improves the current eigenpairs by a handful of correction steps.  One
correction step runs ``m`` V-cycles on the auxiliary source problem

    A_k u_new = lambda_j * B_k u_j    (initial guess u_j)

for all tracked pairs at once, as one block of V-cycles on the defects
``lambda_j B_k u_j - A_k u_j``, then solves a small dense eigenproblem on
the coarse space augmented with the smoothed vectors and maps the Ritz
pairs back to the fine level.  The cost is dominated by the V-cycles, so
the full sweep over levels is linear in the finest dof count.

Returned blocks are orthonormal in the mass inner product, with eigenvalues
in ascending order.  In each vector the first entry within a relative 1e-8
of the largest magnitude is positive, a sign convention that entries tied up
to round-off cannot flip.
:func:`direct_fine_solve` provides an independent baseline: a nested LOBPCG
sweep over the levels, preconditioned by one float32 block V-cycle.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import lobpcg

from .errors import ConvergenceError, DegenerateAugmentationError, SolverError
from .fem import CoefficientField
from .linalg import cholesky_dense, generalized_eig_dense, sign_fix
from .mesh import MeshHierarchy
from .multigrid import MGContext, _check_level, build_mg_context, mg_solve

__all__ = [
    "EigenApprox",
    "SolverConfig",
    "coarse_eigensolve",
    "one_correction_step",
    "augmented_ritz",
    "full_multigrid",
    "direct_fine_solve",
]

#: Iteration cap of one LOBPCG call in :func:`direct_fine_solve` (a sweep level
#: of the benchmark meshes takes 7-15 iterations at tol=1e-9, 11-23 at 1e-12).
DIRECT_MAX_ITERS = 100
#: Smallest residual target :func:`~fmgeig.harness.run_study` accepts for the
#: baseline.  LOBPCG can stall above 1e-13 of max|A| (1.7e-13 and 3.4e-13 on
#: benchmark meshes), so a smaller target may do all the work and then fail.
DIRECT_TOL_FLOOR = 1e-12
#: LOBPCG calls per :func:`direct_fine_solve`.  At tolerances of 1e-12 and
#: below, soft locking can stall a call above the target; a second call from
#: the returned block restarts the search directions and gets there.
DIRECT_ATTEMPTS = 2
#: Held around each LOBPCG call of :func:`direct_fine_solve`, which changes
#: the process-wide warning filters: the ``catch_warnings`` blocks of two
#: threads, interleaved, would leave one thread's filter installed for good.
_LOBPCG_LOCK = threading.Lock()
#: Relative pivot threshold below which :func:`one_correction_step` drops
#: augmented-basis columns as numerically dependent.
GRAM_DROP_TOL = 1e-12


@dataclass
class EigenApprox:
    """A block of approximate eigenpairs living on one hierarchy level.

    ``eigenvalues`` ascend and ``vectors`` hold one column per pair, on the
    interior dofs.  Every block the solvers return is orthonormal in the level
    mass inner product; :func:`one_correction_step` accepts any block of full
    rank.  ``work_units`` is the smoothing work spent on the block so far
    (see :meth:`~fmgeig.multigrid.MGContext.cycle_work`): cumulative over the
    levels of :func:`full_multigrid`, 0 for a dense solve.
    """

    level: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    work_units: float = 0.0

    @property
    def q(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass
class SolverConfig:
    """Algorithm knobs for the full multigrid eigenvalue scheme.

    q: number of eigenpairs tracked simultaneously.
    m: V-cycles per auxiliary boundary-value solve.  One is enough: a
        correction step reduces the error by a factor the coarse space sets
        (Lin & Xie, Math. Comp. 84, 2015), so its inner solve needs no more
        accuracy than one cycle gives.  On the 65k-dof benchmark problem
        (general, q=6) the algebraic error of the two finest levels is
        1.3e-5 of the discrete change between them with ``m=1`` and 9e-6
        with ``m=2``, while ``m=2, p=1`` leaves 9e-4: the second step does
        the work, not the second cycle, which costs a third of the solve.
    p: correction steps per level.
    nu: smoothing steps before and after the coarse correction of each
        V-cycle: ``nu + 1`` products with A per smoothing (a Chebyshev
        polynomial of degree ``nu + 1``).

    The scheme starts with a dense eigensolve on the coarsest level, whose
    space also augments every correction step.
    """

    q: int = 1
    m: int = 1
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


def _column_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean norm of every column of an ``(n, q)`` block, in one pass."""
    return np.sqrt(np.einsum("ij,ij->j", block, block))


def _prolongate(ctx: MGContext, block: np.ndarray, level: int) -> np.ndarray:
    """``block`` on level 0 interpolated to ``level`` through the transfers."""
    for op in ctx.transfer[:level]:
        block = op @ block
    return block


def _restrict(ctx: MGContext, block: np.ndarray, level: int) -> np.ndarray:
    """``P' block`` for the interpolation ``P`` from level 0 to ``level``,
    through the transposed transfers from fine to coarse."""
    for op in reversed(ctx.transfer[:level]):
        block = op.T @ block
    return block


def coarse_eigensolve(ctx: MGContext, q: int, level: int = 0) -> EigenApprox:
    """Dense solve of the level pencil for the ``q`` smallest eigenpairs."""
    _check_level(ctx, level)
    a, b = ctx.stiffness[level].toarray(), ctx.mass[level].toarray()
    return EigenApprox(level, *generalized_eig_dense(a, b, q))


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

    ``m`` block V-cycles on the defects of the auxiliary source problems,
    with right-hand sides ``lambda_j B u_j``, correct the ``u_j``; the coarse
    space plus the span of the smoothed vectors then yields new Ritz pairs.
    Exact eigenpairs are a fixed point.  The input block needs full rank,
    not orthonormality.  The Ritz vectors are mass-orthonormal up to
    round-off that the conditioning of the augmented mass matrix amplifies
    (``GRAM_DROP_TOL`` caps it), and one Cholesky-QR pass in the mass inner
    product removes that drift.
    The result's work is the input's plus that of the ``m`` cycles.
    Raises :class:`SolverError` when the cycles increase the residual of any
    pair or make it non-finite.
    """
    k = approx.level
    if k < 1:
        raise ValueError("correction requires a level above the coarsest, got %d" % k)
    a_k = ctx.stiffness[k]
    b_k = ctx.mass[k]

    rhs = (b_k @ approx.vectors) * approx.eigenvalues
    # The guard's "before" residual is also the right-hand side of the cycles.
    defect = rhs - a_k @ approx.vectors
    before = _column_norms(defect)
    smoothed = mg_solve(ctx, k, defect, config.m)
    smoothed += approx.vectors
    a_s = a_k @ smoothed
    after = _column_norms(rhs - a_s)
    floor = 1e-12 * _column_norms(rhs)
    # Negated so that a NaN residual counts as divergence.
    diverged = np.flatnonzero(~(after <= np.maximum(before * (1.0 + 1e-8), floor)))
    if diverged.size:
        j = diverged[0]
        raise SolverError(
            "multigrid diverged on pair %d: residual %g -> %g" % (j, before[j], after[j])
        )

    # Augmented space: the coarse space, spanned by the interpolation P of
    # the level-0 dofs, plus the smoothed vectors S.  P'AP and P'BP are
    # cached per level, and the cross blocks P'(AS) and P'(BS) are (n, q)
    # blocks restricted down the transfers, so P itself is never formed.
    # Two restrictions of (n, q) blocks measured faster than one of the
    # stacked (n, 2q) block [AS, BS], which also costs a copy.
    b_s = b_k @ smoothed
    a_cross, b_cross = _restrict(ctx, a_s, k), _restrict(ctx, b_s, k)
    n_h = ctx.n_dofs(0)
    a_aug = np.block([[ctx.coarse_stiffness[k], a_cross], [a_cross.T, _gram(smoothed, a_s)]])
    b_aug = np.block([[ctx.coarse_mass[k], b_cross], [b_cross.T, _gram(smoothed, b_s)]])
    a_aug = 0.5 * (a_aug + a_aug.T)
    b_aug = 0.5 * (b_aug + b_aug.T)

    vals, ritz, kept = augmented_ritz(a_aug, b_aug, approx.q, GRAM_DROP_TOL)
    coef = np.zeros((a_aug.shape[0], approx.q))
    coef[kept] = ritz  # dropped basis columns get zero weight
    vectors = _prolongate(ctx, coef[:n_h], k)
    vectors += np.einsum("ij,jk->ik", smoothed, coef[n_h:])

    # Cholesky-QR: V'BV = L L', then V <- V L^{-T} with the q x q inverse.
    lower = cholesky_dense(_gram(vectors, b_k @ vectors))
    inverse = scipy.linalg.solve_triangular(lower, np.eye(approx.q), lower=True)
    vectors = np.einsum("ij,kj->ik", vectors, inverse)
    work = approx.work_units + config.m * approx.q * ctx.cycle_work(k)
    return EigenApprox(k, vals, sign_fix(vectors), work)


def full_multigrid(
    hierarchy: MeshHierarchy,
    coeff: CoefficientField,
    config: SolverConfig,
    ctx: MGContext | None = None,
    on_level=None,
) -> EigenApprox:
    """Run the full multilevel scheme and return the finest-level eigenpairs.

    Starts from a dense eigensolve on the coarsest level, then for every
    finer level prolongates the current block and applies ``config.p``
    correction steps to it.
    ``on_level`` (if given) is called with the accepted :class:`EigenApprox`
    of each level, which is exactly what a run with fewer levels would
    return, its ``work_units`` included.  A caller-provided ``ctx`` is used
    as is (its smoothing count overrides ``config.nu``).
    """
    if ctx is None:
        ctx = build_mg_context(hierarchy, coeff, config.nu)

    approx = coarse_eigensolve(ctx, config.q)
    if on_level is not None:
        on_level(approx)
    for k in range(1, hierarchy.n_levels):
        vectors = ctx.transfer[k - 1] @ approx.vectors
        approx = EigenApprox(k, approx.eigenvalues.copy(), vectors, approx.work_units)
        for _ in range(config.p):
            approx = one_correction_step(ctx, approx, config)
        if on_level is not None:
            on_level(approx)
    return approx


def direct_fine_solve(
    ctx: MGContext, q: int, tol: float, level: int | None = None, on_level=None
) -> EigenApprox:
    """Baseline solver: one nested LOBPCG sweep from the coarsest level to ``level``.

    A level with fewer than ``5 (q + 2)`` dofs is solved densely, with no
    work (one with fewer than ``q`` is skipped unless it is ``level``).  On
    the others :func:`scipy.sparse.linalg.lobpcg` (Knyazev 2001) iterates a
    block of ``w`` columns started from the level below's, prolongated, so
    it only removes the error the refinement adds (Knyazev & Neymeyr, ETNA
    15, 2003).  The first block is the ``w`` lowest dense eigenvectors of
    the first level with ``q + 3`` dofs, and dense levels above pass up
    their own: the same functions whatever the vertex numbering, so the
    iteration does not depend on it.  LOBPCG stops only when every column
    has converged, at the rate of the gap after the block, so ``w`` in
    ``{q, q+1, q+2}`` minimises ``lambda_w / lambda_{w+1}`` of the first
    dense eigenvalues (the smallest ``w`` on ties).  The preconditioner, one
    float32 V-cycle from a zero guess (:func:`~fmgeig.multigrid.mg_solve`
    with ``m=1``), is symmetric positive definite up to round-off, as
    LOBPCG's theory assumes.  LOBPCG's target is ``tol * max|A|``, and the
    first ``q`` columns of its mass-orthonormal block, up to sign, must meet
    ``|A u - lambda B u| <= tol * max|A|``, or :class:`ConvergenceError`
    naming the level is raised after ``DIRECT_ATTEMPTS`` calls.  This check
    alone decides: the ``UserWarning`` of a call that stops above its target
    is ignored, which changes the process-wide warning filters while the
    call runs, so concurrent solves take turns at LOBPCG.  ``on_level`` (if
    given) gets each level's accepted :class:`EigenApprox`, exactly what a
    sweep ending there returns, with the work of the sweep so far: one cycle
    per column preconditioned.  No iterate comes from :func:`full_multigrid`.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive, got %r" % (tol,))
    if level is None:
        level = ctx.n_levels - 1
    _check_level(ctx, level)
    start = next((k for k in range(level + 1) if ctx.n_dofs(k) >= q + 3), level + 1)
    work = 0.0
    for k in range(level + 1):
        n = ctx.n_dofs(k)
        if n < q and k < level:
            continue  # too few dofs for q pairs
        if k == start:
            dense = coarse_eigensolve(ctx, q + 3, k)
            lam = dense.eigenvalues
            width = q + int(np.argmin(lam[q - 1 : q + 2] / lam[q : q + 3]))
            block = dense.vectors[:, :width]
        if n < 5 * (q + 2):
            approx = coarse_eigensolve(ctx, q, k)
            if k > start:
                block = coarse_eigensolve(ctx, width, k).vectors
        else:
            if k > start:
                block = ctx.transfer[k - 1] @ block
            approx, block = _lobpcg_level(ctx, k, block, q, tol, work)
            work = approx.work_units
        if on_level is not None:
            on_level(approx)
    return approx


def _lobpcg_level(
    ctx: MGContext, level: int, block: np.ndarray, q: int, tol: float, work: float
) -> tuple[EigenApprox, np.ndarray]:
    """One level of :func:`direct_fine_solve` from ``block``: its ``q`` pairs,
    with ``work`` plus this level's, and the whole converged block."""
    a, b = ctx.stiffness[level], ctx.mass[level]
    a_scale = float(np.abs(a.data).max())
    columns = 0

    def precondition(r):
        nonlocal columns
        columns += r.shape[1]
        return mg_solve(ctx, level, r, 1)

    for _ in range(DIRECT_ATTEMPTS):
        with _LOBPCG_LOCK, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            vals, block = lobpcg(
                a, block, B=b, M=precondition,
                tol=tol * a_scale, maxiter=DIRECT_MAX_ITERS, largest=False,
            )
        order = np.argsort(vals)
        vals, block = vals[order], block[:, order]
        vecs = sign_fix(block[:, :q].copy())
        residuals = np.linalg.norm(a @ vecs - (b @ vecs) * vals[:q], axis=0)
        worst = float(residuals.max())
        if worst <= tol * a_scale:
            return EigenApprox(level, vals[:q], vecs, work + columns * ctx.cycle_work(level)), block
    raise ConvergenceError(
        "LOBPCG stopped at residual %g > tol %g (relative to max|A|) on level %d"
        % (worst / a_scale, tol, level)
    )
