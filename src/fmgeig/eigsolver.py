"""Multilevel-correction eigensolver built on the V-cycle machinery.

The scheme reduces an elliptic eigenvalue solve to boundary-value solves:
starting from a dense eigensolve on the coarsest space, each finer level
improves the current eigenpairs by a handful of correction steps.  One
correction step runs ``m`` V-cycles on the auxiliary source problem

    A_k u_new = lambda_j * B_k u_j    (initial guess u_j)

for all tracked pairs at once, as one block of V-cycles on the defects
``lambda_j B_k u_j - A_k u_j``, then solves a small dense eigenproblem on
the coarse space augmented with the smoothed vectors and maps the Ritz
pairs back to the fine level, mass-orthonormal by a Cholesky-QR of the
small pencil.  The cost is dominated by the V-cycles, so the full sweep over
levels is linear in the finest dof count.

Both solvers run one nested sweep: one dense solve of level 0, whose lowest
eigenvalues also choose a block of ``q`` pairs plus up to two guard columns
that ends at a gap of the coarse spectrum, then on every finer level the
block below, prolongated, improved by the solver's own corrector: ``p``
correction steps in :func:`full_multigrid`, and LOBPCG preconditioned by one
float32 block V-cycle in the independent baseline :func:`direct_fine_solve`.
The sweep alone shapes their output: on each level it accepts the first
``q`` pairs of the improved block, mass-orthonormal with ascending
eigenvalues, and fixes the signs of a copy: in each vector the first entry
within a relative 1e-8 of the largest magnitude is positive, a convention
that entries tied up to round-off cannot flip.
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
from .linalg import _one_blas_thread, cholesky_dense, generalized_eig_dense, sign_fix
from .mesh import MeshHierarchy
from .multigrid import MGContext, _check_level, _residual, build_mg_context, mg_solve

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
#: Default baseline residual target of :func:`~fmgeig.harness.run_study` and the CLI.
DIRECT_TOL = 1e-9
#: Smallest residual target :func:`~fmgeig.harness.run_study` accepts for the
#: baseline.  LOBPCG can stall above 1e-13 of max|A| (1.7e-13 and 3.4e-13 on
#: benchmark meshes), so a smaller target may do all the work and then fail.
DIRECT_TOL_FLOOR = 1e-12
#: LOBPCG calls per :func:`direct_fine_solve`.  At tolerances of 1e-12 and
#: below, soft locking can stall a call above the target; a second call from
#: the returned block restarts the search directions and gets there.
DIRECT_ATTEMPTS = 2
#: Held around each LOBPCG call of :func:`direct_fine_solve`, which changes
#: two process-wide settings while it runs: the warning filters, where the
#: ``catch_warnings`` blocks of two threads, interleaved, would leave one
#: thread's filter installed for good, and the OpenBLAS thread count, which
#: two interleaved caps would leave at one thread.
_LOBPCG_LOCK = threading.Lock()
#: Relative pivot threshold below which :func:`augmented_ritz` drops
#: augmented-basis columns as numerically dependent.
GRAM_DROP_TOL = 1e-12
#: Rows per BLAS call of the thin block products of a correction step.  A
#: panel of up to 8 columns fits in L2, and OpenBLAS runs its product on one
#: thread (it threads a product only above 4 * 65536 multiply-adds).
_PANEL = 4096
#: Largest ``max_j |c_j|^2 max diag(B_aug)`` of a step's lift coefficients
#: ``c`` that the small-pencil Gram orthonormalizes alone (see
#: :func:`one_correction_step`).  It reads 1.0-1.66 on the benchmark
#: workloads, and 30 and 2.3e4 on near-dependent input blocks.
_LIFT_GUARD = 10.0


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
    """``left' right`` for thin ``(n, q)`` blocks, summed over row panels.

    Each panel of ``_PANEL`` rows is one single-threaded BLAS call, so the
    sums do not depend on the thread count: 0.3-0.5 ms at n = 65,025 and
    q = 6, against 2-3 ms for ``np.einsum`` (2-core host).  A one-column
    block goes to ``np.einsum``, twice as fast as 64 one-column BLAS calls.
    """
    if left.shape[1] == 1:
        return np.einsum("ij,ik->jk", left, right)
    out = np.zeros((left.shape[1], right.shape[1]))
    for start in range(0, left.shape[0], _PANEL):
        out += left[start : start + _PANEL].T @ right[start : start + _PANEL]
    return out


def _add_product(out: np.ndarray, block: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``out += block @ coef`` in place for a thin ``(n, r)`` block; returns ``out``.

    Row panels as in :func:`_gram`: OpenBLAS splits the whole-block
    ``(65025, 6) @ (6, 6)`` over two threads and took 32 ms for it.  A
    one-column block is a broadcast multiply, a third of the cost of BLAS.
    """
    if block.shape[1] == 1:
        out += block * coef
        return out
    for start in range(0, block.shape[0], _PANEL):
        out[start : start + _PANEL] += block[start : start + _PANEL] @ coef
    return out


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """``L^{-1}`` of a lower triangular ``L`` by LAPACK ``dtrtri``; a 6x6 solve
    against the identity took a median 8 ms on two OpenBLAS threads."""
    inverse, _ = scipy.linalg.lapack.dtrtri(lower, lower=1)
    return inverse


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


def _block_width(ctx: MGContext, q: int) -> tuple[int, EigenApprox]:
    """Columns ``w`` a solver tracks for ``q`` pairs, and the dense level-0
    pairs that chose it, whose first ``w`` start the sweep.

    ``w`` in ``{q, q+1, q+2}`` minimises ``lambda_w / lambda_{w+1}`` of the
    lowest ``min(q + 3, n_0)`` dense eigenvalues of level 0 (the smallest
    ``w`` on ties; ``w = q`` when ``n_0 = q``), so the block ends at the
    widest gap there and does not cut a cluster that ``q`` would (LOBPCG
    converges at the rate of the gap after its block).  Fewer than ``q``
    dofs raise ``ValueError``.
    """
    dense = coarse_eigensolve(ctx, min(q + 3, max(q, ctx.n_dofs(0))))
    lam = dense.eigenvalues
    return (q + int(np.argmin(lam[q - 1 : -1] / lam[q:])) if lam.size > q else q), dense


def _sweep(ctx: MGContext, q: int, last: int, improve, on_level) -> EigenApprox:
    """The nested sweep of both solvers, from level 0 up to ``last``.

    Level 0's block is the first ``w`` pairs of :func:`_block_width`'s dense
    solve; every finer level starts from the block below, prolongated
    through one transfer, with its eigenvalues and work.  On every level
    ``improve(block)`` returns the block to pass up; its first ``q`` pairs,
    sign-fixed on a copy, are the level's accepted :class:`EigenApprox`,
    given to ``on_level`` (if given).  The last level's is returned.
    """
    width, dense = _block_width(ctx, q)
    block = EigenApprox(0, dense.eigenvalues[:width], dense.vectors[:, :width])
    for k in range(last + 1):
        # Passed as a temporary, the prolongated block is freed once improve drops it.
        block = improve(block if k == 0 else EigenApprox(
            k, block.eigenvalues, ctx.transfer[k - 1] @ block.vectors, block.work_units
        ))
        vectors = sign_fix(block.vectors[:, :q].copy())
        accepted = EigenApprox(k, block.eigenvalues[:q], vectors, block.work_units)
        if on_level is not None:
            on_level(accepted)
    return accepted


def coarse_eigensolve(ctx: MGContext, q: int, level: int = 0) -> EigenApprox:
    """Dense solve of the level pencil for the ``q`` smallest eigenpairs."""
    _check_level(ctx, level)
    a, b = ctx.stiffness[level].toarray(), ctx.mass[level].toarray()
    return EigenApprox(level, *generalized_eig_dense(a, b, q))


def augmented_ritz(
    a_aug: np.ndarray, b_aug: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-filtered dense solve of the augmented-space pencil.

    Diagonally pivoted Cholesky on ``b_aug`` (LAPACK ``dpstrf``) decides
    which basis columns are numerically dependent: it stops once the largest
    remaining pivot falls to ``GRAM_DROP_TOL`` times the largest diagonal
    entry, and the columns not yet pivoted are removed before the eigensolve.
    Returns eigenvalues, eigenvectors in the retained basis, and the sorted
    indices of retained columns.
    """
    tol = GRAM_DROP_TOL * float(b_aug.diagonal().max(initial=0.0))
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
    not orthonormality.  The output block ``V = P c_P + S c_S`` is formed
    once, mass-orthonormal: a Cholesky-QR of the Ritz coefficients ``c`` in
    the small pencil's mass matrix, whose ``c' B_aug c`` is ``V' B_k V`` in
    exact arithmetic, is folded into ``c`` before the lift.  The lift
    carries round-off of the size of ``|c|^2 max diag(B_aug)`` times
    epsilon, which the conditioning of the augmented basis sets
    (``GRAM_DROP_TOL`` caps it); when that figure exceeds ``_LIFT_GUARD``,
    one Cholesky-QR pass on the fine Gram ``V' B_k V`` removes the drift.
    Column signs are those the lift leaves.  The result's work is the
    input's plus that of the ``m`` cycles.
    Raises :class:`SolverError` when the cycles increase the residual of any
    pair or make it non-finite.
    """
    k = approx.level
    if k < 1:
        raise ValueError("correction requires a level above the coarsest, got %d" % k)
    a_k = ctx.stiffness[k]
    b_k = ctx.mass[k]

    rhs = b_k @ approx.vectors
    rhs *= approx.eigenvalues
    # The guard's "before" residual is also the right-hand side of the cycles.
    defect = _residual(a_k, rhs, approx.vectors)
    before = _column_norms(defect)
    floor = 1e-12 * _column_norms(rhs)
    smoothed = mg_solve(ctx, k, defect, config.m)
    smoothed += approx.vectors
    a_s = a_k @ smoothed
    after = _column_norms(np.subtract(rhs, a_s, out=rhs))
    del rhs, defect
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
    del a_s, b_s
    a_aug = 0.5 * (a_aug + a_aug.T)
    b_aug = 0.5 * (b_aug + b_aug.T)

    vals, ritz, kept = augmented_ritz(a_aug, b_aug, approx.q)
    coef = np.zeros((a_aug.shape[0], approx.q))
    coef[kept] = ritz  # dropped basis columns get zero weight
    # Cholesky-QR on the small pencil, c' B_aug c = L L', with L^{-T} folded into c.
    coef = coef @ _lower_inverse(cholesky_dense(coef.T @ b_aug @ coef)).T
    vectors = _add_product(_prolongate(ctx, coef[:n_h], k), smoothed, coef[n_h:])
    if _column_norms(coef).max() ** 2 * b_aug.diagonal().max() > _LIFT_GUARD:
        # A near-dependent basis: remove the lift's round-off by V'B_kV.
        inverse = _lower_inverse(cholesky_dense(_gram(vectors, b_k @ vectors)))
        vectors = _add_product(np.zeros_like(vectors), vectors, inverse.T)
    work = approx.work_units + config.m * approx.q * ctx.cycle_work(k)
    return EigenApprox(k, vals, vectors, work)


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
    correction steps to it.  The block has ``w`` columns, ``q`` plus up to
    two guard columns that end it at the widest gap of the lowest dense
    eigenvalues of level 0 (see :func:`_block_width`), so a ``q`` that cuts
    a cluster does not lose a pair; the first ``q`` pairs are returned, and
    the work counts all ``w`` columns.
    ``on_level`` (if given) is called with the accepted :class:`EigenApprox`
    of each level, which is exactly what a run with fewer levels would
    return, its ``work_units`` included.  A given ``ctx`` decides the depth
    and the smoothing count (over ``config.nu``); ``hierarchy`` and
    ``coeff`` only build the context when none is given.
    """
    if ctx is None:
        ctx = build_mg_context(hierarchy, coeff, config.nu)

    def improve(block: EigenApprox) -> EigenApprox:
        for _ in range(config.p if block.level else 0):
            block = one_correction_step(ctx, block, config)
        return block

    return _sweep(ctx, config.q, ctx.n_levels - 1, improve, on_level)


def direct_fine_solve(
    ctx: MGContext, q: int, tol: float, level: int | None = None, on_level=None
) -> EigenApprox:
    """Baseline solver: one nested LOBPCG sweep from the coarsest level to ``level``.

    Level 0 is the dense solve of its lowest ``min(q + 3, n_0)`` pairs that
    also picks the block width ``w`` (see :func:`_block_width`).  Its ``w``
    eigenvectors are the same functions whatever the vertex numbering, so the
    iteration above does not depend on it.  On every finer level
    :func:`scipy.sparse.linalg.lobpcg` (Knyazev 2001) iterates the level
    below's block, prolongated, so it only removes the error the refinement
    adds (Knyazev & Neymeyr, ETNA 15, 2003); on a level with fewer than
    ``5 w`` dofs scipy solves densely instead, with no work.  The
    preconditioner, one float32 V-cycle from a zero guess
    (:func:`~fmgeig.multigrid.mg_solve` with ``m=1``), is symmetric positive
    definite up to round-off, as LOBPCG's theory assumes.  LOBPCG's target
    is ``tol * max|A|``.  On every level, level 0 included, the first ``q``
    columns of the mass-orthonormal block must meet
    ``|A u - lambda B u| <= tol * max|A|``, or :class:`ConvergenceError`
    naming the level is raised, above level 0 after ``DIRECT_ATTEMPTS``
    calls.  This check alone decides: LOBPCG's ``UserWarning`` (a call that
    stops above its target, a dense fallback) is ignored.

    Each LOBPCG call, preconditioner included, runs with the OpenBLAS builds
    of numpy and scipy on one thread: on two, its thin dense products keep a
    worker busy-waiting beside the solve (16,129 dofs, general, q=6: 0.47 to
    0.53 s on two threads, 0.16 to 0.19 s capped, 2-vCPU host).  The warning
    filters and the thread count are process-wide while a call runs, so
    concurrent solves take turns at LOBPCG.  ``on_level`` (if given) gets
    each level's accepted :class:`EigenApprox`, exactly what a sweep ending
    there returns, with the work of the sweep so far: one cycle per column
    preconditioned.  No iterate comes from :func:`full_multigrid`.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive, got %r" % (tol,))
    if level is None:
        level = ctx.n_levels - 1
    _check_level(ctx, level)
    return _sweep(ctx, q, level, lambda block: _lobpcg_level(ctx, block, q, tol), on_level)


def _lobpcg_level(ctx: MGContext, block: EigenApprox, q: int, tol: float) -> EigenApprox:
    """One level of :func:`direct_fine_solve` from ``block`` (on level 0, the
    dense block as it is): LOBPCG's block, once the residual of each of its
    first ``q`` pairs is at most ``tol * max|A|``."""
    k = block.level
    a, b = ctx.stiffness[k], ctx.mass[k]
    a_scale = float(max(a.data.max(), -a.data.min()))  # max|A| with no |A| copy
    work = block.work_units
    columns = 0

    def precondition(r):
        nonlocal columns
        columns += r.shape[1]
        return mg_solve(ctx, k, r, 1)

    for _ in range(DIRECT_ATTEMPTS if k else 1):
        if k:
            with _LOBPCG_LOCK, _one_blas_thread(), warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                vals, vectors = lobpcg(
                    a, block.vectors, B=b, M=precondition,
                    tol=tol * a_scale, maxiter=DIRECT_MAX_ITERS, largest=False,
                )
            order = np.argsort(vals)
            work_here = work + columns * ctx.cycle_work(k)
            block = EigenApprox(k, vals[order], vectors[:, order], work_here)
        vals, vecs = block.eigenvalues[:q], block.vectors[:, :q]
        worst = float(np.linalg.norm(a @ vecs - (b @ vecs) * vals, axis=0).max()) / a_scale
        if worst <= tol:  # false for a NaN residual
            return block
    raise ConvergenceError(
        "residual %g > tol %g (relative to max|A|) on level %d" % (worst, tol, k)
    )
