"""Multilevel-correction eigensolver built on the V-cycle machinery.

The scheme reduces an elliptic eigenvalue solve to boundary-value solves:
starting from a dense eigensolve on the coarsest space, each finer level
improves the current eigenpairs by a handful of correction steps.  One
correction step runs ``m`` V-cycles on the auxiliary source problem

    A_k u_new = lambda_j * B_k u_j    (initial guess u_j)

for every tracked pair, then solves a small dense eigenproblem on the
coarse space augmented with the smoothed vectors and maps the Ritz pairs
back to the fine level.  The cost is dominated by the V-cycles, so the full
sweep over levels is linear in the finest dof count.

All operations keep the eigenvector blocks orthonormal in the mass inner
product and return eigenvalues in ascending order with a deterministic sign
convention.  :func:`direct_fine_solve` provides an independent baseline:
block inverse iteration with multigrid-preconditioned CG inner solves and a
Rayleigh-Ritz projection per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DegenerateAugmentationError, SolverError
from .fem import CoefficientField
from .linalg import cholesky_dense, generalized_eig_dense, pcg_solve, sign_fix
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
    nu: pre- and post-smoothing steps inside each V-cycle.
    coarse_index: hierarchy level whose space augments the small eigensolve.
    first_level: level of the initial dense eigensolve (defaults to
        ``coarse_index``; set higher to start finer than the augmentation
        space).
    gram_drop_tol: relative pivot threshold below which augmented-basis
        columns are dropped as numerically dependent.
    """

    q: int = 1
    m: int = 2
    p: int = 2
    nu: int = 2
    coarse_index: int = 0
    first_level: int | None = None
    gram_drop_tol: float = 1e-12
    smoother: str = "cg"

    def __post_init__(self):
        for name in ("q", "m", "p", "nu"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1, got %r" % (name, getattr(self, name)))
        if self.coarse_index < 0:
            raise ValueError("coarse_index must be >= 0")
        if self.first_level is not None and self.first_level < self.coarse_index:
            raise ValueError("first_level must not precede coarse_index")
        if self.gram_drop_tol <= 0.0:
            raise ValueError("gram_drop_tol must be positive")

    @property
    def start_level(self) -> int:
        return self.coarse_index if self.first_level is None else self.first_level


def b_orthonormalize(mass, vectors: np.ndarray) -> np.ndarray:
    """Cholesky-QR in the mass inner product, run twice.

    Each pass factors the mass Gram matrix ``V'BV = L L'`` and replaces
    ``V`` by ``V L^{-T}``.  The QR factor with positive diagonal is unique,
    so the result is the basis Gram-Schmidt would give (columns, in order);
    the second pass removes the loss of orthogonality the first leaves on
    ill-conditioned blocks.  Raises :class:`SolverError` when the mass Gram
    matrix is non-finite or not numerically positive definite (e.g. a zero
    column).
    """
    out = np.asarray(vectors, dtype=float)
    for _ in range(2):
        gram = out.T @ (mass @ out)
        if not np.all(np.isfinite(gram)):
            raise SolverError("mass-orthonormalization hit a non-finite column")
        lower = cholesky_dense(gram)
        out = scipy.linalg.solve_triangular(lower, out.T, lower=True).T
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

    For each pair, ``m`` V-cycles approximate the auxiliary source problem
    with right-hand side ``lambda_j B u_j``; the coarse space plus the span
    of the smoothed vectors then yields new Ritz pairs.  Exact eigenpairs
    are a fixed point.
    """
    k = approx.level
    if k <= config.coarse_index:
        raise ValueError(
            "correction requires a level above coarse_index %d, got %d"
            % (config.coarse_index, k)
        )
    a_k = ctx.stiffness[k]
    b_k = ctx.mass[k]
    q = approx.q

    smoothed = np.empty_like(approx.vectors)
    for j in range(q):
        rhs = approx.eigenvalues[j] * (b_k @ approx.vectors[:, j])
        before = float(np.linalg.norm(rhs - a_k @ approx.vectors[:, j]))
        smoothed[:, j] = mg_solve(ctx, k, rhs, approx.vectors[:, j], config.m)
        after = float(np.linalg.norm(rhs - a_k @ smoothed[:, j]))
        floor = 1e-12 * float(np.linalg.norm(rhs))
        if after > max(before * (1.0 + 1e-8), floor):
            raise SolverError(
                "multigrid diverged on pair %d: residual %g -> %g" % (j, before, after)
            )

    # Basis of the augmented space: composed coarse prolongation plus the
    # smoothed vectors.  The projected pencil is dense and small.
    prolong = _interior_prolongation(ctx, config.coarse_index, k)
    ap = a_k @ prolong
    bp = b_k @ prolong
    n_h = prolong.shape[1]
    dim = n_h + q
    a_aug = np.empty((dim, dim))
    b_aug = np.empty((dim, dim))
    a_aug[:n_h, :n_h] = (prolong.T @ ap).toarray()
    b_aug[:n_h, :n_h] = (prolong.T @ bp).toarray()
    a_aug[:n_h, n_h:] = ap.T @ smoothed
    b_aug[:n_h, n_h:] = bp.T @ smoothed
    a_aug[n_h:, :n_h] = a_aug[:n_h, n_h:].T
    b_aug[n_h:, :n_h] = b_aug[:n_h, n_h:].T
    a_aug[n_h:, n_h:] = smoothed.T @ (a_k @ smoothed)
    b_aug[n_h:, n_h:] = smoothed.T @ (b_k @ smoothed)
    a_aug = 0.5 * (a_aug + a_aug.T)
    b_aug = 0.5 * (b_aug + b_aug.T)

    vals, ritz, kept = augmented_ritz(a_aug, b_aug, q, config.gram_drop_tol)
    kept_coarse = kept[kept < n_h]
    kept_smoothed = kept[kept >= n_h] - n_h
    split = kept_coarse.shape[0]
    vectors = prolong[:, kept_coarse] @ ritz[:split]
    vectors += smoothed[:, kept_smoothed] @ ritz[split:]

    vectors = b_orthonormalize(b_k, vectors)
    return EigenApprox(k, vals, sign_fix(vectors))


def _interior_prolongation(ctx: MGContext, start: int, stop: int):
    op = ctx.transfer[start]
    for k in range(start + 1, stop):
        op = ctx.transfer[k] @ op
    return op


def full_multigrid(
    hierarchy: MeshHierarchy,
    coeff: CoefficientField,
    config: SolverConfig,
    ctx: MGContext | None = None,
    on_level=None,
) -> EigenApprox:
    """Run the full multilevel scheme and return the finest-level eigenpairs.

    Starts from a dense eigensolve on the coarse space, then for every finer
    level prolongates the current block, re-orthonormalizes it in the mass
    inner product and applies ``config.p`` correction steps.  ``on_level``
    (if given) is called with the accepted :class:`EigenApprox` of each
    level, which is exactly what a run with fewer levels would return.
    A caller-provided ``ctx`` is used as is (its smoother and smoothing
    count override the config's).
    """
    n = hierarchy.n_levels
    start = config.start_level
    if start >= n:
        raise ValueError("start level %d outside hierarchy of %d levels" % (start, n))
    if ctx is None:
        ctx = build_mg_context(hierarchy, coeff, config.nu, config.smoother)

    approx = coarse_eigensolve(ctx, config.q, level=start)
    if on_level is not None:
        on_level(approx)
    for k in range(start + 1, n):
        vectors = ctx.transfer[k - 1] @ approx.vectors
        vectors = sign_fix(b_orthonormalize(ctx.mass[k], vectors))
        approx = EigenApprox(k, approx.eigenvalues.copy(), vectors)
        for _ in range(config.p):
            approx = one_correction_step(ctx, approx, config)
        if on_level is not None:
            on_level(approx)
    return approx


def direct_fine_solve(
    ctx: MGContext,
    q: int,
    tol: float,
    level: int | None = None,
    max_sweeps: int = 200,
    seed: int | None = 0,
) -> EigenApprox:
    """Baseline solver: block inverse iteration with Rayleigh-Ritz extraction.

    Each sweep solves ``A y = B x`` per block column with conjugate
    gradients preconditioned by one V-cycle, projects the pencil onto the
    block span and rotates to Ritz vectors.  Iteration stops once every
    tracked residual satisfies ``|A u - lambda B u| <= tol * max|A|`` and
    the eigenvalues have stagnated to within ``tol`` relative.

    A couple of guard columns beyond ``q`` keep clustered eigenvalues
    converging at the rate of the next spectral gap.  ``seed=None`` draws
    the starting block from fresh entropy instead of the fixed seed.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if level is None:
        level = ctx.n_levels - 1
    a = ctx.stiffness[level]
    b = ctx.mass[level]
    n = a.shape[0]
    if q > n:
        raise ValueError("q = %d exceeds the %d dofs of level %d" % (q, n, level))
    block = min(n, q + 2)
    a_scale = float(np.abs(a.data).max())

    rng = np.random.default_rng(seed)
    block_vecs = b_orthonormalize(b, rng.standard_normal((n, block)))
    vals = np.array([float(v @ (a @ v)) for v in block_vecs.T])

    precond = lambda r: v_cycle(ctx, level, r, np.zeros_like(r))
    inner_tol = 1e-2
    for _ in range(max_sweeps):
        solved = np.empty_like(block_vecs)
        for j in range(block):
            rhs = b @ block_vecs[:, j]
            guess = block_vecs[:, j] / vals[j] if vals[j] > 0.0 else None
            solved[:, j], _, _ = pcg_solve(
                a, rhs, x0=guess, precond=precond, max_iters=100, tol=inner_tol
            )
        basis = b_orthonormalize(b, solved)
        small_a = basis.T @ (a @ basis)
        small_b = basis.T @ (b @ basis)
        new_vals, ritz = generalized_eig_dense(
            0.5 * (small_a + small_a.T), 0.5 * (small_b + small_b.T), block
        )
        block_vecs = basis @ ritz

        residuals = np.empty(q)
        for j in range(q):
            u = block_vecs[:, j]
            residuals[j] = np.linalg.norm(a @ u - new_vals[j] * (b @ u))
        stagnated = np.all(
            np.abs(new_vals[:q] - vals[:q]) <= tol * np.abs(new_vals[:q])
        )
        vals = new_vals
        worst = float(residuals.max()) / a_scale
        if worst <= tol and stagnated:
            out = b_orthonormalize(b, block_vecs[:, :q])
            return EigenApprox(level, vals[:q].copy(), sign_fix(out))
        inner_tol = max(min(1e-2, 0.1 * worst), 0.05 * tol)

    raise ConvergenceError(
        "inverse iteration did not reach tol %g in %d sweeps" % (tol, max_sweeps)
    )
