"""Geometric multigrid V-cycles on the interior-dof stiffness hierarchy.

The context assembles one stiffness and one mass matrix per hierarchy level,
builds the interior-dof transfers ``T_k`` from the coarse levels' edge tables
(restriction is exactly the transpose) and inverts the coarsest stiffness
densely.  Each level has its own midpoint rule, so ``T_k' A_{k+1} T_k`` is
``A_k`` only for constant coefficients: at level 0 they differ by 0 (model
problem, ``square:8``) to 8.7e-16 (seed-1 benchmark mesh) of ``max|A_0|``,
but by 1.1e-6 to 1.5e-6 for the general problem and by 13-15% where a
coefficient jump cuts a coarse cell.  The coarsest space, interpolated to
level ``k`` by ``P_k``, is the coarse part of the augmented space of the
eigenvalue correction step; the assembly of each level also returns that
space's dense Galerkin blocks ``P_k' A_k P_k`` and ``P_k' B_k P_k``, summed
from its element matrices with one exact table of coarse hat values, so
set-up forms no ``P_k`` and does no sparse-by-sparse product.  A V-cycle
smooths, restricts the residual, recurses with an exact solve at the
bottom, corrects and smooths again, on one vector or on all columns of an
``(n, q)`` block at once.

A solve starts from a zero guess; a solve from an iterate ``x`` is ``x``
plus a solve on the defect ``f - A_k x``.  :func:`mg_solve` is a float64
defect correction around float32 cycles on float32 copies of the operators,
which share the index arrays of the float64 ones: the cycles are bound by
the memory traffic of their sparse products, and float32 values halve it.
One such cycle is both the correction step's solve and LOBPCG's
preconditioner in the direct baseline.  The correction step only needs its
smoothed vectors to span a good space, so float32 round-off moves its
eigenvalues by about float32 epsilon times the algebraic error the step
leaves (Tamstorf, Benzaken & McCormick, SIAM J. Sci. Comput. 43, 2021).
With the default single cycle (``m=1``) there is no float64 correction of
the float32 cycle.  On the 961-dof general test hierarchy the eigenvalues
then drift from a float64 run by up to 4.3e-11 relative, about six float32
epsilons times the algebraic error of 6.6e-5; with ``m=2`` the drift is
1.8e-12, a third of an epsilon times it.

The smoother is a Chebyshev polynomial of degree ``nu + 1`` in ``D^{-1} A``
on ``[lam/8, lam]`` (Adams, Brezina, Hu & Tuminaro, J. Comput. Phys. 188,
2003), with ``lam`` the Gershgorin bound of each level's ``D^{-1} A``.  It
takes no inner products, so the V-cycle from a zero guess is a fixed linear
operator, symmetric up to float32 round-off.  The context is immutable:
solvers return their smoothing work (:meth:`MGContext.cycle_work`, sweeps
times level dofs: the harness's machine-independent cost) with their results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import CoefficientField, assemble_pencil, interior_dofmap
from .mesh import MeshHierarchy, _interpolation

__all__ = ["MGContext", "build_mg_context", "mg_solve"]

#: Largest level-0 dof count :func:`build_mg_context` accepts.  Every
#: correction step solves a dense pencil of ``n_0 + q`` rows: a q=6 ``eigh``
#: took 0.71 s at 2025 dofs and 5.2 s at 3969 dofs on a 2-core host.  The
#: context also holds two dense ``n_0 x n_0`` blocks per level, 64 MB per
#: level at the cap, and the float32 coarse inverse, 16 MB.
MAX_COARSE_DOFS = 2000


@dataclass(frozen=True)
class MGContext:
    """Per-level operators and transfer maps for the V-cycle (immutable).

    ``lambda_max[k]`` is the Gershgorin bound ``max_i sum_j |a_ij| / a_ii``
    of ``D_k^{-1} A_k``, the Chebyshev smoother's interval.
    ``coarse_stiffness[k]`` and ``coarse_mass[k]`` are the dense
    ``n_0 x n_0`` blocks ``P_k' A_k P_k`` and ``P_k' B_k P_k``, with ``P_k``
    the product ``transfer[k-1] ... transfer[0]`` (never formed): the pencil
    of the coarse part of the augmented space, which depends only on the
    level.

    The fields ending in ``32`` are what the float32 cycle reads: float32
    copies of the stiffness matrices and transfers, ``1 / diag(A_k)``, and
    the dense inverse of the level-0 stiffness (unlike a triangular solve,
    its product with a block is fast on threaded BLAS).  Each level's
    stiffness and mass, and the float32 stiffness, share one pair of CSR
    index arrays; each float32 transfer shares those of its float64
    transfer.  Every index array, the dof maps included, is int32.
    """

    stiffness: list
    mass: list
    transfer: list          # interior-restricted prolongation, level k -> k+1
    dofmaps: list           # interior vertex ids of each level, increasing
    nu: int
    lambda_max: list
    coarse_stiffness: list  # dense P_k' A_k P_k of every level
    coarse_mass: list       # dense P_k' B_k P_k of every level
    stiffness32: list
    transfer32: list
    inv_diag32: list
    coarse_inverse32: np.ndarray

    @property
    def n_levels(self) -> int:
        return len(self.stiffness)

    def n_dofs(self, level: int) -> int:
        return self.stiffness[level].shape[0]

    def cycle_work(self, level: int) -> int:
        """Smoothing work of one V-cycle from ``level`` on one column: two
        smoothings of ``nu`` counted products on every level above the
        coarsest (the residual products are not counted)."""
        return 2 * self.nu * sum(self.n_dofs(k) for k in range(1, level + 1))


def build_mg_context(
    hierarchy: MeshHierarchy,
    coeff: CoefficientField,
    nu: int = 2,
    smoother: str = "chebyshev",  # the only smoother; perfbench/workloads.py passes it
) -> MGContext:
    """Assemble level matrices and transfer operators for ``hierarchy``.

    Each transfer interpolates a level's interior dofs onto the next's, read
    off the coarse level's edge table: the mesh prolongation less its
    boundary rows and columns (interior basis functions vanish there), never
    formed.  The coarse blocks of every level come from its assembly
    (:func:`~fmgeig.fem.assemble_pencil` with the coarse mesh) as sums of
    its element matrices; on level 0 they are its own matrices, bit for bit.
    A level 0 with more than :data:`MAX_COARSE_DOFS` dofs raises
    ``ValueError`` before assembly.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1, got %r" % (nu,))
    if smoother != "chebyshev":
        raise ValueError("unknown smoother %r, only 'chebyshev' is available" % (smoother,))

    dofmaps = [interior_dofmap(mesh) for mesh in hierarchy.meshes]
    if len(dofmaps[0]) > MAX_COARSE_DOFS:
        raise ValueError(
            "coarse mesh has %d interior dofs, above the dense-solve cap %d"
            % (len(dofmaps[0]), MAX_COARSE_DOFS)
        )
    coarse = (hierarchy.meshes[0], dofmaps[0])
    pencils = (assemble_pencil(m, d, coeff, coarse) for m, d in zip(hierarchy.meshes, dofmaps))
    stiffness, mass, coarse_stiffness, coarse_mass = map(list, zip(*pencils))
    transfer = [
        _interpolation(mesh, dofmaps[k], dofmaps[k + 1])
        for k, mesh in enumerate(hierarchy.meshes[:-1])
    ]

    inv_diag = [1.0 / a.diagonal() for a in stiffness]
    # Every row holds its diagonal, so no row of the CSR data is empty.
    lambda_max = [
        float((np.add.reduceat(np.abs(a.data), a.indptr[:-1]) * d).max(initial=0.0))
        for a, d in zip(stiffness, inv_diag)
    ]

    # np.linalg.inv keeps OpenBLAS on one thread for a coarse matrix; scipy's
    # dpotri, inv and solves against the identity wake a worker that then
    # busy-waits through the start of the next solve (about 20 ms of CPU in
    # a 20 ms sleep after a 49x49 dpotri, 0.1 ms after np.linalg.inv).  The
    # symmetrized inverse rounds to dpotri's float32 entries on the
    # benchmark's coarse meshes.
    inverse = np.linalg.inv(coarse_stiffness[0])
    coarse_inverse = np.asfortranarray(0.5 * (inverse + inverse.T))
    return MGContext(
        stiffness, mass, transfer, dofmaps, nu, lambda_max, coarse_stiffness, coarse_mass,
        [_float32_values(a) for a in stiffness],
        [_float32_values(t) for t in transfer],
        [d.astype(np.float32) for d in inv_diag],
        coarse_inverse.astype(np.float32),
    )


def _float32_values(matrix: sp.csr_array) -> sp.csr_array:
    """``matrix`` with float32 values on its own index arrays (shared, not copied)."""
    return sp.csr_array(
        (matrix.data.astype(np.float32), matrix.indices, matrix.indptr), shape=matrix.shape
    )


def _smooth(ctx: MGContext, level: int, f: np.ndarray, x: np.ndarray | None) -> np.ndarray:
    """Chebyshev smoothing of ``x`` towards ``A_k x = f`` on the float32 operators.

    Saad's three-term recurrence (Iterative Methods, Alg. 12.1) for
    ``D^{-1} A_k`` on ``[lam/8, lam]``: one residual, then ``nu`` updates of
    one product with ``A_k`` each, for a polynomial of degree ``nu + 1``.
    ``x`` is updated in place; ``None``, the cycle's pre-smoothing guess,
    stands for zero, whose residual is ``f`` itself: it costs no product.
    """
    matrix = ctx.stiffness32[level]
    inv_diag = ctx.inv_diag32[level] if f.ndim == 1 else ctx.inv_diag32[level][:, None]
    theta = 9.0 / 16.0 * ctx.lambda_max[level]  # centre of the interval
    delta = 7.0 / 16.0 * ctx.lambda_max[level]  # half-width
    rho = delta / theta
    residual = f.copy() if x is None else _residual(matrix, f, x)
    step = (inv_diag / theta) * residual
    x = step.copy() if x is None else np.add(x, step, out=x)
    for _ in range(ctx.nu):
        product = matrix @ step
        residual -= product
        rho, rho_prev = 1.0 / (2.0 * theta / delta - rho), rho
        step *= rho * rho_prev
        step += np.multiply(2.0 * rho / delta * inv_diag, residual, out=product)
        x += step
    return x


def _cycle(ctx: MGContext, level: int, f: np.ndarray) -> np.ndarray:
    """The V-cycle recursion from a zero guess on a float32 ``f``."""
    if level == 0:
        return ctx.coarse_inverse32 @ f
    x = _smooth(ctx, level, f, None)
    transfer = ctx.transfer32[level - 1]
    x += transfer @ _cycle(ctx, level - 1, transfer.T @ _residual(ctx.stiffness32[level], f, x))
    return _smooth(ctx, level, f, x)


def _residual(matrix: sp.csr_array, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``f - matrix @ x``, formed in the buffer of the product."""
    product = matrix @ x
    return np.subtract(f, product, out=product)


def mg_solve(ctx: MGContext, level: int, f: np.ndarray, m: int) -> np.ndarray:
    """Apply ``m`` mixed-precision V-cycles from a zero guess (a vector or a block).

    The first cycle is one float32 V-cycle on ``f``.  Each further cycle
    forms the defect ``f - A_k x`` in float64 and adds a float32 cycle on it
    to ``x`` (defect correction), so the iterate and its defects keep
    float64 accuracy.  With ``m=1``, the correction step's default, the
    solve forms no float64 product.  This is the approximate
    boundary-value solve of the eigenvalue correction step, which passes
    the defect of its current vectors as ``f``; with ``m=1`` it is also
    LOBPCG's preconditioner in the direct baseline.  At the coarsest level
    a cycle is a dense solve with the float32 inverse.
    """
    if m < 1:
        raise ValueError("m must be >= 1, got %r" % (m,))
    if not 0 <= level < ctx.n_levels:
        raise ValueError("level %d out of range 0..%d" % (level, ctx.n_levels - 1))
    f = np.asarray(f, dtype=float)
    x = _cycle(ctx, level, f.astype(np.float32)).astype(float)
    for _ in range(m - 1):
        x += _cycle(ctx, level, _residual(ctx.stiffness[level], f, x).astype(np.float32))
    return x
