"""Geometric multigrid V-cycles on the interior-dof stiffness hierarchy.

The context assembles one stiffness and one mass matrix per hierarchy level,
restricts the mesh prolongations to interior dofs (restriction is exactly
the transpose, so coarse operators are the Galerkin products of fine ones on
nested spaces with matching quadrature) and inverts the coarsest stiffness
densely.  It also composes, once, the interior prolongation from the
coarsest level to every level, which spans the coarse part of the augmented
space of the eigenvalue correction step, and forms that space's two dense
Galerkin blocks ``P_k' A_k P_k`` and ``P_k' B_k P_k`` on every level, so a
correction step does no sparse-by-sparse product.  A V-cycle smooths,
restricts the residual, recurses with an exact solve at the bottom, corrects
and smooths again, on one vector or on all columns of an ``(n, q)`` block at
once.

The smoother is a Chebyshev polynomial of degree ``nu + 1`` in ``D^{-1} A``
on ``[lam/8, lam]`` (Adams, Brezina, Hu & Tuminaro, J. Comput. Phys. 188,
2003), with ``lam`` the Gershgorin bound of each level's ``D^{-1} A``.  It
takes no inner products, so the V-cycle from a zero guess is a fixed linear
symmetric operator.  A running counter accumulates smoothing work as sweeps
times level dofs, the machine-independent cost measure of the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .fem import CoefficientField, assemble_pencil, interior_dofmap
from .linalg import cholesky_dense
from .mesh import MeshHierarchy

__all__ = ["MGContext", "build_mg_context", "v_cycle", "mg_solve"]

#: Largest level-0 dof count :func:`build_mg_context` accepts.  Every
#: correction step solves a dense pencil of ``n_0 + q`` rows: a q=6 ``eigh``
#: took 0.71 s at 2025 dofs and 5.2 s at 3969 dofs on a 2-core host.  The
#: context also holds two dense ``n_0 x n_0`` blocks per level, 64 MB per
#: level at the cap.
MAX_COARSE_DOFS = 2000


@dataclass
class MGContext:
    """Per-level operators and transfer maps for the V-cycle.

    Immutable after construction apart from ``work_units``, the cumulative
    smoothing-work counter (``nu`` times columns times level dof count per
    smoothing).  ``inv_diag[k]`` is ``1 / diag(A_k)`` and ``lambda_max[k]``
    the Gershgorin bound ``max_i sum_j |a_ij| / a_ii`` of ``D_k^{-1} A_k``,
    the two things the Chebyshev smoother needs.  ``coarse_inverse`` is the
    dense inverse of the level-0 stiffness; unlike a triangular solve, its
    product with a block is fast on threaded BLAS.  ``coarse_stiffness[k]``
    and ``coarse_mass[k]`` are the dense ``n_0 x n_0`` blocks
    ``P_k' A_k P_k`` and ``P_k' B_k P_k`` with ``P_k =
    coarse_prolongation[k]``: the pencil of the coarse part of the
    augmented space, which depends only on the level.
    """

    stiffness: list
    mass: list
    transfer: list          # interior-restricted prolongation, level k -> k+1
    coarse_prolongation: list  # composed interior prolongation, level 0 -> k
    dofmaps: list           # interior vertex ids of each level, increasing
    nu: int
    inv_diag: list
    lambda_max: list
    coarse_inverse: np.ndarray
    coarse_stiffness: list  # dense P_k' A_k P_k of every level
    coarse_mass: list       # dense P_k' B_k P_k of every level
    work_units: float = 0.0

    @property
    def n_levels(self) -> int:
        return len(self.stiffness)

    def n_dofs(self, level: int) -> int:
        return self.stiffness[level].shape[0]

    def reset_work(self) -> None:
        self.work_units = 0.0


def build_mg_context(
    hierarchy: MeshHierarchy,
    coeff: CoefficientField,
    nu: int = 2,
    smoother: str = "chebyshev",  # the only smoother; perfbench/workloads.py passes it
) -> MGContext:
    """Assemble level matrices and transfer operators for ``hierarchy``.

    Interior-restricted transfers are obtained by deleting boundary rows and
    columns of the mesh prolongations; interior basis functions vanish on
    the boundary, so nothing is lost.  ``coarse_prolongation[k]`` is the
    product ``T_{k-1} ... T_0`` of the transfers ``T_j = transfer[j]``,
    formed coarse to fine (the identity at level 0).  A level 0 with more
    than :data:`MAX_COARSE_DOFS` dofs raises ``ValueError`` before assembly.
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
    pencils = [assemble_pencil(m, dm, coeff) for m, dm in zip(hierarchy.meshes, dofmaps)]
    stiffness, mass = map(list, zip(*pencils))
    transfer = [
        full[dofmaps[k + 1]][:, dofmaps[k]]
        for k, full in enumerate(hierarchy.prolongations)
    ]

    # P_1 = T_0 as is and P_k = T_{k-1} @ P_{k-1}; level 0 is the coarse space.
    coarse_prolongation = [sp.eye_array(len(dofmaps[0]), format="csr")]
    for k, op in enumerate(transfer):
        coarse_prolongation.append(op @ coarse_prolongation[k] if k else op)
    coarse_stiffness, coarse_mass = (
        [(p.T @ (m @ p)).toarray() for p, m in zip(coarse_prolongation, matrices)]
        for matrices in (stiffness, mass)
    )

    # Absolute row sums by reduceat: no stiffness row is empty (a_ii > 0).
    inv_diag = [1.0 / a.diagonal() for a in stiffness]
    lambda_max = [
        float((np.add.reduceat(np.abs(a.data), a.indptr[:-1]) * d).max(initial=0.0))
        for a, d in zip(stiffness, inv_diag)
    ]

    lower = cholesky_dense(stiffness[0].toarray())
    coarse_inverse = scipy.linalg.cho_solve((lower, True), np.eye(lower.shape[0]))
    return MGContext(
        stiffness, mass, transfer, coarse_prolongation, dofmaps, nu,
        inv_diag, lambda_max, coarse_inverse, coarse_stiffness, coarse_mass,
    )


def _smooth(ctx: MGContext, level: int, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Chebyshev smoothing of ``x`` (updated in place) towards ``A_k x = f``.

    Saad's three-term recurrence (Iterative Methods, Alg. 12.1) for
    ``D^{-1} A_k`` on ``[lam/8, lam]``: one residual, then ``nu`` updates of
    one product with ``A_k`` each, for a polynomial of degree ``nu + 1``.
    """
    matrix = ctx.stiffness[level]
    inv_diag = ctx.inv_diag[level] if f.ndim == 1 else ctx.inv_diag[level][:, None]
    theta = 9.0 / 16.0 * ctx.lambda_max[level]  # centre of the interval
    delta = 7.0 / 16.0 * ctx.lambda_max[level]  # half-width
    rho = delta / theta
    residual = f - matrix @ x
    step = (inv_diag / theta) * residual
    x += step
    for _ in range(ctx.nu):
        residual -= matrix @ step
        rho, rho_prev = 1.0 / (2.0 * theta / delta - rho), rho
        step *= rho * rho_prev
        step += (2.0 * rho / delta * inv_diag) * residual
        x += step
    ctx.work_units += ctx.nu * f.size
    return x


def v_cycle(ctx: MGContext, level: int, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One V-cycle for the level system, starting from iterate ``x``.

    ``f`` and ``x`` are vectors or ``(n, q)`` blocks of independent columns.
    At the coarsest level this is an exact dense solve.  The input arrays
    are not modified.
    """
    if not 0 <= level < ctx.n_levels:
        raise ValueError("level %d out of range 0..%d" % (level, ctx.n_levels - 1))
    f = np.asarray(f, dtype=float)
    if level == 0:
        return ctx.coarse_inverse @ f

    x = np.array(x, dtype=float)
    x = _smooth(ctx, level, f, x)
    residual = f - ctx.stiffness[level] @ x
    coarse_residual = ctx.transfer[level - 1].T @ residual
    correction = v_cycle(
        ctx, level - 1, coarse_residual, np.zeros_like(coarse_residual)
    )
    x = x + ctx.transfer[level - 1] @ correction
    return _smooth(ctx, level, f, x)


def mg_solve(
    ctx: MGContext, level: int, f: np.ndarray, x0: np.ndarray, m: int
) -> np.ndarray:
    """Apply ``m`` V-cycles starting from ``x0`` (a vector or a block).

    This is the approximate boundary-value solve the eigenvalue correction
    step performs with the scaled mass-weighted eigenvectors as right-hand
    sides and the current eigenvectors as initial guesses.
    """
    if m < 1:
        raise ValueError("m must be >= 1, got %r" % (m,))
    x = np.array(x0, dtype=float)
    for _ in range(m):
        x = v_cycle(ctx, level, f, x)
    return x
