"""Geometric multigrid V-cycles on the interior-dof stiffness hierarchy.

The context assembles one stiffness and one mass matrix per hierarchy level,
restricts the mesh prolongations to interior dofs (restriction is exactly
the transpose, so coarse operators are the Galerkin products of fine ones on
nested spaces with matching quadrature) and inverts the coarsest stiffness
densely.  It also composes, once, the interior prolongation from the
coarsest level to every level, which spans the coarse part of the augmented
space of the eigenvalue correction step.  A V-cycle smooths, restricts the
residual, recurses with an exact solve at the bottom, corrects and smooths
again, on one vector or on all columns of an ``(n, q)`` block at once.

The smoother is a fixed number of column-wise block conjugate gradient
steps, which makes the cycle slightly nonlinear in the right-hand side.
A running counter accumulates smoothing work as sweeps times level dofs,
the machine-independent cost measure reported by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .fem import CoefficientField, assemble_pencil, interior_dofmap
from .linalg import cg_solve, cholesky_dense
from .mesh import MeshHierarchy

__all__ = ["MGContext", "build_mg_context", "v_cycle", "mg_solve"]

#: Largest level-0 dof count :func:`build_mg_context` accepts.  Every
#: correction step solves a dense pencil of ``n_0 + q`` rows: a q=6 ``eigh``
#: took 0.71 s at 2025 dofs and 5.2 s at 3969 dofs on a 2-core host.
MAX_COARSE_DOFS = 2000


@dataclass
class MGContext:
    """Per-level operators and transfer maps for the V-cycle.

    Immutable after construction apart from ``work_units``, the cumulative
    smoothing-work counter (column sweeps times level dof count).
    ``coarse_inverse`` is the dense inverse of the level-0 stiffness; unlike
    a triangular solve, its product with a block is fast on threaded BLAS.
    """

    stiffness: list
    mass: list
    transfer: list          # interior-restricted prolongation, level k -> k+1
    coarse_prolongation: list  # composed interior prolongation, level 0 -> k
    dofmaps: list           # interior vertex ids of each level, increasing
    nu: int
    coarse_inverse: np.ndarray
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
    smoother: str = "cg",  # only "cg"; perfbench/workloads.py still passes it
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
    if smoother != "cg":
        raise ValueError("unknown smoother %r, only 'cg' is available" % (smoother,))

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

    lower = cholesky_dense(stiffness[0].toarray())
    coarse_inverse = scipy.linalg.cho_solve((lower, True), np.eye(lower.shape[0]))
    return MGContext(
        stiffness, mass, transfer, coarse_prolongation, dofmaps, nu, coarse_inverse
    )


def _smooth(ctx: MGContext, level: int, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    matrix = ctx.stiffness[level]
    x, iters = cg_solve(matrix, f, x, ctx.nu)
    ctx.work_units += iters * matrix.shape[0]
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
