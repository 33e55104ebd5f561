"""P1 finite element assembly of the stiffness and mass bilinear forms.

Discretizes problems of the form

    -div(A grad u) + phi u = lambda rho u  in the domain,  u = 0 on the boundary,

with continuous piecewise-linear elements on triangles.  Dirichlet
conditions are imposed by elimination: matrices are built over interior
vertices only (pass ``dofmap=None`` to obtain the full pre-elimination
matrix), which keeps them symmetric positive definite.

Quadrature is the 3-point edge-midpoint rule, exact for quadratics, hence
exact for every constant-coefficient term with P1 bases and accurate enough
to preserve second-order eigenvalue convergence for smooth coefficients.
Element matrices are mirrored from one accumulator and summed in a fixed
order, so assembled matrices are exactly symmetric and runs are bit
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, NotPositiveDefiniteError
from .mesh import Mesh

__all__ = [
    "CoefficientField",
    "DofMap",
    "laplace_coefficients",
    "interior_dofmap",
    "assemble_stiffness",
    "assemble_mass",
    "interpolate",
    "norm_a",
]

# Hat function values at the edge midpoints (m01, m12, m20) of a triangle.
_MIDPOINT_BASIS = np.array(
    [
        [0.5, 0.0, 0.5],
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
    ]
)


@dataclass(frozen=True)
class CoefficientField:
    """Problem data as vectorized functions of position.

    ``a(x, y)`` returns the symmetric positive definite diffusion tensor,
    either a constant ``(2, 2)`` array or one tensor per point with shape
    ``(n, 2, 2)``.  ``phi(x, y)`` (nonnegative reaction) and ``rho(x, y)``
    (positive mass weight) return scalars or arrays of shape ``(n,)``.
    Inputs are 1D coordinate arrays.
    """

    a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rho: Callable[[np.ndarray, np.ndarray], np.ndarray]


def laplace_coefficients() -> CoefficientField:
    """Constant-coefficient field A = I, phi = 0, rho = 1 (Dirichlet Laplacian)."""
    eye = np.eye(2)
    return CoefficientField(
        a=lambda x, y: eye,
        phi=lambda x, y: 0.0,
        rho=lambda x, y: 1.0,
    )


@dataclass(frozen=True)
class DofMap:
    """Interior (non-boundary) vertices in dof order."""

    dof_to_vertex: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.dof_to_vertex.shape[0]


def interior_dofmap(mesh: Mesh) -> DofMap:
    """Number the interior vertices of ``mesh`` contiguously."""
    return DofMap(np.flatnonzero(~mesh.boundary_vertex))


def _geometry(mesh: Mesh):
    """Per-triangle areas, constant basis gradients and midpoint quadrature points."""
    tri = mesh.triangles
    v0 = mesh.vertices[tri[:, 0]]
    v1 = mesh.vertices[tri[:, 1]]
    v2 = mesh.vertices[tri[:, 2]]
    det = (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1]) - (v1[:, 1] - v0[:, 1]) * (
        v2[:, 0] - v0[:, 0]
    )
    area = 0.5 * det

    grads = np.empty((tri.shape[0], 3, 2))
    grads[:, 0, 0] = v1[:, 1] - v2[:, 1]
    grads[:, 0, 1] = v2[:, 0] - v1[:, 0]
    grads[:, 1, 0] = v2[:, 1] - v0[:, 1]
    grads[:, 1, 1] = v0[:, 0] - v2[:, 0]
    grads[:, 2, 0] = v0[:, 1] - v1[:, 1]
    grads[:, 2, 1] = v1[:, 0] - v0[:, 0]
    grads /= det[:, None, None]

    qpts = np.stack([0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)], axis=1)
    return area, grads, qpts


def _eval_scalar(func, qpts, name):
    nq = qpts.shape[0] * qpts.shape[1]
    vals = np.asarray(func(qpts[..., 0].ravel(), qpts[..., 1].ravel()), dtype=float)
    if vals.ndim == 0:
        vals = np.full(nq, float(vals))
    elif vals.shape != (nq,):
        raise AssemblyError(
            "%s evaluation returned shape %r, expected scalar or (%d,)"
            % (name, vals.shape, nq)
        )
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0] // qpts.shape[1])
        raise AssemblyError(
            "non-finite %s coefficient in triangle %d" % (name, bad)
        )
    return vals.reshape(qpts.shape[0], qpts.shape[1])


def _eval_tensor(func, qpts):
    vals = np.asarray(func(qpts[..., 0].ravel(), qpts[..., 1].ravel()), dtype=float)
    n = qpts.shape[0] * qpts.shape[1]
    if vals.shape == (2, 2):
        vals = np.broadcast_to(vals, (n, 2, 2))
    elif vals.shape != (n, 2, 2):
        raise AssemblyError(
            "diffusion tensor evaluation returned shape %r" % (vals.shape,)
        )
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals).all(axis=(1, 2)))[0] // qpts.shape[1])
        raise AssemblyError("non-finite diffusion coefficient in triangle %d" % bad)
    return vals.reshape(qpts.shape[0], qpts.shape[1], 2, 2)


def _canonical_csr(n: int, triangles: np.ndarray, local: np.ndarray) -> sp.csr_array:
    """Scatter symmetric 3x3 element blocks into CSR with a fixed reduction order.

    Duplicates are grouped by a stable lexsort and summed left to right, so
    the (i, j) and (j, i) accumulations see identical value sequences and the
    result is exactly symmetric and reproducible.
    """
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    vals = local.ravel()
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]

    starts = np.empty(rows.shape[0], dtype=bool)
    starts[0] = True
    starts[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    first = np.flatnonzero(starts)
    data = np.add.reduceat(vals, first)
    idx_dtype = np.int32 if rows.shape[0] < np.iinfo(np.int32).max else np.int64
    indices = cols[first].astype(idx_dtype)
    indptr = np.zeros(n + 1, dtype=idx_dtype)
    indptr[1:] = np.cumsum(np.bincount(rows[first], minlength=n))
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def _restrict(matrix: sp.csr_array, dofmap: DofMap | None) -> sp.csr_array:
    if dofmap is None:
        return matrix
    keep = dofmap.dof_to_vertex
    return matrix[keep][:, keep]


def assemble_stiffness(
    mesh: Mesh, dofmap: DofMap | None, coeff: CoefficientField
) -> sp.csr_array:
    """Assemble the bilinear form ``integral(grad u . A grad v + phi u v)``.

    With ``dofmap`` given, rows and columns of boundary vertices are
    eliminated and the result is symmetric positive definite over interior
    dofs.  ``dofmap=None`` returns the full vertex matrix (singular for the
    pure gradient term: constants lie in its kernel).
    """
    area, grads, qpts = _geometry(mesh)
    weights = area / 3.0

    a_vals = _eval_tensor(coeff.a, qpts)
    ag = np.einsum("tqab,tjb->tqja", a_vals, grads)
    local = np.einsum("tia,tqja->tij", grads, ag) * weights[:, None, None]

    phi_vals = _eval_scalar(coeff.phi, qpts, "reaction")
    if np.any(phi_vals):
        local += np.einsum(
            "tq,iq,jq->tij", phi_vals * weights[:, None], _MIDPOINT_BASIS, _MIDPOINT_BASIS
        )

    local = 0.5 * (local + local.transpose(0, 2, 1))
    return _restrict(_canonical_csr(mesh.n_vertices, mesh.triangles, local), dofmap)


def assemble_mass(mesh: Mesh, dofmap: DofMap | None, rho) -> sp.csr_array:
    """Assemble the weighted mass form ``integral(rho u v)``.

    ``rho`` is a positive scalar field ``rho(x, y)`` (vectorized); the result
    is symmetric positive definite.
    """
    area, _, qpts = _geometry(mesh)
    weights = area / 3.0
    rho_vals = _eval_scalar(rho, qpts, "mass weight")
    local = np.einsum(
        "tq,iq,jq->tij", rho_vals * weights[:, None], _MIDPOINT_BASIS, _MIDPOINT_BASIS
    )
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return _restrict(_canonical_csr(mesh.n_vertices, mesh.triangles, local), dofmap)


def interpolate(mesh: Mesh, dofmap: DofMap, f) -> np.ndarray:
    """Sample ``f(x, y)`` at interior vertices in dof order (boundary assumed 0)."""
    xy = mesh.vertices[dofmap.dof_to_vertex]
    vals = np.asarray(f(xy[:, 0], xy[:, 1]), dtype=float)
    return np.broadcast_to(vals, (dofmap.n_dofs,)).copy()


def norm_a(matrix, v: np.ndarray) -> float:
    """Induced norm ``sqrt(v' M v)`` (tiny negative round-off clamps to 0).

    The energy norm for a stiffness matrix, the weighted L2 norm for a mass
    matrix.
    """
    v = np.asarray(v, dtype=float)
    if matrix.shape[1] != v.shape[0]:
        raise ValueError(
            "dimension mismatch: matrix %r, vector %r" % (matrix.shape, v.shape)
        )
    q = float(v @ (matrix @ v))
    if q < -1e-14:
        raise NotPositiveDefiniteError(
            "form value %g is negative beyond round-off" % q
        )
    return float(np.sqrt(max(q, 0.0)))
