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
P1 gradients are constant per triangle, so the stiffness term sums the
tensor over the three points and contracts once (folded quadrature).  Both
forms share one scatter plan per mesh: scipy lays out the CSR pattern of
the mesh's edges without a boundary endpoint (elimination folded in), in
any edge order, and records where each entry's value comes from.
Symmetrized element entries are summed per edge and per vertex with
``np.bincount`` in triangle order and gathered into both entries of each
edge, so the matrices are exactly symmetric by construction and runs are
bit reproducible.
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
    "laplace_coefficients",
    "interior_dofmap",
    "assemble_pencil",
    "interpolate",
    "norm_a",
]

# Local vertex pairs of a triangle's edges, in the order of Mesh.triangle_edges.
_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))

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


def interior_dofmap(mesh: Mesh) -> np.ndarray:
    """Increasing interior (non-boundary) vertex ids: dof ``i`` is vertex ``[i]``."""
    return np.flatnonzero(~mesh.boundary_vertex)


def _geometry(mesh: Mesh):
    """Per-triangle areas, constant basis gradients and midpoint quadrature points."""
    corners = mesh.vertices.take(mesh.triangles, axis=0)
    v0, v1, v2 = corners[:, 0], corners[:, 1], corners[:, 2]
    det = (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1]) - (v1[:, 1] - v0[:, 1]) * (
        v2[:, 0] - v0[:, 0]
    )
    area = 0.5 * det

    grads = np.empty_like(corners)
    grads[:, 0, 0] = v1[:, 1] - v2[:, 1]
    grads[:, 0, 1] = v2[:, 0] - v1[:, 0]
    grads[:, 1, 0] = v2[:, 1] - v0[:, 1]
    grads[:, 1, 1] = v0[:, 0] - v2[:, 0]
    grads[:, 2, 0] = v0[:, 1] - v1[:, 1]
    grads[:, 2, 1] = v1[:, 0] - v0[:, 0]
    grads /= det[:, None, None]

    # Midpoints m01, m12, m20: each corner plus the next.
    qpts = np.roll(corners, -1, axis=1)
    qpts += corners
    qpts *= 0.5
    return area, grads, qpts


def _eval(func, qpts, name, shape=()):
    """``func`` at the quadrature points, ``shape`` per point; a constant broadcasts."""
    nt, nq = qpts.shape[:2]
    per_point = (nt * nq,) + shape
    vals = np.asarray(func(qpts[..., 0].ravel(), qpts[..., 1].ravel()), dtype=float)
    if vals.shape not in (shape, per_point):
        raise AssemblyError(
            "%s evaluation returned shape %r, expected %r or %r"
            % (name, vals.shape, shape, per_point)
        )
    vals = np.broadcast_to(vals, per_point).reshape((nt, nq) + shape)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = int(np.argwhere(~finite)[0, 0])
        raise AssemblyError("non-finite %s coefficient in triangle %d" % (name, bad))
    return vals


def _scatter_plan(mesh: Mesh, dofmap: np.ndarray | None):
    """Lay out the CSR pattern from the mesh's edge table; return the scatter.

    The pattern is the diagonal plus both directions of every edge without
    an eliminated endpoint.  scipy puts it in canonical form (sorted rows,
    no duplicates) whatever the edge order.  Each stored value is the
    entry's source: kept edge ``e`` for ``(lo, hi)`` and ``(hi, lo)``, and
    ``m + i`` for the diagonal of dof ``i``, with ``m`` kept edges.
    """
    if dofmap is None:
        dofmap = np.arange(mesh.n_vertices)
    n = dofmap.shape[0]
    vertex_dof = np.full(mesh.n_vertices, -1, dtype=np.int32)
    vertex_dof[dofmap] = np.arange(n)

    lo, hi = vertex_dof[mesh.edges[:, 0]], vertex_dof[mesh.edges[:, 1]]
    kept = np.flatnonzero((lo >= 0) & (hi >= 0))
    lo, hi = lo[kept], hi[kept]
    edge, dofs = np.arange(len(kept), dtype=np.int32), np.arange(n, dtype=np.int32)
    source = np.concatenate([edge, edge, len(kept) + dofs])
    rows, cols = np.concatenate([lo, hi, dofs]), np.concatenate([hi, lo, dofs])
    pattern = sp.csr_array((source, (rows, cols)), shape=(n, n))

    def scatter(local: np.ndarray) -> sp.csr_array:
        blocks = local.reshape(-1, 9)  # entry (i, j) in column 3 i + j
        pair = np.empty((blocks.shape[0], 3))
        for k, (i, j) in enumerate(_LOCAL_EDGES):
            np.add(blocks[:, 3 * i + j], blocks[:, 3 * j + i], out=pair[:, k])
        pair *= 0.5
        edge_sum = np.bincount(
            mesh.triangle_edges.ravel(), pair.ravel(), minlength=mesh.edges.shape[0]
        )[kept]
        vertex_sum = np.bincount(
            mesh.triangles.ravel(), blocks[:, ::4].ravel(), minlength=mesh.n_vertices
        )
        data = np.concatenate([edge_sum, vertex_sum[dofmap]])[pattern.data]
        return sp.csr_array(
            (data, pattern.indices.copy(), pattern.indptr.copy()), shape=(n, n)
        )

    return scatter


def _midpoint_form(fw: np.ndarray) -> np.ndarray:
    """Midpoint-rule element blocks of ``integral(f u v)``; ``fw`` is f times weight."""
    return np.einsum("tq,iq,jq->tij", fw, _MIDPOINT_BASIS, _MIDPOINT_BASIS, optimize=True)


def _stiffness_blocks(coeff, grads, qpts, weights):
    """Stiffness element blocks; constant gradients let the tensor's quadrature fold."""
    tensor = _eval(coeff.a, qpts, "diffusion", (2, 2))
    a_sum = tensor[:, 0] + tensor[:, 1] + tensor[:, 2]  # what sum(axis=1) adds, 3x faster
    del tensor  # lowers the peak: only the sum is contracted
    local = np.einsum("tia,tab,tjb->tij", grads, a_sum, grads, optimize=True)
    local *= weights[:, :, None]
    phi_vals = _eval(coeff.phi, qpts, "reaction")
    if np.any(phi_vals):
        local += _midpoint_form(phi_vals * weights)
    return local


def assemble_pencil(
    mesh: Mesh, dofmap: np.ndarray | None, coeff: CoefficientField
) -> tuple[sp.csr_array, sp.csr_array]:
    """Assemble the stiffness and mass matrices of ``coeff`` on ``mesh``.

    The stiffness form is ``integral(grad u . A grad v + phi u v)`` and the
    mass form ``integral(rho u v)``.  With ``dofmap`` given, rows and columns
    of boundary vertices are eliminated and both matrices are symmetric
    positive definite over interior dofs.  ``dofmap=None`` returns the full
    vertex matrices (the stiffness is singular for the pure gradient term:
    constants lie in its kernel).
    """
    scatter = _scatter_plan(mesh, dofmap)
    area, grads, qpts = _geometry(mesh)
    weights = (area / 3.0)[:, None]
    stiffness = scatter(_stiffness_blocks(coeff, grads, qpts, weights))
    del grads  # lowers the peak: the mass blocks do not need it
    rho_vals = _eval(coeff.rho, qpts, "mass weight")
    return stiffness, scatter(_midpoint_form(rho_vals * weights))


def interpolate(mesh: Mesh, dofmap: np.ndarray, f) -> np.ndarray:
    """Sample ``f(x, y)`` at interior vertices in dof order (boundary assumed 0)."""
    xy = mesh.vertices.take(dofmap, axis=0)  # faster than fancy indexing
    vals = np.asarray(f(xy[:, 0], xy[:, 1]), dtype=float)
    return np.broadcast_to(vals, dofmap.shape).copy()


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
