"""P1 finite element assembly of the stiffness and mass bilinear forms.

Discretizes problems of the form

    -div(A grad u) + phi u = lambda rho u  in the domain,  u = 0 on the boundary,

with continuous piecewise-linear elements on triangles.  Dirichlet
conditions are imposed by elimination: matrices are built over the vertices
a dofmap lists, the interior ones (:func:`interior_dofmap`) for the solvers,
which keeps them symmetric positive definite.

Quadrature is the 3-point edge-midpoint rule, exact for quadratics, hence
exact for every constant-coefficient term with P1 bases and accurate enough
to preserve second-order eigenvalue convergence for smooth coefficients.
P1 gradients are constant per triangle, so the stiffness term sums the
tensor over the three points and contracts once (folded quadrature).  Each
form then takes six numbers per triangle, computed in closed form from
contiguous rows of corner coordinates: the couplings of its three local
vertex pairs and its three corner (diagonal) entries.  Both forms share one
scatter plan per mesh: scipy lays out the CSR pattern of the mesh's edges
without a boundary endpoint (elimination folded in), in any edge order, and
each stored value names the edge or vertex sum it takes.  Each chunk of
triangles adds its couplings into the edge sums with ``np.add.at`` (at most
two terms per edge, so no order can change a sum).  The corner entries are
kept per triangle and, after the last chunk, summed per vertex corner row by
corner row, in triangle order within a row.  The edge sums are gathered into
both entries of each edge, so the matrices are exactly symmetric by
construction and runs are bit reproducible.

Given the coarse mesh a level was refined from, the result also holds the
dense Galerkin blocks of the coarse space on that level.  The coarse hats
are linear on each descendant ``d`` of a coarse triangle, so its entries sum
``C_d' K_d C_d`` from the fine element matrices ``K_d``, with ``C_d`` the
coarse hats at the corners of ``d``: fixed by refinement for every coarse
triangle, so one exact table does the sum.  Each chunk's entries are also
copied into a staging block of whole runs of descendants, its size set by
the refinement count alone, and each full block is summed by one product
with the table while its entries are still in cache.  The coarse element
entries this gives are scattered on the coarse mesh like fine ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, NotPositiveDefiniteError
from .mesh import Mesh, _descendant_corners

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

#: Triangles per pass of the element kernels, so that their (3, chunk)
#: temporaries stay in cache.  A pass ends at every staging block boundary
#: too (16,384 triangles up to seven refinements), and neither the matrices
#: nor the coarse blocks depend on the value.  Medians of 11 context builds
#: (2-core host, 1 BLAS thread), 7-level model / 6-level general: 1k 0.42 /
#: 0.077 s, 4k 0.31 / 0.064 s, 16k 0.29 / 0.063 s.
_CHUNK = 16384


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
    """Increasing int32 interior (non-boundary) vertex ids: dof ``i`` is vertex ``[i]``."""
    return np.flatnonzero(~mesh.boundary_vertex).astype(np.int32)


def _eval(func, qx, qy, name, first, shape=()):
    """``func`` at the quadrature points, ``shape`` per point; a constant broadcasts.

    ``qx`` and ``qy`` hold one row of point coordinates per midpoint and
    one column per triangle, from triangle ``first`` on.
    """
    per_point = (qx.size,) + shape
    vals = np.asarray(func(qx.ravel(), qy.ravel()), dtype=float)
    if vals.shape not in (shape, per_point):
        raise AssemblyError(
            "%s evaluation returned shape %r, expected %r or %r"
            % (name, vals.shape, shape, per_point)
        )
    finite = np.isfinite(vals)  # checked before broadcasting a constant
    if not finite.all():
        finite = np.broadcast_to(finite, per_point).reshape(qx.shape + shape)
        bad = first + int(np.nonzero(~finite)[1].min())
        raise AssemblyError("non-finite %s coefficient in triangle %d" % (name, bad))
    return np.broadcast_to(vals, per_point).reshape(qx.shape + shape)


def _scatter_plan(mesh: Mesh, dofmap: np.ndarray) -> sp.csr_array:
    """The CSR pattern from the mesh's edge table, each value its entry's source.

    The pattern is the diagonal plus both directions of every edge without
    an eliminated endpoint.  scipy puts it in canonical form (sorted rows,
    no duplicates) whatever the edge order.  Each stored int32 value indexes
    the mesh's edge sums followed by its vertex sums: edge ``e`` for
    ``(lo, hi)`` and ``(hi, lo)``, and ``n_edges + v`` for the diagonal of
    vertex ``v``.
    """
    n = len(dofmap)
    vertex_dof = np.full(mesh.n_vertices, -1, dtype=np.int32)
    vertex_dof[dofmap] = np.arange(n)

    lo, hi = vertex_dof[mesh.edges[:, 0]], vertex_dof[mesh.edges[:, 1]]
    kept = np.flatnonzero((lo >= 0) & (hi >= 0))
    lo, hi, dofs = lo[kept], hi[kept], np.arange(n, dtype=np.int32)
    source = np.concatenate([kept, kept, mesh.edges.shape[0] + dofmap], dtype=np.int32)
    del kept, vertex_dof  # each intermediate goes as soon as it is used
    rows, cols = np.concatenate([lo, hi, dofs]), np.concatenate([hi, lo, dofs])
    del lo, hi, dofs
    return sp.csr_array((source, (rows, cols)), shape=(n, n))


def _add_rows(sums: np.ndarray, index, values) -> None:
    """Add row ``r`` of ``values`` into ``sums`` at row ``r`` of ``index``:
    row after row, in order within a row, so every running sum is fixed."""
    for idx, val in zip(index, values):
        np.add.at(sums, idx, val)


def _scatter(plan: sp.csr_array, sums: np.ndarray, mesh: Mesh, corner) -> sp.csr_array:
    """The matrix ``plan`` lays out from ``sums`` (the mesh's edge sums, then
    its vertex sums), once the ``(3, T)`` ``corner`` entries are summed in."""
    _add_rows(sums[mesh.edges.shape[0] :], mesh.triangles.T, corner)
    del corner  # the caller passed its only reference: freed once summed
    return sp.csr_array((sums[plan.data], plan.indices, plan.indptr), shape=plan.shape)


def _edges_and_midpoints(vertices: np.ndarray, corners: np.ndarray):
    """Edge vectors and quadrature points, one row per local index.

    Row i of ``ex, ey`` is the edge from corner i + 1 to corner i + 2,
    opposite corner i; row k of ``qx, qy`` is the midpoint of local pair k.
    """
    x, y = vertices[:, 0][corners], vertices[:, 1][corners]
    ex, ey, qx, qy = (np.empty_like(x) for _ in range(4))
    for k, (a, b) in enumerate(_LOCAL_EDGES):
        np.subtract(x[k - 1], x[b], out=ex[k])
        np.subtract(y[k - 1], y[b], out=ey[k])
        np.multiply(x[a] + x[b], 0.5, out=qx[k])
        np.multiply(y[a] + y[b], 0.5, out=qy[k])
    return ex, ey, qx, qy


def _folded_tensor(tensor):
    """Entries 00, 01 and 11 of the tensor summed over the three points and
    symmetrized (folded quadrature): P1 gradients are constant per triangle."""
    s00, s01, s10, s11 = (
        tensor[0, :, r, c] + tensor[1, :, r, c] + tensor[2, :, r, c]
        for r, c in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    s01 += s10
    s01 *= 0.5
    return s00, s01, s11


def _gradient_form(folded, ex, ey, pair, corner):
    """Pair and corner entries ``g_i . S g_j`` of the rows ``S = (s00, s01, s11)``,
    written into the rows of ``pair`` and ``corner``.

    ``g_i = (-ey_i, ex_i)`` is the gradient of hat ``i`` times ``det``, so
    ``S`` the folded tensor over ``6 det`` gives ``integral(grad u . A grad v)``.
    """
    s00, s01, s11 = folded
    for k, (_, b) in enumerate(_LOCAL_EDGES):
        hx = s01 * ex[k] - s00 * ey[k]  # S g_k
        hy = s11 * ex[k] - s01 * ey[k]
        corner[k] = hy * ex[k] - hx * ey[k]
        pair[k] = hy * ex[b] - hx * ey[b]


def _midpoint_form(fw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair and corner entries of ``integral(f u v)``; ``fw`` is f times weight.

    A hat function is 1/2 at the midpoints of its corner's two pairs and 0
    at the third, so pair ``k`` gets ``fw_k / 4`` and corner ``i`` gets
    ``(fw_{i-1} + fw_i) / 4``.
    """
    quarter = 0.25 * fw
    return quarter, quarter[[2, 0, 1]] + quarter


def _refinements(mesh: Mesh, coarse: Mesh) -> int:
    """How many times :func:`~fmgeig.mesh.refine_regular` split ``coarse`` into ``mesh``.

    ``ValueError`` unless ``mesh`` has ``4**k`` times the coarse triangles,
    starts with the coarse vertices, and row ``4**k t`` (the first
    descendant of coarse triangle ``t``) keeps the first corner of ``t``.
    """
    k = round(math.log(max(mesh.n_triangles / coarse.n_triangles, 1.0), 4))
    step = 4**k
    if not (
        mesh.n_triangles == step * coarse.n_triangles
        and np.array_equal(mesh.vertices[: coarse.n_vertices], coarse.vertices)
        and np.array_equal(mesh.triangles[::step, 0], coarse.triangles[:, 0])
    ):
        raise ValueError("mesh was not refined from the given coarse mesh")
    return k


def _galerkin_table(levels: int) -> np.ndarray:
    """Row ``6 d + e``, column ``o``: the weight of fine entry ``e`` of
    descendant ``d`` in coarse entry ``o``, after ``levels`` refinements.

    Entries are the three local pairs, then the three corners.  The weights
    are those of ``C_d' K_d C_d``, with ``C_d`` the coarse hats at the corners
    of ``d`` (:func:`~fmgeig.mesh._descendant_corners`): exact, and the
    identity for ``levels = 0``.
    """
    c = _descendant_corners(levels)  # (descendant, fine corner, coarse hat)
    i, j = np.array(_LOCAL_EDGES + ((0, 0), (1, 1), (2, 2))).T  # coarse (I, J) per column
    a, b = i[:, None], j[:, None]  # fine (a, b) per row
    table = c[:, a, i] * c[:, b, j] + c[:, b, i] * c[:, a, j]
    table[:, 3:] *= 0.5  # a corner is one entry of K_d, a pair two
    return table.reshape(-1, 6)


def assemble_pencil(
    mesh: Mesh,
    dofmap: np.ndarray,
    coeff: CoefficientField,
    coarse: tuple[Mesh, np.ndarray] | None = None,
) -> tuple:
    """Assemble the stiffness and mass matrices of ``coeff`` on ``mesh``.

    The stiffness form is ``integral(grad u . A grad v + phi u v)`` and the
    mass form ``integral(rho u v)``.  Dof ``i`` is vertex ``dofmap[i]``; with
    :func:`interior_dofmap` both matrices are symmetric positive definite,
    and with every vertex the stiffness is singular for the pure gradient
    term (constants lie in its kernel).

    ``coarse = (coarse_mesh, coarse_dofmap)`` names the mesh that ``mesh`` was
    refined from by :func:`~fmgeig.mesh.refine_regular`, any number of times
    including none (``ValueError`` otherwise).  The result then also holds the
    dense Galerkin blocks ``P' A P`` and ``P' B P``, with ``P`` interpolating
    the coarse dofs onto ``mesh``, summed from the fine entries of each staging
    block (:func:`_galerkin_table`) and scattered on the coarse mesh
    (:func:`_coarse_blocks`); with ``mesh`` as its own coarse mesh they are the
    two matrices, bit for bit.  Each chunk adds its pair entries to the edge
    sums; only corner entries are held per triangle, until summed per vertex.
    """
    levels = 0 if coarse is None else _refinements(mesh, coarse[0])
    table, run = _galerkin_table(levels), 4**levels  # run: descendants per coarse triangle
    block = max(16384 // run, 1) * run  # per coarse product; fixed, as rounding may vary with it
    n_tri = mesh.n_triangles
    # Per form, a block's entries in (triangle, entry) order: each descendant's
    # terms cancel to O(4**-levels) first, not 4**levels times larger sums.
    staged = np.empty((2, min(block, n_tri), 6))
    moments = np.empty((2, 0 if coarse is None else coarse[0].n_triangles, 6))
    plan = _scatter_plan(mesh, dofmap)
    sums = [np.zeros(mesh.edges.shape[0] + mesh.n_vertices) for _ in range(2)]  # stiffness, mass
    corner = [np.empty((3, n_tri)) for _ in range(2)]
    cuts = np.union1d(np.arange(_CHUNK, n_tri, _CHUNK), np.arange(block, n_tri, block))
    for first, last in zip([0, *cuts], [*cuts, n_tri]):  # chunks, also cut at block ends
        part = slice(first, last)
        ex, ey, qx, qy = _edges_and_midpoints(mesh.vertices, mesh.triangles[part].T.copy())
        det = ex[1] * ey[2] - ex[2] * ey[1]
        weight = det / 6.0  # area / 3
        folded = _folded_tensor(_eval(coeff.a, qx, qy, "diffusion", first, (2, 2)))
        phi_vals = _eval(coeff.phi, qx, qy, "reaction", first)
        rho_weight = _eval(coeff.rho, qx, qy, "mass weight", first) * weight
        scale = 1.0 / (6.0 * det)
        for s in folded:
            s *= scale
        entries = np.empty((2, 2, 3, last - first))  # form, (pair, corner), local, triangle
        _gradient_form(folded, ex, ey, *entries[0])
        if np.any(phi_vals):
            entries[0] += _midpoint_form(phi_vals * weight)
        entries[1] = _midpoint_form(rho_weight)
        for form in range(2):
            _add_rows(sums[form], mesh.triangle_edges[part].T, entries[form, 0])
            corner[form][:, part] = entries[form, 1]
        if coarse is None:
            continue
        at = first % block
        staged[:, at : at + last - first] = entries.reshape(2, 6, -1).transpose(0, 2, 1)
        if last % block == 0 or last == n_tri:
            t, rows = (first - at) // run, (at + last - first) // run  # the block's coarse triangles
            for out, staged_form in zip(moments[:, t : t + rows], staged):
                out[:] = staged_form[: rows * run].reshape(rows, 6 * run) @ table
    pencil = tuple(_scatter(plan, sums.pop(0), mesh, corner.pop(0)) for _ in range(2))
    return pencil if coarse is None else pencil + _coarse_blocks(*coarse, moments)


def _coarse_blocks(coarse: Mesh, dofmap, moments: np.ndarray) -> tuple:
    """Dense coarse-dof blocks of the forms whose coarse element entries
    (three pairs, then three corners per triangle) are ``moments``."""
    plan, blocks = _scatter_plan(coarse, dofmap), []
    for form in moments:
        sums = np.zeros(coarse.edges.shape[0] + coarse.n_vertices)
        _add_rows(sums, coarse.triangle_edges.T, form[:, :3].T)
        blocks.append(_scatter(plan, sums, coarse, form[:, 3:].T).toarray())
    return tuple(blocks)


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
    # Not a BLAS dot: for a long vector that leaves an OpenBLAS worker spinning.
    q = float(np.einsum("i,i->", v, matrix @ v))
    if q < -1e-14:
        raise NotPositiveDefiniteError(
            "form value %g is negative beyond round-off" % q
        )
    return float(np.sqrt(max(q, 0.0)))
