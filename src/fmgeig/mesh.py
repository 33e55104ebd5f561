"""Conforming triangulations of 2D polygonal domains and their nested refinements.

A :class:`Mesh` stores vertex coordinates, counterclockwise triangle
connectivity and per-vertex boundary flags.  Boundary flags are always
recomputed from edge incidence (an edge belonging to exactly one triangle is
a boundary edge), never trusted from input files.

Regular refinement splits each triangle into four congruent children by
connecting the edge midpoints, halving the mesh size, and records the
coarse-to-fine interpolation of piecewise-linear vertex coefficients as a
sparse prolongation matrix.  :func:`build_hierarchy` chains refinements
into a :class:`MeshHierarchy`, the nested sequence of spaces the multigrid
solvers operate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import MeshFormatError

__all__ = [
    "Mesh",
    "MeshHierarchy",
    "unit_square_mesh",
    "load_mesh",
    "refine_regular",
    "build_hierarchy",
    "triangle_areas",
]

#: Largest projected fine-level vertex count :func:`build_hierarchy` accepts.
#: Measured peak memory is about 1.22 KB per fine vertex (305-307 MiB at 263k
#: vertices for the 7-level model problem from ``square:8``), so 2M vertices
#: need about 2.4 GB, under a third of an 8 GB host.  The cap also keeps the
#: int32 connectivity and CSR index arrays of meshes and matrices in range.
MAX_VERTICES = 2_000_000


@dataclass(frozen=True)
class Mesh:
    """Immutable conforming triangulation.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates.
    triangles : ndarray of int32, shape (nt, 3)
        Vertex indices of each triangle, counterclockwise.
    boundary_vertex : ndarray of bool, shape (nv,)
        True for vertices lying on an edge owned by exactly one triangle.
    edges : ndarray of int32, shape (ne, 2)
        Every undirected edge once, as a vertex pair ``u < v``, in
        lexicographic order.
    triangle_edges : ndarray of int32, shape (nt, 3)
        Row of ``edges`` holding each triangle's local vertex pairs (0, 1),
        (1, 2) and (2, 0).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_vertex: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class MeshHierarchy:
    """Nested meshes ordered coarse to fine with inter-level prolongations.

    ``prolongations[k]`` interpolates vertex coefficients of ``meshes[k]``
    onto ``meshes[k + 1]``; their products embed any level into any finer one.
    Every refinement is the midpoint split, so the mesh size halves from
    one level to the next.
    """

    meshes: list[Mesh]
    prolongations: list[sp.csr_array]

    @property
    def n_levels(self) -> int:
        return len(self.meshes)


def _edge_table(
    triangles: np.ndarray, nv: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique undirected edges, each triangle's edge ids and per-edge triangle counts.

    Edges are sorted vertex pairs in lexicographic order, the ascending order
    of the packed int64 key ``min * nv + max``.
    """
    ends = triangles[:, [1, 2, 0]]
    keys = np.minimum(triangles, ends).astype(np.int64) * nv + np.maximum(triangles, ends)
    keys, triangle_edges, counts = np.unique(
        keys.ravel(), return_inverse=True, return_counts=True
    )
    edges = np.column_stack(np.divmod(keys, nv)).astype(np.int32)
    return edges, triangle_edges.reshape(-1, 3).astype(np.int32), counts


def _signed_doubled_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    # take gathers rows about ten times faster than fancy indexing.
    v0, v1, v2 = (vertices.take(triangles[:, k], axis=0) for k in range(3))
    d1 = v1 - v0
    d2 = v2 - v0
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def _build_mesh(vertices: np.ndarray, triangles: np.ndarray) -> Mesh:
    """Validate connectivity, derive boundary flags and freeze the arrays."""
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    nv = vertices.shape[0]
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= nv:
        raise ValueError("triangle refers to vertex index outside 0..%d" % (nv - 1))
    triangles = np.ascontiguousarray(triangles, dtype=np.int32)
    if np.any(_signed_doubled_areas(vertices, triangles) <= 0.0):
        bad = int(np.flatnonzero(_signed_doubled_areas(vertices, triangles) <= 0.0)[0])
        raise ValueError("triangle %d has non-positive area (orientation?)" % bad)

    edges, triangle_edges, counts = _edge_table(triangles, nv)
    if counts.max(initial=0) > 2:
        raise ValueError("non-conforming mesh: an edge is shared by >2 triangles")

    boundary = np.zeros(nv, dtype=bool)
    boundary[edges[counts == 1].ravel()] = True

    for array in (vertices, triangles, boundary, edges, triangle_edges):
        array.setflags(write=False)
    return Mesh(vertices, triangles, boundary, edges, triangle_edges)


def unit_square_mesh(nx: int) -> Mesh:
    """Criss-cross triangulation of the unit square with ``nx`` cells per side.

    Every grid square is split along its lower-left to upper-right diagonal,
    giving ``(nx + 1)**2`` vertices and ``2 * nx**2`` triangles, all
    counterclockwise.
    """
    if nx < 1:
        raise ValueError("nx must be >= 1, got %r" % (nx,))
    coords = np.linspace(0.0, 1.0, nx + 1)
    x, y = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([x.ravel(), y.ravel()])

    i, j = np.meshgrid(np.arange(nx), np.arange(nx), indexing="xy")
    v00 = (j * (nx + 1) + i).ravel()
    v10 = v00 + 1
    v01 = v00 + nx + 1
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.concatenate([lower, upper])
    return _build_mesh(vertices, triangles)


def load_mesh(text: str) -> Mesh:
    """Parse the plain-text node/element format into a validated mesh.

    Format: a header line ``NV NT``, then ``NV`` lines ``x y``, then ``NT``
    lines ``i j k`` of 0-based counterclockwise vertex indices.  Blank lines
    and lines starting with ``#`` are skipped.  Boundary flags are
    recomputed from connectivity.

    Raises
    ------
    MeshFormatError
        On malformed lines, out-of-range indices or non-positive triangle
        areas, reporting the 1-based line number.
    """
    records = [
        (lineno, line.split())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not records:
        raise MeshFormatError("empty mesh file")

    lineno, header = records[0]
    if len(header) != 2:
        raise MeshFormatError("expected header 'NV NT'", line=lineno)
    try:
        nv, nt = int(header[0]), int(header[1])
    except ValueError:
        raise MeshFormatError("non-integer counts in header", line=lineno) from None
    if nv < 3 or nt < 1:
        raise MeshFormatError("need at least 3 vertices and 1 triangle", line=lineno)
    if len(records) != 1 + nv + nt:
        raise MeshFormatError(
            "expected %d data lines, found %d" % (nv + nt, len(records) - 1),
            line=lineno,
        )

    vertices = np.empty((nv, 2))
    for row, (lineno, fields) in enumerate(records[1 : 1 + nv]):
        if len(fields) != 2:
            raise MeshFormatError("expected 'x y'", line=lineno)
        try:
            vertices[row] = [float(fields[0]), float(fields[1])]
        except ValueError:
            raise MeshFormatError("non-numeric coordinate", line=lineno) from None
        if not np.all(np.isfinite(vertices[row])):
            raise MeshFormatError("non-finite coordinate", line=lineno)

    triangles = np.empty((nt, 3), dtype=np.int64)
    for row, (lineno, fields) in enumerate(records[1 + nv :]):
        if len(fields) != 3:
            raise MeshFormatError("expected 'i j k'", line=lineno)
        try:
            triangles[row] = [int(f) for f in fields]
        except ValueError:
            raise MeshFormatError("non-integer vertex index", line=lineno) from None
        if triangles[row].min() < 0 or triangles[row].max() >= nv:
            raise MeshFormatError(
                "vertex index out of range 0..%d" % (nv - 1), line=lineno
            )
        if _signed_doubled_areas(vertices, triangles[row : row + 1])[0] <= 0.0:
            raise MeshFormatError(
                "triangle has zero or negative area", line=lineno
            )

    try:
        return _build_mesh(vertices, triangles)
    except ValueError as exc:
        raise MeshFormatError(str(exc)) from None


def refine_regular(mesh: Mesh) -> tuple[Mesh, sp.csr_array]:
    """Split every triangle into four congruent children via edge midpoints.

    Midpoint vertex ``V + e`` is created once for row ``e`` of
    ``mesh.edges``, so the fine mesh has ``V + E`` vertices and the result
    is independent of triangle ordering.  Returns the fine mesh and the
    prolongation whose rows hold 1 for retained coarse vertices and two
    entries of 1/2 for midpoint vertices.
    """
    tri = mesh.triangles
    nv = mesh.n_vertices
    edges = mesh.edges
    ne = edges.shape[0]

    ends = [mesh.vertices.take(edges[:, k], axis=0) for k in range(2)]
    midpoints = 0.5 * (ends[0] + ends[1])
    fine_vertices = np.concatenate([mesh.vertices, midpoints])

    m01, m12, m20 = (nv + mesh.triangle_edges).T
    children = np.concatenate(
        [
            np.column_stack([tri[:, 0], m01, m20]),
            np.column_stack([tri[:, 1], m12, m01]),
            np.column_stack([tri[:, 2], m20, m12]),
            np.column_stack([m01, m12, m20]),
        ]
    )
    fine = _build_mesh(fine_vertices, children)

    # Row i < V is the unit vector of vertex i; row V + e averages the
    # endpoints u < v of edge e, so every row's columns are already sorted.
    indptr = np.concatenate([np.arange(nv), nv + 2 * np.arange(ne + 1)])
    indices = np.concatenate([np.arange(nv), edges.ravel()])
    vals = np.concatenate([np.ones(nv), np.full(2 * ne, 0.5)])
    prolongation = sp.csr_array((vals, indices, indptr), shape=(nv + ne, nv))
    return fine, prolongation


def build_hierarchy(coarse: Mesh, n_levels: int) -> MeshHierarchy:
    """Refine ``coarse`` ``n_levels - 1`` times into a nested hierarchy.

    The projected vertex count of every level is checked against
    :data:`MAX_VERTICES` before any refinement is performed, so oversized
    requests fail with a sizing error instead of exhausting memory.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1, got %r" % (n_levels,))

    nv, nt = coarse.n_vertices, coarse.n_triangles
    ne = coarse.edges.shape[0]
    for _ in range(n_levels - 1):
        # One refinement: V' = V + E, E' = 2E + 3T, T' = 4T.
        nv, ne, nt = nv + ne, 2 * ne + 3 * nt, 4 * nt
        if nv > MAX_VERTICES:
            raise ValueError(
                "projected fine vertex count %d exceeds cap %d" % (nv, MAX_VERTICES)
            )

    meshes = [coarse]
    prolongations = []
    for _ in range(n_levels - 1):
        fine, op = refine_regular(meshes[-1])
        meshes.append(fine)
        prolongations.append(op)
    return MeshHierarchy(meshes, prolongations)


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Positive area of every triangle."""
    return 0.5 * _signed_doubled_areas(mesh.vertices, mesh.triangles)
