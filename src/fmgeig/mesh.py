"""Conforming triangulations of 2D polygonal domains and their nested refinements.

A :class:`Mesh` stores vertex coordinates, counterclockwise triangle
connectivity and per-vertex boundary flags.  Boundary flags are always
recomputed from edge incidence (an edge belonging to exactly one triangle is
a boundary edge), never trusted from input files.

Regular refinement splits each triangle into four congruent children by
connecting the edge midpoints, halving the mesh size.  The fine mesh takes
its edge table and boundary flags from the parent's, so only a mesh given
by its connectivity alone sorts its edges, and the coarse-to-fine
interpolation of piecewise-linear vertex coefficients is read off the
parent's edge table by the multigrid set-up, never stored.
:func:`build_hierarchy` chains refinements into a :class:`MeshHierarchy`,
the nested sequence of spaces the multigrid solvers operate on.
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
#: Measured peak memory is about 0.53 KB per fine vertex (524-527 MiB at 1.05M
#: vertices for the 8-level model problem from ``square:8``), so 2M vertices
#: need about 1.1 GB, under a seventh of an 8 GB host.  The cap also keeps the
#: int32 connectivity, dof maps and CSR index arrays in range.
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
        Every undirected edge once, as a vertex pair ``u < v``.  Meshes
        built from connectivity alone list them in lexicographic order;
        refined meshes in the order inherited from the parent (see
        :func:`refine_regular`).
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
    """Nested meshes ordered coarse to fine.

    Every refinement is the midpoint split, so the mesh size halves from
    one level to the next.
    """

    meshes: list[Mesh]

    @property
    def n_levels(self) -> int:
        return len(self.meshes)


def _edge_table(
    triangles: np.ndarray, nv: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique undirected edges, each triangle's edge ids and per-edge triangle counts.

    Edges are sorted vertex pairs in lexicographic order, the ascending order
    of the packed int64 key ``min * nv + max``; refined meshes inherit their
    table instead (:func:`refine_regular`).  Counterclockwise triangles of a
    conforming mesh traverse each edge at most once per direction, so a
    ``ValueError`` names the first edge traversed twice in one direction: a
    repeated triangle, a fold, or an edge of more than two triangles.
    """
    ends = triangles[:, [1, 2, 0]]
    forward = triangles < ends
    keys = np.minimum(triangles, ends).astype(np.int64) * nv + np.maximum(triangles, ends)
    keys, triangle_edges, counts = np.unique(
        keys.ravel(), return_inverse=True, return_counts=True
    )
    edges = np.column_stack(np.divmod(keys, nv)).astype(np.int32)
    forward_counts = np.bincount(triangle_edges[forward.ravel()], minlength=len(keys))
    twice = (forward_counts > 1) | (counts - forward_counts > 1)
    if twice.any():
        u, v = edges[np.argmax(twice)]
        raise ValueError(
            "non-conforming mesh: edge (%d, %d) is traversed twice in one "
            "direction (repeated or overlapping triangles, or >2 sharing it)" % (u, v)
        )
    return edges, triangle_edges.reshape(-1, 3).astype(np.int32), counts


def _signed_doubled_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    # take gathers rows about ten times faster than fancy indexing.
    v0, v1, v2 = (vertices.take(triangles[:, k], axis=0) for k in range(3))
    d1 = v1 - v0
    d2 = v2 - v0
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def _frozen_mesh(*arrays: np.ndarray) -> Mesh:
    for array in arrays:
        array.setflags(write=False)
    return Mesh(*arrays)


def _build_mesh(vertices: np.ndarray, triangles: np.ndarray) -> Mesh:
    """Validate connectivity (not areas), derive the edge table and boundary flags, freeze."""
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    nv = vertices.shape[0]
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= nv:
        raise ValueError("triangle refers to vertex index outside 0..%d" % (nv - 1))
    unused = np.flatnonzero(np.bincount(triangles.ravel(), minlength=nv) == 0)
    if unused.size:
        raise ValueError("vertex %d is not a corner of any triangle" % unused[0])
    triangles = np.ascontiguousarray(triangles, dtype=np.int32)
    edges, triangle_edges, counts = _edge_table(triangles, nv)
    boundary = np.zeros(nv, dtype=bool)
    boundary[edges[counts == 1].ravel()] = True
    return _frozen_mesh(vertices, triangles, boundary, edges, triangle_edges)


def unit_square_mesh(nx: int) -> Mesh:
    """Criss-cross triangulation of the unit square with ``nx`` cells per side.

    Every grid square is split along its lower-left to upper-right diagonal,
    giving ``(nx + 1)**2`` vertices and ``2 * nx**2`` triangles, all
    counterclockwise.  More than :data:`MAX_VERTICES` vertices raise
    ``ValueError`` before anything is allocated.
    """
    if nx < 1:
        raise ValueError("nx must be >= 1, got %r" % (nx,))
    if (nx + 1) ** 2 > MAX_VERTICES:
        raise ValueError(
            "nx = %d gives %d vertices, above the cap %d" % (nx, (nx + 1) ** 2, MAX_VERTICES)
        )
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
        areas, reporting the 1-based line number, and on a vertex that no
        triangle uses or an edge that does not conform.
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
    flat = np.flatnonzero(_signed_doubled_areas(vertices, triangles) <= 0.0)
    if flat.size:
        line = records[1 + nv + flat[0]][0]
        raise MeshFormatError("triangle has zero or negative area", line=line)

    try:
        return _build_mesh(vertices, triangles)
    except ValueError as exc:
        raise MeshFormatError(str(exc)) from None


def _children(corners, midpoints) -> np.ndarray:
    """Corners of the four children of every triangle; row ``4t + c`` is child ``c`` of ``t``.

    ``corners`` holds each triangle's corners 0, 1, 2 and ``midpoints`` the
    midpoints of its local pairs (0, 1), (1, 2), (2, 0), one array each, as
    vertex ids or as coordinates.  Child ``c < 3`` keeps corner ``c`` in
    first place; child 3 is the triangle of midpoints.
    """
    c0, c1, c2 = corners
    m01, m12, m20 = midpoints
    children = [(c0, m01, m20), (c1, m12, m01), (c2, m20, m12), (m01, m12, m20)]
    stacked = np.stack([np.stack(child, axis=1) for child in children], axis=1)
    return stacked.reshape((-1,) + stacked.shape[2:])


def _descendant_corners(levels: int) -> np.ndarray:
    """Barycentric coordinates, in a triangle, of the corners of its descendants.

    Row ``d`` of the ``(4**levels, 3, 3)`` result holds the corners of row
    ``4**levels t + d`` after ``levels`` calls of :func:`refine_regular`,
    in the coordinates of triangle ``t``: the same for every triangle, and
    dyadic, hence exact.
    """
    corners = np.eye(3)[None]
    for _ in range(levels):
        by_corner = corners.transpose(1, 0, 2)
        corners = _children(by_corner, 0.5 * (by_corner + by_corner[[1, 2, 0]]))
    return corners


def refine_regular(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children via edge midpoints.

    Midpoint vertex ``V + e`` is created once for row ``e`` of
    ``mesh.edges``, so the fine mesh has ``V + E`` vertices and the result
    is independent of triangle ordering.  Row ``4t + c`` of the fine
    triangles is child ``c`` of triangle ``t``.  The fine mesh inherits its edge
    table and boundary flags from the parent's, with no sort: fine edge
    ``2e + s`` is the half of edge ``e`` at its endpoint ``edges[e, s]``,
    fine edge ``2E + 3t + k`` joins the midpoints of local pairs ``k`` and
    ``k + 1`` of triangle ``t``, and a midpoint is a boundary vertex when
    its edge has one owner.  Child areas are not checked; see
    :func:`build_hierarchy`.
    """
    tri = mesh.triangles
    nv, nt = mesh.n_vertices, mesh.n_triangles
    edges, triangle_edges = mesh.edges, mesh.triangle_edges
    ne = edges.shape[0]

    ends = [mesh.vertices.take(edges[:, k], axis=0) for k in range(2)]
    midpoints = 0.5 * (ends[0] + ends[1])
    fine_vertices = np.concatenate([mesh.vertices, midpoints])

    # Row 4t + c is child c of triangle t: child c < 3 keeps corner c, child
    # 3 is the triangle of midpoints.  Siblings stay together so that the
    # triangle order, and the edges and midpoints numbered from it, stay
    # local in space; with child-major rows a fine-level matrix-vector
    # product touches about 1.4x as many cache lines of its input.
    mid = nv + triangle_edges
    children = _children(tri.T, mid.T)

    # The half of pair k's edge e at corner k is 2e + s, s = 0 when corner k
    # is the smaller endpoint; the half at corner k + 1 is the other one.
    at_first = 2 * triangle_edges + (tri > tri[:, [1, 2, 0]])
    at_second = at_first ^ 1
    inner = 2 * ne + np.arange(3 * nt, dtype=np.int32).reshape(nt, 3)
    children_edges = np.stack(
        [
            np.column_stack([at_first[:, c], inner[:, c - 1], at_second[:, c - 1]])
            for c in range(3)
        ]
        + [inner],
        axis=1,
    ).reshape(-1, 3)
    halves = np.column_stack(
        [edges.ravel(), np.repeat(np.arange(nv, nv + ne, dtype=np.int32), 2)]
    )
    next_mid = mid[:, [1, 2, 0]]
    inner_edges = np.stack([np.minimum(mid, next_mid), np.maximum(mid, next_mid)], axis=-1)
    fine_edges = np.concatenate([halves, inner_edges.reshape(-1, 2)])
    owners = np.bincount(triangle_edges.ravel(), minlength=ne)
    boundary = np.concatenate([mesh.boundary_vertex, owners == 1])
    return _frozen_mesh(fine_vertices, children, boundary, fine_edges, children_edges)


def _interpolation(coarse: Mesh, columns: np.ndarray, rows: np.ndarray) -> sp.csr_array:
    """P1 interpolation from ``coarse`` onto its refinement, restricted to the
    increasing vertex ids ``columns`` of ``coarse`` and ``rows`` of the fine
    mesh (whose retained coarse vertices are ``columns``): vertex ``i < V``
    keeps its value, midpoint ``V + e`` takes 1/2 from each endpoint
    ``u < v`` of ``coarse.edges[e]`` that is a column, so rows come sorted.
    """
    n = len(columns)
    column = np.full(coarse.n_vertices, -1, dtype=np.int32)
    column[columns] = np.arange(n)
    ends = column.take(coarse.edges.take(rows[n:] - coarse.n_vertices, axis=0))
    kept = ends >= 0
    indptr = np.concatenate([np.arange(n + 1), n + np.cumsum(kept.sum(axis=1))], dtype=np.int32)
    indices = np.concatenate([np.arange(n), ends[kept]], dtype=np.int32)
    vals = np.concatenate([np.ones(n), np.full(len(indices) - n, 0.5)])
    return sp.csr_array((vals, indices, indptr), shape=(len(rows), n))


def build_hierarchy(coarse: Mesh, n_levels: int) -> MeshHierarchy:
    """Refine ``coarse`` ``n_levels - 1`` times into a nested hierarchy.

    Before any refinement, projected vertex counts are checked against
    :data:`MAX_VERTICES` (a sizing error, not exhausted memory), and a coarse
    triangle is refused if rounding could turn a descendant over.  Level k of
    a triangle with area A, perimeter P and largest coordinate magnitude R
    has exact areas A/4**k and perimeters P_k = P/2**k; each midpoint adds at
    most u R (u = 2**-53) to its ends' error, so corners are within k u R of
    exact per coordinate, moving a doubled area by at most sqrt(2) k u R P_k.
    Evaluating one (|d1| |d2| <= sqrt(2) R P_k) flips its sign only below
    3 sqrt(2) u R P_k, and errs by 3 sqrt(2) u R P for the coarse area.  So
    level-k areas stay positive if 2A/4**k > sqrt(2) u R P (k + 3 + 3/2**k) /
    2**k, implied for k >= 1 by (A/P)/2**k > (k + 4.5) u R / sqrt(2): the
    finest k decides, and the check demands 2 (k + 5) u R, about 3x that.
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
    k, corners = n_levels - 1, coarse.vertices.take(coarse.triangles, axis=0)
    perimeter = np.hypot(*(corners - corners[:, [1, 2, 0]]).T).sum(axis=0)
    rounding = (k + 5) * np.finfo(float).eps / 2 * np.abs(corners).max(axis=(1, 2))
    thin = triangle_areas(coarse) / perimeter / 2**k <= 2.0 * rounding
    if k > 0 and thin.any():
        first = np.argmax(thin)
        raise ValueError("coarse triangle %d is too thin to refine %d times" % (first, k))

    meshes = [coarse]
    for _ in range(n_levels - 1):
        meshes.append(refine_regular(meshes[-1]))
    return MeshHierarchy(meshes)


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Positive area of every triangle."""
    return 0.5 * _signed_doubled_areas(mesh.vertices, mesh.triangles)
