import numpy as np
import pytest

import fmgeig as fg
from fmgeig.errors import MeshFormatError


def edge_counts(mesh):
    raw = np.concatenate(
        [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]
    )
    raw.sort(axis=1)
    _, counts = np.unique(raw, axis=0, return_counts=True)
    return counts


def mesh_text(vertices, triangles):
    lines = ["%d %d" % (len(vertices), len(triangles))]
    lines += ["%.17g %.17g" % (x, y) for x, y in vertices]
    lines += ["%d %d %d" % tuple(t) for t in triangles]
    return "\n".join(lines) + "\n"


def shuffled_perturbed_mesh(nx=5, seed=0):
    """Loaded unit square mesh: interior vertices moved by up to 0.2 h,
    triangles in random order, each with its corners rotated at random."""
    mesh = fg.unit_square_mesh(nx)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-0.2 / nx, 0.2 / nx, mesh.vertices.shape)
    shift[mesh.boundary_vertex] = 0.0
    tri = mesh.triangles[rng.permutation(mesh.n_triangles)]
    turns = (np.arange(3) + rng.integers(0, 3, (len(tri), 1))) % 3
    tri = np.take_along_axis(tri, turns, axis=1)
    return fg.load_mesh(mesh_text(mesh.vertices + shift, tri))


def triangle_set(mesh):
    """Triangles as rows rotated to start at their smallest vertex, sorted."""
    tri = mesh.triangles
    start = np.argmin(tri, axis=1)[:, None]
    tri = np.take_along_axis(tri, (start + np.arange(3)) % 3, axis=1)
    return tri[np.lexsort(tri.T[::-1])]


@pytest.fixture(
    params=["square4", "loaded_perturbed"] + ["hierarchy_level%d" % k for k in range(4)]
)
def table_mesh(request):
    if request.param == "square4":
        return fg.unit_square_mesh(4)
    if request.param == "loaded_perturbed":
        return shuffled_perturbed_mesh()
    level = int(request.param[-1])
    return fg.build_hierarchy(shuffled_perturbed_mesh(3), 4).meshes[level]


class TestUnitSquareMesh:
    def test_single_cell(self):
        mesh = fg.unit_square_mesh(1)
        assert mesh.n_vertices == 4
        assert mesh.n_triangles == 2

    def test_counts_nx2(self):
        mesh = fg.unit_square_mesh(2)
        assert mesh.n_vertices == 9
        assert mesh.n_triangles == 8
        assert int(mesh.boundary_vertex.sum()) == 8

    def test_area_partition(self):
        mesh = fg.unit_square_mesh(4)
        assert abs(fg.triangle_areas(mesh).sum() - 1.0) < 1e-14

    def test_rejects_nx0(self):
        with pytest.raises(ValueError):
            fg.unit_square_mesh(0)

    @pytest.mark.parametrize("nx", [1, 2, 3, 5])
    def test_conforming_and_oriented(self, nx):
        mesh = fg.unit_square_mesh(nx)
        assert np.all(fg.triangle_areas(mesh) > 0.0)
        assert np.all(np.isin(edge_counts(mesh), (1, 2)))


class TestLoadMesh:
    def test_single_triangle(self):
        mesh = fg.load_mesh("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
        assert mesh.n_vertices == 3
        assert mesh.n_triangles == 1
        assert int(mesh.boundary_vertex.sum()) == 3

    def test_out_of_range_index(self):
        text = "3 1\n0 0\n1 0\n0 1\n0 1 99\n"
        with pytest.raises(MeshFormatError, match="line 5"):
            fg.load_mesh(text)

    def test_negative_area_triangle(self):
        text = "3 1\n0 0\n1 0\n0 1\n0 2 1\n"
        with pytest.raises(MeshFormatError, match="line 5"):
            fg.load_mesh(text)

    def test_bad_header(self):
        with pytest.raises(MeshFormatError, match="line 1"):
            fg.load_mesh("3\n0 0\n1 0\n0 1\n0 1 2\n")

    def test_non_numeric_coordinate(self):
        with pytest.raises(MeshFormatError, match="line 3"):
            fg.load_mesh("3 1\n0 0\nx 0\n0 1\n0 1 2\n")

    def test_wrong_record_count(self):
        with pytest.raises(MeshFormatError):
            fg.load_mesh("3 2\n0 0\n1 0\n0 1\n0 1 2\n")

    def test_nonconforming_rejected(self):
        # Three positively oriented triangles all sharing edge (0, 1).
        text = "5 3\n0 0\n1 0\n0 1\n0 -1\n0.5 0.5\n0 1 2\n0 3 1\n0 1 4\n"
        with pytest.raises(MeshFormatError):
            fg.load_mesh(text)


class TestEdgeTable:
    def test_edges_unique_and_lexicographic(self, table_mesh):
        edges = table_mesh.edges
        assert edges.dtype == np.int32
        assert np.all(edges[:, 0] < edges[:, 1])
        first, second = edges[:-1], edges[1:]
        assert np.all(
            (second[:, 0] > first[:, 0])
            | ((second[:, 0] == first[:, 0]) & (second[:, 1] > first[:, 1]))
        )

    def test_triangle_edges_name_the_local_pairs(self, table_mesh):
        mesh = table_mesh
        assert mesh.triangles.dtype == mesh.triangle_edges.dtype == np.int32
        for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            expected = np.sort(mesh.triangles[:, [a, b]], axis=1)
            assert np.array_equal(mesh.edges[mesh.triangle_edges[:, k]], expected)

    def test_single_owner_edges_set_the_boundary(self, table_mesh):
        # Every mesh here covers the unit square with its boundary vertices
        # unmoved, so an edge lies on the boundary exactly when both of its
        # endpoints sit on the same side.
        mesh = table_mesh
        owners = np.bincount(mesh.triangle_edges.ravel(), minlength=len(mesh.edges))
        assert owners.min() >= 1 and owners.max() <= 2
        ends = mesh.vertices[mesh.edges]
        on_side = np.zeros(len(mesh.edges), dtype=bool)
        for axis in (0, 1):
            for value in (0.0, 1.0):
                on_side |= (ends[:, :, axis] == value).all(axis=1)
        assert np.array_equal(owners == 1, on_side)
        flags = np.zeros(mesh.n_vertices, dtype=bool)
        flags[mesh.edges[owners == 1].ravel()] = True
        assert np.array_equal(flags, mesh.boundary_vertex)


class TestRefineRegular:
    def test_single_triangle_split(self):
        mesh = fg.load_mesh("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
        fine, _ = fg.refine_regular(mesh)
        assert fine.n_vertices == 6
        assert fine.n_triangles == 4

    def test_vertex_and_triangle_counts(self):
        fine, _ = fg.refine_regular(fg.unit_square_mesh(2))
        assert fine.n_vertices == 25  # V + E = 9 + 16
        assert fine.n_triangles == 32

    def test_orientation_and_conformity_preserved(self):
        fine, _ = fg.refine_regular(fg.unit_square_mesh(3))
        assert np.all(fg.triangle_areas(fine) > 0.0)
        assert np.all(np.isin(edge_counts(fine), (1, 2)))

    def test_area_preserved(self):
        mesh = fg.load_mesh("3 1\n0 0\n1 0.25\n-0.125 1\n0 1 2\n")
        fine, _ = fg.refine_regular(mesh)
        coarse_area = fg.triangle_areas(mesh).sum()
        rel = abs(fg.triangle_areas(fine).sum() - coarse_area) / coarse_area
        assert rel <= 1e-13

    def test_prolongation_structure(self):
        mesh = fg.unit_square_mesh(2)
        fine, op = fg.refine_regular(mesh)
        assert op.shape == (fine.n_vertices, mesh.n_vertices)
        dense = op.toarray()
        sums = dense.sum(axis=1)
        assert np.array_equal(sums, np.ones(fine.n_vertices))
        # Retained coarse vertices: a single unit entry.
        for row in range(mesh.n_vertices):
            entries = dense[row][dense[row] != 0.0]
            assert np.array_equal(entries, [1.0])
        # Midpoint vertices: exactly two entries of one half.
        for row in range(mesh.n_vertices, fine.n_vertices):
            entries = dense[row][dense[row] != 0.0]
            assert np.array_equal(entries, [0.5, 0.5])

    def test_independent_of_parent_triangle_order(self):
        mesh = shuffled_perturbed_mesh()
        order = np.random.default_rng(1).permutation(mesh.n_triangles)
        permuted = fg.load_mesh(mesh_text(mesh.vertices, mesh.triangles[order]))
        fine, op = fg.refine_regular(mesh)
        fine_permuted, op_permuted = fg.refine_regular(permuted)
        assert np.array_equal(fine.vertices, fine_permuted.vertices)
        assert np.array_equal(triangle_set(fine), triangle_set(fine_permuted))
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(op, attr), getattr(op_permuted, attr))
        assert op.has_canonical_format

    def test_prolongation_reproduces_linears_exactly(self):
        mesh = fg.unit_square_mesh(2)
        fine, op = fg.refine_regular(mesh)
        coarse_vals = mesh.vertices[:, 0] + mesh.vertices[:, 1]
        fine_vals = fine.vertices[:, 0] + fine.vertices[:, 1]
        assert np.array_equal(op @ coarse_vals, fine_vals)


class TestBuildHierarchy:
    def test_single_level(self):
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 1)
        assert hier.n_levels == 1
        assert hier.prolongations == []

    def test_vertex_counts(self):
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 3)
        assert [m.n_vertices for m in hier.meshes] == [9, 25, 81]

    def test_mesh_size_halves(self):
        # The four children of triangle t (rows t, t + nt, t + 2nt, t + 3nt)
        # are similar to it at ratio 1/2, so each has a quarter of its area.
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 3)
        for coarse, fine in zip(hier.meshes, hier.meshes[1:]):
            parent = np.tile(fg.triangle_areas(coarse), 4)
            assert np.abs(fg.triangle_areas(fine) / parent - 0.25).max() < 1e-12

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            fg.build_hierarchy(fg.unit_square_mesh(2), 0)

    def test_sizing_cap_before_allocation(self):
        with pytest.raises(ValueError, match="cap"):
            fg.build_hierarchy(fg.unit_square_mesh(2), 12)

    def test_composed_prolongation_row_sums(self):
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 4)
        composed = hier.prolongations[0]
        for op in hier.prolongations[1:]:
            composed = op @ composed
        assert composed.shape == (hier.meshes[3].n_vertices, 9)
        sums = np.asarray(composed.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() <= 1e-14

    def test_levels_recorded(self):
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 3)
        assert [m.n_triangles for m in hier.meshes] == [8, 32, 128]
