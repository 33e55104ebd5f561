import numpy as np
import pytest

import fmgeig as fg
from fmgeig.errors import MeshFormatError


def canonical_form(mesh):
    """Vertex-order independent representation: sorted coordinate triangles."""
    tri_coords = mesh.vertices[mesh.triangles]
    tri_coords = np.sort(tri_coords.reshape(-1, 6), axis=1)
    order = np.lexsort(tri_coords.T)
    return tri_coords[order]


def edge_counts(mesh):
    raw = np.concatenate(
        [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]
    )
    raw.sort(axis=1)
    _, counts = np.unique(raw, axis=0, return_counts=True)
    return counts


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

    def test_roundtrip_matches_generator(self):
        original = fg.unit_square_mesh(2)
        reloaded = fg.load_mesh(fg.save_mesh(original))
        assert np.array_equal(canonical_form(original), canonical_form(reloaded))
        assert int(reloaded.boundary_vertex.sum()) == 8

    def test_roundtrip_preserves_coordinates_exactly(self):
        mesh = fg.unit_square_mesh(3)
        reloaded = fg.load_mesh(fg.save_mesh(mesh))
        assert np.array_equal(mesh.vertices, reloaded.vertices)
        assert np.array_equal(mesh.triangles, reloaded.triangles)


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
        assert [m.level for m in hier.meshes] == [0, 1, 2]
