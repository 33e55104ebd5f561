import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fmgeig as fg
from fmgeig import mesh as mesh_module
from fmgeig.errors import MeshFormatError

from conftest import benchmark_mesh, mesh_text, shuffled_meshes, vertex_prolongations


def edge_counts(mesh):
    raw = np.concatenate(
        [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]
    )
    raw.sort(axis=1)
    _, counts = np.unique(raw, axis=0, return_counts=True)
    return counts


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


def benchmark_style_mesh(nx=8, seed=1):
    """Loaded criss-cross square whose interior vertices move by a vector
    drawn uniformly from the disc of radius 0.05 h."""
    mesh = fg.unit_square_mesh(nx)
    rng = np.random.default_rng(seed)
    radius = 0.05 / nx * np.sqrt(rng.uniform(size=mesh.n_vertices))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=mesh.n_vertices)
    shift = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    shift[mesh.boundary_vertex] = 0.0
    return fg.load_mesh(mesh_text(mesh.vertices + shift, mesh.triangles))


def refined_with_prolongation(mesh):
    """The refined mesh and the prolongation onto it, from a 2-level hierarchy."""
    hierarchy = fg.build_hierarchy(mesh, 2)
    return hierarchy.meshes[1], vertex_prolongations(hierarchy)[0]


def edge_keys(mesh):
    """The edge set as sorted packed keys ``u * nv + v``."""
    return np.sort(mesh.edges[:, 0].astype(np.int64) * mesh.n_vertices + mesh.edges[:, 1])


def edges_on_square_sides(mesh):
    """Flags of the edges with both endpoints on one side of the unit square."""
    ends = mesh.vertices[mesh.edges]
    on_side = np.zeros(len(mesh.edges), dtype=bool)
    for axis in (0, 1):
        for value in (0.0, 1.0):
            on_side |= (ends[:, :, axis] == value).all(axis=1)
    return on_side


def triangle_set(mesh):
    """Triangles as rows rotated to start at their smallest vertex, sorted."""
    tri = mesh.triangles
    start = np.argmin(tri, axis=1)[:, None]
    tri = np.take_along_axis(tri, (start + np.arange(3)) % 3, axis=1)
    return tri[np.lexsort(tri.T[::-1])]


# Meshes whose edge table comes from mesh._edge_table, and refined ones,
# which inherit theirs from the parent.
SORTED_TABLE_MESHES = ["square4", "loaded_perturbed", "hierarchy_level0"]
INHERITED_TABLE_MESHES = ["hierarchy_level%d" % k for k in range(1, 4)]


@pytest.fixture(params=SORTED_TABLE_MESHES + INHERITED_TABLE_MESHES)
def table_mesh(request):
    return make_table_mesh(request.param)


def make_table_mesh(name):
    if name == "square4":
        return fg.unit_square_mesh(4)
    if name == "loaded_perturbed":
        return shuffled_perturbed_mesh()
    level = int(name[-1])
    return fg.build_hierarchy(shuffled_perturbed_mesh(3), 4).meshes[level]


HIERARCHY_COARSE_MESHES = {
    "shuffled_perturbed3": lambda: shuffled_perturbed_mesh(3),
    "square4": lambda: fg.unit_square_mesh(4),
    "benchmark_style": benchmark_style_mesh,
}


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

    def test_vertex_cap_before_allocation(self):
        # square:1414 is the first above the cap, at 1415**2 = 2,002,225
        # vertices; its coordinates alone would take 32 MB.
        assert 1415**2 > mesh_module.MAX_VERTICES >= 1414**2
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="cap"):
                fg.unit_square_mesh(1414)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 100_000

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

    def test_first_flat_triangle_named_by_its_line(self):
        # Triangles 1 (flat) and 2 (clockwise) are bad; a comment line sits
        # between them and the vertices.
        text = "4 3\n0 0\n1 0\n0 1\n2 0\n# triangles\n0 1 2\n0 1 3\n0 2 1\n"
        with pytest.raises(MeshFormatError, match="line 8"):
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

    def test_vertex_without_triangle_rejected(self):
        # The unit square in two triangles, with two more vertices beside it.
        text = "6 2\n0 0\n1 0\n1 1\n0 1\n2 0\n2 1\n0 1 2\n0 2 3\n"
        with pytest.raises(MeshFormatError, match="vertex 4 is not a corner of any triangle"):
            fg.load_mesh(text)

    def test_build_mesh_names_the_first_unused_vertex(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [0.0, 1.0], [6.0, 6.0]])
        with pytest.raises(ValueError, match="^vertex 2 is not a corner of any triangle$"):
            mesh_module._build_mesh(vertices, np.array([[0, 1, 3]]))

    def test_nonconforming_rejected(self):
        # Three positively oriented triangles all sharing edge (0, 1).
        text = "5 3\n0 0\n1 0\n0 1\n0 -1\n0.5 0.5\n0 1 2\n0 3 1\n0 1 4\n"
        with pytest.raises(MeshFormatError, match=r"edge \(0, 1\)"):
            fg.load_mesh(text)

    def test_repeated_triangle_rejected(self):
        # Both copies traverse all three edges in the same direction; without
        # the check every vertex would count as interior.
        text = "3 2\n0 0\n1 0\n0 1\n0 1 2\n0 1 2\n"
        with pytest.raises(MeshFormatError, match=r"edge \(0, 1\) is traversed twice"):
            fg.load_mesh(text)

    def test_folded_mesh_rejected(self):
        # Two triangles on the same side of edge (0, 1) overlap; without the
        # check the edge would count as interior.
        text = "4 2\n0 0\n1 0\n0 1\n0.2 0.5\n0 1 2\n0 1 3\n"
        with pytest.raises(MeshFormatError, match=r"edge \(0, 1\) is traversed twice"):
            fg.load_mesh(text)


class TestEdgeTable:
    def test_edges_unique_ordered_pairs(self, table_mesh):
        # Any order: refined meshes keep their parent's, not a sorted one.
        edges = table_mesh.edges
        assert edges.dtype == np.int32
        assert np.all(edges[:, 0] < edges[:, 1])
        keys = edge_keys(table_mesh)
        assert np.all(keys[1:] > keys[:-1])

    @pytest.mark.parametrize("name", SORTED_TABLE_MESHES)
    def test_edges_unique_and_lexicographic(self, name):
        edges = make_table_mesh(name).edges
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
        on_side = edges_on_square_sides(mesh)
        assert np.array_equal(owners == 1, on_side)
        flags = np.zeros(mesh.n_vertices, dtype=bool)
        flags[mesh.edges[owners == 1].ravel()] = True
        assert np.array_equal(flags, mesh.boundary_vertex)


class TestRefineRegular:
    def test_single_triangle_split(self):
        mesh = fg.load_mesh("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
        fine = fg.refine_regular(mesh)
        assert fine.n_vertices == 6
        assert fine.n_triangles == 4

    def test_vertex_and_triangle_counts(self):
        fine = fg.refine_regular(fg.unit_square_mesh(2))
        assert fine.n_vertices == 25  # V + E = 9 + 16
        assert fine.n_triangles == 32

    def test_orientation_and_conformity_preserved(self):
        fine = fg.refine_regular(fg.unit_square_mesh(3))
        assert np.all(fg.triangle_areas(fine) > 0.0)
        assert np.all(np.isin(edge_counts(fine), (1, 2)))

    def test_area_preserved(self):
        mesh = fg.load_mesh("3 1\n0 0\n1 0.25\n-0.125 1\n0 1 2\n")
        fine = fg.refine_regular(mesh)
        coarse_area = fg.triangle_areas(mesh).sum()
        rel = abs(fg.triangle_areas(fine).sum() - coarse_area) / coarse_area
        assert rel <= 1e-13

    def test_prolongation_structure(self):
        mesh = fg.unit_square_mesh(2)
        fine, op = refined_with_prolongation(mesh)
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
        fine, op = refined_with_prolongation(mesh)
        fine_permuted, op_permuted = refined_with_prolongation(permuted)
        assert np.array_equal(fine.vertices, fine_permuted.vertices)
        assert np.array_equal(triangle_set(fine), triangle_set(fine_permuted))
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(op, attr), getattr(op_permuted, attr))
        assert op.has_canonical_format

    def test_prolongation_reproduces_linears_exactly(self):
        mesh = fg.unit_square_mesh(2)
        fine, op = refined_with_prolongation(mesh)
        coarse_vals = mesh.vertices[:, 0] + mesh.vertices[:, 1]
        fine_vals = fine.vertices[:, 0] + fine.vertices[:, 1]
        assert np.array_equal(op @ coarse_vals, fine_vals)


class TestRefinementProperties:
    """Nested refinement of random perturbed, vertex-shuffled meshes."""

    @settings(max_examples=15)
    @given(mesh=shuffled_meshes(st.integers(1, 4)))
    def test_descendants_lie_in_their_ancestor(self, mesh):
        # Row 4**k t + i of level k descends from coarse triangle t: its
        # centroid has barycentric coordinates in [0, 1] in triangle t.
        hierarchy = fg.build_hierarchy(mesh, 3)
        for k, fine in enumerate(hierarchy.meshes[1:], start=1):
            centroid = fine.vertices[fine.triangles].mean(axis=1)
            c0, c1, c2 = np.repeat(mesh.vertices[mesh.triangles], 4**k, axis=0).transpose(1, 0, 2)
            sides = np.stack([c1 - c0, c2 - c0], axis=2)
            l12 = np.linalg.solve(sides, (centroid - c0)[..., None])[..., 0]
            bary = np.column_stack([1.0 - l12.sum(axis=1), l12])
            assert bary.min() >= 0.0 and bary.max() <= 1.0

    @settings(max_examples=15)
    @given(
        mesh=shuffled_meshes(st.integers(1, 4)),
        coef=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    )
    def test_prolongations_reproduce_linears(self, mesh, coef):
        # Exact up to the round-off of the midpoint coordinates.
        def linear(vertices):
            return coef[0] + coef[1] * vertices[:, 0] + coef[2] * vertices[:, 1]

        hierarchy = fg.build_hierarchy(mesh, 3)
        bound = 1e-14 * (1.0 + sum(abs(c) for c in coef))
        meshes = hierarchy.meshes
        for op, coarse, fine in zip(vertex_prolongations(hierarchy), meshes, meshes[1:]):
            assert np.abs(op @ linear(coarse.vertices) - linear(fine.vertices)).max() <= bound

    @settings(max_examples=10)
    @given(mesh=shuffled_meshes(st.integers(1, 4)))
    def test_levels_conform_with_spd_pencils(self, mesh):
        # Every level stays conforming: an edge inside the square has two
        # owners and one on its sides (whose vertices never move) has one, and
        # the inherited edge set is the one _edge_table finds in the level's
        # triangles.  The interior pencil of both problems is exactly
        # symmetric and positive definite.
        problems = (fg.laplace_coefficients(), fg.general_problem().coefficients)
        for level in fg.build_hierarchy(mesh, 3).meshes:
            owners = np.bincount(level.triangle_edges.ravel(), minlength=len(level.edges))
            assert np.array_equal(owners, np.where(edges_on_square_sides(level), 1, 2))
            table, _, counts = mesh_module._edge_table(level.triangles, level.n_vertices)
            order = np.lexsort(level.edges.T[::-1])  # _edge_table's lexicographic order
            assert np.array_equal(level.edges[order], table)
            assert np.array_equal(owners[order], counts)
            dofmap = fg.interior_dofmap(level)
            for coeff in problems:
                for matrix in fg.assemble_pencil(level, dofmap, coeff):
                    dense = matrix.toarray()
                    assert np.array_equal(dense, dense.T)
                    fg.cholesky_dense(dense)


def check_areas(vertices, triangles):
    """The child area check :func:`refine_regular` made on every level before
    :func:`build_hierarchy` checked the coarse shapes instead: the oracle."""
    nonpositive = mesh_module._signed_doubled_areas(vertices, triangles) <= 0.0
    if nonpositive.any():
        raise ValueError(
            "triangle %d has non-positive area (orientation?)" % np.argmax(nonpositive)
        )


@st.composite
def sliver_meshes(draw):
    """One triangle whose apex sits 2**-55 to 2**-20 base lengths off its
    base, up to 1e6 from the origin: near-degenerate enough for rounding
    to turn some of its descendants over."""
    angle = st.floats(0.0, 2.0 * np.pi)
    where, turn = draw(angle), draw(angle)
    offset = 10.0 ** draw(st.floats(0.0, 6.0)) * np.array([np.cos(where), np.sin(where)])
    base = 10.0 ** draw(st.floats(-3.0, 0.0)) * np.array([np.cos(turn), np.sin(turn)])
    height = 2.0 ** draw(st.floats(-55.0, -20.0))
    apex = offset + draw(st.floats(0.0, 1.0)) * base + height * np.array([-base[1], base[0]])
    vertices = np.array([offset, offset + base, apex])
    triangles = np.array([[0, 1, 2]])
    assume(mesh_module._signed_doubled_areas(vertices, triangles)[0] > 0.0)
    return mesh_module._build_mesh(vertices, triangles)


class TestCoarseShapeCheck:
    """build_hierarchy refuses, before refining, a coarse triangle whose
    descendants rounding could turn over, in place of a check per level."""

    @settings(max_examples=300)
    @given(mesh=sliver_meshes(), n_levels=st.integers(2, 7))
    def test_refuses_every_mesh_the_per_level_check_refuses(self, mesh, n_levels):
        try:
            hierarchy = fg.build_hierarchy(mesh, n_levels)
        except ValueError as exc:
            assert "too thin" in str(exc)
            return
        for level in hierarchy.meshes[1:]:
            check_areas(level.vertices, level.triangles)

    def test_refuses_a_sliver_the_per_level_check_refuses(self):
        # A unit base 1e3 from the origin, the apex 3e-13 above its middle:
        # the per-level check turned a level-2 child over.
        vertices = np.array([[1e3, 1e3], [1e3 + 1.0, 1e3], [1e3 + 0.5, 1e3 + 3e-13]])
        mesh = mesh_module._build_mesh(vertices, np.array([[0, 1, 2]]))
        level2 = fg.refine_regular(fg.refine_regular(mesh))
        with pytest.raises(ValueError, match="non-positive area"):
            check_areas(level2.vertices, level2.triangles)
        with pytest.raises(ValueError, match="coarse triangle 0 is too thin to refine 2 times"):
            fg.build_hierarchy(mesh, 3)
        assert fg.build_hierarchy(mesh, 1).n_levels == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_benchmark_meshes_pass_at_eight_levels(self, seed, monkeypatch):
        # 1.05M projected vertices, under the cap; the check comes first, so
        # refinement is stubbed out.
        monkeypatch.setattr(mesh_module, "refine_regular", lambda mesh: mesh)
        assert fg.build_hierarchy(benchmark_mesh(seed), 8).n_levels == 8


class TestInheritedTables:
    """Refined meshes inherit their tables; a twin rebuilt from the vertices
    and triangles alone must agree with them."""

    @pytest.mark.parametrize("name", sorted(HIERARCHY_COARSE_MESHES))
    def test_every_level_matches_rebuilt_twin(self, name):
        hierarchy = fg.build_hierarchy(HIERARCHY_COARSE_MESHES[name](), 4)
        problems = (fg.laplace_coefficients(), fg.general_problem().coefficients)
        for mesh in hierarchy.meshes:
            twin = mesh_module._build_mesh(mesh.vertices, mesh.triangles)
            assert np.array_equal(edge_keys(mesh), edge_keys(twin))
            assert len(mesh.edges) == len(twin.edges)
            for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
                expected = np.sort(mesh.triangles[:, [a, b]], axis=1)
                assert np.array_equal(mesh.edges[mesh.triangle_edges[:, k]], expected)
            assert np.array_equal(mesh.boundary_vertex, twin.boundary_vertex)
            dofmap = fg.interior_dofmap(mesh)
            for coeff in problems:
                got = fg.assemble_pencil(mesh, dofmap, coeff)
                ref = fg.assemble_pencil(twin, dofmap, coeff)
                for one, other in zip(got, ref):
                    assert np.array_equal(one.indptr, other.indptr)
                    assert np.array_equal(one.indices, other.indices)
                    assert one.data.tobytes() == other.data.tobytes()

    def test_refinement_does_not_sort_edges(self, monkeypatch):
        coarse = shuffled_perturbed_mesh(3)

        def forbidden(*args):
            raise AssertionError("refine_regular rebuilt the edge table")

        monkeypatch.setattr(mesh_module, "_edge_table", forbidden)
        hierarchy = fg.build_hierarchy(coarse, 3)
        assert hierarchy.meshes[-1].n_triangles == 16 * coarse.n_triangles


class TestBuildHierarchy:
    def test_single_level(self):
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 1)
        assert hier.n_levels == 1
        assert vertex_prolongations(hier) == []

    def test_vertex_counts(self):
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 3)
        assert [m.n_vertices for m in hier.meshes] == [9, 25, 81]

    def test_mesh_size_halves(self):
        # The four children of triangle t (rows 4t to 4t + 3) are similar
        # to it at ratio 1/2, so each has a quarter of its area.
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 3)
        for coarse, fine in zip(hier.meshes, hier.meshes[1:]):
            parent = np.repeat(fg.triangle_areas(coarse), 4)
            assert np.abs(fg.triangle_areas(fine) / parent - 0.25).max() < 1e-12

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            fg.build_hierarchy(fg.unit_square_mesh(2), 0)

    def test_sizing_cap_before_allocation(self):
        with pytest.raises(ValueError, match="cap"):
            fg.build_hierarchy(fg.unit_square_mesh(2), 12)

    def test_composed_prolongation_row_sums(self):
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 4)
        ops = vertex_prolongations(hier)
        composed = ops[0]
        for op in ops[1:]:
            composed = op @ composed
        assert composed.shape == (hier.meshes[3].n_vertices, 9)
        sums = np.asarray(composed.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() <= 1e-14

    def test_levels_recorded(self):
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 3)
        assert [m.n_triangles for m in hier.meshes] == [8, 32, 128]
