import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import fmgeig as fg
from fmgeig.errors import AssemblyError, NotPositiveDefiniteError

from conftest import first_eigenfunction, shuffled_meshes, shuffled_square_mesh

REFERENCE_TRIANGLE = "3 1\n0 0\n1 0\n0 1\n0 1 2\n"


def rho_weighted(x, y):
    return 1.0 + (x - 0.5) * (y - 0.5)


def perturbed_square_mesh(nx, seed=0):
    # Interior vertices move by up to 0.2 h; the boundary stays put.
    mesh = fg.unit_square_mesh(nx)
    shift = np.random.default_rng(seed).uniform(-0.2 / nx, 0.2 / nx, mesh.vertices.shape)
    shift[mesh.boundary_vertex] = 0.0
    return dataclasses.replace(mesh, vertices=mesh.vertices + shift)


def loop_pencil(mesh, coeff):
    """Dense stiffness and mass by a plain loop over triangles and midpoints."""
    n = mesh.n_vertices
    stiffness, mass = np.zeros((n, n)), np.zeros((n, n))
    for tri in mesh.triangles:
        corners = mesh.vertices[tri]
        # Column i holds (c, gx, gy) of the hat function c + gx x + gy y of corner i.
        hats = np.linalg.inv(np.column_stack([np.ones(3), corners]))
        area = 0.5 * abs(np.linalg.det(np.column_stack([np.ones(3), corners])))
        for k in range(3):
            x, y = 0.5 * (corners[k] + corners[(k + 1) % 3])
            px, py = np.array([x]), np.array([y])
            tensor = np.broadcast_to(coeff.a(px, py), (1, 2, 2))[0]
            phi = float(np.broadcast_to(coeff.phi(px, py), (1,))[0])
            rho = float(np.broadcast_to(coeff.rho(px, py), (1,))[0])
            values = hats[0] + hats[1] * x + hats[2] * y
            for i in range(3):
                for j in range(3):
                    grad_term = hats[1:, i] @ tensor @ hats[1:, j]
                    product = values[i] * values[j]
                    stiffness[tri[i], tri[j]] += area / 3.0 * (grad_term + phi * product)
                    mass[tri[i], tri[j]] += area / 3.0 * rho * product
    return stiffness, mass


@st.composite
def constant_spd_tensors(draw):
    a, c = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    b = draw(st.floats(-0.95, 0.95)) * np.sqrt(a * c)
    return np.array([[a, b], [b, c]])


# Field of CoefficientField -> (name in error messages, a constant value).
COEFFICIENTS = {
    "a": ("diffusion", np.array([[2.0, 0.5], [0.5, 1.0]])),
    "phi": ("reaction", 3.0),
    "rho": ("mass weight", 2.0),
}


def per_point(value):
    """The constant ``value`` returned as one copy per evaluation point."""
    return lambda x, y: np.broadcast_to(value, x.shape + np.shape(value)).copy()


def with_coefficient(field, func):
    return dataclasses.replace(fg.laplace_coefficients(), **{field: func})


# square1 and square2 have interior edges whose endpoints both lie on the
# boundary (the diagonal of square1, the corner diagonals of square2), which
# elimination must drop.
LOOP_MESHES = {
    "perturbed4": lambda: perturbed_square_mesh(4),
    "square1": lambda: fg.unit_square_mesh(1),
    "square2": lambda: fg.unit_square_mesh(2),
}


class TestAssemblePencil:
    @pytest.mark.parametrize("interior", [False, True])
    @pytest.mark.parametrize("mesh_name", sorted(LOOP_MESHES))
    def test_matches_unfolded_triangle_loop(self, mesh_name, interior):
        # Variable tensor, reaction and mass weight.
        mesh = LOOP_MESHES[mesh_name]()
        coeff = fg.general_problem().coefficients
        dofmap = fg.interior_dofmap(mesh) if interior else None
        expected = loop_pencil(mesh, coeff)
        if interior:
            keep = np.ix_(dofmap, dofmap)
            expected = tuple(matrix[keep] for matrix in expected)
        stiffness, mass = fg.assemble_pencil(mesh, dofmap, coeff)
        for got, ref in zip((stiffness, mass), expected):
            assert got.shape == ref.shape
            assert got.has_canonical_format
            scale = np.abs(ref).max(initial=0.0)
            assert np.abs(got.toarray() - ref).max(initial=0.0) <= 1e-14 * scale
        # Every mass entry of the pattern is positive, so the stored pattern
        # is exactly the loop's nonzeros: dropped edges leave nothing behind.
        assert mass.nnz == np.count_nonzero(expected[1])
        assert np.array_equal(stiffness.indices, mass.indices)

    @settings(max_examples=25)
    @given(
        mesh=shuffled_meshes(st.integers(1, 4)),
        tensor=st.one_of(st.none(), constant_spd_tensors()),
        interior=st.booleans(),
    )
    def test_matches_triangle_loop_on_random_meshes(self, mesh, tensor, interior):
        # tensor None stands for the general problem's variable coefficients.
        if tensor is None:
            coeff = fg.general_problem().coefficients
        else:
            coeff = dataclasses.replace(fg.laplace_coefficients(), a=lambda x, y: tensor)
        dofmap = fg.interior_dofmap(mesh) if interior else None
        expected = loop_pencil(mesh, coeff)
        if interior:
            keep = np.ix_(dofmap, dofmap)
            expected = tuple(matrix[keep] for matrix in expected)
        for got, ref in zip(fg.assemble_pencil(mesh, dofmap, coeff), expected):
            dense = got.toarray()
            assert np.array_equal(dense, dense.T)
            scale = np.abs(ref).max(initial=0.0)
            assert np.abs(dense - ref).max(initial=0.0) <= 1e-14 * scale


def digest(matrices):
    """Short SHA-256 of the values and index arrays of CSR matrices."""
    sha = hashlib.sha256()
    for matrix in matrices:
        for array in (matrix.data, matrix.indices, matrix.indptr):
            sha.update(array.dtype.str.encode())
            sha.update(array.tobytes())
    return sha.hexdigest()[:16]


# Polynomial coefficients, so every value is a fixed sequence of IEEE
# operations; the digests were recorded from assembly that gave each matrix
# its own copy of the index arrays.
POLYNOMIAL_COEFFICIENTS = fg.CoefficientField(
    a=lambda x, y: np.array([[2.0, 0.5], [0.5, 1.0]]),
    phi=lambda x, y: 3.0,
    rho=lambda x, y: 1.0 + (x - 0.5) * (y - 0.5),
)
RECORDED_DIGESTS = {
    (3, 0.2, 0, False): "83b0eda14cadcbe4",
    (3, 0.2, 0, True): "660d129702b68157",
    (4, 0.3, 1, False): "4743d6fc44d0e9a0",
    (4, 0.3, 1, True): "b532e9be4bb5431e",
    (6, 0.1, 2, False): "18c35fe26f003753",
    (6, 0.1, 2, True): "e66257c62a14eeb2",
}


class TestSharedStructure:
    @settings(max_examples=10)
    @given(mesh=shuffled_meshes(st.integers(1, 4)), interior=st.booleans())
    def test_pencil_shares_index_arrays(self, mesh, interior):
        dofmap = fg.interior_dofmap(mesh) if interior else None
        stiffness, mass = fg.assemble_pencil(mesh, dofmap, POLYNOMIAL_COEFFICIENTS)
        # Empty arrays share no memory: square1 without its boundary is empty.
        assert stiffness.nnz == 0 or np.shares_memory(stiffness.indices, mass.indices)
        assert np.shares_memory(stiffness.indptr, mass.indptr)

    @pytest.mark.parametrize("case", sorted(RECORDED_DIGESTS))
    def test_bit_identical_to_recorded_assembly(self, case):
        # The shuffled meshes of the triangle-loop property test.
        nx, amplitude, seed, interior = case
        mesh = shuffled_square_mesh(nx, amplitude, seed)
        dofmap = fg.interior_dofmap(mesh) if interior else None
        pencil = fg.assemble_pencil(mesh, dofmap, POLYNOMIAL_COEFFICIENTS)
        assert digest(pencil) == RECORDED_DIGESTS[case]


class TestStiffness:
    def test_reference_element_matrix(self):
        # Exact integration of the constant P1 gradients on the unit triangle.
        mesh = fg.load_mesh(REFERENCE_TRIANGLE)
        matrix = fg.assemble_pencil(mesh, None, fg.laplace_coefficients())[0].toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.abs(matrix - expected).max() < 1e-15

    @pytest.mark.parametrize("nx", [2, 4, 7])
    def test_full_matrix_rows_sum_to_zero(self, nx):
        mesh = fg.unit_square_mesh(nx)
        matrix = fg.assemble_pencil(mesh, None, fg.laplace_coefficients())[0]
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.abs(sums).max() < 1e-12

    def test_reaction_term_equals_mass(self):
        mesh = fg.unit_square_mesh(4)
        dofmap = fg.interior_dofmap(mesh)
        coeff = fg.CoefficientField(
            a=lambda x, y: np.eye(2), phi=lambda x, y: 1.0, rho=lambda x, y: 1.0
        )
        combined = fg.assemble_pencil(mesh, dofmap, coeff)[0]
        laplace, mass = fg.assemble_pencil(mesh, dofmap, fg.laplace_coefficients())
        diff = np.abs((combined - laplace - mass).toarray()).max()
        assert diff < 1e-12

    def test_exact_symmetry(self, small_ctx):
        for matrix in small_ctx.stiffness:
            assert abs(matrix - matrix.T).max() == 0.0

    def test_csr_indices_sorted(self, small_ctx):
        for matrix in small_ctx.stiffness + small_ctx.mass:
            assert matrix.has_sorted_indices
            assert matrix.has_canonical_format  # sorted, no stored duplicates
            assert matrix.indices.dtype == matrix.indptr.dtype == np.int32

    def test_without_dofmap_full_singular_matrix(self):
        mesh = fg.unit_square_mesh(3)
        matrix = fg.assemble_pencil(mesh, None, fg.laplace_coefficients())[0]
        assert matrix.shape == (mesh.n_vertices, mesh.n_vertices)
        assert matrix.nnz == mesh.n_vertices + 2 * len(mesh.edges)
        # Constants span the kernel and nothing else does.
        eigenvalues = np.linalg.eigvalsh(matrix.toarray())
        assert abs(eigenvalues[0]) < 1e-14
        assert eigenvalues[1] > 1e-2

    def test_assembly_bit_reproducible(self):
        spec = fg.general_problem()
        mesh = fg.unit_square_mesh(5)
        dofmap = fg.interior_dofmap(mesh)
        first = fg.assemble_pencil(mesh, dofmap, spec.coefficients)
        second = fg.assemble_pencil(mesh, dofmap, spec.coefficients)
        for one, other in zip(first, second):
            assert np.array_equal(one.data, other.data)
            assert np.array_equal(one.indices, other.indices)
            assert np.array_equal(one.indptr, other.indptr)

    def test_assembly_independent_of_edge_order(self):
        # The same edges in another order, with triangle_edges renumbered.
        mesh = perturbed_square_mesh(4)
        perm = np.random.default_rng(3).permutation(mesh.edges.shape[0])
        new_id = np.empty_like(perm)
        new_id[perm] = np.arange(perm.shape[0])
        shuffled = dataclasses.replace(
            mesh,
            edges=mesh.edges[perm],
            triangle_edges=new_id[mesh.triangle_edges].astype(np.int32),
        )
        coeff = fg.general_problem().coefficients
        dofmap = fg.interior_dofmap(mesh)
        first = fg.assemble_pencil(mesh, dofmap, coeff)
        second = fg.assemble_pencil(shuffled, dofmap, coeff)
        for one, other in zip(first, second):
            assert np.array_equal(one.indptr, other.indptr)
            assert np.array_equal(one.indices, other.indices)
            assert one.data.tobytes() == other.data.tobytes()

    def test_exact_symmetry_variable_coefficients(self):
        spec = fg.general_problem()
        mesh = fg.unit_square_mesh(6)
        dofmap = fg.interior_dofmap(mesh)
        a, b = fg.assemble_pencil(mesh, dofmap, spec.coefficients)
        assert abs(a - a.T).max() == 0.0
        assert abs(b - b.T).max() == 0.0

    @pytest.mark.parametrize("field", sorted(COEFFICIENTS))
    def test_nonfinite_coefficient_names_triangle(self, field):
        # Only triangle 1, the lower one of grid cell (1, 0), has the
        # boundary-edge midpoint (0.75, 0) as a quadrature point.
        name, value = COEFFICIENTS[field]

        def poisoned(x, y):
            out = per_point(value)(x, y)
            out[(x == 0.75) & (y == 0.0)] = np.nan
            return out

        coeff = with_coefficient(field, poisoned)
        message = "non-finite %s coefficient in triangle 1$" % name
        with pytest.raises(AssemblyError, match=message):
            fg.assemble_pencil(fg.unit_square_mesh(2), None, coeff)

    @pytest.mark.parametrize("field", sorted(COEFFICIENTS))
    def test_nonfinite_coefficient_names_lowest_triangle(self, field):
        # Points right of x = 0.6 are poisoned.  On this mesh the lowest
        # triangle owning one is 1, while the lowest with a poisoned first
        # midpoint (local pair (0, 1)) is 3.
        mesh = shuffled_square_mesh(4, 0.2, 9)
        tri = mesh.triangles
        mid_x = 0.5 * (mesh.vertices[tri, 0] + mesh.vertices[tri[:, [1, 2, 0]], 0])
        lowest = int(np.flatnonzero((mid_x > 0.6).any(axis=1))[0])
        assert (lowest, int(np.flatnonzero(mid_x[:, 0] > 0.6)[0])) == (1, 3)
        name, value = COEFFICIENTS[field]

        def poisoned(x, y):
            out = per_point(value)(x, y)
            out[x > 0.6] = np.inf
            return out

        message = "non-finite %s coefficient in triangle %d$" % (name, lowest)
        with pytest.raises(AssemblyError, match=message):
            fg.assemble_pencil(mesh, None, with_coefficient(field, poisoned))

    @pytest.mark.parametrize("field", sorted(COEFFICIENTS))
    def test_wrong_shape_names_coefficient(self, field):
        name, _ = COEFFICIENTS[field]
        coeff = with_coefficient(field, lambda x, y: np.ones((x.shape[0], 3)))
        with pytest.raises(AssemblyError, match="^%s evaluation returned shape" % name):
            fg.assemble_pencil(fg.unit_square_mesh(2), None, coeff)

    @pytest.mark.parametrize("field", sorted(COEFFICIENTS))
    def test_constant_matches_per_point_array(self, field):
        mesh = fg.unit_square_mesh(3)
        dofmap = fg.interior_dofmap(mesh)
        _, value = COEFFICIENTS[field]
        constant, array = (
            fg.assemble_pencil(mesh, dofmap, with_coefficient(field, func))
            for func in (lambda x, y: value, per_point(value))
        )
        for one, other in zip(constant, array):
            assert np.array_equal(one.data, other.data)
            assert np.array_equal(one.indices, other.indices)


class TestMass:
    def test_reference_element_matrix(self):
        # Exact integration of barycentric products, area 1/2.
        mesh = fg.load_mesh(REFERENCE_TRIANGLE)
        matrix = fg.assemble_pencil(mesh, None, fg.laplace_coefficients())[1].toarray()
        expected = (0.5 / 12.0) * np.array(
            [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
        )
        assert np.abs(matrix - expected).max() < 1e-16

    def test_total_sum_is_domain_area(self):
        mesh = fg.unit_square_mesh(4)
        matrix = fg.assemble_pencil(mesh, None, fg.laplace_coefficients())[1]
        assert abs(matrix.sum() - 1.0) < 1e-12

    def test_weighted_sum_matches_integral(self):
        # integral of 1 + (x-1/2)(y-1/2) over the unit square is exactly 1.
        mesh = fg.unit_square_mesh(16)
        coeff = fg.CoefficientField(
            a=lambda x, y: np.eye(2), phi=lambda x, y: 0.0, rho=rho_weighted
        )
        matrix = fg.assemble_pencil(mesh, None, coeff)[1]
        assert abs(matrix.sum() - 1.0) <= 1e-10

    def test_positive_definite(self, small_ctx):
        for matrix in small_ctx.mass:
            fg.cholesky_dense(matrix.toarray())  # raises if not PD


class TestSpectralBounds:
    def test_min_eigenvalue_above_exact(self, dense_pairs, lam1_exact):
        for level, (vals, _) in dense_pairs.items():
            assert vals[0] >= lam1_exact * (1.0 - 1e-13)

    def test_refinement_never_increases_lam1(self, dense_pairs):
        lams = [dense_pairs[level][0][0] for level in sorted(dense_pairs)]
        for coarse, fine in zip(lams, lams[1:]):
            assert fine <= coarse * (1.0 + 1e-13)

    def test_rayleigh_quotient_of_interpolant(self, lam1_exact):
        mesh = fg.unit_square_mesh(64)
        dofmap = fg.interior_dofmap(mesh)
        coeff = fg.laplace_coefficients()
        a, b = fg.assemble_pencil(mesh, dofmap, coeff)
        v = fg.interpolate(mesh, dofmap, first_eigenfunction)
        quotient = fg.norm_a(a, v) ** 2 / fg.norm_a(b, v) ** 2
        assert lam1_exact <= quotient <= lam1_exact * 1.01


class TestInterpolate:
    def test_zero_field(self):
        mesh = fg.unit_square_mesh(4)
        dofmap = fg.interior_dofmap(mesh)
        assert np.array_equal(
            fg.interpolate(mesh, dofmap, lambda x, y: 0.0), np.zeros(len(dofmap))
        )

    def test_center_vertex_value(self):
        mesh = fg.unit_square_mesh(2)
        dofmap = fg.interior_dofmap(mesh)
        vals = fg.interpolate(mesh, dofmap, lambda x, y: x + y)
        assert vals.shape == (1,)
        assert vals[0] == 1.0

    def test_range_of_eigenfunction(self):
        mesh = fg.unit_square_mesh(8)
        dofmap = fg.interior_dofmap(mesh)
        vals = fg.interpolate(mesh, dofmap, first_eigenfunction)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 2.0)


class TestNorms:
    def test_zero_vector(self):
        matrix = sp.csr_array(sp.identity(3))
        assert fg.norm_a(matrix, np.zeros(3)) == 0.0

    def test_identity_norm(self):
        matrix = sp.csr_array(sp.identity(2))
        assert fg.norm_a(matrix, np.array([3.0, 4.0])) == 5.0

    def test_dimension_mismatch(self):
        matrix = sp.csr_array(sp.identity(3))
        with pytest.raises(ValueError):
            fg.norm_a(matrix, np.ones(4))

    def test_indefinite_matrix_rejected(self):
        matrix = sp.csr_array(-sp.identity(3))
        with pytest.raises(NotPositiveDefiniteError):
            fg.norm_a(matrix, np.ones(3))


class TestInteriorDofmap:
    def test_counts(self):
        mesh = fg.unit_square_mesh(4)
        dofmap = fg.interior_dofmap(mesh)
        assert len(dofmap) == mesh.n_vertices - int(mesh.boundary_vertex.sum())
        assert len(dofmap) == 9

    def test_bijection(self):
        mesh = fg.unit_square_mesh(3)
        dofmap = fg.interior_dofmap(mesh)
        assert np.array_equal(dofmap, np.flatnonzero(~mesh.boundary_vertex))
