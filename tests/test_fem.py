import numpy as np
import pytest
import scipy.sparse as sp

import fmgeig as fg
from fmgeig.errors import AssemblyError, NotPositiveDefiniteError

from conftest import first_eigenfunction

REFERENCE_TRIANGLE = "3 1\n0 0\n1 0\n0 1\n0 1 2\n"


def rho_weighted(x, y):
    return 1.0 + (x - 0.5) * (y - 0.5)


class TestStiffness:
    def test_reference_element_matrix(self):
        # Exact integration of the constant P1 gradients on the unit triangle.
        mesh = fg.load_mesh(REFERENCE_TRIANGLE)
        matrix = fg.assemble_stiffness(mesh, None, fg.laplace_coefficients()).toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.abs(matrix - expected).max() < 1e-15

    @pytest.mark.parametrize("nx", [2, 4, 7])
    def test_full_matrix_rows_sum_to_zero(self, nx):
        mesh = fg.unit_square_mesh(nx)
        matrix = fg.assemble_stiffness(mesh, None, fg.laplace_coefficients())
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.abs(sums).max() < 1e-12

    def test_reaction_term_equals_mass(self):
        mesh = fg.unit_square_mesh(4)
        dofmap = fg.interior_dofmap(mesh)
        coeff = fg.CoefficientField(
            a=lambda x, y: np.eye(2), phi=lambda x, y: 1.0, rho=lambda x, y: 1.0
        )
        combined = fg.assemble_stiffness(mesh, dofmap, coeff)
        laplace = fg.assemble_stiffness(mesh, dofmap, fg.laplace_coefficients())
        mass = fg.assemble_mass(mesh, dofmap, lambda x, y: 1.0)
        diff = np.abs((combined - laplace - mass).toarray()).max()
        assert diff < 1e-12

    def test_exact_symmetry(self, small_ctx):
        for matrix in small_ctx.stiffness:
            assert abs(matrix - matrix.T).max() == 0.0

    def test_csr_indices_sorted(self, small_ctx):
        for matrix in small_ctx.stiffness + small_ctx.mass:
            assert matrix.has_sorted_indices

    def test_assembly_bit_reproducible(self):
        spec = fg.general_problem()
        mesh = fg.unit_square_mesh(5)
        dofmap = fg.interior_dofmap(mesh)
        first = fg.assemble_stiffness(mesh, dofmap, spec.coefficients)
        second = fg.assemble_stiffness(mesh, dofmap, spec.coefficients)
        assert np.array_equal(first.data, second.data)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.indptr, second.indptr)

    def test_exact_symmetry_variable_coefficients(self):
        spec = fg.general_problem()
        mesh = fg.unit_square_mesh(6)
        dofmap = fg.interior_dofmap(mesh)
        a = fg.assemble_stiffness(mesh, dofmap, spec.coefficients)
        b = fg.assemble_mass(mesh, dofmap, spec.coefficients.rho)
        assert abs(a - a.T).max() == 0.0
        assert abs(b - b.T).max() == 0.0

    def test_nonfinite_coefficient_names_triangle(self):
        mesh = fg.unit_square_mesh(2)

        def bad_phi(x, y):
            out = np.zeros_like(x)
            out[(x > 0.5) & (y < 0.5)] = np.nan
            return out

        coeff = fg.CoefficientField(
            a=lambda x, y: np.eye(2), phi=bad_phi, rho=lambda x, y: 1.0
        )
        with pytest.raises(AssemblyError, match="triangle"):
            fg.assemble_stiffness(mesh, None, coeff)


class TestMass:
    def test_reference_element_matrix(self):
        # Exact integration of barycentric products, area 1/2.
        mesh = fg.load_mesh(REFERENCE_TRIANGLE)
        matrix = fg.assemble_mass(mesh, None, lambda x, y: 1.0).toarray()
        expected = (0.5 / 12.0) * np.array(
            [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
        )
        assert np.abs(matrix - expected).max() < 1e-16

    def test_total_sum_is_domain_area(self):
        mesh = fg.unit_square_mesh(4)
        matrix = fg.assemble_mass(mesh, None, lambda x, y: 1.0)
        assert abs(matrix.sum() - 1.0) < 1e-12

    def test_weighted_sum_matches_integral(self):
        # integral of 1 + (x-1/2)(y-1/2) over the unit square is exactly 1.
        mesh = fg.unit_square_mesh(16)
        matrix = fg.assemble_mass(mesh, None, rho_weighted)
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
        a = fg.assemble_stiffness(mesh, dofmap, coeff)
        b = fg.assemble_mass(mesh, dofmap, coeff.rho)
        v = fg.interpolate(mesh, dofmap, first_eigenfunction)
        quotient = fg.norm_a(a, v) ** 2 / fg.norm_a(b, v) ** 2
        assert lam1_exact <= quotient <= lam1_exact * 1.01


class TestInterpolate:
    def test_zero_field(self):
        mesh = fg.unit_square_mesh(4)
        dofmap = fg.interior_dofmap(mesh)
        assert np.array_equal(
            fg.interpolate(mesh, dofmap, lambda x, y: 0.0), np.zeros(dofmap.n_dofs)
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


class TestDofMap:
    def test_counts(self):
        mesh = fg.unit_square_mesh(4)
        dofmap = fg.interior_dofmap(mesh)
        assert dofmap.n_dofs == mesh.n_vertices - int(mesh.boundary_vertex.sum())
        assert dofmap.n_dofs == 9

    def test_bijection(self):
        mesh = fg.unit_square_mesh(3)
        dofmap = fg.interior_dofmap(mesh)
        assert np.array_equal(
            dofmap.dof_to_vertex, np.flatnonzero(~mesh.boundary_vertex)
        )
