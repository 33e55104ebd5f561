import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fmgeig as fg
from fmgeig import multigrid

from conftest import CountingMatrix, folded_prolongation, mesh_text, shuffled_meshes


def reference_solution(matrix, f):
    return scipy.linalg.cho_solve((fg.cholesky_dense(matrix.toarray()), True), f)


def measure_contraction(ctx, level, seed=0, cycles=1):
    """Worst energy-error reduction per cycle over a few random systems."""
    matrix = ctx.stiffness[level]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        f = rng.standard_normal(matrix.shape[0])
        xstar = reference_solution(matrix, f)
        x = rng.standard_normal(matrix.shape[0])
        e_prev = fg.norm_a(matrix, x - xstar)
        for _ in range(cycles):
            x = x + fg.mg_solve(ctx, level, f - matrix @ x, 1)
            e_next = fg.norm_a(matrix, x - xstar)
            worst = max(worst, e_next / e_prev)
            e_prev = e_next
    return worst


def zero_guess_cycle(ctx, columns):
    """The finest-level map ``f -> mg_solve(f, m=1)``, LOBPCG's preconditioner,
    and two random inputs."""
    level = ctx.n_levels - 1
    shape = (ctx.n_dofs(level),) if columns is None else (ctx.n_dofs(level), columns)
    f, g = np.random.default_rng(8).standard_normal((2,) + shape)
    return lambda rhs: fg.mg_solve(ctx, level, rhs, 1), f, g


def float32_zero_guess_cycle(ctx, columns):
    """As :func:`zero_guess_cycle`, for the float32 recursion on float32 input."""
    _, f, g = zero_guess_cycle(ctx, columns)
    level = ctx.n_levels - 1

    def cycle(rhs):
        out = multigrid._cycle(ctx, level, rhs.astype(np.float32))
        assert out.dtype == np.float32
        return out.astype(float)

    return cycle, f, g


class TestBuildContext:
    @pytest.mark.parametrize("ctx_name", ["small_ctx", "general_ctx"])
    def test_smoother_data_matches_dense(self, ctx_name, request):
        # The Chebyshev smoother's D^{-1} and Gershgorin bound of D^{-1} A.
        ctx = request.getfixturevalue(ctx_name)
        for level in range(ctx.n_levels):
            dense = ctx.stiffness[level].toarray()
            diag = np.diag(dense)
            assert np.array_equal(ctx.inv_diag32[level], (1.0 / diag).astype(np.float32))
            bound = (np.abs(dense).sum(axis=1) / diag).max()
            assert abs(ctx.lambda_max[level] - bound) <= 1e-14 * bound

    def test_single_level_cycle_is_exact_solve(self, model_coeff):
        # One cycle is a dense solve with the float32 inverse; the float64
        # defect correction of two more recovers float64 accuracy.
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 1)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(ctx.n_dofs(0))
        exact = reference_solution(ctx.stiffness[0], f)
        scale = np.abs(exact).max()
        assert np.abs(fg.mg_solve(ctx, 0, f, 1) - exact).max() <= 1e-6 * scale
        assert np.abs(fg.mg_solve(ctx, 0, f, 3) - exact).max() <= 1e-14 * scale

    def test_transfer_shapes(self, small_ctx):
        for k, op in enumerate(small_ctx.transfer):
            assert op.shape == (small_ctx.n_dofs(k + 1), small_ctx.n_dofs(k))

    def test_galerkin_coarse_operator(self, small_ctx):
        # Nested P1 spaces with matching quadrature: P'AP equals the
        # coarse assembly.
        for k in range(small_ctx.n_levels - 1):
            op = small_ctx.transfer[k]
            product = (op.T @ (small_ctx.stiffness[k + 1] @ op)) - small_ctx.stiffness[k]
            bound = 1e-10 * abs(small_ctx.stiffness[k]).max()
            assert abs(product).max() <= bound

    def test_invalid_smoother(self, small_hierarchy, model_coeff):
        with pytest.raises(ValueError):
            fg.build_mg_context(small_hierarchy, model_coeff, nu=2, smoother="sor")

    @pytest.mark.parametrize("problem", ["model", "general"])
    def test_coarse_blocks_are_galerkin_products(self, small_ctx, general_ctx, problem):
        ctx = small_ctx if problem == "model" else general_ctx
        for k in range(ctx.n_levels):
            dense = folded_prolongation(ctx, k)
            for block, matrix in [
                (ctx.coarse_stiffness[k], ctx.stiffness[k]),
                (ctx.coarse_mass[k], ctx.mass[k]),
            ]:
                reference = dense.T @ (matrix @ dense)
                scale = np.abs(reference).max()
                assert np.abs(block - reference).max() <= 1e-13 * scale
                assert np.abs(block - block.T).max() <= 1e-13 * scale
        assert np.array_equal(ctx.coarse_stiffness[0], ctx.stiffness[0].toarray())
        assert np.array_equal(ctx.coarse_mass[0], ctx.mass[0].toarray())

    @settings(max_examples=12)
    @given(mesh=shuffled_meshes(st.integers(2, 4)))
    def test_coarse_blocks_on_random_meshes(self, mesh):
        # Blocks from the fine quadrature against the folded P'AP and P'BP;
        # the assembly refuses a coarse mesh the fine one was not refined from.
        coeff = fg.general_problem().coefficients
        hierarchy = fg.build_hierarchy(mesh, 3)
        ctx = fg.build_mg_context(hierarchy, coeff, nu=2)
        for k in range(1, ctx.n_levels):
            dense = folded_prolongation(ctx, k)
            for block, matrix in [
                (ctx.coarse_stiffness[k], ctx.stiffness[k]),
                (ctx.coarse_mass[k], ctx.mass[k]),
            ]:
                reference = dense.T @ (matrix @ dense)
                assert np.abs(block - reference).max() <= 1e-13 * np.abs(reference).max()
        rotated = fg.load_mesh(mesh_text(mesh.vertices, np.roll(mesh.triangles, 1, axis=1)))
        fine, middle = hierarchy.meshes[2], hierarchy.meshes[1]
        for child, coarse in [(fine, rotated), (middle, fine)]:
            with pytest.raises(ValueError, match="not refined from"):
                fg.assemble_pencil(
                    child, None, coeff, (coarse, fg.interior_dofmap(coarse))
                )

    def test_model_coarse_stiffness_blocks_equal_coarse_assembly(self, small_ctx):
        # Constant coefficients: P_k' A_k P_k is A_0 on every level.
        coarse = small_ctx.stiffness[0].toarray()
        bound = 1e-10 * np.abs(coarse).max()
        for block in small_ctx.coarse_stiffness:
            assert np.abs(block - coarse).max() <= bound

    def test_invalid_nu(self, small_hierarchy, model_coeff):
        with pytest.raises(ValueError):
            fg.build_mg_context(small_hierarchy, model_coeff, nu=0)

    @pytest.mark.parametrize("ctx_name", ["small_ctx", "general_ctx"])
    def test_one_csr_structure_per_level(self, ctx_name, request):
        # Stiffness, mass and the float32 stiffness share one pair of index
        # arrays; each float32 transfer shares its float64 transfer's.
        ctx = request.getfixturevalue(ctx_name)
        pairs = [
            (ctx.stiffness[k], other)
            for k in range(ctx.n_levels)
            for other in (ctx.mass[k], ctx.stiffness32[k])
        ]
        pairs += list(zip(ctx.transfer, ctx.transfer32))
        for matrix, other in pairs:
            assert np.shares_memory(matrix.indices, other.indices)
            assert np.shares_memory(matrix.indptr, other.indptr)

    def test_float32_copies(self, general_ctx):
        ctx = general_ctx
        for matrix, copy in zip(ctx.stiffness + ctx.transfer, ctx.stiffness32 + ctx.transfer32):
            assert copy.dtype == np.float32
            assert np.array_equal(copy.data, matrix.data.astype(np.float32))
        assert all(d.dtype == np.float32 for d in ctx.inv_diag32)
        inverse = reference_solution(ctx.stiffness[0], np.eye(ctx.n_dofs(0)))
        assert np.array_equal(ctx.coarse_inverse32, inverse.astype(np.float32))
        assert all(type(lam) is float for lam in ctx.lambda_max)


class TestVCycle:
    def test_zero_fixed_point(self, small_ctx):
        level = small_ctx.n_levels - 1
        zero = np.zeros(small_ctx.n_dofs(level))
        out = fg.mg_solve(small_ctx, level, zero, 1)
        assert np.array_equal(out, zero)

    @pytest.mark.parametrize("problem", ["model", "general"])
    def test_contraction_bound(self, model_coeff, problem):
        coeff = model_coeff if problem == "model" else fg.general_problem().coefficients
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 4)
        ctx = fg.build_mg_context(hier, coeff, nu=2)
        theta = measure_contraction(ctx, ctx.n_levels - 1, cycles=3)
        assert theta <= 0.35

    def test_contraction_mesh_independent(self, model_coeff):
        thetas = []
        for levels in (3, 4, 5):
            hier = fg.build_hierarchy(fg.unit_square_mesh(4), levels)
            ctx = fg.build_mg_context(hier, model_coeff, nu=2)
            thetas.append(measure_contraction(ctx, ctx.n_levels - 1, cycles=2))
        assert all(t < 1.0 for t in thetas)
        assert max(thetas) - min(thetas) < 0.1

    def test_block_matches_single_columns(self, small_ctx):
        level = small_ctx.n_levels - 1
        rng = np.random.default_rng(7)
        f = rng.standard_normal((small_ctx.n_dofs(level), 3))
        f_in = f.copy()
        block = fg.mg_solve(small_ctx, level, f, 1)
        for j in range(3):
            single = fg.mg_solve(small_ctx, level, f[:, j], 1)
            assert np.abs(block[:, j] - single).max() <= 1e-5 * np.abs(single).max()
        assert np.array_equal(f, f_in)

    # LOBPCG's theory assumes a fixed symmetric preconditioner: one cycle
    # from a zero guess is, up to float32 round-off.
    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "block"])
    def test_cycle_from_zero_is_linear(self, general_ctx, columns):
        cycle, f, g = zero_guess_cycle(general_ctx, columns)
        combined = cycle(f + 2.0 * g)
        defect = combined - cycle(f) - 2.0 * cycle(g)
        assert np.abs(defect).max() <= 1e-5 * np.abs(combined).max()

    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "block"])
    def test_cycle_from_zero_is_symmetric(self, general_ctx, columns):
        cycle, f, g = zero_guess_cycle(general_ctx, columns)
        forward = g.T @ cycle(f)
        backward = (f.T @ cycle(g)).T
        assert np.abs(forward - backward).max() <= 1e-5 * np.abs(forward).max()

    def test_level_out_of_range(self, small_ctx):
        zero = np.zeros(small_ctx.n_dofs(0))
        with pytest.raises(ValueError):
            fg.mg_solve(small_ctx, small_ctx.n_levels, zero, 1)


class TestFloat32Cycle:
    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "block"])
    def test_cycle_from_zero_is_linear(self, general_ctx, columns):
        cycle, f, g = float32_zero_guess_cycle(general_ctx, columns)
        combined = cycle(f + 2.0 * g)
        defect = combined - cycle(f) - 2.0 * cycle(g)
        assert np.abs(defect).max() <= 1e-5 * np.abs(combined).max()

    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "block"])
    def test_cycle_from_zero_is_symmetric(self, general_ctx, columns):
        cycle, f, g = float32_zero_guess_cycle(general_ctx, columns)
        forward = g.T @ cycle(f)
        backward = (f.T @ cycle(g)).T
        assert np.abs(forward - backward).max() <= 1e-5 * np.abs(forward).max()

    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "block"])
    def test_every_level_stays_float32(self, general_ctx, monkeypatch, columns):
        # A float64 operand anywhere in the recursion would upcast the rest
        # of the cycle silently and give back the float64 memory traffic.
        seen = []
        for name in ("_cycle", "_smooth"):
            def spy(ctx, level, f, *x, inner=getattr(multigrid, name), name=name):
                out = inner(ctx, level, f, *x)
                seen.append((name, level, f.dtype, out.dtype))
                return out

            monkeypatch.setattr(multigrid, name, spy)
        _, f, _ = zero_guess_cycle(general_ctx, columns)
        top = general_ctx.n_levels - 1
        out = fg.mg_solve(general_ctx, top, f, 2)
        assert out.dtype == np.float64
        assert {level for name, level, _, _ in seen if name == "_cycle"} == set(range(top + 1))
        assert {level for name, level, _, _ in seen if name == "_smooth"} == set(range(1, top + 1))
        assert all(dt_in == dt_out == np.float32 for _, _, dt_in, dt_out in seen)


class TestMGSolve:
    def test_matches_dense_solve(self, model_coeff):
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 2)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        # The first cycle flatters the rate; measure over several cycles.
        theta = max(measure_contraction(ctx, 1, cycles=4), 1e-3)
        m = int(np.ceil(np.log(1e-12) / np.log(theta)))
        rng = np.random.default_rng(3)
        f = rng.standard_normal(ctx.n_dofs(1))
        x = fg.mg_solve(ctx, 1, f, m)
        assert np.abs(x - reference_solution(ctx.stiffness[1], f)).max() < 1e-9

    def test_two_cycles_bounded_by_theta_squared(self, model_coeff):
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 3)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        level = 2
        matrix = ctx.stiffness[level]
        # theta is the energy norm of the error map E = I - C A on the
        # 225-dof level, C one cycle from a zero guess applied to the columns
        # of A: |E|_A = |L' E L^{-T}|_2 for A = L L'.  It reads 0.090.
        dense = matrix.toarray()
        error_map = np.eye(dense.shape[0]) - fg.mg_solve(ctx, level, dense, 1)
        lower = fg.cholesky_dense(dense)
        scaled = scipy.linalg.solve_triangular(lower, (lower.T @ error_map).T, lower=True).T
        theta = np.linalg.norm(scaled, 2)
        assert theta <= 0.35  # the bound of test_contraction_bound
        rng = np.random.default_rng(4)
        f = rng.standard_normal(matrix.shape[0])
        xstar = reference_solution(matrix, f)
        x0 = rng.standard_normal(matrix.shape[0])
        e0 = fg.norm_a(matrix, x0 - xstar)
        x1 = x0 + fg.mg_solve(ctx, level, f - matrix @ x0, 1)
        e1 = fg.norm_a(matrix, x1 - xstar)
        x2 = x1 + fg.mg_solve(ctx, level, f - matrix @ x1, 1)
        e2 = fg.norm_a(matrix, x2 - xstar)
        # The cycle runs in float32: allow about 100 units of its round-off
        # (6e-8), relative to e0.
        slack = 1e-5
        assert e1 / e0 <= theta + slack
        assert e2 / e0 <= theta**2 + slack

    def test_rejects_zero_cycles(self, small_ctx):
        zero = np.zeros(small_ctx.n_dofs(0))
        with pytest.raises(ValueError):
            fg.mg_solve(small_ctx, 0, zero, 0)

    def test_level_out_of_range(self, small_ctx):
        zero = np.zeros(small_ctx.n_dofs(0))
        with pytest.raises(ValueError):
            fg.mg_solve(small_ctx, -1, zero, 1)


class TestConcurrentSolves:
    def test_threaded_solves_match_serial(self, small_ctx):
        from concurrent.futures import ThreadPoolExecutor

        level = small_ctx.n_levels - 1
        rng = np.random.default_rng(6)
        rhs = [rng.standard_normal(small_ctx.n_dofs(level)) for _ in range(4)]
        serial = [fg.mg_solve(small_ctx, level, f, 2) for f in rhs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda f: fg.mg_solve(small_ctx, level, f, 2), rhs))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


class TestWorkCounter:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_smoothing_work_formula(self, small_hierarchy, model_coeff, precision):
        # One cycle from a zero guess makes 2 nu + 2 float32 stiffness
        # products on every level above the coarsest: two smoothings of nu
        # counted products each, plus the two residual products, which are
        # not counted; it does not multiply by the zero guess on its top
        # level.  In float64, mg_solve forms only the defect of each cycle
        # after the first, on the top level: none with m=1, the correction
        # step's default and LOBPCG's preconditioner.
        for nu in (1, 2, 3):
            ctx = fg.build_mg_context(small_hierarchy, model_coeff, nu=nu)
            level = ctx.n_levels - 1
            f = np.ones(ctx.n_dofs(level))
            single = [CountingMatrix(a) for a in ctx.stiffness32]
            double = [CountingMatrix(a) for a in ctx.stiffness]
            ctx = dataclasses.replace(ctx, stiffness32=single, stiffness=double)
            m = 1 if precision == "float32" else 2
            fg.mg_solve(ctx, level, f, m)
            assert [c.products for c in single] == [0] + [m * (2 * nu + 2)] * level
            assert [c.products for c in double] == [0] * level + [m - 1]
            counted = sum((c.products - 2 * m) * ctx.n_dofs(k) for k, c in enumerate(single) if k)
            assert m * ctx.cycle_work(level) == counted
        assert ctx.cycle_work(0) == 0

    def test_context_is_frozen(self, small_ctx):
        for field in dataclasses.fields(small_ctx):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(small_ctx, field.name, getattr(small_ctx, field.name))
