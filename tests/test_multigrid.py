import numpy as np
import pytest
import scipy.linalg

import fmgeig as fg


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
            x = fg.v_cycle(ctx, level, f, x)
            e_next = fg.norm_a(matrix, x - xstar)
            worst = max(worst, e_next / e_prev)
            e_prev = e_next
    return worst


def zero_guess_cycle(ctx, columns):
    """The finest-level map ``f -> v_cycle(f, 0)`` and two random inputs."""
    level = ctx.n_levels - 1
    shape = (ctx.n_dofs(level),) if columns is None else (ctx.n_dofs(level), columns)
    f, g = np.random.default_rng(8).standard_normal((2,) + shape)
    return lambda rhs: fg.v_cycle(ctx, level, rhs, np.zeros_like(rhs)), f, g


class TestBuildContext:
    @pytest.mark.parametrize("ctx_name", ["small_ctx", "general_ctx"])
    def test_smoother_data_matches_dense(self, ctx_name, request):
        # The Chebyshev smoother's D^{-1} and Gershgorin bound of D^{-1} A.
        ctx = request.getfixturevalue(ctx_name)
        for level in range(ctx.n_levels):
            dense = ctx.stiffness[level].toarray()
            diag = np.diag(dense)
            assert np.array_equal(ctx.inv_diag[level], 1.0 / diag)
            bound = (np.abs(dense).sum(axis=1) / diag).max()
            assert abs(ctx.lambda_max[level] - bound) <= 1e-14 * bound

    def test_single_level_cycle_is_exact_solve(self, model_coeff):
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 1)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(ctx.n_dofs(0))
        x = fg.v_cycle(ctx, 0, f, np.zeros_like(f))
        assert np.abs(x - reference_solution(ctx.stiffness[0], f)).max() < 1e-12

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

    def test_coarse_prolongation_is_folded_transfer(self, small_ctx):
        fold = np.eye(small_ctx.n_dofs(0))
        for k, op in enumerate(small_ctx.coarse_prolongation):
            assert op.shape == (small_ctx.n_dofs(k), small_ctx.n_dofs(0))
            assert np.array_equal(op.toarray(), fold)
            if k < len(small_ctx.transfer):
                fold = small_ctx.transfer[k] @ fold
        assert len(small_ctx.coarse_prolongation) == small_ctx.n_levels

    @pytest.mark.parametrize("problem", ["model", "general"])
    def test_coarse_blocks_are_galerkin_products(self, small_ctx, general_ctx, problem):
        ctx = small_ctx if problem == "model" else general_ctx
        for k, prolong in enumerate(ctx.coarse_prolongation):
            dense = prolong.toarray()
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

    def test_model_coarse_stiffness_blocks_equal_coarse_assembly(self, small_ctx):
        # Constant coefficients: P_k' A_k P_k is A_0 on every level.
        coarse = small_ctx.stiffness[0].toarray()
        bound = 1e-10 * np.abs(coarse).max()
        for block in small_ctx.coarse_stiffness:
            assert np.abs(block - coarse).max() <= bound

    def test_invalid_nu(self, small_hierarchy, model_coeff):
        with pytest.raises(ValueError):
            fg.build_mg_context(small_hierarchy, model_coeff, nu=0)


class TestVCycle:
    def test_zero_fixed_point(self, small_ctx):
        level = small_ctx.n_levels - 1
        zero = np.zeros(small_ctx.n_dofs(level))
        out = fg.v_cycle(small_ctx, level, zero, zero)
        assert np.array_equal(out, zero)

    def test_exact_solution_unchanged(self, small_ctx):
        level = small_ctx.n_levels - 1
        matrix = small_ctx.stiffness[level]
        rng = np.random.default_rng(1)
        xstar = rng.standard_normal(matrix.shape[0])
        f = matrix @ xstar
        out = fg.v_cycle(small_ctx, level, f, xstar)
        assert np.abs(out - xstar).max() <= 1e-12 * np.abs(xstar).max()

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
        x = rng.standard_normal(f.shape)
        f_in, x_in = f.copy(), x.copy()
        start = small_ctx.work_units
        block = fg.v_cycle(small_ctx, level, f, x)
        block_work = small_ctx.work_units - start
        for j in range(3):
            single = fg.v_cycle(small_ctx, level, f[:, j], x[:, j])
            assert np.abs(block[:, j] - single).max() <= 1e-13 * np.abs(single).max()
        assert small_ctx.work_units - start == 2 * block_work
        assert np.array_equal(f, f_in) and np.array_equal(x, x_in)

    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "block"])
    def test_cycle_from_zero_is_linear(self, general_ctx, columns):
        cycle, f, g = zero_guess_cycle(general_ctx, columns)
        combined = cycle(f + 2.0 * g)
        defect = combined - cycle(f) - 2.0 * cycle(g)
        assert np.abs(defect).max() <= 1e-12 * np.abs(combined).max()

    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "block"])
    def test_cycle_from_zero_is_symmetric(self, general_ctx, columns):
        cycle, f, g = zero_guess_cycle(general_ctx, columns)
        forward = g.T @ cycle(f)
        backward = (f.T @ cycle(g)).T
        assert np.abs(forward - backward).max() <= 1e-12 * np.abs(forward).max()

    def test_level_out_of_range(self, small_ctx):
        zero = np.zeros(small_ctx.n_dofs(0))
        with pytest.raises(ValueError):
            fg.v_cycle(small_ctx, small_ctx.n_levels, zero, zero)


class TestMGSolve:
    def test_matches_dense_solve(self, model_coeff):
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 2)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        # The first cycle flatters the rate; measure over several cycles.
        theta = max(measure_contraction(ctx, 1, cycles=4), 1e-3)
        m = int(np.ceil(np.log(1e-12) / np.log(theta)))
        rng = np.random.default_rng(3)
        f = rng.standard_normal(ctx.n_dofs(1))
        x = fg.mg_solve(ctx, 1, f, np.zeros_like(f), m)
        assert np.abs(x - reference_solution(ctx.stiffness[1], f)).max() < 1e-9

    def test_two_cycles_bounded_by_theta_squared(self, model_coeff):
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 3)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        level = 2
        matrix = ctx.stiffness[level]
        rng = np.random.default_rng(4)
        f = rng.standard_normal(matrix.shape[0])
        xstar = reference_solution(matrix, f)
        x0 = rng.standard_normal(matrix.shape[0])
        e0 = fg.norm_a(matrix, x0 - xstar)
        x1 = fg.v_cycle(ctx, level, f, x0)
        e1 = fg.norm_a(matrix, x1 - xstar)
        x2 = fg.v_cycle(ctx, level, f, x1)
        e2 = fg.norm_a(matrix, x2 - xstar)
        theta = max(e1 / e0, e2 / e1)
        assert e2 / e0 <= theta**2 * (1.0 + 1e-12)

    def test_exact_initial_guess_unchanged(self, small_ctx):
        level = 1
        matrix = small_ctx.stiffness[level]
        rng = np.random.default_rng(5)
        xstar = rng.standard_normal(matrix.shape[0])
        out = fg.mg_solve(small_ctx, level, matrix @ xstar, xstar, 2)
        assert np.abs(out - xstar).max() <= 1e-12 * np.abs(xstar).max()

    def test_rejects_zero_cycles(self, small_ctx):
        zero = np.zeros(small_ctx.n_dofs(0))
        with pytest.raises(ValueError):
            fg.mg_solve(small_ctx, 0, zero, zero, 0)


class TestConcurrentSolves:
    def test_threaded_solves_match_serial(self, small_ctx):
        from concurrent.futures import ThreadPoolExecutor

        level = small_ctx.n_levels - 1
        rng = np.random.default_rng(6)
        rhs = [rng.standard_normal(small_ctx.n_dofs(level)) for _ in range(4)]
        serial = [fg.mg_solve(small_ctx, level, f, np.zeros_like(f), 2) for f in rhs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(
                    lambda f: fg.mg_solve(small_ctx, level, f, np.zeros_like(f), 2),
                    rhs,
                )
            )
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


class TestWorkCounter:
    def test_smoothing_work_formula(self, small_hierarchy, model_coeff):
        # One cycle at the top: two smoothings of nu counted products each
        # (the initial residual is not counted) on every level above the
        # coarsest.
        ctx = fg.build_mg_context(small_hierarchy, model_coeff, nu=2)
        level = ctx.n_levels - 1
        f = np.ones(ctx.n_dofs(level))
        fg.v_cycle(ctx, level, f, np.zeros_like(f))
        expected = sum(2 * ctx.nu * ctx.n_dofs(k) for k in range(1, level + 1))
        assert ctx.work_units == expected

    def test_reset(self, small_hierarchy, model_coeff):
        ctx = fg.build_mg_context(small_hierarchy, model_coeff, nu=1)
        f = np.ones(ctx.n_dofs(1))
        fg.v_cycle(ctx, 1, f, np.zeros_like(f))
        assert ctx.work_units > 0
        ctx.reset_work()
        assert ctx.work_units == 0.0
