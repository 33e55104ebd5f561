import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fmgeig as fg
from fmgeig import eigsolver, multigrid
from fmgeig.eigsolver import EigenApprox, augmented_ritz
from fmgeig.errors import DegenerateAugmentationError, SolverError
from fmgeig.linalg import sign_fix

from conftest import (
    CountingMatrix,
    benchmark_mesh,
    blas_thread_counts,
    folded_prolongation,
    leading_entry,
    shuffled_meshes,
    shuffled_square_mesh,
)

PI2 = np.pi**2


def b_orthonormality_drift(mass, vectors):
    gram = vectors.T @ (mass @ vectors)
    return np.abs(gram - np.eye(vectors.shape[1])).max()


def aligned_energy_error(stiffness, mass, vec, ref):
    if float(vec @ (mass @ ref)) < 0.0:
        vec = -vec
    return fg.norm_a(stiffness, vec - ref)


def reference_correction(ctx, approx, config):
    """The correction step with explicit products ``A_k P`` and ``B_k P``.

    The augmented pencil is built from the sparse matrices, the Ritz vectors
    are lifted through the column slices of the kept basis vectors, and the
    result is mass-orthonormalized by triangular solves on the whole block.
    """
    k = approx.level
    a_k, b_k = ctx.stiffness[k], ctx.mass[k]
    rhs = (b_k @ approx.vectors) * approx.eigenvalues
    smoothed = approx.vectors + fg.mg_solve(ctx, k, rhs - a_k @ approx.vectors, config.m)
    prolong = folded_prolongation(ctx, k)
    n_h = prolong.shape[1]
    pencil = []
    for matrix in (a_k, b_k):
        mp = matrix @ prolong
        cross = mp.T @ smoothed
        full = np.block([
            [prolong.T @ mp, cross],
            [cross.T, smoothed.T @ (matrix @ smoothed)],
        ])
        pencil.append(0.5 * (full + full.T))
    vals, ritz, kept = augmented_ritz(*pencil, approx.q)
    kept_coarse = kept[kept < n_h]
    split = kept_coarse.shape[0]
    vectors = prolong[:, kept_coarse] @ ritz[:split]
    vectors += smoothed[:, kept[split:] - n_h] @ ritz[split:]
    for _ in range(2):
        lower = np.linalg.cholesky(vectors.T @ (b_k @ vectors))
        vectors = scipy.linalg.solve_triangular(lower, vectors.T, lower=True).T
    return vals, sign_fix(vectors)


def float64_mg_solve(ctx, level, f, m):
    """``m`` float64 V-cycles: the reference for the mixed-precision ``mg_solve``.

    The cycle's recursion runs in the precision of its operands, so it runs
    in float64 on a copy of ``ctx`` whose cycle fields hold float64 values.
    """
    lower = fg.cholesky_dense(ctx.stiffness[0].toarray())
    double = dataclasses.replace(
        ctx,
        stiffness32=ctx.stiffness,
        transfer32=ctx.transfer,
        inv_diag32=[1.0 / a.diagonal() for a in ctx.stiffness],
        coarse_inverse32=scipy.linalg.cho_solve((lower, True), np.eye(lower.shape[0])),
    )
    x = np.zeros_like(f)
    for _ in range(m):
        x = x + multigrid._cycle(double, level, f - ctx.stiffness[level] @ x)
    return x


def run_in_threads(task, workers=4):
    """Results of ``task()`` run by ``workers`` threads at once, switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task) for _ in range(workers)]
            return [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)


def lifted_coarse_pairs(ctx, q, level):
    """Coarse eigenpairs prolongated to ``level``."""
    coarse = fg.coarse_eigensolve(ctx, q)
    vectors = coarse.vectors
    for op in ctx.transfer[:level]:
        vectors = op @ vectors
    return EigenApprox(level, coarse.eigenvalues.copy(), vectors)


def leading_context(hierarchy, coeff, levels):
    """The context of the first ``levels`` levels of ``hierarchy``."""
    return fg.build_mg_context(fg.MeshHierarchy(hierarchy.meshes[:levels]), coeff, nu=2)


class TestConfig:
    @pytest.mark.parametrize("field", ["q", "m", "p", "nu"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            fg.SolverConfig(**{field: 0})


class TestCoarseEigensolve:
    def test_lam1_bracket(self, small_ctx, lam1_exact):
        approx = fg.coarse_eigensolve(small_ctx, 1)
        assert lam1_exact <= approx.eigenvalues[0] <= 1.25 * lam1_exact

    def test_full_spectrum_trace(self, small_ctx):
        n = small_ctx.n_dofs(0)
        approx = fg.coarse_eigensolve(small_ctx, n)
        a = small_ctx.stiffness[0].toarray()
        b = small_ctx.mass[0].toarray()
        pencil_trace = np.trace(np.linalg.solve(b, a))
        assert abs(approx.eigenvalues.sum() - pencil_trace) <= 1e-8 * abs(pencil_trace)

    def test_min_max_lower_bounds(self, small_ctx):
        exact, _ = fg.model_exact_data(6)
        approx = fg.coarse_eigensolve(small_ctx, 6)
        assert np.all(approx.eigenvalues >= exact * (1.0 - 1e-13))

    def test_q_exceeding_dofs(self, small_ctx):
        with pytest.raises(ValueError):
            fg.coarse_eigensolve(small_ctx, small_ctx.n_dofs(0) + 1)

    def test_b_orthonormal(self, small_ctx):
        approx = fg.coarse_eigensolve(small_ctx, 4)
        assert b_orthonormality_drift(small_ctx.mass[0], approx.vectors) <= 1e-10


class TestOneCorrectionStep:
    @pytest.mark.parametrize("q", [1, 3])
    def test_exact_pairs_are_fixed_point(self, small_ctx, dense_pairs, q):
        level = 1
        vals, vecs = dense_pairs[level]
        approx = EigenApprox(level, vals[:q].copy(), vecs[:, :q].copy())
        config = fg.SolverConfig(q=q, m=2, p=1, nu=2)
        out = fg.one_correction_step(small_ctx, approx, config)
        assert np.abs(out.eigenvalues - vals[:q]).max() <= 1e-10
        assert np.abs(out.eigenvalues - vals[:q]).max() <= 1e-9 * vals[:q].max()

    def test_energy_error_contracts(self, small_ctx, dense_pairs):
        level = 2
        vals, vecs = dense_pairs[level]
        ref_val, ref_vec = vals[0], vecs[:, 0]
        stiffness = small_ctx.stiffness[level]
        mass = small_ctx.mass[level]

        coarse = fg.coarse_eigensolve(small_ctx, 1)
        lifted = small_ctx.transfer[1] @ (small_ctx.transfer[0] @ coarse.vectors)
        lifted = sign_fix(lifted / fg.norm_a(mass, lifted[:, 0]))
        approx = EigenApprox(level, coarse.eigenvalues.copy(), lifted)
        config = fg.SolverConfig(q=1, m=2, p=1, nu=2)

        errors = [aligned_energy_error(stiffness, mass, approx.vectors[:, 0], ref_vec)]
        for _ in range(3):
            approx = fg.one_correction_step(small_ctx, approx, config)
            errors.append(
                aligned_energy_error(stiffness, mass, approx.vectors[:, 0], ref_vec)
            )
        # Strict decrease until the round-off floor, with contraction < 1.
        for prev, cur in zip(errors, errors[1:]):
            if prev > 1e-11:
                assert cur < prev

    def test_eigenvalue_upper_bound_chain(self, small_ctx, dense_pairs, lam1_exact):
        level = 1
        coarse = fg.coarse_eigensolve(small_ctx, 1)
        lifted = small_ctx.transfer[0] @ coarse.vectors
        approx = EigenApprox(level, coarse.eigenvalues.copy(), lifted)
        config = fg.SolverConfig(q=1, m=2, p=1, nu=2)
        out = fg.one_correction_step(small_ctx, approx, config)
        dense_val = dense_pairs[level][0][0]
        assert out.eigenvalues[0] >= dense_val * (1.0 - 1e-12)
        assert dense_val >= lam1_exact * (1.0 - 1e-13)

    def test_level_at_coarse_index_rejected(self, small_ctx):
        approx = fg.coarse_eigensolve(small_ctx, 1)
        with pytest.raises(ValueError):
            fg.one_correction_step(
                small_ctx, approx, fg.SolverConfig()
            )

    def test_b_orthonormality_preserved(self, small_ctx):
        level = 1
        coarse = fg.coarse_eigensolve(small_ctx, 3)
        lifted = small_ctx.transfer[0] @ coarse.vectors
        approx = EigenApprox(level, coarse.eigenvalues.copy(), lifted)
        config = fg.SolverConfig(q=3, m=2, p=1, nu=2)
        out = fg.one_correction_step(small_ctx, approx, config)
        assert b_orthonormality_drift(small_ctx.mass[level], out.vectors) <= 1e-10

    def test_divergence_names_first_bad_pair(self, small_ctx, monkeypatch):
        # Stand-ins for mg_solve that spoil pair 1 only.  A NaN residual
        # compares False with the divergence bound, so the guard must count
        # it as divergence instead of letting it reach the Ritz solve.
        approx = lifted_coarse_pairs(small_ctx, 3, level=1)
        for spoil_by, after in [(1.0, "[0-9.e+-]+"), (np.nan, "nan"), (np.inf, "nan")]:
            def spoil(ctx, level, f, m, spoil_by=spoil_by):
                out = np.zeros_like(f)
                out[:, 1] += spoil_by
                return out

            monkeypatch.setattr("fmgeig.eigsolver.mg_solve", spoil)
            message = "multigrid diverged on pair 1: residual \\S+ -> %s$" % after
            with pytest.raises(SolverError, match=message):
                fg.one_correction_step(small_ctx, approx, fg.SolverConfig(q=3))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_first_defect_computed_once(self, small_ctx, m):
        # One float64 product for the defect that is both the guard's
        # "before" residual and the first cycle's, one per further cycle and
        # one for A_k S; the cycles' other products are float32.
        level = small_ctx.n_levels - 1
        counting = CountingMatrix(small_ctx.stiffness[level])
        stiffness = small_ctx.stiffness[:level] + [counting]
        ctx = dataclasses.replace(small_ctx, stiffness=stiffness)
        approx = lifted_coarse_pairs(small_ctx, 3, level)
        fg.one_correction_step(ctx, approx, fg.SolverConfig(q=3, m=m))
        assert counting.products == m + 1

    @staticmethod
    def mass_products(ctx, approx):
        """Products with the step level's mass matrix that one step makes."""
        counting = CountingMatrix(ctx.mass[approx.level])
        mass = ctx.mass[: approx.level] + [counting]
        fg.one_correction_step(
            dataclasses.replace(ctx, mass=mass), approx, fg.SolverConfig(q=approx.q)
        )
        return counting.products

    @pytest.mark.parametrize("q", [1, 3])
    def test_well_conditioned_lift_makes_two_mass_products(self, small_ctx, q):
        # B V for the right-hand sides and B S for the pencil; the Gram of
        # the output comes from the small pencil.
        approx = lifted_coarse_pairs(small_ctx, q, small_ctx.n_levels - 1)
        assert self.mass_products(small_ctx, approx) == 2

    @pytest.mark.parametrize("ctx_name", ["small_ctx", "general_ctx"])
    def test_near_dependent_input_takes_the_fine_pass(self, request, ctx_name):
        # The input of test_near_dependent_input_lifts_orthonormal: its lift
        # coefficients are large (guard figure 2.3e4 and 30), so the step
        # forms B V of its output for one more Cholesky-QR pass.
        ctx = request.getfixturevalue(ctx_name)
        level = 2
        vals, vecs = fg.generalized_eig_dense(
            ctx.stiffness[level].toarray(), ctx.mass[level].toarray(), 6
        )
        vecs[:, 2] = vecs[:, 1] + 1e-4 * np.random.default_rng(2).standard_normal(vecs.shape[0])
        assert self.mass_products(ctx, EigenApprox(level, vals, vecs)) == 3

    @pytest.mark.parametrize("ctx_name", ["small_ctx", "general_ctx"])
    def test_near_dependent_input_lifts_orthonormal(self, request, ctx_name):
        # Exact pairs with column 2 replaced by column 1 plus 1e-4 noise.  The
        # Ritz step must rebuild the lost pair from the noise direction, the
        # augmented mass matrix is ill-conditioned, and the Ritz lift drifts
        # from mass-orthonormality by 7e-8 (model) and 6e-12 (general) before
        # the step's Cholesky-QR pass.
        ctx = request.getfixturevalue(ctx_name)
        level = 2
        vals, vecs = fg.generalized_eig_dense(
            ctx.stiffness[level].toarray(), ctx.mass[level].toarray(), 6
        )
        vecs[:, 2] = vecs[:, 1] + 1e-4 * np.random.default_rng(2).standard_normal(vecs.shape[0])
        out = fg.one_correction_step(ctx, EigenApprox(level, vals, vecs), fg.SolverConfig(q=6))
        assert b_orthonormality_drift(ctx.mass[level], out.vectors) <= 1e-12


class TestPanelProducts:
    PANEL = eigsolver._PANEL

    @pytest.mark.parametrize("q", [1, 2, 6])
    @pytest.mark.parametrize("n", [1, PANEL - 1, PANEL + 1, 3 * PANEL + 7])
    def test_gram_matches_einsum(self, n, q):
        rng = np.random.default_rng(n + q)
        left, right = rng.standard_normal((2, n, q))
        expected = np.einsum("ij,ik->jk", left, right)
        got = eigsolver._gram(left, right)
        assert got.shape == (q, q)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("q", [1, 2, 6])
    @pytest.mark.parametrize("n", [1, PANEL - 1, PANEL + 1, 3 * PANEL + 7])
    def test_add_product_updates_out_in_place(self, n, q):
        rng = np.random.default_rng(n + q)
        block, out = rng.standard_normal((2, n, q))
        coef = rng.standard_normal((q, q))
        expected = out + np.einsum("ij,jk->ik", block, coef)
        got = eigsolver._add_product(out, block, coef)
        assert got is out
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


class TestCorrectionStepReference:
    @staticmethod
    def assert_matches_reference(ctx, approx, config):
        ref_vals, ref_vecs = reference_correction(ctx, approx, config)
        out = fg.one_correction_step(ctx, approx, config)
        assert np.abs(out.eigenvalues - ref_vals).max() <= 1e-12 * np.abs(ref_vals).max()
        # The step leaves signs to the sweep.  On these symmetric meshes a
        # column's largest magnitude is often attained twice with opposite
        # signs; the sign convention must not follow the round-off between them.
        vectors = sign_fix(out.vectors)
        assert np.abs(vectors - ref_vecs).max() <= 1e-10 * np.abs(ref_vecs).max()

    def test_model_q3(self, small_ctx):
        approx = lifted_coarse_pairs(small_ctx, 3, level=2)
        self.assert_matches_reference(small_ctx, approx, fg.SolverConfig(q=3))

    def test_general_q6(self, general_ctx):
        approx = lifted_coarse_pairs(general_ctx, 6, level=2)
        self.assert_matches_reference(general_ctx, approx, fg.SolverConfig(q=6))

    def test_exact_pairs_with_dropped_column(self, small_ctx, dense_pairs, monkeypatch):
        # Exact pairs are a fixed point; with the first given twice, its
        # smoothed copies coincide, so the augmented basis loses a column
        # ahead of a kept one and the Ritz vectors are lifted with a zero
        # weight in its place.
        kept = []

        def recording_ritz(a_aug, b_aug, q):
            out = augmented_ritz(a_aug, b_aug, q)
            kept.append(out[2])
            return out

        level = 1
        vals, vecs = dense_pairs[level]
        approx = EigenApprox(level, vals[[0, 0, 1]], vecs[:, [0, 0, 1]])
        config = fg.SolverConfig(q=3)
        monkeypatch.setattr(eigsolver, "augmented_ritz", recording_ritz)
        self.assert_matches_reference(small_ctx, approx, config)
        n_aug = small_ctx.n_dofs(0) + 3
        assert kept[-1].shape[0] == n_aug - 1 and kept[-1][-1] == n_aug - 1
        out = fg.one_correction_step(small_ctx, approx, config)
        assert np.abs(out.eigenvalues[[0, 1]] - vals[[0, 1]]).max() <= 1e-12 * vals[1]


class TestCorrectionStepOnRandomMeshes:
    @settings(max_examples=20)
    @given(
        mesh=shuffled_meshes(st.sampled_from([3, 4])),
        q=st.integers(1, 3),
        general=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fixed_point_and_orthonormal_ritz_output(self, mesh, q, general, seed):
        coeff = fg.general_problem().coefficients if general else fg.laplace_coefficients()
        ctx = fg.build_mg_context(fg.build_hierarchy(mesh, 3), coeff, nu=2)
        level = 2
        vals, vecs = fg.generalized_eig_dense(
            ctx.stiffness[level].toarray(), ctx.mass[level].toarray(), q
        )
        config = fg.SolverConfig(q=q)
        fixed = fg.one_correction_step(ctx, EigenApprox(level, vals, vecs), config)
        assert np.abs(fixed.eigenvalues - vals).max() <= 1e-10 * vals.max()

        # The prolongated coarse block with its columns mixed and scaled.
        rng = np.random.default_rng(seed)
        lifted = lifted_coarse_pairs(ctx, q, level)
        mix = np.eye(q) + 0.3 * rng.standard_normal((q, q))
        mix *= 10.0 ** rng.uniform(-3.0, 3.0, q)
        approx = EigenApprox(level, lifted.eigenvalues, lifted.vectors @ mix)
        out = fg.one_correction_step(ctx, approx, config)
        assert b_orthonormality_drift(ctx.mass[level], out.vectors) <= 1e-12
        assert np.all(out.eigenvalues >= vals * (1.0 - 1e-12))


class TestAugmentedRitz:
    def test_duplicate_column_dropped_result_unchanged(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((12, 5))
        b_aug = base.T @ base + np.eye(5)
        spd = rng.standard_normal((5, 5))
        a_aug = spd.T @ spd + 5.0 * np.eye(5)

        clean_vals, clean_vecs, clean_kept = augmented_ritz(a_aug, b_aug, 1)
        assert np.array_equal(clean_kept, np.arange(5))

        # Append an exact duplicate of the last basis column.
        a_dup = np.zeros((6, 6))
        b_dup = np.zeros((6, 6))
        a_dup[:5, :5], b_dup[:5, :5] = a_aug, b_aug
        a_dup[5, :5], a_dup[:5, 5], a_dup[5, 5] = a_aug[4], a_aug[:, 4], a_aug[4, 4]
        b_dup[5, :5], b_dup[:5, 5], b_dup[5, 5] = b_aug[4], b_aug[:, 4], b_aug[4, 4]
        vals, _, kept = augmented_ritz(a_dup, b_dup, 1)
        assert kept.shape[0] == 5
        assert abs(vals[0] - clean_vals[0]) <= 1e-10 * abs(clean_vals[0])

    def test_detects_rank_deficiency(self):
        rng = np.random.default_rng(7)
        basis = rng.standard_normal((8, 5))
        b_aug = basis @ basis.T  # rank 5 Gram matrix of 8 columns
        spd = rng.standard_normal((8, 8))
        a_aug = spd @ spd.T + 8.0 * np.eye(8)
        _, _, kept = augmented_ritz(a_aug, b_aug, 2)
        assert kept.shape[0] == 5

    def test_rank_below_q_raises(self):
        ones = np.ones((3, 3))
        with pytest.raises(DegenerateAugmentationError):
            augmented_ritz(np.eye(3), ones, 2)


class TestFullMultigrid:
    def test_single_level_equals_coarse_solve(self, model_coeff):
        # q=2 cuts the double 5 pi^2, so the block has a guard column, and
        # the run returns the first two pairs of the dense solve that chose
        # the width (q + 3 = 5 pairs).
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 1)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        config = fg.SolverConfig(q=2, m=2, p=2, nu=2)
        via_fmg = fg.full_multigrid(hier, model_coeff, config, ctx=ctx)
        width, dense = eigsolver._block_width(ctx, 2)
        assert width == 3
        assert np.array_equal(via_fmg.eigenvalues, dense.eigenvalues[:2])
        assert np.array_equal(via_fmg.vectors, dense.vectors[:, :2])

    def test_guard_columns_keep_a_mode_the_coarse_mesh_orders_late(self):
        # On the seed-1 benchmark mesh the coarse space orders the general
        # problem's 7th mode 8th (coarse lambda7, lambda8 = 171.5, 177.0).
        # A 7-column block follows the wrong mode, 146.68 against 138.30 on
        # level 2; with the guard column level 2 is 3.5e-5 off.
        coeff = fg.general_problem().coefficients
        hier = fg.build_hierarchy(benchmark_mesh(1), 3)
        ctx = fg.build_mg_context(hier, coeff, nu=2)
        fmg, direct = [], []
        fg.full_multigrid(hier, coeff, fg.SolverConfig(q=7), ctx=ctx, on_level=fmg.append)
        fg.direct_fine_solve(ctx, 7, 1e-10, on_level=direct.append)
        assert [a.q for a in fmg] == [7, 7, 7]
        for ours, ref in zip(fmg, direct):
            assert abs(ours.eigenvalues[6] - ref.eigenvalues[6]) <= 1e-3 * ref.eigenvalues[6]

    def test_matches_dense_oracle_on_small_hierarchy(self, small_hierarchy, small_ctx, model_coeff, dense_pairs):
        config = fg.SolverConfig(q=1, m=2, p=4, nu=2)
        out = fg.full_multigrid(small_hierarchy, model_coeff, config, ctx=small_ctx)
        oracle = dense_pairs[2][0][0]
        assert abs(out.eigenvalues[0] - oracle) <= 1e-8 * oracle

    def test_level_snapshots_match_incremental_runs(self, model_coeff):
        # The scheme is incremental: an L-level run is a prefix of a deeper one.
        config = fg.SolverConfig(q=1, m=2, p=2, nu=2)
        snaps = []
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 3)
        fg.full_multigrid(hier, model_coeff, config, on_level=lambda a: snaps.append(a))
        assert [a.level for a in snaps] == [0, 1, 2]
        short = fg.full_multigrid(
            fg.build_hierarchy(fg.unit_square_mesh(4), 2), model_coeff, config
        )
        assert np.array_equal(short.eigenvalues, snaps[1].eigenvalues)

    def test_sign_convention(self, small_hierarchy, small_ctx, model_coeff):
        config = fg.SolverConfig(q=3, m=2, p=2, nu=2)
        out = fg.full_multigrid(small_hierarchy, model_coeff, config, ctx=small_ctx)
        for column in out.vectors.T:
            assert column[leading_entry(column)] > 0.0

    def test_b_orthonormal_output(self, small_hierarchy, small_ctx, model_coeff):
        config = fg.SolverConfig(q=4, m=2, p=2, nu=2)
        out = fg.full_multigrid(small_hierarchy, model_coeff, config, ctx=small_ctx)
        assert b_orthonormality_drift(small_ctx.mass[out.level], out.vectors) <= 1e-10

    def test_given_context_sets_the_depth(self, small_hierarchy, model_coeff):
        # The hierarchy only builds a missing context: a 2-level context
        # stops the sweep at level 1 beside a 3-level hierarchy.
        short = fg.build_hierarchy(fg.unit_square_mesh(4), 2)
        ctx = fg.build_mg_context(short, model_coeff, nu=2)
        config = fg.SolverConfig(q=2)
        levels = []
        out = fg.full_multigrid(
            small_hierarchy, model_coeff, config, ctx=ctx, on_level=levels.append
        )
        assert [a.level for a in levels] == [0, 1] and out.level == 1
        matching = fg.full_multigrid(short, model_coeff, config)
        assert out.vectors.tobytes() == matching.vectors.tobytes()

    @staticmethod
    def mixed_and_float64_runs(request, monkeypatch, problem, config):
        """Finest eigenvalues of ``config`` on the problem's small hierarchy,
        with the float32 cycles of ``mg_solve`` and with float64 cycles, and
        the context they ran on."""
        if problem == "model":
            hier, ctx = request.getfixturevalue("small_hierarchy"), request.getfixturevalue("small_ctx")
            coeff = fg.laplace_coefficients()
        else:
            hier, ctx = request.getfixturevalue("general_hierarchy"), request.getfixturevalue("general_ctx")
            coeff = fg.general_problem().coefficients
        mixed = fg.full_multigrid(hier, coeff, config, ctx=ctx).eigenvalues
        with monkeypatch.context() as patch:
            patch.setattr("fmgeig.eigsolver.mg_solve", float64_mg_solve)
            reference = fg.full_multigrid(hier, coeff, config, ctx=ctx).eigenvalues
        return mixed, reference, ctx

    @pytest.mark.parametrize("problem", ["model", "general"])
    def test_float32_cycles_match_float64_eigenvalues(self, request, monkeypatch, problem):
        # The smoothed vectors only need to span a good space, so float32
        # round-off inside the cycles moves the eigenvalues by about float32
        # epsilon times the algebraic error the scheme leaves.  With two
        # cycles per step, the second a float64 defect correction of the
        # first, that error is 2e-4 (model) and 5e-5 (general) relative on
        # these coarse hierarchies, and the measured drift 2.0e-12 and 1.8e-12.
        config = fg.SolverConfig(q=6, m=2)
        mixed, reference, _ = self.mixed_and_float64_runs(request, monkeypatch, problem, config)
        drift = np.abs(mixed - reference) / reference
        assert drift.max() <= 1e-11

    @pytest.mark.parametrize("problem", ["model", "general"])
    def test_float32_drift_below_algebraic_error(self, request, monkeypatch, problem):
        # A single cycle, the default, has no float64 correction: the drift is
        # 1.8e-11 (model) and 4.3e-11 (general) relative, ten to twenty times
        # that of m=2, but still a few float32 epsilons times each pair's
        # algebraic error (measured worst ratio 7.5e-7, general pair 5).
        config = fg.SolverConfig(q=6, m=1)
        mixed, reference, ctx = self.mixed_and_float64_runs(request, monkeypatch, problem, config)
        level = ctx.n_levels - 1
        discrete, _ = fg.generalized_eig_dense(
            ctx.stiffness[level].toarray(), ctx.mass[level].toarray(), config.q
        )
        assert np.all(np.abs(mixed - reference) <= 1e-5 * np.abs(mixed - discrete))

    def test_default_schedule_leaves_small_algebraic_error(self):
        # The benchmark's rule (perfbench/checks.py, ALG_FRACTION): on the
        # two finest levels the distance of every FMG eigenvalue from the
        # discrete one is at most 1e-3 of the discrete change from the level
        # below.  Measured on the benchmark's seed-1 coarse mesh: 9.3e-5
        # with the defaults, 9.0e-5 with m=2.  (On square:4 the 9-dof coarse
        # space leaves 2.4e-3 with the defaults and 2.0e-3 with m=2.)
        coeff = fg.general_problem().coefficients
        hier = fg.build_hierarchy(benchmark_mesh(1), 3)
        ctx = fg.build_mg_context(hier, coeff, nu=2)
        levels = []
        fg.full_multigrid(hier, coeff, fg.SolverConfig(q=6), ctx=ctx, on_level=levels.append)
        discrete = [
            fg.generalized_eig_dense(ctx.stiffness[k].toarray(), ctx.mass[k].toarray(), 6)[0]
            for k in range(ctx.n_levels)
        ]
        for k in (1, 2):
            change = np.abs(discrete[k] - discrete[k - 1])
            assert np.all(np.abs(levels[k].eigenvalues - discrete[k]) <= 1e-3 * change)


class TestWorkingSet:
    def test_fmg_peak_within_seven_finest_blocks(self):
        # Traced peak of one FMG call above what was live before it, in
        # finest (n, w) float64 blocks, general q=6, 5 levels, 16,129 dofs:
        # 8.59 with out-of-place residuals and the sweep holding the
        # prolongated block through the level's second step, 6.63 in place.
        coeff = fg.general_problem().coefficients
        hier = fg.build_hierarchy(benchmark_mesh(1), 5)
        ctx = fg.build_mg_context(hier, coeff)
        width, _ = eigsolver._block_width(ctx, 6)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            fg.full_multigrid(hier, coeff, fg.SolverConfig(q=6), ctx=ctx)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 7.0 * 8 * ctx.n_dofs(4) * width


class TestConcurrentSolves:
    """Solves that share one context each return the pairs and the work of a
    serial run."""

    def test_full_multigrid(self, general_hierarchy, general_ctx):
        config = fg.SolverConfig(q=3)
        coeff = fg.general_problem().coefficients

        def solve():
            levels = []
            fg.full_multigrid(
                general_hierarchy, coeff, config, ctx=general_ctx, on_level=levels.append
            )
            return [(approx.eigenvalues, approx.work_units) for approx in levels]

        serial = solve()
        per_level = [config.p * config.m * config.q * general_ctx.cycle_work(k)
                     for k in range(general_ctx.n_levels)]
        assert [work for _, work in serial] == np.cumsum(per_level).tolist()
        for run in run_in_threads(solve):
            for (vals, work), (serial_vals, serial_work) in zip(run, serial, strict=True):
                assert np.array_equal(vals, serial_vals)
                assert work == serial_work

    def test_direct_fine_solve(self, general_ctx):
        def solve():
            levels = []
            fg.direct_fine_solve(general_ctx, 2, 1e-9, on_level=levels.append)
            return [(approx.eigenvalues, approx.work_units) for approx in levels]

        filters = list(warnings.filters)
        threads = blas_thread_counts()
        serial = solve()
        increments = np.diff([0.0] + [work for _, work in serial])
        assert increments[0] == 0 and increments[-1] > 0  # level 0 is dense
        # Each level adds whole cycles from that level.
        for k in range(1, general_ctx.n_levels):
            assert increments[k] % general_ctx.cycle_work(k) == 0
        for run in run_in_threads(solve):
            for (vals, work), (serial_vals, serial_work) in zip(run, serial, strict=True):
                assert np.array_equal(vals, serial_vals)
                assert work == serial_work
        # Each call ignores LOBPCG's warnings and caps the BLAS threads
        # while it runs, and no more.
        assert warnings.filters == filters
        assert blas_thread_counts() == threads


class TestBlasThreadCap:
    """Each LOBPCG call of the direct baseline runs on one OpenBLAS thread,
    and the thread counts come back as they were."""

    def test_lobpcg_runs_on_one_thread(self, general_ctx, monkeypatch):
        before, seen = blas_thread_counts(), []

        def spy(*args, **kwargs):
            seen.append(blas_thread_counts())
            return scipy.sparse.linalg.lobpcg(*args, **kwargs)

        monkeypatch.setattr("fmgeig.eigsolver.lobpcg", spy)
        fg.direct_fine_solve(general_ctx, 2, 1e-9)
        assert len(seen) == general_ctx.n_levels - 1
        assert all(counts == [1] * len(before) for counts in seen)
        assert blas_thread_counts() == before

    def test_counts_restored_when_lobpcg_raises(self, general_ctx, monkeypatch):
        before = blas_thread_counts()

        def fail(*args, **kwargs):
            raise RuntimeError("inside the cap")

        monkeypatch.setattr("fmgeig.eigsolver.lobpcg", fail)
        with pytest.raises(RuntimeError, match="inside the cap"):
            fg.direct_fine_solve(general_ctx, 2, 1e-9)
        assert blas_thread_counts() == before
        monkeypatch.undo()
        fg.direct_fine_solve(general_ctx, 2, 1e-9)  # the lock was released


class TestNoSpinningWorker:
    """Set-up, the direct baseline, ``norm_a`` and ``compute_errors`` leave no
    OpenBLAS worker busy-waiting.
    On two BLAS threads, set-up's scipy ``dpotri`` and uncapped LOBPCG each
    left 17-20 ms of CPU in the probe's 20 ms sleep; where two CPUs are free,
    a worker spinning beside the solve also raises its CPU time per wall
    second towards 2."""

    @pytest.fixture(scope="class")
    def hierarchy(self):
        # 16,129 finest dofs: LOBPCG's block products there are large
        # enough for OpenBLAS to split.
        return fg.build_hierarchy(benchmark_mesh(1), 5)

    def test_set_up_and_direct_solve_leave_the_pool_quiet(self, hierarchy, spin_probe):
        ctx = fg.build_mg_context(hierarchy, fg.general_problem().coefficients, nu=2)
        assert spin_probe() < 5e-3
        cpu, wall = time.process_time(), time.perf_counter()
        fg.direct_fine_solve(ctx, 6, 1e-9)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        assert spin_probe() < 5e-3
        assert cpu / wall < 1.3

    def test_norm_a_leaves_the_pool_quiet(self, spin_probe):
        # The finest model dof count: a BLAS dot of this length wakes a
        # worker that spun through about 20 ms of the probe's sleep.
        n = 261_121
        vec = np.linspace(1.0, 2.0, n)
        assert fg.norm_a(scipy.sparse.eye_array(n, format="csr"), vec) > 0.0
        assert spin_probe() < 5e-3

    def test_compute_errors_leaves_the_pool_quiet(self, spin_probe):
        # 260,100 interior dofs: the sign alignment of a flipped eigenvector
        # with its interpolant is a dot of that length.
        mesh = fg.unit_square_mesh(511)
        dofmap = fg.interior_dofmap(mesh)
        spec = fg.model_problem(1)
        stiffness, mass = fg.assemble_pencil(mesh, dofmap, spec.coefficients)
        ctx = types.SimpleNamespace(
            stiffness=[stiffness], mass=[mass], dofmaps=[dofmap], n_dofs=lambda level: dofmap.size
        )
        target = fg.interpolate(mesh, dofmap, spec.exact_eigenfunctions[0])
        approx = EigenApprox(0, spec.exact_eigenvalues[:1], -target[:, None])
        row = fg.compute_errors(approx, spec, fg.MeshHierarchy([mesh]), ctx)
        assert row.energy_err[0] == 0.0  # the flipped vector was aligned
        assert spin_probe() < 5e-3


class TestThreadDeterminism:
    SETUP = """
import json
import fmgeig as fg
hier = fg.build_hierarchy(fg.unit_square_mesh(8), 3)
spec = fg.general_problem()
"""

    @staticmethod
    def one_thread_run(script):
        """The JSON list ``script`` prints, run with one OpenBLAS thread."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(fg.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return np.array(json.loads(result.stdout))

    def test_one_blas_thread_matches_in_process_run(self):
        single = self.one_thread_run(self.SETUP + """
out = fg.full_multigrid(hier, spec.coefficients, fg.SolverConfig(q=6))
print(json.dumps(out.eigenvalues.tolist()))
""")
        hier = fg.build_hierarchy(fg.unit_square_mesh(8), 3)
        spec = fg.general_problem()
        here = fg.full_multigrid(hier, spec.coefficients, fg.SolverConfig(q=6)).eigenvalues
        assert np.abs(single - here).max() <= 1e-12 * np.abs(here).max()

    def test_direct_solve_matches_one_blas_thread_bit_for_bit(self):
        # LOBPCG runs on one thread in-process too, and set-up's coarse
        # inverse and the dense level 0 stay on one thread.
        single = self.one_thread_run(self.SETUP + """
ctx = fg.build_mg_context(hier, spec.coefficients)
print(json.dumps(fg.direct_fine_solve(ctx, 6, 1e-9).eigenvalues.tolist()))
""")
        hier = fg.build_hierarchy(fg.unit_square_mesh(8), 3)
        ctx = fg.build_mg_context(hier, fg.general_problem().coefficients)
        assert np.array_equal(single, fg.direct_fine_solve(ctx, 6, 1e-9).eigenvalues)


L_SHAPE_FILE = """8 6
0 0
1 0
2 0
0 1
1 1
2 1
0 2
1 2
0 1 4
0 4 3
1 2 5
1 5 4
3 4 7
3 7 6
"""

# First Dirichlet eigenvalue of the L-shaped domain (reentrant corner).
L_SHAPE_LAM1 = 9.6397238440219


class TestLShapedDomain:
    def test_coarse_mesh_without_interior_dofs_rejected(self, model_coeff):
        hier = fg.build_hierarchy(fg.load_mesh(L_SHAPE_FILE), 3)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        with pytest.raises(ValueError, match="dofs"):
            fg.full_multigrid(hier, model_coeff, fg.SolverConfig(), ctx=ctx)

    def test_converges_with_direct_parity(self, model_coeff):
        coarse = fg.refine_regular(fg.load_mesh(L_SHAPE_FILE))
        hier = fg.build_hierarchy(coarse, 4)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        config = fg.SolverConfig(q=1, m=2, p=2, nu=2)
        snaps = []
        fg.full_multigrid(hier, model_coeff, config, ctx=ctx, on_level=snaps.append)
        lams = [a.eigenvalues[0] for a in snaps]
        assert all(lam >= L_SHAPE_LAM1 for lam in lams)
        assert all(b < a for a, b in zip(lams, lams[1:]))
        assert lams[-1] <= 9.75  # regression bound from the first run
        direct = fg.direct_fine_solve(ctx, 1, 1e-9)
        fmg_err = lams[-1] - L_SHAPE_LAM1
        direct_err = direct.eigenvalues[0] - L_SHAPE_LAM1
        assert fmg_err <= 1.5 * direct_err


class TestDirectFineSolve:
    def test_single_level_matches_dense(self, model_coeff):
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 1)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        out = fg.direct_fine_solve(ctx, 2, 1e-11)
        vals, _ = fg.generalized_eig_dense(
            ctx.stiffness[0].toarray(), ctx.mass[0].toarray(), 2
        )
        assert np.abs(out.eigenvalues - vals).max() <= 1e-9 * vals.max()

    def test_lam1_above_exact_every_level(self, small_ctx, lam1_exact):
        levels = []
        fg.direct_fine_solve(small_ctx, 1, 1e-9, on_level=levels.append)
        assert [out.level for out in levels] == list(range(small_ctx.n_levels))
        for out in levels:
            assert out.eigenvalues[0] >= lam1_exact * (1.0 - 1e-12)

    def test_six_eigenvalues_converge_to_exact_set(self, model_coeff):
        exact, _ = fg.model_exact_data(6)
        hier = fg.build_hierarchy(fg.unit_square_mesh(8), 3)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        levels = []
        fg.direct_fine_solve(ctx, 6, 1e-9, on_level=levels.append)
        gaps = [np.abs(np.sort(out.eigenvalues) - exact).max() for out in levels]
        assert len(gaps) == 3
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]

    def test_residual_contract(self, small_ctx):
        tol = 1e-10
        out = fg.direct_fine_solve(small_ctx, 3, tol)
        a = small_ctx.stiffness[out.level]
        b = small_ctx.mass[out.level]
        scale = abs(a).max()
        for j in range(out.q):
            u = out.vectors[:, j]
            res = np.linalg.norm(a @ u - out.eigenvalues[j] * (b @ u))
            assert res <= tol * scale

    def test_b_orthonormal(self, small_ctx):
        out = fg.direct_fine_solve(small_ctx, 4, 1e-9)
        assert b_orthonormality_drift(small_ctx.mass[out.level], out.vectors) <= 1e-10

    def test_invalid_tol(self, small_ctx):
        with pytest.raises(ValueError):
            fg.direct_fine_solve(small_ctx, 1, 0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_rejected(self, small_ctx, tol):
        with pytest.raises(ValueError):
            fg.direct_fine_solve(small_ctx, 1, tol)

    # One LOBPCG call meets 1e-12 here (9.9e-14 of max|A|); the retry after a
    # stalled call is test_stalled_call_is_retried_under_error_filter.
    def test_restart_reaches_tight_target(self, model_coeff):
        hier = fg.build_hierarchy(fg.unit_square_mesh(8), 2)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        tol = 1e-12
        out = fg.direct_fine_solve(ctx, 6, tol)
        a, b, u = ctx.stiffness[1], ctx.mass[1], out.vectors
        residuals = np.linalg.norm(a @ u - (b @ u) * out.eigenvalues, axis=0)
        assert residuals.max() <= tol * abs(a).max()

    # With the floor at 1e-13, LOBPCG stopped at 1.7e-13 on level 3 of seed
    # 1, and at 3.4e-13 on level 1 of seed 6 with a target of 2e-13.
    @pytest.mark.parametrize("seed, level", [(1, 3), (6, 1)])
    def test_floor_met_on_benchmark_meshes(self, model_coeff, seed, level):
        hier = fg.build_hierarchy(benchmark_mesh(seed), level + 1)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        tol = eigsolver.DIRECT_TOL_FLOOR
        out = fg.direct_fine_solve(ctx, 6, tol)
        a, b, u = ctx.stiffness[level], ctx.mass[level], out.vectors
        residuals = np.linalg.norm(a @ u - (b @ u) * out.eigenvalues, axis=0)
        assert residuals.max() <= tol * abs(a).max()

    # The residual floor on this level is about 2e-15 to 7e-15 of max|A|.
    def test_target_below_round_off_raises(self, small_ctx):
        with pytest.raises(fg.ConvergenceError):
            fg.direct_fine_solve(small_ctx, 1, 1e-16)

    @pytest.mark.filterwarnings("error")
    def test_matches_eigsh_every_level(self):
        spec = fg.general_problem()
        hier = fg.build_hierarchy(fg.unit_square_mesh(8), 3)
        ctx = fg.build_mg_context(hier, spec.coefficients, nu=2)
        levels = []
        fg.direct_fine_solve(ctx, 6, 1e-9, on_level=levels.append)
        assert [out.level for out in levels] == [0, 1, 2]
        for level, out in enumerate(levels):
            ref = scipy.sparse.linalg.eigsh(
                ctx.stiffness[level], k=6, M=ctx.mass[level], sigma=0
            )[0]
            assert np.abs(out.eigenvalues - np.sort(ref)).max() <= 1e-10 * ref.max()

    # The general case tells start blocks apart: a random block in dof
    # order takes 330980 and 335920 work units on its two numberings.
    @pytest.mark.parametrize("problem, levels", [("model", 3), ("general", 4)])
    def test_independent_of_vertex_numbering(self, problem, levels):
        # The start block is a set of coarse eigenfunctions, whatever the
        # numbering, so the iteration is the same up to round-off.
        coeff = fg.laplace_coefficients() if problem == "model" else fg.general_problem().coefficients
        runs = []
        for mesh in (fg.unit_square_mesh(4), shuffled_square_mesh(4, 0.0, seed=3)):
            ctx = fg.build_mg_context(fg.build_hierarchy(mesh, levels), coeff, nu=2)
            out = fg.direct_fine_solve(ctx, 2, 1e-9)
            runs.append((out.eigenvalues, out.work_units))
        (vals, work), (permuted_vals, permuted_work) = runs
        assert np.abs(permuted_vals - vals).max() <= 1e-12 * vals.max()
        assert permuted_work == work

    def test_work_is_one_cycle_per_preconditioned_column(
        self, general_hierarchy, general_ctx, monkeypatch
    ):
        columns = []

        def spy(ctx, level, f, m):
            assert m == 1
            columns.append((level, f.shape[1]))
            return fg.mg_solve(ctx, level, f, m)

        monkeypatch.setattr("fmgeig.eigsolver.mg_solve", spy)
        out = fg.direct_fine_solve(general_ctx, 2, 1e-9)
        assert len(columns) > 1 and max(n for _, n in columns) > 1
        # The sweep's work is cumulative: each level's columns, summed.
        assert out.work_units == sum(n * general_ctx.cycle_work(k) for k, n in columns)
        coarse = leading_context(general_hierarchy, fg.general_problem().coefficients, 1)
        assert fg.direct_fine_solve(coarse, 2, 1e-9).work_units == 0.0

    # The baseline's counterpart of the on_level contract of full_multigrid.
    @pytest.mark.parametrize("problem", ["model", "general"])
    def test_sweep_snapshots_match_shorter_sweeps(self, problem, monkeypatch):
        coeff = fg.laplace_coefficients() if problem == "model" else fg.general_problem().coefficients
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 4)
        ctx = fg.build_mg_context(hier, coeff, nu=2)
        columns = []

        def spy(ctx, level, f, m):
            columns.append((level, f.shape[1]))
            return fg.mg_solve(ctx, level, f, m)

        monkeypatch.setattr("fmgeig.eigsolver.mg_solve", spy)
        snapshots = []
        fg.direct_fine_solve(ctx, 2, 1e-9, on_level=snapshots.append)
        assert [out.level for out in snapshots] == list(range(ctx.n_levels))
        increments = np.diff([0.0] + [out.work_units for out in snapshots])
        for k in range(ctx.n_levels):
            preconditioned = sum(n for level, n in columns if level == k)
            assert increments[k] == preconditioned * ctx.cycle_work(k)
        for k, snapshot in enumerate(snapshots):
            out = fg.direct_fine_solve(leading_context(hier, coeff, k + 1), 2, 1e-9)
            assert np.array_equal(out.eigenvalues, snapshot.eigenvalues)
            assert np.array_equal(out.vectors, snapshot.vectors)
            assert out.work_units == snapshot.work_units

    # Model eigenvalues on the unit square are pi^2 times 2, 5, 5, 8, 10,
    # 10, 13, 13, ...: q=1 ends before the 5 pi^2 double, q=2 after it, and
    # q=5 after the 10 pi^2 double, where a block of q + 2 = 7 would split
    # the 13 pi^2 one.  The general problem's widest gap follows pair 6.
    @pytest.mark.parametrize(
        "problem, q, width",
        [("model", 1, 1), ("model", 2, 3), ("model", 5, 6), ("general", 6, 6)],
    )
    def test_block_ends_at_widest_gap(self, problem, q, width, monkeypatch):
        widths = []

        def spy(a, block, **kwargs):
            widths.append(block.shape[1])
            return scipy.sparse.linalg.lobpcg(a, block, **kwargs)

        monkeypatch.setattr("fmgeig.eigsolver.lobpcg", spy)
        coeff = fg.laplace_coefficients() if problem == "model" else fg.general_problem().coefficients
        ctx = fg.build_mg_context(fg.build_hierarchy(benchmark_mesh(1), 4), coeff, nu=2)
        fg.direct_fine_solve(ctx, q, 1e-9)
        # One call per level above the dense level 0, all of one width.
        assert widths == [width] * (ctx.n_levels - 1)

    def test_dense_level_passes_up_its_own_block(self, general_ctx, monkeypatch):
        # Level 0 is the dense solve that picks the width, with no LOBPCG
        # call; every finer level makes one, started from the level below's block.
        calls = []

        def spy(a, block, **kwargs):
            start = block.copy()  # LOBPCG scales its start block in place
            vals, out = scipy.sparse.linalg.lobpcg(a, block, **kwargs)
            calls.append((a.shape[0], start, out))
            return vals, out

        monkeypatch.setattr("fmgeig.eigsolver.lobpcg", spy)
        levels = []
        fg.direct_fine_solve(general_ctx, 2, 1e-9, on_level=levels.append)
        assert [n for n, _, _ in calls] == [general_ctx.n_dofs(k) for k in range(1, 4)]
        width = calls[0][1].shape[1]
        dense = fg.coarse_eigensolve(general_ctx, 5)  # q + 3 pairs choose the width
        assert np.array_equal(levels[0].eigenvalues, dense.eigenvalues[:2])
        assert np.array_equal(levels[0].vectors, dense.vectors[:, :2])
        assert levels[0].work_units == 0.0
        assert np.array_equal(calls[0][1], general_ctx.transfer[0] @ dense.vectors[:, :width])
        for k in range(1, 3):
            assert np.array_equal(calls[k][1], general_ctx.transfer[k] @ calls[k - 1][2])

    def test_dense_level_keeps_the_residual_check(self, small_ctx, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("lobpcg called")

        monkeypatch.setattr("fmgeig.eigsolver.lobpcg", never)
        with pytest.raises(fg.ConvergenceError, match="on level 0$"):
            fg.direct_fine_solve(small_ctx, 1, 1e-20)

    def test_fewer_than_q_coarse_dofs_raise_before_any_call(self, model_coeff, monkeypatch):
        # unit_square_mesh(2) has one interior dof, too few for q=2 pairs.
        def never(*args, **kwargs):
            raise AssertionError("lobpcg called")

        monkeypatch.setattr("fmgeig.eigsolver.lobpcg", never)
        hier = fg.build_hierarchy(fg.unit_square_mesh(2), 3)
        for levels in (1, 3):
            with pytest.raises(ValueError, match="q must be"):
                fg.direct_fine_solve(leading_context(hier, model_coeff, levels), 2, 1e-9)

    # unit_square_mesh(3) has 4 interior dofs: q + 1 for q=3, q for q=4.
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_coarse_space_below_q_plus_3_dofs(self, model_coeff, q):
        ctx = fg.build_mg_context(fg.build_hierarchy(fg.unit_square_mesh(3), 2), model_coeff, nu=2)
        levels = []
        fg.direct_fine_solve(ctx, q, 1e-9, on_level=levels.append)
        for level, out in enumerate(levels):
            vals, _ = fg.generalized_eig_dense(
                ctx.stiffness[level].toarray(), ctx.mass[level].toarray(), q
            )
            assert np.abs(out.eigenvalues - vals).max() <= 1e-10 * vals.max()

    def test_block_rule_budget(self, model_coeff, monkeypatch):
        # Model q=5 on level 3 of the benchmark's seed-1 mesh: a block of 7
        # columns took 40 LOBPCG iterations and preconditioned 111 columns;
        # the 6-column block took 18 and 76 from the level-0 eigenvectors,
        # and takes 13 and 58 from level 2's block.
        columns = []

        def spy(ctx, level, f, m):
            if level == 3:
                columns.append(f.shape[1])
            return fg.mg_solve(ctx, level, f, m)

        monkeypatch.setattr("fmgeig.eigsolver.mg_solve", spy)
        ctx = fg.build_mg_context(fg.build_hierarchy(benchmark_mesh(1), 4), model_coeff, nu=2)
        fg.direct_fine_solve(ctx, 5, 1e-9)
        assert len(columns) <= 40 // 2
        assert sum(columns) <= 111 * 3 // 4

    @pytest.mark.filterwarnings("error")
    def test_stalled_call_is_retried_under_error_filter(self, general_ctx, monkeypatch):
        # The first call on level 1 stops after one iteration, far above its
        # target, and LOBPCG warns; the residual check, not the warning, decides.
        level_of = {general_ctx.n_dofs(k): k for k in range(general_ctx.n_levels)}
        calls, warned = [], []

        def stall_first_on_level_1(a, block, **kwargs):
            level = level_of[a.shape[0]]
            if level == 1 and all(done != 1 for done, _ in calls):
                kwargs["maxiter"] = 1
            calls.append((level, kwargs["maxiter"]))
            return scipy.sparse.linalg.lobpcg(a, block, **kwargs)

        def record(message, category=UserWarning, *args, **kwargs):
            warned.append((len(calls), category, str(message)))
            return warn(message, category, *args, **kwargs)

        warn = warnings.warn
        monkeypatch.setattr(warnings, "warn", record)
        monkeypatch.setattr("fmgeig.eigsolver.lobpcg", stall_first_on_level_1)
        out = fg.direct_fine_solve(general_ctx, 2, 1e-9)
        # Level 0 makes no call; level 1 is retried, and levels 2 and 3 take one.
        full = eigsolver.DIRECT_MAX_ITERS
        assert calls == [(1, 1), (1, full), (2, full), (3, full)]
        assert any(
            call == 1 and category is UserWarning and "requested tolerance" in text
            for call, category, text in warned
        )
        a, b, u = general_ctx.stiffness[out.level], general_ctx.mass[out.level], out.vectors
        residuals = np.linalg.norm(a @ u - (b @ u) * out.eigenvalues, axis=0)
        assert residuals.max() <= 1e-9 * abs(a).max()

    @pytest.mark.filterwarnings("error")
    def test_failure_names_its_level(self, general_ctx, monkeypatch):
        # Every call stalls: level 0 is dense, with no call, and level 1
        # exhausts its attempts and the sweep stops there.
        calls = []

        def stall(a, block, **kwargs):
            calls.append(a.shape[0])
            return scipy.sparse.linalg.lobpcg(a, block, **dict(kwargs, maxiter=1))

        monkeypatch.setattr("fmgeig.eigsolver.lobpcg", stall)
        with pytest.raises(fg.ConvergenceError, match="on level 1$"):
            fg.direct_fine_solve(general_ctx, 2, 1e-9)
        assert calls == [general_ctx.n_dofs(1)] * eigsolver.DIRECT_ATTEMPTS

    def test_non_finite_result_raises(self, general_ctx, monkeypatch):
        # A NaN residual is no pass: level 1 exhausts its attempts.
        calls = []

        def nan_on_level_1(a, block, **kwargs):
            calls.append(a.shape[0])
            if a.shape[0] == general_ctx.n_dofs(1):
                return np.arange(1.0, block.shape[1] + 1), np.full_like(block, np.nan)
            return scipy.sparse.linalg.lobpcg(a, block, **kwargs)

        monkeypatch.setattr("fmgeig.eigsolver.lobpcg", nan_on_level_1)
        with pytest.raises(fg.ConvergenceError, match="on level 1$"):
            fg.direct_fine_solve(general_ctx, 2, 1e-9)
        assert calls == [general_ctx.n_dofs(1)] * eigsolver.DIRECT_ATTEMPTS

    @pytest.mark.filterwarnings("error")
    def test_q_equal_to_dofs_gives_dense_pairs(self, small_hierarchy, small_ctx, model_coeff):
        n = small_ctx.n_dofs(0)
        out = fg.direct_fine_solve(leading_context(small_hierarchy, model_coeff, 1), n, 1e-9)
        vals, vecs = fg.generalized_eig_dense(
            small_ctx.stiffness[0].toarray(), small_ctx.mass[0].toarray(), n
        )
        assert np.array_equal(out.eigenvalues, vals)
        assert np.array_equal(out.vectors, vecs)


class TestSharedSweep:
    """Both solvers run one sweep from one dense solve of level 0."""

    @staticmethod
    def setting(problem):
        """Hierarchy, coefficients and context: 4 levels from square:4."""
        coeff = fg.laplace_coefficients() if problem == "model" else fg.general_problem().coefficients
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 4)
        return hier, coeff, fg.build_mg_context(hier, coeff, nu=2)

    @pytest.mark.parametrize("problem", ["model", "general"])
    def test_signs_fixed_once_per_level(self, problem, monkeypatch):
        # Only the sweep fixes signs, on the accepted copy: one call per
        # level, whatever the correction steps per level.
        calls = []

        def spy(vectors):
            calls.append(vectors.shape[1])
            return sign_fix(vectors)

        monkeypatch.setattr(eigsolver, "sign_fix", spy)
        hier, coeff, ctx = self.setting(problem)
        fg.full_multigrid(hier, coeff, fg.SolverConfig(q=3), ctx=ctx)
        assert calls == [3] * ctx.n_levels
        calls.clear()
        fg.direct_fine_solve(ctx, 3, 1e-9)
        assert calls == [3] * ctx.n_levels

    @pytest.mark.parametrize("problem", ["model", "general"])
    def test_every_accepted_block_meets_the_sign_convention(self, problem):
        hier, coeff, ctx = self.setting(problem)
        levels = []
        fg.full_multigrid(hier, coeff, fg.SolverConfig(q=3), ctx=ctx, on_level=levels.append)
        fg.direct_fine_solve(ctx, 3, 1e-9, on_level=levels.append)
        assert [out.level for out in levels] == 2 * list(range(ctx.n_levels))
        for out in levels:
            assert out.q == 3
            for column in out.vectors.T:
                assert column[leading_entry(column)] > 0.0

    def test_one_dense_solve_per_call(self, model_coeff, monkeypatch):
        calls = []

        def spy(ctx, q):
            calls.append(q)
            return fg.coarse_eigensolve(ctx, q)

        monkeypatch.setattr("fmgeig.eigsolver.coarse_eigensolve", spy)
        hier = fg.build_hierarchy(fg.unit_square_mesh(4), 1)
        ctx = fg.build_mg_context(hier, model_coeff, nu=2)
        fg.full_multigrid(hier, model_coeff, fg.SolverConfig(q=2), ctx=ctx)
        assert calls == [5]
        calls.clear()
        fg.direct_fine_solve(ctx, 2, 1e-9)
        assert calls == [5]

    @pytest.mark.parametrize("q", [1, 2, 6, 7, 11])
    @pytest.mark.parametrize("problem", ["model", "general"])
    def test_both_solvers_report_the_same_level_0(self, problem, q, tmp_path):
        spec = fg.model_problem(q) if problem == "model" else fg.general_problem()
        mesh = benchmark_mesh(1)
        hier = fg.build_hierarchy(mesh, 1)
        ctx = fg.build_mg_context(hier, spec.coefficients, nu=2)
        fmg = []
        fg.full_multigrid(hier, spec.coefficients, fg.SolverConfig(q=q), ctx=ctx, on_level=fmg.append)
        direct = fg.direct_fine_solve(ctx, q, 1e-9)
        assert np.array_equal(fmg[0].eigenvalues, direct.eigenvalues)
        assert np.array_equal(fmg[0].vectors, direct.vectors)
        out = tmp_path / "study.csv"
        fg.run_study(spec, mesh, 1, fg.SolverConfig(q=q), out, compare_direct=True)
        lines = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
        column = lines[0].index("lambda_h")
        lambda_h = {
            method: [row[column] for row in lines[1:] if row[0] == method and row[1] == "1"]
            for method in ("fmg", "direct")
        }
        assert len(lambda_h["fmg"]) == q
        assert lambda_h["fmg"] == lambda_h["direct"]
