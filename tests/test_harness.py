import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad

import fmgeig as fg
from fmgeig.cli import main
from fmgeig.eigsolver import EigenApprox
from fmgeig.errors import SolverError
from fmgeig.harness import CSV_COMMENT, CSV_HEADER

from conftest import first_eigenfunction

PI2 = np.pi**2


def strip_wall_ms(text):
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def data_lines(text):
    return [line for line in text.strip().splitlines() if not line.startswith("#")]


def rectangle_mesh_text():
    """[0,2] x [0,1] with 4 x 2 cells: the unit-square eigenvalues would be
    reported as the model problem's reference on it."""
    lines = ["15 16"]
    lines += ["%g %g" % (0.5 * i, 0.5 * j) for j in range(3) for i in range(5)]
    for v in [5 * j + i for j in range(2) for i in range(4)]:
        lines += ["%d %d %d" % (v, v + 1, v + 6), "%d %d %d" % (v, v + 6, v + 5)]
    return "\n".join(lines) + "\n"


class TestModelExactData:
    def test_first_eigenvalue(self):
        vals, _ = fg.model_exact_data(1)
        assert abs(vals[0] - 2 * PI2) < 1e-12
        assert abs(vals[0] - 19.7392088) < 1e-6

    def test_first_six(self):
        vals, _ = fg.model_exact_data(6)
        assert np.abs(vals - np.array([2, 5, 5, 8, 10, 10]) * PI2).max() < 1e-12

    def test_normalization(self):
        _, funcs = fg.model_exact_data(1)
        integral, _ = dblquad(lambda y, x: funcs[0](x, y) ** 2, 0, 1, 0, 1)
        assert abs(integral - 1.0) < 1e-10

    def test_large_q_enumeration_sorted(self):
        vals, funcs = fg.model_exact_data(30)
        assert len(funcs) == 30
        assert np.all(np.diff(vals) >= 0)
        assert abs(vals[6] - 13 * PI2) < 1e-12
        # Against brute force on a range wide enough for every q here.  At
        # q=2 the q-th smallest i^2 + j^2 is 5, above 2q.
        brute = sorted((i * i + j * j, i, j) for i in range(1, 80) for j in range(1, 80))
        for q in (2, 30, 2000):
            vals, funcs = fg.model_exact_data(q)
            assert np.array_equal(vals, [PI2 * s for s, _, _ in brute[:q]])
            for fn, (_, i, j) in zip(funcs, brute[:q], strict=True):
                assert fn(0.3, 0.7) == 2.0 * np.sin(i * np.pi * 0.3) * np.sin(j * np.pi * 0.7)


class TestExtrapolation:
    def test_converged_sequence(self):
        assert fg.extrapolate_reference(3.5, 3.5) == 3.5

    def test_exact_quadratic_model(self):
        lam_star, c = 11.0, 3.0
        lam_h = lam_star + c * 0.1**2
        lam_h2 = lam_star + c * 0.05**2
        assert abs(fg.extrapolate_reference(lam_h, lam_h2) - lam_star) < 1e-12

    def test_model_self_check(self, model_coeff):
        config = fg.SolverConfig(q=1, m=2, p=2, nu=2)
        snaps = []
        hier = fg.build_hierarchy(fg.unit_square_mesh(8), 5)
        fg.full_multigrid(hier, model_coeff, config, on_level=lambda a: snaps.append(a))
        extrapolated = fg.extrapolate_reference(
            snaps[-2].eigenvalues[0], snaps[-1].eigenvalues[0]
        )
        assert abs(extrapolated - 2 * PI2) <= 1e-3 * 2 * PI2


class TestComputeErrors:
    def test_exact_interpolant_has_zero_energy_error(self, small_ctx, small_hierarchy):
        spec = fg.model_problem(1)
        level = 1
        dofmap = small_ctx.dofmaps[level]
        target = fg.interpolate(small_hierarchy.meshes[level], dofmap, first_eigenfunction)
        approx = EigenApprox(level, np.array([2 * PI2]), target[:, None].copy())
        row = fg.compute_errors(approx, spec, small_hierarchy, small_ctx)
        assert row.energy_err[0] == 0.0
        assert row.abs_err[0] == 0.0
        assert row.n_dofs == small_ctx.n_dofs(level)

    def test_no_reference_flags_errors_missing(self, small_ctx, small_hierarchy):
        spec = fg.general_problem()
        approx = EigenApprox(0, np.array([25.0]), np.ones((small_ctx.n_dofs(0), 1)))
        row = fg.compute_errors(approx, spec, small_hierarchy, small_ctx)
        assert row.abs_err is None
        assert row.lambda_ref is None
        assert np.isnan(row.energy_err[0])

    def test_clustered_values_compared_sorted(self, small_ctx, small_hierarchy):
        spec = fg.model_problem(3)
        # Feed eigenvalues out of order; errors must use the sorted lists.
        lams = np.array([5 * PI2, 2 * PI2, 5 * PI2])
        approx = EigenApprox(0, lams, np.zeros((small_ctx.n_dofs(0), 3)))
        row = fg.compute_errors(approx, spec, small_hierarchy, small_ctx)
        assert np.abs(row.abs_err).max() < 1e-12


class TestRunStudy:
    def test_single_level_single_row(self, tmp_path):
        out = tmp_path / "study.csv"
        rows = fg.run_study(
            fg.model_problem(1), fg.unit_square_mesh(4), 1,
            fg.SolverConfig(q=1), out,
        )
        assert len(rows) == 1
        text = out.read_text()
        assert text.startswith(CSV_COMMENT)
        lines = data_lines(text)
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_model_five_levels_schema(self, tmp_path):
        out = tmp_path / "study.csv"
        rows = fg.run_study(
            fg.model_problem(2), fg.unit_square_mesh(4), 5,
            fg.SolverConfig(q=2), out, compare_direct=True, direct_tol=1e-8,
        )
        fmg_rows = [r for r in rows if r.method == "fmg"]
        direct_rows = [r for r in rows if r.method == "direct"]
        assert len(fmg_rows) == 5
        assert len(direct_rows) == 5
        for row in rows:
            assert np.all(np.isfinite(row.lambdas))
            assert np.all(np.isfinite(row.abs_err))
        lines = data_lines(out.read_text())
        assert len(lines) == 1 + 2 * 5 * 2
        assert all(len(line.split(",")) == 10 for line in lines)

    def test_monotone_eigenvalue_errors(self, tmp_path):
        rows = fg.run_study(
            fg.model_problem(1), fg.unit_square_mesh(4), 4,
            fg.SolverConfig(q=1), tmp_path / "study.csv",
        )
        errs = [r.abs_err[0] for r in rows if r.method == "fmg"]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_deterministic_output_modulo_wall_time(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            fg.run_study(
                fg.model_problem(2), fg.unit_square_mesh(4), 3,
                fg.SolverConfig(q=2), path, compare_direct=True, direct_tol=1e-8,
            )
        assert strip_wall_ms(first.read_text()) == strip_wall_ms(second.read_text())

    def test_model_reported_above_exact(self, tmp_path):
        rows = fg.run_study(
            fg.model_problem(1), fg.unit_square_mesh(4), 3,
            fg.SolverConfig(q=1), tmp_path / "study.csv",
        )
        for row in rows:
            assert row.lambdas[0] >= 2 * PI2 * (1 - 1e-13)

    def test_model_problem_refuses_a_mesh_of_another_domain(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("the hierarchy was built before the domain check")

        monkeypatch.setattr("fmgeig.harness.build_hierarchy", build)
        with pytest.raises(ValueError, match=r"unit square, got bounding box \[0, 2\]"):
            fg.run_study(
                fg.model_problem(1), fg.load_mesh(rectangle_mesh_text()), 4,
                fg.SolverConfig(), None,
            )

    def test_q_above_coarse_dofs_refused_before_the_hierarchy(self, tmp_path, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("the hierarchy was built before the pair-count check")

        monkeypatch.setattr("fmgeig.harness.build_hierarchy", build)
        out = tmp_path / "study.csv"
        # square:4 has 9 interior dofs.
        with pytest.raises(ValueError, match="10 pairs exceed the 9 interior dofs"):
            fg.run_study(
                fg.general_problem(), fg.unit_square_mesh(4), 2, fg.SolverConfig(q=10), out,
            )
        assert not out.exists()

    def test_general_problem_gets_extrapolated_reference(self, tmp_path):
        rows = fg.run_study(
            fg.general_problem(), fg.unit_square_mesh(4), 3,
            fg.SolverConfig(q=1), tmp_path / "study.csv",
            compare_direct=True, direct_tol=1e-8,
        )
        assert all(row.lambda_ref is not None for row in rows)
        fmg_errs = [r.abs_err[0] for r in rows if r.method == "fmg"]
        assert fmg_errs[-1] < fmg_errs[0]

    def test_problem_without_exact_eigenvalues_runs_the_baseline(self, tmp_path):
        rows = fg.run_study(
            fg.general_problem(), fg.unit_square_mesh(4), 3,
            fg.SolverConfig(q=1), tmp_path / "study.csv", compare_direct=False,
        )
        assert [r.method for r in rows] == ["fmg"] * 3 + ["direct"] * 3
        assert all(row.lambda_ref is not None and row.abs_err is not None for row in rows)

    def test_bad_direct_tol_rejected_when_the_baseline_runs_anyway(self, tmp_path):
        with pytest.raises(ValueError, match="direct_tol"):
            fg.run_study(
                fg.general_problem(), fg.unit_square_mesh(4), 2,
                fg.SolverConfig(q=1), tmp_path / "study.csv", direct_tol=1e-13,
            )


class TestCLI:
    def test_run_model_study(self, tmp_path):
        out = tmp_path / "cli.csv"
        code = main([
            "run", "--problem", "model", "--mesh", "square:4", "--levels", "2",
            "--nev", "1", "--out", str(out),
        ])
        assert code == 0
        assert data_lines(out.read_text())[0] == CSV_HEADER

    @pytest.mark.parametrize("nev", [1, 3])
    def test_solver_flags_default_to_solver_config(self, tmp_path, monkeypatch, nev):
        configs = []

        def recording_fmg(hierarchy, coeff, config, *args, **kwargs):
            configs.append(config)
            return fg.full_multigrid(hierarchy, coeff, config, *args, **kwargs)

        monkeypatch.setattr("fmgeig.harness.full_multigrid", recording_fmg)
        code = main([
            "run", "--problem", "model", "--mesh", "square:4", "--levels", "2",
            "--nev", str(nev), "--out", str(tmp_path / "cli.csv"),
        ])
        assert code == 0
        assert configs == [fg.SolverConfig(q=nev)]

    def test_mesh_file_input(self, tmp_path):
        mesh_path = tmp_path / "coarse.mesh"
        # The unit square in 2 x 2 cells, each split along its rising diagonal.
        lines = ["9 8"]
        lines += ["%g %g" % (0.5 * i, 0.5 * j) for j in range(3) for i in range(3)]
        for v in (0, 1, 3, 4):
            lines += ["%d %d %d" % (v, v + 1, v + 4), "%d %d %d" % (v, v + 4, v + 3)]
        mesh_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cli.csv"
        code = main([
            "run", "--problem", "model", "--mesh", str(mesh_path),
            "--levels", "2", "--out", str(out),
        ])
        assert code == 0

    def test_model_problem_rejects_non_unit_square_mesh(self, tmp_path):
        mesh_path = tmp_path / "rectangle.mesh"
        mesh_path.write_text(rectangle_mesh_text())
        out = tmp_path / "cli.csv"
        code = main([
            "run", "--problem", "model", "--mesh", str(mesh_path),
            "--levels", "3", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_oversized_hierarchy_rejected_before_refinement(self, tmp_path, monkeypatch):
        # square:8 with 9 levels projects (8 * 2**8 + 1)**2 = 4.2M vertices.
        def refine(*args, **kwargs):
            raise AssertionError("refinement ran before the sizing check")

        monkeypatch.setattr("fmgeig.mesh.refine_regular", refine)
        out = tmp_path / "cli.csv"
        code = main([
            "run", "--problem", "model", "--mesh", "square:8", "--levels", "9",
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    # square:8 has 49 interior dofs.  The check comes before the model
    # problem lists its exact pairs (seconds and gigabytes for a huge --nev)
    # and before the set-up of 8 levels.
    @pytest.mark.parametrize("nev, levels", [("60", "8"), ("1000000000", "2")])
    def test_nev_above_coarse_dofs_rejected_before_any_work(
        self, tmp_path, monkeypatch, capsys, nev, levels
    ):
        def build(*args, **kwargs):
            raise AssertionError("work began before the pair-count check")

        monkeypatch.setattr("fmgeig.cli.model_problem", build)
        monkeypatch.setattr("fmgeig.harness.build_hierarchy", build)
        out = tmp_path / "cli.csv"
        argv = [
            "run", "--problem", "model", "--mesh", "square:8", "--levels", levels,
            "--nev", nev, "--out", str(out),
        ]
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert elapsed < 1.0
        assert peak < 10 * 2**20
        assert "%s pairs exceed the 49 interior dofs" % nev in capsys.readouterr().err
        assert not out.exists()

    def test_direct_tol_help_states_the_floor(self, capsys, monkeypatch):
        monkeypatch.setattr("fmgeig.cli.DIRECT_TOL_FLOOR", 2.5e-11)
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert "at least 2.5e-11;" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "tol_args",
        [["--direct-tol=" + tol] for tol in ("nan", "inf", "0", "-1e-9", "1e-14", "1e-13")]
        + [["--direct-tol", "-1e-9"]],
        ids=["nan", "inf", "0", "-1e-9", "1e-14", "1e-13", "-1e-9-after-space"],
    )
    def test_bad_direct_tol_rejected_before_any_work(self, tmp_path, monkeypatch, tol_args):
        def build(*args, **kwargs):
            raise AssertionError("hierarchy built before the tolerance check")

        monkeypatch.setattr("fmgeig.harness.build_hierarchy", build)
        out = tmp_path / "cli.csv"
        argv = [
            "run", "--problem", "general", "--mesh", "square:4", "--levels", "2",
            *tol_args, "--out", str(out),
        ]
        # argparse may read "-1e-9" after a space as an option and exit itself.
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()

    def test_coarse_mesh_above_dense_cap_rejected_before_assembly(self, tmp_path, monkeypatch):
        # square:N has (N - 1)**2 interior dofs; this N is the first above the cap.
        nx = math.isqrt(fg.multigrid.MAX_COARSE_DOFS) + 2

        def assemble(*args, **kwargs):
            raise AssertionError("assembly ran before the coarse-size check")

        monkeypatch.setattr("fmgeig.multigrid.assemble_pencil", assemble)
        out = tmp_path / "cli.csv"
        code = main([
            "run", "--problem", "model", "--mesh", "square:%d" % nx, "--levels", "2",
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_square_above_vertex_cap_is_argument_error(self, tmp_path):
        # square:1414 has 2,002,225 vertices, above mesh.MAX_VERTICES.
        out = tmp_path / "cli.csv"
        code = main([
            "run", "--problem", "model", "--mesh", "square:1414", "--levels", "1",
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_missing_mesh_file_is_argument_error(self, tmp_path):
        code = main([
            "run", "--problem", "model", "--mesh", str(tmp_path / "nope.mesh"),
            "--levels", "2", "--out", str(tmp_path / "cli.csv"),
        ])
        assert code == 2

    def test_vertex_without_triangle_is_argument_error(self, tmp_path, capsys):
        # Vertices 4 and 5 belong to no triangle.
        mesh_path = tmp_path / "stray.mesh"
        mesh_path.write_text("6 2\n0 0\n1 0\n1 1\n0 1\n2 0\n2 1\n0 1 2\n0 2 3\n")
        out = tmp_path / "cli.csv"
        code = main([
            "run", "--problem", "model", "--mesh", str(mesh_path),
            "--levels", "2", "--out", str(out),
        ])
        assert code == 2
        assert "vertex 4 is not a corner of any triangle" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_mesh_content_is_argument_error(self, tmp_path):
        mesh_path = tmp_path / "bad.mesh"
        mesh_path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 99\n")
        code = main([
            "run", "--problem", "model", "--mesh", str(mesh_path),
            "--levels", "2", "--out", str(tmp_path / "cli.csv"),
        ])
        assert code == 2

    def test_unknown_problem_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--problem", "bogus", "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr("fmgeig.cli.run_study", boom)
        code = main([
            "run", "--problem", "model", "--mesh", "square:2", "--levels", "2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_unwritable_output_is_io_error(self, tmp_path):
        code = main([
            "run", "--problem", "model", "--mesh", "square:2", "--levels", "2",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        ])
        assert code == 4
