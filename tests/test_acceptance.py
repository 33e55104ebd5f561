"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavyweight solver runs are shared through module-scoped
fixtures; each criterion asserts its stated tolerance and runtime budget.

Criterion 3 (interpolant-proxy eigenfunction rate) fails by design of the
measurement, not of the solver: on regularly refined triangulations the
piecewise-linear Galerkin solution is superclose to the vertex interpolant
(gradient difference O(h^2)), so the proxy decays at ratio ~4 instead of
the intended ~2.  The companion (non-criterion) test at the bottom shows
the true energy error ||u - u_h||_a does converge at ratio ~2.
"""

import time

import numpy as np
import pytest

import fmgeig as fg
from fmgeig.eigsolver import EigenApprox
from fmgeig.linalg import sign_fix

PI2 = np.pi**2
LAM1 = 2 * PI2


def report(number, name, passed, detail):
    print("CRITERION %d (%s): %s  [%s]" % (number, name, "PASS" if passed else "FAIL", detail))


def first_eigenfunction(x, y):
    return 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y)


def aligned(vec, mass, ref):
    return -vec if float(vec @ (mass @ ref)) < 0.0 else vec


# ----------------------------------------------------------------------
# Shared solver runs


@pytest.fixture(scope="module")
def model_run(model_coeff):
    """5 levels from unit_square_mesh(8), q=1, m=p=nu=2, with work snapshots."""
    t0 = time.perf_counter()
    hier = fg.build_hierarchy(fg.unit_square_mesh(8), 5)
    ctx = fg.build_mg_context(hier, model_coeff, nu=2)
    snaps = []
    config = fg.SolverConfig(q=1, m=2, p=2, nu=2)
    fg.full_multigrid(
        hier, model_coeff, config, ctx=ctx,
        on_level=lambda a: snaps.append((a, a.work_units)),
    )
    elapsed = time.perf_counter() - t0
    return {"hierarchy": hier, "ctx": ctx, "snaps": snaps, "elapsed": elapsed}


@pytest.fixture(scope="module")
def model_direct_finest(model_run):
    t0 = time.perf_counter()
    out = fg.direct_fine_solve(model_run["ctx"], 1, 1e-9)
    model_run["direct_elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def model_q6_run(model_coeff):
    t0 = time.perf_counter()
    hier = fg.build_hierarchy(fg.unit_square_mesh(8), 5)
    ctx = fg.build_mg_context(hier, model_coeff, nu=2)
    snaps = []
    config = fg.SolverConfig(q=6, m=2, p=2, nu=2)
    fg.full_multigrid(hier, model_coeff, config, ctx=ctx, on_level=snaps.append)
    return {"snaps": snaps, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def general_run():
    spec = fg.general_problem()
    t0 = time.perf_counter()
    hier = fg.build_hierarchy(fg.unit_square_mesh(8), 5)
    ctx = fg.build_mg_context(hier, spec.coefficients, nu=2)
    snaps = []
    config = fg.SolverConfig(q=6, m=2, p=2, nu=2)
    fg.full_multigrid(hier, spec.coefficients, config, ctx=ctx, on_level=snaps.append)
    directs = []
    fg.direct_fine_solve(ctx, 6, 1e-9, on_level=directs.append)
    directs = directs[3:5]
    reference = np.array(
        [
            fg.extrapolate_reference(lc, lf)
            for lc, lf in zip(directs[0].eigenvalues, directs[1].eigenvalues)
        ]
    )
    return {"snaps": snaps, "reference": reference, "elapsed": time.perf_counter() - t0}


# ----------------------------------------------------------------------
# Criteria


def test_criterion_01_oracle_equivalence(model_coeff):
    t0 = time.perf_counter()
    hier = fg.build_hierarchy(fg.unit_square_mesh(4), 2)
    ctx = fg.build_mg_context(hier, model_coeff, nu=2)
    config = fg.SolverConfig(q=1, m=2, p=8, nu=2)
    out = fg.full_multigrid(hier, model_coeff, config, ctx=ctx)
    oracle = fg.coarse_eigensolve(ctx, 1, level=1)
    elapsed = time.perf_counter() - t0
    rel = abs(out.eigenvalues[0] - oracle.eigenvalues[0]) / oracle.eigenvalues[0]
    passed = rel <= 1e-8 and elapsed < 1.0
    report(1, "oracle equivalence", passed, "rel diff %.2e, %.2fs" % (rel, elapsed))
    assert rel <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_eigenvalue_rate(model_run):
    errors = [abs(a.eigenvalues[0] - LAM1) for a, _ in model_run["snaps"]]
    ratios = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    last_two = ratios[-2:]
    elapsed = model_run["elapsed"]
    passed = all(3.2 <= r <= 4.8 for r in last_two) and elapsed < 30.0
    report(2, "eigenvalue rate", passed,
           "ratios %s, %.1fs" % (["%.3f" % r for r in last_two], elapsed))
    assert all(3.2 <= r <= 4.8 for r in last_two)
    assert elapsed < 30.0


def test_criterion_03_eigenfunction_proxy_rate(model_run):
    hier = model_run["hierarchy"]
    ctx = model_run["ctx"]
    proxy_errors = []
    for approx, _ in model_run["snaps"]:
        level = approx.level
        target = fg.interpolate(hier.meshes[level], ctx.dofmaps[level], first_eigenfunction)
        vec = aligned(approx.vectors[:, 0], ctx.mass[level], target)
        proxy_errors.append(fg.norm_a(ctx.stiffness[level], target - vec))
    ratios = [proxy_errors[k] / proxy_errors[k + 1] for k in range(len(proxy_errors) - 1)]
    last_two = ratios[-2:]
    passed = all(1.7 <= r <= 2.3 for r in last_two)
    report(3, "eigenfunction interpolant-proxy rate", passed,
           "ratios %s (superclose: proxy decays at ~beta^2, see ledger/README)"
           % ["%.3f" % r for r in last_two])
    assert all(1.7 <= r <= 2.3 for r in last_two)


def test_criterion_04_fmg_direct_parity(model_run, model_direct_finest):
    fmg_err = abs(model_run["snaps"][-1][0].eigenvalues[0] - LAM1)
    direct_err = abs(model_direct_finest.eigenvalues[0] - LAM1)
    passed = fmg_err <= 1.5 * direct_err
    report(4, "FMG vs direct parity", passed,
           "fmg %.4e vs direct %.4e (x%.3f)" % (fmg_err, direct_err, fmg_err / direct_err))
    assert fmg_err <= 1.5 * direct_err


def test_criterion_05_six_eigenvalues(model_q6_run):
    exact, _ = fg.model_exact_data(6)
    for approx in model_q6_run["snaps"]:
        assert np.all(np.sort(approx.eigenvalues) >= exact * (1.0 - 1e-13))
    errs = [np.abs(np.sort(a.eigenvalues) - exact) for a in model_q6_run["snaps"]]
    ratios = np.array(
        [errs[k] / errs[k + 1] for k in range(len(errs) - 1)]
    )  # (levels-1, 6)
    last_two = ratios[-2:]
    elapsed = model_q6_run["elapsed"]
    passed = bool(np.all((last_two >= 3.0) & (last_two <= 5.0))) and elapsed < 90.0
    report(5, "six-eigenvalue rates", passed,
           "min %.3f max %.3f, %.1fs" % (last_two.min(), last_two.max(), elapsed))
    assert np.all((last_two >= 3.0) & (last_two <= 5.0))
    assert elapsed < 90.0


def test_criterion_06_general_problem(general_run):
    reference = general_run["reference"]
    errs = [
        np.abs(np.sort(a.eigenvalues) - reference) for a in general_run["snaps"]
    ]
    ratios = np.array([errs[k] / errs[k + 1] for k in range(len(errs) - 1)])
    last_two = ratios[-2:]
    elapsed = general_run["elapsed"]
    passed = bool(np.all((last_two >= 3.0) & (last_two <= 5.0))) and elapsed < 120.0
    report(6, "general-problem rates", passed,
           "min %.3f max %.3f, %.1fs" % (last_two.min(), last_two.max(), elapsed))
    assert np.all((last_two >= 3.0) & (last_two <= 5.0))
    assert elapsed < 120.0


def test_criterion_07_contraction(model_coeff):
    hier = fg.build_hierarchy(fg.unit_square_mesh(8), 5)
    ctx = fg.build_mg_context(hier, model_coeff, nu=2)
    config = fg.SolverConfig(q=1, m=2, p=2, nu=2)

    approx = fg.coarse_eigensolve(ctx, 1)
    references = []
    fg.direct_fine_solve(ctx, 1, 1e-11, on_level=references.append)
    per_level_gamma = []
    all_ratios = []
    for k in range(1, hier.n_levels):
        ref_vec = references[k].vectors[:, 0]
        stiffness, mass = ctx.stiffness[k], ctx.mass[k]
        lifted = ctx.transfer[k - 1] @ approx.vectors
        lifted = sign_fix(lifted / fg.norm_a(mass, lifted[:, 0]))
        approx = EigenApprox(k, approx.eigenvalues.copy(), lifted)

        def energy_error(a):
            vec = aligned(a.vectors[:, 0], mass, ref_vec)
            return fg.norm_a(stiffness, vec - ref_vec)

        errors = [energy_error(approx)]
        for _ in range(config.p):
            approx = fg.one_correction_step(ctx, approx, config)
            errors.append(energy_error(approx))
        ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
        all_ratios.extend(ratios)
        per_level_gamma.append(max(ratios))

    spread = max(per_level_gamma) - min(per_level_gamma)
    passed = all(r < 1.0 for r in all_ratios) and spread < 0.15
    report(7, "correction contraction", passed,
           "gamma per level %s, spread %.3f"
           % (["%.3f" % g for g in per_level_gamma], spread))
    assert all(r < 1.0 for r in all_ratios)
    assert spread < 0.15


def test_criterion_08_work_linearity(model_run):
    works = [w for _, w in model_run["snaps"]]
    # works[L-1] is the cumulative counter of an L-level run.
    w4, w5 = works[3], works[4]
    growth = w5 / w4
    finest_share = w5 / (w5 - w4)
    passed = 3.0 <= growth <= 6.0 and finest_share <= 1.5
    report(8, "work linearity", passed,
           "growth %.2f, cumulative/finest %.3f" % (growth, finest_share))
    assert 3.0 <= growth <= 6.0
    assert finest_share <= 1.5
    # Geometric-series bound with 15% slack.
    assert finest_share <= 1.0 / (1.0 - 0.25) + 0.15


def test_criterion_09_invariant_suite(model_coeff):
    t0 = time.perf_counter()
    general = fg.general_problem()

    # Matrix symmetry is exact; mass matrices admit a Cholesky factorization.
    for mesh, coeff in [
        (fg.unit_square_mesh(4), model_coeff),
        (fg.unit_square_mesh(8), model_coeff),
        (fg.unit_square_mesh(6), general.coefficients),
    ]:
        dofmap = fg.interior_dofmap(mesh)
        a, b = fg.assemble_pencil(mesh, dofmap, coeff)
        assert abs(a - a.T).max() == 0.0
        assert abs(b - b.T).max() == 0.0
        fg.cholesky_dense(b.toarray())

    # The rows of every prolongation sum to one.
    hier = fg.build_hierarchy(fg.unit_square_mesh(4), 4)
    for op in hier.prolongations:
        sums = np.asarray(op.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() <= 1e-14
    composed = hier.prolongations[0]
    for op in hier.prolongations[1:]:
        composed = op @ composed
    assert np.abs(np.asarray(composed.sum(axis=1)).ravel() - 1.0).max() <= 1e-14

    # Mass-orthonormality drift stays below 1e-10 after every operation.
    ctx = fg.build_mg_context(hier, model_coeff, nu=2)
    config = fg.SolverConfig(q=4, m=2, p=2, nu=2)

    def drift(approx):
        gram = approx.vectors.T @ (ctx.mass[approx.level] @ approx.vectors)
        return np.abs(gram - np.eye(approx.q)).max()

    coarse = fg.coarse_eigensolve(ctx, 4)
    assert drift(coarse) <= 1e-10
    lifted = ctx.transfer[0] @ coarse.vectors
    stepped = fg.one_correction_step(
        ctx, EigenApprox(1, coarse.eigenvalues.copy(), lifted), config
    )
    assert drift(stepped) <= 1e-10
    drifts = []
    fg.full_multigrid(
        hier, model_coeff, config, ctx=ctx, on_level=lambda a: drifts.append(drift(a))
    )
    assert max(drifts) <= 1e-10
    direct = fg.direct_fine_solve(ctx, 4, 1e-9, level=2)
    assert drift(direct) <= 1e-10

    # Smallest discrete eigenvalue dominates the continuous one on model meshes.
    for nx in (3, 4, 8):
        mesh = fg.unit_square_mesh(nx)
        dofmap = fg.interior_dofmap(mesh)
        a, b = (m.toarray() for m in fg.assemble_pencil(mesh, dofmap, model_coeff))
        vals, vecs = fg.generalized_eig_dense(a, b, 1)
        assert vals[0] >= LAM1 * (1.0 - 1e-13)
        residual = np.linalg.norm(a @ vecs[:, 0] - vals[0] * (b @ vecs[:, 0]))
        assert residual <= 1e-10 * np.abs(a).max()

    # Dense eigensolver residual bound on random pencils.
    rng = np.random.default_rng(42)
    for _ in range(3):
        n = int(rng.integers(8, 24))
        sym = rng.standard_normal((n, n))
        sym = 0.5 * (sym + sym.T)
        spd = rng.standard_normal((n, n))
        spd = spd @ spd.T + n * np.eye(n)
        vals, vecs = fg.generalized_eig_dense(sym, spd, n)
        for j in range(n):
            res = np.linalg.norm(sym @ vecs[:, j] - vals[j] * (spd @ vecs[:, j]))
            assert res <= 1e-10 * max(np.abs(sym).max(), 1.0)

    elapsed = time.perf_counter() - t0
    passed = elapsed < 60.0
    report(9, "invariant suite", passed, "%.1fs" % elapsed)
    assert elapsed < 60.0


# ----------------------------------------------------------------------
# Supplementary: the rate criterion 3 was meant to check, measured without
# the interpolant proxy.


def quadrature_mass_cross(mesh, dofmap, vec, func):
    """b(func, u_h) with a degree-5 rule, accurate enough for O(h) errors."""
    weights = np.array([0.225] + [0.13239415278850616] * 3 + [0.12593918054482717] * 3)
    a1, b1 = 0.059715871789769820, 0.47014206410511505
    a2, b2 = 0.79742698535308720, 0.10128650732345633
    bary = np.array(
        [
            [1 / 3, 1 / 3, 1 / 3],
            [a1, b1, b1], [b1, a1, b1], [b1, b1, a1],
            [a2, b2, b2], [b2, a2, b2], [b2, b2, a2],
        ]
    )
    tri = mesh.triangles
    corners = [mesh.vertices[tri[:, i]] for i in range(3)]
    area = fg.triangle_areas(mesh)
    coeffs = np.zeros(mesh.n_vertices)
    coeffs[dofmap] = vec
    nodal = coeffs[tri]
    total = 0.0
    for k in range(bary.shape[0]):
        lam = bary[k]
        points = lam[0] * corners[0] + lam[1] * corners[1] + lam[2] * corners[2]
        uh = nodal @ lam
        total += weights[k] * float(
            np.sum(area * func(points[:, 0], points[:, 1]) * uh)
        )
    return total


def test_true_energy_error_rate(model_run):
    # ||u - u_h||_a^2 = lam - 2 lam b(u, u_h) + ||u_h||_a^2 for the exact
    # first eigenpair; no interpolant involved, so no supercloseness.
    hier = model_run["hierarchy"]
    ctx = model_run["ctx"]
    errors = []
    for approx, _ in model_run["snaps"]:
        level = approx.level
        dofmap = ctx.dofmaps[level]
        target = fg.interpolate(hier.meshes[level], dofmap, first_eigenfunction)
        vec = aligned(approx.vectors[:, 0], ctx.mass[level], target)
        cross = quadrature_mass_cross(hier.meshes[level], dofmap, vec, first_eigenfunction)
        energy_sq = LAM1 - 2.0 * LAM1 * cross + fg.norm_a(ctx.stiffness[level], vec) ** 2
        errors.append(np.sqrt(max(energy_sq, 0.0)))
    ratios = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    print("true energy-error ratios:", ["%.3f" % r for r in ratios])
    assert all(1.7 <= r <= 2.3 for r in ratios[-2:])
