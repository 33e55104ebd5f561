"""Benchmark harness: problem definitions, error tables and CSV studies.

Two built-in problems on the unit square: the Dirichlet Laplacian, whose
eigenvalues ``(i^2 + j^2) pi^2`` and eigenfunctions ``2 sin(i pi x)
sin(j pi y)`` are known exactly, and a variable-coefficient problem with a
position-dependent diffusion tensor, exponential reaction term and a
non-constant mass weight, for which reference eigenvalues come from
Richardson extrapolation of the two finest direct solves.

:func:`run_study` drives the full multigrid scheme once over a hierarchy,
recording the accepted eigenpairs of every level (identical to what shorter
runs would produce), optionally runs one sweep of the direct baseline the
same way, and writes one CSV row per method, level and eigenvalue.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .eigsolver import (
    DIRECT_TOL_FLOOR,
    EigenApprox,
    SolverConfig,
    direct_fine_solve,
    full_multigrid,
)
from .fem import CoefficientField, interpolate, laplace_coefficients, norm_a
from .mesh import Mesh, MeshHierarchy, build_hierarchy
from .multigrid import MGContext, build_mg_context

__all__ = [
    "ProblemSpec",
    "StudyRow",
    "model_exact_data",
    "model_problem",
    "general_problem",
    "compute_errors",
    "extrapolate_reference",
    "run_study",
    "CSV_COMMENT",
    "CSV_HEADER",
]

CSV_COMMENT = (
    "# energy_err: energy-norm distance of u_h to the vertex interpolant of the"
    " exact eigenfunction (simple eigenvalues only; interpolant proxy, superclose"
    " on uniform meshes). work_units: smoothing sweeps times level dofs."
)
CSV_HEADER = (
    "method,level,n_dofs,eig_index,lambda_h,lambda_ref,abs_err,"
    "energy_err,work_units,wall_ms"
)


@dataclass(frozen=True)
class ProblemSpec:
    """A named eigenvalue problem with optional exact reference data.

    ``exact_eigenvalues`` ascend with multiplicity; ``exact_eigenfunctions``
    align with them (entries may be None).  ``simple`` flags eigenvalues of
    multiplicity one, the only ones whose eigenfunctions are compared
    directly.
    """

    name: str
    coefficients: CoefficientField
    exact_eigenvalues: np.ndarray | None = None
    exact_eigenfunctions: tuple | None = None

    def simple(self, j: int) -> bool:
        vals = self.exact_eigenvalues
        if vals is None:
            return False
        return np.sum(np.isclose(vals, vals[j], rtol=1e-12)) == 1


def model_exact_data(q: int):
    """Exact eigenvalues and normalized eigenfunctions of the model problem.

    Returns the ``q`` smallest values ``(i^2 + j^2) pi^2`` (ascending, with
    multiplicity) and eigenfunctions ``2 sin(i pi x) sin(j pi y)``, which
    integrate to one in the mass inner product.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    # The q-th smallest i^2 + j^2 is at most 2q + 1 (5 at q=2; about 4q/pi for
    # large q), so no index it needs exceeds sqrt(2q) and this span is safe.
    span = int(np.ceil(np.sqrt(2.0 * q))) + 2
    pairs = sorted(
        ((i * i + j * j, i, j) for i in range(1, span + 1) for j in range(1, span + 1))
    )[:q]
    values = np.array([np.pi**2 * s for s, _, _ in pairs])

    def make_fn(i, j):
        return lambda x, y: 2.0 * np.sin(i * np.pi * x) * np.sin(j * np.pi * y)

    functions = tuple(make_fn(i, j) for _, i, j in pairs)
    return values, functions


def model_problem(q: int = 1) -> ProblemSpec:
    """Dirichlet Laplacian on the unit square with exact reference data."""
    values, functions = model_exact_data(q)
    return ProblemSpec("model", laplace_coefficients(), values, functions)


def general_problem() -> ProblemSpec:
    """Variable-coefficient problem on the unit square (no exact data).

    Diffusion ``[[1 + (x-1/2)^2, (x-1/2)(y-1/2)], [(x-1/2)(y-1/2),
    1 + (y-1/2)^2]]``, reaction ``exp((x-1/2)(y-1/2))`` and mass weight
    ``1 + (x-1/2)(y-1/2)``.
    """

    def a(x, y):
        dx = x - 0.5
        dy = y - 0.5
        out = np.empty(x.shape + (2, 2))
        out[..., 0, 0] = 1.0 + dx * dx
        out[..., 0, 1] = dx * dy
        out[..., 1, 0] = dx * dy
        out[..., 1, 1] = 1.0 + dy * dy
        return out

    coeff = CoefficientField(
        a=a,
        phi=lambda x, y: np.exp((x - 0.5) * (y - 0.5)),
        rho=lambda x, y: 1.0 + (x - 0.5) * (y - 0.5),
    )
    return ProblemSpec("general", coeff)


def extrapolate_reference(
    lam_coarse: float, lam_fine: float, beta: float = 2.0, order: float = 2.0
) -> float:
    """Richardson extrapolation of two mesh levels to the limit eigenvalue."""
    if beta <= 1.0 or order <= 0.0:
        raise ValueError("need beta > 1 and order > 0")
    return lam_fine + (lam_fine - lam_coarse) / (beta**order - 1.0)


@dataclass
class StudyRow:
    """Error table entry for one method at one level (all eigenvalues).

    ``lambda_ref``/``abs_err`` stay None when no reference is available;
    ``energy_err`` entries are NaN except for simple eigenvalues with known
    eigenfunctions.
    """

    method: str
    level: int
    n_dofs: int
    lambdas: np.ndarray
    lambda_ref: np.ndarray | None
    abs_err: np.ndarray | None
    energy_err: np.ndarray
    work_units: float
    wall_ms: float


def compute_errors(
    approx: EigenApprox,
    spec: ProblemSpec,
    hierarchy: MeshHierarchy,
    ctx: MGContext,
    reference: np.ndarray | None = None,
    method: str = "fmg",
    wall_ms: float = 0.0,
) -> StudyRow:
    """Measure eigenvalue and eigenfunction errors for one level's result.

    Eigenvalue errors compare sorted approximations against ``reference``
    (falling back to the problem's exact values); clustered eigenvalues are
    therefore only compared as sorted lists.  For simple eigenvalues with a
    known eigenfunction the energy distance to its vertex interpolant is
    reported, with the sign aligned by a positive mass inner product.
    """
    level = approx.level
    q = approx.q
    stiffness = ctx.stiffness[level]
    mass = ctx.mass[level]

    if reference is None and spec.exact_eigenvalues is not None:
        reference = np.asarray(spec.exact_eigenvalues[:q], dtype=float)
    abs_err = None
    if reference is not None:
        abs_err = np.abs(np.sort(approx.eigenvalues) - np.sort(reference))

    energy_err = np.full(q, np.nan)
    if spec.exact_eigenfunctions is not None:
        for j in range(min(q, len(spec.exact_eigenfunctions))):
            fn = spec.exact_eigenfunctions[j]
            if fn is None or not spec.simple(j):
                continue
            target = interpolate(hierarchy.meshes[level], ctx.dofmaps[level], fn)
            vec = approx.vectors[:, j]
            if float(vec @ (mass @ target)) < 0.0:
                vec = -vec
            energy_err[j] = norm_a(stiffness, target - vec)

    return StudyRow(
        method=method,
        level=level,
        n_dofs=ctx.n_dofs(level),
        lambdas=approx.eigenvalues.copy(),
        lambda_ref=None if reference is None else np.asarray(reference, dtype=float),
        abs_err=abs_err,
        energy_err=energy_err,
        work_units=approx.work_units,
        wall_ms=wall_ms,
    )


def _format_float(value) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return ""
    return repr(float(value))


def _write_csv(path, rows: list[StudyRow]) -> None:
    lines = [CSV_COMMENT, CSV_HEADER]
    for row in rows:
        for j in range(row.lambdas.shape[0]):
            ref = None if row.lambda_ref is None else row.lambda_ref[j]
            err = None if row.abs_err is None else row.abs_err[j]
            lines.append(
                ",".join(
                    [
                        row.method,
                        str(row.level + 1),
                        str(row.n_dofs),
                        str(j + 1),
                        _format_float(row.lambdas[j]),
                        _format_float(ref),
                        _format_float(err),
                        _format_float(row.energy_err[j]),
                        repr(float(row.work_units)),
                        "%.3f" % row.wall_ms,
                    ]
                )
            )
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def run_study(
    spec: ProblemSpec,
    coarse_mesh: Mesh,
    n_levels: int,
    config: SolverConfig,
    out_path,
    compare_direct: bool = False,
    direct_tol: float = 1e-9,
) -> list[StudyRow]:
    """Run the convergence study and write the CSV error table.

    One full multigrid pass records every level's accepted eigenpairs (the
    scheme is incremental, so these match runs with fewer levels exactly).
    With ``compare_direct`` one nested sweep of the baseline solver records
    its levels the same way and, when the problem has no exact eigenvalues,
    its two finest levels provide the Richardson-extrapolated reference for
    both methods.  Both methods' ``work_units`` and ``wall_ms`` are
    cumulative from the start of their sweep.  Output is deterministic apart
    from the wall-clock column.  A ``direct_tol`` that is not finite or lies
    below :data:`~fmgeig.eigsolver.DIRECT_TOL_FLOOR` is rejected before any
    work when the baseline runs.
    """
    if compare_direct and not DIRECT_TOL_FLOOR <= direct_tol < np.inf:
        raise ValueError(
            "direct_tol must be finite and at least %g (the baseline's round-off"
            " floor), got %r" % (DIRECT_TOL_FLOOR, direct_tol)
        )
    hierarchy = build_hierarchy(coarse_mesh, n_levels)
    ctx = build_mg_context(hierarchy, spec.coefficients, config.nu)

    def recorder(out: list):  # on_level: each snapshot with the ms since this call
        t0 = time.perf_counter()
        return lambda approx: out.append((approx, 1000.0 * (time.perf_counter() - t0)))

    snapshots, direct_results = [], []
    full_multigrid(hierarchy, spec.coefficients, config, ctx=ctx, on_level=recorder(snapshots))
    if compare_direct:
        direct_fine_solve(ctx, config.q, direct_tol, on_level=recorder(direct_results))

    reference = None
    if spec.exact_eigenvalues is None and len(direct_results) >= 2:
        lam_coarse = direct_results[-2][0].eigenvalues
        lam_fine = direct_results[-1][0].eigenvalues
        reference = np.array(
            [extrapolate_reference(lc, lf) for lc, lf in zip(lam_coarse, lam_fine)]
        )

    rows = [
        compute_errors(
            approx, spec, hierarchy, ctx,
            reference=reference, method="fmg", wall_ms=ms,
        )
        for approx, ms in snapshots
    ]
    rows.extend(
        compute_errors(
            approx, spec, hierarchy, ctx,
            reference=reference, method="direct", wall_ms=ms,
        )
        for approx, ms in direct_results
    )
    if out_path is not None:
        _write_csv(out_path, rows)
    return rows
