"""The three benchmark workloads, their timed operation and their checks.

Each operation starts from the seeded coarse mesh and calls only public
entry points of ``fmgeig``.  It returns its phase times and the outputs the
checks need; :meth:`Workload.summarize` keeps the small part of those
(eigenvalues and the mass Gram matrix of each returned block) so that only
the last operation's operators stay alive when the next one starts.  The
reference eigenvalues (``eigsh`` in shift-invert mode) are computed once,
after all operations and after the metrics are read, from the last
operation's assembled pencils: every operation of a run sees the same mesh.
:func:`check_operations` then checks each operation against them.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import eigsh

import fmgeig as fg
from fmgeig import cli

import checks
from meshgen import coarse_square_text
from tracer import Tracer

#: Model problem: lambda_1 of the Dirichlet Laplacian on the unit square.
MODEL_LAMBDA1 = 2.0 * np.pi**2


def discrete_eigenvalues(ctx, level: int, q: int) -> np.ndarray:
    """The ``q`` smallest eigenvalues of the level pencil, by eigsh shift-invert."""
    a, b = ctx.stiffness[level], ctx.mass[level]
    v0 = np.random.default_rng(0).standard_normal(a.shape[0])
    vals = eigsh(a, k=q, M=b, sigma=0.0, which="LM", tol=1e-12, v0=v0,
                 return_eigenvectors=False)
    return np.sort(vals)


def mass_gram(ctx, level: int, vectors: np.ndarray) -> np.ndarray:
    return vectors.T @ (ctx.mass[level] @ vectors)


def fine_nnz(ctx) -> int:
    return int(ctx.stiffness[-1].nnz + ctx.mass[-1].nnz)


class Workload:
    """One benchmark input: a seeded coarse mesh, a problem and a depth."""

    name = ""
    levels = 0
    q = 0

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.mesh_text = coarse_square_text(seed)

    def warm_up(self) -> None:
        """Run the same calls once on a tiny mesh so lazy imports finish untimed."""
        raise NotImplementedError

    def run_once(self) -> dict:
        raise NotImplementedError

    def summarize(self, outcome: dict) -> dict:
        raise NotImplementedError

    def references(self, last: dict, traced: bool) -> dict:
        """Reference eigenvalues, solved outside the program from the last
        operation's pencils (the finest model level only when ``traced``)."""
        raise NotImplementedError

    def check(self, summary: dict, refs: dict):
        """Return ``(failures, eig_rel_err, alg_rel_err)`` of one operation;
        ``alg_rel_err`` is None when ``refs`` hold no finest discrete level."""
        raise NotImplementedError


def check_operations(workload: Workload, summaries: list[dict], last, traced: bool):
    """Check every operation; a check that raises fails its operation.

    Returns the failures of each operation and the largest ``eig_rel_err``
    and ``alg_rel_err`` over the operations checked (None when none was).
    """
    if last is None:
        return [["no operation left pencils for the reference solve"] for _ in summaries], None, None
    try:
        refs = workload.references(last, traced)
    except Exception as exc:  # a reference that cannot be had checks nothing
        return [["reference solve raised %r" % exc] for _ in summaries], None, None
    failures, rel, alg = [], [], []
    for summary in summaries:
        try:
            found, eig_rel_err, alg_rel_err = workload.check(summary, refs)
        except Exception as exc:  # malformed output of the program
            found, eig_rel_err, alg_rel_err = ["check raised %r" % exc], None, None
        failures.append(found)
        rel += [eig_rel_err] if eig_rel_err is not None else []
        alg += [alg_rel_err] if alg_rel_err is not None else []
    return failures, max(rel, default=None), max(alg, default=None)


class FmgWorkload(Workload):
    """``full_multigrid`` on a hierarchy built from the coarse mesh."""

    def problem(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        self._solve(coarse_square_text(self.seed, nx=4), 2)

    def run_once(self) -> dict:
        return self._solve(self.mesh_text, self.levels)

    def _solve(self, mesh_text: str, levels: int) -> dict:
        coeff = self.problem().coefficients
        config = fg.SolverConfig(q=self.q)
        snapshots = []
        t0 = time.perf_counter()
        coarse = fg.load_mesh(mesh_text)
        t1 = time.perf_counter()
        hierarchy = fg.build_hierarchy(coarse, levels)
        ctx = fg.build_mg_context(hierarchy, coeff, config.nu, config.smoother)
        t2 = time.perf_counter()
        result = fg.full_multigrid(
            hierarchy, coeff, config, ctx=ctx,
            on_level=lambda approx: snapshots.append(approx.eigenvalues.copy()),
        )
        t3 = time.perf_counter()
        return {
            "times": {"setup_s": t2 - t1, "solve_s": t3 - t2, "total_s": t3 - t0},
            "levels": snapshots,
            "vectors": result.vectors,
            "hierarchy": hierarchy,
            "ctx": ctx,
        }

    def summarize(self, outcome: dict) -> dict:
        ctx = outcome["ctx"]
        return {
            "times": outcome["times"],
            "levels": outcome["levels"],
            "grams": {"fmg": mass_gram(ctx, ctx.n_levels - 1, outcome["vectors"])},
            "work_units": float(getattr(ctx, "work_units", 0.0)),
            "fine_vertices": outcome["hierarchy"].meshes[-1].n_vertices,
            "fine_nnz": fine_nnz(ctx),
        }


class ModelWorkload(FmgWorkload):
    name = "model-q1-L7"
    levels = 7
    q = 1

    def problem(self):
        return fg.model_problem(self.q)

    def references(self, last, traced):
        # eigsh on the 261k-dof pencil costs about 11 s, so only the traced
        # run, which reports alg_rel_err, pays for it.
        return {"fine": discrete_eigenvalues(last["ctx"], self.levels - 1, self.q)} if traced else {}

    def check(self, s, refs):
        errors = [abs(lam[0] - MODEL_LAMBDA1) / MODEL_LAMBDA1 for lam in s["levels"]]
        found = checks.level_count(s["levels"], self.levels)
        found += checks.convergence_rate(errors) + checks.b_orthonormal(s["grams"]["fmg"], "fmg")
        alg = checks.relative_error(s["levels"][-1], refs["fine"]) if "fine" in refs else None
        return found, errors[-1], alg


class GeneralWorkload(FmgWorkload):
    name = "general-q6-L6"
    levels = 6
    q = 6

    def problem(self):
        return fg.general_problem()

    def references(self, last, traced):
        top = self.levels - 1
        return {k: discrete_eigenvalues(last["ctx"], k, self.q) for k in (top - 2, top - 1, top)}

    def check(self, s, ref):
        top = self.levels - 1
        limit = checks.richardson(ref[top - 1], ref[top])
        found = checks.level_count(s["levels"], self.levels)
        found += checks.b_orthonormal(s["grams"]["fmg"], "fmg")
        for k in (top - 1, top):
            found += checks.algebraic_fraction(s["levels"][k], ref[k], ref[k - 1])[1]
        return (found, checks.relative_error(s["levels"][top], limit),
                checks.relative_error(s["levels"][top], ref[top]))


class StudyWorkload(Workload):
    """``fmg-eig run --problem general --nev 6 --levels 5 --compare-direct``."""

    name = "study-general-q6-L5"
    levels = 5
    q = 6
    #: Phase boundaries the untraced run needs: set-up time, the run_study
    #: span, and the finest FMG and direct blocks for the checks.
    PHASES = (
        "mesh.build_hierarchy",
        "multigrid.build_mg_context",
        "eigsolver.full_multigrid",
        "eigsolver.direct_fine_solve",
        "harness.run_study",
    )

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.mesh_path = out_dir / ("study-mesh-%d.txt" % seed)
        self.csv_path = out_dir / ("study-%d.csv" % seed)
        self.mesh_path.write_text(self.mesh_text, encoding="ascii")

    def _argv(self, mesh_path, levels):
        return ["run", "--problem", "general", "--nev", str(self.q), "--levels", str(levels),
                "--compare-direct", "--mesh", str(mesh_path), "--out", str(self.csv_path)]

    def warm_up(self) -> None:
        tiny = self.out_dir / ("study-warmup-%d.txt" % self.seed)
        tiny.write_text(coarse_square_text(self.seed, nx=4), encoding="ascii")
        self._run(self._argv(tiny, 2))

    def run_once(self) -> dict:
        return self._run(self._argv(self.mesh_path, self.levels))

    def _run(self, argv) -> dict:
        phases = Tracer(self.PHASES)
        phases.install()
        try:
            t0 = time.perf_counter()
            code = cli.main(argv)
            total = time.perf_counter() - t0
        finally:
            phases.uninstall()
        if code != 0:
            raise RuntimeError("fmg-eig run exited with code %d" % code)
        times, results = phases.summary(), phases.results
        setup = times["mesh.build_hierarchy"]["s"] + times["multigrid.build_mg_context"]["s"]
        return {
            "times": {"setup_s": setup, "solve_s": times["harness.run_study"]["s"] - setup, "total_s": total},
            "csv": self.csv_path.read_text(encoding="ascii"),
            "fmg": results["eigsolver.full_multigrid"].vectors,
            "direct": results["eigsolver.direct_fine_solve"].vectors,
            "hierarchy": results["mesh.build_hierarchy"],
            "ctx": results["multigrid.build_mg_context"],
        }

    def summarize(self, outcome: dict) -> dict:
        ctx = outcome["ctx"]
        top = ctx.n_levels - 1
        failures, table = checks.parse_study_csv(outcome["csv"], self.levels, self.q)
        work = 0.0
        if not failures:
            work = table[("fmg", self.levels)]["work_units"][0] + sum(
                table[("direct", k)]["work_units"][0] for k in range(1, self.levels + 1)
            )
        return {
            "times": outcome["times"],
            "csv_failures": failures,
            "table": table,
            "grams": {m: mass_gram(ctx, top, outcome[m]) for m in ("fmg", "direct")},
            "work_units": work,
            "fine_vertices": outcome["hierarchy"].meshes[-1].n_vertices,
            "fine_nnz": fine_nnz(ctx),
        }

    def references(self, last, traced):
        # CSV levels are 1-based.
        return {k: discrete_eigenvalues(last["ctx"], k - 1, self.q) for k in range(1, self.levels + 1)}

    def check(self, s, ref):
        top = self.levels
        limit = checks.richardson(ref[top - 1], ref[top])
        found = list(s["csv_failures"])
        found += checks.b_orthonormal(s["grams"]["fmg"], "fmg")
        found += checks.b_orthonormal(s["grams"]["direct"], "direct")
        if s["csv_failures"]:
            return found, None, None
        table = s["table"]
        for k in range(1, top + 1):
            found += checks.direct_agreement(table[("direct", k)]["lambda_h"], ref[k], k)
        for k in (top - 1, top):
            found += checks.algebraic_fraction(table[("fmg", k)]["lambda_h"], ref[k], ref[k - 1])[1]
        found += checks.reference_column(table[("fmg", top)]["lambda_ref"], limit)
        fmg = table[("fmg", top)]["lambda_h"]
        return found, checks.relative_error(fmg, limit), checks.relative_error(fmg, ref[top])


WORKLOADS = {w.name: w for w in (ModelWorkload, GeneralWorkload, StudyWorkload)}
