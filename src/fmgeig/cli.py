"""Command line entry point for the convergence studies.

Example::

    fmg-eig run --problem model --mesh square:8 --levels 5 --nev 6 \\
        --m 1 --p 2 --smooth 2 --compare-direct --out results.csv

``--m``, ``--p`` and ``--smooth`` default to the fields of
:class:`~fmgeig.eigsolver.SolverConfig`: one V-cycle per correction step
(a second buys almost no accuracy; see ``SolverConfig``), two correction
steps per level and two smoothing steps.

Exit codes: 0 success, 2 argument or input error, 3 solver failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import SolverError
from .eigsolver import DIRECT_TOL, DIRECT_TOL_FLOOR, SolverConfig
from .harness import general_problem, model_problem, run_study
from .mesh import load_mesh, unit_square_mesh

__all__ = ["main"]


def _parse_mesh(source: str):
    if source.startswith("square:"):
        return unit_square_mesh(int(source.split(":", 1)[1]))
    with open(source, "r", encoding="ascii") as handle:
        return load_mesh(handle.read())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmg-eig",
        description="Full multigrid eigenvalue solver benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a convergence study and write a CSV table")
    run.add_argument("--problem", choices=["model", "general"], required=True)
    run.add_argument(
        "--mesh",
        default="square:8",
        help="coarse mesh: 'square:NX' or a node/element file path",
    )
    run.add_argument("--levels", type=int, default=5, help="hierarchy depth")
    run.add_argument("--nev", type=int, default=1, help="number of eigenpairs")
    defaults = SolverConfig()
    run.add_argument(
        "--m", type=int, default=defaults.m, help="V-cycles per correction (default %(default)s)"
    )
    run.add_argument(
        "--p", type=int, default=defaults.p, help="correction steps per level (default %(default)s)"
    )
    run.add_argument(
        "--smooth", type=int, default=defaults.nu, help="smoothing steps (default %(default)s)"
    )
    run.add_argument(
        "--compare-direct",
        action="store_true",
        help="also run the direct baseline solver, one nested sweep over the levels",
    )
    run.add_argument(
        "--direct-tol", type=float, default=DIRECT_TOL,
        help="direct baseline residual target, at least %g;"
        " -1e-9 and the like need --direct-tol=VALUE" % DIRECT_TOL_FLOOR,
    )
    run.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        coarse = _parse_mesh(args.mesh)
        spec = model_problem(args.nev) if args.problem == "model" else general_problem()
        config = SolverConfig(q=args.nev, m=args.m, p=args.p, nu=args.smooth)
    except (ValueError, OSError) as exc:
        print("fmg-eig: error: %s" % exc, file=sys.stderr)
        return 2

    try:
        run_study(
            spec,
            coarse,
            args.levels,
            config,
            args.out,
            compare_direct=args.compare_direct,
            direct_tol=args.direct_tol,
        )
    except ValueError as exc:
        print("fmg-eig: error: %s" % exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print("fmg-eig: solver failure: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("fmg-eig: I/O failure: %s" % exc, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
