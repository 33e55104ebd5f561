"""Benchmark of the fmgeig full multigrid eigensolver.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload model-q1-L7 --seed 1 --seconds 15 --trace 0

Each run is one fresh process that imports ``fmgeig`` from ``src/`` of the
checkout, caps the numerical libraries' threads at the core count, builds
the seeded coarse mesh and repeats whole operations of the workload until
``--seconds`` have passed (at least two).  With ``--trace 0`` it reports
the end-to-end metrics (medians over the operations); with ``--trace 1``
every round runs one operation untraced and one with every public function
of every module wrapped in a span, and it reports the per-layer metrics.
The outputs of every operation are checked after the metrics are read; an
operation that raises, or whose output a check rejects or cannot read,
counts as failed.  The last line of standard output is the JSON result,
with the units BENCHMARK.json gives; details go to ``perfbench/out/``.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREADS = len(os.sched_getaffinity(0))

#: Per-layer metrics taken from span summaries: (function, field) -> name
#: ``<layer>.<function>_<field>``; ``s`` and ``calls`` count outermost calls.
SPAN_METRICS = (
    ("mesh.build_hierarchy", "s"),
    ("mesh.refine_regular", "s"),
    ("mesh.load_mesh", "s"),
    ("fem.assemble_stiffness", "s"),
    ("fem.assemble_mass", "s"),
    ("multigrid.build_mg_context", "self_s"),
    ("multigrid.mg_solve", "s"),
    ("multigrid.mg_solve", "calls"),
    ("multigrid.v_cycle", "s"),
    ("multigrid.v_cycle", "calls"),
    ("linalg.generalized_eig_dense", "s"),
    ("linalg.generalized_eig_dense", "calls"),
    ("linalg.jacobi_eigh", "s"),
    ("linalg.cg_solve", "s"),
    ("linalg.cg_solve", "calls"),
    ("linalg.pcg_solve", "s"),
    ("linalg.pcg_solve", "calls"),
    ("eigsolver.coarse_eigensolve", "s"),
    ("eigsolver.one_correction_step", "s"),
    ("eigsolver.one_correction_step", "calls"),
    ("eigsolver.augmented_ritz", "s"),
    ("eigsolver.b_orthonormalize", "s"),
    ("eigsolver.b_orthonormalize", "calls"),
    ("eigsolver.direct_fine_solve", "s"),
    ("harness.run_study", "s"),
    ("harness.compute_errors", "s"),
    ("harness.run_study", "self_s"),
    ("cli.main", "self_s"),
)
#: FMG levels reported as ``eigsolver.level_s.L<k>`` (the deepest workload has 7).
MAX_LEVELS = 7
#: Untraced runs repeat at least this many operations, so every median
#: (``setup_s`` too) is taken over more than one sample.
MIN_ROUNDS = 2


def _bootstrap():
    """Cap the numerical libraries' threads at the core count, then import
    fmgeig (and with it numpy) from this checkout's sources, never from
    elsewhere."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    src = ROOT / "src"
    if not (src / "fmgeig" / "__init__.py").is_file():
        sys.exit("perfbench: no fmgeig sources at %s" % src)
    sys.path.insert(0, str(src))
    import fmgeig

    if Path(fmgeig.__file__).resolve().parent != (src / "fmgeig").resolve():
        sys.exit("perfbench: fmgeig imported from %s, not %s" % (fmgeig.__file__, src))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _attempt(workload, run: dict):
    """Run and summarize one operation and return its summary; keep its
    outputs in ``run["last"]``.  A raised error counts it as failed."""
    run["last"] = None  # free the previous operation before the next allocates
    gc.collect()
    try:
        outcome = workload.run_once()
        summary = workload.summarize(outcome)
    except Exception:  # any fault of the program is a failed operation
        traceback.print_exc(file=sys.stderr)
        run["failed"] += 1
        return None
    run["last"] = outcome
    return summary


def _new_run() -> dict:
    return {"summaries": [], "failed": 0, "plain_totals": [], "traced": [], "last": None}


def _measure(workload, seconds: float, tracer, spans_path) -> dict:
    """Repeat whole rounds until ``seconds`` have passed.

    A round is one operation (at least ``MIN_ROUNDS``), or with a tracer one
    untraced and one traced operation (at least one round).  Only the final
    operation's outputs stay alive (the checks build their references from
    its operators).
    """
    run = _new_run()
    start = time.perf_counter()
    while True:
        summary = _attempt(workload, run)
        if summary is not None:
            run["summaries"].append(summary)
            run["plain_totals"].append(summary["times"]["total_s"])
        if tracer is not None:
            tracer.install()
            try:
                summary = _attempt(workload, run)
            finally:
                tracer.uninstall()
            if summary is not None:
                run["summaries"].append(summary)
                run["traced"].append((summary, tracer.summary(), tracer.level_times(), dict(tracer.counts)))
                with spans_path.open("a") as handle:
                    for name, t0, t1, parent in tracer.spans:
                        handle.write('["%s",%.9f,%.9f,%d]\n' % (name, t0, t1, parent))
            tracer.reset()
        rounds = len(run["summaries"]) + run["failed"]
        if time.perf_counter() - start >= seconds and (tracer is not None or rounds >= MIN_ROUNDS):
            return run


def _layer_metrics(run, alg_rel_err) -> dict:
    """Medians over the traced operations of every per-layer metric."""
    rows = []
    for summary, span_summary, level_times, counts in run["traced"]:
        row = {}
        for fn, field in SPAN_METRICS:
            row["%s_%s" % (fn, field)] = span_summary.get(fn, {}).get(field, 0)
        row["linalg.cg_iters"] = counts.get("linalg.cg_iters", 0)
        row["linalg.pcg_iters"] = counts.get("linalg.pcg_iters", 0)
        for k in range(MAX_LEVELS):
            row["eigsolver.level_s.L%d" % k] = level_times[k] if k < len(level_times) else 0.0
        row["mesh.fine_vertices"] = summary["fine_vertices"]
        row["fem.fine_nnz"] = summary["fine_nnz"]
        row["multigrid.work_units"] = summary["work_units"]
        row["trace.overhead_s"] = summary["times"]["total_s"] - statistics.median(run["plain_totals"])
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["eigsolver.alg_rel_err"] = alg_rel_err
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _bootstrap()
    from tracer import Tracer
    from workloads import WORKLOADS, check_operations

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in manifest["per_layer" if args.trace else "end_to_end"]}

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r, expected one of %s" % (args.workload, sorted(WORKLOADS)))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    print("perfbench: %s seed %d, threads capped at %d" % (workload.name, args.seed, THREADS),
          file=sys.stderr)
    workload.warm_up()

    tracer, spans_path, absent = None, None, []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        absent = sorted({fn for fn, _ in SPAN_METRICS} - set(tracer.wrapped))
        tracer.uninstall()
        for name in absent:
            print("perfbench: %s is absent, reported as 0" % name, file=sys.stderr)
        spans_path = OUT / ("%s-%d.spans.jsonl" % (workload.name, args.seed))
        spans_path.write_text("")
        # The first full-size operation of a process runs slower (fresh
        # memory pages); discard one so that neither side of the traced
        # minus untraced overhead carries that cost.
        _attempt(workload, _new_run())

    run = _measure(workload, args.seconds, tracer, spans_path)
    summaries, last = run["summaries"], run["last"]
    peak_rss = _peak_rss_mb()

    # Checks run now, after the metrics are read.  Without the final
    # operation's pencils no reference exists and nothing is reported.
    failures, eig_rel_err, alg_rel_err = check_operations(workload, summaries, last, tracer is not None)
    for index, found in enumerate(failures):
        for message in found:
            print("perfbench: check failed on operation %d: %s" % (index, message), file=sys.stderr)
    bad_checks = sum(1 for found in failures if found)

    metrics = {}
    if tracer is None and eig_rel_err is not None:
        metrics = {
            "setup_s": statistics.median(s["times"]["setup_s"] for s in summaries),
            "solve_s": statistics.median(s["times"]["solve_s"] for s in summaries),
            "total_s": statistics.median(s["times"]["total_s"] for s in summaries),
            "peak_rss_mb": peak_rss,
            "eig_rel_err": eig_rel_err,
        }
    elif tracer is not None and run["traced"] and alg_rel_err is not None:
        metrics = _layer_metrics(run, alg_rel_err)
    if metrics and set(metrics) != set(units):
        sys.exit("perfbench: metrics %s differ from BENCHMARK.json" % sorted(set(metrics) ^ set(units)))

    result = {
        "correct": bad_checks == 0 and bool(metrics),
        "attempted": len(summaries) + run["failed"],
        "failed": run["failed"] + bad_checks,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, threads=THREADS, absent=absent,
                   operations=[s["times"] for s in summaries], machine=_machine_facts())
    (OUT / ("%s-%d-trace%d.json" % (workload.name, args.seed, args.trace))).write_text(
        json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if metrics else 1


def _machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "loadavg": os.getloadavg(),
    }


if __name__ == "__main__":
    sys.exit(main())
