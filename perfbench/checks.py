"""Output checks of the benchmark, as pure functions of arrays and text.

Every check returns a list of failure messages; an empty list means the
output passed.  References are computed outside the program under test:
the exact model eigenvalue, ``scipy.sparse.linalg.eigsh`` on the assembled
pencils, and the Richardson limit of those discrete eigenvalues.
"""

from __future__ import annotations

import numpy as np

#: Largest entry of ``V' B V - I`` accepted for a returned eigenvector block.
ORTHO_TOL = 1e-8
#: Accepted band for the ratio of model errors on consecutive levels
#: (P1 eigenvalues converge at O(h^2), so the ratio tends to 4; seeded
#: meshes measure 4.00-4.02).  A finest eigenvalue whose error grew by more
#: than about 5% falls below the band.
RATE_BAND = (3.8, 4.2)
#: Largest accepted algebraic error as a share of the discrete eigenvalue
#: change between the level and the one below it (measured: below 7e-5 on
#: the two finest levels of every workload).
ALG_FRACTION = 1e-3
#: Largest accepted relative gap between the direct baseline and eigsh; the
#: baseline stops at a residual of 1e-9 * max|A| (measured gap: below 1e-14).
DIRECT_TOL = 1e-10
#: Largest accepted relative gap between the study's lambda_ref column and
#: the Richardson limit of the eigsh eigenvalues (measured: below 2e-14).
REFERENCE_TOL = 1e-10

#: Spelled out, not imported from fmgeig.harness, so a changed header fails.
CSV_HEADER = (
    "method,level,n_dofs,eig_index,lambda_h,lambda_ref,abs_err,"
    "energy_err,work_units,wall_ms"
)


def richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Limit of second-order eigenvalues on meshes of size 2h and h."""
    return fine + (fine - coarse) / 3.0


def relative_error(values, reference) -> float:
    """Largest relative distance of sorted ``values`` from sorted ``reference``."""
    values = np.sort(np.asarray(values, dtype=float))
    reference = np.sort(np.asarray(reference, dtype=float))
    return float(np.max(np.abs(values - reference) / np.abs(reference)))


def b_orthonormal(gram: np.ndarray, what: str) -> list[str]:
    """``gram`` is ``V' B V`` of a returned block; it must be the identity."""
    gram = np.asarray(gram, dtype=float)
    dev = float(np.max(np.abs(gram - np.eye(gram.shape[0])))) if gram.size else np.inf
    if not dev <= ORTHO_TOL:
        return ["%s: |V'BV - I|_max = %.3g > %g" % (what, dev, ORTHO_TOL)]
    return []


def level_count(snapshots, levels: int) -> list[str]:
    """FMG must report one eigenvalue snapshot per level."""
    if len(snapshots) != levels:
        return ["FMG reported %d level snapshots, expected %d" % (len(snapshots), levels)]
    return []


def convergence_rate(level_errors) -> list[str]:
    """Errors against the exact eigenvalue must fall by about 4 per level."""
    errors = np.asarray(level_errors, dtype=float)
    if errors.size < 2 or not np.all(np.isfinite(errors)) or np.any(errors <= 0.0):
        return ["level errors unusable for a rate: %s" % errors.tolist()]
    ratios = errors[:-1] / errors[1:]
    low, high = RATE_BAND
    bad = [
        "level %d->%d error ratio %.3f outside [%g, %g]" % (k, k + 1, r, low, high)
        for k, r in enumerate(ratios)
        if not low <= r <= high
    ]
    return bad


def algebraic_fraction(fmg, discrete, discrete_below) -> tuple[float, list[str]]:
    """Distance of FMG eigenvalues from the discrete ones, as a share of the
    discrete change from the level below; returns the share and failures."""
    fmg = np.sort(np.asarray(fmg, dtype=float))
    discrete = np.sort(np.asarray(discrete, dtype=float))
    change = np.abs(discrete - np.sort(np.asarray(discrete_below, dtype=float)))
    share = float(np.max(np.abs(fmg - discrete) / change))
    if not share <= ALG_FRACTION:
        return share, ["algebraic error is %.3g of the level change > %g" % (share, ALG_FRACTION)]
    return share, []


def direct_agreement(direct, discrete, level: int) -> list[str]:
    """The direct baseline must reproduce the discrete eigenvalues."""
    gap = relative_error(direct, discrete)
    if not gap <= DIRECT_TOL:
        return ["direct level %d differs from eigsh by %.3g > %g" % (level, gap, DIRECT_TOL)]
    return []


def parse_study_csv(text: str, levels: int, nev: int):
    """Parse the study CSV; returns ``(failures, table)``.

    ``table`` maps ``(method, level)`` (1-based level) to a dict with the
    ``lambda_h``, ``lambda_ref`` and ``work_units`` columns as arrays.
    """
    lines = text.splitlines()
    failures = []
    if not lines or not lines[0].startswith("#"):
        failures.append("CSV does not start with a '#' comment line")
    if len(lines) < 2 or lines[1] != CSV_HEADER:
        failures.append("CSV header differs from %r" % CSV_HEADER)
    rows = [line.split(",") for line in lines[2:]]
    expected = 2 * levels * nev
    if len(rows) != expected:
        failures.append("CSV has %d data rows, expected %d" % (len(rows), expected))
    table: dict = {}
    for fields in rows:
        if len(fields) != 10:
            failures.append("CSV row with %d fields: %s" % (len(fields), ",".join(fields)))
            continue
        method, level, _, index, lam, ref, _, _, work, _ = fields
        try:
            key, j = (method, int(level)), int(index)
            values = float(lam), float(ref) if ref else np.nan, float(work)
        except ValueError:
            failures.append("CSV row with a non-numeric field: %s" % ",".join(fields))
            continue
        entry = table.setdefault(key, {"lambda_h": {}, "lambda_ref": {}, "work_units": {}})
        for column, value in zip(("lambda_h", "lambda_ref", "work_units"), values):
            entry[column][j] = value
    for method in ("fmg", "direct"):
        for level in range(1, levels + 1):
            entry = table.get((method, level))
            if entry is None or sorted(entry["lambda_h"]) != list(range(1, nev + 1)):
                failures.append("CSV lacks %s rows 1..%d at level %d" % (method, nev, level))
                continue
            for key in entry:
                entry[key] = np.array([entry[key][j] for j in range(1, nev + 1)])
    return failures, table


def reference_column(lambda_ref, limit) -> list[str]:
    """The study's extrapolated reference must match the eigsh Richardson limit."""
    lambda_ref = np.asarray(lambda_ref, dtype=float)
    if not np.all(np.isfinite(lambda_ref)):
        return ["CSV lambda_ref column is empty"]
    gap = relative_error(lambda_ref, limit)
    if not gap <= REFERENCE_TOL:
        return ["CSV lambda_ref differs from the eigsh limit by %.3g > %g" % (gap, REFERENCE_TOL)]
    return []
