import importlib.util
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import fmgeig as fg
from fmgeig.linalg import _openblas_controls
from fmgeig.mesh import _interpolation

# Property tests draw the same examples on every run, with no time limit and
# no example database; each test sets only its own ``max_examples``.
settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def spin_probe():
    """Process CPU time, in seconds, over a 20 ms sleep: about 0.02 while an
    OpenBLAS worker busy-waits after a threaded call, 1e-4 or less when the
    pool is quiet.  Returned once a probe reads quiet (a worker spins for
    about 0.12 s after its last call); skips where no worker can spin beside
    the caller, with fewer than two usable CPUs or no OpenBLAS found."""
    if len(os.sched_getaffinity(0)) < 2 or not _openblas_controls():
        pytest.skip("needs two usable CPUs and an OpenBLAS build")

    def probe():
        start = time.process_time()
        time.sleep(0.02)
        return time.process_time() - start

    for _ in range(25):
        if probe() < 1e-3:
            break
    return probe


def blas_thread_counts():
    """The thread count of every OpenBLAS build numpy and scipy loaded."""
    return [get() for get, _ in _openblas_controls()]


@pytest.fixture(scope="session")
def model_coeff():
    return fg.laplace_coefficients()


@pytest.fixture(scope="session")
def small_hierarchy():
    # mesh(4) refined twice: 9 / 49 / 225 interior dofs, dense-oracle friendly.
    return fg.build_hierarchy(fg.unit_square_mesh(4), 3)


@pytest.fixture(scope="session")
def small_ctx(small_hierarchy, model_coeff):
    return fg.build_mg_context(small_hierarchy, model_coeff, nu=2)


@pytest.fixture(scope="session")
def general_hierarchy():
    # mesh(4) refined three times: 9 / 49 / 225 / 961 interior dofs.
    return fg.build_hierarchy(fg.unit_square_mesh(4), 4)


@pytest.fixture(scope="session")
def general_ctx(general_hierarchy):
    return fg.build_mg_context(general_hierarchy, fg.general_problem().coefficients, nu=2)


@pytest.fixture(scope="session")
def dense_pairs(small_ctx):
    """Dense-oracle eigenpairs of every level of the small model hierarchy."""
    out = {}
    for level in range(small_ctx.n_levels):
        a = small_ctx.stiffness[level].toarray()
        b = small_ctx.mass[level].toarray()
        q = min(6, a.shape[0])
        out[level] = fg.generalized_eig_dense(a, b, q)
    return out


def leading_entry(column):
    """Row of the sign convention: the first within 1e-8 of the largest magnitude."""
    top = max(abs(value) for value in column)
    return next(i for i, value in enumerate(column) if abs(value) >= top - 1e-8 * top)


def mesh_text(vertices, triangles):
    """The node/element text of ``load_mesh`` for the given arrays."""
    lines = ["%d %d" % (len(vertices), len(triangles))]
    lines += ["%.17g %.17g" % (x, y) for x, y in vertices]
    lines += ["%d %d %d" % tuple(t) for t in triangles]
    return "\n".join(lines) + "\n"


def shuffled_square_mesh(nx, amplitude, seed):
    """Loaded square mesh: interior vertices moved by up to ``amplitude * h``,
    vertex ids permuted, triangles reordered and their corners rotated."""
    rng = np.random.default_rng(seed)
    mesh = fg.unit_square_mesh(nx)
    shift = rng.uniform(-amplitude / nx, amplitude / nx, mesh.vertices.shape)
    shift[mesh.boundary_vertex] = 0.0
    perm = rng.permutation(mesh.n_vertices)
    tri = np.argsort(perm)[mesh.triangles[rng.permutation(mesh.n_triangles)]]
    turns = (np.arange(3) + rng.integers(0, 3, (len(tri), 1))) % 3
    tri = np.take_along_axis(tri, turns, axis=1)
    return fg.load_mesh(mesh_text((mesh.vertices + shift)[perm], tri))


def benchmark_mesh(seed):
    """The benchmark's seeded coarse mesh, from ``perfbench/meshgen.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "meshgen.py"
    spec = importlib.util.spec_from_file_location("perfbench_meshgen", path)
    meshgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(meshgen)
    return fg.load_mesh(meshgen.coarse_square_text(seed))


def shuffled_meshes(sizes):
    """Strategy of :func:`shuffled_square_mesh` with ``nx`` drawn from ``sizes``."""
    return st.builds(
        shuffled_square_mesh, sizes, st.floats(0.0, 0.3), st.integers(0, 2**32 - 1)
    )


class CountingMatrix:
    """A sparse matrix that counts its products with ``@``."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    @property
    def shape(self):
        return self.matrix.shape

    def __matmul__(self, other):
        self.products += 1
        return self.matrix @ other


def vertex_prolongations(hierarchy):
    """``[k]`` interpolates vertex coefficients of ``meshes[k]`` onto ``meshes[k + 1]``."""
    meshes = hierarchy.meshes
    return [
        _interpolation(coarse, np.arange(coarse.n_vertices), np.arange(fine.n_vertices))
        for coarse, fine in zip(meshes, meshes[1:])
    ]


def folded_prolongation(ctx, level):
    """Dense interpolation of the level-0 dofs onto ``level``: the transfers
    folded from coarse to fine."""
    fold = np.eye(ctx.n_dofs(0))
    for op in ctx.transfer[:level]:
        fold = op @ fold
    return fold


def first_eigenfunction(x, y):
    return 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y)


@pytest.fixture(scope="session")
def lam1_exact():
    return 2.0 * np.pi**2
