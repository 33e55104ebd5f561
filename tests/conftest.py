import numpy as np
import pytest

import fmgeig as fg


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
def general_ctx():
    # The general problem on mesh(4) refined three times: 9 / 49 / 225 / 961 dofs.
    hier = fg.build_hierarchy(fg.unit_square_mesh(4), 4)
    return fg.build_mg_context(hier, fg.general_problem().coefficients, nu=2)


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


def first_eigenfunction(x, y):
    return 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y)


@pytest.fixture(scope="session")
def lam1_exact():
    return 2.0 * np.pi**2
