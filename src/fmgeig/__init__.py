"""Full multigrid solver for elliptic eigenvalue problems on nested meshes.

The package couples P1 finite elements on regularly refined triangulations
with a multilevel correction scheme: eigenpairs obtained on the coarsest
space are carried up the hierarchy, where each level costs only a few
V-cycles on a boundary-value problem plus a small dense eigensolve on an
augmented coarse space.  A benchmark harness reproduces the convergence and
work studies via the ``fmg-eig`` command line tool.
"""

from .eigsolver import (
    EigenApprox,
    SolverConfig,
    coarse_eigensolve,
    direct_fine_solve,
    full_multigrid,
    one_correction_step,
)
from .errors import (
    AssemblyError,
    ConvergenceError,
    DegenerateAugmentationError,
    MeshFormatError,
    NotPositiveDefiniteError,
    SolverError,
)
from .fem import (
    CoefficientField,
    assemble_pencil,
    interior_dofmap,
    interpolate,
    laplace_coefficients,
    norm_a,
)
from .harness import (
    ProblemSpec,
    StudyRow,
    compute_errors,
    extrapolate_reference,
    general_problem,
    model_exact_data,
    model_problem,
    run_study,
)
from .linalg import cholesky_dense, generalized_eig_dense
from .mesh import (
    Mesh,
    MeshHierarchy,
    build_hierarchy,
    load_mesh,
    refine_regular,
    triangle_areas,
    unit_square_mesh,
)
from .multigrid import MGContext, build_mg_context, mg_solve, v_cycle

__version__ = "0.1.0"
