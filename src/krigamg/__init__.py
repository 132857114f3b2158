"""Adaptive algebraic multigrid coarsening driven by Gaussian-process models.

Smoothed random test vectors are treated as samples of a Gaussian
process over the matrix graph.  Their covariance structure, estimated
empirically or through a semivariogram fit, feeds local Kriging
interpolation; coarse variables are picked greedily by largest
predictive variance, and the resulting two-grid method is evaluated as
a stationary solver and as a CG preconditioner.
"""

from .covariance import (
    EmpiricalCovariance,
    EmpiricalSemivariogram,
    ParametricCovariance,
    ParametricModel,
    bin_semivariogram,
    build_variogram_cloud,
    fit_semivariogram,
)
from .coarsen import (
    InterpolationOperator,
    PartitionState,
    coarsen,
    init_variances,
    select_batch,
    select_next,
    update_after_add,
)
from .errors import NumericalError
from .kriging import KrigingStencil, LocalCovariance, assemble_local_cov, ordinary_kriging
from .metric import (
    GraphDistanceOracle,
    check_local_embeddability,
    distance_correlation,
    graph_distances_from,
    nearest_coarse,
)
from .pipeline import RunConfig, run_solve
from .problems import (
    DiffusionCoefficients,
    ProblemInstance,
    generate_case,
    generate_fd_square,
    generate_fem_circle,
    load_matrix_market,
    save_matrix_market,
)
from .smoother import Coloring, generate_test_vectors, greedy_coloring
from .twogrid import (
    SolveReport,
    TwoGridOperator,
    build_twogrid,
    estimate_asymptotic_rate,
    galerkin,
    pcg_solve,
    precondition_apply,
    vcycle_apply,
)

__version__ = "0.1.0"
