"""Low-rank factorized ADMM solver for diagonally and block-diagonally
constrained semidefinite programs, with negative-curvature escapes, dual
certification, and a Riemannian gradient descent baseline."""

from .certify import (
    Certificate,
    brute_force_maxcut,
    dual_certificate,
    objective,
    relative_gap,
)
from .curvature import (
    CurvatureReport,
    escape_step,
    hess_quadform,
    negative_curvature_direction,
    riemannian_grad,
    solve_with_curvature,
)
from .errors import (
    AssumptionViolated,
    BmadmmError,
    DegenerateProjection,
    DimensionMismatch,
    EigenEstimateError,
    GsetFormatError,
    InvariantViolation,
    OffManifold,
    UnsupportedManifold,
)
from .manifold import (
    ManifoldSpec,
    ProblemSpec,
    geodesic_step,
    manifold_violation,
    normalize_rows,
    project,
    project_block,
    random_point,
    tangent_project,
)
from .problems import (
    GraphInstance,
    generate_so3,
    load_gset,
    maxcut_cost,
    parse_gset,
    read_problem,
    serialize_gset,
    write_problem,
)
from .rgd import RgdOptions, rgd_solve
from .solver import (
    OracleResult,
    SolveResult,
    SolverOptions,
    SolverState,
    Status,
    default_rho,
    gamma,
    init_state,
    kappa_constant,
    merit_value,
    oracle_sdp,
    residuals,
    solve,
    step,
)
from .sparse import (
    SparseSymMatrix,
    inf_norm,
    min_eig_estimate,
    spmm,
    two_norm_estimate,
)
from .trace import BASE_COLUMNS, CURVATURE_COLUMNS, Trace, TraceRecord

__version__ = "0.1.0"
