"""Orthogonal trace-sum maximization: solver, certificate, and builders.

Maximize ``sum_{i<j} tr(O_i^T S_ij O_j)`` over tuples of orthonormal-frame
blocks.  The package provides the proximal block-relaxation solver with a
monotone objective and stationary limit points, a post-hoc semidefinite
certificate of global optimality, problem builders for multi-set
agreement/correlation analysis, generalized orthogonal alignment, and
orthogonal least squares, a seeded benchmark harness, and a command-line
front end (``otsm``).
"""

from .builders import (
    OlsData,
    ViewData,
    build_maxdiff,
    build_ols,
    build_procrustes,
    hard_example,
    ols_residual,
    pairwise_discrepancy,
    synth_procrustes,
)
from .certificate import (
    CertificateReport,
    Verdict,
    certificate_matrix,
    certify,
    dual_upper_bound,
    reduced_certificate,
)
from . import cli  # noqa: F401  benchmarks/workloads.py calls otsm.cli.*
from .core import (
    DEFAULT_ORTH_TOL,
    BlockDims,
    BlockOrthogonal,
    InternalError,
    OtsmProblem,
    StationarityReport,
    ValidationError,
    assemble_stilde,
    lagrange_multipliers,
    objective,
    polar_project,
    stationarity,
)
from .experiment import (
    CellResult,
    ExperimentGrid,
    ExportError,
    export_results,
    run_grid,
)
from .formats import (
    load_problem,
    load_solution,
    save_problem,
    save_solution,
)
from .solver import (
    OscillationTrace,
    SolveReport,
    SolverConfig,
    StopReason,
    init_identity,
    init_spectral,
    oscillation_demo,
    solve,
    step_block,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "DEFAULT_ORTH_TOL",
    "ValidationError",
    "InternalError",
    "BlockDims",
    "OtsmProblem",
    "BlockOrthogonal",
    "StationarityReport",
    "assemble_stilde",
    "objective",
    "polar_project",
    "lagrange_multipliers",
    "stationarity",
    # solver
    "StopReason",
    "SolverConfig",
    "SolveReport",
    "OscillationTrace",
    "init_identity",
    "init_spectral",
    "step_block",
    "solve",
    "oscillation_demo",
    # certificate
    "Verdict",
    "CertificateReport",
    "certificate_matrix",
    "reduced_certificate",
    "certify",
    "dual_upper_bound",
    # builders
    "ViewData",
    "OlsData",
    "build_maxdiff",
    "build_procrustes",
    "pairwise_discrepancy",
    "build_ols",
    "ols_residual",
    "hard_example",
    "synth_procrustes",
    # experiment
    "ExperimentGrid",
    "CellResult",
    "ExportError",
    "run_grid",
    "export_results",
    # file formats
    "load_problem",
    "save_problem",
    "load_solution",
    "save_solution",
]
