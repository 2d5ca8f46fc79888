"""Certification of stationary points of one-hidden-layer ReLU-like networks.

Given network parameters and a training set, the checker decides whether the
point is a local minimum of the empirical risk, a second-order stationary
point, or neither -- in which case it returns a verified strict descent
direction. Nondifferentiable points (training inputs exactly on a hidden
unit's activation boundary) are handled exactly, via per-unit box QPs,
extreme-ray tests, and cone-constrained quadratic programs.
"""

from .checker import CheckConfig, Verdict, sosp_check, validate_descent
from .errors import (
    ConstructionFailedError,
    DegenerateGeometryError,
    GeneralPositionViolationError,
    InternalInconsistencyError,
    NoDecreaseFoundError,
    NonFiniteError,
    NonPSDHessianError,
    NonSymmetricError,
    NotBoundaryError,
    PatternBudgetExceededError,
    RankDeficientConstraintsError,
    RankDeficientError,
    ShapeMismatchError,
    SospcheckError,
    SubsetBudgetExceededError,
)
from .first_order import (
    BoundaryClassification,
    IncreasingCheckResult,
    SubdiffQPResult,
    classify_boundary,
    extreme_ray,
    increasing_check,
    inner_layer_fosp_smooth,
    outer_layer_fosp,
    solve_subdiff_qp,
)
from .harness import (
    AdamConfig,
    RunReport,
    StatThresholds,
    TrendConfig,
    adam_train,
    boundary_statistics,
    construct_boundary_fosp,
    construct_indefinite_fosp,
    construct_smooth_fosp,
    generate_dataset,
    init_params,
    run_boundary_trend,
)
from .network import (
    RELU,
    ActivationSpec,
    BoundaryAnalysis,
    Dataset,
    DerivativeBundle,
    LossModel,
    NetworkParams,
    Perturbation,
    SquaredLoss,
    boundary_analysis,
    empirical_risk,
    expansion_terms,
    forward,
    per_sample_derivatives,
    scaling_direction,
    validate_general_position,
)
from .second_order import (
    ConeQP,
    CopositivityResult,
    ParetoEigenpair,
    QPClassification,
    assemble_so_qp,
    classify_psd_block,
    copositivity_classify,
    icqp_frame,
    icqp_reduce,
    pareto_spectrum,
    pattern_objective,
    projected_spectrum_oracle,
    solve_ecqp_pgd,
    solve_icqp,
)

__version__ = "0.1.0"
