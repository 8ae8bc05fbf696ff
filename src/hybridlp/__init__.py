"""hybridlp: LP solving by restarted PDHG with warm-started interior-point refinement."""

from .lp_core import (
    EQ,
    GE,
    LE,
    GeneralLp,
    InvalidModelError,
    KktPoint,
    Residuals,
    StandardFormMap,
    StandardLp,
    TerminationCheck,
    ViolationSummary,
    check_relative_termination,
    evaluate_general_point,
    residuals,
    restrict_point,
    to_standard_form,
    violation_summary,
)
from .mps_io import MpsParseError, SolutionFile, parse_mps, parse_solution, write_solution
from .transform import (
    PresolveResult,
    PresolveStack,
    PresolveStatus,
    ScalingInfo,
    postsolve,
    presolve,
    ruiz_equilibrate,
    scale_point,
    unscale_point,
)
from .pdhg import PdhgParams, PdhgState, SolveStats, estimate_opnorm, pdhg_step, run_pdhg
from .ipm import (
    IpmParams,
    IpmState,
    IpmStats,
    NumericalFailure,
    cold_start_point,
    predictor_corrector_iteration,
    run_ipm,
)
from .warmstart import (
    HybridStats,
    WarmStartParams,
    centered_start,
    mu_target,
    solve,
    warm_started_ipm,
)
from .status import SolveStatus

__version__ = "0.1.0"

__all__ = [
    "EQ", "GE", "LE",
    "GeneralLp", "StandardLp", "StandardFormMap", "KktPoint", "Residuals",
    "TerminationCheck", "ViolationSummary", "InvalidModelError",
    "to_standard_form", "residuals", "check_relative_termination",
    "violation_summary", "restrict_point", "evaluate_general_point",
    "MpsParseError", "SolutionFile", "parse_mps", "parse_solution", "write_solution",
    "PresolveResult", "PresolveStack", "PresolveStatus", "ScalingInfo",
    "presolve", "postsolve", "ruiz_equilibrate", "scale_point", "unscale_point",
    "PdhgParams", "PdhgState", "SolveStats", "estimate_opnorm", "pdhg_step", "run_pdhg",
    "IpmParams", "IpmState", "IpmStats", "NumericalFailure",
    "cold_start_point", "predictor_corrector_iteration", "run_ipm",
    "WarmStartParams", "HybridStats", "mu_target", "centered_start",
    "warm_started_ipm", "solve",
    "SolveStatus",
]
