"""Centered interior warm starts from first-order solutions, and the solve pipeline.

The centering construction floors a primal-dual pair away from the boundary,
then nudges each coordinate pair toward a common complementarity target with
per-coordinate moves clamped to a trust region.  The pipeline runs presolve
-> standard form -> scale -> pdhg -> centered start -> interior point, or
just one of the two solvers, under one deadline.  The warm-started interior
point makes one attempt at the basis its start names (ipm.basis_polish);
on a refusal it runs the interior point, and escalates the floor and
retries from the current iterate whenever it stalls.  Violations are
measured on the user's original model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .ipm import IpmParams, IpmState, IpmStats, basis_polish, normal_backend, run_ipm
from .lp_core import (
    GeneralLp,
    InvalidModelError,
    KktPoint,
    StandardLp,
    StandardFormMap,
    ViolationSummary,
    _restrict_xy,
    _standard_form,
    evaluate_general_point,
    restrict_point,  # noqa: F401  (perfbench/run.py traces it through this module)
    violation_summary,
)
from .mps_io import SolutionFile, make_solution_file
from .pdhg import PdhgParams, SolveStats, run_pdhg
from .status import SolveStatus
from .transform import (
    PresolveResult,
    PresolveStatus,
    ScalingInfo,
    postsolve,
    presolve,
    ruiz_equilibrate,
    unscale_point,
)


# The centering's complementarity floor, coordinate floor and trust region,
# and the factor by which each stall escalation raises the coordinate floor.
_MU_MIN = 1e-6
_ALPHA_MIN = 1e-6
_DELTA_MAX = 1e-4
_ESCALATION_FACTOR = 10.0


@dataclass
class WarmStartParams:
    max_escalations: int = 6


def mu_target(x, z) -> float:
    """Complementarity target max(x'z / n, _MU_MIN), n = len(x) = len(z)."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    if z.size != x.size or x.size < 1:
        raise InvalidModelError("x and z must have one length n >= 1")
    return max(float(x @ z) / x.size, _MU_MIN)


def center_toward_target(
    x, z, mu: float, alpha_min: float, delta_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate centering moves toward a given complementarity target.

    Coordinates are floored at alpha_min, then the smaller of each pair moves
    first, each move clamped to +- delta_max around its current value via
    min(max(mu / other, v - delta), v + delta).  A final re-floor keeps every
    output coordinate at or above alpha_min even when a clamped move dipped
    below it.
    """
    a, d = alpha_min, delta_max
    xp = np.maximum(np.asarray(x, dtype=float), a)
    zp = np.maximum(np.asarray(z, dtype=float), a)

    # z counts as the smaller of a tied pair
    x_first = xp < zp
    small, big = np.where(x_first, xp, zp), np.where(x_first, zp, xp)
    s = np.clip(mu / big, small - d, small + d)
    b = np.clip(mu / s, big - d, big + d)

    x_new = np.maximum(np.where(x_first, s, b), a)
    z_new = np.maximum(np.where(x_first, b, s), a)
    return x_new, z_new


def centered_start(pt: KktPoint, params: WarmStartParams | None = None) -> KktPoint:
    """Perturb (x, z) toward mu_target(x, z) complementarity; y is untouched.
    params is accepted from callers that pass one and read by nothing."""
    mu = mu_target(pt.x, pt.z)
    x_new, z_new = center_toward_target(pt.x, pt.z, mu, _ALPHA_MIN, _DELTA_MAX)
    return KktPoint(x_new, pt.y.copy(), z_new)


@dataclass
class WarmIpmResult:
    point: KktPoint
    stats: IpmStats
    escalations: int

    @property
    def total_iterations(self) -> int:
        """stats.iterations, the stage's one count (perfbench reads this name)."""
        return self.stats.iterations


def warm_started_ipm(
    p: StandardLp,
    start: KktPoint,
    ipm_params: IpmParams,
    ws_params: WarmStartParams,
    time_limit_s: float = math.inf,
) -> WarmIpmResult:
    """One basis polish, then the interior-point solver with stall escalation.

    While time remains, basis_polish makes its one attempt at the vertex of
    the basis the start names; an accepted vertex is the result, Optimal
    after 0 iterations.  Otherwise run_ipm steps from the start.  On a stall
    the floor alpha_min is multiplied by the escalation factor, the current
    iterate's (x, z) are re-floored, and the solve resumes from that
    iterate.  After max_escalations stalls the Stalled status stands.

    The returned stats describe the whole stage: the status, termination
    check and backend of the last run_ipm call; the iterations and history
    of every call, stalled steps included; the highest regularization rung
    of any call; the wall time since the stage began, polish included; and
    the polish verdict ("" when no attempt was made).
    """
    t0 = time.monotonic()

    def time_left() -> float:
        return max(0.0, time_limit_s - (time.monotonic() - t0))

    x, y, z = start.x, start.y, start.z
    IpmState(x, y, z).require_interior()
    polish = ""
    if time_left() > 0:
        vertex, check, polish = basis_polish(p, start, ipm_params.eps_rel)
        if vertex is not None:
            stats = IpmStats(
                SolveStatus.OPTIMAL, 0, time.monotonic() - t0, check,
                backend=normal_backend(p.m), polish=polish,
            )
            return WarmIpmResult(vertex, stats, 0)

    alpha = _ALPHA_MIN
    runs = []
    while True:
        pt, stats = run_ipm(p, ipm_params, start=IpmState(x, y, z), time_limit_s=time_left())
        runs.append(stats)
        if stats.status is not SolveStatus.STALLED or len(runs) > ws_params.max_escalations:
            break
        alpha *= _ESCALATION_FACTOR
        x = np.maximum(pt.x, alpha)
        z = np.maximum(pt.z, alpha)
        y = pt.y
    stats.iterations = sum(r.iterations for r in runs)
    stats.history = [entry for r in runs for entry in r.history]
    stats.max_reg_level = max(r.max_reg_level for r in runs)
    stats.wall_seconds = time.monotonic() - t0
    stats.polish = polish
    return WarmIpmResult(pt, stats, len(runs) - 1)


# ---------------------------------------------------------------------------
# Shared pipeline plumbing
# ---------------------------------------------------------------------------

@dataclass
class PreparedModel:
    """Everything the solvers need, plus the mappings to undo it all."""

    original: GeneralLp
    presolve_result: PresolveResult
    reduced: GeneralLp | None
    standard: StandardLp | None
    fmap: StandardFormMap | None
    solve_model: StandardLp | None
    scaling: ScalingInfo | None


def prepare_model(g: GeneralLp) -> PreparedModel:
    """presolve -> standard form -> scale."""
    pres = presolve(g)
    if pres.status is not PresolveStatus.REDUCED or pres.solved:
        return PreparedModel(g, pres, pres.model, None, None, None, None)

    p_std, fmap = _standard_form(pres.model)  # presolve validated the model it slices
    p_solve, scaling = ruiz_equilibrate(p_std)
    return PreparedModel(g, pres, pres.model, p_std, fmap, p_solve, scaling)


@dataclass
class FinishedPoint:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    violation: ViolationSummary


def finish_point(prep: PreparedModel, pt_solve: KktPoint) -> FinishedPoint:
    """Unscale, postsolve, and measure the point on the original model.

    Without a solver stage (solved by presolve, or a presolve verdict) the
    reduced point is zeros sized by the presolve stack, so the reported
    point holds the values presolve recorded before it stopped.
    """
    stack = prep.presolve_result.stack
    if prep.solve_model is not None:
        x_r, y_r = _restrict_xy(prep.fmap, unscale_point(prep.scaling, pt_solve))
    else:
        x_r, y_r = np.zeros(stack.n_reduced), np.zeros(stack.m_reduced)
    # postsolve reads x and y only and forms z on the original model
    restored = postsolve(stack, KktPoint(x_r, y_r, np.zeros_like(x_r)), prep.original)
    viol = evaluate_general_point(prep.original, restored.x, restored.y)
    return FinishedPoint(restored.x, restored.y, restored.z, viol)


@dataclass
class HybridStats:
    """What solve reports beside its SolutionFile, which holds the status,
    iteration counts, escalations, wall time and original-model violation.
    scaled_violation, None when no solver ran, is the summary the last solver
    computed for its point on the scaled model (PDHG's scoring, run_ipm's
    last residuals); only a polished vertex is measured again."""

    scaled_violation: ViolationSummary | None
    pdhg_stats: SolveStats | None
    ipm_stats: IpmStats | None


# method name -> (its stages: "pdhg" only, "ipm" from the cold start, or
# "hybrid" = pdhg -> centered start -> warm-started ipm, which begins with a
# basis polish; the first stage's eps_rel, None keeping the solver's default)
METHODS = {
    "pdhg-1e4": ("pdhg", 1e-4),
    "pdhg-1e6": ("pdhg", 1e-6),
    "pdhg-1e8": ("pdhg", 1e-8),
    "ipm-cold": ("ipm", None),
    "hybrid": ("hybrid", None),
}


def solve(
    g: GeneralLp,
    method: str,
    /,
    *,
    eps_rel: float | None = None,
    time_limit_s: float = 10_000.0,
) -> tuple[SolutionFile, HybridStats]:
    """Run one method through the shared pipeline, measured on the original model.

    The library's one way to run a solve.  method is a METHODS name.  Its
    first stage stops at eps_rel if given, else at the method's tolerance,
    else at the solver's default; the hybrid's interior point stops at its
    default.  One deadline, time_limit_s after the call starts, covers every
    stage, presolve included; each solver stage gets what is left of it.
    A failing stage ends the solve with a "<stage>: <status>" message and
    the best point found so far.  A presolve verdict is reported as
    Infeasible or Unbounded with a "presolve: ..." message; it and a model
    solved by presolve skip the solvers and leave through the same finish
    as every other outcome.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not time_limit_s >= 0:
        raise ValueError("time_limit_s must be nonnegative")
    stages, eps = METHODS[method]
    if eps_rel is not None:
        eps = eps_rel
    first = {} if eps is None else {"eps_rel": eps}
    ipm_params = IpmParams(**first) if stages == "ipm" else IpmParams()
    t0 = time.monotonic()

    def time_left() -> float:
        return max(0.0, time_limit_s - (time.monotonic() - t0))

    prep = prepare_model(g)
    pres = prep.presolve_result
    pt = KktPoint(np.zeros(0), np.zeros(0), np.zeros(0))
    status = SolveStatus.OPTIMAL
    message = "solved by presolve"
    if pres.status is not PresolveStatus.REDUCED:
        # both enums spell Infeasible and Unbounded the same way
        status = SolveStatus(pres.status.value)
        message = f"presolve: {pres.message}"
    pdhg_stats = ipm_stats = scaled_violation = None
    escalations = 0
    if prep.solve_model is not None:
        if stages != "ipm":
            params = PdhgParams(**first, time_limit_s=time_left())
            pt, pdhg_stats = run_pdhg(prep.solve_model, params)
            status, stage = pdhg_stats.status, "pdhg"
        if stages == "ipm":
            pt, ipm_stats = run_ipm(prep.solve_model, ipm_params, time_limit_s=time_left())
        elif stages == "hybrid" and status is SolveStatus.OPTIMAL:
            warm = centered_start(pt)
            result = warm_started_ipm(
                prep.solve_model, warm, ipm_params, WarmStartParams(), time_left()
            )
            pt, ipm_stats, escalations = result.point, result.stats, result.escalations
        if ipm_stats is not None:
            status, stage = ipm_stats.status, "ipm"
        message = "" if status is SolveStatus.OPTIMAL else f"{stage}: {status.value}"
        last = ipm_stats if ipm_stats is not None else pdhg_stats
        scaled_violation = last.violation or violation_summary(prep.solve_model, pt)

    finished = finish_point(prep, pt)
    sol = make_solution_file(
        g, status, finished.x, finished.y, finished.z,
        method=method, wall_seconds=time.monotonic() - t0,
        pdhg_iterations=pdhg_stats.iterations if pdhg_stats else 0,
        ipm_iterations=ipm_stats.iterations if ipm_stats else 0,
        escalations=escalations,
        violation=finished.violation,
        message=message,
    )
    return sol, HybridStats(scaled_violation, pdhg_stats, ipm_stats)
