"""Restarted primal-dual hybrid gradient for standard-form LPs.

The saddle-point iteration alternates a projected primal gradient step and a
dual step on the extrapolated primal iterate, with constant step sizes from
an operator-norm bound, uniform iterate averaging since the last restart,
and adaptive restarts driven by the max-violation score of the better of
the current and averaged iterates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .lp_core import (
    InvalidModelError,
    KktPoint,
    StandardLp,
    TerminationCheck,
    csr_matvec,
    residuals,
    summary_from_residuals,
    termination_from_residuals,
)
from .status import SolveStatus

_WEIGHT_CLIP = (1e-4, 1e4)
_RESTART_BETA = 0.2  # restart below this fraction of the last restart's score
_PRIMAL_WEIGHT_INIT = 1.0
# power iteration stops once the estimate moves by at most this relative amount
_OPNORM_TOL = 1e-4
_OPNORM_MAX_ITERS = 100


@dataclass
class PdhgParams:
    eps_rel: float = 1e-4
    max_kkt_passes: int = 200_000
    time_limit_s: float = 10_000.0
    check_every: int = 64

    def __post_init__(self):
        if self.eps_rel <= 0:
            raise ValueError("eps_rel must be positive")
        if self.check_every < 1:
            raise ValueError("check_every must be at least 1")


@dataclass
class PdhgState:
    """Mutable iteration state: iterates, averages, steps, restart score.

    work_n and work_m are scratch vectors of length n and m for pdhg_step.
    """

    x: np.ndarray
    y: np.ndarray
    avg_x: np.ndarray
    avg_y: np.ndarray
    avg_weight: float
    tau: float
    sigma: float
    omega: float
    iterations: int
    restarts: int
    restart_score: float
    work_n: np.ndarray
    work_m: np.ndarray


@dataclass
class SolveStats:
    status: SolveStatus
    iterations: int
    restarts: int
    wall_seconds: float
    termination: TerminationCheck | None
    max_violation: float


def estimate_opnorm(A, seed: int = 0) -> float:
    """Spectral-norm estimate by power iteration on A'A.

    Returns lam with lam <= ||A||_2 <= 1.05 lam on the matrices this solver
    meets; callers derive safe step sizes from 1/(1.05 lam).
    """
    m, n = A.shape
    if m == 0 or n == 0 or A.nnz == 0:
        raise InvalidModelError("cannot estimate the norm of an empty matrix")
    At = A.T.tocsr()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_OPNORM_MAX_ITERS):
        w = At @ (A @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            break
        new_lam = np.sqrt(norm_w)
        v = w / norm_w
        if lam > 0 and abs(new_lam - lam) <= _OPNORM_TOL * new_lam:
            lam = new_lam
            break
        lam = new_lam
    # safeguard multiply: one more pass tightens the estimate from below
    w = At @ (A @ v)
    norm_w = np.linalg.norm(w)
    if norm_w > 0:
        lam = max(lam, float(np.sqrt(norm_w)))
    return float(lam)


def extract_reduced_costs(p: StandardLp, y: np.ndarray) -> np.ndarray:
    """z = max(0, c - A'y); the clipped negative part shows up in r_d."""
    return np.maximum(0.0, p.c - p.at_y(np.asarray(y, dtype=float)))


def initial_state(p: StandardLp, params: PdhgParams, seed: int = 0) -> PdhgState:
    """The zero point; restart_score stays inf until run_pdhg scores it."""
    opnorm = estimate_opnorm(p.A, seed=seed)
    step = 1.0 / (1.05 * opnorm)
    return PdhgState(
        x=np.zeros(p.n),
        y=np.zeros(p.m),
        avg_x=np.zeros(p.n),
        avg_y=np.zeros(p.m),
        avg_weight=0.0,
        tau=step,
        sigma=step,
        omega=_PRIMAL_WEIGHT_INIT,
        iterations=0,
        restarts=0,
        restart_score=np.inf,
        work_n=np.empty(p.n),
        work_m=np.empty(p.m),
    )


def pdhg_step(state: PdhgState, p: StandardLp) -> PdhgState:
    """One primal-dual step; updates the running averages with unit weight.

        x+ = max(0, x - (tau / omega) (c - A'y))
        y+ = y + (sigma omega) (b - A (2 x+ - x))

    Each operation is evaluated in this order, in the state's work vectors.
    x+ and y+ are new arrays, never updated in place, because scored points
    wrap state.x and state.y without a copy.
    """
    gx, gy = state.work_n, state.work_m
    csr_matvec(p.A_T, state.y, gx)
    np.subtract(p.c, gx, out=gx)
    np.multiply(state.tau / state.omega, gx, out=gx)
    np.subtract(state.x, gx, out=gx)
    x_new = np.maximum(0.0, gx)
    np.multiply(2.0, x_new, out=gx)
    np.subtract(gx, state.x, out=gx)
    csr_matvec(p.A, gx, gy)
    np.subtract(p.b, gy, out=gy)
    np.multiply(state.sigma * state.omega, gy, out=gy)
    y_new = state.y + gy
    state.x = x_new
    state.y = y_new
    w = state.avg_weight + 1.0
    np.subtract(x_new, state.avg_x, out=gx)
    gx /= w
    state.avg_x += gx
    np.subtract(y_new, state.avg_y, out=gy)
    gy /= w
    state.avg_y += gy
    state.avg_weight = w
    state.iterations += 1
    return state


def _finite(state: PdhgState) -> bool:
    return bool(np.isfinite(state.x).all() and np.isfinite(state.y).all())


def _score(p: StandardLp, x: np.ndarray, y: np.ndarray, eps_rel: float):
    """The point, its residuals, violation summary and termination check."""
    z = extract_reduced_costs(p, y)
    pt = KktPoint(x, y, z)
    res = residuals(p, pt)
    return pt, res, summary_from_residuals(res), termination_from_residuals(p, res, eps_rel)


def run_pdhg(
    p: StandardLp, params: PdhgParams | None = None, seed: int = 0
) -> tuple[KktPoint, SolveStats]:
    """Iterate to the requested relative tolerance, restarting adaptively.

    Every check_every iterations both the current and the averaged iterate
    are scored; a passing iterate is returned immediately, otherwise the
    better one becomes the restart target once its score beats
    _RESTART_BETA times the score at the last restart.  On failure statuses
    the best point seen so far is returned.  Non-finite iterates are
    detected at the check points, so NumericalFailure reports the iteration
    count of the first check (or limit) after the overflow.
    """
    if params is None:
        params = PdhgParams()
    if p.m == 0 or p.n == 0:
        raise InvalidModelError("pdhg requires a nonempty model")
    t0 = time.monotonic()
    state = initial_state(p, params, seed=seed)

    best_pt, _, best_summary, best_term = _score(p, state.x, state.y, params.eps_rel)
    state.restart_score = best_summary.max_violation
    status = SolveStatus.ITERATION_LIMIT

    while True:
        if state.iterations >= params.max_kkt_passes:
            status = SolveStatus.ITERATION_LIMIT
            break
        if time.monotonic() - t0 > params.time_limit_s:
            status = SolveStatus.TIME_LIMIT
            break

        pdhg_step(state, p)

        if state.iterations % params.check_every != 0:
            continue
        if not _finite(state):
            break

        # current first: min keeps the first of equal scores
        scored = [_score(p, x, y, params.eps_rel)
                  for x, y in ((state.x, state.y), (state.avg_x, state.avg_y))]
        passing = [sc for sc in scored if sc[3].ok]
        if passing:
            pt, _, summ, term = min(passing, key=lambda sc: sc[2].max_violation)
            stats = SolveStats(
                status=SolveStatus.OPTIMAL,
                iterations=state.iterations,
                restarts=state.restarts,
                wall_seconds=time.monotonic() - t0,
                termination=term,
                max_violation=summ.max_violation,
            )
            return pt, stats

        cand_pt, cand_res, cand_sum, cand_term = min(scored, key=lambda sc: sc[2].max_violation)
        if cand_sum.max_violation < best_summary.max_violation:
            # a copy: the averaged iterate is updated in place by pdhg_step
            best_pt, best_summary, best_term = cand_pt.copy(), cand_sum, cand_term

        if cand_sum.max_violation <= _RESTART_BETA * state.restart_score:
            state.x = cand_pt.x.copy()
            state.y = cand_pt.y.copy()
            state.avg_x = cand_pt.x.copy()
            state.avg_y = cand_pt.y.copy()
            state.avg_weight = 0.0
            rp = float(np.linalg.norm(cand_res.r_p))
            rd = float(np.linalg.norm(cand_res.r_d))
            if rp > 0.0 and rd > 0.0:
                state.omega = float(np.clip(rp / rd, *_WEIGHT_CLIP))
            state.restart_score = cand_sum.max_violation
            state.restarts += 1

    if not _finite(state):
        status = SolveStatus.NUMERICAL_FAILURE
    stats = SolveStats(
        status=status,
        iterations=state.iterations,
        restarts=state.restarts,
        wall_seconds=time.monotonic() - t0,
        termination=best_term,
        max_violation=best_summary.max_violation,
    )
    return best_pt, stats
