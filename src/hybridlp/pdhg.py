"""Reflected restarted Halpern PDHG for standard-form LPs.

The PDHG operator T is a projected primal gradient step and a dual step on
the extrapolated primal point, with constant steps from an operator-norm
bound.  The iterates follow the reflected Halpern iteration anchored at the
last restart (Lu & Yang, "Restarted Halpern PDHG for linear programming",
arXiv:2407.16144), with PDLP's restart rules on the max-violation score and
its smoothed primal weight (Applegate et al., "Practical large-scale linear
programming using primal-dual hybrid gradient", arXiv:2106.04756).
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

_WEIGHT_CLIP = (1e-4, 1e4)  # bounds on the starting primal weight
# Restart when the score r <= SUFFICIENT r0 (r0: the score at the first check
# after the last restart), when r <= NECESSARY r0 and r grew since the last
# check, or when the restart is ARTIFICIAL times all iterations old.
_RESTART_SUFFICIENT = 0.2
_RESTART_NECESSARY = 0.8
_RESTART_ARTIFICIAL = 0.36
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
    """Mutable iteration state: the point T is applied to, steps, counters,
    and a scratch vector of length n + m."""

    x: np.ndarray
    y: np.ndarray
    tau: float
    sigma: float
    omega: float
    iterations: int
    restarts: int
    work: np.ndarray


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
    """The zero point with unit primal weight."""
    opnorm = estimate_opnorm(p.A, seed=seed)
    step = 1.0 / (1.05 * opnorm)
    return PdhgState(
        x=np.zeros(p.n),
        y=np.zeros(p.m),
        tau=step,
        sigma=step,
        omega=1.0,
        iterations=0,
        restarts=0,
        work=np.empty(p.n + p.m),
    )


def pdhg_step(state: PdhgState, p: StandardLp) -> np.ndarray:
    """T(x, y), the PDHG operator at the state's point:

        x+ = max(0, x - (tau / omega) (c - A'y))
        y+ = y + (sigma omega) (b - A (2 x+ - x))

    Each operation is evaluated in this order, in the state's work vector.
    T is returned as a fresh array of length n + m whose halves become
    state.x and state.y; nothing writes it later, so scored points wrap it
    without a copy.
    """
    n = p.n
    gx, gy = state.work[:n], state.work[n:]
    t = np.empty(n + p.m)
    x_new, y_new = t[:n], t[n:]
    csr_matvec(p.A_T, state.y, gx)
    np.subtract(p.c, gx, out=gx)
    np.multiply(state.tau / state.omega, gx, out=gx)
    np.subtract(state.x, gx, out=gx)
    np.maximum(0.0, gx, out=x_new)
    np.multiply(2.0, x_new, out=gx)
    np.subtract(gx, state.x, out=gx)
    csr_matvec(p.A, gx, gy)
    np.subtract(p.b, gy, out=gy)
    np.multiply(state.sigma * state.omega, gy, out=gy)
    np.add(state.y, gy, out=y_new)
    state.x, state.y = x_new, y_new
    state.iterations += 1
    return t


def _finite(state: PdhgState) -> bool:
    return bool(np.isfinite(state.x).all() and np.isfinite(state.y).all())


def _score(p: StandardLp, x: np.ndarray, y: np.ndarray, eps_rel: float):
    """The point, its violation summary and termination check."""
    z = extract_reduced_costs(p, y)
    pt = KktPoint(x, y, z)
    res = residuals(p, pt)
    return pt, summary_from_residuals(res), termination_from_residuals(p, res, eps_rel)


def run_pdhg(
    p: StandardLp, params: PdhgParams | None = None, seed: int = 0
) -> tuple[KktPoint, SolveStats]:
    """Iterate to the requested relative tolerance by restarted Halpern PDHG.

    Each iteration sets z <- z0 + (k+1)/(k+2) (2 T(z) - z - z0), with z0 the
    anchor (the point of the last restart) and k the iterations since it.
    Every check_every iterations T(z), never z, is scored and returned if it
    passes; its max violation drives the _RESTART_* rules.  A restart sets
    z = z0 = T(z), k = 0, and moves the primal weight omega, which starts at
    ||c|| / ||b||, halfway in log scale towards ||dy|| / ||dx||, the
    anchor's movement.  On failure statuses the best point scored so far is
    returned.  Non-finite iterates are detected at the check points, so
    NumericalFailure reports the iteration count of the first check (or
    limit) after the overflow.
    """
    if params is None:
        params = PdhgParams()
    if p.m == 0 or p.n == 0:
        raise InvalidModelError("pdhg requires a nonempty model")
    t0 = time.monotonic()
    state = initial_state(p, params, seed=seed)
    c_norm, b_norm = np.linalg.norm(p.c), np.linalg.norm(p.b)
    if c_norm > 0.0 and b_norm > 0.0:
        state.omega = float(np.clip(c_norm / b_norm, *_WEIGHT_CLIP))
    n, work = p.n, state.work

    best_pt, best_summary, best_term = _score(p, state.x, state.y, params.eps_rel)
    z = np.concatenate((state.x, state.y))  # fresh: best_pt wraps the start
    zx, zy = z[:n], z[n:]  # views: z is only ever written in place
    anchor = z.copy()
    since_restart = 0
    r0 = r_prev = np.inf
    status = SolveStatus.ITERATION_LIMIT

    while state.iterations < params.max_kkt_passes:
        if time.monotonic() - t0 > params.time_limit_s:
            status = SolveStatus.TIME_LIMIT
            break

        state.x, state.y = zx, zy
        t = pdhg_step(state, p)
        since_restart += 1

        if state.iterations % params.check_every == 0:
            if not _finite(state):
                break
            pt, summ, term = _score(p, state.x, state.y, params.eps_rel)
            r = summ.max_violation
            if term.ok or r < best_summary.max_violation:
                best_pt, best_summary, best_term = pt, summ, term
            if term.ok:
                status = SolveStatus.OPTIMAL
                break
            r0 = r if r0 == np.inf else r0
            restart = (
                r <= _RESTART_SUFFICIENT * r0
                or (r <= _RESTART_NECESSARY * r0 and r > r_prev)
                or since_restart >= _RESTART_ARTIFICIAL * state.iterations
            )
            r_prev = r
            if restart:
                np.subtract(t, anchor, out=work)
                dx, dy = np.linalg.norm(work[:n]), np.linalg.norm(work[n:])
                if dx > 0.0 and dy > 0.0:
                    log_w = 0.5 * np.log(dy / dx) + 0.5 * np.log(state.omega)
                    state.omega = float(np.exp(log_w))
                anchor[:] = t
                z[:] = t
                since_restart, r0 = 0, np.inf
                state.restarts += 1
                continue

        # z <- z0 + (k+1)/(k+2) (2 T(z) - z - z0), with k = since_restart - 1
        np.multiply(2.0, t, out=work)
        np.subtract(work, z, out=work)
        np.subtract(work, anchor, out=work)
        np.multiply(since_restart / (since_restart + 1.0), work, out=work)
        np.add(anchor, work, out=z)

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
