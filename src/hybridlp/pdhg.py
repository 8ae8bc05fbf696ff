"""Reflected restarted Halpern PDHG for standard-form LPs.

The PDHG operator T is a projected primal gradient step and a dual step on
the extrapolated primal point, with constant steps from an operator-norm
bound.  The iterates follow the reflected Halpern iteration anchored at the
last restart (Lu & Yang, "Restarted Halpern PDHG for linear programming",
arXiv:2407.16144), with PDLP's restart rules on the max-violation score and
its smoothed primal weight (Applegate et al., "Practical large-scale linear
programming using primal-dual hybrid gradient", arXiv:2106.04756).

An iteration costs two sparse products and a few vector operations, so at
desk scale the interpreter's per-call overhead, not the flops, sets its
time.  The steps are therefore folded into copies of A' and A whose values
are pre-scaled by tau / omega and -2 sigma omega, and scipy's CSR kernel
adds each product into a vector that already holds the rest of the step.
Between checks an iteration forms only the reflected point 2 T(z) - z,
never T(z) itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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

# out += M v for a CSR matrix M: _csr_matvec_add(rows, cols, indptr, indices,
# data, v, out).  scipy's kernel sums each row from the value already in out.
_csr_matvec_add = _sparsetools.csr_matvec

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
class ScaledOperator:
    """The steps folded into the operator: A' with values scaled by
    tau / omega, A by -2 sigma omega, and q = (-(tau / omega) c,
    2 sigma omega b), for steps = (tau, sigma, omega).

    at and a are the leading arguments of _csr_matvec_add; the scaled
    matrices share indptr and indices with p.A_T and p.A.
    """

    steps: tuple
    at: tuple
    a: tuple
    q: np.ndarray


@dataclass
class PdhgState:
    """Mutable iteration state: the point T is applied to, steps, counters,
    a work vector of length n + m that pdhg_step leaves holding the
    reflected point 2 T(x, y) - (x, y), and the operator scaled for the
    steps it was last built for."""

    x: np.ndarray
    y: np.ndarray
    tau: float
    sigma: float
    omega: float
    iterations: int
    restarts: int
    work: np.ndarray
    scaled: ScaledOperator | None = None


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
    A = sp.csr_matrix(A, dtype=float)
    At = A.T.tocsr()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    av, w = np.empty(m), np.empty(n)
    lam = 0.0
    for _ in range(_OPNORM_MAX_ITERS):
        csr_matvec(At, csr_matvec(A, v, av), w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            break
        new_lam = np.sqrt(norm_w)
        np.divide(w, norm_w, out=v)
        if lam > 0 and abs(new_lam - lam) <= _OPNORM_TOL * new_lam:
            lam = new_lam
            break
        lam = new_lam
    # safeguard multiply: one more pass tightens the estimate from below
    csr_matvec(At, csr_matvec(A, v, av), w)
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


def _scaled_operator(state: PdhgState, p: StandardLp) -> ScaledOperator:
    """The state's scaled operator, rebuilt if tau, sigma or omega changed
    since it was built."""
    steps = (state.tau, state.sigma, state.omega)
    if state.scaled is None or state.scaled.steps != steps:
        s = state.tau / state.omega
        g = 2.0 * state.sigma * state.omega
        At, A = p.A_T, p.A
        state.scaled = ScaledOperator(
            steps=steps,
            at=(p.n, p.m, At.indptr, At.indices, s * At.data),
            a=(p.m, p.n, A.indptr, A.indices, -g * A.data),
            q=np.concatenate((-s * p.c, g * p.b)),
        )
    return state.scaled


def pdhg_step(state: PdhgState, p: StandardLp) -> np.ndarray:
    """T(x, y), the PDHG operator at the state's point:

        x+ = max(0, x - (tau / omega) (c - A'y))
        y+ = y + (sigma omega) (b - A (2 x+ - x))

    evaluated through the state's scaled operator, with q = (qx, qy):

        x+ = max(0, (x + qx) + (tau / omega) A'y)
        w  = (2 x+ - x, (y + qy) - 2 sigma omega A (2 x+ - x))
        y+ = (y + w_y) / 2

    where each product is summed into the vector before it.  w, the
    reflected point 2 T - (x, y) that run_pdhg's Halpern update takes, is
    left in the state's work vector.  T is returned as a fresh array of
    length n + m whose halves become state.x and state.y; nothing writes it
    later, so scored points wrap it without a copy.
    """
    op = _scaled_operator(state, p)
    n = p.n
    wx, wy = state.work[:n], state.work[n:]
    t = np.empty(n + p.m)
    x_new, y_new = t[:n], t[n:]
    np.add(state.x, op.q[:n], out=x_new)
    _csr_matvec_add(*op.at, state.y, x_new)
    np.maximum(0.0, x_new, out=x_new)
    np.multiply(2.0, x_new, out=wx)
    np.subtract(wx, state.x, out=wx)
    np.add(state.y, op.q[n:], out=wy)
    _csr_matvec_add(*op.a, wx, wy)
    np.add(state.y, wy, out=y_new)
    np.multiply(0.5, y_new, out=y_new)
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


def _halpern_update(z, anchor, w, j):
    """z <- z0 + j/(j+1) (w - z0) for the reflected point w = 2 T(z) - z,
    with z0 the anchor and j the iterations since it, this one included;
    w is overwritten."""
    np.subtract(w, anchor, out=w)
    np.multiply(j / (j + 1.0), w, out=w)
    np.add(anchor, w, out=z)


def run_pdhg(
    p: StandardLp, params: PdhgParams | None = None, seed: int = 0
) -> tuple[KktPoint, SolveStats]:
    """Iterate to the requested relative tolerance by restarted Halpern PDHG.

    Each iteration sets z <- z0 + (k+1)/(k+2) (2 T(z) - z - z0), with z0 the
    anchor (the point of the last restart) and k the iterations since it.
    Between checks the reflected point w = 2 T(z) - z comes from the fused
    kernel in the loop below, which never forms T: w = z + q, then
    w_x += (tau / omega) A'z_y, w_x = 2 max(0, w_x) - z_x and
    w_y += -2 sigma omega A w_x, all through the state's scaled operator,
    which is rebuilt only when a restart moves omega.
    Every check_every iterations pdhg_step forms T(z) as a fresh array (and
    the same w); T(z), never z, is scored and returned if it passes, and its
    max violation drives the _RESTART_* rules.  A restart sets
    z = z0 = T(z), k = 0, and moves the primal weight omega, which starts at
    ||c|| / ||b||, halfway in log scale towards ||dy|| / ||dx||, the
    anchor's movement.  On failure statuses the best point scored so far is
    returned.  The time limit is tested once per block of check_every
    iterations, before the block starts, so a run may overrun it by one
    block.  Non-finite iterates are detected at the check points, so
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
    n, every, limit = p.n, params.check_every, params.max_kkt_passes

    best_pt, best_summary, best_term = _score(p, state.x, state.y, params.eps_rel)
    z = np.concatenate((state.x, state.y))  # fresh: best_pt wraps the start
    zx, zy = z[:n], z[n:]  # views: z is only ever written in place
    w = state.work
    wx, wy = w[:n], w[n:]
    anchor = z.copy()
    since_restart = 0
    r0 = r_prev = np.inf
    status = SolveStatus.ITERATION_LIMIT

    while state.iterations < limit:
        if time.monotonic() - t0 > params.time_limit_s:
            status = SolveStatus.TIME_LIMIT
            break
        state.x, state.y = zx, zy
        op = _scaled_operator(state, p)
        q, at, a = op.q, op.at, op.a
        # the iterations before the next check, or all that the limit leaves
        between = min((state.iterations // every + 1) * every - 1, limit) - state.iterations
        for j in range(since_restart + 1, since_restart + 1 + between):
            np.add(z, q, out=w)
            _csr_matvec_add(*at, zy, wx)
            np.maximum(0.0, wx, out=wx)
            np.multiply(2.0, wx, out=wx)
            np.subtract(wx, zx, out=wx)
            _csr_matvec_add(*a, wx, wy)
            _halpern_update(z, anchor, w, j)
        since_restart += between
        state.iterations += between
        if state.iterations == limit:
            break

        t = pdhg_step(state, p)
        since_restart += 1
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
            np.subtract(t, anchor, out=w)
            dx, dy = np.linalg.norm(wx), np.linalg.norm(wy)
            if dx > 0.0 and dy > 0.0:
                log_w = 0.5 * np.log(dy / dx) + 0.5 * np.log(state.omega)
                state.omega = float(np.exp(log_w))
            anchor[:] = t
            z[:] = t
            since_restart, r0 = 0, np.inf
            state.restarts += 1
        else:
            _halpern_update(z, anchor, w, since_restart)

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
