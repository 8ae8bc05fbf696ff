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
time.  One kernel, _iterate, therefore runs every iteration: one Python call
per block of iterations between checks, each in place on A's CSR arrays with
two copies of its values, pre-scaled by -2 tau / omega and -2 sigma omega;
scipy's CSC and CSR kernels add A'v and A v into vectors holding the rest.
An iteration is the two products and five array passes, with no Python
float among their operands: it keeps the reflected point 2 T(z) - z negated,
using 2 max(0, v) - z_x = max(-z_x, 2 v - z_x), and forms T(z) itself only
at a check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from .lp_core import (
    InvalidModelError,
    KktPoint,
    StandardLp,
    TerminationCheck,
    ViolationSummary,
    csr_matvec,
    csr_rmatvec,
    residuals,
    summary_from_residuals,
    termination_from_residuals,
)
from .status import SolveStatus

# out += M v for a CSR matrix M: _csr_matvec_add(rows, cols, indptr, indices,
# data, v, out), and out += M'v: _csc_matvec_add(cols, rows, ...) on the same
# arrays.  scipy's kernels sum each entry of out from the value already there.
_csr_matvec_add = _sparsetools.csr_matvec
_csc_matvec_add = _sparsetools.csc_matvec

_WEIGHT_MIN, _WEIGHT_MAX = 1e-4, 1e4  # bounds on the primal weight
# Restart when the score r <= SUFFICIENT r0 (r0: the score at the first check
# after the last restart), when r <= NECESSARY r0 and r grew since the last
# check, or when the restart is ARTIFICIAL times all iterations old.
_RESTART_SUFFICIENT = 0.2
_RESTART_NECESSARY = 0.8
_RESTART_ARTIFICIAL = 0.36
# power iteration stops once the estimate moves by at most this relative amount
_OPNORM_TOL = 1e-4
_OPNORM_MAX_ITERS = 100
# PDLP's check interval: iterations per block, the last of them scored, and
# the blocks a run may take (200,000 iterations).
_CHECK_EVERY = 64
_MAX_CHECKS = 3125


@dataclass
class PdhgParams:
    eps_rel: float = 1e-4
    time_limit_s: float = 10_000.0

    def __post_init__(self):
        if not self.eps_rel > 0:
            raise ValueError("eps_rel must be positive")
        if not self.time_limit_s >= 0:
            raise ValueError("time_limit_s must be nonnegative")


@dataclass
class PdhgState:
    """A point that pdhg_step applies T to, its steps and iteration count."""

    x: np.ndarray
    y: np.ndarray
    tau: float
    sigma: float
    omega: float
    iterations: int


@dataclass
class SolveStats:
    status: SolveStatus
    iterations: int
    restarts: int
    wall_seconds: float
    termination: TerminationCheck | None
    violation: ViolationSummary  # of the returned point, as _score found it

    @property
    def max_violation(self) -> float:
        return self.violation.max_violation


def estimate_opnorm(A, seed: int = 0) -> float:
    """Spectral-norm estimate by power iteration on A'A.

    Returns lam with lam <= ||A||_2 <= 1.05 lam on the matrices this solver
    meets; callers derive safe step sizes from 1/(1.05 lam).  A sparse A is
    read as CSR, without a copy when it is float64 CSR; each product is
    lp_core's csr_matvec or csr_rmatvec into a reused buffer, and the norm
    sqrt(w @ w) is np.linalg.norm's own arithmetic.
    """
    m, n = A.shape
    if m == 0 or n == 0 or A.nnz == 0:
        raise InvalidModelError("cannot estimate the norm of an empty matrix")
    A = A.tocsr().astype(float, copy=False)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= math.sqrt(v @ v)
    av, w = np.empty(m), np.empty(n)

    def norm_at_a(v):  # ||A'A v||, leaving A'A v in w
        csr_rmatvec(A, csr_matvec(A, v, av), w)
        return math.sqrt(w @ w)

    lam = 0.0
    for _ in range(_OPNORM_MAX_ITERS):
        norm_w = norm_at_a(v)
        if norm_w == 0.0:
            break
        new_lam = math.sqrt(norm_w)
        np.divide(w, norm_w, out=v)
        if lam > 0 and abs(new_lam - lam) <= _OPNORM_TOL * new_lam:
            lam = new_lam
            break
        lam = new_lam
    # safeguard multiply: one more pass tightens the estimate from below
    norm_w = norm_at_a(v)
    if norm_w > 0:
        lam = max(lam, math.sqrt(norm_w))
    return lam


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
    )


def _operator(p: StandardLp, tau: float, sigma: float, omega: float):
    """What _iterate runs on: A's shape, indptr and indices, its values
    scaled by -2 tau / omega and by -2 sigma omega, and nq = (2 (tau / omega)
    c, -2 sigma omega b)."""
    s, g = 2.0 * (tau / omega), 2.0 * sigma * omega
    A, nq = p.A, np.concatenate((s * p.c, -g * p.b))
    return p.n, p.m, A.indptr, A.indices, -s * A.data, -g * A.data, nq


def _iterate(op, zs, ws, anchor, t, k, count):
    """Run count reflected Halpern iterations on z in place, with anchor z0
    and k iterations since it; return k + count.  zs and ws are the (whole,
    x half, y half) views of z and of the scratch vector w.  Iteration j
    since the anchor reflects z through T, the operator op, keeping the
    reflected point negated, w = z - 2 T(z), in five array passes and two
    sparse products:

        w   = nq - z
        w_x = min(z_x, w_x + (-2 tau / omega) A'z_y)
        w_y = w_y + (-2 sigma omega) A w_x

    where each product is summed into the vector before it; the min is
    -(2 max(0, v) - z_x) = -max(-z_x, 2 v - z_x) for the unprojected primal
    step v.  Then z moves to z0 + j/(j+1) (2 T(z) - z - z0) as w += z0,
    w *= j/(j+1), z = z0 - w.  The last iteration, the check, first writes
    T(z) = (z - w) / 2 into t, the only iteration that forms T.  The
    operator's arrays and the ufuncs are bound once per call, not once per
    iteration, and j/(j+1) goes through a 0-d array: a Python-float operand
    costs a conversion per ufunc call.
    """
    n, m, ptr, idx, at_val, a_val, nq = op
    (z, zx, zy), (w, wx, wy) = zs, ws
    rmatvec_add, matvec_add = _csc_matvec_add, _csr_matvec_add
    add, sub, mul, minimum = np.add, np.subtract, np.multiply, np.minimum
    lam = np.empty(())
    last = k + count
    for j in range(k + 1, last + 1):
        sub(nq, z, w)
        rmatvec_add(n, m, ptr, idx, at_val, zy, wx)
        minimum(zx, wx, out=wx)
        matvec_add(m, n, ptr, idx, a_val, wx, wy)
        if j == last:
            sub(z, w, t)
            mul(t, 0.5, t)
        add(w, anchor, w)
        lam[()] = j / (j + 1.0)
        mul(w, lam, w)
        sub(anchor, w, z)
    return last


def pdhg_step(state: PdhgState, p: StandardLp) -> np.ndarray:
    """T(x, y), the PDHG operator at the state's point:

        x+ = max(0, x - (tau / omega) (c - A'y))
        y+ = y + (sigma omega) (b - A (2 x+ - x))

    evaluated as run_pdhg evaluates it at a check, by one _iterate on a copy
    of the point anchored at itself (its Halpern move is discarded).  T is
    returned as a fresh array of length n + m whose halves become state.x
    and state.y.
    """
    n = p.n
    z = np.concatenate((state.x, state.y))
    w, t = np.empty_like(z), np.empty_like(z)
    op = _operator(p, state.tau, state.sigma, state.omega)
    _iterate(op, (z, z[:n], z[n:]), (w, w[:n], w[n:]), z, t, 0, 1)
    state.x, state.y = t[:n], t[n:]
    state.iterations += 1
    return t


def _score(p: StandardLp, x: np.ndarray, y: np.ndarray, eps_rel: float):
    """The point, its violation summary and termination check; A'y is formed
    once, for both z = max(0, c - A'y) and the residuals."""
    aty = p.at_y(y)
    pt = KktPoint(x, y, np.maximum(0.0, p.c - aty))
    res = residuals(p, pt, aty)
    return pt, summary_from_residuals(res), termination_from_residuals(p, res, eps_rel)


def run_pdhg(
    p: StandardLp, params: PdhgParams | None = None, seed: int = 0
) -> tuple[KktPoint, SolveStats]:
    """Iterate to the requested relative tolerance by restarted Halpern PDHG.

    Each iteration sets z <- z0 + (k+1)/(k+2) (2 T(z) - z - z0), with z0 the
    anchor (the point of the last restart) and k the iterations since it.
    The iterations run in blocks of _CHECK_EVERY, at most _MAX_CHECKS of
    them, one _iterate call each; only the last iteration of every block, a
    check, forms T(z), as a fresh array.  T(z), never z, is scored and
    returned if it passes, and its max violation drives the _RESTART_*
    rules.  A restart sets z = z0 = T(z), k = 0, and moves the primal weight
    omega, which starts at ||c|| / ||b||, halfway in log scale towards
    ||dy|| / ||dx||, the anchor's movement, both clipped to [_WEIGHT_MIN,
    _WEIGHT_MAX]; the scaled operator is rebuilt then.  On failure statuses
    the best point scored so far is returned.  The time limit is tested
    before each block starts, so a run may overrun it by one block.
    Non-finite iterates are detected at the checks.
    """
    if params is None:
        params = PdhgParams()
    if p.m == 0 or p.n == 0:
        raise InvalidModelError("pdhg requires a nonempty model")
    t0 = time.monotonic()
    state = initial_state(p, params, seed=seed)
    tau, sigma, omega = state.tau, state.sigma, state.omega
    b_norm, c_norm = p.bc_norms
    if c_norm > 0.0 and b_norm > 0.0:
        omega = min(max(c_norm / b_norm, _WEIGHT_MIN), _WEIGHT_MAX)
    op = _operator(p, tau, sigma, omega)
    n = p.n

    best_pt, best_summary, best_term = _score(p, state.x, state.y, params.eps_rel)
    z = np.concatenate((state.x, state.y))  # fresh: best_pt wraps the start
    w, anchor = np.empty_like(z), z.copy()
    zs, ws = (z, z[:n], z[n:]), (w, w[:n], w[n:])  # z and w are only written in place
    iterations = restarts = since_restart = 0
    r0 = r_prev = np.inf
    status = SolveStatus.ITERATION_LIMIT

    for _ in range(_MAX_CHECKS):
        if time.monotonic() - t0 > params.time_limit_s:
            status = SolveStatus.TIME_LIMIT
            break
        iterations += _CHECK_EVERY
        t = np.empty(n + p.m)  # fresh: best_pt may wrap it
        since_restart = _iterate(op, zs, ws, anchor, t, since_restart, _CHECK_EVERY)
        if not np.isfinite(t).all():
            status = SolveStatus.NUMERICAL_FAILURE
            break
        pt, summ, term = _score(p, t[:n], t[n:], params.eps_rel)
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
            or since_restart >= _RESTART_ARTIFICIAL * iterations
        )
        r_prev = r
        if restart:  # z has made the block's last move already; T replaces it
            np.subtract(t, anchor, out=w)
            dx, dy = math.sqrt(ws[1] @ ws[1]), math.sqrt(ws[2] @ ws[2])
            if dx > 0.0 and dy > 0.0:
                omega = float(np.exp(0.5 * np.log(dy / dx) + 0.5 * np.log(omega)))
                omega = min(max(omega, _WEIGHT_MIN), _WEIGHT_MAX)
                op = _operator(p, tau, sigma, omega)
            anchor[:] = t
            z[:] = t
            since_restart, r0 = 0, np.inf
            restarts += 1

    stats = SolveStats(
        status=status,
        iterations=iterations,
        restarts=restarts,
        wall_seconds=time.monotonic() - t0,
        termination=best_term,
        violation=best_summary,
    )
    return best_pt, stats
