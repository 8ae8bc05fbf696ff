"""Primal-dual path-following interior-point solver (predictor-corrector).

Works in standard form with the normal-equations linear algebra
(A D^2 A' with D^2 = X/Z: its lower triangle assembled by one bincount over
the model's cached pair list and factored by dense Cholesky, or the sparse
product factored by splu above a memory cap), an infeasible-start Newton
right-hand side, a fraction-to-boundary step rule, and Mehrotra-style
adaptive centering.  factor_normal alone decides whether a normal matrix
can be factored; the Newton solver and basis_polish act on its None.
run_ipm runs the same iteration from a cold start or from an externally
supplied strictly positive start.  basis_polish, one verified solve at the
vertex of the basis a point names, is the hybrid's first move
(warmstart.warm_started_ipm calls it once, before run_ipm).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .lp_core import (
    InvalidModelError,
    KktPoint,
    Residuals,
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

_REG_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
_SOLVE_TOL = 1e-8
_D2_CLIP = (1e-32, 1e32)
# Mehrotra's centering parameter: sigma = (mu_aff / mu) ** _CENTERING_POWER
_CENTERING_POWER = 3.0
# Fixed by the method, not by the model: the share of the distance to the
# boundary a step may take, the step length below which run_ipm stalls, and
# run_ipm's iteration limit.
_STEP_FRACTION = 0.99
_MIN_STEP = 1e-6
_MAX_ITERS = 200


def _dense_cap_bytes() -> int:
    """A quarter of physical memory, or 256 MiB where sysconf cannot say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 4
    except (AttributeError, OSError, ValueError):
        return 256 << 20


# Largest dense normal matrix, 8 m^2 bytes, factored by LAPACK: m <= 16384
# with 8 GiB of memory, m <= 5792 on the fallback.
_DENSE_CAP_BYTES = _dense_cap_bytes()


class NumericalFailure(RuntimeError):
    """The Newton system could not be solved to tolerance."""


@dataclass
class IpmParams:
    eps_rel: float = 1e-8

    def __post_init__(self):
        if not self.eps_rel > 0:
            raise ValueError("eps_rel must be positive")


@dataclass
class IpmState(KktPoint):
    """Strictly positive (x, z) with free duals y."""

    iterations: int = 0

    @property
    def mu(self) -> float:
        n = self.x.size
        return float(self.x @ self.z) / n if n else 0.0

    def require_interior(self):
        if not (np.all(self.x > 0) and np.all(self.z > 0)):
            raise InvalidModelError("interior-point state needs strictly positive x and z")


@dataclass
class StepReport:
    alpha_p: float
    alpha_d: float
    mu_after: float
    sigma: float
    reg_level: int = 0

    @property
    def min_alpha(self) -> float:
        return min(self.alpha_p, self.alpha_d)


@dataclass
class IpmStats:
    status: SolveStatus
    iterations: int
    wall_seconds: float
    termination: TerminationCheck | None
    history: list = field(default_factory=list)
    backend: str = ""
    max_reg_level: int = 0
    # basis_polish's verdict in the stats warm_started_ipm returns for its
    # whole stage: "accepted", a refusal reason, or "" when no attempt was
    # made (run_ipm never makes one)
    polish: str = ""
    violation: ViolationSummary | None = None  # run_ipm's, of the point it returns


def normal_backend(m: int) -> str:
    """"dense" while the m x m normal matrix fits _DENSE_CAP_BYTES, else "sparse"."""
    return "dense" if 8 * m * m <= _DENSE_CAP_BYTES else "sparse"


def normal_matrix(p: StandardLp, d2: np.ndarray) -> sp.csc_matrix:
    """A D^2 A' in CSC form, for the sparse backend: A in CSC form with each
    column scaled by d2, times A' (a CSC view of the CSR A).

    Each entry (i, k) is the sum over increasing j of a_kj (a_ij d2_j).
    """
    AD = p.A.tocsc()
    AD.data *= np.repeat(d2, np.diff(AD.indptr))
    return AD @ p.A.T


def normal_lower(p: StandardLp, d2: np.ndarray) -> np.ndarray:
    """The lower triangle of A D^2 A' in an m x m Fortran-ordered array, zero
    above the diagonal, for the dense backend.

    One bincount over p.normal_pairs: it adds each entry's products
    a_kj (a_ij d2_j) from 0 in increasing j, the order in which normal_matrix's
    sparse product sums them, so the triangle is bitwise normal_matrix's.
    float64 also when A has no entries, where bincount gives int64 zeros.
    """
    ei, flat, akj = p.normal_pairs
    A = p.A
    v = (A.data * d2[A.indices])[ei]
    v *= akj
    m = p.m
    a = np.bincount(flat, weights=v, minlength=m * m).astype(float, copy=False)
    return a.reshape((m, m), order="F")


def factor_normal(p: StandardLp, d2: np.ndarray, delta: float = 0.0):
    """A function solving (A D^2 A' + delta I) v = r, or None when that
    matrix does not factor.

    Builds the matrix on every call.  Dense while normal_backend(p.m) says
    so: normal_lower, then cho_factor, which fails unless the matrix is
    positive definite.  Sparse above the cap: splu of normal_matrix(p, d2),
    which fails on an exactly singular matrix.
    """
    try:
        if normal_backend(p.m) == "sparse":
            M = normal_matrix(p, d2)
            return spla.splu(M + delta * sp.identity(p.m, format="csc") if delta else M).solve
        a = normal_lower(p, d2)
        if delta:
            a[np.diag_indices_from(a)] += delta
        factor = cho_factor(a, lower=True, overwrite_a=True, check_finite=False)
    except (LinAlgError, RuntimeError):
        return None
    return lambda r: cho_solve(factor, r, check_finite=False)


class NormalEquationsSolver:
    """Factor A D^2 A' once per iterate and solve Newton systems against it.

    The backend follows from m alone.  While the dense m x m matrix fits
    _DENSE_CAP_BYTES (a quarter of physical memory: m <= 16384 with 8 GiB),
    LAPACK Cholesky factors M + delta I in place in one Fortran-ordered
    array holding only the lower triangle it reads: normal_lower assembles
    it by one bincount over the pair list that the model builds once from
    its CSR A and keeps (every pair of entries of one column of A, 24 bytes
    each), bitwise the sparse product's triangle.  The factors of A D^2 A'
    fill in almost completely even when M itself is a few percent full, so
    dense is the faster choice on every model that fits.  Above the cap,
    SuperLU (splu) factors the sparse M + delta I from normal_matrix; it
    stays because it is the one path that runs when m is too large for a
    dense matrix.

    Regularization delta escalates through a fixed ladder when factor_normal
    cannot factor the matrix (one that is not positive definite, or exactly
    singular for splu) or the solved system's relative residual exceeds
    1e-8.  Each rung drops the previous factor before factor_normal builds
    its matrix again: the dense triangle, or the sparse normal_matrix, with
    delta added to its diagonal.
    """

    def __init__(self, p: StandardLp, x: np.ndarray, z: np.ndarray):
        self.p = p
        self.x = x
        self.z = z
        self.d2 = np.clip(x / z, *_D2_CLIP)
        self.level = 0
        self._solve_normal = None
        self._factor()

    def _factor(self):
        while self.level < len(_REG_LADDER):
            self._solve_normal = None  # free the old factor before the next
            self._solve_normal = factor_normal(self.p, self.d2, _REG_LADDER[self.level])
            if self._solve_normal is not None:
                return
            self.level += 1
        raise NumericalFailure("normal-equations factorization failed at max regularization")

    def _residual_ok(self, dx, aty, dz, rhs_p, rhs_d, rhs_c) -> bool:
        p = self.p
        r1 = csr_matvec(p.A, dx, np.empty(p.m)) - rhs_p
        r2 = aty + dz - rhs_d
        r3 = self.z * dx + self.x * dz - rhs_c
        def rel(r, rhs):
            denom = 1.0 + (float(np.max(np.abs(rhs))) if rhs.size else 0.0)
            return (float(np.max(np.abs(r))) if r.size else 0.0) / denom
        return max(rel(r1, rhs_p), rel(r2, rhs_d), rel(r3, rhs_c)) <= _SOLVE_TOL

    def solve(self, rhs_p, rhs_d, rhs_c):
        """Solve A dx = rhs_p, A'dy + dz = rhs_d, Z dx + X dz = rhs_c."""
        p = self.p
        while True:
            w = rhs_d - rhs_c / self.x
            rhs = rhs_p + csr_matvec(p.A, self.d2 * w, np.empty(p.m))
            dy = self._solve_normal(rhs)
            aty = p.at_y(dy)
            dx = self.d2 * (aty - w)
            dz = rhs_d - aty
            finite = np.all(np.isfinite(dx)) and np.all(np.isfinite(dy)) and np.all(np.isfinite(dz))
            if finite and self._residual_ok(dx, aty, dz, rhs_p, rhs_d, rhs_c):
                return dx, dy, dz
            self.level += 1
            if self.level >= len(_REG_LADDER):
                raise NumericalFailure("Newton system residual above tolerance at max regularization")
            self._factor()


def cold_start_point(p: StandardLp) -> IpmState:
    """Least-norm-flavored default start: x = z = max(1, scale) * ones, y = 0.

    The scale comes from the least-norm solution of Ax = b, so scaled and
    unscaled versions of the same model get different cold starts.  lsqr
    reads A through its CSR arrays, so no transpose of A is built.
    """
    A = spla.LinearOperator(
        p.A.shape, dtype=float,
        matvec=lambda v: csr_matvec(p.A, v, np.empty(p.m)),
        rmatvec=lambda v: csr_rmatvec(p.A, v, np.empty(p.n)),
    )
    x_ln = spla.lsqr(A, p.b, atol=1e-10, btol=1e-10)[0]
    scale = float(np.max(np.abs(x_ln))) if x_ln.size else 0.0
    alpha = max(1.0, scale)
    n = p.n
    return IpmState(x=np.full(n, alpha), y=np.zeros(p.m), z=np.full(n, alpha))


def basis_polish(
    p: StandardLp, state: KktPoint, eps_rel: float
) -> tuple[KktPoint | None, TerminationCheck | None, str]:
    """One attempt at the vertex of the basis that state's x and z name.

    The basis B is the m columns with the largest x - z; the attempt goes on
    only if x > z on all m.  BB' is A W A' with a 0/1 weight w marking B,
    factored by factor_normal with no regularization.  Then
    x_B = B'(BB')^-1 b and y = (BB')^-1 B c_B, each with one refinement
    step, x_N = 0 and z = c - A'y.  The point is accepted only if
    x >= -1e-9 (1 + ||x||_inf) and z >= -1e-9 (1 + ||c||_inf), and the point
    with x and z clipped at 0 passes the relative test at eps_rel.

    Returns (point, its termination check, "accepted"), or (None, None,
    reason) with reason "no basis", "singular", "infeasible" or
    "not optimal".  state is not changed.
    """
    m, n = p.m, p.n
    if n < m:
        return None, None, "no basis"
    gap = state.x - state.z
    basis = np.argpartition(gap, n - m)[n - m:]
    if not np.all(gap[basis] > 0):
        return None, None, "no basis"
    w = np.zeros(n)
    w[basis] = 1.0
    solve_bbt = factor_normal(p, w)
    if solve_bbt is None:
        return None, None, "singular"

    A = p.A
    x = np.zeros(n)
    x[basis] = p.at_y(solve_bbt(p.b))[basis]
    x[basis] += p.at_y(solve_bbt(p.b - csr_matvec(A, x, np.empty(m))))[basis]
    y = solve_bbt(csr_matvec(A, w * p.c, np.empty(m)))
    aty = p.at_y(y)
    y += solve_bbt(csr_matvec(A, w * (p.c - aty), np.empty(m)))
    aty = p.at_y(y)
    z = p.c - aty
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        return None, None, "singular"
    if (x.min() < -1e-9 * (1.0 + np.abs(x).max())
            or z.min() < -1e-9 * (1.0 + np.abs(p.c).max())):
        return None, None, "infeasible"
    point = KktPoint(np.maximum(x, 0.0), y, np.maximum(z, 0.0))
    check = termination_from_residuals(p, residuals(p, point, aty), eps_rel)
    if not check.ok:
        return None, None, "not optimal"
    return point, check, "accepted"


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return np.inf
    return float(np.min(v[neg] / -dv[neg]))


def predictor_corrector_iteration(
    p: StandardLp, state: IpmState, res: Residuals | None = None
) -> tuple[IpmState, StepReport]:
    """Affine predictor, adaptive centering corrector, fraction-to-boundary step.

    res holds the residuals of state; they are computed here when not given.
    """
    state.require_interior()
    if res is None:
        res = residuals(p, state)
    x, y, z = state.x, state.y, state.z
    n = x.size
    mu = state.mu
    rhs_p, rhs_d = res.r_p, res.r_d

    solver = NormalEquationsSolver(p, x, z)
    dx_aff, dy_aff, dz_aff = solver.solve(rhs_p, rhs_d, -x * z)

    a_p_aff = min(1.0, _max_step(x, dx_aff))
    a_d_aff = min(1.0, _max_step(z, dz_aff))
    mu_aff = float((x + a_p_aff * dx_aff) @ (z + a_d_aff * dz_aff)) / n
    sigma = (max(mu_aff, 0.0) / mu) ** _CENTERING_POWER if mu > 0 else 0.0
    sigma = min(sigma, 1.0)

    rhs_c = sigma * mu - x * z - dx_aff * dz_aff
    dx, dy, dz = solver.solve(rhs_p, rhs_d, rhs_c)

    alpha_p = min(1.0, _STEP_FRACTION * _max_step(x, dx))
    alpha_d = min(1.0, _STEP_FRACTION * _max_step(z, dz))

    state.x = x + alpha_p * dx
    state.y = y + alpha_d * dy
    state.z = z + alpha_d * dz
    state.iterations += 1

    return state, StepReport(
        alpha_p=alpha_p,
        alpha_d=alpha_d,
        mu_after=state.mu,
        sigma=sigma,
        reg_level=solver.level,
    )


def run_ipm(
    p: StandardLp,
    params: IpmParams | None = None,
    start: IpmState | None = None,
    time_limit_s: float = math.inf,
) -> tuple[KktPoint, IpmStats]:
    """Iterate predictor-corrector steps until the relative criteria hold.

    Stops with Stalled as soon as min(alpha_p, alpha_d) drops below
    _MIN_STEP on any iteration; the caller (the warm-start driver) owns the
    retry policy.  Iteration counts are accepted predictor-corrector steps.
    """
    if params is None:
        params = IpmParams()
    if p.m == 0 or p.n == 0:
        raise InvalidModelError("interior-point solve requires a nonempty model")
    if not time_limit_s >= 0:
        raise ValueError("time_limit_s must be nonnegative")
    if start is not None:
        start.require_interior()
        state = IpmState(start.x.copy(), start.y.copy(), start.z.copy())
    else:
        state = cold_start_point(p)

    t0 = time.monotonic()
    history = []
    status = SolveStatus.ITERATION_LIMIT
    max_reg_level = 0
    # One residual evaluation per iterate serves its history entry, the next
    # check and the next Newton right-hand side.
    res = residuals(p, state)

    while True:
        termination = termination_from_residuals(p, res, params.eps_rel)
        if termination.ok:
            status = SolveStatus.OPTIMAL
            break
        if state.iterations == _MAX_ITERS:
            break
        if time.monotonic() - t0 > time_limit_s:
            status = SolveStatus.TIME_LIMIT
            break
        try:
            state, report = predictor_corrector_iteration(p, state, res)
        except NumericalFailure:
            status = SolveStatus.NUMERICAL_FAILURE
            max_reg_level = len(_REG_LADDER) - 1
            break
        max_reg_level = max(max_reg_level, report.reg_level)
        res = residuals(p, state)
        history.append(
            {
                "mu": report.mu_after,
                "alpha_p": report.alpha_p,
                "alpha_d": report.alpha_d,
                "sigma": report.sigma,
                "max_violation": summary_from_residuals(res).max_violation,
            }
        )
        if report.min_alpha < _MIN_STEP:
            status = SolveStatus.STALLED
            break

    stats = IpmStats(
        status=status,
        iterations=state.iterations,
        wall_seconds=time.monotonic() - t0,
        termination=termination,
        history=history,
        backend=normal_backend(p.m),
        max_reg_level=max_reg_level,
        violation=summary_from_residuals(res),
    )
    return KktPoint(state.x, state.y, state.z), stats
