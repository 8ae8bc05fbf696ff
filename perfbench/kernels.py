"""Kernel timings on one scaled model at the point a solver returned.

Each kernel is called in batches and the median per-call time is reported.
Bytes moved by one sparse matrix-vector product are computed from the CSR
arrays and the two dense vectors, not measured, and are labelled as such.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from hybridlp import (
    KktPoint,
    PdhgParams,
    centered_start,
    check_relative_termination,
    pdhg_step,
    violation_summary,
)
from hybridlp.ipm import NormalEquationsSolver
from hybridlp.pdhg import initial_state


def _median_call_s(fn, batch: int, batches: int) -> float:
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


def spmv_bytes(A) -> int:
    """CSR values, column indices and row pointers, plus x read and y written."""
    m, n = A.shape
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 8 * (m + n)


def time_kernels(p, pt: KktPoint, eps: float) -> dict[str, float]:
    """Per-call times of the PDHG and IPM kernels at pt on the scaled model p.

    The normal-equations kernels need a strictly positive (x, z); a point with
    zeros (a PDHG result) is centered first, as the hybrid does before its IPM.
    """
    x, y = pt.x.copy(), pt.y.copy()
    ax = _median_call_s(lambda: p.A @ x, 50, 21)
    aty = _median_call_s(lambda: p.at_y(y), 50, 21)
    kkt = _median_call_s(
        lambda: (violation_summary(p, pt), check_relative_termination(p, pt, eps)), 10, 21
    )
    state = initial_state(p, PdhgParams())
    state.x, state.y = x.copy(), y.copy()
    step = _median_call_s(lambda: pdhg_step(state, p), 20, 21)

    interior = pt if (np.all(pt.x > 0) and np.all(pt.z > 0)) else centered_start(pt)
    xi, yi, zi = interior.x, interior.y, interior.z
    factor = _median_call_s(lambda: NormalEquationsSolver(p, xi, zi), 1, 5)
    solver = NormalEquationsSolver(p, xi, zi)
    rhs_p = p.b - p.A @ xi
    rhs_d = p.c - p.at_y(yi) - zi
    rhs_c = -xi * zi
    solve = _median_call_s(lambda: solver.solve(rhs_p, rhs_d, rhs_c), 3, 7)

    nbytes = spmv_bytes(p.A)
    fill = (p.A @ p.A.T).nnz / p.m**2
    return {
        "kernel.ax_us": ax * 1e6,
        "kernel.aty_us": aty * 1e6,
        "kernel.kkt_score_us": kkt * 1e6,
        "kernel.pdhg_step_us": step * 1e6,
        "pdhg.step_overhead_us": (step - ax - aty) * 1e6,
        "kernel.normal_factor_ms": factor * 1e3,
        "kernel.normal_solve_ms": solve * 1e3,
        "kernel.spmv_bytes": float(nbytes),
        "kernel.aty_gbps_computed": nbytes / aty / 1e9,
        "ipm.normal_fill": fill,
    }
