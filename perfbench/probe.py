"""A fixed reference computation that tracks how fast the machine runs now.

On a shared virtual machine the same solve can take 60% longer for minutes at
a time while other tenants load the host.  The probe uses numpy and scipy
only, on inputs fixed here, so its time moves with the machine and never with
the program under test.  Its three parts mirror the program's work: a
PDHG-style loop over small vectors (interpreter-bound), the same loop over a
mid-sized sparse matrix (matvec-bound), and a sparse LU factorization of a
normal matrix (the interior-point kernel).

A timing divided by the mean time of the samples taken around it, and
multiplied by NOMINAL_S, is in seconds at a fixed machine speed, so runs made
while the host was busy and runs made while it was idle can be compared.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def _loop_data(rng, m: int, n: int, density: float):
    A = sp.random(m, n, density, random_state=rng, format="csr") + sp.eye(m, n, format="csr")
    return A.tocsr(), A.T.tocsr(), rng.standard_normal(m), rng.random(n)


def _pdhg_loop(A, At, b, c, iters: int) -> None:
    x = np.zeros(A.shape[1])
    y = np.zeros(A.shape[0])
    for _ in range(iters):
        x_new = np.maximum(0.0, x - 0.1 * (c - At @ y))
        y = y + 0.1 * (b - A @ (2.0 * x_new - x))
        x = x_new


# The probe's time on a 2-vCPU 2.1 GHz Intel Xeon virtual machine, numpy 2.4
# and scipy 1.17: the speed that calibrated seconds refer to.
NOMINAL_S = 0.016


class Probe:
    """Samples the reference computation between operations, at most every every_s."""

    def __init__(self, every_s: float = 0.5):
        self.every_s = every_s
        self.times: list[float] = []     # perf_counter at the middle of each sample
        self.samples: list[float] = []   # seconds each sample took
        rng = np.random.default_rng(20260301)
        self._small = _loop_data(rng, 40, 70, 0.1)
        self._medium = _loop_data(rng, 300, 525, 0.02)
        B = sp.random(400, 720, 0.02, random_state=rng, format="csr") + sp.eye(400, 720)
        self._normal = (B @ sp.diags(rng.uniform(0.1, 10.0, 720)) @ B.T).tocsc()
        self._rhs = rng.standard_normal(400)
        for _ in range(3):  # first calls pay for allocation and lazy imports
            self._run()

    def _run(self) -> float:
        t0 = time.perf_counter()
        _pdhg_loop(*self._small, 150)
        _pdhg_loop(*self._medium, 50)
        spla.splu(self._normal).solve(self._rhs)
        return time.perf_counter() - t0

    def tick(self) -> None:
        """Take a sample if every_s has passed since the last one."""
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= self.every_s:
            took = self._run()
            self.times.append(now + took / 2)
            self.samples.append(took)

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def calibrate(self, seconds: float, at: float, window_s: float = 2.0) -> float:
        """Wall seconds measured at perf_counter time `at`, at the nominal speed.

        The machine's speed there is the mean of the samples within window_s
        of `at`, or the nearest sample when none is that close.
        """
        near = [s for t, s in zip(self.times, self.samples) if abs(t - at) <= window_s]
        if not near:
            near = [min(zip(self.times, self.samples), key=lambda ts: abs(ts[0] - at))[1]]
        return seconds * NOMINAL_S / statistics.fmean(near)
