"""Shared desk-scale test instances with known optima.

Random instances plant a KKT triple: pick a basis and x* supported on it,
set b = A x*, pick y* freely and z* zero on the basis, then c = A'y* + z*.
The triple satisfies all three optimality conditions by construction, so
optimal objective values are known exactly without running any solver.
Setting a share of the basic x* (x_zero) or of the nonbasic z* (z_zero) to
0 plants a primal or dual degenerate optimum; the zeroed entries are drawn
by a generator of their own, so at shares of 0 the models are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from hybridlp import EQ, GE, LE, GeneralLp


@dataclass
class DeskInstance:
    name: str
    model: GeneralLp
    x_star: np.ndarray | None = None
    y_star: np.ndarray | None = None
    obj_star: float | None = None


def lp1() -> DeskInstance:
    """min x1 + 2 x2 s.t. x1 + x2 = 1, x >= 0; optimum (1, 0), y = 1."""
    g = GeneralLp(
        c=[1.0, 2.0], A=[[1.0, 1.0]], senses=[EQ], rhs=[1.0],
        lower=[0.0, 0.0], upper=[np.inf, np.inf],
    )
    return DeskInstance("lp1", g, np.array([1.0, 0.0]), np.array([1.0]), 1.0)


def lp2() -> DeskInstance:
    """min -x1 - x2 s.t. x1 + 2x2 <= 4, 3x1 + x2 <= 6, x >= 0.

    Optimum x = (1.6, 1.2); duals solved by hand from the 2x2 system
    A' y = c on the active rows: y = (-0.4, -0.2).
    """
    g = GeneralLp(
        c=[-1.0, -1.0], A=[[1.0, 2.0], [3.0, 1.0]], senses=[LE, LE],
        rhs=[4.0, 6.0], lower=[0.0, 0.0], upper=[np.inf, np.inf],
    )
    return DeskInstance(
        "lp2", g, np.array([1.6, 1.2]), np.array([-0.4, -0.2]), -2.8
    )


def degenerate_lp() -> DeskInstance:
    """Redundant active constraints at the optimum (primal degenerate vertex).

    min -x1 - x2 s.t. x1 + x2 <= 2, 2x1 + 2x2 <= 4, x1 <= 1, x2 <= 1.
    Three constraints active at (1, 1) in a 2-variable problem.
    """
    g = GeneralLp(
        c=[-1.0, -1.0],
        A=[[1.0, 1.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0]],
        senses=[LE, LE, LE, LE],
        rhs=[2.0, 4.0, 1.0, 1.0],
        lower=[0.0, 0.0], upper=[np.inf, np.inf],
    )
    return DeskInstance("degenerate", g, np.array([1.0, 1.0]), None, -2.0)


def free_var_lp() -> DeskInstance:
    """A free variable pinned through an equality: min f s.t. f - x = -2, x <= 5.

    f is unbounded below on its own; the row ties it to x >= 0, so the
    optimum is x = 0, f = -2.
    """
    g = GeneralLp(
        c=[1.0, 0.0], A=[[1.0, -1.0]], senses=[EQ], rhs=[-2.0],
        lower=[-np.inf, 0.0], upper=[np.inf, 5.0],
    )
    return DeskInstance("free_var", g, np.array([-2.0, 0.0]), None, -2.0)


def boxed_lp() -> DeskInstance:
    """Active upper bounds: min -3x1 - x2 s.t. x1 + x2 <= 10, x in [1, 4] x [0, 2]."""
    g = GeneralLp(
        c=[-3.0, -1.0], A=[[1.0, 1.0]], senses=[LE], rhs=[10.0],
        lower=[1.0, 0.0], upper=[4.0, 2.0],
    )
    return DeskInstance("boxed", g, np.array([4.0, 2.0]), None, -14.0)


def _degenerate_name(name: str, x_zero: float, z_zero: float) -> str:
    return f"{name}_x{x_zero:g}z{z_zero:g}" if x_zero or z_zero else name


def _zero_share(v: np.ndarray, idx: np.ndarray, share: float, rng) -> None:
    """Set round(share * len(idx)) entries of v[idx], chosen by rng, to 0."""
    v[rng.choice(idx, size=round(share * len(idx)), replace=False)] = 0.0


def planted_equality_lp(
    m: int, n: int, seed: int, density: float = 0.35, x_zero: float = 0.0, z_zero: float = 0.0
) -> DeskInstance:
    """Equality-form LP with a planted optimum, strictly complementary
    unless x_zero or z_zero zeroes a share of the basic x* or nonbasic z*."""
    rng = np.random.default_rng(seed)
    zero_rng = np.random.default_rng([seed, 1])
    mask = rng.random((m, n)) < density
    A = np.where(mask, rng.uniform(-2.0, 2.0, (m, n)), 0.0)
    A[:, :m] += np.eye(m) * 3.0
    for j in range(n):
        if not A[:, j].any():
            A[rng.integers(m), j] = rng.uniform(0.5, 1.5)
    x_star = np.zeros(n)
    x_star[:m] = rng.uniform(0.5, 2.0, m)
    _zero_share(x_star, np.arange(m), x_zero, zero_rng)
    b = A @ x_star
    y_star = rng.standard_normal(m) * 0.5
    z_star = np.zeros(n)
    z_star[m:] = rng.uniform(0.1, 2.0, n - m)
    _zero_share(z_star, np.arange(m, n), z_zero, zero_rng)
    c = A.T @ y_star + z_star
    g = GeneralLp(
        c=c, A=sp.csr_matrix(A), senses=[EQ] * m, rhs=b,
        lower=np.zeros(n), upper=np.full(n, np.inf),
    )
    return DeskInstance(
        _degenerate_name(f"eq_{m}x{n}_s{seed}", x_zero, z_zero),
        g, x_star, y_star, float(c @ x_star),
    )


def planted_inequality_lp(
    m: int, n: int, seed: int, density: float = 0.4, x_zero: float = 0.0, z_zero: float = 0.0
) -> DeskInstance:
    """<= rows with a planted optimum: active rows get negative duals,
    inactive rows get slack margin and zero duals.  x_zero and z_zero zero
    a share of x* on its support and of z* off it."""
    rng = np.random.default_rng(seed)
    zero_rng = np.random.default_rng([seed, 1])
    mask = rng.random((m, n)) < density
    A = np.where(mask, rng.uniform(-1.5, 1.5, (m, n)), 0.0)
    k = min(m, n) // 2 + 1
    A[:k, :k] += np.eye(k) * 2.5
    for j in range(n):
        if not A[:, j].any():
            A[rng.integers(m), j] = rng.uniform(0.5, 1.5)
    for i in range(m):
        if not A[i, :].any():
            A[i, rng.integers(n)] = rng.uniform(0.5, 1.5)
    x_star = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x_star[support] = rng.uniform(0.5, 2.0, k)
    _zero_share(x_star, support, x_zero, zero_rng)
    active = rng.choice(m, size=k, replace=False)
    margin = np.ones(m)
    margin[active] = 0.0
    b = A @ x_star + margin * rng.uniform(0.5, 1.5, m)
    y_star = np.zeros(m)
    y_star[active] = -rng.uniform(0.1, 1.0, k)
    z_star = rng.uniform(0.1, 2.0, n)
    z_star[support] = 0.0
    _zero_share(z_star, np.setdiff1d(np.arange(n), support), z_zero, zero_rng)
    c = A.T @ y_star + z_star
    g = GeneralLp(
        c=c, A=sp.csr_matrix(A), senses=[LE] * m, rhs=b,
        lower=np.zeros(n), upper=np.full(n, np.inf),
    )
    return DeskInstance(
        _degenerate_name(f"ineq_{m}x{n}_s{seed}", x_zero, z_zero),
        g, x_star, y_star, float(c @ x_star),
    )


def desk_suite() -> list[DeskInstance]:
    """The full suite: crafted fixtures plus planted random instances."""
    instances = [lp1(), lp2(), degenerate_lp(), free_var_lp(), boxed_lp()]
    eq_sizes = [
        (5, 9, 11), (6, 11, 12), (8, 14, 13), (10, 18, 14), (12, 22, 15),
        (15, 27, 16), (20, 35, 17), (25, 45, 18), (30, 55, 19), (40, 70, 20),
        (60, 105, 21), (80, 140, 22), (100, 175, 23), (120, 200, 24),
    ]
    instances.extend(planted_equality_lp(m, n, s) for m, n, s in eq_sizes)
    ineq_sizes = [(6, 10, 31), (12, 20, 32), (20, 32, 33), (35, 60, 34)]
    instances.extend(planted_inequality_lp(m, n, s) for m, n, s in ineq_sizes)
    return instances
