"""Deterministic LP instances with planted optima for the benchmark.

Every instance plants a KKT triple (x*, y*, z*) before the data is written:
choose the active rows and an equally large support, put x* on the support,
set b from A x* (plus a margin on inactive <= rows), choose y* (free on
equality rows, negative on active <= rows, zero elsewhere) and z* (zero on
the support), then c = A'y* + z*.  The optimal objective c'x* is therefore
known without running any solver.

This is a third copy of the planted generator in ``tests/_desk.py`` and
``demos/06_benchmark.py``, extended with sparse density, mixed row senses
and presolve padding.  Everything is drawn from ``numpy.random.default_rng``
seeded by ``(seed, tag, ...)``, so the same seed gives the same models and
the same MPS bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from hybridlp import EQ, LE, GeneralLp


@dataclass
class Planted:
    name: str
    model: GeneralLp
    obj_star: float


def _sparse_block(rng, m: int, n: int, density: float, lo: float, hi: float):
    """About density*m*n uniform entries at random positions (duplicates summed)."""
    nnz = max(1, int(round(density * m * n)))
    rows = rng.integers(m, size=nnz)
    cols = rng.integers(n, size=nnz)
    vals = rng.uniform(lo, hi, nnz)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def _ensure_irreducible(rng, A: sp.csr_matrix) -> sp.csr_matrix:
    """Give every column one entry and every row two, so presolve has nothing to do."""
    A = A.tolil()
    m, n = A.shape
    counts = np.diff(A.tocsc().indptr)
    for j in np.nonzero(counts == 0)[0]:
        A[int(rng.integers(m)), int(j)] = rng.uniform(0.5, 1.5)
    for i in range(m):
        present = set(A.rows[i])
        while len(present) < 2:
            j = int(rng.integers(n))
            if j not in present:
                A[i, j] = rng.uniform(0.5, 1.5)
                present.add(j)
    return A.tocsr()


def planted_lp(m: int, n: int, seed: int, *, density: float, le_frac: float = 0.0) -> Planted:
    """Planted sparse LP mixing equality rows and (half active) <= rows.

    le_frac of the m rows are <= rows; half of those are active at x*.  Each
    active row is paired with one support column and that pair gets +3 on
    the diagonal, which keeps the optimal basis well conditioned.
    """
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    rng = np.random.default_rng([seed, m, n, 1])
    n_le = int(round(le_frac * m))
    le_rows = rng.choice(m, size=n_le, replace=False)
    inactive = le_rows[: n_le // 2]
    active = np.setdiff1d(np.arange(m), inactive)
    k = active.size

    A = _sparse_block(rng, m, n, density, -2.0, 2.0)
    A = A + sp.csr_matrix((np.full(k, 3.0), (active, np.arange(k))), shape=(m, n))
    A = _ensure_irreducible(rng, A)

    x_star = np.zeros(n)
    x_star[:k] = rng.uniform(0.5, 2.0, k)
    b = A @ x_star
    b[inactive] += rng.uniform(0.5, 1.5, inactive.size)

    y_star = rng.standard_normal(m) * 0.5
    is_le = np.zeros(m, dtype=bool)
    is_le[le_rows] = True
    y_star[is_le] = -rng.uniform(0.1, 1.0, n_le)
    y_star[inactive] = 0.0
    z_star = np.zeros(n)
    z_star[k:] = rng.uniform(0.1, 2.0, n - k)
    c = A.T @ y_star + z_star

    senses = [LE if s else EQ for s in is_le]
    g = GeneralLp(
        c=c, A=A, senses=senses, rhs=b,
        lower=np.zeros(n), upper=np.full(n, np.inf),
    )
    return Planted(f"planted_{m}x{n}_s{seed}", g, float(c @ x_star))


def padded_lp(
    m: int, n: int, seed: int, *, density: float, n_fixed: int, n_singleton: int,
    n_empty: int,
) -> Planted:
    """A planted core padded with work for presolve, optimum carried through.

    Padding: variables fixed by their bounds that appear in core rows,
    singleton equality rows on new variables that also appear in core rows,
    empty columns (positive cost with no upper bound, or negative cost at a
    finite upper bound), and a loose finite upper bound on every core
    variable.  Core right-hand sides absorb the padding's planted values.
    """
    core = planted_lp(m, n, seed, density=density, le_frac=0.4)
    g = core.model
    rng = np.random.default_rng([seed, m, n, 2])

    def core_entries(count):
        """One to three random core rows per new column, as COO triples."""
        per = rng.integers(1, 4, size=count)
        cols = np.repeat(np.arange(count), per)
        rows = rng.integers(m, size=cols.size)
        vals = rng.uniform(-2.0, 2.0, cols.size)
        return sp.csr_matrix((vals, (rows, cols)), shape=(m, count))

    fix_val = rng.uniform(0.0, 2.0, n_fixed)
    A_fix = core_entries(n_fixed)
    c_fix = rng.uniform(-1.0, 1.0, n_fixed)

    sing_val = rng.uniform(0.5, 2.0, n_singleton)
    sing_coef = rng.uniform(0.5, 2.0, n_singleton)
    A_sing = core_entries(n_singleton)
    c_sing = rng.uniform(-1.0, 1.0, n_singleton)

    empty_neg = rng.random(n_empty) < 0.5
    c_empty = np.where(empty_neg, -1.0, 1.0) * rng.uniform(0.1, 1.0, n_empty)
    up_empty = np.where(empty_neg, rng.uniform(1.0, 3.0, n_empty), np.inf)
    empty_val = np.where(empty_neg, up_empty, 0.0)

    rhs_core = g.rhs + A_fix @ fix_val + A_sing @ sing_val
    # loose: every core x* is below 2, so bounds in [4, 6] never bind
    up_core = rng.uniform(4.0, 6.0, n)

    top = sp.hstack([g.A, A_fix, A_sing, sp.csr_matrix((m, n_empty))])
    bottom = sp.hstack([
        sp.csr_matrix((n_singleton, n + n_fixed)),
        sp.diags(sing_coef, format="csr"),
        sp.csr_matrix((n_singleton, n_empty)),
    ])
    A = sp.vstack([top, bottom], format="csr")
    c = np.concatenate([g.c, c_fix, c_sing, c_empty])
    lower = np.concatenate([np.zeros(n), fix_val, np.zeros(n_singleton), np.zeros(n_empty)])
    upper = np.concatenate([up_core, fix_val, np.full(n_singleton, np.inf), up_empty])
    rhs = np.concatenate([rhs_core, sing_coef * sing_val])
    senses = list(g.senses) + [EQ] * n_singleton

    obj = core.obj_star + c_fix @ fix_val + c_sing @ sing_val + c_empty @ empty_val
    n_total = A.shape[1]
    padded = GeneralLp(
        c=c, A=A, senses=senses, rhs=rhs, lower=lower, upper=upper,
        col_names=[f"C{j}" for j in range(n_total)],
        row_names=[f"R{i}" for i in range(A.shape[0])],
    )
    return Planted(f"padded_{m}x{n}_n{n_total}_s{seed}", padded, float(obj))


def _num(v) -> str:
    return repr(float(v))


def write_mps(g: GeneralLp, name: str) -> str:
    """Free-format MPS text for a model whose rows are only = and <=.

    Numbers are written with repr, so parse_mps reads back the same floats.
    Bounds other than the default [0, +inf) are written as FX, LO or UP.
    """
    sense_code = {EQ: "E", LE: "L"}
    rows = g.constraint_names()
    cols = g.variable_names()
    out = [f"NAME {name}", "ROWS", " N OBJ"]
    out.extend(f" {sense_code[s]} {r}" for s, r in zip(g.senses, rows))
    out.append("COLUMNS")
    A = g.A.tocsc()
    for j, cname in enumerate(cols):
        start, end = A.indptr[j], A.indptr[j + 1]
        if g.c[j] != 0.0:
            out.append(f" {cname} OBJ {_num(g.c[j])}")
        for i, v in zip(A.indices[start:end], A.data[start:end]):
            out.append(f" {cname} {rows[i]} {_num(v)}")
    out.append("RHS")
    out.extend(f" RHS {rows[i]} {_num(v)}" for i, v in enumerate(g.rhs) if v != 0.0)
    out.append("BOUNDS")
    for j, cname in enumerate(cols):
        lo, up = g.lower[j], g.upper[j]
        if lo == up:
            out.append(f" FX BND {cname} {_num(lo)}")
            continue
        if lo != 0.0:
            out.append(f" LO BND {cname} {_num(lo)}")
        if np.isfinite(up):
            out.append(f" UP BND {cname} {_num(up)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
