"""Model transformations: equilibration scaling and a minimal presolve.

Both transforms carry exact inverse mappings (ScalingInfo, PresolveStack) so
that a solution of the transformed model can be translated back and its
violations measured on the model the user supplied.  Pipeline order is
presolve -> standard form -> scale -> solve -> unscale -> postsolve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lp_core import EQ, GE, LE, GeneralLp, InvalidModelError, KktPoint, StandardLp

_FEAS_TOL = 1e-9


class ScalingError(ValueError):
    """Equilibration met a structurally empty row or column."""


@dataclass
class ScalingInfo:
    """Diagonal row/column scaling: scaled matrix = diag(row_scale) A diag(col_scale)."""

    row_scale: np.ndarray
    col_scale: np.ndarray
    applied_iterations: int


def ruiz_equilibrate(
    p: StandardLp, max_iters: int = 20, tol: float = 1e-2
) -> tuple[StandardLp, ScalingInfo]:
    """Iterative infinity-norm equilibration.

    Each pass divides every row by the square root of its max-abs entry and
    every column likewise, stopping once all row and column norms lie in
    [1/(1+tol), 1+tol] or after max_iters passes.  b is scaled by the row
    scales and c by the column scales.  A is first put in canonical form
    (duplicates summed, explicit zeros dropped, indices sorted) and then
    scaled entry by entry, with the rounding of diag(r) @ A @ diag(c).
    """
    A = p.A.copy()
    A.sum_duplicates()
    A.eliminate_zeros()
    m, n = A.shape
    row_nnz = np.diff(A.indptr)
    if (row_nnz == 0).any():
        i = int(np.nonzero(row_nnz == 0)[0][0])
        raise ScalingError(f"row {i} has no nonzero entries")
    col_nnz = np.bincount(A.indices, minlength=n)
    if (col_nnz == 0).any():
        j = int(np.nonzero(col_nnz == 0)[0][0])
        raise ScalingError(f"column {j} has no nonzero entries")

    row_of = np.repeat(np.arange(m), row_nnz)
    row_scale = np.ones(m)
    col_scale = np.ones(n)
    lo, hi = 1.0 / (1.0 + tol), 1.0 + tol
    applied = 0
    for _ in range(max_iters):
        abs_data = np.abs(A.data)
        row_norm = np.maximum.reduceat(abs_data, A.indptr[:-1])
        col_norm = np.zeros(n)
        np.maximum.at(col_norm, A.indices, abs_data)
        if (
            np.all((row_norm >= lo) & (row_norm <= hi))
            and np.all((col_norm >= lo) & (col_norm <= hi))
        ):
            break
        r = 1.0 / np.sqrt(row_norm)
        c = 1.0 / np.sqrt(col_norm)
        # the rounding of diag(r) @ A @ diag(c): (r_i a_ij) c_j
        A.data *= r[row_of]
        A.data *= c[A.indices]
        row_scale *= r
        col_scale *= c
        applied += 1
    A.eliminate_zeros()  # products that underflowed

    scaled = StandardLp(A, row_scale * p.b, col_scale * p.c)
    return scaled, ScalingInfo(row_scale, col_scale, applied)


def scale_point(s: ScalingInfo, pt: KktPoint) -> KktPoint:
    """Map a point on the original model into the scaled model's variables."""
    return KktPoint(
        pt.x / s.col_scale, pt.y / s.row_scale, pt.z * s.col_scale
    )


def unscale_point(s: ScalingInfo, pt_scaled: KktPoint) -> KktPoint:
    """Inverse of scale_point: x = C x_s, y = R y_s, z = z_s / C."""
    return KktPoint(
        s.col_scale * pt_scaled.x,
        s.row_scale * pt_scaled.y,
        pt_scaled.z / s.col_scale,
    )


# ---------------------------------------------------------------------------
# Presolve
# ---------------------------------------------------------------------------

@dataclass
class FixedVariable:
    """Variable j (index at reduction time) fixed at value by its bounds."""

    j: int
    value: float


@dataclass
class EmptyRow:
    """Row i (index at reduction time) had no entries and was consistent."""

    i: int


@dataclass
class EmptyColumn:
    """Column j had no entries; fixed at the bound favored by its cost."""

    j: int
    value: float


@dataclass
class SingletonRow:
    """Equality row i with single entry coeff at column j implied x_j = value.

    col_rows/col_vals hold column j over the rows that remain after row i is
    removed, which is exactly the dual vector layout seen during postsolve.
    """

    i: int
    j: int
    value: float
    coeff: float
    cost: float
    col_rows: np.ndarray
    col_vals: np.ndarray


@dataclass
class PresolveStack:
    """Ordered reductions with enough data to replay them backwards."""

    n_original: int
    m_original: int
    records: list = field(default_factory=list)

    @property
    def n_reduced(self) -> int:
        n = self.n_original
        for r in self.records:
            if isinstance(r, (FixedVariable, EmptyColumn)):
                n -= 1
            elif isinstance(r, SingletonRow):
                n -= 1
        return n

    @property
    def m_reduced(self) -> int:
        m = self.m_original
        for r in self.records:
            if isinstance(r, (EmptyRow, SingletonRow)):
                m -= 1
        return m


class PresolveStatus(enum.Enum):
    REDUCED = "Reduced"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"


@dataclass
class PresolveResult:
    status: PresolveStatus
    model: GeneralLp | None
    stack: PresolveStack
    message: str = ""

    @property
    def solved(self) -> bool:
        """True when presolve eliminated every variable (and so every row)."""
        return (
            self.status is PresolveStatus.REDUCED
            and self.model is not None
            and self.model.n_vars == 0
        )


def _drop_col(A: sp.csc_matrix, j: int) -> sp.csc_matrix:
    keep = np.ones(A.shape[1], dtype=bool)
    keep[j] = False
    return A[:, keep]


def _drop_row(A: sp.csc_matrix, i: int) -> sp.csc_matrix:
    keep = np.ones(A.shape[0], dtype=bool)
    keep[i] = False
    return A.tocsr()[keep].tocsc()


def presolve(g: GeneralLp) -> PresolveResult:
    """Reduce a model to fixpoint with four reduction rules.

    Rules: remove variables fixed by their bounds, remove empty rows
    (checking consistency), fix and remove empty columns at the bound chosen
    by the cost sign, and substitute singleton equality rows.  Detected
    infeasibility or unboundedness is returned as a verdict, not raised.
    """
    g.validate()
    A = g.A.tocsc()
    c = g.c.copy()
    rhs = g.rhs.copy()
    senses = list(g.senses)
    lower = g.lower.copy()
    upper = g.upper.copy()
    col_names = g.variable_names()
    row_names = g.constraint_names()
    offset = g.obj_offset
    stack = PresolveStack(n_original=g.n_vars, m_original=g.n_rows)

    def _remove_variable(j: int, value: float):
        nonlocal A, c, rhs, lower, upper, col_names, offset
        start, end = A.indptr[j], A.indptr[j + 1]
        rows = A.indices[start:end]
        vals = A.data[start:end]
        rhs[rows] -= vals * value
        offset += c[j] * value
        A = _drop_col(A, j)
        c = np.delete(c, j)
        lower = np.delete(lower, j)
        upper = np.delete(upper, j)
        del col_names[j]

    def _find_reduction():
        nonlocal A, c, rhs, senses, lower, upper, row_names, col_names

        fixed = np.nonzero(np.isfinite(lower) & (lower == upper))[0]
        if fixed.size:
            j = int(fixed[0])
            value = lower[j]
            stack.records.append(FixedVariable(j, float(value)))
            _remove_variable(j, value)
            return True, None

        row_counts = np.diff(A.tocsr().indptr)
        empty_rows = np.nonzero(row_counts == 0)[0]
        if empty_rows.size:
            i = int(empty_rows[0])
            r, s = rhs[i], senses[i]
            bad = (
                (s == EQ and abs(r) > _FEAS_TOL)
                or (s == LE and r < -_FEAS_TOL)
                or (s == GE and r > _FEAS_TOL)
            )
            if bad:
                return False, PresolveResult(
                    PresolveStatus.INFEASIBLE, None, stack,
                    f"empty row {row_names[i]} requires 0 {s} {r}",
                )
            stack.records.append(EmptyRow(i))
            A = _drop_row(A, i)
            rhs = np.delete(rhs, i)
            del senses[i]
            del row_names[i]
            return True, None

        col_counts = np.diff(A.indptr)
        empty_cols = np.nonzero(col_counts == 0)[0]
        if empty_cols.size:
            j = int(empty_cols[0])
            if c[j] > 0.0:
                if not np.isfinite(lower[j]):
                    return False, PresolveResult(
                        PresolveStatus.UNBOUNDED, None, stack,
                        f"column {col_names[j]} has positive cost and no lower bound",
                    )
                value = lower[j]
            elif c[j] < 0.0:
                if not np.isfinite(upper[j]):
                    return False, PresolveResult(
                        PresolveStatus.UNBOUNDED, None, stack,
                        f"column {col_names[j]} has negative cost and no upper bound",
                    )
                value = upper[j]
            else:
                if np.isfinite(lower[j]):
                    value = lower[j]
                elif np.isfinite(upper[j]):
                    value = upper[j]
                else:
                    value = 0.0
            stack.records.append(EmptyColumn(j, float(value)))
            _remove_variable(j, value)
            return True, None

        A_csr = A.tocsr()
        singleton = np.nonzero(row_counts == 1)[0]
        for i in singleton:
            if senses[i] != EQ:
                continue
            i = int(i)
            start, end = A_csr.indptr[i], A_csr.indptr[i + 1]
            j = int(A_csr.indices[start])
            coeff = float(A_csr.data[start])
            value = rhs[i] / coeff
            tol = _FEAS_TOL * max(1.0, abs(value))
            if value < lower[j] - tol or value > upper[j] + tol:
                return False, PresolveResult(
                    PresolveStatus.INFEASIBLE, None, stack,
                    f"row {row_names[i]} fixes {col_names[j]} = {value} outside "
                    f"[{lower[j]}, {upper[j]}]",
                )
            cstart, cend = A.indptr[j], A.indptr[j + 1]
            col_rows = A.indices[cstart:cend]
            col_vals = A.data[cstart:cend]
            others = col_rows != i
            rows_after = col_rows[others]
            rows_after = np.where(rows_after > i, rows_after - 1, rows_after)
            stack.records.append(
                SingletonRow(
                    i, j, float(value), coeff, float(c[j]),
                    rows_after.astype(int), col_vals[others].copy(),
                )
            )
            A = _drop_row(A, i)
            rhs = np.delete(rhs, i)
            del senses[i]
            del row_names[i]
            _remove_variable(j, value)
            return True, None

        return False, None

    while True:
        changed, verdict = _find_reduction()
        if verdict is not None:
            return verdict
        if not changed:
            break

    reduced = GeneralLp(
        c=c, A=A.tocsr(), senses=senses, rhs=rhs, lower=lower, upper=upper,
        obj_offset=offset, col_names=col_names, row_names=row_names,
    )
    return PresolveResult(PresolveStatus.REDUCED, reduced, stack)


def postsolve(stack: PresolveStack, pt: KktPoint, original: GeneralLp) -> KktPoint:
    """Replay the reduction stack backwards, restoring a point on the original model.

    Eliminated primal values come from the records; the dual of a removed
    singleton row is chosen so the restored column's reduced cost is zero.
    z is recomputed as c - A'y on the original model.
    """
    if pt.x.size != stack.n_reduced or pt.y.size != stack.m_reduced:
        raise InvalidModelError(
            f"point dims ({pt.x.size}, {pt.y.size}) do not match reduced model "
            f"({stack.n_reduced}, {stack.m_reduced})"
        )
    if stack.n_original != original.n_vars or stack.m_original != original.n_rows:
        raise InvalidModelError("stack does not belong to this model")

    x = pt.x.copy()
    y = pt.y.copy()
    for rec in reversed(stack.records):
        if isinstance(rec, (FixedVariable, EmptyColumn)):
            x = np.insert(x, rec.j, rec.value)
        elif isinstance(rec, EmptyRow):
            y = np.insert(y, rec.i, 0.0)
        elif isinstance(rec, SingletonRow):
            partial = rec.col_vals @ y[rec.col_rows] if rec.col_rows.size else 0.0
            y_i = (rec.cost - partial) / rec.coeff
            y = np.insert(y, rec.i, y_i)
            x = np.insert(x, rec.j, rec.value)
        else:  # pragma: no cover - records are a closed set
            raise InvalidModelError(f"unknown presolve record {rec!r}")

    z = original.c - original.A.T @ y
    return KktPoint(x, y, np.asarray(z))
