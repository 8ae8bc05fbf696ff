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
_RUIZ_TOL = 1e-2


@dataclass
class ScalingInfo:
    """Diagonal row/column scaling: scaled matrix = diag(row_scale) A diag(col_scale)."""

    row_scale: np.ndarray
    col_scale: np.ndarray
    applied_iterations: int


def ruiz_equilibrate(p: StandardLp, max_iters: int = 20) -> tuple[StandardLp, ScalingInfo]:
    """Iterative infinity-norm equilibration.

    Each pass divides every row by the square root of its max-abs entry and
    every column likewise, stopping once all row and column norms lie in
    [1/(1+_RUIZ_TOL), 1+_RUIZ_TOL] or after max_iters passes.  b is scaled
    by the row scales and c by the column scales.  A copy of the canonical A
    is scaled entry by entry, with the rounding of diag(r) @ A @ diag(c);
    building the scaled StandardLp drops products that underflowed to zero.
    Empty rows and columns keep unit scale.
    """
    A = p.A.copy()
    m, n = A.shape
    row_nnz = np.diff(A.indptr)
    # reduceat over the starts of the non-empty rows only: each segment then
    # ends where the next non-empty row starts (an empty segment would not).
    full_rows = np.flatnonzero(row_nnz)
    empty_cols = np.bincount(A.indices, minlength=n) == 0

    row_of = np.repeat(np.arange(m), row_nnz)
    row_scale = np.ones(m)
    col_scale = np.ones(n)
    lo, hi = 1.0 / (1.0 + _RUIZ_TOL), 1.0 + _RUIZ_TOL
    applied = 0
    for _ in range(max_iters):
        abs_data = np.abs(A.data)
        row_norm = np.ones(m)
        row_norm[full_rows] = np.maximum.reduceat(abs_data, A.indptr[full_rows])
        col_norm = np.zeros(n)
        np.maximum.at(col_norm, A.indices, abs_data)
        col_norm[empty_cols] = 1.0
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
    """Variable j (original index) fixed at value by its bounds."""

    j: int
    value: float


@dataclass
class EmptyRow:
    """Row i (original index) had no entries and was consistent."""

    i: int


@dataclass
class EmptyColumn:
    """Column j (original index) had no entries; fixed at the bound favored by its cost."""

    j: int
    value: float


@dataclass
class SingletonRow:
    """Equality row i with single entry coeff at column j implied x_j = value.

    All indices are original.  col_rows/col_vals hold column j over the rows
    still present after row i is removed; their duals are known when
    postsolve, replaying backwards, reaches this record.
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
        return self.n_original - sum(not isinstance(r, EmptyRow) for r in self.records)

    @property
    def m_reduced(self) -> int:
        return self.m_original - sum(
            isinstance(r, (EmptyRow, SingletonRow)) for r in self.records
        )


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


def _live_entries(M: sp.csr_matrix | sp.csc_matrix, k: int, live: np.ndarray):
    """Minor indices and values of the stored entries of slice k of M that are live."""
    start, end = M.indptr[k], M.indptr[k + 1]
    idx = M.indices[start:end]
    keep = live[idx]
    return idx[keep], M.data[start:end][keep]


def presolve(g: GeneralLp) -> PresolveResult:
    """Reduce a model to fixpoint with four reduction rules.

    Rules: remove variables fixed by their bounds, remove empty rows
    (checking consistency), fix and remove empty columns at the bound chosen
    by the cost sign, and substitute singleton equality rows.  Detected
    infeasibility or unboundedness is returned as a verdict, not raised.

    Reductions only clear live flags over the model's canonical A, so
    records carry original indices and the reduced model is sliced once at
    the end.  Fixed variables go first;
    then each pass takes the first empty row, else the first empty column,
    else the first singleton equality row.
    """
    g.validate()
    A, A_csc = g.A, g.A.tocsc()
    m, n = A.shape
    c, lower, upper = g.c, g.lower, g.upper
    rhs = g.rhs.copy()
    senses = g.senses
    is_eq = np.array([s == EQ for s in senses], dtype=bool)
    col_names = g.variable_names()
    row_names = g.constraint_names()
    offset = g.obj_offset
    row_live = np.ones(m, dtype=bool)
    col_live = np.ones(n, dtype=bool)
    row_count = np.diff(A.indptr)
    # A row dies only once its live entries are gone or belong to the column
    # dying with it, so a live column's count never changes.
    col_count = np.diff(A_csc.indptr)
    stack = PresolveStack(n_original=n, m_original=m)

    def remove_variable(j: int, value: float):
        """Move x_j = value into rhs and the offset; returns column j's live entries."""
        nonlocal offset
        rows, vals = _live_entries(A_csc, j, row_live)
        rhs[rows] -= vals * value
        offset += c[j] * value
        row_count[rows] -= 1
        col_live[j] = False
        return rows, vals

    for j in np.flatnonzero(np.isfinite(lower) & (lower == upper)):
        stack.records.append(FixedVariable(int(j), float(lower[j])))
        remove_variable(j, lower[j])

    while True:
        empty_rows = np.flatnonzero(row_live & (row_count == 0))
        if empty_rows.size:
            i = int(empty_rows[0])
            r, s = rhs[i], senses[i]
            bad = (
                (s == EQ and abs(r) > _FEAS_TOL)
                or (s == LE and r < -_FEAS_TOL)
                or (s == GE and r > _FEAS_TOL)
            )
            if bad:
                return PresolveResult(
                    PresolveStatus.INFEASIBLE, None, stack,
                    f"empty row {row_names[i]} requires 0 {s} {r}",
                )
            stack.records.append(EmptyRow(i))
            row_live[i] = False
            continue

        empty_cols = np.flatnonzero(col_live & (col_count == 0))
        if empty_cols.size:
            j = int(empty_cols[0])
            if c[j] > 0.0:
                if not np.isfinite(lower[j]):
                    return PresolveResult(
                        PresolveStatus.UNBOUNDED, None, stack,
                        f"column {col_names[j]} has positive cost and no lower bound",
                    )
                value = lower[j]
            elif c[j] < 0.0:
                if not np.isfinite(upper[j]):
                    return PresolveResult(
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
            remove_variable(j, value)
            continue

        singletons = np.flatnonzero(row_live & (row_count == 1) & is_eq)
        if not singletons.size:
            break
        i = int(singletons[0])
        cols, vals = _live_entries(A, i, col_live)
        j, coeff = int(cols[0]), float(vals[0])
        value = rhs[i] / coeff
        tol = _FEAS_TOL * max(1.0, abs(value))
        if value < lower[j] - tol or value > upper[j] + tol:
            return PresolveResult(
                PresolveStatus.INFEASIBLE, None, stack,
                f"row {row_names[i]} fixes {col_names[j]} = {value} outside "
                f"[{lower[j]}, {upper[j]}]",
            )
        row_live[i] = False
        col_rows, col_vals = remove_variable(j, value)
        stack.records.append(
            SingletonRow(i, j, float(value), coeff, float(c[j]), col_rows, col_vals)
        )

    rows, cols = np.flatnonzero(row_live), np.flatnonzero(col_live)
    reduced = GeneralLp(
        c=c[cols], A=A[rows][:, cols], senses=[senses[i] for i in rows],
        rhs=rhs[rows], lower=lower[cols], upper=upper[cols], obj_offset=offset,
        col_names=[col_names[j] for j in cols], row_names=[row_names[i] for i in rows],
    )
    return PresolveResult(PresolveStatus.REDUCED, reduced, stack)


def postsolve(stack: PresolveStack, pt: KktPoint, original: GeneralLp) -> KktPoint:
    """Restore a point on the original model from one on the reduced model.

    The reduced point is scattered into the surviving rows and columns and
    eliminated primal values come from the records.  Replaying the singleton
    rows backwards, each removed row's dual is chosen so the restored
    column's reduced cost is zero; other removed rows get dual zero.  z is
    recomputed as c - A'y on the original model.
    """
    if pt.x.size != stack.n_reduced or pt.y.size != stack.m_reduced:
        raise InvalidModelError(
            f"point dims ({pt.x.size}, {pt.y.size}) do not match reduced model "
            f"({stack.n_reduced}, {stack.m_reduced})"
        )
    if stack.n_original != original.n_vars or stack.m_original != original.n_rows:
        raise InvalidModelError("stack does not belong to this model")

    x = np.zeros(stack.n_original)
    y = np.zeros(stack.m_original)
    col_live = np.ones(stack.n_original, dtype=bool)
    row_live = np.ones(stack.m_original, dtype=bool)
    for rec in stack.records:
        if isinstance(rec, (EmptyRow, SingletonRow)):
            row_live[rec.i] = False
        if not isinstance(rec, EmptyRow):
            col_live[rec.j] = False
            x[rec.j] = rec.value
    x[col_live] = pt.x
    y[row_live] = pt.y
    for rec in reversed(stack.records):
        if isinstance(rec, SingletonRow):
            partial = rec.col_vals @ y[rec.col_rows] if rec.col_rows.size else 0.0
            y[rec.i] = (rec.cost - partial) / rec.coeff

    z = original.c - original.A.T @ y
    return KktPoint(x, y, np.asarray(z))
