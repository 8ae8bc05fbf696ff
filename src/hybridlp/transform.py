"""Model transformations: equilibration scaling and a minimal presolve.

Both transforms carry exact inverse mappings (ScalingInfo, PresolveStack) so
that a solution of the transformed model can be translated back and its
violations measured on the model the user supplied.  Pipeline order is
presolve -> standard form -> scale -> solve -> unscale -> postsolve.
Presolve keeps its reductions as one batch of arrays per step, and
postsolve replays the singleton-row duals in waves of stacked dot
products, bitwise equal to a backward replay one record at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lp_core import EQ, LE, GeneralLp, InvalidModelError, KktPoint, StandardLp, csr_rmatvec

_FEAS_TOL = 1e-9
_RUIZ_TOL = 1e-2
_RUIZ_MAX_ITERS = 20


@dataclass
class ScalingInfo:
    """Diagonal row/column scaling: scaled matrix = diag(row_scale) A diag(col_scale)."""

    row_scale: np.ndarray
    col_scale: np.ndarray
    applied_iterations: int


def ruiz_equilibrate(p: StandardLp) -> tuple[StandardLp, ScalingInfo]:
    """Iterative infinity-norm equilibration.

    Each pass divides every row by the square root of its max-abs entry and
    every column likewise, stopping once all row and column norms lie in
    [1/(1+_RUIZ_TOL), 1+_RUIZ_TOL] or after _RUIZ_MAX_ITERS passes.  b is
    scaled by the row scales and c by the column scales.  A copy of the
    canonical A is scaled entry by entry, with the rounding of
    diag(r) @ A @ diag(c); building the scaled StandardLp drops products
    that underflowed to zero.  Empty rows and columns keep unit scale.
    A pass reuses its buffers: one np.maximum.at forms the row and column
    norms in one m + n vector, and intp arrays index each entry's scales.
    """
    A = p.A.copy()
    m, n = A.shape
    data = A.data
    row_of = np.repeat(np.arange(m), np.diff(A.indptr))
    col_of = A.indices.astype(np.intp)
    entry_of = np.concatenate((row_of, m + col_of))
    # an empty row or column has no entry and norm 1
    empty = (np.bincount(entry_of, minlength=m + n) == 0).astype(float)
    norms, s, scale = np.empty(m + n), np.empty(m + n), np.ones(m + n)
    abs_data = np.empty(2 * data.size)  # |A| twice: its rows', then its columns' entries
    lo, hi = 1.0 / (1.0 + _RUIZ_TOL), 1.0 + _RUIZ_TOL
    applied = 0
    for _ in range(_RUIZ_MAX_ITERS):
        np.abs(data, out=abs_data[:data.size])
        np.abs(data, out=abs_data[data.size:])
        np.copyto(norms, empty)
        np.maximum.at(norms, entry_of, abs_data)
        if norms.min(initial=lo) >= lo and norms.max(initial=hi) <= hi:
            break
        np.divide(1.0, np.sqrt(norms, out=s), out=s)
        # the rounding of diag(r) @ A @ diag(c): (r_i a_ij) c_j
        data *= s[row_of]
        data *= s[m:][col_of]
        scale *= s
        applied += 1

    row_scale, col_scale = scale[:m], scale[m:]
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


_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_VALUES = np.empty(0)


class ReductionBatch(NamedTuple):
    """One presolve step's reductions, all records of type kind, as arrays
    in record order (all indices original).

    rows are the removed rows (EmptyRow, SingletonRow); cols and values
    the removed columns and their values (FixedVariable, EmptyColumn,
    SingletonRow).  A SingletonRow batch also holds each record's coeff and
    cost, and the col_rows/col_vals of all its records as one flat pair,
    counts[k] entries for record k.
    """

    kind: type
    rows: np.ndarray = _NO_ROWS
    cols: np.ndarray = _NO_ROWS
    values: np.ndarray = _NO_VALUES
    coeffs: np.ndarray = _NO_VALUES
    costs: np.ndarray = _NO_VALUES
    col_rows: np.ndarray = _NO_ROWS
    col_vals: np.ndarray = _NO_VALUES
    counts: np.ndarray = _NO_ROWS

    def records(self) -> list:
        if self.kind is EmptyRow:
            return list(map(EmptyRow, self.rows.tolist()))
        if self.kind is not SingletonRow:
            return list(map(self.kind, self.cols.tolist(), self.values.tolist()))
        ends = np.cumsum(self.counts).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        return list(map(
            SingletonRow, self.rows.tolist(), self.cols.tolist(), self.values.tolist(),
            self.coeffs.tolist(), self.costs.tolist(),
            [self.col_rows[a:b] for a, b in spans], [self.col_vals[a:b] for a, b in spans],
        ))


@dataclass
class PresolveStack:
    """Ordered reductions with enough data to replay them backwards: the
    reduction stack of Andersen & Andersen, "Presolving in linear
    programming", Math. Programming 71 (1995).

    batches holds one ReductionBatch per presolve step, in the order the
    steps ran, so presolve builds no object per reduction.  records is a
    view built on each read: the FixedVariable, EmptyRow, EmptyColumn and
    SingletonRow records, one per reduction, in reduction order.
    """

    n_original: int
    m_original: int
    batches: list = field(default_factory=list)

    @property
    def records(self) -> list:
        return [rec for batch in self.batches for rec in batch.records()]

    def _joined(self, name: str, kind: type | None = None) -> np.ndarray:
        """Field name of every batch (of type kind), concatenated."""
        parts = [getattr(b, name) for b in self.batches if kind in (None, b.kind)]
        return np.concatenate(parts + [ReductionBatch._field_defaults[name]])

    @property
    def n_reduced(self) -> int:
        return self.n_original - sum(b.cols.size for b in self.batches)

    @property
    def m_reduced(self) -> int:
        return self.m_original - sum(b.rows.size for b in self.batches)


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


def _entries(indptr: np.ndarray, major: np.ndarray):
    """Positions of the entries of the compressed slices `major` (slice k
    holds positions indptr[k] to indptr[k+1]), slice after slice, and the
    index into `major` of each entry's slice."""
    starts = indptr[major]
    counts = indptr[major + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    owner = np.repeat(np.arange(major.size), counts)
    return np.arange(total) + (starts - ends + counts)[owner], owner


def presolve(g: GeneralLp) -> PresolveResult:
    """Reduce a model to fixpoint with four reduction rules.

    Rules: remove variables fixed by their bounds, remove empty rows
    (checking consistency), fix and remove empty columns at the bound chosen
    by the cost sign, and substitute singleton equality rows.  Detected
    infeasibility or unboundedness is returned as a verdict, not raised.

    Reductions only clear live flags over the model's canonical A, so
    records carry original indices and the reduced model is sliced once at
    the end (not at all when nothing was removed).  Each kind of reduction
    is one batch of array operations: all fixed variables, then all
    current empty rows, the empty columns (once: a live column's count
    never changes), and singleton equality rows in rounds.  A round takes
    the current singletons in index order and ends right after the first
    whose column removal empties another row or leaves an equality row
    with one entry, or just before the first bound violation.  So the
    records, rhs and offset come out bitwise as from a loop that makes one
    reduction at a time (fixed variables first, then the first empty row,
    else the first empty column, else the first singleton): no singleton
    in a round changes another's rhs, and np.subtract.at and np.cumsum add
    in reduction order.  A verdict stops its batch after the records of
    the rows or columns before it.
    """
    g.validate()
    A = g.A
    m, n = A.shape
    c, lower, upper = g.c, g.lower, g.upper
    rhs = g.rhs.copy()
    senses = g.senses
    is_eq = np.fromiter((s == EQ for s in senses), bool, m)
    col_names, row_names = g.col_names, g.row_names  # None on a model without names
    offset = g.obj_offset
    row_live = np.ones(m, dtype=bool)
    col_live = np.ones(n, dtype=bool)
    row_count = np.diff(A.indptr)
    # A row dies only once its live entries are gone or belong to the column
    # dying with it, so a live column's count never changes.
    col_count = np.bincount(A.indices, minlength=n)
    A_csc = None  # built on first use: models with nothing to remove skip it
    stack = PresolveStack(n_original=n, m_original=m)
    batches = stack.batches

    def column_entries(cols: np.ndarray):
        """Rows and values of the stored entries of columns cols, column
        after column, and the index into cols of each entry's column."""
        nonlocal A_csc
        if A_csc is None:
            A_csc = A.tocsc()
        pos, owner = _entries(A_csc.indptr, cols)
        return A_csc.indices[pos], A_csc.data[pos], owner

    def remove_columns(cols: np.ndarray, values: np.ndarray):
        """Move x_cols = values into rhs and the offset, column by column.

        Returns the rows and values of the columns' live entries, column
        after column, and how many of them each column has.
        """
        nonlocal offset
        rows, vals, owner = column_entries(cols)
        live = row_live[rows]
        rows, vals, owner = rows[live], vals[live], owner[live]
        np.subtract.at(rhs, rows, vals * values[owner])
        row_count[:] -= np.bincount(rows, minlength=m)
        offset = np.cumsum(np.concatenate(([offset], c[cols] * values)))[-1]
        col_live[cols] = False
        return rows, vals, np.bincount(owner, minlength=cols.size)

    def remove_empty_rows():
        empty = np.flatnonzero(row_live & (row_count == 0))
        if not empty.size:
            return None
        r = rhs[empty]
        is_le = np.fromiter((senses[i] == LE for i in empty.tolist()), bool, empty.size)
        bad = np.where(
            is_eq[empty], np.abs(r) > _FEAS_TOL,
            np.where(is_le, r < -_FEAS_TOL, r > _FEAS_TOL),
        )
        k = int(np.argmax(bad)) if bad.any() else empty.size
        batches.append(ReductionBatch(EmptyRow, rows=empty[:k]))
        row_live[empty] = False
        if k < empty.size:
            i = int(empty[k])
            return PresolveResult(
                PresolveStatus.INFEASIBLE, None, stack,
                f"empty row {g.constraint_names()[i]} requires 0 {senses[i]} {rhs[i]}",
            )
        return None

    def remove_empty_columns():
        empty = np.flatnonzero(col_live & (col_count == 0))
        if not empty.size:
            return None
        cost, lo, up = c[empty], lower[empty], upper[empty]
        pos, neg = cost > 0.0, cost < 0.0
        lo_ok, up_ok = np.isfinite(lo), np.isfinite(up)
        unbounded = (pos & ~lo_ok) | (neg & ~up_ok)
        values = np.where(pos | (~neg & lo_ok), lo, np.where(neg | up_ok, up, 0.0))
        k = int(np.argmax(unbounded)) if unbounded.any() else empty.size
        batches.append(ReductionBatch(EmptyColumn, cols=empty[:k], values=values[:k]))
        if k < empty.size:
            j = int(empty[k])
            sign, bound = ("positive", "lower") if pos[k] else ("negative", "upper")
            return PresolveResult(
                PresolveStatus.UNBOUNDED, None, stack,
                f"column {g.variable_names()[j]} has {sign} cost and no {bound} bound",
            )
        remove_columns(empty, values)
        return None

    def singleton_round(singles: np.ndarray):
        pos, _ = _entries(A.indptr, singles)
        cols = A.indices[pos]
        live = col_live[cols]
        cols, coeffs = cols[live], A.data[pos][live]
        values = rhs[singles] / coeffs
        tol = _FEAS_TOL * np.maximum(1.0, np.abs(values))
        bad = (values < lower[cols] - tol) | (values > upper[cols] + tol)

        # The round ends at the first removal that drops a row other than
        # its own to 0 entries or an equality row to 1 (a live column's rows
        # are all live).  A stable sort of the touched rows counts the
        # removals before each touch.
        touched, _, owner = column_entries(cols)
        other = touched != singles[owner]
        touched, owner = touched[other], owner[other]
        order = np.argsort(touched, kind="stable")
        ranked = touched[order]
        at = np.arange(order.size)
        new_row = np.r_[True, ranked[1:] != ranked[:-1]]
        before = np.empty_like(at)
        before[order] = at - np.maximum.accumulate(np.where(new_row, at, 0))
        left = row_count[touched] - before - 1
        stops = (left == 0) | ((left == 1) & is_eq[touched])
        size = int(owner[np.argmax(stops)]) + 1 if stops.any() else singles.size
        k = int(np.argmax(bad[:size])) if bad[:size].any() else size

        rows, done = singles[:k], cols[:k]
        row_live[rows] = False
        col_rows, col_vals, counts = remove_columns(done, values[:k])
        batches.append(ReductionBatch(
            SingletonRow, rows, done, values[:k], coeffs[:k], c[done], col_rows, col_vals, counts,
        ))
        if k < size:
            i, j, value = int(singles[k]), int(cols[k]), values[k]
            return PresolveResult(
                PresolveStatus.INFEASIBLE, None, stack,
                f"row {g.constraint_names()[i]} fixes {g.variable_names()[j]} = {value} "
                f"outside [{lower[j]}, {upper[j]}]",
            )
        return None

    fixed = np.flatnonzero(np.isfinite(lower) & (lower == upper))
    if fixed.size:
        values = lower[fixed]
        batches.append(ReductionBatch(FixedVariable, cols=fixed, values=values))
        remove_columns(fixed, values)

    verdict = remove_empty_rows() or remove_empty_columns()
    while verdict is None:
        singles = np.flatnonzero(row_live & (row_count == 1) & is_eq)
        if not singles.size:
            break
        verdict = singleton_round(singles) or remove_empty_rows()
    if verdict is not None:
        return verdict

    rows, cols = np.flatnonzero(row_live), np.flatnonzero(col_live)
    if rows.size < m:
        A = A[rows]
        senses = [senses[i] for i in rows.tolist()]
        row_names = row_names and [row_names[i] for i in rows.tolist()]  # None stays None
    if cols.size < n:
        A = A[:, cols]
        col_names = col_names and [col_names[j] for j in cols.tolist()]
    reduced = GeneralLp(
        c=c[cols], A=A, senses=senses, rhs=rhs[rows], lower=lower[cols],
        upper=upper[cols], obj_offset=offset, col_names=col_names, row_names=row_names,
    )
    return PresolveResult(PresolveStatus.REDUCED, reduced, stack)


def _row_dots(vals: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """vals[k] @ ys[k] for each row k of two k x L arrays, by one stacked
    np.matmul of k 1 x L by L x 1 products.  numpy forms each such product
    with the kernel of a 1-D @, so each result is bitwise that row's 1-D @
    (pinned in tests/test_presolve_reference.py); np.einsum rounds
    differently."""
    return np.matmul(vals[:, None, :], ys[:, :, None])[:, 0, 0]


def postsolve(stack: PresolveStack, pt: KktPoint, original: GeneralLp) -> KktPoint:
    """Restore a point on the original model from one on the reduced model.

    The reduced point is scattered into the surviving rows and columns and
    eliminated primal values come from the batches.  Each removed singleton
    row's dual is chosen so its column's reduced cost is zero,
    y_i = (cost - col_vals @ y[col_rows]) / coeff; other removed rows get
    dual zero.  A record's col_rows hold only rows that outlive it, so
    replaying the records backwards gives every y it reads its final value.
    The replay runs in waves instead: a wave is every remaining record
    whose col_rows hold no singleton row still waiting for its dual (the
    last record never waits), solved with one _row_dots per entry count.
    A record waits only on records of later presolve rounds, so there are
    at most as many waves as singleton rounds, and each y is bitwise the
    backward replay's.  z is recomputed as c - A'y on the original model.
    """
    cols, rows = stack._joined("cols"), stack._joined("rows")
    n_reduced, m_reduced = stack.n_original - cols.size, stack.m_original - rows.size
    if pt.x.size != n_reduced or pt.y.size != m_reduced:
        raise InvalidModelError(
            f"point dims ({pt.x.size}, {pt.y.size}) do not match reduced model "
            f"({n_reduced}, {m_reduced})"
        )
    if stack.n_original != original.n_vars or stack.m_original != original.n_rows:
        raise InvalidModelError("stack does not belong to this model")

    x = np.zeros(stack.n_original)
    y = np.zeros(stack.m_original)
    col_live = np.ones(stack.n_original, dtype=bool)
    row_live = np.ones(stack.m_original, dtype=bool)
    x[cols] = stack._joined("values")
    col_live[cols] = False
    row_live[rows] = False
    x[col_live] = pt.x
    y[row_live] = pt.y

    if any(b.kind is SingletonRow for b in stack.batches):
        s_rows, coeffs, costs, col_rows, col_vals, counts = (
            stack._joined(name, SingletonRow)
            for name in ("rows", "coeffs", "costs", "col_rows", "col_vals", "counts")
        )
        indptr = np.concatenate(([0], np.cumsum(counts)))
        waiting = np.zeros(stack.m_original, dtype=bool)
        waiting[s_rows] = True
        todo = np.arange(s_rows.size)
        while todo.size:
            pos, owner = _entries(indptr, todo)
            blocked = np.zeros(todo.size, dtype=bool)
            blocked[owner[waiting[col_rows[pos]]]] = True
            blocked[-1] = False  # next in the backward replay: nothing left to wait for
            wave, todo = todo[~blocked], todo[blocked]
            for length in np.unique(counts[wave]).tolist():
                ks = wave[counts[wave] == length]
                at = indptr[ks, None] + np.arange(length)
                y[s_rows[ks]] = (costs[ks] - _row_dots(col_vals[at], y[col_rows[at]])) / coeffs[ks]
            waiting[s_rows[wave]] = False

    z = original.c - csr_rmatvec(original.A, y, np.empty(original.n_vars))
    return KktPoint(x, y, z)
