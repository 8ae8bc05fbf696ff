"""Core LP data model: general and standard forms, residuals, and KKT metrics.

The canonical solver form is the pure standard form

    min c'x  s.t.  A x = b,  x >= 0

and every richer model (inequalities, bounds, free variables) is mapped onto
it by :func:`to_standard_form`.  The mapping is invertible through a
:class:`StandardFormMap`, which also knows how to embed a general-model point
back into the standard space so that feasibility violations can be measured
on the model the user actually wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

LE = "<="
GE = ">="
EQ = "="
SENSES = (LE, GE, EQ)


class InvalidModelError(ValueError):
    """A model (or point) violates one of its structural invariants."""


def csr_matvec(M: sp.csr_matrix, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = M @ v for a CSR matrix M, written into the float64 array out.

    Calls scipy's CSR kernel directly, without the checks and the result
    allocation of ``M @ v``, and is bitwise equal to it.  The kernel adds
    into its output, so out is zeroed first.
    """
    out.fill(0.0)
    _sparsetools.csr_matvec(M.shape[0], M.shape[1], M.indptr, M.indices, M.data, v, out)
    return out


def _canonical_csr(A) -> sp.csr_matrix:
    """A as float64 CSR with sorted indices, duplicates summed and no stored
    zeros.  A matrix already in that form is returned sharing its arrays;
    any other is canonicalized in a copy, so the caller's is never changed."""
    A = sp.csr_matrix(A, dtype=float)
    if A.has_canonical_format and A.data.all():
        return A
    A = A.copy()
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


def _as_float_array(v, n=None) -> np.ndarray:
    a = np.asarray(v, dtype=float).ravel()
    if n is not None and a.size != n:
        raise InvalidModelError(f"expected array of length {n}, got {a.size}")
    return a


@dataclass
class GeneralLp:
    """A minimization LP with row senses, variable bounds and a canonical A.

    min c'x + obj_offset  s.t.  A[i,:] x (<=, >=, =) rhs[i],  lower <= x <= upper
    """

    c: np.ndarray
    A: sp.csr_matrix
    senses: list
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    obj_offset: float = 0.0
    col_names: list | None = None
    row_names: list | None = None

    def __post_init__(self):
        self.A = _canonical_csr(self.A)
        m, n = self.A.shape
        self.c = _as_float_array(self.c, n)
        self.rhs = _as_float_array(self.rhs, m)
        self.lower = _as_float_array(self.lower, n)
        self.upper = _as_float_array(self.upper, n)
        self.senses = list(self.senses)
        if len(self.senses) != m:
            raise InvalidModelError(f"expected {m} senses, got {len(self.senses)}")

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    def validate(self) -> None:
        """Raise InvalidModelError on non-finite data or crossed bounds."""
        if not np.all(np.isfinite(self.c)):
            raise InvalidModelError("objective coefficients must be finite")
        if not np.all(np.isfinite(self.rhs)):
            raise InvalidModelError("right-hand sides must be finite")
        if not np.all(np.isfinite(self.A.data)):
            raise InvalidModelError("matrix entries must be finite")
        bad = [s for s in self.senses if s not in SENSES]
        if bad:
            raise InvalidModelError(f"unknown row sense {bad[0]!r}")
        crossed = np.nonzero(self.lower > self.upper)[0]
        if crossed.size:
            j = int(crossed[0])
            raise InvalidModelError(
                f"variable {j} has lower bound {self.lower[j]} above upper bound {self.upper[j]}"
            )

    def objective_value(self, x) -> float:
        return float(self.c @ np.asarray(x, dtype=float)) + self.obj_offset

    def variable_names(self) -> list:
        if self.col_names is not None:
            return list(self.col_names)
        return [f"x{j}" for j in range(self.n_vars)]

    def constraint_names(self) -> list:
        if self.row_names is not None:
            return list(self.row_names)
        return [f"r{i}" for i in range(self.n_rows)]


def _normal_pairs(A: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """StandardLp.normal_pairs of the canonical CSC matrix A.

    The entry at position e, the a-th of its column, pairs with the a + 1
    entries of that column at or above it; taking the entries in CSC order
    lists the pairs column by column, so no sort is needed.
    """
    m = A.shape[0]
    start = np.repeat(A.indptr[:-1], np.diff(A.indptr))
    per = np.arange(A.nnz) - start + 1
    first = np.cumsum(per) - per
    ei = np.repeat(np.arange(A.nnz, dtype=np.int32), per)
    ek = np.arange(int(per.sum())) - np.repeat(first - start, per)
    rows = A.indices.astype(np.intp)  # bincount's index type, so it reads flat without a copy
    return ei, rows[ei] + m * rows[ek], A.data[ek]


@dataclass
class StandardLp:
    """min c'x s.t. Ax = b, x >= 0, with a canonical A read row- and column-wise."""

    A: sp.csr_matrix
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.A = _canonical_csr(self.A)
        m, n = self.A.shape
        self.b = _as_float_array(self.b, m)
        self.c = _as_float_array(self.c, n)
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.c))):
            raise InvalidModelError("b and c must be finite")
        if not np.all(np.isfinite(self.A.data)):
            raise InvalidModelError("matrix entries must be finite")
        self._csc = None
        self._at = None
        self._pairs = None

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def A_csc(self) -> sp.csc_matrix:
        """Column-oriented copy of A; transpose products are as common as Ax."""
        if self._csc is None:
            self._csc = self.A.tocsc()
        return self._csc

    @property
    def A_T(self) -> sp.csr_matrix:
        """A' in CSR form, sharing the arrays of A_csc."""
        if self._at is None:
            self._at = self.A_csc.T
        return self._at

    @property
    def normal_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pair of entries (a_ij, a_kj) of one column j with i >= k, as
        (position of a_ij in A_csc.data, flat index i + k m of an m x m
        Fortran-ordered array, a_kj), in increasing j: the lower triangle of
        A D^2 A' in the order the sparse product sums it."""
        if self._pairs is None:
            self._pairs = _normal_pairs(self.A_csc)
        return self._pairs

    def at_y(self, y: np.ndarray) -> np.ndarray:
        """A'y through the cached transpose."""
        return csr_matvec(self.A_T, y, np.empty(self.n))


@dataclass
class KktPoint:
    """Primal solution x, dual solution y, reduced costs z."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.x = _as_float_array(self.x)
        self.y = _as_float_array(self.y)
        self.z = _as_float_array(self.z)

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.x))
            and np.all(np.isfinite(self.y))
            and np.all(np.isfinite(self.z))
        )


@dataclass
class Residuals:
    """r_p = b - Ax, r_d = c - A'y - z, plus objective values and x'z."""

    r_p: np.ndarray
    r_d: np.ndarray
    primal_obj: float
    dual_obj: float
    comp: float


@dataclass
class TerminationCheck:
    """Outcome of the three relative convergence inequalities.

    Each criterion is reported as (left side, right side) so callers can see
    the margins, not just the verdict.
    """

    ok: bool
    primal_lhs: float
    primal_rhs: float
    dual_lhs: float
    dual_rhs: float
    gap_lhs: float
    gap_rhs: float

    @property
    def primal_ok(self) -> bool:
        return _holds(self.primal_lhs, self.primal_rhs)

    @property
    def dual_ok(self) -> bool:
        return _holds(self.dual_lhs, self.dual_rhs)

    @property
    def gap_ok(self) -> bool:
        return _holds(self.gap_lhs, self.gap_rhs)


def _holds(lhs: float, rhs: float) -> bool:
    """lhs <= rhs with a finite lhs: a norm that overflowed to inf must not
    pass against a bound that overflowed too."""
    return bool(math.isfinite(lhs) and lhs <= rhs)


@dataclass
class ViolationSummary:
    """Infinity-norm infeasibilities and the relative complementarity gap.

    max_violation is the maximum of the three components.  rel_gap can be
    negative only when x'z is negative; that case is flagged, never clamped.
    """

    primal_inf: float
    dual_inf: float
    rel_gap: float
    max_violation: float
    comp_negative: bool = False


@dataclass
class StandardFormMap:
    """Invertible record of a GeneralLp -> StandardLp conversion.

    Columns are laid out as [structural | row slacks | bound-row slacks] and
    rows as [general rows | bound rows].  ``obj_shift`` is the constant such
    that c_std'x_std + obj_shift equals the general objective (including the
    general model's own offset).
    """

    n_general: int
    m_general: int
    n_std: int
    m_std: int
    obj_shift: float
    shifts: np.ndarray          # per general var, 0.0 for split variables
    pos_col: np.ndarray         # structural column of each general var
    neg_col: np.ndarray         # second column of a split variable, else -1
    slack_of_row: np.ndarray    # per std row: slack column index or -1
    slack_coef: np.ndarray      # per std row: +1 / -1 coefficient of that slack
    bound_var: np.ndarray       # per std row: general var of a bound row, else -1

    def slack_columns(self) -> np.ndarray:
        return self.slack_of_row[self.slack_of_row >= 0]


def to_standard_form(g: GeneralLp) -> tuple[StandardLp, StandardFormMap]:
    """Convert a GeneralLp to pure standard form.

    Finite lower bounds are shifted to zero (b adjusted, constant recorded),
    variables with no lower bound are split into a difference of two
    nonnegative columns, finite upper bounds become explicit rows with slack
    columns, and inequality rows gain slack (<=) or surplus (>=) columns.
    """
    g.validate()
    m, n = g.n_rows, g.n_vars
    A_csc = g.A.tocsc()
    col_nnz = np.diff(A_csc.indptr)
    lo, up = g.lower, g.upper

    # structural columns: one per variable, a (pos, neg) pair when lo = -inf
    split = ~np.isfinite(lo)
    widths = 1 + split
    pos_col = np.cumsum(widths) - widths
    neg_col = np.where(split, pos_col + 1, -1)
    n_struct = int(widths.sum())
    shifts = np.where(split, 0.0, lo)

    # each structural column repeats its variable's CSC entries, negated for neg
    src = np.repeat(np.arange(n), widths)
    counts = col_nnz[src]
    starts = np.cumsum(counts) - counts
    entry = np.arange(counts.sum()) + np.repeat(A_csc.indptr[src] - starts, counts)
    sign = np.ones(n_struct)
    sign[neg_col[split]] = -1.0
    struct_vals = A_csc.data[entry] * np.repeat(sign, counts)

    # shifting x_j >= lo_j to zero moves b by A[:, j] lo_j; subtract.at and
    # cumsum apply the terms one column at a time, in column order
    shifted = ~split & (lo != 0.0)
    entry_col = np.repeat(np.arange(n), col_nnz)
    on = shifted[entry_col]
    b_work = g.rhs.copy()
    np.subtract.at(b_work, A_csc.indices[on], A_csc.data[on] * lo[entry_col[on]])
    obj_terms = np.concatenate([[g.obj_offset], g.c[shifted] * lo[shifted]])
    obj_shift = np.cumsum(obj_terms)[-1]

    # inequality rows get a slack / surplus column each
    senses = np.asarray(g.senses, dtype=str)
    ineq = np.nonzero(senses != EQ)[0]
    ineq_coef = np.where(senses[ineq] == LE, 1.0, -1.0)
    ineq_slack = n_struct + np.arange(ineq.size)

    # finite upper bounds become rows x_j (+ slack) = upper - shift
    bound_var = np.nonzero(np.isfinite(up))[0]
    bound_row = m + np.arange(bound_var.size)
    bound_slack = n_struct + ineq.size + np.arange(bound_var.size)
    bound_cols = np.column_stack([pos_col[bound_var], neg_col[bound_var], bound_slack])
    present = bound_cols >= 0
    bound_vals = np.broadcast_to([1.0, -1.0, 1.0], bound_cols.shape)[present]

    m_std, n_std = m + bound_var.size, n_struct + ineq.size + bound_var.size
    rows = np.concatenate([A_csc.indices[entry], ineq, np.repeat(bound_row, present.sum(axis=1))])
    cols = np.concatenate([np.repeat(np.arange(n_struct), counts), ineq_slack, bound_cols[present]])
    vals = np.concatenate([struct_vals, ineq_coef, bound_vals])
    A_std = sp.csr_matrix((vals, (rows, cols)), shape=(m_std, n_std))
    b_std = np.concatenate([b_work, up[bound_var] - shifts[bound_var]])
    c_std = np.zeros(n_std)
    c_std[pos_col] = g.c
    c_std[neg_col[split]] = -g.c[split]

    slack_of_row = np.full(m_std, -1, dtype=int)
    slack_of_row[ineq] = ineq_slack
    slack_of_row[bound_row] = bound_slack
    slack_coef = np.zeros(m_std)
    slack_coef[ineq] = ineq_coef
    slack_coef[bound_row] = 1.0
    bound_var_of_row = np.full(m_std, -1, dtype=int)
    bound_var_of_row[bound_row] = bound_var

    fmap = StandardFormMap(
        n_general=n,
        m_general=m,
        n_std=n_std,
        m_std=m_std,
        obj_shift=float(obj_shift),
        shifts=shifts,
        pos_col=pos_col,
        neg_col=neg_col,
        slack_of_row=slack_of_row,
        slack_coef=slack_coef,
        bound_var=bound_var_of_row,
    )
    return StandardLp(A_std, b_std, c_std), fmap


def _restrict_xy(fmap: StandardFormMap, pt: KktPoint) -> tuple[np.ndarray, np.ndarray]:
    """x and y of restrict_point, for callers that have no use for z."""
    if pt.x.size != fmap.n_std or pt.y.size != fmap.m_std:
        raise InvalidModelError("point does not match the standard form of this map")
    x = pt.x[fmap.pos_col] + fmap.shifts
    split = fmap.neg_col >= 0
    if split.any():
        x = np.where(split, pt.x[fmap.pos_col] - pt.x[np.maximum(fmap.neg_col, 0)], x)
    return x, pt.y[: fmap.m_general].copy()


def restrict_point(g: GeneralLp, fmap: StandardFormMap, pt: KktPoint):
    """Map a standard-form point back to (x, y, z) over the general model.

    z is the general reduced cost c - A'y; dual values of bound rows are
    folded away (they reappear, if needed, through lift_point).
    """
    x, y = _restrict_xy(fmap, pt)
    return x, y, np.asarray(g.c - g.A.T @ y)


def lift_point(
    g: GeneralLp, p: StandardLp, fmap: StandardFormMap, x: np.ndarray, y: np.ndarray
) -> KktPoint:
    """Embed a general-model point into the standard form for measurement.

    Structural entries come from the shift/split mapping (clamped at zero so
    bound violations surface in the equality residuals), slack entries are
    the clamped row activities, bound-row duals are min(0, reduced cost), and
    z = max(0, c - A'y).  An exactly optimal general point lifts to an
    exactly optimal standard point.
    """
    return _lift(g, p, fmap, x, y)[0]


def _lift(
    g: GeneralLp, p: StandardLp, fmap: StandardFormMap, x: np.ndarray, y: np.ndarray
) -> tuple[KktPoint, np.ndarray]:
    """lift_point, and the A'y of the lifted y that its z came from."""
    x = _as_float_array(x, fmap.n_general)
    y = _as_float_array(y, fmap.m_general)

    x_std = np.zeros(fmap.n_std)
    shifted = x - fmap.shifts
    split = fmap.neg_col >= 0
    x_std[fmap.pos_col] = np.maximum(shifted, 0.0)
    if split.any():
        x_std[fmap.neg_col[split]] = np.maximum(-shifted[split], 0.0)

    # slack values from row activities, clamped to stay feasible in sign; the
    # zero goes second in both clamps so that a -0.0 input comes out +0.0
    r = p.b - p.A @ x_std
    rows = np.nonzero(fmap.slack_of_row >= 0)[0]
    x_std[fmap.slack_of_row[rows]] = np.maximum(r[rows] / fmap.slack_coef[rows], 0.0)

    y_std = np.zeros(fmap.m_std)
    y_std[: fmap.m_general] = y
    bound_rows = np.nonzero(fmap.bound_var >= 0)[0]
    if bound_rows.size:
        z_gen = g.c - g.A.T @ y
        y_std[bound_rows] = np.minimum(z_gen[fmap.bound_var[bound_rows]], 0.0)

    aty = p.at_y(y_std)
    return KktPoint(x_std, y_std, np.maximum(0.0, p.c - aty)), aty


def residuals(p: StandardLp, pt: KktPoint, aty: np.ndarray | None = None) -> Residuals:
    """Primal and dual residual vectors plus objectives and complementarity.

    aty, when the caller already holds it, is A'y for pt.y.
    """
    if pt.x.size != p.n or pt.y.size != p.m or pt.z.size != p.n:
        raise InvalidModelError(
            f"point dims ({pt.x.size}, {pt.y.size}, {pt.z.size}) do not match model ({p.n}, {p.m})"
        )
    if aty is None:
        aty = p.at_y(pt.y)
    r_p = p.b - p.A @ pt.x
    r_d = p.c - aty - pt.z
    return Residuals(
        r_p=np.asarray(r_p),
        r_d=np.asarray(r_d),
        primal_obj=float(p.c @ pt.x),
        dual_obj=float(p.b @ pt.y),
        comp=float(pt.x @ pt.z),
    )


def check_relative_termination(
    p: StandardLp, pt: KktPoint, eps_rel: float
) -> TerminationCheck:
    """The three relative optimality inequalities in the 2-norm.

    ||r_p||_2 <= eps (1 + ||b||_2), ||r_d||_2 <= eps (1 + ||c||_2), and
    |c'x - b'y| <= eps (1 + |c'x| + |b'y|).
    """
    return termination_from_residuals(p, residuals(p, pt), eps_rel)


def termination_from_residuals(
    p: StandardLp, res: Residuals, eps_rel: float
) -> TerminationCheck:
    """check_relative_termination on residuals already computed for p."""
    if eps_rel <= 0:
        raise ValueError("eps_rel must be positive")
    p_lhs = float(np.linalg.norm(res.r_p)) if res.r_p.size else 0.0
    d_lhs = float(np.linalg.norm(res.r_d)) if res.r_d.size else 0.0
    p_rhs = eps_rel * (1.0 + (float(np.linalg.norm(p.b)) if p.b.size else 0.0))
    d_rhs = eps_rel * (1.0 + (float(np.linalg.norm(p.c)) if p.c.size else 0.0))
    gap_lhs = abs(res.primal_obj - res.dual_obj)
    gap_rhs = eps_rel * (1.0 + abs(res.primal_obj) + abs(res.dual_obj))
    ok = _holds(p_lhs, p_rhs) and _holds(d_lhs, d_rhs) and _holds(gap_lhs, gap_rhs)
    return TerminationCheck(ok, p_lhs, p_rhs, d_lhs, d_rhs, gap_lhs, gap_rhs)


def violation_summary(p: StandardLp, pt: KktPoint) -> ViolationSummary:
    """Max primal/dual infeasibility (infinity norms) and relative gap.

    Evaluated on exactly the model it is given; callers who want violations
    on the user's model must lift the point into that model's standard form
    first (see lift_point).
    """
    return summary_from_residuals(residuals(p, pt))


def summary_from_residuals(res: Residuals) -> ViolationSummary:
    """violation_summary on residuals already computed."""
    primal_inf = float(np.max(np.abs(res.r_p))) if res.r_p.size else 0.0
    dual_inf = float(np.max(np.abs(res.r_d))) if res.r_d.size else 0.0
    rel_gap = res.comp / (1.0 + abs(res.primal_obj))
    return ViolationSummary(
        primal_inf=primal_inf,
        dual_inf=dual_inf,
        rel_gap=rel_gap,
        max_violation=max(primal_inf, dual_inf, rel_gap),
        comp_negative=res.comp < 0,
    )


def evaluate_general_point(g: GeneralLp, x, y) -> ViolationSummary:
    """Violation of a general-model point, measured on that model's standard form."""
    p, fmap = to_standard_form(g)
    pt, aty = _lift(g, p, fmap, x, y)
    return summary_from_residuals(residuals(p, pt, aty))
