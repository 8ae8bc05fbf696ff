"""Core LP data model: general and standard forms, residuals, and KKT metrics.

The canonical solver form is the pure standard form

    min c'x  s.t.  A x = b,  x >= 0

and every richer model (inequalities, bounds, free variables) is mapped onto
it by :func:`to_standard_form`.  The mapping is invertible through a
:class:`StandardFormMap`, and :func:`evaluate_general_point` embeds a
general-model point into the standard space through it, so that
feasibility violations are measured on the model the user actually wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

LE = "<="
GE = ">="
EQ = "="
SENSES = (LE, GE, EQ)
_SLACK_COEF = {LE: 1.0, GE: -1.0, EQ: 0.0}  # a row's slack coefficient in the standard form


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


def csr_rmatvec(M: sp.csr_matrix, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = M' v for a CSR matrix M, written into the float64 array out.

    M's CSR arrays are M' in CSC form, so scipy's CSC kernel forms the
    product without building M.T, bitwise equal to ``M.T @ v``.  For a
    canonical M it also equals a CSR product with M' (each entry sums its
    terms from 0 in increasing row order).
    """
    out.fill(0.0)
    _sparsetools.csc_matvec(M.shape[1], M.shape[0], M.indptr, M.indices, M.data, v, out)
    return out


def _canonical_csr(A) -> sp.csr_matrix:
    """A as float64 CSR with sorted indices, duplicates summed and no stored
    zeros.  A float64 csr_matrix already in that form is returned as it is;
    any other is converted, and canonicalized in a copy, so the caller's is
    never changed."""
    if not (isinstance(A, sp.csr_matrix) and A.dtype == np.float64):
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
        """Raise InvalidModelError on non-finite data, on bounds that cannot
        hold (NaN, a lower bound of +inf, an upper bound of -inf) or on
        crossed bounds."""
        data = (("objective coefficients", self.c), ("right-hand sides", self.rhs),
                ("matrix entries", self.A.data))
        for what, v in data:
            if not np.isfinite(v).all():
                raise InvalidModelError(f"{what} must be finite")
        if not set(self.senses) <= set(SENSES):
            bad = [s for s in self.senses if s not in SENSES]
            raise InvalidModelError(f"unknown row sense {bad[0]!r}")
        lo, up = self.lower, self.upper
        # lo <= up fails on a NaN; the standard form would read a lower bound
        # of +inf or an upper bound of -inf as no bound
        if ((lo <= up).all() and lo.max(initial=-np.inf) < np.inf
                and up.min(initial=np.inf) > -np.inf):
            return
        impossible = np.nonzero(~(lo < np.inf) | ~(up > -np.inf))[0]
        if impossible.size:
            j = int(impossible[0])
            raise InvalidModelError(f"variable {j} has bounds [{lo[j]}, {up[j]}] that cannot hold")
        j = int(np.nonzero(lo > up)[0][0])
        raise InvalidModelError(f"variable {j} has lower bound {lo[j]} above upper bound {up[j]}")

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


def _normal_pairs(A: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """StandardLp.normal_pairs of the canonical CSR matrix A.

    scipy's CSR-to-CSC kernel, run on the entries' positions in place of
    their values, lists them and their rows column by column without a CSC
    matrix.  The entry that is the a-th of its column pairs with the a + 1
    entries of that column at or above it; taking the entries in column
    order lists the pairs column by column, so no sort is needed.
    """
    m, n = A.shape
    ptr = np.empty(n + 1, A.indptr.dtype)
    rows, pos = np.empty_like(A.indices), np.empty_like(A.indices)
    _sparsetools.csr_tocsc(
        m, n, A.indptr, A.indices, np.arange(A.nnz, dtype=pos.dtype), ptr, rows, pos
    )
    start = np.repeat(ptr[:-1], np.diff(ptr))
    per = np.arange(A.nnz) - start + 1
    ek = np.arange(int(per.sum())) - np.repeat(np.cumsum(per) - per - start, per)
    # intp, numpy's index type: bincount reads flat, and fancy indexing ei,
    # without a conversion copy
    rows, pos = rows.astype(np.intp), pos.astype(np.intp)
    return np.repeat(pos, per), np.repeat(rows, per) + m * rows[ek], A.data[pos][ek]


@dataclass
class StandardLp:
    """min c'x s.t. Ax = b, x >= 0, with a canonical CSR A, its one stored form."""

    A: sp.csr_matrix
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.A = _canonical_csr(self.A)
        m, n = self.A.shape
        self.b = _as_float_array(self.b, m)
        self.c = _as_float_array(self.c, n)
        if not (np.isfinite(self.b).all() and np.isfinite(self.c).all()):
            raise InvalidModelError("b and c must be finite")
        if not np.isfinite(self.A.data).all():
            raise InvalidModelError("matrix entries must be finite")
        self._pairs = None

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @cached_property
    def bc_norms(self) -> tuple[float, float]:
        """(||b||_2, ||c||_2) by np.linalg.norm's arithmetic sqrt(v @ v), once per model."""
        return math.sqrt(self.b @ self.b), math.sqrt(self.c @ self.c)

    @property
    def normal_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pair of entries (a_ij, a_kj) of one column j with i >= k, as
        (position of a_ij in A.data, flat index i + k m of an m x m
        Fortran-ordered array, a_kj), in increasing j: the lower triangle of
        A D^2 A' in the order the sparse product sums it."""
        if self._pairs is None:
            self._pairs = _normal_pairs(self.A)
        return self._pairs

    def at_y(self, y: np.ndarray) -> np.ndarray:
        """A'y by csr_rmatvec, bitwise ``A.T @ y``."""
        return csr_rmatvec(self.A, y, np.empty(self.n))


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

    @property
    def comp_negative(self) -> bool:
        return self.rel_gap < 0


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


def _standard_map(g: GeneralLp) -> StandardFormMap:
    """The layout of g's standard form: its StandardFormMap, without A, b or c."""
    m, n = g.n_rows, g.n_vars
    lo, up = g.lower, g.upper

    # structural columns: one per variable, a (pos, neg) pair when lo = -inf
    split = ~np.isfinite(lo)
    widths = 1 + split
    pos_col = np.cumsum(widths) - widths
    neg_col = np.where(split, pos_col + 1, -1)
    n_struct = int(widths.sum())
    shifts = np.where(split, 0.0, lo)
    shifted = ~split & (lo != 0.0)
    obj_terms = np.concatenate([[g.obj_offset], g.c[shifted] * lo[shifted]])
    obj_shift = np.cumsum(obj_terms)[-1]

    # inequality rows get a slack / surplus column each, and finite upper
    # bounds become rows x_j (+ slack) = upper - shift; the slack columns
    # follow the structural ones in row order
    bound_var = np.flatnonzero(np.isfinite(up))
    row_coef = np.fromiter(map(_SLACK_COEF.get, g.senses), float, m)
    slack_coef = np.concatenate((row_coef, np.ones(bound_var.size)))
    slack_rows = np.flatnonzero(slack_coef)
    m_std, n_std = m + bound_var.size, n_struct + slack_rows.size
    slack_of_row = np.full(m_std, -1)
    slack_of_row[slack_rows] = n_struct + np.arange(slack_rows.size)
    bound_var_of_row = np.concatenate((np.full(m, -1), bound_var))

    return StandardFormMap(
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


def _standard_b_c(g: GeneralLp, fmap: StandardFormMap) -> tuple[np.ndarray, np.ndarray]:
    """b and c of g's standard form.

    Shifting x_j >= lo_j to zero moves b by A[:, j] lo_j.  np.subtract.at
    applies a row's terms one at a time in A's CSR order, which is column
    order within the row, as the terms of the columns would arrive one
    column after another.  Bound rows get upper - shift.
    """
    A, m = g.A, fmap.m_general
    b = g.rhs.copy()
    if fmap.shifts.any():
        on = fmap.shifts[A.indices] != 0.0
        rows = np.repeat(np.arange(m), np.diff(A.indptr))
        np.subtract.at(b, rows[on], A.data[on] * fmap.shifts[A.indices[on]])
    bound_var = fmap.bound_var[m:]
    b = np.concatenate([b, g.upper[bound_var] - fmap.shifts[bound_var]])
    if not np.isfinite(b).all():
        raise InvalidModelError("b and c must be finite")
    split = fmap.neg_col >= 0
    c = np.zeros(fmap.n_std)
    c[fmap.pos_col] = g.c
    c[fmap.neg_col[split]] = -g.c[split]
    return b, c


def to_standard_form(g: GeneralLp) -> tuple[StandardLp, StandardFormMap]:
    """Convert a GeneralLp to pure standard form.

    Finite lower bounds are shifted to zero (b adjusted, constant recorded),
    variables with no lower bound are split into a difference of two
    nonnegative columns, finite upper bounds become explicit rows with slack
    columns, and inequality rows gain slack (<=) or surplus (>=) columns.
    A_std's entries are listed from the StandardFormMap: each entry a of A's
    row i sits at (i, pos_col) of its variable, and -a at (i, neg_col) for a
    split variable; each row's slack, bound rows' too, sits at
    (i, slack_of_row[i]) with its slack_coef; a bound row also holds 1 at its
    variable's pos_col and -1 at its neg_col.  No two entries share a
    position, so scipy's COO-to-CSR and index-sort kernels give the CSR
    arrays of csr_matrix((val, (row, col))) directly.  g is validated
    first; the pipeline's _standard_form skips that on presolve's output.
    """
    g.validate()
    return _standard_form(g)


def _standard_form(g: GeneralLp) -> tuple[StandardLp, StandardFormMap]:
    """to_standard_form without validating g: presolve's output, sliced from a valid model."""
    fmap = _standard_map(g)
    b_std, c_std = _standard_b_c(g, fmap)
    A, m = g.A, fmap.m_general
    rows = np.repeat(np.arange(m), np.diff(A.indptr))
    split = fmap.neg_col[A.indices] >= 0
    slack_rows = np.nonzero(fmap.slack_of_row >= 0)[0]
    bound_rows, bound_var = np.arange(m, fmap.m_std), fmap.bound_var[m:]
    bound_split = fmap.neg_col[bound_var] >= 0
    entries = [  # (row, column, value) of each kind of entry
        (rows, fmap.pos_col[A.indices], A.data),
        (rows[split], fmap.neg_col[A.indices[split]], -A.data[split]),
        (slack_rows, fmap.slack_of_row[slack_rows], fmap.slack_coef[slack_rows]),
        (bound_rows, fmap.pos_col[bound_var], np.ones(bound_var.size)),
        (bound_rows[bound_split], fmap.neg_col[bound_var[bound_split]],
         np.full(int(bound_split.sum()), -1.0)),
    ]
    row, col, val = (np.concatenate(parts) for parts in zip(*entries))
    shape, nnz = (fmap.m_std, fmap.n_std), val.size
    idx = np.int32 if max(nnz, *shape) <= np.iinfo(np.int32).max else np.int64
    ptr, ind, data = np.empty(shape[0] + 1, idx), np.empty(nnz, idx), np.empty(nnz)
    _sparsetools.coo_tocsr(*shape, nnz, row.astype(idx), col.astype(idx), val, ptr, ind, data)
    _sparsetools.csr_sort_indices(shape[0], ptr, ind, data)
    return StandardLp(sp.csr_matrix((data, ind, ptr), shape=shape), b_std, c_std), fmap


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
    folded away (_lift sets them again from the reduced costs).
    """
    x, y = _restrict_xy(fmap, pt)
    return x, y, g.c - csr_rmatvec(g.A, y, np.empty(g.n_vars))


def _lift(
    g: GeneralLp, fmap: StandardFormMap, b: np.ndarray, x, y
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Embed a general-model point (x, y) into g's standard form.

    Returns (x_std, y_std, A_std x_std, A_std' y_std), where b is the
    standard form's right-hand side; the products are formed from g.A's CSR
    arrays without building A_std.  Structural entries of x_std come from
    the shift/split mapping (clamped at zero so bound violations surface in
    the equality residuals), slack entries are the clamped row activities,
    and bound-row duals are min(0, reduced cost).  With z = max(0, c_std -
    A_std' y_std), an exactly optimal general point lifts to an exactly
    optimal standard point.

    Each product of A_std sums its terms from 0 in index order, so:
    - row i of A_std x_std is (g.A u)_i, with u = x+ - x- per variable (one
      of the two is 0, and adding a zero term to such a sum changes
      nothing), then the row's slack term; a bound row is u_j + its slack;
    - entry j of A_std' y_std is (g.A' y)_j, then the dual of j's bound
      row; a split variable's second column is 0 - that, and a slack
      column is 0 + its coefficient times its row's dual.
    Both are therefore bitwise the sparse products of the built A_std.
    """
    m = fmap.m_general
    x = _as_float_array(x, fmap.n_general)
    y = _as_float_array(y, m)
    split = fmap.neg_col >= 0
    bound_var = fmap.bound_var[m:]
    rows = np.nonzero(fmap.slack_of_row >= 0)[0]
    slack_cols, coef = fmap.slack_of_row[rows], fmap.slack_coef[rows]

    # x_std, its slacks clamped from the activities without them; the zero
    # goes second in the clamps so that a -0.0 input comes out +0.0
    shifted = x - fmap.shifts
    x_pos = np.maximum(shifted, 0.0)
    x_neg = np.maximum(-shifted[split], 0.0)
    x_std = np.zeros(fmap.n_std)
    x_std[fmap.pos_col] = x_pos
    x_std[fmap.neg_col[split]] = x_neg
    u = x_pos
    u[split] -= x_neg
    ax = np.concatenate([csr_matvec(g.A, u, np.empty(m)), u[bound_var]])
    slack = np.maximum((b[rows] - ax[rows]) / coef, 0.0)
    x_std[slack_cols] = slack
    ax[rows] += coef * slack

    # y_std, its bound-row duals min(0, reduced cost), and A_std' y_std
    aty = csr_rmatvec(g.A, y, np.empty(fmap.n_general))
    y_std = np.zeros(fmap.m_std)
    y_std[:m] = y
    y_std[m:] = np.minimum((g.c - aty)[bound_var], 0.0)
    aty[bound_var] += y_std[m:]
    aty_std = np.zeros(fmap.n_std)
    aty_std[fmap.pos_col] = aty
    aty_std[fmap.neg_col[split]] = 0.0 - aty[split]
    aty_std[slack_cols] = 0.0 + coef * y_std[rows]
    return x_std, y_std, ax, aty_std


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
    return Residuals(
        r_p=p.b - csr_matvec(p.A, pt.x, np.empty(p.m)),
        r_d=p.c - aty - pt.z,
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
    """check_relative_termination on residuals already computed for p; each norm
    is np.linalg.norm's sqrt(v @ v), and ||b||, ||c|| come once per model."""
    if not eps_rel > 0:
        raise ValueError("eps_rel must be positive")
    b_norm, c_norm = p.bc_norms
    p_lhs = math.sqrt(res.r_p @ res.r_p)
    d_lhs = math.sqrt(res.r_d @ res.r_d)
    p_rhs = eps_rel * (1.0 + b_norm)
    d_rhs = eps_rel * (1.0 + c_norm)
    gap_lhs = abs(res.primal_obj - res.dual_obj)
    gap_rhs = eps_rel * (1.0 + abs(res.primal_obj) + abs(res.dual_obj))
    ok = _holds(p_lhs, p_rhs) and _holds(d_lhs, d_rhs) and _holds(gap_lhs, gap_rhs)
    return TerminationCheck(ok, p_lhs, p_rhs, d_lhs, d_rhs, gap_lhs, gap_rhs)


def violation_summary(p: StandardLp, pt: KktPoint) -> ViolationSummary:
    """Max primal/dual infeasibility (infinity norms) and relative gap.

    Evaluated on exactly the model it is given; violations on the user's
    model are measured on that model's standard form by
    evaluate_general_point.
    """
    return summary_from_residuals(residuals(p, pt))


def summary_from_residuals(res: Residuals) -> ViolationSummary:
    """violation_summary on residuals already computed."""
    primal_inf = float(np.abs(res.r_p).max()) if res.r_p.size else 0.0
    dual_inf = float(np.abs(res.r_d).max()) if res.r_d.size else 0.0
    rel_gap = res.comp / (1.0 + abs(res.primal_obj))
    return ViolationSummary(
        primal_inf=primal_inf,
        dual_inf=dual_inf,
        rel_gap=rel_gap,
        max_violation=max(primal_inf, dual_inf, rel_gap),
    )


def evaluate_general_point(g: GeneralLp, x, y) -> ViolationSummary:
    """Violation of a general-model point, measured on that model's standard form.

    The result is violation_summary(p, KktPoint(x_std, y_std, z)) with p =
    to_standard_form(g), (x, y) lifted into p by _lift's rules and z =
    max(0, c_std - A_std' y_std), bit for bit, computed from g.A's CSR
    arrays without building p.  The objectives and x'z are dot products
    over vectors laid out as p's.
    """
    g.validate()
    fmap = _standard_map(g)
    b, c = _standard_b_c(g, fmap)
    x_std, y_std, ax, aty_std = _lift(g, fmap, b, x, y)
    z = np.maximum(0.0, c - aty_std)
    return summary_from_residuals(Residuals(
        r_p=b - ax,
        r_d=c - aty_std - z,
        primal_obj=float(c @ x_std),
        dual_obj=float(b @ y_std),
        comp=float(x_std @ z),
    ))
