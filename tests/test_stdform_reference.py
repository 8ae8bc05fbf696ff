"""The array-built standard form against the loop-built reference.

reference_to_standard_form and reference_lift_point are the earlier
loop-per-column implementations, kept verbatim.  On canonical models (no
duplicate entries) the array-built to_standard_form must give the same A,
b, c and StandardFormMap bit for bit, and _lift, with z = max(0, c - A'y),
the same lifted point, and A_std's products with it.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hybridlp import (
    EQ,
    GE,
    LE,
    GeneralLp,
    KktPoint,
    StandardFormMap,
    StandardLp,
    parse_mps,
    to_standard_form,
)
from hybridlp.lp_core import _as_float_array, _lift

from _desk import desk_suite

FIXTURES = Path(__file__).parent / "fixtures"


def reference_to_standard_form(g: GeneralLp) -> tuple[StandardLp, StandardFormMap]:
    """Convert a GeneralLp to pure standard form.

    Finite lower bounds are shifted to zero (b adjusted, constant recorded),
    variables with no lower bound are split into a difference of two
    nonnegative columns, finite upper bounds become explicit rows with slack
    columns, and inequality rows gain slack (<=) or surplus (>=) columns.
    """
    g.validate()
    m, n = g.n_rows, g.n_vars
    A_csc = g.A.tocsc()

    shifts = np.zeros(n)
    pos_col = np.full(n, -1, dtype=int)
    neg_col = np.full(n, -1, dtype=int)

    rows_ij = []
    cols_ij = []
    vals = []
    c_std = []
    obj_shift = g.obj_offset
    b_work = g.rhs.copy()

    next_col = 0
    for j in range(n):
        start, end = A_csc.indptr[j], A_csc.indptr[j + 1]
        col_rows = A_csc.indices[start:end]
        col_vals = A_csc.data[start:end]
        lo = g.lower[j]
        if np.isfinite(lo):
            pos_col[j] = next_col
            shifts[j] = lo
            rows_ij.extend(col_rows)
            cols_ij.extend([next_col] * col_rows.size)
            vals.extend(col_vals)
            c_std.append(g.c[j])
            if lo != 0.0:
                b_work[col_rows] -= col_vals * lo
                obj_shift += g.c[j] * lo
            next_col += 1
        else:
            pos_col[j] = next_col
            neg_col[j] = next_col + 1
            rows_ij.extend(col_rows)
            cols_ij.extend([next_col] * col_rows.size)
            vals.extend(col_vals)
            rows_ij.extend(col_rows)
            cols_ij.extend([next_col + 1] * col_rows.size)
            vals.extend(-col_vals)
            c_std.extend([g.c[j], -g.c[j]])
            next_col += 2

    # inequality rows get a slack / surplus column each
    row_slack_col = {}
    for i, sense in enumerate(g.senses):
        if sense == EQ:
            continue
        coef = 1.0 if sense == LE else -1.0
        rows_ij.append(i)
        cols_ij.append(next_col)
        vals.append(coef)
        c_std.append(0.0)
        row_slack_col[i] = (next_col, coef)
        next_col += 1

    # finite upper bounds become rows x_j (+ slack) = upper - shift
    b_extra = []
    bound_rows = []
    next_row = m
    for j in range(n):
        up = g.upper[j]
        if not np.isfinite(up):
            continue
        rows_ij.append(next_row)
        cols_ij.append(pos_col[j])
        vals.append(1.0)
        if neg_col[j] >= 0:
            rows_ij.append(next_row)
            cols_ij.append(neg_col[j])
            vals.append(-1.0)
        rows_ij.append(next_row)
        cols_ij.append(next_col)
        vals.append(1.0)
        c_std.append(0.0)
        row_slack_col[next_row] = (next_col, 1.0)
        bound_rows.append((next_row, j))
        b_extra.append(up - shifts[j])
        next_col += 1
        next_row += 1

    m_std, n_std = next_row, next_col
    A_std = sp.csr_matrix(
        (np.asarray(vals, dtype=float), (rows_ij, cols_ij)), shape=(m_std, n_std)
    )
    b_std = np.concatenate([b_work, np.asarray(b_extra, dtype=float)])

    slack_of_row = np.full(m_std, -1, dtype=int)
    slack_coef = np.zeros(m_std)
    for i, (col, coef) in row_slack_col.items():
        slack_of_row[i] = col
        slack_coef[i] = coef
    bound_var = np.full(m_std, -1, dtype=int)
    for r, j in bound_rows:
        bound_var[r] = j

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
        bound_var=bound_var,
    )
    return StandardLp(A_std, b_std, np.asarray(c_std, dtype=float)), fmap


def reference_lift_point(
    g: GeneralLp, p: StandardLp, fmap: StandardFormMap, x: np.ndarray, y: np.ndarray
) -> KktPoint:
    """Embed a general-model point into the standard form for measurement.

    Structural entries come from the shift/split mapping (clamped at zero so
    bound violations surface in the equality residuals), slack entries are
    the clamped row activities, bound-row duals are min(0, reduced cost), and
    z = max(0, c - A'y).  An exactly optimal general point lifts to an
    exactly optimal standard point.
    """
    x = _as_float_array(x, fmap.n_general)
    y = _as_float_array(y, fmap.m_general)

    x_std = np.zeros(fmap.n_std)
    shifted = x - fmap.shifts
    split = fmap.neg_col >= 0
    x_std[fmap.pos_col] = np.maximum(shifted, 0.0)
    if split.any():
        x_std[fmap.neg_col[split]] = np.maximum(-shifted[split], 0.0)

    # slack values from row activities, clamped to stay feasible in sign
    r = p.b - p.A @ x_std
    has_slack = fmap.slack_of_row >= 0
    rows = np.nonzero(has_slack)[0]
    for i in rows:
        col = fmap.slack_of_row[i]
        coef = fmap.slack_coef[i]
        x_std[col] = max(0.0, r[i] / coef)

    y_std = np.zeros(fmap.m_std)
    y_std[: fmap.m_general] = y
    bound_rows = np.nonzero(fmap.bound_var >= 0)[0]
    if bound_rows.size:
        z_gen = g.c - g.A.T @ y
        for i in bound_rows:
            y_std[i] = min(0.0, z_gen[fmap.bound_var[i]])

    z_std = np.maximum(0.0, p.c - p.at_y(y_std))
    return KktPoint(x_std, y_std, z_std)


def _bits(a: np.ndarray):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def assert_same_form(got, want):
    (p, fmap), (p_ref, fmap_ref) = got, want
    assert p.A.shape == p_ref.A.shape
    for name in ("indptr", "indices", "data"):
        assert _bits(getattr(p.A, name)) == _bits(getattr(p_ref.A, name)), name
    assert _bits(p.b) == _bits(p_ref.b)
    assert _bits(p.c) == _bits(p_ref.c)
    for name in ("n_general", "m_general", "n_std", "m_std"):
        assert getattr(fmap, name) == getattr(fmap_ref, name), name
    assert repr(fmap.obj_shift) == repr(fmap_ref.obj_shift)
    for name in ("shifts", "pos_col", "neg_col", "slack_of_row", "slack_coef", "bound_var"):
        assert _bits(getattr(fmap, name)) == _bits(getattr(fmap_ref, name)), name


def _points(g: GeneralLp, rng, count: int = 3):
    """General points that sit on, inside and outside the bounds."""
    n, m = g.n_vars, g.n_rows
    lo = np.where(np.isfinite(g.lower), g.lower, -1.0)
    up = np.where(np.isfinite(g.upper), g.upper, lo + 2.0)
    for k in range(count):
        x = rng.uniform(lo - 0.5, up + 0.5) if k else np.zeros(n)
        pick = rng.integers(4, size=n)
        x = np.where(pick == 0, lo, np.where(pick == 1, up, x))
        y = rng.normal(size=m)
        y[rng.random(m) < 0.3] = 0.0
        yield x, y


def assert_same_lift(g: GeneralLp, rng):
    p, fmap = to_standard_form(g)
    for x, y in _points(g, rng):
        x_std, y_std, ax, aty = _lift(g, fmap, p.b, x, y)
        got = KktPoint(x_std, y_std, np.maximum(0.0, p.c - aty))
        want = reference_lift_point(g, p, fmap, x, y)
        for name in ("x", "y", "z"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert _bits(ax) == _bits(p.A @ want.x)
        assert _bits(aty) == _bits(p.at_y(want.y))


def assert_matches_reference(g: GeneralLp, seed: int = 0):
    assert_same_form(to_standard_form(g), reference_to_standard_form(g))
    assert_same_lift(g, np.random.default_rng(seed))


# -- fixed corpora ----------------------------------------------------------

def _planted(m: int, n: int, seed: int, density: float, le_frac: float) -> GeneralLp:
    """A benchmark-shaped planted LP: sparse A with summed duplicates, a +3
    diagonal on the active rows, mixed = and <= rows, x >= 0."""
    rng = np.random.default_rng(seed)
    nnz = int(density * m * n)
    A = sp.csr_matrix(
        (rng.uniform(-2.0, 2.0, nnz), (rng.integers(m, size=nnz), rng.integers(n, size=nnz))),
        shape=(m, n),
    )
    is_le = rng.random(m) < le_frac
    inactive = is_le & (rng.random(m) < 0.5)
    active = np.nonzero(~inactive)[0]
    A = A + sp.csr_matrix((np.full(active.size, 3.0), (active, np.arange(active.size))), shape=(m, n))
    x_star = np.zeros(n)
    x_star[: active.size] = rng.uniform(0.5, 2.0, active.size)
    y_star = np.where(is_le, -rng.uniform(0.1, 1.0, m), rng.normal(size=m) * 0.5)
    y_star[inactive] = 0.0
    z_star = np.zeros(n)
    z_star[active.size:] = rng.uniform(0.1, 2.0, n - active.size)
    return GeneralLp(
        c=A.T @ y_star + z_star, A=A, senses=np.where(is_le, LE, EQ),
        rhs=A @ x_star + inactive * rng.uniform(0.5, 1.5, m),
        lower=np.zeros(n), upper=np.full(n, np.inf),
    )


def _padded(seed: int, n_fixed: int, n_single: int, n_empty: int) -> GeneralLp:
    """A planted core padded with fixed variables in core rows, singleton
    rows on new variables, empty columns and loose upper bounds on the core."""
    core = _planted(100, 175, seed, 0.03, 0.4)
    m, n = core.n_rows, core.n_vars
    rng = np.random.default_rng(seed + 1)
    width = n_fixed + n_single
    cols = np.repeat(np.arange(width), rng.integers(1, 4, size=width))
    extra = sp.csr_matrix(
        (rng.uniform(-2.0, 2.0, cols.size), (rng.integers(m, size=cols.size), cols)),
        shape=(m, width),
    )
    top = sp.hstack([core.A, extra, sp.csr_matrix((m, n_empty))])
    bottom = sp.hstack([
        sp.csr_matrix((n_single, n + n_fixed)),
        sp.diags(rng.uniform(0.5, 2.0, n_single)),
        sp.csr_matrix((n_single, n_empty)),
    ])
    fix_val = rng.uniform(0.0, 2.0, n_fixed)
    up_empty = np.where(rng.random(n_empty) < 0.5, 2.0, np.inf)
    return GeneralLp(
        c=np.concatenate([core.c, rng.uniform(-1.0, 1.0, width + n_empty)]),
        A=sp.vstack([top, bottom], format="csr"),
        senses=list(core.senses) + [EQ] * n_single,
        rhs=np.concatenate([core.rhs, rng.uniform(0.5, 2.0, n_single)]),
        lower=np.concatenate([np.zeros(n), fix_val, np.zeros(n_single + n_empty)]),
        upper=np.concatenate([
            rng.uniform(4.0, 6.0, n), fix_val, np.full(n_single, np.inf), up_empty,
        ]),
    )


def _fixed_models():
    models = [(inst.name, inst.model) for inst in desk_suite()]
    models += [(path.name, parse_mps(path.read_text())) for path in sorted(FIXTURES.glob("*.mps"))]
    models += [
        ("planted_200x350", _planted(200, 350, 1, 0.02, 0.3)),
        ("planted_1000x1800", _planted(1000, 1800, 2, 0.004, 0.3)),
        ("padded_100x175", _padded(3, 800, 800, 400)),
    ]
    return models


FIXED = _fixed_models()


def test_fixed_corpus_size():
    assert len(FIXED) == 23 + 5 + 3


@pytest.mark.parametrize("name, g", FIXED, ids=[name for name, _ in FIXED])
def test_fixed_models_match_the_reference(name, g):
    assert_matches_reference(g)


# -- seeded random canonical models -------------------------------------------

VARIABLE_KINDS = ("zero", "shifted", "free", "boxed", "free-upper")
CHUNKS = 10
PER_CHUNK = 110


def random_model(rng) -> tuple[GeneralLp, set]:
    """A small canonical model and the set of features it exercises."""
    m, n = int(rng.integers(0, 9)), int(rng.integers(0, 11))
    dense = rng.uniform(-3.0, 3.0, (m, n))
    dense[rng.random((m, n)) < rng.uniform(0.3, 0.9)] = 0.0
    dense[rng.random((m, n)) < 0.05] = -0.0
    A = sp.csr_matrix(dense)
    # a stored zero keeps A canonical (sorted, no duplicates)
    if A.nnz and rng.random() < 0.2:
        A.data[rng.integers(A.nnz)] = 0.0

    kind = rng.integers(len(VARIABLE_KINDS), size=n)
    lo = np.where(rng.random(n) < 0.5, rng.uniform(-4.0, 4.0, n), rng.integers(-3, 4, n) * 1.0)
    lower = np.select([kind == 0, kind == 2, kind == 4], [0.0, -np.inf, -np.inf], lo)
    lower[(kind == 0) & (rng.random(n) < 0.2)] = -0.0
    upper = np.where((kind == 3) | (kind == 4), lower + rng.uniform(0.0, 5.0, n), np.inf)
    upper[kind == 4] = rng.uniform(-2.0, 3.0, int((kind == 4).sum()))
    c = rng.normal(size=n)
    c[rng.random(n) < 0.15] = -0.0
    c[rng.random(n) < 0.15] = 0.0
    rhs = rng.normal(size=m) * 3.0
    rhs[rng.random(m) < 0.2] = 0.0
    senses = rng.choice([LE, GE, EQ], size=m)
    offset = float(rng.choice([0.0, -0.0, rng.normal() * 10.0]))
    g = GeneralLp(c=c, A=A, senses=senses, rhs=rhs, lower=lower, upper=upper, obj_offset=offset)

    features = {VARIABLE_KINDS[k] for k in kind} | set(g.senses)
    row_nnz = np.diff(A.indptr)
    col_nnz = np.bincount(A.indices, minlength=n)
    if (row_nnz == 0).any():
        features.add("empty-row")
    if (col_nnz == 0).any():
        features.add("empty-col")
    if offset != 0.0:
        features.add("offset")
    return g, features


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_random_canonical_models_match_the_reference(chunk):
    rng = np.random.default_rng([7, chunk])
    seen = set()
    for k in range(PER_CHUNK):
        g, features = random_model(rng)
        seen |= features
        assert_matches_reference(g, seed=k)
    want = {LE, GE, EQ, "empty-row", "empty-col", "offset", *VARIABLE_KINDS}
    assert want <= seen, want - seen


# -- models with duplicate entries ----------------------------------------------

def test_duplicates_are_summed_before_the_shift():
    """A duplicate pair shifts b by the sum that A_std holds, so the result is
    the reference's on the canonical copy of A."""
    A = sp.csr_matrix(([1.0, 1.0, 1.0], [0, 0, 1], [0, 3]), shape=(1, 2))
    g = GeneralLp(c=[1.0, 1.0], A=A, senses=[EQ], rhs=[5.0], lower=[1.0, 0.0], upper=[np.inf] * 2)
    summed = A.copy()
    summed.sum_duplicates()
    canonical = GeneralLp(c=g.c, A=summed, senses=g.senses, rhs=g.rhs, lower=g.lower, upper=g.upper)
    p, fmap = to_standard_form(g)
    np.testing.assert_array_equal(p.A.toarray(), [[2.0, 1.0]])
    np.testing.assert_array_equal(p.b, [3.0])
    assert_same_form((p, fmap), reference_to_standard_form(canonical))
    assert A.nnz == 3, "the caller's matrix is left as it was"
