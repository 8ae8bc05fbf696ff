"""Bitwise pins of presolve and postsolve against their per-reduction rebuild.

presolve keeps one canonical copy of A with live flags over the original
rows and columns, and postsolve scatters the reduced point back.  The
reference below is the formulation they replaced: it rebuilds the matrix
after every reduction, records indices at reduction time and restores
points with one np.insert per record.  On canonical matrices (no stored
zeros, no duplicate entries) the two must agree exactly: verdicts, record
sequences, the reduced model and restored points.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hybridlp import EQ, GE, LE, GeneralLp, InvalidModelError, KktPoint, parse_mps
from hybridlp.transform import (
    _FEAS_TOL,
    EmptyColumn,
    EmptyRow,
    FixedVariable,
    PresolveResult,
    PresolveStatus,
    SingletonRow,
    _row_dots,
    postsolve,
    presolve,
)

from _desk import desk_suite

FIXTURES = Path(__file__).parent / "fixtures"


@dataclass
class RecordStack:
    """The reference's reduction stack: records appended one at a time."""

    n_original: int
    m_original: int
    records: list = field(default_factory=list)

    @property
    def n_reduced(self) -> int:
        return self.n_original - sum(not isinstance(r, EmptyRow) for r in self.records)

    @property
    def m_reduced(self) -> int:
        return self.m_original - sum(isinstance(r, (EmptyRow, SingletonRow)) for r in self.records)


def _drop_col(A: sp.csc_matrix, j: int) -> sp.csc_matrix:
    keep = np.ones(A.shape[1], dtype=bool)
    keep[j] = False
    return A[:, keep]


def _drop_row(A: sp.csc_matrix, i: int) -> sp.csc_matrix:
    keep = np.ones(A.shape[0], dtype=bool)
    keep[i] = False
    return A.tocsr()[keep].tocsc()


def reference_presolve(g: GeneralLp) -> PresolveResult:
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
    stack = RecordStack(n_original=g.n_vars, m_original=g.n_rows)

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


def reference_postsolve(stack: RecordStack, pt: KktPoint, original: GeneralLp) -> KktPoint:
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


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def random_model(seed: int) -> GeneralLp:
    """A small model mixing every rule: fixed bounds, all three senses, empty
    rows and columns, singleton rows that chain, and verdicts.

    Right-hand sides come from a point inside the bounds, so most models
    reduce; a third get random right-hand sides, which most often end in
    an infeasibility verdict.
    """
    rng = np.random.default_rng([seed, 5])
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    values = np.where(
        rng.random((m, n)) < 0.5,
        rng.integers(-3, 4, (m, n)).astype(float),
        rng.uniform(-2.0, 2.0, (m, n)),
    )
    A = np.where(rng.random((m, n)) < rng.uniform(0.1, 0.6), values, 0.0)
    senses = [str(s) for s in rng.choice([EQ, EQ, LE, GE], m)]
    lower = rng.choice([0.0, -1.0, 0.5, -np.inf], n)
    width = rng.choice([0.0, 0.0, 5.0, np.inf], n)
    upper = np.where(np.isinf(lower), width + 1.0, np.where(np.isinf(lower), 0.0, lower) + width)
    x0 = np.clip(rng.uniform(-2.0, 2.0, n), lower, upper)
    slack = {EQ: 0.0, LE: 1.0, GE: -1.0}
    rhs = A @ x0 + np.array([slack[s] for s in senses]) * rng.uniform(0.0, 1.0, m)
    if rng.random() < 1 / 3:
        rhs = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(-2.0, 2.0, m))
    c = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-2.0, 2.0, n))
    return GeneralLp(
        c=c, A=sp.csr_matrix(A), senses=senses, rhs=rhs, lower=lower, upper=upper,
        obj_offset=float(rng.uniform(-1.0, 1.0)),
    )


def padded_model(seed: int, m: int = 30, n: int = 50, n_fixed: int = 300,
                 n_singleton: int = 300, n_empty: int = 150) -> GeneralLp:
    """A random core padded with fixed columns and singleton-row columns that
    touch core rows, and with empty columns."""
    rng = np.random.default_rng([seed, 6])
    core = sp.random(m, n, density=0.2, random_state=rng, format="csr")
    core = core + sp.csr_matrix((np.full(m, 3.0), (np.arange(m), np.arange(m))), shape=(m, n))
    extra = n_fixed + n_singleton
    per = rng.integers(1, 4, size=extra)
    cols = np.repeat(np.arange(extra), per)
    touch = sp.csr_matrix(
        (rng.uniform(-2.0, 2.0, cols.size), (rng.integers(m, size=cols.size), cols)),
        shape=(m, extra),
    )
    top = sp.hstack([core, touch, sp.csr_matrix((m, n_empty))])
    bottom = sp.hstack([
        sp.csr_matrix((n_singleton, n + n_fixed)),
        sp.diags(rng.uniform(0.5, 2.0, n_singleton), format="csr"),
        sp.csr_matrix((n_singleton, n_empty)),
    ])
    A = sp.vstack([top, bottom], format="csr")
    fix_val = rng.uniform(0.0, 2.0, n_fixed)
    empty_neg = rng.random(n_empty) < 0.5
    lower = np.concatenate([np.zeros(n), fix_val, np.zeros(n_singleton), np.zeros(n_empty)])
    upper = np.concatenate([
        rng.uniform(4.0, 6.0, n), fix_val, np.full(n_singleton, np.inf),
        np.where(empty_neg, rng.uniform(1.0, 3.0, n_empty), np.inf),
    ])
    c = np.concatenate([
        rng.standard_normal(n + n_fixed + n_singleton),
        np.where(empty_neg, -1.0, 1.0) * rng.uniform(0.1, 1.0, n_empty),
    ])
    rhs = np.concatenate([rng.uniform(1.0, 5.0, m), rng.uniform(0.5, 2.0, n_singleton)])
    senses = [str(s) for s in rng.choice([EQ, LE], m)] + [EQ] * n_singleton
    return GeneralLp(
        c=c, A=A, senses=senses, rhs=rhs, lower=lower, upper=upper,
        col_names=[f"C{j}" for j in range(A.shape[1])],
        row_names=[f"R{i}" for i in range(A.shape[0])],
    )


def chained_model(seed: int, m_core: int = 70, n_core: int = 30) -> GeneralLp:
    """Inequality core rows with chains of singleton equality rows.

    Chain row s_1 holds only column j_1 and row s_t holds j_{t-1} and j_t,
    so substituting j_{t-1} leaves s_t a singleton.  The record of s_t then
    has s_{t+1} among its col_rows and waits for its dual: a chain of depth
    d takes d waves to replay.  Most chain columns also have 40 to 64
    entries in core rows, of magnitudes from 1e-3 to 1e3; the rest have
    up to 4.  Chain columns are free, so no substitution leaves its bounds.
    """
    rng = np.random.default_rng([seed, 8])
    depths = rng.integers(3, 7, size=int(rng.integers(2, 6)))
    n_chain = int(depths.sum())
    m, n = m_core + n_chain, n_core + n_chain
    A = np.zeros((m, n))
    A[:m_core, :n_core] = np.where(
        rng.random((m_core, n_core)) < 0.2, rng.uniform(-2.0, 2.0, (m_core, n_core)), 0.0
    )
    A[np.arange(m_core), np.arange(m_core) % n_core] = 3.0
    k = 0
    for depth in depths.tolist():
        for t in range(depth):
            i, j = m_core + k + t, n_core + k + t
            A[i, j] = rng.uniform(0.5, 2.0)
            if t:
                A[i, j - 1] = rng.uniform(-2.0, 2.0)
            live = int(rng.integers(40, 65) if rng.random() < 0.7 else rng.integers(0, 5))
            rows = rng.choice(m_core, live, replace=False)
            A[rows, j] = rng.choice([-1.0, 1.0], live) * 10.0 ** rng.uniform(-3.0, 3.0, live)
        k += depth
    senses = [str(s) for s in rng.choice([LE, GE], m_core)] + [EQ] * n_chain
    lower = np.concatenate([np.zeros(n_core), np.full(n_chain, -np.inf)])
    upper = np.concatenate([np.full(n_core, 5.0), np.full(n_chain, np.inf)])
    x0 = np.concatenate([rng.uniform(0.0, 5.0, n_core), rng.uniform(-2.0, 2.0, n_chain)])
    slack = {LE: 1.0, GE: -1.0, EQ: 0.0}
    rhs = A @ x0 + np.array([slack[s] for s in senses]) * rng.uniform(0.0, 1.0, m)
    return GeneralLp(
        c=rng.standard_normal(n), A=sp.csr_matrix(A), senses=senses, rhs=rhs,
        lower=lower, upper=upper,
    )


def replay_waves(records) -> int:
    """Waves postsolve needs for records: a SingletonRow record waits for
    every later SingletonRow record whose row is among its col_rows."""
    wave = {}
    for rec in reversed([r for r in records if isinstance(r, SingletonRow)]):
        wave[rec.i] = 1 + max((wave[i] for i in rec.col_rows.tolist() if i in wave), default=0)
    return max(wave.values(), default=0)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def reduction_time_records(records, n: int, m: int) -> list:
    """The records with original indices renumbered as the reference numbers
    them: by position among the rows and columns still present."""
    row_live = np.ones(m, dtype=bool)
    col_live = np.ones(n, dtype=bool)
    out = []
    for rec in records:
        if isinstance(rec, EmptyRow):
            out.append(EmptyRow(int(row_live[:rec.i].sum())))
            row_live[rec.i] = False
        elif isinstance(rec, SingletonRow):
            i, j = int(row_live[:rec.i].sum()), int(col_live[:rec.j].sum())
            row_live[rec.i] = False
            col_live[rec.j] = False
            rows = np.array([row_live[:r].sum() for r in rec.col_rows], dtype=int)
            out.append(SingletonRow(i, j, rec.value, rec.coeff, rec.cost, rows, rec.col_vals))
        else:
            out.append(type(rec)(int(col_live[:rec.j].sum()), rec.value))
            col_live[rec.j] = False
    return out


def assert_same_records(got, want):
    assert [type(r) for r in got] == [type(r) for r in want]
    for a, b in zip(got, want):
        for name, value in vars(b).items():
            mine = getattr(a, name)
            if name in ("i", "j"):
                assert mine == value, (name, a, b)
            elif name == "col_rows":
                assert np.array_equal(mine, value), (a, b)
            else:
                assert _bits(mine) == _bits(value), (name, a, b)


def assert_same_model(got: GeneralLp, want: GeneralLp, original: GeneralLp | None = None):
    """got equals want bitwise.  presolve formats no default names: where
    the original model has none, the reduced model has none either."""
    assert got.A.shape == want.A.shape
    for name in ("indptr", "indices"):
        mine, ref = getattr(got.A, name), getattr(want.A, name)
        assert mine.dtype == ref.dtype and np.array_equal(mine, ref), name
    assert _bits(got.A.data) == _bits(want.A.data)
    for name in ("c", "rhs", "lower", "upper"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert got.senses == want.senses
    assert repr(got.obj_offset) == repr(want.obj_offset)
    unnamed = original is not None and original.col_names is None
    assert got.col_names == (None if unnamed else want.col_names)
    unnamed = original is not None and original.row_names is None
    assert got.row_names == (None if unnamed else want.row_names)


def check_against_reference(g: GeneralLp, seed: int = 0) -> PresolveResult:
    got, want = presolve(g), reference_presolve(g)
    assert got.status is want.status
    assert got.message == want.message
    assert (got.stack.n_original, got.stack.m_original) == (g.n_vars, g.n_rows)
    assert_same_records(
        reduction_time_records(got.stack.records, g.n_vars, g.n_rows), want.stack.records
    )
    if got.status is not PresolveStatus.REDUCED:
        assert got.model is None and want.model is None
        return got
    assert_same_model(got.model, want.model, g)

    rng = np.random.default_rng([seed, 7])
    n, m = got.model.n_vars, got.model.n_rows
    for _ in range(3):
        pt = KktPoint(rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(n))
        mine = postsolve(got.stack, pt, g)
        ref = reference_postsolve(want.stack, pt, g)
        for name in ("x", "y", "z"):
            assert _bits(getattr(mine, name)) == _bits(getattr(ref, name)), name
    return got


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

FILE_MODELS = [(inst.name, inst.model) for inst in desk_suite()] + [
    (path.name, parse_mps(path.read_text())) for path in sorted(FIXTURES.glob("*.mps"))
]


@pytest.mark.parametrize(
    "g", [g for _, g in FILE_MODELS], ids=[name for name, _ in FILE_MODELS]
)
def test_desk_and_fixture_models(g):
    check_against_reference(g)


@pytest.mark.parametrize("chunk", range(4))
def test_random_small_models(chunk):
    """250 models per chunk; the chunk must reach every rule and verdict."""
    seen = set()
    for seed in range(250 * chunk, 250 * (chunk + 1)):
        res = check_against_reference(random_model(seed), seed)
        seen.add(res.status)
        seen.update(type(r) for r in res.stack.records)
    assert seen == {
        PresolveStatus.REDUCED, PresolveStatus.INFEASIBLE, PresolveStatus.UNBOUNDED,
        FixedVariable, EmptyRow, EmptyColumn, SingletonRow,
    }


@pytest.mark.parametrize("seed", range(3))
def test_padded_models(seed):
    g = padded_model(seed)
    res = check_against_reference(g, seed)
    assert res.status is PresolveStatus.REDUCED
    assert len(res.stack.records) >= 750


@pytest.mark.parametrize("seed", range(4))
def test_chained_singleton_models(seed):
    """Dual replay over 3 or more waves, with dot products past 40 entries."""
    g = chained_model(seed)
    res = check_against_reference(g, seed)
    assert res.status is PresolveStatus.REDUCED
    assert replay_waves(res.stack.records) >= 3
    assert max(r.col_rows.size for r in res.stack.records) >= 40


def test_row_dots_match_one_dimensional_dot():
    """The stacked np.matmul of postsolve's replay is bitwise each row's 1-D
    @, for every entry count 1 to 64, on data whose summation order shows:
    np.einsum and a left-to-right sum both differ somewhere."""
    rng = np.random.default_rng(9)
    order_shows = False
    for length in range(1, 65):
        a, b = (
            rng.choice([-1.0, 1.0], (50, length)) * 10.0 ** rng.uniform(-8.0, 8.0, (50, length))
            for _ in range(2)
        )
        want = np.array([a[k] @ b[k] for k in range(50)])
        assert _bits(_row_dots(a, b)) == _bits(want), length
        order_shows |= _bits(np.einsum("kl,kl->k", a, b)) != _bits(want)
        order_shows |= any(sum((a[k] * b[k]).tolist()) != want[k] for k in range(50))
    assert order_shows


# ---------------------------------------------------------------------------
# Where a batch of reductions must stop
# ---------------------------------------------------------------------------

def _small(A, senses, rhs, c=None, lower=None, upper=None) -> GeneralLp:
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    return GeneralLp(
        c=np.linspace(-1.0, 1.5, n) if c is None else c, A=A, senses=senses, rhs=rhs,
        lower=np.zeros(n) if lower is None else lower,
        upper=np.full(n, np.inf) if upper is None else upper,
        col_names=[f"C{j}" for j in range(n)], row_names=[f"R{i}" for i in range(m)],
    )


def _trace(records) -> list:
    """(kind, original row or column) of each record."""
    return [
        (type(r).__name__, r.i if isinstance(r, (EmptyRow, SingletonRow)) else r.j)
        for r in records
    ]


def test_singleton_cascade_to_lower_rows():
    """Each removal leaves the row above with one entry, which comes before
    the independent singleton R4."""
    g = _small(
        [[1, 1, 0, 0, 0, 0],
         [0, 1, 1, 0, 0, 0],
         [0, 0, 1, 1, 0, 0],
         [0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 1],
         [1, 0, 0, 0, 1, 1]],
        [EQ, EQ, EQ, EQ, EQ, LE], [3.0, 3.0, 3.0, 1.0, 2.0, 10.0],
    )
    res = check_against_reference(g)
    assert res.status is PresolveStatus.REDUCED
    assert [(r.i, r.j) for r in res.stack.records] == [(3, 3), (2, 2), (1, 1), (0, 0), (4, 5)]


@pytest.mark.parametrize("rhs1, status", [
    (1.0, PresolveStatus.REDUCED), (2.0, PresolveStatus.INFEASIBLE),
])
def test_two_singletons_on_one_column(rhs1, status):
    """R0 fixes C0 and leaves R1 empty, which is checked before the later
    singleton R3."""
    g = _small(
        [[2, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 0]],
        [EQ, EQ, LE, EQ], [2.0, rhs1, 5.0, 1.0],
    )
    res = check_against_reference(g)
    assert res.status is status
    if status is PresolveStatus.REDUCED:
        assert _trace(res.stack.records) == [
            ("SingletonRow", 0), ("EmptyRow", 1), ("SingletonRow", 3),
        ]
    else:
        assert _trace(res.stack.records) == [("SingletonRow", 0)]
        assert res.message == "empty row R1 requires 0 = 1.0"


def test_row_emptied_by_two_singletons_of_a_round():
    """R0 and R1 each remove one of R3's two entries; R3 is then empty and
    comes before R2."""
    g = _small(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]],
        [EQ, EQ, EQ, LE, LE], [1.0, 1.0, 1.0, 5.0, 4.0],
    )
    res = check_against_reference(g)
    assert _trace(res.stack.records) == [
        ("SingletonRow", 0), ("SingletonRow", 1), ("EmptyRow", 3), ("SingletonRow", 2),
    ]


def test_bound_violation_inside_a_round():
    """The third singleton of the round fixes C2 above its upper bound; the
    two before it are recorded."""
    g = _small(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]],
        [EQ, EQ, EQ, LE], [1.0, 1.0, 10.0, 20.0],
        upper=np.array([np.inf, np.inf, 5.0, np.inf]),
    )
    res = check_against_reference(g)
    assert res.status is PresolveStatus.INFEASIBLE
    assert res.message == "row R2 fixes C2 = 10.0 outside [0.0, 5.0]"
    assert _trace(res.stack.records) == [("SingletonRow", 0), ("SingletonRow", 1)]


def test_unbounded_empty_column_after_others():
    g = _small(
        [[1, 1, 0, 0, 0, 0, 0]], [LE], [4.0],
        c=np.array([1.0, 1.0, 1.0, -1.0, 0.0, -1.0, 1.0]),
        lower=np.array([0.0, 0.0, 0.0, 0.0, -np.inf, 0.0, -np.inf]),
        upper=np.array([np.inf, np.inf, np.inf, 2.0, np.inf, np.inf, np.inf]),
    )
    res = check_against_reference(g)
    assert res.status is PresolveStatus.UNBOUNDED
    assert res.message == "column C5 has negative cost and no upper bound"
    assert _trace(res.stack.records) == [
        ("EmptyColumn", 2), ("EmptyColumn", 3), ("EmptyColumn", 4),
    ]
    assert [r.value for r in res.stack.records] == [0.0, 2.0, 0.0]


def test_inconsistent_empty_row_after_others():
    """R1 becomes empty when C2 is fixed; R2 to R5 have no entries."""
    g = _small(
        [[1, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [LE, LE, EQ, GE, GE, EQ], [4.0, 3.0, 0.0, -1.0, 1.0, 5.0],
        lower=np.array([0.0, 0.0, 1.0]), upper=np.array([np.inf, np.inf, 1.0]),
    )
    res = check_against_reference(g)
    assert res.status is PresolveStatus.INFEASIBLE
    assert res.message == "empty row R4 requires 0 >= 1.0"
    assert _trace(res.stack.records) == [
        ("FixedVariable", 2), ("EmptyRow", 1), ("EmptyRow", 2), ("EmptyRow", 3),
    ]


def test_model_without_reductions():
    g = _small([[1, 2, 0], [0, 1, 3]], [LE, GE], [4.0, 1.0])
    res = check_against_reference(g)
    assert res.status is PresolveStatus.REDUCED and not res.stack.records
    assert_same_model(res.model, g)
