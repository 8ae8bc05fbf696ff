"""Bitwise pins of the solver kernels against their plain scipy formulations.

The hot path calls scipy's CSR kernel into preallocated buffers, forms A'v by
its CSC kernel on A's own arrays, and scales A in place; PDHG also lets the
kernels add their products into vectors that already hold the rest of a
step.  Each reference below is the straightforward formulation of a kernel's
arithmetic; every comparison is exact (np.array_equal), because the solver's
iteration counts and returned points depend on every rounding.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import _sparsetools

from hybridlp import (
    PdhgParams,
    StandardLp,
    cold_start_point,
    parse_mps,
    predictor_corrector_iteration,
    residuals,
    ruiz_equilibrate,
    to_standard_form,
)
from hybridlp.ipm import (
    _REG_LADDER,
    NormalEquationsSolver,
    NumericalFailure,
    normal_lower,
    normal_matrix,
)
from hybridlp.lp_core import csr_matvec
from hybridlp.pdhg import estimate_opnorm, initial_state, pdhg_step

from _desk import desk_suite

FIXTURES = Path(__file__).parent / "fixtures"


def _desk_models():
    return [(inst.name, to_standard_form(inst.model)[0]) for inst in desk_suite()]


def _mps_models():
    return [
        (path.name, to_standard_form(parse_mps(path.read_text()))[0])
        for path in sorted(FIXTURES.glob("*.mps"))
    ]


DESK_MODELS = _desk_models()
MODELS = DESK_MODELS + _mps_models()
over_models = pytest.mark.parametrize(
    "p", [p for _, p in MODELS], ids=[name for name, _ in MODELS]
)


def reference_ruiz(p, max_iters=20, tol=1e-2):
    """Equilibration by diagonal matrix products; returns (A, r, c, passes)."""
    A = p.A.copy().tocsr()
    m, n = A.shape
    row_scale = np.ones(m)
    col_scale = np.ones(n)
    lo, hi = 1.0 / (1.0 + tol), 1.0 + tol
    applied = 0
    for _ in range(max_iters):
        absA = abs(A)
        row_norm = absA.max(axis=1).toarray().ravel()
        col_norm = absA.max(axis=0).toarray().ravel()
        if (
            np.all((row_norm >= lo) & (row_norm <= hi))
            and np.all((col_norm >= lo) & (col_norm <= hi))
        ):
            break
        r = 1.0 / np.sqrt(row_norm)
        c = 1.0 / np.sqrt(col_norm)
        A = sp.diags(r) @ A @ sp.diags(c)
        row_scale *= r
        col_scale *= c
        applied += 1
    return A.tocsr(), row_scale, col_scale, applied


def reference_opnorm(A, seed=0, tol=1e-4, max_iters=100):
    """Power iteration on A'A with a fresh transpose per product."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = A.T @ (A @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            break
        new_lam = np.sqrt(norm_w)
        v = w / norm_w
        if lam > 0 and abs(new_lam - lam) <= tol * new_lam:
            lam = new_lam
            break
        lam = new_lam
    w = A.T @ (A @ v)
    norm_w = np.linalg.norm(w)
    if norm_w > 0:
        lam = max(lam, float(np.sqrt(norm_w)))
    return float(lam)


def reference_row_sums(init, M, v):
    """init + M v with each row summed from init, then over the row's
    entries in stored order, one rounded product at a time."""
    out = init.copy()
    lengths = np.diff(M.indptr)
    for k in range(lengths.max(initial=0)):
        rows = np.flatnonzero(lengths > k)
        j = M.indptr[rows] + k
        out[rows] += M.data[j] * v[M.indices[j]]
    return out


def added_product(init, scale, M, v):
    """init + (scale M) v through scipy's CSR kernel, which sums each row from
    the value already in its output (pinned by TestCsrMatvec)."""
    out = init.copy()
    _sparsetools.csr_matvec(
        M.shape[0], M.shape[1], M.indptr, M.indices, scale * M.data, v, out
    )
    return out


def reference_reflection(p, x, y, tau, sigma, omega):
    """T(x, y)'s x half and the reflected point 2 T - (x, y), through A'
    scaled by 2 tau/omega and A by -2 sigma omega, each product added into
    the rest of its half-step.  The reflected x half is
    2 max(0, v) - x = max(-x, 2 v - x), for the unprojected primal step v;
    returns (T_x, reflected x, reflected y)."""
    s, g = 2.0 * (tau / omega), 2.0 * sigma * omega
    v = np.maximum(-x, added_product(x + (-s) * p.c, s, p.A.T.tocsr(), y))
    return 0.5 * (x + v), v, added_product(y + g * p.b, -g, p.A, v)


def reference_step(p, x, y, tau, sigma, omega):
    """One PDHG step; returns the new point."""
    x_new, _, w_y = reference_reflection(p, x, y, tau, sigma, omega)
    return x_new, 0.5 * (y + w_y)


class TestCsrMatvec:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_matmul_and_overwrites_out(self, seed):
        rng = np.random.default_rng(seed)
        M = sp.random(30, 50, density=0.1, random_state=seed, format="csr")
        v = rng.standard_normal(50)
        out = np.full(30, 7.0)
        res = csr_matvec(M, v, out)
        assert res is out
        assert np.array_equal(out, M @ v)

    def test_unsorted_duplicate_entries(self):
        M = sp.csr_matrix(
            (np.array([0.3, -1.7, 2.9, 0.0, 1.1]), np.array([2, 0, 2, 1, 0]), np.array([0, 3, 5])),
            shape=(2, 3),
        )
        v = np.array([0.1, -2.3, 4.7])
        assert np.array_equal(csr_matvec(M, v, np.empty(2)), M @ v)

    @pytest.mark.parametrize("seed", range(4))
    def test_raw_kernel_adds_into_out(self, seed):
        """The fused PDHG iteration relies on scipy's kernel summing each row
        from the value already in out, never overwriting it."""
        rng = np.random.default_rng(seed)
        M = sp.random(30, 50, density=0.1, random_state=seed, format="csr")
        M.indices = M.indices[::-1].copy()  # stored order need not be sorted
        v, init = rng.standard_normal(50), rng.standard_normal(30)
        out = init.copy()
        _sparsetools.csr_matvec(30, 50, M.indptr, M.indices, M.data, v, out)
        assert np.array_equal(out, reference_row_sums(init, M, v)), (
            "scipy.sparse._sparsetools.csr_matvec no longer adds into its output; "
            "hybridlp.pdhg's fused iteration depends on it"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_raw_csc_kernel_on_csr_arrays_adds_into_out(self, seed):
        """The fused PDHG iteration forms A'v by scipy's CSC kernel on the
        canonical CSR A's own arrays (A' in CSC form): it must add into out
        and sum each entry over A's rows in increasing order, as a CSR
        product with the transpose does."""
        rng = np.random.default_rng(seed)
        M = sp.random(30, 50, density=0.1, random_state=seed, format="csr")
        assert M.has_canonical_format
        v, init = rng.standard_normal(30), rng.standard_normal(50)
        out = init.copy()
        _sparsetools.csc_matvec(50, 30, M.indptr, M.indices, M.data, v, out)
        assert np.array_equal(out, reference_row_sums(init, M.T.tocsr(), v)), (
            "scipy.sparse._sparsetools.csc_matvec no longer adds into its output in "
            "increasing row order; hybridlp.pdhg._iterate depends on it"
        )


class TestAtY:
    @over_models
    def test_equals_transpose_product(self, p):
        y = np.random.default_rng(0).standard_normal(p.m)
        assert np.array_equal(p.at_y(y), p.A.T @ y)


class TestOpnorm:
    @over_models
    def test_equals_reference(self, p):
        for seed in (0, 3):
            assert estimate_opnorm(p.A, seed=seed) == reference_opnorm(p.A, seed=seed)


class TestPdhgStepBitwise:
    @over_models
    def test_300_steps_equal_reference(self, p):
        scaled, _ = ruiz_equilibrate(p)
        st = initial_state(scaled, PdhgParams())
        st.omega = 0.7  # a primal weight other than 1 exercises both step scalings
        ref = (st.x.copy(), st.y.copy())
        for _ in range(300):
            x_before = st.x
            x_copy = x_before.copy()
            pdhg_step(st, scaled)
            ref = reference_step(scaled, *ref, st.tau, st.sigma, st.omega)
            assert np.array_equal(x_before, x_copy)  # iterates are replaced, not mutated
        x, y = ref
        assert np.array_equal(st.x, x)
        assert np.array_equal(st.y, y)
        assert st.iterations == 300


def _assert_ruiz_equal(p):
    scaled, info = ruiz_equilibrate(p)
    A, r, c, applied = reference_ruiz(p)
    assert np.array_equal(scaled.A.indptr, A.indptr)
    assert np.array_equal(scaled.A.indices, A.indices)
    assert np.array_equal(scaled.A.data, A.data)
    assert np.array_equal(info.row_scale, r)
    assert np.array_equal(info.col_scale, c)
    assert info.applied_iterations == applied
    assert np.array_equal(scaled.b, r * p.b)
    assert np.array_equal(scaled.c, c * p.c)


class TestRuizBitwise:
    @over_models
    def test_equals_diagonal_products(self, p):
        _assert_ruiz_equal(p)

    def test_explicit_zero_and_duplicate_entry(self):
        """Sorted rows holding an explicit zero and a duplicate pair.

        StandardLp sums the duplicates and drops the zero when it is built,
        so ruiz_equilibrate and the products both scale the canonical A."""
        data = np.array([3.0, 0.0, 1.5, 2.5, -0.5, 6.0, 0.25, -4.0, 2.0])
        indices = np.array([0, 1, 2, 2, 3, 1, 3, 0, 2])
        indptr = np.array([0, 5, 7, 9])
        A = sp.csr_matrix((data, indices, indptr), shape=(3, 4))
        assert not A.has_canonical_format
        p = StandardLp(A, [1.0, 2.0, 3.0], [1.0, -1.0, 0.5, 2.0])
        _assert_ruiz_equal(p)
        scaled, _ = ruiz_equilibrate(p)
        assert scaled.A.nnz == 7
        assert A.nnz == 9  # the input is left as it was


def reference_normal_matrix(p, d2):
    """A D^2 A' through diags.

    scipy's sparse product emits each row of A @ diags(d2) in reverse column
    order, so the second product would sum every entry of A D^2 A' in the
    reverse order; sorting the rows first gives the order in which
    normal_matrix sums them.
    """
    return (p.A @ sp.diags(d2)).sorted_indices() @ p.A.T


def reference_pc_iteration(p, x, y, z):
    """One predictor-corrector step with its residuals formed inline and A'dy
    formed at each use; returns (x, y, z, alpha_p, alpha_d, mu_after, sigma,
    reg_level).  The factorization and its ladder are the solver's own."""
    n = x.size
    mu = float(x @ z) / n

    rhs_p = p.b - p.A @ x
    rhs_d = p.c - p.at_y(y) - z

    solver = NormalEquationsSolver(p, x, z)

    def solve(rhs_p, rhs_d, rhs_c):
        while True:
            w = rhs_d - rhs_c / x
            rhs = rhs_p + p.A @ (solver.d2 * w)
            dy = solver._solve_normal(rhs)
            dx = solver.d2 * (p.at_y(dy) - w)
            dz = rhs_d - p.at_y(dy)
            finite = np.all(np.isfinite(dx)) and np.all(np.isfinite(dy)) and np.all(np.isfinite(dz))
            r1 = p.A @ dx - rhs_p
            r2 = p.at_y(dy) + dz - rhs_d
            r3 = z * dx + x * dz - rhs_c

            def rel(r, rhs):
                denom = 1.0 + (float(np.max(np.abs(rhs))) if rhs.size else 0.0)
                return (float(np.max(np.abs(r))) if r.size else 0.0) / denom

            if finite and max(rel(r1, rhs_p), rel(r2, rhs_d), rel(r3, rhs_c)) <= 1e-8:
                return dx, dy, dz
            solver.level += 1
            if solver.level >= len(_REG_LADDER):
                raise NumericalFailure("Newton system residual above tolerance at max regularization")
            solver._factor()

    def max_step(v, dv):
        neg = dv < 0
        if not neg.any():
            return np.inf
        return float(np.min(v[neg] / -dv[neg]))

    dx_aff, dy_aff, dz_aff = solve(rhs_p, rhs_d, -x * z)

    a_p_aff = min(1.0, max_step(x, dx_aff))
    a_d_aff = min(1.0, max_step(z, dz_aff))
    mu_aff = float((x + a_p_aff * dx_aff) @ (z + a_d_aff * dz_aff)) / n
    sigma = (max(mu_aff, 0.0) / mu) ** 3.0 if mu > 0 else 0.0
    sigma = min(sigma, 1.0)

    rhs_c = sigma * mu - x * z - dx_aff * dz_aff
    dx, dy, dz = solve(rhs_p, rhs_d, rhs_c)

    alpha_p = min(1.0, 0.99 * max_step(x, dx))
    alpha_d = min(1.0, 0.99 * max_step(z, dz))

    x_new = x + alpha_p * dx
    y_new = y + alpha_d * dy
    z_new = z + alpha_d * dz
    mu_after = float(x_new @ z_new) / n
    return x_new, y_new, z_new, alpha_p, alpha_d, mu_after, sigma, solver.level


class TestIpmStepBitwise:
    @pytest.mark.parametrize(
        "p", [p for _, p in DESK_MODELS], ids=[name for name, _ in DESK_MODELS]
    )
    def test_6_steps_equal_reference(self, p):
        """Six steps from the cold start on the scaled model; even steps get
        the caller's residuals, as run_ipm passes them, odd steps form their own."""
        scaled, _ = ruiz_equilibrate(p)
        st = cold_start_point(scaled)
        x, y, z = st.x, st.y, st.z
        for k in range(6):
            res = residuals(scaled, st) if k % 2 == 0 else None
            st, report = predictor_corrector_iteration(scaled, st, res)
            x, y, z, *ref_report = reference_pc_iteration(scaled, x, y, z)
            assert np.array_equal(st.x, x)
            assert np.array_equal(st.y, y)
            assert np.array_equal(st.z, z)
            assert [report.alpha_p, report.alpha_d, report.mu_after, report.sigma,
                    report.reg_level] == ref_report
        assert st.iterations == 6


class TestNormalMatrixBitwise:
    @over_models
    def test_equals_diagonal_product(self, p):
        d2 = np.random.default_rng(p.n).uniform(1e-3, 1e3, p.n)
        M = normal_matrix(p, d2)
        assert M.format == "csc"
        assert np.array_equal(M.toarray(), reference_normal_matrix(p, d2).toarray())

    @over_models
    def test_solver_assembles_at_its_iterate(self, p, factored):
        """The dense backend factors the lower triangle, zero above it."""
        rng = np.random.default_rng(p.m)
        x, z = rng.uniform(0.1, 10.0, p.n), rng.uniform(0.1, 10.0, p.n)
        NormalEquationsSolver(p, x, z)
        assert np.array_equal(factored[0], np.tril(reference_normal_matrix(p, x / z).toarray()))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lower_triangle_on_random_sparse_models(self, data):
        """Random sparsity with an empty column, a one-entry column and a
        column holding every row appended; m = 1 is in range."""
        m = data.draw(st.integers(1, 7), label="m")
        n = data.draw(st.integers(0, 8), label="n")
        magnitude = st.floats(1e-3, 1e3)
        mask = data.draw(arrays(bool, (m, n)), label="mask")
        values = data.draw(arrays(float, (m, n), elements=magnitude), label="values")
        signs = data.draw(arrays(bool, (m, n)), label="signs")
        A = np.where(mask, np.where(signs, values, -values), 0.0)
        single = np.zeros((m, 1))
        single[data.draw(st.integers(0, m - 1), label="row"), 0] = 2.5
        full = data.draw(arrays(float, (m, 1), elements=magnitude), label="full")
        A = np.hstack([A, np.zeros((m, 1)), single, full])
        d2 = data.draw(arrays(float, A.shape[1], elements=st.floats(1e-6, 1e6)), label="d2")
        p = StandardLp(A, np.zeros(m), np.zeros(A.shape[1]))
        assert np.array_equal(normal_lower(p, d2), np.tril(reference_normal_matrix(p, d2).toarray()))
