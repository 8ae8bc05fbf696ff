"""First-order solver tests: operator norm, steps, reduced costs, full solves."""

import numpy as np
import pytest
import scipy.sparse as sp

import hybridlp.pdhg
from hybridlp import (
    KktPoint,
    PdhgParams,
    StandardLp,
    check_relative_termination,
    estimate_opnorm,
    evaluate_general_point,
    restrict_point,
    ruiz_equilibrate,
    run_pdhg,
    to_standard_form,
    unscale_point,
    violation_summary,
)
from hybridlp.lp_core import residuals, summary_from_residuals, termination_from_residuals
from hybridlp.pdhg import initial_state, pdhg_step
from hybridlp.warmstart import prepare_model

from _desk import desk_suite, lp1, lp2, planted_equality_lp
from test_kernels import reference_reflection


class TestEstimateOpnorm:
    def test_scalar(self):
        assert estimate_opnorm(sp.csr_matrix([[3.0]])) == pytest.approx(3.0)

    def test_diagonal(self):
        A = sp.diags([1.0, 2.0, 5.0]).tocsr()
        lam = estimate_opnorm(A)
        assert lam <= 5.0 + 1e-9
        assert 5.0 <= 1.05 * lam

    def test_row_vector(self):
        lam = estimate_opnorm(sp.csr_matrix([[1.0, 1.0]]))
        assert lam == pytest.approx(np.sqrt(2.0), rel=0.05)

    @pytest.mark.parametrize("seed", range(5))
    def test_bracket_against_dense_svd(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 9))
        lam = estimate_opnorm(sp.csr_matrix(A), seed=seed)
        true = np.linalg.svd(A, compute_uv=False)[0]
        assert lam <= true + 1e-9
        assert true <= 1.05 * lam

    def test_zero_matrix_rejected(self):
        from hybridlp import InvalidModelError

        with pytest.raises(InvalidModelError):
            estimate_opnorm(sp.csr_matrix((2, 2)))


class TestPdhgStep:
    def _state(self, p, tau_sigma=None):
        st = initial_state(p, PdhgParams())
        if tau_sigma is not None:
            st.tau = st.sigma = tau_sigma
        return st

    def test_first_step_from_zero_lp1(self):
        """x+ = max(0, -tau c) = 0 and y+ = sigma b > 0 with omega = 1."""
        p, _ = to_standard_form(lp1().model)
        norm = estimate_opnorm(p.A)
        st = self._state(p, tau_sigma=0.5 / norm)
        pdhg_step(st, p)
        np.testing.assert_array_equal(st.x, [0.0, 0.0])
        np.testing.assert_allclose(st.y, [0.5 / norm * 1.0])
        assert st.y[0] > 0
        assert st.iterations == 1

    def test_saddle_point_is_fixed(self):
        p, _ = to_standard_form(lp1().model)
        st = self._state(p)
        st.x = np.array([1.0, 0.0])
        st.y = np.array([1.0])
        pdhg_step(st, p)
        np.testing.assert_allclose(st.x, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(st.y, [1.0], atol=1e-15)

    def test_negative_entries_clamped(self):
        p = StandardLp(np.array([[1.0]]), [1.0], [100.0])
        st = self._state(p)
        st.x = np.array([0.5])
        pdhg_step(st, p)
        assert st.x[0] == 0.0

    def test_projection_invariant_along_run(self):
        inst = planted_equality_lp(6, 11, seed=42)
        p, _ = to_standard_form(inst.model)
        st = initial_state(p, PdhgParams())
        for _ in range(500):
            pdhg_step(st, p)
            assert np.all(st.x >= 0.0)

    @pytest.mark.parametrize("inst", desk_suite(), ids=lambda inst: inst.name)
    def test_matches_textbook_operator(self, inst):
        """T written as its textbook formulas, a projected primal step and a
        dual step on the extrapolated primal, at a random point with a primal
        weight of 0.7: pdhg_step agrees to 1e-12 relative."""
        p, _ = to_standard_form(inst.model)
        st = self._state(p)
        st.omega = 0.7
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(p.n), rng.standard_normal(p.m)
        st.x, st.y = x, y
        A = p.A.toarray()
        x_new = np.maximum(0.0, x - (st.tau / st.omega) * (p.c - A.T @ y))
        y_new = y + (st.sigma * st.omega) * (p.b - A @ (2.0 * x_new - x))
        pdhg_step(st, p)
        for got, want in ((st.x, x_new), (st.y, y_new)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_merit_nonincreasing_in_saddle_metric(self):
        """The step-scaled saddle metric (with the PDHG cross term) never
        increases by more than 1e-9 per step on LP1 and LP2."""
        for inst, xs, ys in (
            (lp1(), np.array([1.0, 0.0]), np.array([1.0])),
            (lp2(), np.array([1.6, 1.2, 0.0, 0.0]), np.array([-0.4, -0.2])),
        ):
            p, _ = to_standard_form(inst.model)
            st = initial_state(p, PdhgParams())
            A = p.A.toarray()

            def merit(x, y):
                dx, dy = x - xs, y - ys
                return (
                    dx @ dx / st.tau + dy @ dy / st.sigma + 2.0 * dy @ (A @ dx)
                )

            prev = merit(st.x, st.y)
            for _ in range(2000):
                pdhg_step(st, p)
                cur = merit(st.x, st.y)
                assert cur <= prev + 1e-9
                prev = cur


class TestExtractReducedCosts:
    def test_negative_part_becomes_dual_infeasibility(self):
        from hybridlp import residuals

        p = StandardLp(np.array([[1.0]]), [1.0], [0.7])
        y = np.array([1.0])  # c - A'y = -0.3
        z = np.maximum(0.0, p.c - p.at_y(y))
        assert z[0] == 0.0
        r = residuals(p, KktPoint([0.0], y, z))
        assert r.r_d[0] == pytest.approx(-0.3)


@pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan")])
def test_params_reject_nonpositive_eps_rel(eps):
    with pytest.raises(ValueError, match="eps_rel"):
        PdhgParams(eps_rel=eps)


class TestRunPdhg:
    def test_lp1_converges_to_unique_optimum(self):
        p, _ = to_standard_form(lp1().model)
        pt, stats = run_pdhg(p, PdhgParams(eps_rel=1e-4))
        assert stats.status.value == "Optimal"
        np.testing.assert_allclose(pt.x, [1.0, 0.0], atol=1e-3)

    def test_lp2_unscaled_violation(self):
        inst = lp2()
        p, fmap = to_standard_form(inst.model)
        scaled, info = ruiz_equilibrate(p)
        pt, stats = run_pdhg(scaled, PdhgParams(eps_rel=1e-4))
        assert stats.status.value == "Optimal"
        x, y, _ = restrict_point(inst.model, fmap, unscale_point(info, pt))
        v = evaluate_general_point(inst.model, x, y)
        assert v.max_violation <= 1e-3

    def test_tolerance_monotone_iterations(self):
        p, _ = to_standard_form(lp1().model)
        iters = {}
        for eps in (1e-4, 1e-8):
            pt, stats = run_pdhg(p, PdhgParams(eps_rel=eps))
            assert stats.status.value == "Optimal"
            iters[eps] = stats.iterations
        assert iters[1e-8] >= iters[1e-4]

    def test_posthoc_termination_verifiable(self):
        """A point returned as Optimal re-passes the relative check."""
        for inst in (lp1(), lp2(), planted_equality_lp(10, 18, seed=7)):
            p, _ = to_standard_form(inst.model)
            scaled, _ = ruiz_equilibrate(p)
            pt, stats = run_pdhg(scaled, PdhgParams(eps_rel=1e-4))
            assert stats.status.value == "Optimal"
            assert check_relative_termination(scaled, pt, 1e-4).ok

    def test_deterministic_for_fixed_seed(self):
        inst = planted_equality_lp(8, 14, seed=5)
        p, _ = to_standard_form(inst.model)
        pt1, s1 = run_pdhg(p, PdhgParams(eps_rel=1e-4), seed=3)
        pt2, s2 = run_pdhg(p, PdhgParams(eps_rel=1e-4), seed=3)
        np.testing.assert_array_equal(pt1.x, pt2.x)
        np.testing.assert_array_equal(pt1.y, pt2.y)
        assert s1.iterations == s2.iterations

    def test_time_limit_zero_returns_best_so_far(self):
        p, _ = to_standard_form(lp2().model)
        pt, stats = run_pdhg(p, PdhgParams(eps_rel=1e-4, time_limit_s=0.0))
        assert stats.status.value == "TimeLimit"
        assert pt.x.size == p.n

    def test_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(hybridlp.pdhg, "_MAX_CHECKS", 2)
        inst = planted_equality_lp(10, 18, seed=9)
        p, _ = to_standard_form(inst.model)
        pt, stats = run_pdhg(p, PdhgParams(eps_rel=1e-12))
        assert stats.status.value == "IterationLimit"
        assert stats.iterations == 128

    def test_start_point_scored_once(self, monkeypatch):
        """One residual evaluation for the zero start, one per check after it."""
        import hybridlp.lp_core
        import hybridlp.pdhg

        inst = planted_equality_lp(10, 18, seed=9)
        p, _ = to_standard_form(inst.model)
        checks, every = 3, 16
        monkeypatch.setattr(hybridlp.pdhg, "_MAX_CHECKS", checks)
        monkeypatch.setattr(hybridlp.pdhg, "_CHECK_EVERY", every)
        params = PdhgParams(eps_rel=1e-12)
        real_residuals = hybridlp.lp_core.residuals
        calls = []

        def counting_residuals(*args):
            calls.append(1)
            return real_residuals(*args)

        monkeypatch.setattr(hybridlp.lp_core, "residuals", counting_residuals)
        monkeypatch.setattr(hybridlp.pdhg, "residuals", counting_residuals)
        _, stats = run_pdhg(p, params)
        assert stats.status.value == "IterationLimit"
        assert stats.iterations == checks * every
        assert len(calls) == 1 + checks

    def test_one_transpose_product_per_scored_point(self, monkeypatch):
        """A'y is formed once per scored point, for both z and the residuals."""
        inst = planted_equality_lp(10, 18, seed=9)
        p, _ = to_standard_form(inst.model)
        checks, every = 3, 16
        monkeypatch.setattr(hybridlp.pdhg, "_MAX_CHECKS", checks)
        monkeypatch.setattr(hybridlp.pdhg, "_CHECK_EVERY", every)
        params = PdhgParams(eps_rel=1e-12)
        real = StandardLp.at_y
        calls = []

        def counted(self, y):
            calls.append(1)
            return real(self, y)

        monkeypatch.setattr(StandardLp, "at_y", counted)
        _, stats = run_pdhg(p, params)
        assert stats.status.value == "IterationLimit"
        assert len(calls) == 1 + checks

    def test_restarts_happen_and_never_hurt(self):
        """At least one restart on a planted instance, and the restart-score
        sequence is decreasing (each restart target beat the previous score)."""
        inst = planted_equality_lp(20, 35, seed=17)
        p, _ = to_standard_form(inst.model)
        scaled, _ = ruiz_equilibrate(p)
        pt, stats = run_pdhg(scaled, PdhgParams(eps_rel=1e-6))
        assert stats.status.value == "Optimal"
        assert stats.restarts >= 1


class TestRunPdhgFailurePoints:
    def test_best_point_is_the_scored_point(self, monkeypatch):
        """On IterationLimit the returned point has the violation the stats
        report; the averaged iterate it was scored from moves on in place."""
        monkeypatch.setattr(hybridlp.pdhg, "_MAX_CHECKS", 50)
        inst = planted_equality_lp(25, 45, seed=18)
        p, _ = to_standard_form(inst.model)
        scaled, _ = ruiz_equilibrate(p)
        pt, stats = run_pdhg(scaled, PdhgParams(eps_rel=1e-10))
        assert stats.status.value == "IterationLimit"
        assert violation_summary(scaled, pt).max_violation == stats.max_violation

    def test_overflow_reports_numerical_failure(self, monkeypatch):
        """Iterates that overflow are caught at the first check point, and the
        finite starting point is returned."""
        monkeypatch.setattr(hybridlp.pdhg, "_CHECK_EVERY", 16)
        p = StandardLp(np.array([[1.0, -1.0]]), [1e308], [-1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            pt, stats = run_pdhg(p)
        assert stats.status.value == "NumericalFailure"
        assert 0 < stats.iterations <= 16
        assert all(np.all(np.isfinite(v)) for v in (pt.x, pt.y, pt.z))


def _pipeline_scaled(inst):
    """The model run_pdhg sees in the pipeline: presolve, standard form, Ruiz."""
    return prepare_model(inst.model).solve_model


@pytest.mark.parametrize("inst", desk_suite(), ids=lambda inst: inst.name)
def test_only_projected_points_returned(inst, monkeypatch):
    """Whether it converges or hits the iteration limit, run_pdhg returns a
    point T produced (x >= 0, z = max(0, c - A'y)), never the Halpern
    iterate, and two runs return bitwise the same point and stats."""
    p = _pipeline_scaled(inst)
    params = PdhgParams(eps_rel=1e-6)
    for checks in (hybridlp.pdhg._MAX_CHECKS, 1, 10):
        monkeypatch.setattr(hybridlp.pdhg, "_MAX_CHECKS", checks)
        (pt, s1), (pt2, s2) = run_pdhg(p, params), run_pdhg(p, params)
        assert np.all(pt.x >= 0.0)
        assert np.array_equal(pt.z, np.maximum(0.0, p.c - p.at_y(pt.y)))
        for a, b in ((pt.x, pt2.x), (pt.y, pt2.y), (pt.z, pt2.z)):
            assert np.array_equal(a, b)
        assert (s1.status, s1.iterations, s1.restarts, s1.max_violation, s1.termination) == (
            s2.status, s2.iterations, s2.restarts, s2.max_violation, s2.termination)


@pytest.mark.parametrize("m, n, seed, eps, ceiling", [
    (100, 175, 23, 1e-6, 181_888),
    (25, 45, 18, 1e-8, 137_088),
    (40, 70, 20, 1e-8, 150_400),
])
def test_tail_cases_within_iteration_ceiling(m, n, seed, eps, ceiling):
    """The slowest desk instances converge within the iterations that the
    averaged-iterate PDHG needed on them."""
    p = _pipeline_scaled(planted_equality_lp(m, n, seed))
    _, stats = run_pdhg(p, PdhgParams(eps_rel=eps))
    assert stats.status.value == "Optimal"
    assert stats.iterations <= ceiling


@pytest.mark.parametrize("eps, iterations, restarts", [
    (1e-4, 17_088, 82),
    (1e-6, 194_560, 155),
    (1e-8, 273_984, 197),
])
def test_desk_suite_totals(eps, iterations, restarts):
    """The desk suite's PDHG iteration and restart totals at three
    tolerances, pinned: a rounding change in the iteration that moves a
    termination or restart decision on any desk case shows here."""
    runs = [run_pdhg(_pipeline_scaled(inst), PdhgParams(eps_rel=eps))[1] for inst in desk_suite()]
    assert sum(s.iterations for s in runs) == iterations
    assert sum(s.restarts for s in runs) == restarts


def reference_loop(p, eps):
    """Restarted Halpern PDHG in one-line array expressions: T and the
    reflected point w = 2 T(z) - z from reference_reflection, the README's
    update z <- z0 + (k+1)/(k+2) (w - z0) and its restart rules at every
    64th iteration, for at most 200,000 iterations; returns (status,
    iterations, restarts, the T scored last)."""
    params = PdhgParams(eps_rel=eps)
    n, every, limit = p.n, 64, 200_000
    tau = sigma = initial_state(p, params).tau
    omega = 1.0
    if np.linalg.norm(p.c) > 0.0 and np.linalg.norm(p.b) > 0.0:
        omega = float(np.clip(np.linalg.norm(p.c) / np.linalg.norm(p.b), 1e-4, 1e4))
    z = z0 = np.zeros(n + p.m)
    k, restarts, r0, r_prev = 0, 0, np.inf, np.inf
    scored = None
    for it in range(1, limit + 1):
        tx, wx, wy = reference_reflection(p, z[:n], z[n:], tau, sigma, omega)
        t = np.concatenate((tx, 0.5 * (z[n:] + wy)))
        if it % every == 0:
            x, y = scored = t[:n], t[n:]
            res = residuals(p, KktPoint(x, y, np.maximum(0.0, p.c - p.A.T @ y)))
            if termination_from_residuals(p, res, eps).ok:
                return "Optimal", it, restarts, scored
            r = summary_from_residuals(res).max_violation
            r0 = r if r0 == np.inf else r0
            restart = r <= 0.2 * r0 or (r <= 0.8 * r0 and r > r_prev) or k + 1 >= 0.36 * it
            r_prev = r
            if restart:
                dx, dy = np.linalg.norm(x - z0[:n]), np.linalg.norm(y - z0[n:])
                if dx > 0.0 and dy > 0.0:
                    omega = float(np.exp(0.5 * np.log(dy / dx) + 0.5 * np.log(omega)))
                z = z0 = t
                k, r0, restarts = 0, np.inf, restarts + 1
                continue
        z = z0 + (k + 1) / (k + 2) * (np.concatenate((wx, wy)) - z0)
        k += 1
    return "IterationLimit", limit, restarts, scored


def reference_run(p, eps):
    """reference_loop's (status, iterations, restarts)."""
    return reference_loop(p, eps)[:3]


@pytest.mark.parametrize(
    "inst, eps",
    [(inst, 1e-4) for inst in desk_suite()] + [(planted_equality_lp(100, 175, 23), 1e-6)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_fused_iteration_follows_reference_loop(inst, eps):
    """run_pdhg's fused iteration takes the decisions of the plain loop:
    the same status, iteration count and restarts."""
    p = _pipeline_scaled(inst)
    _, stats = run_pdhg(p, PdhgParams(eps_rel=eps))
    assert (stats.status.value, stats.iterations, stats.restarts) == reference_run(p, eps)


@pytest.mark.parametrize("inst", desk_suite(), ids=lambda inst: inst.name)
def test_returned_point_is_reference_t(inst):
    """Checks evaluate T with the kernel of every other iteration: on each
    desk case, Optimal at 1e-4, run_pdhg returns bitwise the T that the plain
    loop scored last."""
    p = _pipeline_scaled(inst)
    pt, stats = run_pdhg(p, PdhgParams(eps_rel=1e-4))
    status, iterations, _, (x, y) = reference_loop(p, 1e-4)
    assert status == "Optimal"
    assert (stats.status.value, stats.iterations) == (status, iterations)
    assert np.array_equal(pt.x, x)
    assert np.array_equal(pt.y, y)


def test_time_limit_ends_the_run_at_a_block(monkeypatch):
    """A time limit that expires mid-run stops it before a block of
    _CHECK_EVERY iterations starts: the clock is read once before each block
    (the one that ends the run too), at the start and for the wall time."""
    import hybridlp.pdhg

    reads = []

    class Clock:  # one second passes per read
        @staticmethod
        def monotonic():
            reads.append(1)
            return float(len(reads))

    monkeypatch.setattr(hybridlp.pdhg, "time", Clock)
    monkeypatch.setattr(hybridlp.pdhg, "_CHECK_EVERY", 16)
    p = _pipeline_scaled(planted_equality_lp(15, 27, seed=1))
    _, stats = run_pdhg(p, PdhgParams(eps_rel=1e-12, time_limit_s=4.5))
    assert stats.status.value == "TimeLimit"
    assert stats.iterations % 16 == 0
    assert len(reads) == stats.iterations // 16 + 1 + 2
    assert stats.wall_seconds == len(reads) - 1.0


@pytest.mark.parametrize("limit, every", [(40, 64), (48, 16)])
def test_two_sparse_products_per_iteration(monkeypatch, limit, every):
    """Every iteration, between checks or at one, makes exactly two sparse
    products, through hybridlp.pdhg._csc_matvec_add and _csr_matvec_add; the
    start score and the norm estimate make theirs elsewhere.  The run ends
    after the whole blocks that cover `limit` iterations: 40 in blocks of 64
    is one block, 48 in blocks of 16 is three."""
    import hybridlp.pdhg

    calls = []

    def counted(real):
        def kernel(*args):
            calls.append(1)
            return real(*args)
        return kernel

    for name in ("_csc_matvec_add", "_csr_matvec_add"):
        monkeypatch.setattr(hybridlp.pdhg, name, counted(getattr(hybridlp.pdhg, name)))
    checks = -(-limit // every)
    monkeypatch.setattr(hybridlp.pdhg, "_MAX_CHECKS", checks)
    monkeypatch.setattr(hybridlp.pdhg, "_CHECK_EVERY", every)
    p = _pipeline_scaled(planted_equality_lp(15, 27, seed=1))
    _, stats = run_pdhg(p, PdhgParams(eps_rel=1e-12))
    assert stats.status.value == "IterationLimit"
    assert stats.iterations == checks * every
    assert len(calls) == 2 * checks * every


def test_overflowed_norms_fail_termination(monkeypatch):
    """Residual norms that overflow to inf do not pass against bounds that
    overflow too."""
    monkeypatch.setattr(hybridlp.pdhg, "_CHECK_EVERY", 16)
    p = StandardLp(np.array([[1.0, -1.0]]), [1e308], [-1e308, 1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        _, stats = run_pdhg(p)
    assert stats.status.value == "NumericalFailure"
    assert stats.termination.ok is False
    assert not (stats.termination.primal_ok or stats.termination.dual_ok)


def test_unbounded_lp_keeps_primal_weight_positive(monkeypatch):
    """min -x1 s.t. x1 - x2 <= 1, x >= 0 is unbounded: the iterates diverge
    and the anchor's movement ||dy|| / ||dx|| goes to 0.  The primal weight
    stays clipped, so the run ends with a status instead of dividing by a
    weight that underflowed to 0 (after about 17,000 iterations)."""
    monkeypatch.setattr(hybridlp.pdhg, "_MAX_CHECKS", 313)  # 20,032 iterations
    p = StandardLp(np.array([[1.0, -1.0, 1.0]]), [1.0], [-1.0, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, stats = run_pdhg(p)
    assert stats.status.value in ("IterationLimit", "NumericalFailure")
    assert not stats.termination.ok
