"""Interior-point solver tests: cold start, Newton solve, steps, full solves."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridlp.ipm
import hybridlp.lp_core
from hybridlp import (
    IpmParams,
    IpmState,
    KktPoint,
    PdhgParams,
    StandardLp,
    WarmStartParams,
    centered_start,
    cold_start_point,
    evaluate_general_point,
    predictor_corrector_iteration,
    restrict_point,
    ruiz_equilibrate,
    run_ipm,
    run_pdhg,
    solve,
    to_standard_form,
    unscale_point,
)
from hybridlp.ipm import (
    _REG_LADDER,
    NormalEquationsSolver,
    NumericalFailure,
    basis_polish,
    normal_lower,
    normal_matrix,
)
from hybridlp.warmstart import warm_started_ipm

from _desk import desk_suite, lp1, lp2, planted_equality_lp


class TestColdStart:
    def test_lp1_unit_start(self):
        p, _ = to_standard_form(lp1().model)
        st = cold_start_point(p)
        np.testing.assert_array_equal(st.x, [1.0, 1.0])
        np.testing.assert_array_equal(st.z, [1.0, 1.0])
        np.testing.assert_array_equal(st.y, [0.0])
        assert st.mu >= 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_componentwise_floor(self, seed):
        inst = planted_equality_lp(8, 14, seed=seed)
        p, _ = to_standard_form(inst.model)
        st = cold_start_point(p)
        assert st.x.min() >= 1.0
        assert st.z.min() >= 1.0
        assert st.mu >= 1.0


def _newton(p, st, rhs_p, rhs_d, rhs_c):
    """The Newton direction at st for the given right-hand sides."""
    return NormalEquationsSolver(p, st.x, st.z).solve(rhs_p, rhs_d, rhs_c)


class TestKktSolve:
    def test_scalar_exact(self):
        p = StandardLp(np.array([[1.0]]), [1.0], [1.0])
        st = IpmState(np.array([1.0]), np.array([0.0]), np.array([1.0]))
        dx, dy, dz = _newton(p, st, np.array([0.5]), np.array([0.25]), np.array([-1.0]))
        # normal matrix is 1; verify all three equations exactly
        assert dx[0] == pytest.approx(0.5, abs=1e-12)
        assert dy[0] + dz[0] == pytest.approx(0.25, abs=1e-12)
        assert dx[0] + dz[0] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_rhs_gives_zero_direction(self):
        p, _ = to_standard_form(lp2().model)
        st = cold_start_point(p)
        dx, dy, dz = _newton(p, st, np.zeros(p.m), np.zeros(p.n), np.zeros(p.n))
        np.testing.assert_allclose(dx, 0.0, atol=1e-12)
        np.testing.assert_allclose(dy, 0.0, atol=1e-12)
        np.testing.assert_allclose(dz, 0.0, atol=1e-12)

    def test_primal_equation_satisfied_at_cold_start(self):
        p, _ = to_standard_form(lp1().model)
        st = cold_start_point(p)
        rhs_p = p.b - p.A @ st.x
        rhs_d = p.c - p.A.T @ st.y - st.z
        dx, dy, dz = _newton(p, st, rhs_p, rhs_d, -st.x * st.z)
        np.testing.assert_allclose(p.A @ dx, rhs_p, atol=1e-10)
        np.testing.assert_allclose(p.A.T @ dy + dz, rhs_d, atol=1e-10)

    def test_interior_required(self):
        from hybridlp import InvalidModelError

        p, _ = to_standard_form(lp1().model)
        st = IpmState(np.array([1.0, 0.0]), np.zeros(1), np.ones(2))
        with pytest.raises(InvalidModelError):
            predictor_corrector_iteration(p, st)
        with pytest.raises(InvalidModelError):
            run_ipm(p, start=st)


class TestPredictorCorrector:
    def test_converged_input_returns_before_stepping(self):
        """An exactly centered feasible point with mu = 1e-12 already passes
        the relative criteria; run_ipm takes zero iterations."""
        p, _ = to_standard_form(lp1().model)
        mu = 1e-12
        start = IpmState(
            x=np.array([1.0, mu]), y=np.array([1.0 - mu]), z=np.array([mu, 1.0])
        )
        pt, stats = run_ipm(p, IpmParams(), start=start)
        assert stats.status.value == "Optimal"
        assert stats.iterations == 0

    def test_single_variable_mu_drops_tenfold(self):
        """Scalar Newton algebra: one iteration from (x, y, z) = (1.1, 0.9, 0.1)
        on min x s.t. x = 1 cuts mu by at least 10x."""
        p = StandardLp(np.array([[1.0]]), [1.0], [1.0])
        st = IpmState(np.array([1.1]), np.array([0.9]), np.array([0.1]))
        mu0 = st.mu
        st, report = predictor_corrector_iteration(p, st)
        assert report.mu_after <= mu0 / 10.0

    def test_fraction_to_boundary_guarantee(self):
        """x+ >= (1 - step_fraction) x componentwise on every iteration."""
        inst = planted_equality_lp(10, 18, seed=3)
        p, _ = to_standard_form(inst.model)
        st = cold_start_point(p)
        for _ in range(8):
            x_before = st.x.copy()
            z_before = st.z.copy()
            st, report = predictor_corrector_iteration(p, st)
            floor_x = (1.0 - hybridlp.ipm._STEP_FRACTION) * x_before
            floor_z = (1.0 - hybridlp.ipm._STEP_FRACTION) * z_before
            assert np.all(st.x >= floor_x - 1e-15)
            assert np.all(st.z >= floor_z - 1e-15)

    def test_strict_positivity_preserved(self):
        inst = planted_equality_lp(12, 22, seed=4)
        p, _ = to_standard_form(inst.model)
        st = cold_start_point(p)
        for _ in range(10):
            st, _ = predictor_corrector_iteration(p, st)
            assert np.all(st.x > 0) and np.all(st.z > 0)


class TestRunIpm:
    def test_lp1_cold_optimal(self):
        inst = lp1()
        p, fmap = to_standard_form(inst.model)
        pt, stats = run_ipm(p)
        assert stats.status.value == "Optimal"
        assert stats.iterations <= 20
        x, y, _ = restrict_point(inst.model, fmap, pt)
        v = evaluate_general_point(inst.model, x, y)
        assert v.max_violation <= 1e-8

    def test_lp2_cold_matches_hand_solution(self):
        inst = lp2()
        p, _ = to_standard_form(inst.model)
        pt, stats = run_ipm(p)
        assert stats.status.value == "Optimal"
        np.testing.assert_allclose(pt.x, [1.6, 1.2, 0.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(pt.y, [-0.4, -0.2], atol=1e-6)

    def test_boundary_start_stalls(self):
        """A coordinate pinned at 1e-9 in both x and z forces a huge centering
        correction through the other columns; the fraction-to-boundary step
        collapses below min_step and the solver reports Stalled."""
        p, _ = to_standard_form(lp2().model)
        start = IpmState(
            x=np.array([1.0, 1.0, 1e-9, 1.0]),
            y=np.zeros(2),
            z=np.array([1.0, 1.0, 1e-9, 1.0]),
        )
        pt, stats = run_ipm(p, start=start)
        assert stats.status.value == "Stalled"
        assert stats.history[-1]["alpha_p"] < 1e-6 or stats.history[-1]["alpha_d"] < 1e-6

    def test_mu_monotone_on_desk_instances(self):
        """mu_{k+1} <= 1.01 mu_k across iterations (corrector noise allowed)."""
        for seed in (1, 2, 3):
            inst = planted_equality_lp(15, 27, seed=seed)
            p, _ = to_standard_form(inst.model)
            scaled, _ = ruiz_equilibrate(p)
            _, stats = run_ipm(scaled)
            assert stats.status.value == "Optimal"
            mus = [h["mu"] for h in stats.history]
            for a, b in zip(mus, mus[1:]):
                assert b <= a * 1.01

    def test_iteration_count_equals_history_length(self):
        p, _ = to_standard_form(lp2().model)
        pt, stats = run_ipm(p)
        assert stats.iterations == len(stats.history)

    def test_iteration_limit_status(self, monkeypatch):
        monkeypatch.setattr(hybridlp.ipm, "_MAX_ITERS", 2)
        inst = planted_equality_lp(10, 18, seed=11)
        p, _ = to_standard_form(inst.model)
        pt, stats = run_ipm(p)
        assert stats.status.value == "IterationLimit"
        assert stats.iterations == 2

    def test_time_limit_status(self):
        inst = planted_equality_lp(10, 18, seed=12)
        p, _ = to_standard_form(inst.model)
        pt, stats = run_ipm(p, time_limit_s=0.0)
        assert stats.status.value == "TimeLimit"

    def test_quadratic_tail_on_desk_instance(self):
        """Once the scaled violation is under 1e-4, at most 4 more iterations
        reach the 1e-8 criteria."""
        for seed in (5, 6):
            inst = planted_equality_lp(20, 35, seed=seed)
            p, _ = to_standard_form(inst.model)
            scaled, _ = ruiz_equilibrate(p)
            _, stats = run_ipm(scaled)
            assert stats.status.value == "Optimal"
            viols = [h["max_violation"] for h in stats.history]
            below = [i for i, v in enumerate(viols) if v < 1e-4]
            assert below, "never reached 1e-4"
            assert len(viols) - 1 - below[0] <= 4


def _newton_residual(p, st, rhs, direction):
    """Largest relative residual of the three Newton equations."""
    (rhs_p, rhs_d, rhs_c), (dx, dy, dz) = rhs, direction
    pairs = (
        (p.A @ dx - rhs_p, rhs_p),
        (p.A.T @ dy + dz - rhs_d, rhs_d),
        (st.z * dx + st.x * dz - rhs_c, rhs_c),
    )
    return max(np.max(np.abs(r)) / (1.0 + np.max(np.abs(b))) for r, b in pairs)


def _cold_rhs(p, st):
    return p.b - p.A @ st.x, p.c - p.A.T @ st.y - st.z, -st.x * st.z


def _with_duplicated_row(p, i=0):
    A = np.vstack([p.A.toarray(), p.A.toarray()[i]])
    return StandardLp(A, np.append(p.b, p.b[i]), p.c)


# Rows 0 and 1 are equal, so A A' is singular.  At x = z = 1 every Cholesky
# step is exact (M[0:2, 0:2] is all 4s): the second pivot is exactly zero.
SINGULAR = StandardLp(
    np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 2.0]]),
    [4.0, 4.0, 2.0],
    [1.0, 2.0, 3.0, 4.0],
)
UNIT_START = IpmState(np.ones(4), np.zeros(3), np.ones(4))


class TestRegularizationLadder:
    def test_singular_normal_matrix_climbs_the_ladder(self):
        rhs = _cold_rhs(SINGULAR, UNIT_START)
        solver = NormalEquationsSolver(SINGULAR, UNIT_START.x, UNIT_START.z)
        direction = solver.solve(*rhs)
        assert solver.level > 0
        assert _newton_residual(SINGULAR, UNIT_START, rhs, direction) <= 1e-8

    @pytest.mark.parametrize("inst", desk_suite(), ids=lambda inst: inst.name)
    def test_duplicated_row_on_desk_models(self, inst):
        """A duplicated equality row leaves the Newton equations solvable to
        1e-8 at whatever rung the solver settles on."""
        p = _with_duplicated_row(to_standard_form(inst.model)[0])
        st = cold_start_point(p)
        rhs = _cold_rhs(p, st)
        assert _newton_residual(p, st, rhs, _newton(p, st, *rhs)) <= 1e-8

    def test_inconsistent_system_exhausts_the_ladder(self):
        rhs_p, rhs_d, rhs_c = _cold_rhs(SINGULAR, UNIT_START)
        rhs_p[1] += 1.0  # A dx cannot differ in two equal rows
        with pytest.raises(NumericalFailure, match="residual above tolerance"):
            _newton(SINGULAR, UNIT_START, rhs_p, rhs_d, rhs_c)

    def test_factorization_failure_on_the_last_rung(self, monkeypatch):
        monkeypatch.setattr(hybridlp.ipm, "_REG_LADDER", (0.0,))
        with pytest.raises(NumericalFailure, match="factorization failed"):
            NormalEquationsSolver(SINGULAR, UNIT_START.x, UNIT_START.z)

    def test_stats_report_backend_and_level(self):
        _, stats = run_ipm(SINGULAR)
        assert stats.status.value == "Optimal"
        assert stats.backend == "dense"
        assert stats.max_reg_level > 0


class TestDenseLadderMatrix:
    """Every rung hands cho_factor tril(A D^2 A') + delta I, bitwise."""

    @staticmethod
    def _assert_rungs(p, st, factored) -> int:
        solver = NormalEquationsSolver(p, st.x, st.z)
        solver.solve(*_cold_rhs(p, st))
        lower = np.tril(normal_matrix(p, solver.d2).toarray())
        assert len(factored) == solver.level + 1
        for rung, a in enumerate(factored):
            assert np.array_equal(a, lower + _REG_LADDER[rung] * np.eye(p.m))
        return solver.level

    def test_singular(self, factored):
        assert self._assert_rungs(SINGULAR, UNIT_START, factored) > 0

    def test_duplicated_row_on_desk_models(self, factored):
        levels = []
        for inst in desk_suite():
            p = _with_duplicated_row(to_standard_form(inst.model)[0])
            levels.append(self._assert_rungs(p, cold_start_point(p), factored))
            factored.clear()
        assert max(levels) > 0


class TestSparseLadderMatrix:
    """With the memory cap at zero, every rung hands splu
    A D^2 A' + delta I, bitwise."""

    @pytest.fixture
    def factored(self, monkeypatch) -> list:
        seen = []
        real = hybridlp.ipm.spla.splu

        def spy(a, *args, **kwargs):
            seen.append(a.toarray())
            return real(a, *args, **kwargs)

        monkeypatch.setattr(hybridlp.ipm, "_DENSE_CAP_BYTES", 0)
        monkeypatch.setattr(hybridlp.ipm.spla, "splu", spy)
        return seen

    @staticmethod
    def _assert_rungs(p, st, factored) -> int:
        solver = NormalEquationsSolver(p, st.x, st.z)
        solver.solve(*_cold_rhs(p, st))
        full = normal_matrix(p, solver.d2).toarray()
        assert len(factored) == solver.level + 1
        for rung, a in enumerate(factored):
            assert np.array_equal(a, full + _REG_LADDER[rung] * np.eye(p.m))
        return solver.level

    def test_singular(self, factored):
        assert self._assert_rungs(SINGULAR, UNIT_START, factored) > 0

    def test_duplicated_row_on_desk_models(self, factored):
        levels = []
        for inst in desk_suite():
            p = _with_duplicated_row(to_standard_form(inst.model)[0])
            levels.append(self._assert_rungs(p, cold_start_point(p), factored))
            factored.clear()
        assert max(levels) > 0


def test_model_without_entries_gets_a_status():
    """A with no stored entries: the normal matrix is float64 zeros, so the
    ladder can add its delta, and run_ipm ends with a status."""
    p = StandardLp(sp.csr_matrix((1, 1)), [0.0], [1.0])
    assert normal_lower(p, np.ones(1)).dtype == np.float64
    _, stats = run_ipm(p)
    assert stats.status.value == "Optimal"
    assert stats.max_reg_level > 0


def test_pair_list_built_once_per_model(monkeypatch):
    """run_ipm builds a model's pair list once on the dense backend, and
    never on the sparse one."""
    builds = []
    build = hybridlp.lp_core._normal_pairs
    monkeypatch.setattr(
        hybridlp.lp_core, "_normal_pairs", lambda A: builds.append(A.shape) or build(A)
    )
    for inst in desk_suite():
        builds.clear()
        _, stats = run_ipm(to_standard_form(inst.model)[0])
        assert stats.iterations > 1
        assert len(builds) == 1
    monkeypatch.setattr(hybridlp.ipm, "_DENSE_CAP_BYTES", 0)
    builds.clear()
    for inst in desk_suite():
        run_ipm(to_standard_form(inst.model)[0])
    assert builds == []


def _solve_all(models):
    return [
        (stats.status, stats.iterations, stats.backend)
        for stats in (run_ipm(p)[1] for p in models)
    ]


class TestSparseFallback:
    """With the memory cap at zero every model takes the splu path."""

    def test_backend_follows_the_cap(self, monkeypatch):
        monkeypatch.setattr(hybridlp.ipm, "_DENSE_CAP_BYTES", 256 << 20)
        assert hybridlp.ipm.normal_backend(5792) == "dense"
        assert hybridlp.ipm.normal_backend(5793) == "sparse"
        monkeypatch.setattr(hybridlp.ipm, "_DENSE_CAP_BYTES", 0)
        assert hybridlp.ipm.normal_backend(1) == "sparse"

    def test_cap_is_a_quarter_of_physical_memory(self, monkeypatch):
        pages = {"SC_PHYS_PAGES": 2 << 20, "SC_PAGE_SIZE": 4096}  # 8 GiB
        monkeypatch.setattr(hybridlp.ipm.os, "sysconf", pages.__getitem__)
        assert hybridlp.ipm._dense_cap_bytes() == 2 << 30

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_cap_falls_back_without_sysconf(self, monkeypatch, error):
        def sysconf(name):
            raise error(name)

        monkeypatch.setattr(hybridlp.ipm.os, "sysconf", sysconf)
        assert hybridlp.ipm._dense_cap_bytes() == 256 << 20

    def test_statuses_and_iterations_match_dense(self, monkeypatch):
        models = []
        for inst in desk_suite():
            p, _ = to_standard_form(inst.model)
            models.extend([p, ruiz_equilibrate(p)[0]])
        dense = _solve_all(models)
        monkeypatch.setattr(hybridlp.ipm, "_DENSE_CAP_BYTES", 0)
        sparse = _solve_all(models)
        assert {b for _, _, b in dense} == {"dense"}
        assert {b for _, _, b in sparse} == {"sparse"}
        assert [s[:2] for s in sparse] == [d[:2] for d in dense]

    def test_hybrid_stats_carry_the_backend(self, monkeypatch):
        g = lp2().model
        sol, stats = solve(g, "hybrid")
        monkeypatch.setattr(hybridlp.ipm, "_DENSE_CAP_BYTES", 0)
        sparse_sol, sparse_stats = solve(g, "hybrid")
        assert stats.ipm_stats.backend == "dense"
        assert sparse_stats.ipm_stats.backend == "sparse"
        assert (sparse_sol.status, sparse_sol.ipm_iterations) == (
            sol.status, sol.ipm_iterations
        )


def test_one_residual_evaluation_per_iterate(monkeypatch):
    calls = []
    real = hybridlp.ipm.residuals

    def counted(p, pt):
        calls.append(1)
        return real(p, pt)

    monkeypatch.setattr(hybridlp.ipm, "residuals", counted)
    p, _ = to_standard_form(planted_equality_lp(15, 27, seed=1).model)
    _, stats = run_ipm(p)
    assert stats.status.value == "Optimal"
    assert len(calls) == stats.iterations + 1


def test_three_transpose_products_per_iterate(monkeypatch):
    """A'y once for the iterate's residuals and once per Newton solve."""
    calls = []
    real = StandardLp.at_y

    def counted(self, y):
        calls.append(1)
        return real(self, y)

    monkeypatch.setattr(StandardLp, "at_y", counted)
    p, _ = ruiz_equilibrate(to_standard_form(planted_equality_lp(15, 27, seed=1).model)[0])
    _, stats = run_ipm(p, start=cold_start_point(p))
    assert stats.status.value == "Optimal"
    assert len(calls) == 1 + 3 * stats.iterations


@pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan")])
def test_params_reject_nonpositive_eps_rel(eps):
    with pytest.raises(ValueError, match="eps_rel"):
        IpmParams(eps_rel=eps)


def _warm_start(p: StandardLp) -> IpmState:
    """The hybrid's start on p: the centered PDHG point at 1e-4."""
    pt = centered_start(run_pdhg(p, PdhgParams(eps_rel=1e-4))[0])
    return IpmState(pt.x, pt.y, pt.z)


def _polished(p: StandardLp, start: IpmState):
    """warm_started_ipm's point and stats from start."""
    res = warm_started_ipm(p, start, IpmParams(), WarmStartParams())
    return res.point, res.stats


def _scaled(inst) -> StandardLp:
    return ruiz_equilibrate(to_standard_form(inst.model)[0])[0]


class TestBasisPolish:
    def test_boundary_start_fails_the_gate(self):
        """Acceptance criterion 8's boundary start has x - z = 0 everywhere:
        no column is basic, so the interior point steps from it and stalls."""
        p, _ = to_standard_form(lp2().model)
        start = IpmState(
            x=np.array([1.0, 1.0, 1e-9, 1.0]),
            y=np.zeros(2),
            z=np.array([1.0, 1.0, 1e-9, 1.0]),
        )
        assert basis_polish(p, start, 1e-8) == (None, None, "no basis")
        res = warm_started_ipm(p, start, IpmParams(), WarmStartParams(max_escalations=0))
        assert res.stats.polish == "no basis"
        assert res.stats.status.value == "Stalled"

    def test_cold_start_makes_no_attempt(self):
        _, stats = run_ipm(to_standard_form(lp2().model)[0])
        assert stats.polish == ""
        assert stats.iterations > 0

    def test_run_ipm_makes_no_attempt_from_a_start(self, monkeypatch):
        """Only warm_started_ipm polishes: from the start it would polish,
        run_ipm steps."""
        monkeypatch.setattr(hybridlp.ipm, "basis_polish", None)
        p = _scaled(planted_equality_lp(40, 70, seed=20))
        _, stats = run_ipm(p, start=_warm_start(p))
        assert (stats.status.value, stats.polish) == ("Optimal", "")
        assert stats.iterations > 0

    def test_accepted_vertex_ends_the_solve(self):
        p = _scaled(planted_equality_lp(40, 70, seed=20))
        pt, stats = _polished(p, _warm_start(p))
        assert stats.polish == "accepted"
        assert (stats.status.value, stats.iterations, stats.history) == ("Optimal", 0, [])
        assert stats.termination.ok
        assert np.count_nonzero(pt.x) <= p.m
        assert min(pt.x.min(), pt.z.min()) >= 0.0

    def test_singular_basis_is_refused(self):
        """Rows 0 and 1 of SINGULAR are equal, so every BB' is singular."""
        start = IpmState(np.array([3.0, 2.0, 1.0, 1e-3]), np.zeros(3), np.full(4, 1e-3))
        assert basis_polish(SINGULAR, start, 1e-8)[2] == "singular"

    def test_negative_basic_value_is_refused(self):
        """x1 - x2 = -1 with x1 the one basic column sets x1 = -1."""
        p = StandardLp([[1.0, -1.0]], [-1.0], [1.0, 0.0])
        start = KktPoint(np.array([2.0, 0.1]), np.zeros(1), np.array([0.1, 1.0]))
        assert basis_polish(p, start, 1e-8) == (None, None, "infeasible")

    @pytest.mark.parametrize("eps, reason", [(1e-8, "accepted"), (1e-300, "not optimal")])
    def test_verdict_follows_the_tolerance(self, eps, reason):
        """lp2's vertex from its hybrid start passes the relative test at
        1e-8, and its rounding error fails it at 1e-300."""
        p = _scaled(lp2())
        assert basis_polish(p, _warm_start(p), eps)[2] == reason

    @pytest.mark.parametrize("inst", [lp2(), planted_equality_lp(40, 70, seed=20),
                                      planted_equality_lp(120, 200, seed=24)],
                             ids=lambda inst: inst.name)
    def test_sparse_backend_matches_dense(self, inst, monkeypatch):
        p = _scaled(inst)
        start = _warm_start(p)
        dense, dense_stats = _polished(p, start)
        monkeypatch.setattr(hybridlp.ipm, "_DENSE_CAP_BYTES", 0)
        sparse, sparse_stats = _polished(p, start)
        assert (dense_stats.backend, sparse_stats.backend) == ("dense", "sparse")
        assert dense_stats.polish == sparse_stats.polish == "accepted"
        for a, b in ((dense.x, sparse.x), (dense.y, sparse.y), (dense.z, sparse.z)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 10),
        extra=st.integers(0, 10),
        seed=st.integers(0, 2**16),
        spread=st.floats(1e-8, 1e-2),
    )
    def test_accepted_point_is_a_feasible_vertex(self, m, extra, seed, spread):
        """From a perturbed planted optimum: whatever basis_polish accepts is
        in the cone, zero off the m columns with the largest x - z, and
        solves Ax = b."""
        inst = planted_equality_lp(m, m + extra, seed=seed)
        p, _ = to_standard_form(inst.model)
        rng = np.random.default_rng(seed)
        z_star = p.c - p.A.T @ inst.y_star
        x = inst.x_star + spread * rng.uniform(0.1, 1.0, p.n)
        z = np.maximum(z_star, 0.0) + spread * rng.uniform(0.1, 1.0, p.n)
        pt, check, reason = basis_polish(p, IpmState(x, inst.y_star.copy(), z), 1e-8)
        assert reason in ("accepted", "no basis", "singular", "infeasible", "not optimal")
        if pt is None:
            return
        assert check.ok
        assert pt.x.min() >= 0.0 and pt.z.min() >= 0.0
        gap = x - z
        assert np.all(gap[pt.x != 0] >= np.sort(gap)[p.n - p.m])
        assert np.max(np.abs(p.A @ pt.x - p.b)) <= 1e-9
