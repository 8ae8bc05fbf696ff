"""Centered-start construction, the stall-escalation driver, and hybrid solves."""

import dataclasses

import numpy as np
import pytest

import hybridlp.ipm
import hybridlp.pdhg
import hybridlp.warmstart
from hybridlp import (
    EQ,
    GeneralLp,
    IpmParams,
    IpmState,
    KktPoint,
    PdhgParams,
    SolveStatus,
    WarmStartParams,
    centered_start,
    check_relative_termination,
    mu_target,
    predictor_corrector_iteration,
    run_ipm,
    run_pdhg,
    solve,
    to_standard_form,
)
from hybridlp.warmstart import center_toward_target, prepare_model, warm_started_ipm

from _desk import desk_suite, lp1, lp2


class TestMuTarget:
    def test_floor_active_on_zero_vectors(self):
        assert mu_target(np.zeros(3), np.zeros(3)) == 1e-6

    def test_plain_arithmetic(self):
        assert mu_target([1.0, 1.0], [2.0, 0.0]) == 1.0

    def test_exact_tie(self):
        assert mu_target([1e-3], [1e-3]) == 1e-6

    def test_dimension_check(self):
        from hybridlp import InvalidModelError

        with pytest.raises(InvalidModelError):
            mu_target([1.0], [1.0, 2.0])
        with pytest.raises(InvalidModelError):
            mu_target([], [])


class TestCenterTowardTarget:
    """The three worked coordinate examples, executed by hand:
    mu_target = 1e-6, alpha_min = 1e-6, delta_max = 1e-4 throughout."""

    def test_tiny_x_large_z(self):
        # (0, 5): floor x to 1e-6, move to mu/z = 2e-7, z stays 5.0;
        # the final re-floor lifts x back to 1e-6.
        x, z = center_toward_target([0.0], [5.0], 1e-6, 1e-6, 1e-4)
        assert x[0] == pytest.approx(1e-6, rel=0, abs=0)
        assert z[0] == 5.0

    def test_both_large_clamps_bind(self):
        # (3, 2): else-branch; z' = max(mu/3, 2 - 1e-4) = 1.9999,
        # x' = max(mu/1.9999, 3 - 1e-4) = 2.9999.
        x, z = center_toward_target([3.0], [2.0], 1e-6, 1e-6, 1e-4)
        assert z[0] == pytest.approx(1.9999, rel=0, abs=1e-15)
        assert x[0] == pytest.approx(2.9999, rel=0, abs=1e-15)

    def test_fixed_point_at_target_product(self):
        # (1e-3, 1e-3) already satisfies x z = mu; nothing moves.
        x, z = center_toward_target([1e-3], [1e-3], 1e-6, 1e-6, 1e-4)
        assert x[0] == 1e-3 and z[0] == 1e-3

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pair_properties(self, seed):
        """Floor, clamp-distance, and exact-product invariants on random pairs."""
        rng = np.random.default_rng(seed)
        n = 2500
        scale = 10.0 ** rng.uniform(-9, 1, n)
        x = rng.uniform(0.0, 1.0, n) * scale
        z = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-9, 1, n)
        a, d = 1e-6, 1e-4
        mu = 1e-6
        xp, zp = center_toward_target(x, z, mu, a, d)

        # floor holds everywhere after the re-floor
        assert xp.min() >= a and zp.min() >= a
        # moves are clamped around the floored inputs; rounding of v +- delta
        # can overshoot by a few ulp of the larger operand
        fx, fz = np.maximum(x, a), np.maximum(z, a)
        assert np.all(np.abs(xp - fx) <= d + 4 * np.spacing(np.maximum(fx, d)))
        assert np.all(np.abs(zp - fz) <= d + 4 * np.spacing(np.maximum(fz, d)))
        # where no clamp or floor bound, the product is exactly mu
        untouched = (
            (np.abs(xp - fx) < d - 1e-12)
            & (np.abs(zp - fz) < d - 1e-12)
            & (xp > a)
            & (zp > a)
        )
        prod = xp[untouched] * zp[untouched]
        np.testing.assert_allclose(prod, mu, rtol=1e-9)

    def test_idempotent_on_own_fixed_point(self):
        """Already-centered vectors at the target with entries above the floor
        are left untouched by a second application."""
        rng = np.random.default_rng(1)
        x = rng.uniform(1e-2, 1.0, 50)
        mu = 1e-6
        z = mu / x
        x1, z1 = center_toward_target(x, z, mu, 1e-6, 1e-4)
        x2, z2 = center_toward_target(x1, z1, mu, 1e-6, 1e-4)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(z1, z2)


class TestCenteredStart:
    def test_y_never_modified(self):
        rng = np.random.default_rng(0)
        pt = KktPoint(rng.uniform(0, 2, 6), rng.standard_normal(4), rng.uniform(0, 2, 6))
        out = centered_start(pt)
        np.testing.assert_array_equal(out.y, pt.y)

    def test_strictly_positive_output(self):
        pt = KktPoint(np.zeros(5), np.zeros(2), np.zeros(5))
        out = centered_start(pt)
        assert out.x.min() >= 1e-6 and out.z.min() >= 1e-6

    def test_uses_own_complementarity_when_large(self):
        """mu_target = x'z/n when that beats the floor; an already balanced
        pair at that product does not move."""
        pt = KktPoint(np.array([2.0, 0.5]), np.zeros(1), np.array([0.5, 2.0]))
        out = centered_start(pt)  # mu = (1 + 1)/2 = 1, products already 1
        np.testing.assert_allclose(out.x * out.z, 1.0, rtol=1e-12)


class TestWarmStartedIpm:
    def test_escalation_recovers_from_boundary_stall(self):
        """Constructed boundary start: first solve stalls, one escalation
        re-floors (x, z) at 1e-5 and the resumed solve converges."""
        p, _ = to_standard_form(lp2().model)
        start = KktPoint(
            np.array([1.0, 1.0, 1e-9, 1.0]),
            np.zeros(2),
            np.array([1.0, 1.0, 1e-9, 1.0]),
        )
        res = warm_started_ipm(p, start, IpmParams(), WarmStartParams())
        assert res.stats.status.value == "Optimal"
        assert res.escalations >= 1
        assert res.total_iterations > 0

    def test_escalations_capped(self):
        p, _ = to_standard_form(lp2().model)
        start = KktPoint(
            np.array([1.0, 1.0, 1e-9, 1.0]),
            np.zeros(2),
            np.array([1.0, 1.0, 1e-9, 1.0]),
        )
        ws = WarmStartParams(max_escalations=0)
        res = warm_started_ipm(p, start, IpmParams(), ws)
        assert res.stats.status.value == "Stalled"
        assert res.escalations == 0

    def test_one_polish_attempt_across_escalations(self, monkeypatch):
        """The boundary start is refused once ("no basis"); the stall
        escalations after it run the interior point and make no attempt."""
        p, _ = to_standard_form(lp2().model)
        start = KktPoint(
            np.array([1.0, 1.0, 1e-9, 1.0]),
            np.zeros(2),
            np.array([1.0, 1.0, 1e-9, 1.0]),
        )
        verdicts = []
        real = hybridlp.warmstart.basis_polish

        def spy(*args):
            out = real(*args)
            verdicts.append(out[2])
            return out

        monkeypatch.setattr(hybridlp.warmstart, "basis_polish", spy)
        res = warm_started_ipm(p, start, IpmParams(), WarmStartParams())
        assert verdicts == ["no basis"]
        assert res.stats.polish == "no basis"
        assert res.escalations >= 1
        assert res.stats.status is SolveStatus.OPTIMAL

    def test_stats_cover_every_run(self, monkeypatch):
        """After a stall escalation the stats count the iterations, history,
        regularization and wall time of every run_ipm call, the stalled step
        included."""
        p, _ = to_standard_form(lp2().model)
        start = KktPoint(
            np.array([1.0, 1.0, 1e-9, 1.0]),
            np.zeros(2),
            np.array([1.0, 1.0, 1e-9, 1.0]),
        )
        runs = []
        real = hybridlp.warmstart.run_ipm

        def spy(*args, **kwargs):
            pt, stats = real(*args, **kwargs)
            runs.append(dataclasses.replace(stats, history=list(stats.history)))
            return pt, stats

        monkeypatch.setattr(hybridlp.warmstart, "run_ipm", spy)
        res = warm_started_ipm(p, start, IpmParams(), WarmStartParams())
        assert res.escalations >= 1 and len(runs) == res.escalations + 1
        assert res.stats.iterations == res.total_iterations == len(res.stats.history)
        assert res.stats.iterations == sum(r.iterations for r in runs)
        assert res.stats.history == [entry for r in runs for entry in r.history]
        assert res.stats.max_reg_level == max(r.max_reg_level for r in runs)
        assert any(
            min(h["alpha_p"], h["alpha_d"]) < hybridlp.ipm._MIN_STEP for h in res.stats.history
        )
        assert res.stats.wall_seconds >= sum(r.wall_seconds for r in runs)


class TestHybridSolve:
    def test_lp1_warm_beats_cold(self):
        inst = lp1()
        sol, stats = solve(inst.model, "hybrid")
        assert sol.status == "Optimal"
        p, _ = to_standard_form(inst.model)
        _, cold = run_ipm(p)
        assert sol.ipm_iterations <= cold.iterations

    def test_lp2_accuracy_lift(self):
        """The refined point is orders of magnitude more accurate than the
        first-order point it started from."""
        inst = lp2()
        sol, _ = solve(inst.model, "hybrid")
        assert sol.status == "Optimal"
        assert sol.violation.max_violation <= 1e-7

        from hybridlp.bench import solve_with_method

        pdhg_sol, _ = solve_with_method(inst.model, "pdhg-1e4")
        v0 = pdhg_sol.violation.max_violation
        assert 1e-8 < v0 <= 1e-3
        assert sol.violation.max_violation <= v0 * 1e-3

    def test_presolve_only_model_skips_solvers(self):
        """Fully fixed model: neither solver phase runs."""
        g = GeneralLp(
            c=[4.0], A=[[1.0]], senses=[EQ], rhs=[1.0],
            lower=[1.0], upper=[1.0],
        )
        sol, stats = solve(g, "hybrid")
        assert sol.status == "Optimal"
        assert sol.pdhg_iterations == 0
        assert sol.ipm_iterations == 0
        assert stats.pdhg_stats is None and stats.ipm_stats is None
        assert sol.message == "solved by presolve"
        np.testing.assert_allclose(sol.x, [1.0])
        assert sol.violation.max_violation == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_model_reports_infeasible_status(self):
        g = GeneralLp(
            c=[1.0], A=[[0.0]], senses=[EQ], rhs=[5.0],
            lower=[0.0], upper=[np.inf],
        )
        sol, _ = solve(g, "hybrid")
        assert sol.status == "Infeasible"
        assert sol.message.startswith("presolve: ")

    def test_phase_tag_on_pdhg_failure(self, monkeypatch):
        monkeypatch.setattr(hybridlp.pdhg, "_MAX_CHECKS", 1)
        inst = lp2()
        sol, stats = solve(inst.model, "hybrid", eps_rel=1e-12)
        assert sol.status == "IterationLimit"
        assert sol.message.startswith("pdhg:")
        assert sol.violation is not None

    @pytest.mark.parametrize("method", ["hybrid", "ipm-cold"])
    @pytest.mark.parametrize("inst", desk_suite(), ids=lambda inst: inst.name)
    def test_file_and_stats_count_the_same_iterations(self, inst, method):
        sol, stats = solve(inst.model, method)
        assert sol.ipm_iterations == stats.ipm_stats.iterations

    def test_scaled_and_original_violations_both_reported(self):
        sol, stats = solve(lp2().model, "hybrid")
        assert stats.scaled_violation is not None
        assert sol.violation is not None


def _steps_without_polish(p, start: KktPoint, params: IpmParams) -> IpmState:
    """run_ipm's loop written out: check, then step, until the check passes
    or a step stalls."""
    state = IpmState(start.x.copy(), start.y.copy(), start.z.copy())
    while not check_relative_termination(p, state, params.eps_rel).ok:
        state, report = predictor_corrector_iteration(p, state)
        if report.min_alpha < hybridlp.ipm._MIN_STEP:
            break
    return state


class TestBasisPolishInTheHybrid:
    @pytest.mark.parametrize("inst", desk_suite(), ids=lambda inst: inst.name)
    def test_desk_model_polished_or_refusal_named(self, inst):
        sol, stats = solve(inst.model, "hybrid")
        assert sol.status == "Optimal"
        polish = stats.ipm_stats.polish
        if polish == "accepted":
            assert sol.ipm_iterations == 0
            assert sol.violation.max_violation <= 1e-12
        else:
            assert polish in ("no basis", "singular", "infeasible", "not optimal")
            assert sol.ipm_iterations > 0

    def test_degenerate_model_refused_and_still_optimal(self):
        inst = next(i for i in desk_suite() if i.name == "degenerate")
        sol, stats = solve(inst.model, "hybrid")
        assert stats.ipm_stats.polish != "accepted"
        assert sol.status == "Optimal"
        assert sol.violation.max_violation <= 1e-7

    @pytest.mark.parametrize("name", ["lp2", "eq_40x70_s20", "eq_120x200_s24", "ineq_35x60_s34"])
    def test_refusal_leaves_the_interior_point_path_unchanged(self, name, monkeypatch):
        """With every attempt refused, the warm result is the plain
        predictor-corrector path from the same start, bit for bit."""
        inst = next(i for i in desk_suite() if i.name == name)
        p = prepare_model(inst.model).solve_model
        start = centered_start(run_pdhg(p, PdhgParams(eps_rel=1e-4))[0])
        monkeypatch.setattr(
            hybridlp.warmstart, "basis_polish", lambda p, state, eps_rel: (None, None, "not optimal")
        )
        res = warm_started_ipm(p, start, IpmParams(), WarmStartParams())
        ref = _steps_without_polish(p, start, IpmParams())
        assert (res.stats.status, res.escalations, res.stats.polish) == (
            SolveStatus.OPTIMAL, 0, "not optimal"
        )
        assert res.total_iterations == ref.iterations > 0
        for a, b in ((res.point.x, ref.x), (res.point.y, ref.y), (res.point.z, ref.z)):
            assert np.array_equal(a, b)
