"""Scaling and presolve tests, including the inverse-mapping round trips."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from hybridlp import (
    EQ,
    GE,
    LE,
    GeneralLp,
    KktPoint,
    StandardLp,
    postsolve,
    presolve,
    PresolveStatus,
    ruiz_equilibrate,
    scale_point,
    to_standard_form,
    unscale_point,
    violation_summary,
)
from hybridlp.transform import (
    EmptyColumn,
    EmptyRow,
    FixedVariable,
    SingletonRow,
)

from _desk import desk_suite, lp1, lp2


class TestRuizEquilibrate:
    def test_diagonal_closed_form(self):
        """diag(4, 1) equilibrates to the identity in one pass; the scale
        product per entry is the reciprocal of the original entry."""
        p = StandardLp(np.array([[4.0, 0.0], [0.0, 1.0]]), [1.0, 1.0], [1.0, 1.0])
        scaled, info = ruiz_equilibrate(p)
        np.testing.assert_allclose(scaled.A.toarray(), np.eye(2), atol=1e-12)
        A = p.A.toarray()
        for i in range(2):
            assert info.row_scale[i] * info.col_scale[i] == pytest.approx(1.0 / A[i, i])

    def test_all_ones_is_fixed_point(self):
        p = StandardLp(np.ones((2, 3)), np.ones(2), np.ones(3))
        scaled, info = ruiz_equilibrate(p)
        assert info.applied_iterations == 0
        np.testing.assert_array_equal(scaled.A.toarray(), p.A.toarray())

    def test_badly_scaled_reaches_norm_box(self):
        p = StandardLp(np.array([[1.0, 100.0], [0.01, 1.0]]), [1.0, 1.0], [1.0, 1.0])
        scaled, info = ruiz_equilibrate(p)
        absA = np.abs(scaled.A.toarray())
        assert info.applied_iterations <= 20
        for norm in np.r_[absA.max(axis=1), absA.max(axis=0)]:
            assert 0.99 <= norm <= 1.01

    def test_scales_b_and_c(self):
        p, _ = to_standard_form(lp2().model)
        scaled, info = ruiz_equilibrate(p)
        np.testing.assert_allclose(scaled.b, info.row_scale * p.b)
        np.testing.assert_allclose(scaled.c, info.col_scale * p.c)

    def test_zero_row_named(self):
        """An empty row keeps unit scale; the other lines reach the norm box."""
        p = StandardLp(np.array([[4.0, 1.0], [0.0, 0.0], [1.0, 9.0]]), [1.0, 0.0, 1.0], [1.0, 1.0])
        scaled, info = ruiz_equilibrate(p)
        assert info.row_scale[1] == 1.0
        absA = np.abs(scaled.A.toarray())
        for norm in np.r_[absA.max(axis=1)[[0, 2]], absA.max(axis=0)]:
            assert 0.99 <= norm <= 1.01

    def test_zero_column_named(self):
        """An empty column keeps unit scale; the other lines reach the norm box."""
        p = StandardLp(np.array([[4.0, 0.0, 1.0], [1.0, 0.0, 9.0]]), [1.0, 1.0], [1.0, 1.0, 1.0])
        scaled, info = ruiz_equilibrate(p)
        assert info.col_scale[1] == 1.0
        assert scaled.c[1] == 1.0
        absA = np.abs(scaled.A.toarray())
        for norm in np.r_[absA.max(axis=1), absA.max(axis=0)[[0, 2]]]:
            assert 0.99 <= norm <= 1.01

    def test_norm_box_on_desk_suite(self):
        """Loose [0.5, 2] box holds for every desk matrix at max_iters."""
        for inst in desk_suite():
            p, _ = to_standard_form(inst.model)
            scaled, _ = ruiz_equilibrate(p)
            absA = np.abs(scaled.A.toarray())
            norms = np.r_[absA.max(axis=1), absA.max(axis=0)]
            assert norms.min() >= 0.5 and norms.max() <= 2.0, inst.name

    def test_solution_set_preserved(self):
        """Optimal value of the scaled model maps back to the original's."""
        for inst in (lp2(), desk_suite()[7]):
            p, _ = to_standard_form(inst.model)
            scaled, info = ruiz_equilibrate(p)
            res_orig = linprog(p.c, A_eq=p.A.toarray(), b_eq=p.b,
                               bounds=[(0, None)] * p.n, method="highs")
            res_scaled = linprog(scaled.c, A_eq=scaled.A.toarray(), b_eq=scaled.b,
                                 bounds=[(0, None)] * scaled.n, method="highs")
            assert res_orig.status == 0 and res_scaled.status == 0
            # x = C x_scaled is optimal for the original
            x_back = info.col_scale * res_scaled.x
            assert p.c @ x_back == pytest.approx(res_orig.fun, abs=1e-8)
            np.testing.assert_allclose(p.A @ x_back, p.b, atol=1e-8)


class TestUnscalePoint:
    def test_identity_scales(self):
        p, _ = to_standard_form(lp1().model)
        scaled, info = ruiz_equilibrate(p)  # lp1 is already all ones
        pt = KktPoint([1.0, 0.0], [1.0], [0.0, 1.0])
        out = unscale_point(info, pt)
        np.testing.assert_array_equal(out.x, pt.x)
        np.testing.assert_array_equal(out.y, pt.y)
        np.testing.assert_array_equal(out.z, pt.z)

    def test_row_scaled_lp1_dual(self):
        """Scaling row 1 by 2 halves the scaled dual; unscaling restores y = 1."""
        from hybridlp import ScalingInfo

        info = ScalingInfo(row_scale=np.array([2.0]), col_scale=np.ones(2),
                           applied_iterations=1)
        out = unscale_point(info, KktPoint([1.0, 0.0], [0.5], [0.0, 1.0]))
        np.testing.assert_allclose(out.y, [1.0])
        np.testing.assert_allclose(out.x, [1.0, 0.0])

    def test_inverse_pair_random(self):
        rng = np.random.default_rng(3)
        p = StandardLp(rng.uniform(0.5, 2.0, (3, 4)), rng.uniform(1, 2, 3),
                       rng.uniform(1, 2, 4))
        _, info = ruiz_equilibrate(p)
        pt = KktPoint(rng.uniform(0, 2, 4), rng.standard_normal(3), rng.uniform(0, 2, 4))
        back = unscale_point(info, scale_point(info, pt))
        np.testing.assert_allclose(back.x, pt.x, atol=1e-14)
        np.testing.assert_allclose(back.y, pt.y, atol=1e-14)
        np.testing.assert_allclose(back.z, pt.z, atol=1e-14)

    def test_residual_identity(self):
        """r_p(original) = R^-1 r_p(scaled), r_d(original) = C^-1 r_d(scaled)."""
        from hybridlp import residuals

        rng = np.random.default_rng(5)
        p, _ = to_standard_form(lp2().model)
        scaled, info = ruiz_equilibrate(p)
        pt_s = KktPoint(rng.uniform(0, 2, p.n), rng.standard_normal(p.m),
                        rng.uniform(0, 2, p.n))
        pt = unscale_point(info, pt_s)
        r_orig = residuals(p, pt)
        r_scaled = residuals(scaled, pt_s)
        np.testing.assert_allclose(r_orig.r_p, r_scaled.r_p / info.row_scale, atol=1e-12)
        np.testing.assert_allclose(r_orig.r_d, r_scaled.r_d / info.col_scale, atol=1e-12)


class TestPresolve:
    def test_fixed_variable_removed(self):
        """x1 fixed at 1 by its bounds is eliminated with the rhs adjusted;
        the leftover singleton row x2 = 2 then reduces to fixpoint."""
        g = GeneralLp(
            c=[2.0, 1.0], A=[[1.0, 1.0]], senses=[EQ], rhs=[3.0],
            lower=[1.0, 0.0], upper=[1.0, np.inf],
        )
        res = presolve(g)
        assert res.status is PresolveStatus.REDUCED
        rec = res.stack.records[0]
        assert isinstance(rec, FixedVariable) and rec.j == 0 and rec.value == 1.0
        follow_up = res.stack.records[1]
        assert isinstance(follow_up, SingletonRow)
        assert follow_up.value == pytest.approx(2.0)  # rhs became 3 - 1
        assert res.solved
        assert res.model.obj_offset == pytest.approx(2.0 + 2.0)

    def test_empty_zero_row_dropped(self):
        g = GeneralLp(
            c=[1.0], A=[[0.0], [1.0]], senses=[EQ, EQ], rhs=[0.0, 1.0],
            lower=[0.0], upper=[np.inf],
        )
        res = presolve(g)
        assert res.status is PresolveStatus.REDUCED
        assert any(isinstance(r, EmptyRow) for r in res.stack.records)
        assert res.model.n_vars == 0  # singleton row then fixes x

    def test_empty_row_infeasible(self):
        g = GeneralLp(
            c=[1.0], A=[[0.0], [1.0]], senses=[EQ, EQ], rhs=[5.0, 1.0],
            lower=[0.0], upper=[np.inf],
        )
        res = presolve(g)
        assert res.status is PresolveStatus.INFEASIBLE
        assert "empty row" in res.message

    def test_empty_column_fixed_by_cost_sign(self):
        g = GeneralLp(
            c=[1.0, -1.0, 1.0], A=[[1.0, 0.0, 0.0]], senses=[EQ], rhs=[2.0],
            lower=[0.0, 0.0, 0.0], upper=[np.inf, 3.0, np.inf],
        )
        res = presolve(g)
        assert res.status is PresolveStatus.REDUCED
        values = [r.value for r in res.stack.records if isinstance(r, EmptyColumn)]
        # negative cost goes to its upper bound, positive to its lower
        assert values == [3.0, 0.0]
        assert res.model.obj_offset == pytest.approx(-1.0)

    def test_empty_column_unbounded(self):
        g = GeneralLp(
            c=[1.0, -1.0], A=[[1.0, 0.0]], senses=[EQ], rhs=[2.0],
            lower=[0.0, 0.0], upper=[np.inf, np.inf],
        )
        res = presolve(g)
        assert res.status is PresolveStatus.UNBOUNDED

    def test_singleton_row_substitution(self):
        """Row x3 = 5 eliminates x3 and updates dependent rows; optimal value
        matches an independent solve of the original."""
        g = GeneralLp(
            c=[1.0, 2.0, 3.0],
            A=[[0.0, 0.0, 2.0], [1.0, 1.0, 1.0]],
            senses=[EQ, GE], rhs=[10.0, 8.0],
            lower=[0.0, 0.0, 0.0], upper=[np.inf, np.inf, np.inf],
        )
        res = presolve(g)
        assert res.status is PresolveStatus.REDUCED
        assert any(isinstance(r, SingletonRow) for r in res.stack.records)
        assert res.model.n_vars == 2 and res.model.n_rows == 1
        np.testing.assert_allclose(res.model.rhs, [3.0])   # 8 - 5
        assert res.model.obj_offset == pytest.approx(15.0)

        orig = linprog(g.c, A_ub=[[-1.0, -1.0, -1.0]], b_ub=[-8.0],
                       A_eq=[[0.0, 0.0, 2.0]], b_eq=[10.0], method="highs")
        red = res.model
        reduced = linprog(red.c, A_ub=[[-1.0, -1.0]], b_ub=[-red.rhs[0]], method="highs")
        assert reduced.fun + red.obj_offset == pytest.approx(orig.fun, abs=1e-9)

    def test_singleton_row_out_of_bounds_infeasible(self):
        g = GeneralLp(
            c=[1.0], A=[[2.0]], senses=[EQ], rhs=[10.0],
            lower=[0.0], upper=[1.0],
        )
        res = presolve(g)
        assert res.status is PresolveStatus.INFEASIBLE
        assert "outside" in res.message

    def test_model_fully_solved(self):
        """x1 = 1 by bounds; the leftover row becomes empty and consistent."""
        g = GeneralLp(
            c=[4.0], A=[[1.0]], senses=[LE], rhs=[2.0],
            lower=[1.0], upper=[1.0],
        )
        res = presolve(g)
        assert res.status is PresolveStatus.REDUCED
        assert res.solved
        assert res.model.obj_offset == pytest.approx(4.0)


class TestPostsolve:
    def test_empty_stack_identity(self):
        inst = lp2()
        res = presolve(inst.model)  # nothing to reduce
        assert not res.stack.records
        pt = KktPoint([1.6, 1.2], [-0.4, -0.2], [0.0, 0.0])
        out = postsolve(res.stack, pt, inst.model)
        np.testing.assert_array_equal(out.x, pt.x)
        np.testing.assert_array_equal(out.y, pt.y)

    def test_fixed_variable_reinserted(self):
        g = GeneralLp(
            c=[2.0, 1.0, 1.0], A=[[1.0, 1.0, 1.0]], senses=[EQ], rhs=[3.0],
            lower=[0.0, 0.0, 1.0], upper=[np.inf, np.inf, 1.0],
        )
        res = presolve(g)
        assert res.model.n_vars == 2
        out = postsolve(res.stack, KktPoint([0.0, 2.0], [1.0], [1.0, 0.0]), g)
        assert out.x[2] == 1.0
        np.testing.assert_allclose(out.x, [0.0, 2.0, 1.0])

    def test_singleton_row_dual_zeroes_reduced_cost(self):
        """Hand-solved 3-var instance: the reinstated y_i makes the restored
        column's reduced cost exactly zero."""
        g = GeneralLp(
            c=[1.0, 2.0, 3.0],
            A=[[0.0, 0.0, 2.0], [1.0, 1.0, 1.0]],
            senses=[EQ, GE], rhs=[10.0, 8.0],
            lower=[0.0] * 3, upper=[np.inf] * 3,
        )
        res = presolve(g)
        red = res.model
        # reduced model: min x1 + 2 x2 s.t. x1 + x2 >= 3 -> optimum (3, 0), y = 1
        pt_red = KktPoint([3.0, 0.0], [1.0], [0.0, 1.0])
        out = postsolve(res.stack, pt_red, g)
        np.testing.assert_allclose(out.x, [3.0, 0.0, 5.0])
        # restored column 3: z3 = c3 - 2 y1 - 1 y2 = 3 - 2 y1 - 1 = 0
        assert out.z[2] == pytest.approx(0.0, abs=1e-12)
        assert out.y[0] == pytest.approx(1.0)

    def test_dims_mismatch_rejected(self):
        inst = lp2()
        res = presolve(inst.model)
        from hybridlp import InvalidModelError

        with pytest.raises(InvalidModelError):
            postsolve(res.stack, KktPoint([1.0], [0.0], [0.0]), inst.model)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_feasibility(self, seed):
        """Postsolving a feasible reduced point keeps original infeasibility
        within the reduced infeasibility plus 1e-12."""
        rng = np.random.default_rng(seed)
        # model with a fixed var, a singleton row, and an empty row
        n = 5
        A = np.vstack([
            np.r_[0.0, 0.0, 3.0, 0.0, 0.0],      # singleton: x3 = 2
            rng.uniform(-1, 1, n),
            np.zeros(n),                           # empty row
            rng.uniform(-1, 1, n),
        ])
        senses = [EQ, LE, EQ, GE]
        x_feas = rng.uniform(0.5, 1.5, n)
        x_feas[2] = 2.0
        x_feas[4] = 0.7                            # fixed by bounds below
        rhs = np.array([6.0, A[1] @ x_feas + 0.5, 0.0, A[3] @ x_feas - 0.5])
        lower = np.zeros(n)
        upper = np.full(n, np.inf)
        lower[4] = upper[4] = 0.7
        g = GeneralLp(c=rng.standard_normal(n), A=A, senses=senses, rhs=rhs,
                      lower=lower, upper=upper)
        res = presolve(g)
        assert res.status is PresolveStatus.REDUCED
        red = res.model

        x_red = rng.uniform(0.0, 2.0, red.n_vars)
        y_red = rng.standard_normal(red.n_rows)
        from hybridlp import evaluate_general_point

        reduced_inf = evaluate_general_point(red, x_red, y_red).primal_inf
        out = postsolve(res.stack, KktPoint(x_red, y_red, np.zeros(red.n_vars)), g)
        original_inf = evaluate_general_point(g, out.x, out.y).primal_inf
        assert original_inf <= reduced_inf + 1e-12


def test_presolve_sums_duplicate_entries():
    """A stored pair (0,0)=1 and (0,0)=2 is one coefficient 3: fixing x0 = 1
    leaves x1 = 5 - 3 = 2, not 5 - 2 from the last entry alone."""
    A = sp.csr_matrix(
        (np.array([1.0, 2.0, 1.0]), np.array([0, 0, 1]), np.array([0, 3])), shape=(1, 2)
    )
    g = GeneralLp(
        c=[1.0, 1.0], A=A, senses=[EQ], rhs=[5.0],
        lower=[1.0, 0.0], upper=[1.0, np.inf],
    )
    res = presolve(g)
    assert res.solved
    assert [type(r) for r in res.stack.records] == [FixedVariable, SingletonRow]
    assert res.stack.records[1].value == 2.0
    out = postsolve(res.stack, KktPoint([], [], []), g)
    np.testing.assert_array_equal(out.x, [1.0, 2.0])
