"""Core model tests: standard form, residuals, termination, violations."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from hybridlp import (
    EQ,
    GE,
    LE,
    GeneralLp,
    InvalidModelError,
    KktPoint,
    StandardLp,
    check_relative_termination,
    evaluate_general_point,
    residuals,
    restrict_point,
    to_standard_form,
    violation_summary,
)
from hybridlp.lp_core import _lift

from _desk import lp1, lp2


def _linprog_general(g: GeneralLp) -> float:
    """Independent optimal-value oracle on the general form (HiGHS)."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    A = g.A.toarray()
    for i, s in enumerate(g.senses):
        if s == LE:
            A_ub.append(A[i]); b_ub.append(g.rhs[i])
        elif s == GE:
            A_ub.append(-A[i]); b_ub.append(-g.rhs[i])
        else:
            A_eq.append(A[i]); b_eq.append(g.rhs[i])
    res = linprog(
        g.c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(g.lower, g.upper)),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun + g.obj_offset


def _linprog_standard(p) -> float:
    res = linprog(
        p.c, A_eq=p.A.toarray(), b_eq=p.b, bounds=[(0, None)] * p.n, method="highs"
    )
    assert res.status == 0, res.message
    return res.fun


class TestToStandardForm:
    def test_already_standard(self):
        inst = lp1()
        p, fmap = to_standard_form(inst.model)
        np.testing.assert_array_equal(p.A.toarray(), [[1.0, 1.0]])
        np.testing.assert_array_equal(p.b, [1.0])
        np.testing.assert_array_equal(p.c, [1.0, 2.0])
        assert fmap.obj_shift == 0.0

    def test_slack_augmentation(self):
        """Two <= rows gain slack columns 2 and 3; optimal values agree with
        an independent solve of both forms."""
        inst = lp2()
        p, fmap = to_standard_form(inst.model)
        np.testing.assert_array_equal(
            p.A.toarray(), [[1, 2, 1, 0], [3, 1, 0, 1]]
        )
        np.testing.assert_array_equal(p.b, [4.0, 6.0])
        np.testing.assert_array_equal(p.c, [-1.0, -1.0, 0.0, 0.0])
        assert list(fmap.slack_columns()) == [2, 3]
        assert _linprog_standard(p) + fmap.obj_shift == pytest.approx(
            _linprog_general(inst.model), abs=1e-9
        )

    def test_lower_bound_shift(self):
        """x1 in [2, inf): column shifted, b reduced by 2 * col 1, constant +2."""
        g = GeneralLp(
            c=[1.0], A=[[3.0]], senses=[LE], rhs=[12.0],
            lower=[2.0], upper=[np.inf],
        )
        p, fmap = to_standard_form(g)
        np.testing.assert_array_equal(p.b, [12.0 - 3.0 * 2.0])
        assert fmap.obj_shift == pytest.approx(2.0)
        assert fmap.shifts[0] == 2.0

    def test_free_split_and_upper_bound_rows(self):
        g = GeneralLp(
            c=[1.0, -1.0], A=[[1.0, 1.0]], senses=[EQ], rhs=[3.0],
            lower=[-np.inf, 0.0], upper=[np.inf, 2.0],
        )
        p, fmap = to_standard_form(g)
        # free var splits into two columns, bounded var gains a row + slack
        assert fmap.neg_col[0] == 1
        assert p.m == 2 and p.n == 4
        assert _linprog_standard(p) + fmap.obj_shift == pytest.approx(
            _linprog_general(g), abs=1e-9
        )

    def test_rejects_crossed_bounds_with_index(self):
        g = GeneralLp(
            c=[1.0, 1.0], A=[[1.0, 1.0]], senses=[EQ], rhs=[1.0],
            lower=[0.0, 3.0], upper=[np.inf, 2.0],
        )
        with pytest.raises(InvalidModelError, match="variable 1"):
            to_standard_form(g)

    @pytest.mark.parametrize(
        "lower, upper",
        [(np.nan, 2.0), (0.0, np.nan), (np.inf, np.inf), (-np.inf, -np.inf)],
        ids=["nan-lower", "nan-upper", "inf-lower", "minus-inf-upper"],
    )
    def test_rejects_bounds_that_cannot_hold_with_index(self, lower, upper):
        """The standard form would read each of these bounds as no bound."""
        g = GeneralLp(
            c=[1.0, 1.0], A=[[1.0, 1.0]], senses=[EQ], rhs=[1.0],
            lower=[0.0, lower], upper=[np.inf, upper],
        )
        with pytest.raises(InvalidModelError, match="variable 1"):
            to_standard_form(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_optimal_value_equivalence_random(self, seed):
        """Feasible-set equivalence oracle: independent solves of the general
        model and its standard form give the same optimal value."""
        rng = np.random.default_rng(seed)
        m, n = 4, 6
        A = rng.uniform(-1, 1, (m, n))
        x_feas = rng.uniform(0.5, 1.5, n)
        senses = [rng.choice([LE, GE, EQ]) for _ in range(m)]
        rhs = A @ x_feas + np.array(
            [0.5 if s == LE else -0.5 if s == GE else 0.0 for s in senses]
        )
        # finite lower bounds plus positive costs keep both forms bounded
        lower = np.where(rng.random(n) < 0.3, -1.0, 0.0)
        upper = np.where(rng.random(n) < 0.3, rng.uniform(2.0, 4.0, n), np.inf)
        c = rng.uniform(0.1, 1.0, n)
        g = GeneralLp(c=c, A=A, senses=senses, rhs=rhs, lower=lower, upper=upper)
        p, fmap = to_standard_form(g)
        assert _linprog_standard(p) + fmap.obj_shift == pytest.approx(
            _linprog_general(g), abs=1e-8
        )


class TestResiduals:
    def test_optimal_basis_lp1(self):
        p, _ = to_standard_form(lp1().model)
        r = residuals(p, KktPoint([1.0, 0.0], [1.0], [0.0, 1.0]))
        np.testing.assert_allclose(r.r_p, 0.0, atol=0)
        np.testing.assert_allclose(r.r_d, 0.0, atol=0)
        assert r.comp == 0.0

    def test_feasible_non_optimal_lp1(self):
        p, _ = to_standard_form(lp1().model)
        r = residuals(p, KktPoint([0.5, 0.5], [0.0], [1.0, 2.0]))
        np.testing.assert_allclose(r.r_p, 0.0, atol=0)
        np.testing.assert_allclose(r.r_d, 0.0, atol=0)
        assert r.primal_obj == 1.5
        assert r.dual_obj == 0.0
        assert r.comp == 1.5

    def test_zero_point(self):
        p, _ = to_standard_form(lp2().model)
        r = residuals(p, KktPoint(np.zeros(4), np.zeros(2), np.zeros(4)))
        np.testing.assert_array_equal(r.r_p, p.b)
        np.testing.assert_array_equal(r.r_d, p.c)

    def test_dimension_mismatch(self):
        p, _ = to_standard_form(lp1().model)
        with pytest.raises(InvalidModelError):
            residuals(p, KktPoint([1.0], [1.0], [0.0]))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_loop_oracle(self, seed):
        """Sparse residuals agree with an explicit dense triple-loop oracle."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        c = rng.standard_normal(n)
        p = StandardLp(sp.csr_matrix(A), b, c)
        x = rng.uniform(0, 2, n)
        y = rng.standard_normal(m)
        z = rng.uniform(0, 2, n)
        r = residuals(p, KktPoint(x, y, z))

        rp_oracle = np.array(
            [b[i] - sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
        )
        rd_oracle = np.array(
            [c[j] - sum(A[i][j] * y[i] for i in range(m)) - z[j] for j in range(n)]
        )
        np.testing.assert_allclose(r.r_p, rp_oracle, atol=1e-12)
        np.testing.assert_allclose(r.r_d, rd_oracle, atol=1e-12)
        assert r.comp == pytest.approx(sum(x[j] * z[j] for j in range(n)), abs=1e-12)


class TestTermination:
    def test_exact_optimum_passes(self):
        p, _ = to_standard_form(lp1().model)
        t = check_relative_termination(p, KktPoint([1, 0], [1], [0, 1]), 1e-4)
        assert t.ok
        assert t.primal_lhs == 0.0 and t.dual_lhs == 0.0 and t.gap_lhs == 0.0
        assert t.primal_rhs > 0 and t.dual_rhs > 0 and t.gap_rhs > 0

    def test_feasible_non_optimal_fails_on_gap(self):
        p, _ = to_standard_form(lp1().model)
        t = check_relative_termination(p, KktPoint([0.5, 0.5], [0], [1, 2]), 1e-4)
        assert not t.ok
        assert t.primal_ok and t.dual_ok and not t.gap_ok
        assert t.gap_lhs == pytest.approx(1.5)
        assert t.gap_rhs == pytest.approx(1e-4 * 2.5)

    def test_zero_point_loose_eps(self):
        p, _ = to_standard_form(lp1().model)
        t = check_relative_termination(p, KktPoint([0, 0], [0], [0, 0]), 2.0)
        assert t.ok
        assert t.primal_lhs == pytest.approx(1.0)          # ||b||
        assert t.dual_lhs == pytest.approx(np.sqrt(5.0))   # ||c||
        assert t.gap_lhs == 0.0

    def test_rejects_nonpositive_eps(self):
        p, _ = to_standard_form(lp1().model)
        for eps in (0.0, float("nan")):
            with pytest.raises(ValueError):
                check_relative_termination(p, KktPoint([1, 0], [1], [0, 1]), eps)

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_in_eps(self, seed):
        rng = np.random.default_rng(seed)
        p, _ = to_standard_form(lp2().model)
        pt = KktPoint(
            rng.uniform(0, 2, p.n), rng.standard_normal(p.m), rng.uniform(0, 2, p.n)
        )
        grid = [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 10.0]
        oks = [check_relative_termination(p, pt, e).ok for e in grid]
        # once true, stays true for looser eps
        assert oks == sorted(oks)


class TestViolationSummary:
    def test_optimal_point_all_zero(self):
        p, _ = to_standard_form(lp1().model)
        v = violation_summary(p, KktPoint([1, 0], [1], [0, 1]))
        assert v.max_violation == 0.0

    def test_perturbed_primal(self):
        p, _ = to_standard_form(lp1().model)
        v = violation_summary(p, KktPoint([1 + 1e-6, 0], [1], [0, 1]))
        assert v.primal_inf == pytest.approx(1e-6)
        assert v.dual_inf == 0.0
        assert v.rel_gap == 0.0
        assert v.max_violation == pytest.approx(1e-6)

    def test_lp2_hand_solved_optimum(self):
        p, _ = to_standard_form(lp2().model)
        pt = KktPoint([1.6, 1.2, 0, 0], [-0.4, -0.2], [0, 0, 0.4, 0.2])
        v = violation_summary(p, pt)
        assert v.max_violation == pytest.approx(0.0, abs=1e-15)

    def test_negative_comp_flagged_not_clamped(self):
        p, _ = to_standard_form(lp1().model)
        v = violation_summary(p, KktPoint([1, 0], [1], [-1.0, 1.0]))
        assert v.comp_negative
        assert v.rel_gap < 0.0

    def test_zero_iff_exact_kkt(self):
        """max_violation == 0 exactly when all three conditions hold exactly."""
        p, _ = to_standard_form(lp1().model)
        good = KktPoint([1, 0], [1], [0, 1])
        assert violation_summary(p, good).max_violation == 0.0
        for bad in (
            KktPoint([1.1, 0], [1], [0, 1]),      # primal residual
            KktPoint([1, 0], [0.9], [0, 1]),      # dual residual
            KktPoint([1, 0.1], [1], [0, 1]),      # complementarity
        ):
            assert violation_summary(p, bad).max_violation > 0.0


class TestProvenanceRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_objective_round_trip(self, seed):
        """General objective = standard objective + recorded constant."""
        rng = np.random.default_rng(seed)
        n, m = 5, 3
        A = rng.standard_normal((m, n))
        senses = [rng.choice([LE, GE, EQ]) for _ in range(m)]
        lower = np.where(rng.random(n) < 0.4, -np.inf, rng.uniform(-1, 1, n))
        upper = np.where(rng.random(n) < 0.4, rng.uniform(2, 4, n), np.inf)
        upper = np.maximum(upper, lower)
        g = GeneralLp(
            c=rng.standard_normal(n), A=A, senses=senses,
            rhs=rng.standard_normal(m), lower=lower, upper=upper,
            obj_offset=rng.standard_normal(),
        )
        p, fmap = to_standard_form(g)
        x_std = rng.uniform(0, 2, p.n)
        x_g, _, _ = restrict_point(g, fmap, KktPoint(x_std, np.zeros(p.m), np.zeros(p.n)))
        lhs = g.objective_value(x_g)
        rhs = float(p.c @ x_std) + fmap.obj_shift
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_lift_of_optimum_is_violation_free(self):
        inst = lp2()
        v = evaluate_general_point(inst.model, inst.x_star, inst.y_star)
        assert v.max_violation == pytest.approx(0.0, abs=1e-12)

    def test_lift_surfaces_bound_violation(self):
        g = GeneralLp(
            c=[1.0], A=[[1.0]], senses=[LE], rhs=[5.0],
            lower=[1.0], upper=[2.0],
        )
        # x = 3 violates its upper bound by 1
        v = evaluate_general_point(g, [3.0], [0.0])
        assert v.primal_inf == pytest.approx(1.0)

    def test_lift_restrict_consistency(self):
        """restrict(lift(x, y)) returns the same general x and y."""
        rng = np.random.default_rng(0)
        inst = lp2()
        g = inst.model
        p, fmap = to_standard_form(g)
        x = rng.uniform(0, 2, g.n_vars)
        y = rng.standard_normal(g.n_rows)
        x_std, y_std, _, aty = _lift(g, fmap, p.b, x, y)
        pt = KktPoint(x_std, y_std, np.maximum(0.0, p.c - aty))
        x_back, y_back, _ = restrict_point(g, fmap, pt)
        np.testing.assert_allclose(x_back, x, atol=1e-14)
        np.testing.assert_allclose(y_back, y, atol=1e-14)



def _general(A):
    return GeneralLp(c=np.zeros(3), A=A, senses=[EQ, LE], rhs=[1.0, 2.0],
                     lower=np.zeros(3), upper=np.full(3, np.inf))


def _standard(A):
    return StandardLp(A, [1.0, 2.0], np.zeros(3))


@pytest.mark.parametrize("build", [_general, _standard], ids=["general", "standard"])
class TestCanonicalMatrix:
    """GeneralLp and StandardLp hold A as float64 CSR with sorted indices,
    duplicates summed and no stored zeros, and never change the caller's A."""

    def test_messy_input_is_canonicalized_in_a_copy(self, build):
        # row 0: unsorted, a duplicate pair at column 2 and a stored zero;
        # row 1: a pair at column 0 that sums to zero
        data = np.array([2.0, 1.0, 0.0, 4.0, 3.0, -3.0, 5.0])
        indices = np.array([2, 0, 1, 2, 0, 0, 1])
        A = sp.csr_matrix((data, indices, [0, 4, 7]), shape=(2, 3))
        held = build(A).A
        assert held.format == "csr" and held.dtype == np.float64
        assert held.has_canonical_format and held.data.all()
        assert held.nnz == 3
        np.testing.assert_array_equal(held.toarray(), A.toarray())
        np.testing.assert_array_equal(held.toarray(), [[1.0, 0.0, 6.0], [0.0, 5.0, 0.0]])
        assert A.nnz == 7, "the caller's matrix is left as it was"
        np.testing.assert_array_equal(A.indices, indices)
        np.testing.assert_array_equal(A.data, data)

    def test_canonical_float_csr_is_shared(self, build):
        A = sp.csr_matrix([[1.0, 0.0, 6.0], [0.0, 5.0, 0.0]])
        held = build(A).A
        assert np.shares_memory(held.data, A.data)
        assert np.shares_memory(held.indices, A.indices)
