"""The shared solve pipeline: one deadline and one set of presolve exits for every method."""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import hybridlp.warmstart
from hybridlp import (
    EQ, GE, LE, GeneralLp, IpmParams, KktPoint, evaluate_general_point, parse_mps,
)
from hybridlp.bench import solve_with_method
from hybridlp.warmstart import METHODS, finish_point, prepare_model

from _desk import desk_suite
from test_lp_core import _linprog_general

FIXTURES = Path(__file__).parent / "fixtures"
# the five methods the paper compares
PAPER_METHODS = ("pdhg-1e4", "pdhg-1e6", "pdhg-1e8", "ipm-cold", "hybrid")


@pytest.mark.parametrize("method", ["pdhg-1e4", "ipm-cold", "hybrid"])
def test_time_limit_covers_presolve(monkeypatch, method):
    """Presolve alone overruns the limit, so the first solver stage times out
    before its first iteration."""
    real_presolve = hybridlp.warmstart.presolve

    def slow_presolve(g):
        result = real_presolve(g)
        time.sleep(0.3)
        return result

    monkeypatch.setattr(hybridlp.warmstart, "presolve", slow_presolve)
    g = parse_mps((FIXTURES / "lp2.mps").read_text())
    sol, record = solve_with_method(g, method, time_limit_s=0.1)
    assert sol.status == "TimeLimit"
    assert sol.message in ("pdhg: TimeLimit", "ipm: TimeLimit")
    assert sol.x.shape == (g.n_vars,)
    assert (sol.pdhg_iterations, sol.ipm_iterations) == (0, 0)
    assert record.status == "TimeLimit"


FULLY_FIXED = GeneralLp(
    c=[4.0], A=[[1.0]], senses=[EQ], rhs=[1.0], lower=[1.0], upper=[1.0],
)
PRESOLVE_INFEASIBLE = GeneralLp(
    c=[1.0], A=[[0.0]], senses=[EQ], rhs=[5.0], lower=[0.0], upper=[np.inf],
)
PRESOLVE_UNBOUNDED = GeneralLp(  # column 1 is empty, with negative cost and no upper bound
    c=[1.0, -1.0], A=[[1.0, 0.0]], senses=[LE], rhs=[4.0],
    lower=[0.0, 0.0], upper=[np.inf, np.inf],
)
FIXED_THEN_INFEASIBLE = GeneralLp(  # fixing x0 = 2 leaves row 0 requiring 0 = 1
    c=[1.0, 1.0], A=[[1.0, 0.0], [0.0, 1.0]], senses=[EQ, LE], rhs=[3.0, 4.0],
    lower=[2.0, 0.0], upper=[2.0, np.inf],
)


@pytest.mark.parametrize(
    "g, status, message, x",
    [
        (FULLY_FIXED, "Optimal", "solved by presolve", [1.0]),
        (PRESOLVE_INFEASIBLE, "Infeasible", "presolve: ", [0.0]),
        (PRESOLVE_UNBOUNDED, "Unbounded", "presolve: ", [0.0, 0.0]),
        (FIXED_THEN_INFEASIBLE, "Infeasible", "presolve: ", [2.0, 0.0]),
    ],
    ids=["solved-by-presolve", "presolve-infeasible", "presolve-unbounded", "fixed-then-infeasible"],
)
def test_presolve_exits_are_shared_by_every_method(g, status, message, x):
    """Every method reports a presolve exit as itself, with the postsolved
    point: the values presolve recorded before it stopped, zeros elsewhere."""
    results = [solve_with_method(g, m) for m in PAPER_METHODS]
    first = results[0][0]
    assert first.status == status
    assert first.message.startswith(message)
    np.testing.assert_array_equal(first.x, x)
    np.testing.assert_array_equal(first.z, g.c - g.A.T @ first.y)
    assert first.violation == evaluate_general_point(g, first.x, first.y)
    for method, (sol, record) in zip(PAPER_METHODS, results):
        assert sol.method == method
        assert sol.status == record.status == first.status
        assert sol.message == record.message == first.message
        assert (sol.pdhg_iterations, sol.ipm_iterations, sol.escalations) == (0, 0, 0)
        np.testing.assert_array_equal(sol.x, first.x)


def _without_entries(c, senses, rhs):
    n = len(c)
    return GeneralLp(
        c=c, A=np.zeros((len(senses), n)), senses=senses, rhs=rhs,
        lower=np.zeros(n), upper=np.full(n, np.inf),
    )


@pytest.mark.parametrize(
    "g, status",
    [
        (_without_entries([1.0, 2.0], [], []), "Optimal"),
        (_without_entries([-1.0, 2.0], [], []), "Unbounded"),
        (_without_entries([1.0], [EQ], [0.0]), "Optimal"),
        (_without_entries([1.0], [EQ], [1.0]), "Infeasible"),
    ],
    ids=["rowless", "rowless-negative-cost", "empty-eq-row-rhs-0", "empty-eq-row-rhs-1"],
)
@pytest.mark.parametrize("method", PAPER_METHODS)
def test_model_without_entries_is_presolved_regardless(g, status, method):
    """A model whose A has no stored entries gets a status from every method:
    presolve settles it outright, and no solver stage runs."""
    sol, _ = solve_with_method(g, method)
    assert sol.status == status
    assert (sol.pdhg_iterations, sol.ipm_iterations) == (0, 0)


STORED_ZERO_MPS = """NAME ZERO
ROWS
 N OBJ
 E R1
 E R2
COLUMNS
 X OBJ 1
 X R1 0
 X R2 1
 Y OBJ 1
 Y R2 1
RHS
 RHS R2 1
ENDATA
"""


@pytest.mark.parametrize("method", ["hybrid", "ipm-cold", "pdhg-1e4"])
def test_stored_zero_is_not_a_pivot(method):
    """R1 holds only a stored zero, so it is an empty row, not a singleton
    row fixing X = 0 / 0."""
    g = parse_mps(STORED_ZERO_MPS)
    sol, _ = solve_with_method(g, method)
    assert sol.status == "Optimal"
    assert np.isfinite(sol.x).all()
    assert g.objective_value(sol.x) == pytest.approx(1.0, abs=1e-3)


# Row 0 holds the duplicate pair (0, 0) = 1, 2 and a stored zero at (0, 1),
# and column 0 has a finite lower bound of 1.  Presolve reduces nothing, but
# its canonical copy of A sums the pair.
NONCANONICAL = GeneralLp(
    c=[1.0, 2.0, -1.0],
    A=sp.csr_matrix(
        ([1.0, 2.0, 0.0, 1.0, 1.0, -1.0, 3.0], [0, 0, 1, 2, 0, 1, 2], [0, 4, 7]),
        shape=(2, 3),
    ),
    senses=[LE, GE], rhs=[5.0, 1.0],
    lower=[1.0, 0.0, -np.inf], upper=[np.inf, 4.0, np.inf],
)


def _finish_models():
    models = [(inst.name, inst.model) for inst in desk_suite()]
    models += [(path.name, parse_mps(path.read_text())) for path in sorted(FIXTURES.glob("*.mps"))]
    return models + [("noncanonical", NONCANONICAL)]


@pytest.mark.parametrize("name, g", _finish_models(), ids=[n for n, _ in _finish_models()])
def test_finish_measures_on_the_original_model(name, g):
    """finish_point's violation summary is bitwise the one from measuring
    the restored point on the original model."""
    prep = prepare_model(g)
    p = prep.solve_model
    rng = np.random.default_rng(p.n)
    pt = KktPoint(rng.uniform(0.0, 2.0, p.n), rng.normal(size=p.m), rng.uniform(0.0, 1.0, p.n))
    finished = finish_point(prep, pt)
    rebuilt = evaluate_general_point(g, finished.x, finished.y)
    assert repr(finished.violation) == repr(rebuilt)


# the solvers test their tolerance on the presolved, scaled model, and
# unscaling and postsolve loosen it on the original; the benchmark's
# objective check allows the same factor
OBJECTIVE_SLACK = 10.0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name, g", _finish_models(), ids=[n for n, _ in _finish_models()])
def test_objective_agrees_with_highs(name, g, method):
    """Every method solves every model, and its objective on the original
    model is HiGHS's within 10 times the method's tolerance."""
    want = _linprog_general(g)  # HiGHS optimal, obj_offset added
    sol, _ = solve_with_method(g, method)
    assert sol.status == "Optimal", sol.message
    eps = METHODS[method][1] or IpmParams().eps_rel
    got = g.objective_value(sol.x)
    assert abs(got - want) <= OBJECTIVE_SLACK * eps * (1.0 + abs(got) + abs(want))


# A duplicate pair (0, 0) = 1, 1 in the one row 2 x0 + x1 = 5, with x0 >= 1:
# shifting x0 must move b by the summed coefficient 2, as A holds it.
DUPLICATE_ENTRY = GeneralLp(
    c=[1.0, 1.0],
    A=sp.csr_matrix(([1.0, 1.0, 1.0], [0, 0, 1], [0, 3]), shape=(1, 2)),
    senses=[EQ], rhs=[5.0], lower=[1.0, 0.0], upper=[np.inf, np.inf],
)


@pytest.mark.parametrize("method", ["hybrid", "ipm-cold"])
def test_duplicate_entries_are_solved_and_measured_as_summed(method):
    sol, _ = solve_with_method(DUPLICATE_ENTRY, method)
    assert sol.status == "Optimal"
    assert 2.0 * sol.x[0] + sol.x[1] == pytest.approx(5.0, abs=1e-7)
    assert sol.violation.max_violation <= 1e-7


@pytest.mark.parametrize("method", ["pdhg-1e4", "ipm-cold", "hybrid"])
def test_sparse_matrices_built_per_solve(monkeypatch, method):
    """A guard on object churn: each scipy compressed sparse matrix costs
    tens of microseconds to build, a visible share of a desk-scale solve.
    A solve builds two: the standard form and its scaled copy.  No CSC form
    is built, since every A'v is the CSC kernel on A's CSR arrays, the
    IPM's pair list is built from them too and the cold start's lsqr reads
    A through them; measuring on the original model builds none."""
    from scipy.sparse._compressed import _cs_matrix

    real = _cs_matrix.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        real(self, *args, **kwargs)

    g = next(inst.model for inst in desk_suite() if inst.name == "boxed")
    monkeypatch.setattr(_cs_matrix, "__init__", counted)
    sol, _ = solve_with_method(g, method)
    assert sol.status == "Optimal"
    assert len(built) <= 2, built
