"""Tests of the benchmark itself: inputs, names, span arithmetic, the oracle.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from hybridlp import EQ, LE, parse_mps, presolve
from gen import padded_lp, planted_lp, write_mps
from probe import NOMINAL_S, Probe
from spans import (
    Span,
    Tracer,
    check_nesting,
    check_operation_sums,
    layer_self_times,
    self_times,
)
from workloads import (
    WORKLOADS,
    Case,
    ok_frac,
    run_operation,
    same_outcome,
    traced_operation,
)

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _model_arrays(g):
    return (g.A.toarray(), g.c, g.rhs, g.lower, g.upper, list(g.senses))


def _same_model(a, b) -> bool:
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(_model_arrays(a), _model_arrays(b)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    build = WORKLOADS[name].build
    a, b, c = build(3), build(3), build(4)
    assert [x.name for x in a] == [x.name for x in b]
    for x, y, z in zip(a, b, c):
        if x.mps is not None:
            assert x.mps.encode() == y.mps.encode()
            assert x.mps != z.mps
        else:
            assert _same_model(x.model, y.model)
            assert not _same_model(x.model, z.model)
        assert x.obj_star == y.obj_star != z.obj_star


@pytest.mark.parametrize("name", ["hybrid-planted", "pdhg-tail", "ipm-cold"])
def test_planted_workloads_leave_presolve_nothing_to_do(name):
    for case in WORKLOADS[name].build(1):
        assert presolve(case.model).stack.records == [], case.name


def test_names_use_only_allowed_characters():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.fullmatch(n), n
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("op", "bench", 0, None, 0.0, 10.0),
        Span("a", "pdhg", 0, 0, 1.0, 4.0),
        Span("a.inner", "lp_core", 0, 1, 2.0, 3.0),
        Span("b", "ipm", 0, 0, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert layer_self_times(spans) == {"bench": 3.0, "pdhg": 2.0, "lp_core": 1.0, "ipm": 4.0}
    assert sum(self_times(spans)) == spans[0].duration
    check_nesting(spans)
    check_operation_sums(spans)
    spans.append(Span("late", "ipm", 0, 3, 8.0, 9.5))
    with pytest.raises(ValueError):
        check_nesting(spans)


def test_probe_calibrates_by_the_samples_near_each_timing():
    probe = Probe(every_s=3600.0)
    probe.tick()
    probe.tick()
    assert len(probe.samples) == 1 and probe.samples[0] > 0
    probe.times = [0.0, 1.0, 10.0]
    probe.samples = [2 * NOMINAL_S, 4 * NOMINAL_S, NOMINAL_S]
    assert probe.calibrate(3.0, at=0.5) == pytest.approx(1.0)
    assert probe.calibrate(3.0, at=10.0) == pytest.approx(3.0)
    assert probe.calibrate(3.0, at=30.0) == pytest.approx(3.0)


def _small_cases(seeds=(1, 2, 3)):
    cases = []
    for s in seeds:
        p = planted_lp(20, 35, s, density=0.2, le_frac=0.3)
        cases.append(Case(p.name, p.obj_star, model=p.model))
    return cases


def test_failed_operations_lower_ok_frac():
    wl = WORKLOADS["pdhg-tail"]
    cases = _small_cases()
    ops = [run_operation(c, wl) for c in cases]
    assert ok_frac(ops) == 1.0
    timed_out = run_operation(cases[0], wl, time_limit_s=0.0)
    assert timed_out.status != "Optimal" and not timed_out.ok
    wrong = cases[1]
    wrong_optimum = Case(wrong.name, wrong.obj_star + 1.0, model=wrong.model)
    missed = run_operation(wrong_optimum, wl)
    assert missed.status == "Optimal" and not missed.ok
    assert ok_frac(ops + [timed_out, missed]) == pytest.approx(3 / 5)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_composition_reproduces_the_operation(name):
    wl = WORKLOADS[name]
    if wl.name == "presolve-mps":
        p = padded_lp(20, 35, 1, density=0.2, n_fixed=30, n_singleton=30, n_empty=30)
        cases = [Case(p.name, p.obj_star, mps=write_mps(p.model, p.name))]
    else:
        cases = _small_cases()
    for case in cases:
        tr = Tracer()
        traced = traced_operation(tr, case, wl)
        assert same_outcome(traced.result, run_operation(case, wl))
        assert traced.result.ok
        check_nesting(tr.spans)
        check_operation_sums(tr.spans)


def test_mps_round_trip_is_exact():
    p = padded_lp(20, 35, 5, density=0.2, n_fixed=10, n_singleton=10, n_empty=10)
    g = parse_mps(write_mps(p.model, p.name))
    assert _same_model(g, p.model)
    assert g.variable_names() == p.model.variable_names()


def _highs_objective(g) -> float:
    eq = np.array([s == EQ for s in g.senses])
    le = np.array([s == LE for s in g.senses])
    assert (eq | le).all()
    res = linprog(
        g.c,
        A_ub=g.A[le] if le.any() else None, b_ub=g.rhs[le] if le.any() else None,
        A_eq=g.A[eq] if eq.any() else None, b_eq=g.rhs[eq] if eq.any() else None,
        bounds=[(lo, None if math.isinf(up) else up) for lo, up in zip(g.lower, g.upper)],
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun + g.obj_offset


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_planted_optimum_matches_highs(name):
    for case in WORKLOADS[name].build(1):
        g = parse_mps(case.mps) if case.mps is not None else case.model
        obj = _highs_objective(g)
        assert abs(obj - case.obj_star) <= 1e-9 * (1.0 + abs(case.obj_star)), case.name
