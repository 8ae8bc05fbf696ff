"""The benchmark's workloads, its operation and correctness check, and the
staged composition of the pipeline that the traced run times.

One operation is one call to ``hybridlp.bench.solve_with_method(g, method)``,
preceded by ``parse_mps(text)`` on the MPS workload, timed with
``time.perf_counter``.  It passes when the status is Optimal and the
objective lies within the method's tolerance of the planted optimum.
"""

from __future__ import annotations

import math
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass

from hybridlp import (
    GeneralLp,
    IpmParams,
    PdhgParams,
    PresolveStatus,
    SolveStatus,
    WarmStartParams,
    centered_start,
    parse_mps,
    presolve,
    ruiz_equilibrate,
    run_ipm,
    run_pdhg,
    to_standard_form,
    warm_started_ipm,
)
from hybridlp.bench import solve_with_method
from hybridlp.mps_io import make_solution_file
from hybridlp.warmstart import PreparedModel, finish_point

from gen import padded_lp, planted_lp, write_mps

# solve_with_method's default time limit; it never binds on these corpora
TIME_LIMIT_S = 10_000.0
PDHG_EPS = {"pdhg-1e6": 1e-6}
HYBRID_PDHG_EPS = 1e-4
IPM_EPS = IpmParams().eps_rel


@dataclass
class Case:
    name: str
    obj_star: float
    model: GeneralLp | None = None   # None when the input is MPS text
    mps: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    eps: float             # the tolerance the method states for its result
    build: Callable[[int], list[Case]]


def _instance_seeds(seed: int, spec):
    """(row, instance seed) for every instance; seeds never share an instance."""
    i = 0
    for row in spec:
        for _ in range(row[-1]):
            yield row, seed * 1000 + i
            i += 1


def _planted_cases(seed: int, spec) -> list[Case]:
    """spec: (m, n, density, le_frac, count) rows."""
    cases = []
    for (m, n, density, le_frac, _), s in _instance_seeds(seed, spec):
        p = planted_lp(m, n, s, density=density, le_frac=le_frac)
        cases.append(Case(p.name, p.obj_star, model=p.model))
    return cases


def _presolve_cases(seed: int, spec) -> list[Case]:
    """spec: (core m, core n, core density, fixed, singleton rows, empty
    columns, count) rows."""
    cases = []
    for (m, n, density, n_fixed, n_single, n_empty, _), s in _instance_seeds(seed, spec):
        p = padded_lp(m, n, s, density=density, n_fixed=n_fixed,
                      n_singleton=n_single, n_empty=n_empty)
        cases.append(Case(p.name, p.obj_star, mps=write_mps(p.model, p.name)))
    return cases


# One pass over a corpus takes about 15 to 19 s on a 2-core x86 machine.  Every seed
# gives new instances, and PDHG iteration counts vary by 30-50% between
# instances of one shape, so each corpus holds many instances.  Rows keep about
# 3 to 8 entries: with denser rows, PDHG at 1e-6 has heavy-tailed iteration
# counts, up to its 200,000 limit on some desk-scale instances.
HYBRID_SPEC = [
    (200, 350, 0.02, 0.3, 36),
    (300, 525, 0.012, 0.3, 36),
    (400, 700, 0.008, 0.3, 30),
    (600, 1050, 0.006, 0.3, 14),
    (1000, 1800, 0.004, 0.3, 5),
]
PDHG_TAIL_SPEC = [
    (20, 35, 0.1, 0.5, 48),
    (40, 70, 0.05, 0.5, 48),
    (60, 105, 0.035, 0.5, 48),
    (100, 175, 0.02, 0.5, 48),
]
# Normal-matrix fill A A' / m^2 is about 38%, 10% and 15%.  Below about 6%
# fill, cold IPM ends in NumericalFailure on some of these planted instances.
# The counts keep the median operation (solve_s.p50) inside one group of
# similar solve times.
IPM_COLD_SPEC = [
    (1000, 1800, 0.016, 0.3, 4),
    (1000, 1800, 0.007, 0.3, 4),
    (800, 1440, 0.01, 0.3, 2),
]
PRESOLVE_SPEC = [
    (100, 175, 0.03, 800, 800, 400, 10),
    (100, 175, 0.03, 2000, 2000, 1500, 3),
]

WORKLOADS = {
    w.name: w
    for w in (
        Workload("hybrid-planted", "hybrid", IPM_EPS,
                 lambda seed: _planted_cases(seed, HYBRID_SPEC)),
        Workload("pdhg-tail", "pdhg-1e6", PDHG_EPS["pdhg-1e6"],
                 lambda seed: _planted_cases(seed, PDHG_TAIL_SPEC)),
        Workload("ipm-cold", "ipm-cold", IPM_EPS,
                 lambda seed: _planted_cases(seed, IPM_COLD_SPEC)),
        Workload("presolve-mps", "hybrid", IPM_EPS,
                 lambda seed: _presolve_cases(seed, PRESOLVE_SPEC)),
    )
}


@dataclass
class OpResult:
    case: str
    seconds: float
    status: str
    pdhg_iterations: int
    ipm_iterations: int
    objective: float
    max_violation: float
    ok: bool
    error: str = ""


# The solvers test eps on the scaled model; unscaling and postsolve loosen the
# original model's accuracy.  The package's acceptance gate allows the same
# factor (IPM at 1e-8 must reach an original-model violation of 1e-7).
OBJECTIVE_SLACK = 10.0


def objective_ok(obj: float, obj_star: float, eps: float) -> bool:
    """The solver's relative gap test against the planted optimum, at 10 eps."""
    return abs(obj - obj_star) <= OBJECTIVE_SLACK * eps * (1.0 + abs(obj) + abs(obj_star))


def judge(case: Case, g, sol, seconds: float, eps: float) -> OpResult:
    obj = g.objective_value(sol.x)
    ok = sol.status == "Optimal" and objective_ok(obj, case.obj_star, eps)
    viol = sol.violation.max_violation if sol.violation is not None else math.nan
    return OpResult(
        case.name, seconds, sol.status, sol.pdhg_iterations, sol.ipm_iterations,
        obj, viol, ok,
    )


def ok_frac(ops: list[OpResult]) -> float:
    """Operations that passed the check, over operations attempted."""
    return sum(o.ok for o in ops) / len(ops)


def run_operation(case: Case, wl: Workload, **solve_kwargs) -> OpResult:
    """One timed operation; an exception counts as a failed operation."""
    t0 = time.perf_counter()
    try:
        g = parse_mps(case.mps) if case.mps is not None else case.model
        sol, _ = solve_with_method(g, wl.method, **solve_kwargs)
    except Exception:  # the closed loop keeps going; the failure is counted
        return OpResult(case.name, time.perf_counter() - t0, "Error", 0, 0,
                        math.nan, math.nan, False, traceback.format_exc())
    seconds = time.perf_counter() - t0
    return judge(case, g, sol, seconds, wl.eps)


def _pdhg_counters(result):
    _, stats = result
    return {"iterations": stats.iterations, "restarts": stats.restarts}


def ipm_counters(result):
    _, stats = result
    return {"iterations": stats.iterations, "stalled": stats.status is SolveStatus.STALLED}


@dataclass
class TracedOp:
    result: OpResult
    solve_model: object     # the scaled StandardLp the solvers saw
    point: object           # the KktPoint the last solver returned
    warm: bool              # whether a warm-started IPM ran


def traced_operation(tr, case: Case, wl: Workload) -> TracedOp:
    """The pipeline of solve_with_method, one public stage function per span.

    Covers the branches the corpora reach: presolve leaves a nonempty
    model, and the hybrid stops after PDHG only when PDHG fails.
    """
    method = wl.method
    with tr.span("operation", "bench") as op:
        if case.mps is not None:
            g = tr.call("parse_mps", "mps_io", parse_mps, case.mps,
                        counters=lambda _: {"bytes": len(case.mps)})
        else:
            g = case.model
        pres = tr.call("presolve", "transform", presolve, g,
                       counters=lambda r: {"reductions": len(r.stack.records)})
        if pres.status is not PresolveStatus.REDUCED or pres.solved:
            raise ValueError(f"{case.name}: presolve verdict {pres.status.value} is not staged")
        p_std, fmap = tr.call("to_standard_form", "lp_core", to_standard_form, pres.model)
        p, scaling = tr.call("ruiz_equilibrate", "transform", ruiz_equilibrate, p_std)
        prep = PreparedModel(g, pres, pres.model, p_std, fmap, p, scaling)

        iters = {}
        escalations = 0
        warm = False
        if method == "ipm-cold":
            pt, stats = tr.call("run_ipm", "ipm", run_ipm, p, IpmParams(eps_rel=IPM_EPS),
                                time_limit_s=TIME_LIMIT_S, counters=ipm_counters)
            status = stats.status
            iters["ipm_iterations"] = stats.iterations
        else:
            eps = HYBRID_PDHG_EPS if method == "hybrid" else PDHG_EPS[method]
            pt, stats = tr.call("run_pdhg", "pdhg", run_pdhg, p,
                                PdhgParams(eps_rel=eps, time_limit_s=TIME_LIMIT_S), seed=0,
                                counters=_pdhg_counters)
            status = stats.status
            iters["pdhg_iterations"] = stats.iterations
            if method == "hybrid" and status is SolveStatus.OPTIMAL:
                ws = WarmStartParams()
                start = tr.call("centered_start", "warmstart", centered_start, pt, ws)
                budget = max(0.0, TIME_LIMIT_S - (time.perf_counter() - op.start))
                res = tr.call(
                    "warm_started_ipm", "warmstart", warm_started_ipm, p, start, IpmParams(),
                    ws, budget,
                    counters=lambda r: {"iterations": r.total_iterations,
                                        "escalations": r.escalations},
                )
                pt, status, warm = res.point, res.stats.status, True
                iters["ipm_iterations"] = res.total_iterations
                escalations = res.escalations

        finished = tr.call("finish_point", "warmstart", finish_point, prep, pt)
        sol = make_solution_file(
            g, status, finished.x, finished.y, finished.z, method=method,
            wall_seconds=0.0, escalations=escalations, violation=finished.violation,
            **iters,
        )
    return TracedOp(judge(case, g, sol, op.duration, wl.eps), p, pt, warm)


def same_outcome(a: OpResult, b: OpResult) -> bool:
    """Status, iteration counts and objective, compared exactly."""
    return (
        a.status == b.status
        and a.pdhg_iterations == b.pdhg_iterations
        and a.ipm_iterations == b.ipm_iterations
        and (a.objective == b.objective or (math.isnan(a.objective) and math.isnan(b.objective)))
    )
