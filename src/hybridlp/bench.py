"""Benchmark harness: per-model records, geometric-mean summaries, scatter data.

Methods are warmstart.METHODS names, and settings pass through to
warmstart.solve.  Relative runtimes are per model against the fastest run
that solved the model, and a run that did not solve its model gets
RATIO_CLAMP; geometric means aggregate only over models the method solved.
"""

from __future__ import annotations

import csv
import inspect
import math
import os
from dataclasses import MISSING, dataclass, fields

from .lp_core import GeneralLp, ViolationSummary, evaluate_general_point
from .mps_io import SolutionFile, parse_mps
from .warmstart import METHODS, solve

# floors applied before taking logs in geometric means
_GEO_VIOLATION_FLOOR = 1e-16
_GEO_RUNTIME_FLOOR = 1e-9

RATIO_CLAMP = 100.0
VIOLATION_CLAMP = (1e-12, 1e6)


@dataclass
class ResultRecord:
    model: str
    method: str
    status: str
    wall_seconds: float
    pdhg_iterations: int
    ipm_iterations: int
    escalations: int
    primal_inf: float
    dual_inf: float
    rel_gap: float
    max_violation: float
    scaled_max_violation: float
    message: str = ""

    @property
    def solved(self) -> bool:
        return self.status == "Optimal"


def _record_from_solution(model: str, method: str, sol: SolutionFile,
                          scaled_violation) -> ResultRecord:
    v = sol.violation
    return ResultRecord(
        model=model,
        method=method,
        status=sol.status,
        wall_seconds=sol.wall_seconds,
        pdhg_iterations=sol.pdhg_iterations,
        ipm_iterations=sol.ipm_iterations,
        escalations=sol.escalations,
        primal_inf=v.primal_inf if v else math.nan,
        dual_inf=v.dual_inf if v else math.nan,
        rel_gap=v.rel_gap if v else math.nan,
        max_violation=v.max_violation if v else math.nan,
        scaled_max_violation=(
            scaled_violation.max_violation if scaled_violation else math.nan
        ),
        message=sol.message,
    )


def solve_with_method(
    g: GeneralLp, method: str, *, model_name: str = "model", **settings
) -> tuple[SolutionFile, ResultRecord]:
    """Run one (model, method) combination through the full pipeline;
    method is any name in warmstart.METHODS, settings are solve's keywords."""
    sol, stats = solve(g, method, **settings)
    return sol, _record_from_solution(model_name, method, sol, stats.scaled_violation)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def geometric_mean(values) -> float | None:
    vals = [v for v in values]
    if not vals:
        return None
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def relative_runtimes(records: list[ResultRecord]) -> dict[tuple[str, str], float]:
    """wall / best-wall per model, best taken over the runs that solved it;
    every run that did not solve its model gets RATIO_CLAMP."""
    best: dict[str, float] = {}
    for r in records:
        if r.solved:
            w = max(r.wall_seconds, _GEO_RUNTIME_FLOOR)
            best[r.model] = min(best.get(r.model, math.inf), w)
    return {
        (r.model, r.method): (
            max(r.wall_seconds, _GEO_RUNTIME_FLOOR) / best[r.model]
            if r.solved else RATIO_CLAMP
        )
        for r in records
    }


@dataclass
class MethodSummary:
    method: str
    models_run: int
    models_solved: int
    geo_relative_runtime: float | None
    geo_max_violation: float | None
    geo_ipm_iteration_ratio: float | None
    solved_in_10_ipm_iters: int | None


def summarize(records: list[ResultRecord]) -> list[MethodSummary]:
    """Per-method solved counts, geometric means, and warm-start iteration
    ratios: one row per method, METHODS names in table order, then any other."""
    rel = relative_runtimes(records)
    rank = {name: k for k, name in enumerate(METHODS)}
    methods = sorted({r.method for r in records}, key=lambda m: (rank.get(m, len(rank)), m))
    # the cold interior point is every method whose only stage is "ipm"
    cold = {name for name, (stages, _) in METHODS.items() if stages == "ipm"}
    cold_iters = {
        r.model: r.ipm_iterations
        for r in records
        if r.method in cold and r.solved and r.ipm_iterations > 0
    }

    rows = []
    for method in methods:
        mine = [r for r in records if r.method == method]
        solved = [r for r in mine if r.solved]
        geo_rt = geometric_mean(rel[(r.model, r.method)] for r in solved)
        geo_viol = geometric_mean(
            max(r.max_violation, _GEO_VIOLATION_FLOOR)
            for r in solved
            if not math.isnan(r.max_violation)
        )
        uses_ipm = any(r.ipm_iterations > 0 for r in mine)
        ratio = None
        if method not in cold and uses_ipm:
            pairs = [
                r.ipm_iterations / cold_iters[r.model]
                for r in solved
                if r.model in cold_iters and r.ipm_iterations > 0
            ]
            ratio = geometric_mean(pairs)
        ten = None
        if uses_ipm:
            ten = sum(1 for r in solved if 0 < r.ipm_iterations <= 10)
        rows.append(
            MethodSummary(
                method=method,
                models_run=len(mine),
                models_solved=len(solved),
                geo_relative_runtime=geo_rt,
                geo_max_violation=geo_viol,
                geo_ipm_iteration_ratio=ratio,
                solved_in_10_ipm_iters=ten,
            )
        )
    return rows


def format_summary(summaries: list[MethodSummary]) -> str:
    """Aligned text table: solved counts, runtimes, violations, iteration stats."""
    def cell(v, fmt="{:.3g}"):
        if v is None:
            return "-"
        return fmt.format(v)

    headers = ["", *[m.method for m in summaries]]
    rows = [
        ["Models run", *[str(m.models_run) for m in summaries]],
        ["Models solved", *[str(m.models_solved) for m in summaries]],
        ["Relative runtime", *[cell(m.geo_relative_runtime) for m in summaries]],
        ["Mean max violation", *[cell(m.geo_max_violation, "{:.2e}") for m in summaries]],
        ["IPM iter ratio vs cold", *[cell(m.geo_ipm_iteration_ratio) for m in summaries]],
        ["Solved in <=10 IPM iters", *[
            "-" if m.solved_in_10_ipm_iters is None else str(m.solved_in_10_ipm_iters)
            for m in summaries
        ]],
    ]
    widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
    lines = []
    for r in [headers] + rows:
        lines.append("  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CSV schemas
# ---------------------------------------------------------------------------

_RECORD_FIELDS = [f.name for f in fields(ResultRecord)]
# a ResultRecord field's annotation -> the parser of its CSV text
_FROM_CSV = {"str": str, "int": int, "float": float}


def write_records_csv(records: list[ResultRecord], stream) -> None:
    w = csv.writer(stream)
    w.writerow(_RECORD_FIELDS)
    for r in sorted(records, key=lambda r: (r.model, r.method)):
        w.writerow([getattr(r, name) for name in _RECORD_FIELDS])


def read_records_csv(stream) -> list[ResultRecord]:
    """Records from write_records_csv's layout.  Only a column whose field has
    a default (message, absent from older files) may be missing."""
    return [
        ResultRecord(**{
            f.name: _FROM_CSV[f.type](row[f.name])
            for f in fields(ResultRecord)
            if f.name in row or f.default is MISSING
        })
        for row in csv.DictReader(stream)
    ]


@dataclass
class ScatterRow:
    model: str
    method: str
    relative_runtime: float
    max_violation: float


def scatter_export(records: list[ResultRecord]) -> list[ScatterRow]:
    """Clamped (relative runtime, max violation) pairs for scatter plotting.

    Runtime ratios above 100 are reported as 100; violations are clamped
    into [1e-12, 1e6]; a run that did not solve its model is emitted at
    (100, 1e6).
    """
    if not records:
        raise ValueError("no records to export")
    rel = relative_runtimes(records)
    lo, hi = VIOLATION_CLAMP
    rows = []
    for r in sorted(records, key=lambda r: (r.model, r.method)):
        ratio = min(rel[(r.model, r.method)], RATIO_CLAMP)
        if r.solved and not math.isnan(r.max_violation):
            viol = min(max(r.max_violation, lo), hi)
        else:
            viol = hi
        rows.append(ScatterRow(r.model, r.method, ratio, viol))
    return rows


def write_scatter_csv(rows: list[ScatterRow], stream) -> None:
    w = csv.writer(stream)
    w.writerow(["model", "method", "relative_runtime", "max_violation"])
    for r in rows:
        w.writerow([r.model, r.method, r.relative_runtime, r.max_violation])


# ---------------------------------------------------------------------------
# Directory benchmark and the solution checker
# ---------------------------------------------------------------------------

def _error_record(model: str, method: str, message: str) -> ResultRecord:
    return ResultRecord(
        model=model, method=method, status="Error",
        wall_seconds=0.0, pdhg_iterations=0, ipm_iterations=0,
        escalations=0, primal_inf=math.nan, dual_inf=math.nan,
        rel_gap=math.nan, max_violation=math.nan,
        scaled_max_violation=math.nan, message=message,
    )


def bench_directory(directory: str, methods: list[str], **settings) -> list[ResultRecord]:
    """One record per (model, method); unreadable models become Error rows.
    A setting solve does not take raises TypeError before any model is read."""
    inspect.signature(solve).bind(None, None, **settings)
    paths = sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if f.lower().endswith(".mps")
    )
    records = []
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path, encoding="utf-8") as fh:
                g = parse_mps(fh.read())
        except Exception as exc:  # unreadable model: one Error row per method
            records.extend(_error_record(name, method, str(exc)) for method in methods)
            continue
        for method in methods:
            try:
                _, record = solve_with_method(g, method, model_name=name, **settings)
            except Exception as exc:  # failed solve: record and continue
                record = _error_record(name, method, str(exc))
            records.append(record)
    return sorted(records, key=lambda r: (r.model, r.method))


def check_solution(g: GeneralLp, sol: SolutionFile) -> ViolationSummary:
    """Recompute the violation of a stored solution on the original model."""
    if sol.var_names != g.variable_names() or sol.row_names != g.constraint_names():
        raise ValueError("solution file does not match this model's rows/columns")
    return evaluate_general_point(g, sol.x, sol.y)
