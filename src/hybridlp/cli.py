"""Command-line front end: solve, bench, check, scatter.

Exit codes: 0 Optimal, 2 usage error, 3 parse/model error, 4 TimeLimit,
5 Stalled, 6 IterationLimit, 7 Error, 8 NumericalFailure, 9 Infeasible,
10 Unbounded; `solve` exits with the code of the status it wrote.
"""

from __future__ import annotations

import argparse
import sys

from . import warmstart
from .bench import (
    bench_directory,
    check_solution,
    format_summary,
    read_records_csv,
    scatter_export,
    summarize,
    write_records_csv,
    write_scatter_csv,
)
from .mps_io import parse_mps, parse_solution, write_solution

_EXIT_BY_STATUS = {
    "Optimal": 0,
    "TimeLimit": 4,
    "Stalled": 5,
    "IterationLimit": 6,
    "Error": 7,
    "NumericalFailure": 8,
    "Infeasible": 9,
    "Unbounded": 10,
}

PARSE_ERROR_EXIT = 3
# unreadable or malformed input: MpsParseError, InvalidModelError and
# UnicodeDecodeError are ValueErrors
_BAD_INPUT = (OSError, ValueError)


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _time_limit(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _method_list(text: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    unknown = [m for m in methods if m not in warmstart.METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown methods {unknown}")
    return methods


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridlp",
        description="LP solving by restarted PDHG with warm-started interior-point refinement",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # warmstart.solve's keywords, stored under their names: those both verbs
    # take, and those only solve takes; one not given is absent from the
    # namespace, so solve's default holds
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--time-limit", dest="time_limit_s", metavar="SECONDS", type=_time_limit)
    solve_only = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    solve_only.add_argument("--eps-rel", type=_positive_float,
                            help="relative tolerance (pdhg stage for hybrid)")
    parser.set_defaults(settings={a.dest for p in (shared, solve_only) for a in p._actions})

    solve = sub.add_parser("solve", parents=[shared, solve_only], help="solve one MPS model")
    solve.set_defaults(handler=_cmd_solve)
    solve.add_argument("model", help="path to an MPS file")
    solve.add_argument("--method", choices=list(warmstart.METHODS), default="hybrid",
                       metavar="NAME", help=f"one of {', '.join(warmstart.METHODS)}")
    solve.add_argument("--out", default=None, help="solution file path")

    bench = sub.add_parser("bench", parents=[shared],
                           help="run a method grid over a directory of MPS files")
    bench.set_defaults(handler=_cmd_bench)
    bench.add_argument("directory")
    bench.add_argument("--methods", type=_method_list, default="pdhg-1e4,ipm-cold,hybrid",
                       metavar="NAME[,NAME...]",
                       help=f"comma-separated names from {', '.join(warmstart.METHODS)}")
    bench.add_argument("--out", default="results.csv")

    check = sub.add_parser("check", help="recompute a solution file's violations")
    check.set_defaults(handler=_cmd_check)
    check.add_argument("model")
    check.add_argument("solution")

    scatter = sub.add_parser("scatter", help="clamped scatter data from a results CSV")
    scatter.set_defaults(handler=_cmd_scatter)
    scatter.add_argument("results")
    scatter.add_argument("--out", default="scatter.csv")
    return parser


def _load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_mps(fh.read())


def _settings(args) -> dict:
    return {k: v for k, v in vars(args).items() if k in args.settings}


def _cmd_solve(args) -> int:
    try:
        g = _load_model(args.model)
        g.validate()
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR_EXIT
    sol, stats = warmstart.solve(g, args.method, **_settings(args))
    text = write_solution(sol)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    v = sol.violation
    polish = stats.ipm_stats.polish if stats.ipm_stats else ""
    print(
        f"status={sol.status} wall={sol.wall_seconds:.3f}s "
        f"pdhg_iters={sol.pdhg_iterations} ipm_iters={sol.ipm_iterations}"
        + (f' polish="{polish}"' if polish else "")
        + (f" max_violation={v.max_violation:.3e}" if v else ""),
        file=sys.stderr,
    )
    return _EXIT_BY_STATUS[sol.status]


def _cmd_bench(args) -> int:
    try:
        records = bench_directory(args.directory, args.methods, **_settings(args))
    except _BAD_INPUT as exc:  # an unreadable directory; unreadable models become Error rows
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR_EXIT
    with open(args.out, "w", newline="") as fh:
        write_records_csv(records, fh)
    print(format_summary(summarize(records)))
    print(f"\nwrote {len(records)} records to {args.out}")
    return 0


def _cmd_check(args) -> int:
    try:
        g = _load_model(args.model)
        with open(args.solution) as fh:
            sol = parse_solution(fh.read())
        summary = check_solution(g, sol)
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR_EXIT
    print(f"primal_inf    {summary.primal_inf:.17g}")
    print(f"dual_inf      {summary.dual_inf:.17g}")
    print(f"rel_gap       {summary.rel_gap:.17g}")
    print(f"max_violation {summary.max_violation:.17g}")
    return 0


def _cmd_scatter(args) -> int:
    try:
        with open(args.results, newline="") as fh:
            records = read_records_csv(fh)
        rows = scatter_export(records)
    except (*_BAD_INPUT, KeyError) as exc:  # KeyError: a missing CSV column
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR_EXIT
    with open(args.out, "w", newline="") as fh:
        write_scatter_csv(rows, fh)
    print(f"wrote {len(rows)} points to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
