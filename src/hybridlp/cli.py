"""Command-line front end: solve, bench, check, scatter.

Exit codes: 0 Optimal, 2 usage error, 3 parse/model error, 4 TimeLimit,
5 Stalled, 6 IterationLimit, 7 Error, 8 NumericalFailure, 9 Infeasible,
10 Unbounded; `solve` exits with the code of the status it wrote.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    METHOD_TAGS,
    bench_directory,
    check_solution,
    format_summary,
    read_records_csv,
    scatter_export,
    solve_with_method,
    summarize,
    write_records_csv,
    write_scatter_csv,
)
from .lp_core import InvalidModelError
from .mps_io import MpsParseError, parse_mps, parse_solution, write_solution

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridlp",
        description="LP solving by restarted PDHG with warm-started interior-point refinement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one MPS model")
    solve.add_argument("model", help="path to an MPS file")
    solve.add_argument("--method", choices=["pdhg", "ipm", "hybrid"], default="hybrid")
    solve.add_argument("--eps-rel", type=_positive_float, default=None,
                       help="relative tolerance (pdhg stage for hybrid)")
    solve.add_argument("--time-limit", type=_time_limit, default=10_000.0)
    solve.add_argument("--out", default=None, help="solution file path")
    solve.add_argument("--no-presolve", action="store_true")
    solve.add_argument("--no-scaling", action="store_true")

    bench = sub.add_parser("bench", help="run a method grid over a directory of MPS files")
    bench.add_argument("directory")
    bench.add_argument("--methods", default="pdhg-1e4,ipm-cold,hybrid",
                       help=f"comma-separated tags from {', '.join(METHOD_TAGS)}")
    bench.add_argument("--out", default="results.csv")
    bench.add_argument("--time-limit", type=_time_limit, default=10_000.0)
    bench.add_argument("--no-presolve", action="store_true")
    bench.add_argument("--no-scaling", action="store_true")

    check = sub.add_parser("check", help="recompute a solution file's violations")
    check.add_argument("model")
    check.add_argument("solution")

    scatter = sub.add_parser("scatter", help="clamped scatter data from a results CSV")
    scatter.add_argument("results")
    scatter.add_argument("--out", default="scatter.csv")
    return parser


def _load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_mps(fh.read())


def _cmd_solve(args) -> int:
    try:
        g = _load_model(args.model)
        g.validate()
    except (OSError, UnicodeDecodeError, MpsParseError, InvalidModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR_EXIT
    sol, record = solve_with_method(
        g,
        args.method,
        model_name=args.model,
        time_limit_s=args.time_limit,
        eps_rel=args.eps_rel,
        use_presolve=not args.no_presolve,
        use_scaling=not args.no_scaling,
    )
    text = write_solution(sol)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    v = sol.violation
    print(
        f"status={sol.status} wall={sol.wall_seconds:.3f}s "
        f"pdhg_iters={sol.pdhg_iterations} ipm_iters={sol.ipm_iterations}"
        + (f" max_violation={v.max_violation:.3e}" if v else ""),
        file=sys.stderr,
    )
    return _EXIT_BY_STATUS[sol.status]


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in METHOD_TAGS]
    if unknown:
        print(f"error: unknown method tags {unknown}", file=sys.stderr)
        return 2
    try:
        records = bench_directory(
            args.directory,
            methods,
            time_limit_s=args.time_limit,
            use_presolve=not args.no_presolve,
            use_scaling=not args.no_scaling,
        )
    except OSError as exc:  # an unreadable directory; unreadable models become Error rows
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
    except (OSError, MpsParseError, ValueError) as exc:
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
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR_EXIT
    with open(args.out, "w", newline="") as fh:
        write_scatter_csv(rows, fh)
    print(f"wrote {len(rows)} points to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "check": _cmd_check,
        "scatter": _cmd_scatter,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
