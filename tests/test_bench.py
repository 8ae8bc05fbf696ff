"""Harness tests: aggregation, clamp rules, CSV schemas, and the CLI verbs."""

import inspect
import io
import math
from pathlib import Path

import numpy as np
import pytest

from hybridlp import parse_mps, parse_solution, write_solution
from hybridlp.bench import (
    RATIO_CLAMP,
    ResultRecord,
    bench_directory,
    check_solution,
    format_summary,
    geometric_mean,
    read_records_csv,
    relative_runtimes,
    scatter_export,
    solve_with_method,
    summarize,
    write_records_csv,
)
from hybridlp.cli import _EXIT_BY_STATUS, main
from hybridlp.mps_io import make_solution_file
from hybridlp.pdhg import PdhgParams
from hybridlp.status import SolveStatus
from hybridlp.warmstart import METHODS, solve

FIXTURES = Path(__file__).parent / "fixtures"

# one method per solver path, each test id naming its stage
ONE_PER_STAGE = {"pdhg": "pdhg-1e4", "ipm": "ipm-cold", "hybrid": "hybrid"}
by_stage = pytest.mark.parametrize(
    "method", list(ONE_PER_STAGE.values()), ids=list(ONE_PER_STAGE)
)

# X1 is fixed at 2, which leaves R1 empty and requiring 0 = 1
INFEASIBLE_AFTER_FIX_MPS = (
    "NAME INFEASIBLE\nROWS\n N OBJ\n E R1\n L R2\nCOLUMNS\n X1 OBJ 1 R1 1\n"
    " X2 OBJ 1 R2 1\nRHS\n RHS R1 3 R2 4\nBOUNDS\n FX BND X1 2\nENDATA\n"
)
# X2 has no row entries, a negative cost and no upper bound
EMPTY_COLUMN_UNBOUNDED_MPS = (
    "NAME UNBOUNDED\nROWS\n N OBJ\n L R1\nCOLUMNS\n X1 OBJ 1 R1 1\n X2 OBJ -1\n"
    "RHS\n RHS R1 4\nENDATA\n"
)


def _rec(model, method, status="Optimal", wall=1.0, viol=1e-6,
         pdhg_iters=10, ipm_iters=0):
    return ResultRecord(
        model=model, method=method, status=status, wall_seconds=wall,
        pdhg_iterations=pdhg_iters, ipm_iterations=ipm_iters, escalations=0,
        primal_inf=viol, dual_inf=viol / 2, rel_gap=viol / 4,
        max_violation=viol, scaled_max_violation=viol / 10,
    )


def _by_method(rows):
    return {row.method: row for row in rows}


class TestAggregation:
    def test_geometric_mean_single_and_equal(self):
        assert geometric_mean([7.0]) == pytest.approx(7.0)
        assert geometric_mean([3.0, 3.0, 3.0]) == pytest.approx(3.0)
        assert geometric_mean([]) is None

    def test_geometric_mean_closed_form(self):
        # runtimes {1, 4, 16} relative to best 1 -> geometric mean 4
        assert geometric_mean([1.0, 4.0, 16.0]) == pytest.approx(4.0)

    def test_relative_runtime_minimum_is_one(self):
        records = [
            _rec("m1", "a", wall=2.0), _rec("m1", "b", wall=3.0),
            _rec("m2", "a", wall=5.0), _rec("m2", "b", wall=1.0),
        ]
        rel = relative_runtimes(records)
        for model in ("m1", "m2"):
            assert min(rel[(model, m)] for m in ("a", "b")) == pytest.approx(1.0)

    def test_summary_shape_and_counts(self):
        records = []
        for model in ("m1", "m2", "m3"):
            records.append(_rec(model, "pdhg-1e4"))
            records.append(_rec(model, "ipm-cold", ipm_iters=8, pdhg_iters=0))
        rows = summarize(records)
        assert len(rows) == 2
        by = _by_method(rows)
        assert by["pdhg-1e4"].models_solved == 3
        assert by["ipm-cold"].solved_in_10_ipm_iters == 3

    def test_unsolved_method_reports_absent_means(self):
        records = [
            _rec("m1", "pdhg-1e4", status="TimeLimit"),
            _rec("m1", "ipm-cold", ipm_iters=5, pdhg_iters=0),
        ]
        by = _by_method(summarize(records))
        assert by["pdhg-1e4"].models_solved == 0
        assert by["pdhg-1e4"].geo_relative_runtime is None
        assert by["pdhg-1e4"].geo_max_violation is None
        text = format_summary(summarize(records))
        assert "-" in text

    def test_iteration_ratio_on_shared_solves_only(self):
        records = [
            _rec("m1", "ipm-cold", ipm_iters=10, pdhg_iters=0),
            _rec("m1", "hybrid", ipm_iters=5),
            _rec("m2", "ipm-cold", status="TimeLimit", ipm_iters=9, pdhg_iters=0),
            _rec("m2", "hybrid", ipm_iters=2),
        ]
        by = _by_method(summarize(records))
        # only m1 counts: ratio 5/10
        assert by["hybrid"].geo_ipm_iteration_ratio == pytest.approx(0.5)

    def test_failed_runs_do_not_set_the_runtime_baseline(self):
        """The baseline is the fastest run that solved the model: an Error
        row's 0 s and a 1 ms NumericalFailure are not it.  Every run on a
        model that no method solved gets the clamp."""
        records = [
            _rec("m", "hybrid", wall=0.5),
            _rec("m", "ipm-cold", status="Error", wall=0.0),
            _rec("m2", "hybrid", wall=0.2),
            _rec("m2", "ipm-cold", status="NumericalFailure", wall=1e-3),
            _rec("m3", "hybrid", status="TimeLimit", wall=2.0),
            _rec("m3", "ipm-cold", status="Error", wall=0.0),
        ]
        rel = relative_runtimes(records)
        assert rel[("m", "hybrid")] == rel[("m2", "hybrid")] == 1.0
        assert rel[("m3", "hybrid")] == rel[("m3", "ipm-cold")] == RATIO_CLAMP
        assert _by_method(summarize(records))["hybrid"].geo_relative_runtime == pytest.approx(1.0)


class TestScatterExport:
    def test_clamp_rules(self):
        records = [
            _rec("m1", "a", wall=1.0, viol=5e-5),
            _rec("m1", "b", wall=250.0, viol=3e-15),
        ]
        rows = {(r.model, r.method): r for r in scatter_export(records)}
        assert rows[("m1", "b")].relative_runtime == 100.0
        assert rows[("m1", "b")].max_violation == 1e-12
        assert rows[("m1", "a")].relative_runtime == 1.0
        assert rows[("m1", "a")].max_violation == 5e-5

    def test_failed_run_is_not_left_of_the_baseline(self):
        """A 1 ms NumericalFailure beside a 0.2 s solve is plotted at the
        clamp, not at ratio 0.005: a run that did not solve its model gets
        RATIO_CLAMP."""
        records = [
            _rec("m", "hybrid", wall=0.2),
            _rec("m", "ipm-cold", status="NumericalFailure", wall=1e-3),
        ]
        rows = {(r.model, r.method): r for r in scatter_export(records)}
        assert rows[("m", "hybrid")].relative_runtime == 1.0
        assert rows[("m", "ipm-cold")].relative_runtime == RATIO_CLAMP
        assert rows[("m", "ipm-cold")].max_violation == 1e6

    def test_unsolved_emitted_at_violation_cap(self):
        records = [
            _rec("m1", "a", wall=1.0),
            _rec("m1", "b", wall=2.0, status="Stalled", viol=1e-9),
        ]
        rows = {(r.model, r.method): r for r in scatter_export(records)}
        assert rows[("m1", "b")].max_violation == 1e6

    def test_huge_violation_clamped_down(self):
        records = [_rec("m1", "a", viol=1e9)]
        rows = scatter_export(records)
        assert rows[0].max_violation == 1e6

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            scatter_export([])


class TestCsvRoundTrip:
    def test_records_round_trip(self):
        records = [_rec("m1", "a"), _rec("m2", "b", status="Stalled")]
        buf = io.StringIO()
        write_records_csv(records, buf)
        back = read_records_csv(io.StringIO(buf.getvalue()))
        assert len(back) == 2
        assert back[0].model == "m1"
        assert back[0].max_violation == pytest.approx(1e-6)
        assert back[1].status == "Stalled"

    def test_every_field_round_trips_and_message_may_be_missing(self):
        records = [_rec("m1", "a", wall=0.1, ipm_iters=3), _rec("m2", "b", status="Error")]
        records[1].message = "boom"
        buf = io.StringIO()
        write_records_csv(records, buf)
        assert read_records_csv(io.StringIO(buf.getvalue())) == records
        # files written before the message column existed
        lines = buf.getvalue().splitlines()
        old = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
        back = read_records_csv(io.StringIO(old))
        assert [r.message for r in back] == ["", ""]
        assert back[0] == records[0]
        no_status = "\n".join(line.replace(",status,", ",") for line in lines[:1])
        with pytest.raises(KeyError, match="status"):
            read_records_csv(io.StringIO(no_status + "\n" + lines[1] + "\n"))


class TestSolveWithMethod:
    def test_solver_and_checker_agree(self):
        """check_solution on a fresh Optimal file reproduces the reported
        violation to 1e-12 relative (the arrays round-trip exactly)."""
        from hybridlp import write_solution

        g = parse_mps((FIXTURES / "lp2.mps").read_text())
        sol, record = solve_with_method(g, "hybrid", model_name="lp2")
        assert sol.status == "Optimal"
        recovered = parse_solution(write_solution(sol))
        v = check_solution(g, recovered)
        assert v.max_violation == pytest.approx(
            sol.violation.max_violation, rel=1e-12, abs=1e-300
        )

    def test_mismatched_solution_rejected(self):
        g1 = parse_mps((FIXTURES / "lp1.mps").read_text())
        g2 = parse_mps((FIXTURES / "lp2.mps").read_text())
        sol, _ = solve_with_method(g2, "ipm-cold", model_name="lp2")
        with pytest.raises(ValueError, match="does not match"):
            check_solution(g1, sol)

    def test_unknown_method_rejected(self):
        g = parse_mps((FIXTURES / "lp1.mps").read_text())
        with pytest.raises(ValueError):
            solve_with_method(g, "simplex")

    def test_record_statuses_per_method(self):
        g = parse_mps((FIXTURES / "lp1.mps").read_text())
        for method in ("pdhg-1e4", "pdhg-1e6", "pdhg-1e8", "ipm-cold", "hybrid"):
            sol, record = solve_with_method(g, method, model_name="lp1")
            assert record.status == "Optimal", method
            assert record.method == method
            assert record.max_violation < 1e-3


class TestCli:
    def test_solve_writes_solution_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "sol.txt"
        code = main([
            "solve", str(FIXTURES / "lp1.mps"), "--method", "hybrid",
            "--eps-rel", "1e-4", "--out", str(out),
        ])
        assert code == 0
        sol = parse_solution(out.read_text())
        assert sol.status == "Optimal"
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-6)

    @pytest.mark.parametrize("method, polish", [("hybrid", ' polish="accepted" '), ("ipm-cold", "")])
    def test_solve_summary_names_the_polish(self, tmp_path, capsys, method, polish):
        """The hybrid's summary line names the polish verdict; a method with
        no warm interior point prints no polish field."""
        code = main(["solve", str(FIXTURES / "lp2.mps"), "--method", method,
                     "--out", str(tmp_path / "sol.txt")])
        assert code == 0
        line = capsys.readouterr().err
        if polish:
            assert "ipm_iters=0" + polish in line
        else:
            assert "polish=" not in line

    def test_bogus_method_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "whatever.mps", "--method", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("eps", ["0", "-1e-4", "nan"])
    def test_nonpositive_eps_rel_usage_error(self, eps):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(FIXTURES / "lp1.mps"), "--eps-rel", eps])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--no-presolve", "--no-scaling"])
    def test_pipeline_switch_usage_error(self, tmp_path, flag):
        """Presolve and scaling always run; there is no flag to turn them off."""
        out = tmp_path / "sol.txt"
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(FIXTURES / "lp1.mps"), flag, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan"])
    @pytest.mark.parametrize("verb", ["solve", "bench"])
    def test_negative_or_nan_time_limit_usage_error(self, tmp_path, verb, value):
        target = FIXTURES / "lp2.mps" if verb == "solve" else FIXTURES
        with pytest.raises(SystemExit) as exc:
            main([verb, str(target), "--time-limit", value, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_infinite_time_limit_accepted(self, tmp_path):
        out = tmp_path / "sol.txt"
        code = main(["solve", str(FIXTURES / "lp1.mps"), "--time-limit", "inf", "--out", str(out)])
        assert code == 0
        assert parse_solution(out.read_text()).status == "Optimal"

    def test_every_status_has_a_file_status_and_exit_code(self):
        """Every status has an exit code of its own."""
        assert _EXIT_BY_STATUS == {
            "Optimal": 0, "TimeLimit": 4, "Stalled": 5, "IterationLimit": 6, "Error": 7,
            "NumericalFailure": 8, "Infeasible": 9, "Unbounded": 10,
        }
        assert set(_EXIT_BY_STATUS) == {status.value for status in SolveStatus}

    @pytest.mark.parametrize("status", list(SolveStatus), ids=lambda s: s.value)
    def test_status_round_trips_through_the_solution_file(self, status):
        g = parse_mps((FIXTURES / "lp1.mps").read_text())
        sol = make_solution_file(
            g, status, np.zeros(g.n_vars), np.zeros(g.n_rows), g.c,
            method="hybrid", wall_seconds=0.0,
        )
        back = parse_solution(write_solution(sol))
        assert back.status == sol.status == status.value
        assert SolveStatus(back.status) is status
        assert back.status in _EXIT_BY_STATUS

    @by_stage
    @pytest.mark.parametrize(
        "text, status, code",
        [(INFEASIBLE_AFTER_FIX_MPS, "Infeasible", 9), (EMPTY_COLUMN_UNBOUNDED_MPS, "Unbounded", 10)],
        ids=["infeasible", "unbounded"],
    )
    def test_presolve_verdict_exit_code_and_check(
        self, tmp_path, capsys, text, status, code, method
    ):
        """A presolve verdict exits with its own status's code, and check
        reads the written solution back."""
        model, out = tmp_path / "verdict.mps", tmp_path / "sol.txt"
        model.write_text(text)
        assert main(["solve", str(model), "--method", method, "--out", str(out)]) == code
        sol = parse_solution(out.read_text())
        assert sol.status == status
        assert sol.message.startswith("presolve: ")
        assert main(["check", str(model), str(out)]) == 0
        assert "max_violation" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.mps"
        bad.write_text("ROWS\n N OBJ\n")  # no ENDATA
        assert main(["solve", str(bad)]) == 3

    @pytest.mark.parametrize("verb", ["solve", "check"])
    def test_undecodable_model_exit_code(self, tmp_path, capsys, verb):
        """A Latin-1 byte in a row name is no UTF-8: an input error, not a crash."""
        model = tmp_path / "latin1.mps"
        model.write_bytes(b"NAME T\nROWS\n N OBJ\n L R\xe9\nCOLUMNS\n X1 OBJ 1\nENDATA\n")
        sol = tmp_path / "sol.txt"
        sol.write_text("hybridlp-solution 1\n")
        argv = ["solve", str(model)] if verb == "solve" else ["check", str(model), str(sol)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_bench_missing_directory_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "no-such-directory"
        assert main(["bench", str(missing), "--out", str(tmp_path / "results.csv")]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "results.csv").exists()

    @by_stage
    def test_invalid_model_exit_code(self, tmp_path, capsys, method):
        crossed = tmp_path / "crossed.mps"
        crossed.write_text(
            "NAME CROSSED\nROWS\n N OBJ\n L R1\nCOLUMNS\n x1 OBJ 1 R1 1\n"
            "RHS\n RHS R1 4\nBOUNDS\n LO bnd x1 3\n UP bnd x1 1\nENDATA\n"
        )
        assert main(["solve", str(crossed), "--method", method]) == 3
        assert capsys.readouterr().err.startswith("error: variable 0 has lower bound")

    @pytest.mark.parametrize("bound", ["UP BND X1 nan", "LO BND X1 inf"])
    def test_bounds_that_cannot_hold_exit_code(self, tmp_path, capsys, bound):
        model = tmp_path / "bounds.mps"
        model.write_text(
            "NAME BOUNDS\nROWS\n N OBJ\n L R1\nCOLUMNS\n X1 OBJ -1 R1 1\n"
            f"RHS\n RHS R1 4\nBOUNDS\n {bound}\nENDATA\n"
        )
        assert main(["solve", str(model)]) == 3
        assert capsys.readouterr().err.startswith("error: variable 0 has bounds")

    @by_stage
    def test_unbounded_model_exits_with_a_status(self, tmp_path, method):
        """min -x1 s.t. x1 - x2 <= 1 is unbounded; every method ends with a
        status and its exit code.  The 1 s limit outlasts the ~0.2 s (on a
        2-core x86 machine) after which an unclipped PDHG primal weight
        underflows to 0."""
        model = tmp_path / "unbounded.mps"
        model.write_text(
            "NAME UNBOUNDED\nROWS\n N OBJ\n L R1\nCOLUMNS\n X1 OBJ -1.0 R1 1.0\n"
            " X2 R1 -1.0\nRHS\n RHS R1 1.0\nENDATA\n"
        )
        out = tmp_path / "sol.txt"
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = main(["solve", str(model), "--method", method, "--time-limit", "1",
                         "--out", str(out)])
        assert code in _EXIT_BY_STATUS.values()
        assert code != _EXIT_BY_STATUS["Optimal"]

    @pytest.mark.parametrize("empty_row", [False, True], ids=["empty-column", "empty-row"])
    @by_stage
    def test_empty_column_or_row_is_presolved_away(self, tmp_path, method, empty_row):
        """An empty column (x2) or row (R2) is removed by presolve, and the
        rest of the model is solved."""
        model = tmp_path / "empty.mps"
        model.write_text(
            "NAME EMPTY\nROWS\n N OBJ\n L R1\n" + (" E R2\n" if empty_row else "")
            + "COLUMNS\n X1 OBJ -1.0 R1 1.0\n X2 OBJ 1.0\nRHS\n RHS R1 4.0\nENDATA\n"
        )
        out = tmp_path / "sol.txt"
        code = main(["solve", str(model), "--method", method, "--out", str(out)])
        assert code == 0
        sol = parse_solution(out.read_text())
        assert sol.status == "Optimal"
        np.testing.assert_allclose(sol.x, [4.0, 0.0], atol=1e-4)

    @pytest.mark.parametrize("rows, columns, code", [
        ("", " X1 OBJ 1\n X2 OBJ 2\n", 0),
        (" E R1\n", " X1 OBJ 1\nRHS\n RHS R1 1\n", 9),
    ], ids=["rowless", "empty-eq-row"])
    def test_matrix_without_entries_exits_with_its_status(self, tmp_path, rows, columns, code):
        """Presolve solves a model whose matrix has no entries outright, and
        every method exits with its status's code: Optimal without rows,
        Infeasible with an empty = row whose rhs is 1."""
        model = tmp_path / "empty.mps"
        model.write_text(f"NAME EMPTY\nROWS\n N OBJ\n{rows}COLUMNS\n{columns}ENDATA\n")
        for method in METHODS:
            out = tmp_path / f"{method}.sol"
            assert main(["solve", str(model), "--method", method, "--out", str(out)]) == code
            assert main(["check", str(model), str(out)]) == 0

    def test_time_limit_zero_still_writes_best_point(self, tmp_path):
        out = tmp_path / "sol.txt"
        code = main([
            "solve", str(FIXTURES / "lp2.mps"), "--method", "pdhg-1e4",
            "--time-limit", "0", "--out", str(out),
        ])
        assert code == 4
        sol = parse_solution(out.read_text())
        assert sol.status == "TimeLimit"
        assert sol.x.size == 2

    def test_bench_check_scatter_pipeline(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        code = main([
            "bench", str(FIXTURES), "--methods", "pdhg-1e4,ipm-cold,hybrid",
            "--out", str(results),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "Models solved" in text
        with open(results) as fh:
            records = read_records_csv(fh)
        # 5 fixture models x 3 methods
        assert len(records) == 15

        scatter = tmp_path / "scatter.csv"
        assert main(["scatter", str(results), "--out", str(scatter)]) == 0
        lines = scatter.read_text().strip().splitlines()
        assert len(lines) == 16  # header + 15 rows

    def test_unreadable_model_recorded_as_error_row(self, tmp_path):
        from hybridlp.bench import bench_directory

        (tmp_path / "good.mps").write_text((FIXTURES / "lp1.mps").read_text())
        (tmp_path / "broken.mps").write_text("ROWS\n N OBJ\nCOLUMNS\n")
        records = bench_directory(str(tmp_path), ["ipm-cold"])
        by_model = {r.model: r for r in records}
        assert by_model["broken"].status == "Error"
        assert by_model["broken"].message
        assert by_model["good"].status == "Optimal"

    def test_bench_directory_parses_each_file_once(self, tmp_path, monkeypatch):
        import hybridlp.bench
        from hybridlp.bench import bench_directory

        real_parse = hybridlp.bench.parse_mps
        calls = []

        def counting_parse(text):
            calls.append(text)
            return real_parse(text)

        monkeypatch.setattr(hybridlp.bench, "parse_mps", counting_parse)
        for name in ("lp1", "lp2"):
            (tmp_path / f"{name}.mps").write_text((FIXTURES / f"{name}.mps").read_text())
        (tmp_path / "broken.mps").write_text("ROWS\n N OBJ\nCOLUMNS\n")
        methods = ["pdhg-1e4", "ipm-cold"]
        records = bench_directory(str(tmp_path), methods)
        assert len(calls) == 3
        assert len(records) == 3 * len(methods)
        broken = [r for r in records if r.model == "broken"]
        assert [r.method for r in broken] == sorted(methods)
        assert {r.status for r in broken} == {"Error"}
        assert len({r.message for r in broken}) == 1 and broken[0].message

    def test_check_verb_prints_components(self, tmp_path, capsys):
        out = tmp_path / "sol.txt"
        main(["solve", str(FIXTURES / "lp1.mps"), "--method", "ipm-cold", "--out", str(out)])
        capsys.readouterr()
        code = main(["check", str(FIXTURES / "lp1.mps"), str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "max_violation" in printed


class TestSolveWithMethodTolerance:
    def test_hybrid_zero_eps_rel_rejected(self):
        """eps_rel=0 is an invalid tolerance, not a request for the default,
        and a NaN one, which no residual can meet, is invalid too."""
        g = parse_mps((FIXTURES / "lp2.mps").read_text())
        for method in METHODS:
            for eps in (0.0, math.nan):
                with pytest.raises(ValueError, match="eps_rel"):
                    solve_with_method(g, method, eps_rel=eps)

    def test_ipm_nonpositive_eps_rel_rejected_before_presolve(self, monkeypatch):
        import hybridlp.warmstart

        def unreachable(g):
            raise AssertionError("presolve ran on an invalid tolerance")

        monkeypatch.setattr(hybridlp.warmstart, "presolve", unreachable)
        g = parse_mps((FIXTURES / "lp2.mps").read_text())
        for eps in (-1.0, math.nan):
            with pytest.raises(ValueError, match="eps_rel"):
                solve_with_method(g, "ipm-cold", eps_rel=eps)


# method name -> the (stage, eps_rel) pairs its solvers receive, in order,
# without and with an eps_rel override of 1e-5
_STAGES_BY_METHOD = {
    "pdhg-1e4": ([("pdhg", 1e-4)], [("pdhg", 1e-5)]),
    "pdhg-1e6": ([("pdhg", 1e-6)], [("pdhg", 1e-5)]),
    "pdhg-1e8": ([("pdhg", 1e-8)], [("pdhg", 1e-5)]),
    "ipm-cold": ([("ipm", 1e-8)], [("ipm", 1e-5)]),
    "hybrid": ([("pdhg", 1e-4), ("ipm", 1e-8)], [("pdhg", 1e-5), ("ipm", 1e-8)]),
}


class TestMethodTable:
    @staticmethod
    def _spy(monkeypatch):
        """Record (stage, eps_rel) for each distinct solver call, in order;
        the warm interior point is recorded when warm_started_ipm starts,
        since an accepted basis polish ends it without a run_ipm call."""
        import hybridlp.warmstart

        calls = []

        def spying(stage, real, at=0):
            def call(p, *args, **kwargs):
                if (stage, args[at].eps_rel) not in calls:
                    calls.append((stage, args[at].eps_rel))
                return real(p, *args, **kwargs)
            return call

        for name, stage, at in (("run_pdhg", "pdhg", 0), ("run_ipm", "ipm", 0),
                                ("warm_started_ipm", "ipm", 1)):
            monkeypatch.setattr(hybridlp.warmstart, name,
                                spying(stage, getattr(hybridlp.warmstart, name), at))
        return calls

    def test_every_name_is_tabled(self):
        paper_methods = ("pdhg-1e4", "pdhg-1e6", "pdhg-1e8", "ipm-cold", "hybrid")
        assert set(_STAGES_BY_METHOD) == set(METHODS) == set(paper_methods)

    @pytest.mark.parametrize("method", sorted(_STAGES_BY_METHOD))
    @pytest.mark.parametrize("override", [False, True])
    def test_stages_and_tolerances(self, monkeypatch, method, override):
        calls = self._spy(monkeypatch)
        g = parse_mps((FIXTURES / "lp1.mps").read_text())
        sol, record = solve_with_method(g, method, eps_rel=1e-5 if override else None)
        assert sol.status == "Optimal"
        assert record.method == sol.method == method
        assert calls == _STAGES_BY_METHOD[method][override]

    def test_unknown_name_rejected_before_any_stage(self, monkeypatch):
        import hybridlp.warmstart

        calls = self._spy(monkeypatch)

        def unreachable(g):
            raise AssertionError("presolve ran for an unknown method")

        monkeypatch.setattr(hybridlp.warmstart, "presolve", unreachable)
        g = parse_mps((FIXTURES / "lp1.mps").read_text())
        with pytest.raises(ValueError, match="simplex"):
            solve_with_method(g, "simplex")
        assert calls == []


class TestOneMethodList:
    """Both verbs take every warmstart.METHODS name; the summary reads the table."""

    @pytest.mark.parametrize("method", list(METHODS))
    def test_solve_takes_every_name(self, tmp_path, method):
        out = tmp_path / "sol.txt"
        assert main(["solve", str(FIXTURES / "lp1.mps"), "--method", method, "--out", str(out)]) == 0
        assert f"\nmethod {method}\n" in out.read_text()

    def test_bench_takes_table_names(self, tmp_path):
        results = tmp_path / "results.csv"
        assert main(["bench", str(FIXTURES), "--methods", "pdhg-1e4,ipm-cold", "--out", str(results)]) == 0
        with open(results) as fh:
            records = read_records_csv(fh)
        assert len(records) == 10
        assert {r.method for r in records} == {"pdhg-1e4", "ipm-cold"}
        assert {r.status for r in records} == {"Optimal"}

    def test_bench_unknown_name_usage_error(self, tmp_path):
        results = tmp_path / "results.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(FIXTURES), "--methods", "simplex", "--out", str(results)])
        assert exc.value.code == 2
        assert not results.exists()

    def test_cold_baseline_is_ipm_cold(self):
        def records(cold):
            out = []
            for model, cold_iters, warm_iters in (("m1", 20, 5), ("m2", 16, 8), ("m3", 30, 3)):
                out.append(_rec(model, cold, ipm_iters=cold_iters, pdhg_iters=0))
                out.append(_rec(model, "hybrid", ipm_iters=warm_iters))
            return out

        by_cold = _by_method(summarize(records("ipm-cold")))
        by_other = _by_method(summarize(records("ipm")))  # not a method name
        assert by_cold["hybrid"].geo_ipm_iteration_ratio == pytest.approx((1 / 4 * 1 / 2 * 1 / 10) ** (1 / 3))
        assert by_cold["ipm-cold"].geo_ipm_iteration_ratio is None
        assert by_other["hybrid"].geo_ipm_iteration_ratio is None

    def test_summary_columns_in_table_order(self):
        names = ["hybrid", "ipm-cold", "pdhg-1e8", "pdhg-1e4"]
        rows = summarize([_rec("m1", name) for name in names])
        assert [m.method for m in rows] == [m for m in METHODS if m in names]


class TestSettingsPassedThrough:
    """bench passes warmstart.solve's keywords through and checks them first."""

    @pytest.mark.parametrize("setting", [{"time_limit": 1}, {"pdhg_params": PdhgParams()}])
    def test_misspelt_setting_raises_before_any_model(self, tmp_path, monkeypatch, setting):
        """Only solve's keywords are settings; pdhg_params, which solve does
        not take, fails as any unknown keyword does."""
        import hybridlp.bench

        def unreachable(text):
            raise AssertionError("a model was read")

        monkeypatch.setattr(hybridlp.bench, "parse_mps", unreachable)
        (tmp_path / "lp1.mps").write_text((FIXTURES / "lp1.mps").read_text())
        with pytest.raises(TypeError, match=next(iter(setting))):
            bench_directory(str(tmp_path), ["hybrid"], **setting)

    def test_solve_settings_are_eps_rel_and_time_limit(self):
        params = inspect.signature(solve).parameters.values()
        assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == ["eps_rel", "time_limit_s"]

    def test_solve_with_method_takes_no_pdhg_params(self):
        g = parse_mps((FIXTURES / "lp1.mps").read_text())
        with pytest.raises(TypeError, match="pdhg_params"):
            solve_with_method(g, "pdhg-1e4", pdhg_params=PdhgParams())

    def test_settings_reach_solve(self, tmp_path):
        (tmp_path / "lp2.mps").write_text((FIXTURES / "lp2.mps").read_text())
        (record,) = bench_directory(str(tmp_path), ["pdhg-1e4"], time_limit_s=0.0)
        assert record.status == "TimeLimit"
        (record,) = bench_directory(str(tmp_path), ["pdhg-1e4"], eps_rel=1e-9)
        assert record.status == "Optimal" and record.max_violation < 1e-6

    @pytest.mark.parametrize("flags, settings", [
        ([], {}),
        (["--eps-rel", "1e-5", "--time-limit", "7"], {"eps_rel": 1e-5, "time_limit_s": 7.0}),
    ])
    def test_cli_solve_passes_only_given_settings(self, tmp_path, monkeypatch, flags, settings):
        """An option not given is left out, so warmstart.solve's default holds."""
        import hybridlp.warmstart

        real_solve, calls = hybridlp.warmstart.solve, []

        def spy(g, method, **kw):
            calls.append((method, kw))
            return real_solve(g, method, **kw)

        monkeypatch.setattr(hybridlp.warmstart, "solve", spy)
        out = tmp_path / "sol.txt"
        main(["solve", str(FIXTURES / "lp1.mps"), "--method", "ipm-cold", "--out", str(out), *flags])
        assert calls == [("ipm-cold", settings)]


class TestBadInput:
    def test_check_exits_3_on_a_partial_violation_block(self, tmp_path, capsys):
        model, out = FIXTURES / "lp1.mps", tmp_path / "sol.txt"
        assert main(["solve", str(model), "--out", str(out)]) == 0
        out.write_text("".join(
            line for line in out.read_text().splitlines(keepends=True)
            if not line.startswith("violation_") or line.startswith("violation_max ")
        ))
        capsys.readouterr()
        assert main(["check", str(model), str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
