"""MPS reader and solution-file grammar tests."""

import random
from pathlib import Path

import numpy as np
import pytest

from hybridlp import (
    EQ,
    GE,
    LE,
    MpsParseError,
    SolutionFile,
    ViolationSummary,
    parse_mps,
    parse_solution,
    write_solution,
)

FIXTURES = Path(__file__).parent / "fixtures"


def read(name: str) -> str:
    return (FIXTURES / name).read_text()


class TestParseMps:
    def test_lp1_fixture(self):
        """Hand-parse of the committed fixture: one equality row, rhs 1."""
        g = parse_mps(read("lp1.mps"))
        assert g.n_vars == 2 and g.n_rows == 1
        assert g.senses == [EQ]
        np.testing.assert_array_equal(g.rhs, [1.0])
        np.testing.assert_array_equal(g.c, [1.0, 2.0])
        np.testing.assert_array_equal(g.A.toarray(), [[1.0, 1.0]])
        assert g.col_names == ["X1", "X2"]
        np.testing.assert_array_equal(g.lower, [0.0, 0.0])
        assert np.all(np.isinf(g.upper))

    def test_lp2_fixture_multiline_columns(self):
        g = parse_mps(read("lp2.mps"))
        assert g.senses == [LE, LE]
        np.testing.assert_array_equal(g.A.toarray(), [[1.0, 2.0], [3.0, 1.0]])
        np.testing.assert_array_equal(g.rhs, [4.0, 6.0])
        np.testing.assert_array_equal(g.c, [-1.0, -1.0])

    def test_empty_columns_section(self):
        text = "NAME T\nROWS\n N OBJ\n L R1\nCOLUMNS\nRHS\nENDATA\n"
        g = parse_mps(text)
        assert g.n_vars == 0
        assert g.n_rows == 1
        assert g.A.nnz == 0

    def test_bound_types(self):
        """FR frees both bounds, MI only the lower, UP/FX per the bound table."""
        g = parse_mps(read("bounds.mps"))
        i = {name: j for j, name in enumerate(g.col_names)}
        assert g.lower[i["X1"]] == -np.inf and g.upper[i["X1"]] == np.inf
        assert g.lower[i["X2"]] == -np.inf and g.upper[i["X2"]] == 4.0
        assert g.lower[i["X3"]] == 2.0 and g.upper[i["X3"]] == 2.0

    def test_negative_up_frees_default_lower(self):
        text = (
            "NAME T\nROWS\n N OBJ\n G R1\nCOLUMNS\n"
            "    X1 OBJ 1.0 R1 1.0\nRHS\n    RHS R1 -5.0\nBOUNDS\n"
            " UP BND X1 -1.0\nENDATA\n"
        )
        g = parse_mps(text)
        assert g.upper[0] == -1.0
        assert g.lower[0] == -np.inf

    def test_duplicate_entries_summed(self):
        text = (
            "NAME T\nROWS\n N OBJ\n E R1\nCOLUMNS\n"
            "    X1 R1 1.0\n    X1 R1 2.5\n    X1 OBJ 1.0\n"
            "RHS\n    RHS R1 7.0\nENDATA\n"
        )
        g = parse_mps(text)
        assert g.A[0, 0] == pytest.approx(3.5)

    def test_repeated_and_zero_entries_canonical(self):
        """One row listed three times sums; an explicit 0 is not stored."""
        text = (
            "NAME T\nROWS\n N OBJ\n E R1\n E R2\nCOLUMNS\n"
            "    X1 R1 1.0 R1 2.0\n    X1 R1 4.0 R2 0\n    X2 R2 3.0\n"
            "RHS\n    RHS R1 7.0\nENDATA\n"
        )
        g = parse_mps(text)
        np.testing.assert_array_equal(g.A.toarray(), [[7.0, 0.0], [0.0, 3.0]])
        assert g.A.nnz == 2
        assert g.A.has_canonical_format

    def test_ranges_expand_to_two_sided_rows(self):
        g = parse_mps(read("ranges.mps"))
        rows = dict(zip(g.row_names, zip(g.senses, g.rhs)))
        # L row with rhs 10, range 4: 6 <= ax <= 10
        assert rows["RL"] == (LE, 10.0)
        assert rows["RL.range"] == (GE, 6.0)
        # G row with rhs 2, range 3: 2 <= ax <= 5
        assert rows["RG"] == (LE, 5.0)
        assert rows["RG.range"] == (GE, 2.0)
        # E row with rhs 5, positive range 2: 5 <= ax <= 7
        assert rows["RE"] == (LE, 7.0)
        assert rows["RE.range"] == (GE, 5.0)
        # mirror rows carry the same coefficients
        A = g.A.toarray()
        names = g.row_names
        np.testing.assert_array_equal(A[names.index("RL")], A[names.index("RL.range")])

    def test_objsense_maximize_negates_costs(self):
        text = (
            "NAME T\nOBJSENSE\n    MAXIMIZE\nROWS\n N OBJ\n L R1\nCOLUMNS\n"
            "    X1 OBJ 3.0 R1 1.0\nRHS\n    RHS R1 2.0\nENDATA\n"
        )
        g = parse_mps(text)
        np.testing.assert_array_equal(g.c, [-3.0])

    def test_objective_rhs_becomes_offset(self):
        text = (
            "NAME T\nROWS\n N OBJ\n L R1\nCOLUMNS\n"
            "    X1 OBJ 1.0 R1 1.0\nRHS\n    RHS OBJ 2.5 R1 2.0\nENDATA\n"
        )
        g = parse_mps(text)
        assert g.obj_offset == pytest.approx(-2.5)

    def test_fortran_exponent(self):
        text = (
            "NAME T\nROWS\n N OBJ\n E R1\nCOLUMNS\n"
            "    X1 OBJ 1.0 R1 1.5D+1\nRHS\n    RHS R1 3.0\nENDATA\n"
        )
        g = parse_mps(text)
        assert g.A[0, 0] == pytest.approx(15.0)

    def test_integrality_markers_skipped(self):
        text = (
            "NAME T\nROWS\n N OBJ\n E R1\nCOLUMNS\n"
            "    M1 'MARKER' 'INTORG'\n    X1 OBJ 1.0 R1 1.0\n"
            "    M2 'MARKER' 'INTEND'\nRHS\n    RHS R1 3.0\nENDATA\n"
        )
        g = parse_mps(text)
        assert g.n_vars == 1


class TestParseErrors:
    def test_unknown_section(self):
        text = "NAME T\nROWS\n N OBJ\nJUNKSECTION\nENDATA\n"
        with pytest.raises(MpsParseError, match="line 4"):
            parse_mps(text)

    def test_column_references_undeclared_row(self):
        text = "NAME T\nROWS\n N OBJ\n E R1\nCOLUMNS\n    X1 NOPE 1.0\nRHS\nENDATA\n"
        with pytest.raises(MpsParseError, match="unknown row"):
            parse_mps(text)

    def test_multiple_n_rows(self):
        text = "NAME T\nROWS\n N OBJ\n N OBJ2\nENDATA\n"
        with pytest.raises(MpsParseError, match="multiple N rows"):
            parse_mps(text)

    def test_missing_endata(self):
        text = "NAME T\nROWS\n N OBJ\n E R1\nCOLUMNS\n    X1 R1 1.0\nRHS\n"
        with pytest.raises(MpsParseError, match="ENDATA"):
            parse_mps(text)

    @pytest.mark.parametrize("text, match", [
        ("NAME T\nENDATA\n\n", "line 2: missing ROWS section"),
        ("NAME T\nROWS\n L R1\nENDATA\n* note\n", r"line 4: no N \(objective\) row"),
    ])
    def test_whole_file_errors_name_the_endata_line(self, text, match):
        """Nothing after ENDATA is read, so it does not move the error's line."""
        with pytest.raises(MpsParseError, match=match):
            parse_mps(text)

    def test_bad_number_has_line(self):
        text = "NAME T\nROWS\n N OBJ\n E R1\nCOLUMNS\n    X1 R1 oops\nRHS\nENDATA\n"
        with pytest.raises(MpsParseError, match="line 6"):
            parse_mps(text)

    @pytest.mark.parametrize("seed", range(12))
    def test_section_shuffle_must_error(self, seed):
        """A file with shuffled sections errors instead of mis-parsing."""
        blocks = read("lp2.mps").split("\n")
        header_idx = [i for i, ln in enumerate(blocks) if ln[:1] not in (" ", "\t") and ln.strip()]
        sections = [
            "\n".join(blocks[a:b])
            for a, b in zip(header_idx, header_idx[1:] + [len(blocks)])
        ]
        rng = random.Random(seed)
        shuffled = sections[:]
        rng.shuffle(shuffled)
        if shuffled == sections:
            return
        with pytest.raises(MpsParseError):
            parse_mps("\n".join(shuffled))


def _sample_solution(status="Optimal") -> SolutionFile:
    return SolutionFile(
        status=status,
        method="hybrid",
        wall_seconds=0.125,
        pdhg_iterations=128,
        ipm_iterations=7,
        escalations=1,
        var_names=["X1", "X2"],
        row_names=["R1"],
        x=np.array([1.0, 0.0]),
        y=np.array([1.0]),
        z=np.array([0.0, 1.0]),
        violation=ViolationSummary(0.0, 0.0, 0.0, 0.0),
        message="",
    )


class TestSolutionFiles:
    def test_minimal_optimal_record(self):
        text = write_solution(_sample_solution())
        assert "status Optimal" in text
        assert "X1 1" in text and "X2 0" in text
        assert text.endswith("end\n")

    def test_round_trip_identity(self):
        s = _sample_solution()
        back = parse_solution(write_solution(s))
        assert back.status == s.status
        assert back.method == s.method
        assert back.var_names == s.var_names and back.row_names == s.row_names
        np.testing.assert_array_equal(back.x, s.x)
        np.testing.assert_array_equal(back.y, s.y)
        np.testing.assert_array_equal(back.z, s.z)
        assert back.wall_seconds == s.wall_seconds
        assert back.violation.max_violation == s.violation.max_violation
        # idempotence of parse(write(.))
        assert write_solution(back) == write_solution(s)

    def test_seventeen_digit_reals_round_trip_exactly(self):
        s = _sample_solution()
        s.x = np.array([np.pi, 1.0 / 3.0])
        back = parse_solution(write_solution(s))
        assert back.x[0] == s.x[0] and back.x[1] == s.x[1]

    def test_stalled_partial_iterate_keeps_arrays(self):
        s = _sample_solution(status="Stalled")
        s.violation = ViolationSummary(1e-3, 2e-4, 5e-5, 1e-3)
        text = write_solution(s)
        back = parse_solution(text)
        assert back.status == "Stalled"
        assert back.x.size == 2 and back.y.size == 1
        assert back.violation is not None
        assert back.violation.max_violation == pytest.approx(1e-3)

    def test_truncated_file_rejected(self):
        text = write_solution(_sample_solution())
        truncated = "\n".join(text.splitlines()[:-3])
        with pytest.raises(ValueError):
            parse_solution(truncated)

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            _sample_solution(status="Wat")

    def test_fixture_round_trip_idempotence(self):
        """Parse-serialize-parse is the identity on every fixture model's
        zero solution."""
        for name in ("lp1.mps", "lp2.mps", "bounds.mps", "ranges.mps", "freevar.mps"):
            g = parse_mps(read(name))
            s = SolutionFile(
                status="Optimal", method="ipm-cold", wall_seconds=0.0,
                pdhg_iterations=0, ipm_iterations=3, escalations=0,
                var_names=g.variable_names(), row_names=g.constraint_names(),
                x=np.zeros(g.n_vars), y=np.zeros(g.n_rows), z=np.zeros(g.n_vars),
                violation=ViolationSummary(0, 0, 0, 0),
            )
            once = write_solution(s)
            twice = write_solution(parse_solution(once))
            assert once == twice


class TestSolutionFileBytes:
    """The exact text write_solution produces, and what a missing header
    line reads as."""

    WITH_VIOLATION = SolutionFile(
        status="Optimal", method="hybrid", wall_seconds=0.125,
        pdhg_iterations=64, ipm_iterations=5, escalations=1,
        var_names=["X1", "X 2"], row_names=["R1"],
        x=[1.0, 1.0 / 3.0], y=[-2.5], z=[0.0, 1e-300],
        violation=ViolationSummary(1e-9, 2.5e-10, -3e-12, 1e-9), message="",
    )
    WITH_VIOLATION_TEXT = (
        "hybridlp-solution 1\n"
        "status Optimal\n"
        "method hybrid\n"
        "message -\n"
        "wall_seconds 0.125\n"
        "pdhg_iterations 64\n"
        "ipm_iterations 5\n"
        "escalations 1\n"
        "violation_primal_inf 1.0000000000000001e-09\n"
        "violation_dual_inf 2.5000000000000002e-10\n"
        "violation_rel_gap -3.0000000000000001e-12\n"
        "violation_max 1.0000000000000001e-09\n"
        "primal 2\n"
        "X1 1\n"
        "X 2 0.33333333333333331\n"
        "dual 1\n"
        "R1 -2.5\n"
        "reduced_costs 2\n"
        "X1 0\n"
        "X 2 1e-300\n"
        "end\n"
    )
    WITH_MESSAGE = SolutionFile(
        status="IterationLimit", method="pdhg-1e6", wall_seconds=2.0,
        pdhg_iterations=200000, ipm_iterations=0, escalations=0,
        var_names=["x0"], row_names=["r0", "r 1"],
        x=[-0.1], y=[3e20, -0.0], z=[7.0], message="pdhg: IterationLimit",
    )
    WITH_MESSAGE_TEXT = (
        "hybridlp-solution 1\n"
        "status IterationLimit\n"
        "method pdhg-1e6\n"
        "message pdhg: IterationLimit\n"
        "wall_seconds 2\n"
        "pdhg_iterations 200000\n"
        "ipm_iterations 0\n"
        "escalations 0\n"
        "primal 1\n"
        "x0 -0.10000000000000001\n"
        "dual 2\n"
        "r0 3e+20\n"
        "r 1 -0\n"
        "reduced_costs 1\n"
        "x0 7\n"
        "end\n"
    )

    @pytest.mark.parametrize("which", ["WITH_VIOLATION", "WITH_MESSAGE"])
    def test_exact_bytes_and_reparse(self, which):
        sol, text = getattr(self, which), getattr(self, which + "_TEXT")
        assert write_solution(sol) == text
        back = parse_solution(text)
        assert write_solution(back) == text
        assert back.message == sol.message
        assert back.var_names == sol.var_names and back.row_names == sol.row_names
        if sol.violation is None:
            assert back.violation is None
        else:
            assert back.violation.comp_negative == (sol.violation.rel_gap < 0)

    def test_negative_gap_flag_round_trips(self):
        """comp_negative follows rel_gap, so a written and parsed summary
        equals the one written."""
        s = _sample_solution()
        s.violation = ViolationSummary(1e-9, 2.5e-10, -3e-12, 1e-9)
        assert s.violation.comp_negative
        assert parse_solution(write_solution(s)).violation == s.violation

    def test_missing_header_lines_read_as_defaults(self):
        back = parse_solution(
            "hybridlp-solution 1\nstatus Optimal\n"
            "primal 1\nX1 1\ndual 0\nreduced_costs 1\nX1 0\nend\n"
        )
        assert back.status == "Optimal"
        assert back.method == ""
        assert back.wall_seconds == 0.0
        assert (back.pdhg_iterations, back.ipm_iterations, back.escalations) == (0, 0, 0)
        assert back.violation is None
        assert back.message == ""
        assert back.var_names == ["X1"] and back.row_names == []
        np.testing.assert_array_equal(back.x, [1.0])
        np.testing.assert_array_equal(back.z, [0.0])


_VIOLATION_LINES = ("violation_primal_inf", "violation_dual_inf",
                    "violation_rel_gap", "violation_max")


class TestViolationLinesTogether:
    """The four violation lines are read all together or not at all."""

    @staticmethod
    def _keeping(kept) -> str:
        text = write_solution(_sample_solution())
        return "".join(
            line for line in text.splitlines(keepends=True)
            if line.split()[0] not in _VIOLATION_LINES or line.split()[0] in kept
        )

    @pytest.mark.parametrize("kept", [
        ("violation_max",),
        ("violation_primal_inf",),
        ("violation_primal_inf", "violation_dual_inf", "violation_rel_gap"),
        ("violation_dual_inf", "violation_max"),
    ])
    def test_some_but_not_all_raise_value_error_naming_them(self, kept):
        with pytest.raises(ValueError) as err:
            parse_solution(self._keeping(kept))
        assert not isinstance(err.value, KeyError)
        for key in kept:
            assert key in str(err.value)
        for key in set(_VIOLATION_LINES) - set(kept):
            assert key not in str(err.value)

    def test_none_or_all_parse(self):
        assert parse_solution(self._keeping(())).violation is None
        back = parse_solution(self._keeping(_VIOLATION_LINES))
        assert back.violation == _sample_solution().violation


class TestRowNamesShared:
    """A constraint row may not take the N row's name."""

    @pytest.mark.parametrize("rows, line", [
        (" N OBJ\n L OBJ\n", 4),
        (" G OBJ\n N OBJ\n", 4),
        (" N OBJ\n E R1\n E OBJ\n", 5),
    ])
    def test_duplicate_row_at_the_later_line(self, rows, line):
        text = f"NAME T\nROWS\n{rows}COLUMNS\n X1 OBJ 1\nRHS\n RHS OBJ 2\nENDATA\n"
        with pytest.raises(MpsParseError, match=f"line {line}: duplicate row OBJ"):
            parse_mps(text)
