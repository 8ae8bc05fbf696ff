"""Bitwise pins of parse_mps against the reader it replaced.

parse_mps reads MPS in one pass with table-driven section and bound rules.
The reference below is the earlier reader, kept verbatim: a section state
machine, a branch per bound type and dicts copied into arrays after the
loop.  Both must return the same model bit for bit and raise the same
errors, with one deliberate difference: "missing ROWS section" and "no N
(objective) row declared" are reported at the ENDATA line, where the
reference reported the line after it whenever any text followed ENDATA.

One grammar change was made in both readers: a constraint row may not take
the N row's name.  Such a pair raises "duplicate row" at the later of the
two ROWS lines; before, the constraint row silently lost its COLUMNS and
RHS entries to the objective.
"""

import ast
import random
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hybridlp import EQ, GE, LE, GeneralLp, MpsParseError, parse_mps

FIXTURES = Path(__file__).parent / "fixtures"

_SECTIONS = ["NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"]
_SENSE_OF = {"L": LE, "G": GE, "E": EQ}


def _to_float(tok: str, line_no: int) -> float:
    try:
        return float(tok)
    except ValueError:
        try:
            # old Fortran-style exponents: 1.5D+2
            return float(tok.upper().replace("D", "E"))
        except ValueError:
            raise MpsParseError(f"cannot parse number {tok!r}", line_no) from None


def reference_parse_mps(text: str) -> GeneralLp:
    """Parse MPS text into a GeneralLp (always a minimization).

    Exactly one N row supplies the objective; missing bounds default to
    [0, +inf); duplicate (row, column) entries are summed; RANGES rows are
    expanded into an extra mirror row named ``<row>.range``.  OBJSENSE
    MAXIMIZE is honored by negating the costs.
    """
    obj_name = None
    maximize = False
    row_names: list[str] = []
    row_index: dict[str, int] = {}
    senses: list[str] = []
    col_names: list[str] = []
    col_index: dict[str, int] = {}
    costs: list[float] = []
    entry_rows: list[int] = []
    entry_cols: list[int] = []
    entry_vals: list[float] = []
    rhs: dict[int, float] = {}
    obj_rhs = 0.0
    ranges: dict[int, float] = {}
    lower: dict[int, float] = {}
    upper: dict[int, float] = {}

    section = None
    seen: list[str] = []
    saw_endata = False
    pending_objsense = False
    line_no = 0

    def begin(name: str, line_no: int):
        nonlocal section, pending_objsense
        if name not in _SECTIONS:
            raise MpsParseError(f"unknown section {name!r}", line_no)
        if name in seen:
            raise MpsParseError(f"duplicate section {name}", line_no)
        if seen and _SECTIONS.index(name) < _SECTIONS.index(seen[-1]):
            raise MpsParseError(f"section {name} out of order", line_no)
        for required, dependents in (("ROWS", ("COLUMNS", "RHS", "RANGES", "BOUNDS")),
                                     ("COLUMNS", ("RHS", "RANGES", "BOUNDS"))):
            if name in dependents and required not in seen:
                raise MpsParseError(f"section {name} before {required}", line_no)
        seen.append(name)
        section = name
        pending_objsense = name == "OBJSENSE"

    def col_of(name: str) -> int:
        if name not in col_index:
            col_index[name] = len(col_names)
            col_names.append(name)
            costs.append(0.0)
        return col_index[name]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if saw_endata:
            break
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = raw[:1] not in (" ", "\t")
        toks = raw.split()

        if is_header:
            head = toks[0].upper()
            if head == "NAME":
                begin("NAME", line_no)
                continue
            if head == "ENDATA":
                begin("ENDATA", line_no)
                saw_endata = True
                continue
            begin(head, line_no)
            if head == "OBJSENSE" and len(toks) > 1:
                maximize = toks[1].upper().startswith("MAX")
                pending_objsense = False
            continue

        if section is None:
            raise MpsParseError("data before any section header", line_no)

        if section == "OBJSENSE":
            if not pending_objsense:
                raise MpsParseError("unexpected data in OBJSENSE", line_no)
            maximize = toks[0].upper().startswith("MAX")
            pending_objsense = False

        elif section == "NAME":
            raise MpsParseError("unexpected data after NAME", line_no)

        elif section == "ROWS":
            if len(toks) != 2:
                raise MpsParseError("ROWS line needs a type and a name", line_no)
            rtype, rname = toks[0].upper(), toks[1]
            if rtype == "N":
                if obj_name is not None:
                    raise MpsParseError("multiple N rows", line_no)
                if rname in row_index:
                    raise MpsParseError(f"duplicate row {rname}", line_no)
                obj_name = rname
            elif rtype in _SENSE_OF:
                if rname in row_index or rname == obj_name:
                    raise MpsParseError(f"duplicate row {rname}", line_no)
                row_index[rname] = len(row_names)
                row_names.append(rname)
                senses.append(_SENSE_OF[rtype])
            else:
                raise MpsParseError(f"unknown row type {rtype!r}", line_no)

        elif section == "COLUMNS":
            if len(toks) >= 3 and toks[1] == "'MARKER'":
                continue  # integrality markers: treated as continuous
            cname = toks[0]
            pairs = toks[1:]
            if len(pairs) % 2 != 0 or not pairs:
                raise MpsParseError("COLUMNS line needs (row, value) pairs", line_no)
            j = col_of(cname)
            for k in range(0, len(pairs), 2):
                rname, val = pairs[k], _to_float(pairs[k + 1], line_no)
                if rname == obj_name:
                    costs[j] += val
                elif rname in row_index:
                    entry_rows.append(row_index[rname])
                    entry_cols.append(j)
                    entry_vals.append(val)
                else:
                    raise MpsParseError(f"unknown row {rname!r}", line_no)

        elif section in ("RHS", "RANGES"):
            store = rhs if section == "RHS" else ranges
            pairs = toks[1:] if len(toks) % 2 == 1 else toks
            if len(pairs) % 2 != 0 or not pairs:
                raise MpsParseError(f"{section} line needs (row, value) pairs", line_no)
            for k in range(0, len(pairs), 2):
                rname, val = pairs[k], _to_float(pairs[k + 1], line_no)
                if rname == obj_name:
                    if section == "RHS":
                        obj_rhs += val
                    else:
                        raise MpsParseError("RANGES entry on objective row", line_no)
                elif rname in row_index:
                    store[row_index[rname]] = val
                else:
                    raise MpsParseError(f"unknown row {rname!r}", line_no)

        elif section == "BOUNDS":
            btype = toks[0].upper()
            valued = btype in ("LO", "UP", "FX", "UI", "LI")
            want = 4 if valued else 3
            if len(toks) == want:
                cname = toks[2]
                val_tok = toks[3] if valued else None
            elif len(toks) == want - 1:
                cname = toks[1]
                val_tok = toks[2] if valued else None
            else:
                raise MpsParseError("malformed BOUNDS line", line_no)
            if cname not in col_index:
                raise MpsParseError(f"unknown column {cname!r}", line_no)
            j = col_index[cname]
            val = _to_float(val_tok, line_no) if valued else 0.0
            if btype in ("LO", "LI"):
                lower[j] = val
            elif btype in ("UP", "UI"):
                upper[j] = val
                # classic convention: a negative upper bound on a variable whose
                # lower bound was never set frees the lower bound
                if val < 0.0 and j not in lower:
                    lower[j] = -np.inf
            elif btype == "FX":
                lower[j] = val
                upper[j] = val
            elif btype == "FR":
                lower[j] = -np.inf
                upper[j] = np.inf
            elif btype == "MI":
                lower[j] = -np.inf
            elif btype == "PL":
                upper[j] = np.inf
            elif btype == "BV":
                lower[j] = 0.0
                upper[j] = 1.0
            else:
                raise MpsParseError(f"unknown bound type {btype!r}", line_no)

        else:  # pragma: no cover - sections are a closed set
            raise MpsParseError(f"unhandled section {section}", line_no)

    if not saw_endata:
        raise MpsParseError("missing ENDATA", line_no)
    if "ROWS" not in seen:
        raise MpsParseError("missing ROWS section", line_no)
    if obj_name is None:
        raise MpsParseError("no N (objective) row declared", line_no)

    n = len(col_names)
    m = len(row_names)
    lo = np.zeros(n)
    up = np.full(n, np.inf)
    for j, v in lower.items():
        lo[j] = v
    for j, v in upper.items():
        up[j] = v

    rhs_vec = np.zeros(m)
    for i, v in rhs.items():
        rhs_vec[i] = v

    A = sp.csr_matrix((entry_vals, (entry_rows, entry_cols)), shape=(m, n))
    sense_list = list(senses)
    row_name_list = list(row_names)

    # RANGES: a ranged row becomes a two-sided constraint, expressed as the
    # original row plus a mirror row with the complementary sense.
    if ranges:
        extra_senses = []
        extra_rhs = []
        extra_names = []
        for i, r in sorted(ranges.items()):
            s = sense_list[i]
            b = rhs_vec[i]
            if s == LE:
                lo_b, hi_b = b - abs(r), b
            elif s == GE:
                lo_b, hi_b = b, b + abs(r)
            else:
                lo_b, hi_b = (b, b + r) if r >= 0 else (b + r, b)
            sense_list[i] = LE
            rhs_vec[i] = hi_b
            extra_senses.append(GE)
            extra_rhs.append(lo_b)
            extra_names.append(f"{row_name_list[i]}.range")
        A = sp.vstack([A, A[sorted(ranges)]], format="csr")
        sense_list.extend(extra_senses)
        rhs_vec = np.concatenate([rhs_vec, extra_rhs])
        row_name_list.extend(extra_names)

    c = np.asarray(costs)
    # an RHS entry on the objective row is a negated constant term
    offset = -obj_rhs
    if maximize:
        c = -c
        offset = -offset

    return GeneralLp(
        c=c, A=A, senses=sense_list, rhs=rhs_vec,
        lower=lo, upper=up, obj_offset=offset,
        col_names=col_names, row_names=row_name_list,
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

_WHOLE_FILE = ("missing ROWS section", "no N (objective) row declared")


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def assert_same_model(got: GeneralLp, want: GeneralLp):
    assert got.A.shape == want.A.shape
    for part in ("indptr", "indices", "data"):
        assert _bits(getattr(got.A, part)) == _bits(getattr(want.A, part)), part
    for part in ("c", "rhs", "lower", "upper"):
        assert _bits(getattr(got, part)) == _bits(getattr(want, part)), part
    assert got.senses == want.senses
    assert got.col_names == want.col_names
    assert got.row_names == want.row_names
    assert repr(got.obj_offset) == repr(want.obj_offset)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except Exception as e:  # the two readers must fail alike, whatever the type
        return e


def _is_endata(line: str) -> bool:
    return line[:1] not in (" ", "\t") and [t.upper() for t in line.split()[:1]] == ["ENDATA"]


def assert_same(text: str) -> bool:
    """Both readers agree on text; True when the ENDATA line rule applied."""
    want, got = _outcome(reference_parse_mps, text), _outcome(parse_mps, text)
    if isinstance(want, GeneralLp):
        assert isinstance(got, GeneralLp), got
        assert_same_model(got, want)
        return False
    assert type(got) is type(want), (got, want)
    if not isinstance(want, MpsParseError):
        assert str(got) == str(want)
        return False
    message = str(want).split(": ", 1)[1]
    line_no = want.line_no
    moved = message in _WHOLE_FILE and line_no > 1 and _is_endata(text.splitlines()[line_no - 2])
    if moved:
        line_no -= 1  # the reference named the line after ENDATA
    assert (str(got), got.line_no) == (f"line {line_no}: {message}", line_no)
    return moved


# ---------------------------------------------------------------------------
# Valid models
# ---------------------------------------------------------------------------

FIXTURE_TEXTS = [p.read_text() for p in sorted(FIXTURES.glob("*.mps"))]


def _mps_io_test_texts() -> list:
    """Every MPS text literal written in test_mps_io.py."""
    tree = ast.parse((Path(__file__).parent / "test_mps_io.py").read_text())
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "ROWS" in node.value
    ]


RANGED = """NAME RANGED
OBJSENSE MAX
ROWS
 N OBJ
 L RL
 G RG
 E REP
 E REN
 E REZ
 L RLN
 G RGN
 L RNORHS
 E RNAN
 L RINF
COLUMNS
    X1 OBJ 1.0 RL 1.0
    X1 RG 2.0 REP 3.0
    X2 OBJ -2.0 REN 1.0 REZ 1.0
    X2 RLN 1.0 RGN 4.0 RNORHS 1.0
    X3 RNAN 1.0 RINF 2.0 RL 1.0
RHS
    RHS OBJ 2.5 RL 10.0
    RHS RG 2.0 REP 5.0
    RHS REN 5.0 REZ -0
    RHS RLN -3.0 RGN 1.0
    RHS RNAN 1.0 RINF inf
RANGES
    RNG RL 4.0 RG 3.0
    RNG REP 2.0 REN -2.0
    RNG REZ -0 RLN -1.5
    RNG RGN -2.5 RNORHS 7.0
    RNAN -nan
    RNG RINF 1.0 RL 6.0
ENDATA
"""

BOUNDED = """* every bound type, and the negative upper bound rule
NAME BOUNDED
ROWS
 N COST
 G R1
COLUMNS
    X1 COST 1 R1 1
    X2 COST 1 R1 1
    X3 COST 1 R1 1
    X4 COST 1 R1 1
    X5 COST 1 R1 1
    X6 COST 1 R1 1
    X7 COST 1 R1 1
    X8 COST 1 R1 1
    X9 COST 1 R1 1
    X10 COST 1 R1 1
    X11 COST 1 R1 1
    X12 COST 1 R1 1
    X13 COST 1 R1 1
    X14 COST 1 R1 1
    X15 COST 1 R1 1
    X16 COST 1 R1 1
    X17 COST 1 R1 1
RHS
    RHS R1 1
BOUNDS
 LO BND X1 1.5
 UP BND X1 -1
 UP BND X2 -2
 UI BND X3 -3
 LI BND X3 2
 FX BND X4 -1
 UP BND X4 -2
 FR BND X5
 MI BND X6
 PL BND X7
 BV BND X8
 LI BND X9 2
 UI BND X10 7
 LO BND X11 nan
 UP BND X11 -1
 UP BND X12 -1
 UP BND X12 -5
 MI BND X13
 UP BND X13 -1
 PL BND X14
 UP BND X14 -1
 UP X15 3
 FR X16
 lo bnd X17 -0
 up bnd X17 -0
ENDATA
"""

MIXED = """NAME\tMIXED
* a comment line
   * an indented comment

OBJSENSE
    MAXIMIZE
rows
 n OBJ
 l L0
 e R1
\tg R2
COLUMNS
    M1 'MARKER' 'INTORG'
    X1 OBJ 1.5D+1 R1 2d-1
    X1 R1 1D2 R2 -0
    M2 'MARKER' 'INTEND'
\tX2\tOBJ\t-0\tR2\t3.0
    X2 R2 4.0 R1 0
    X3 OBJ 1 OBJ 2.5
RHS
    R1 1.5D0
    RHS R2 -1 OBJ 1
ENDATA
text after the end is never read
"""

INLINE_TEXTS = [
    RANGED,
    BOUNDED,
    MIXED,
    "NAME\nROWS\n N OBJ\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nENDATA",
    "ROWS\n N OBJ\n L R1\nENDATA\n\n",
    "ROWS\n N OBJ\n E R1\nCOLUMNS\n X1 R1 1\nBOUNDS\n UP BND X1 4\nENDATA\n",
    "NAME T\nOBJSENSE\n    MIN\nROWS\n N OBJ\n G R1\nCOLUMNS\n X1 OBJ 2 R1 1\n"
    "RANGES\n R1 2\nENDATA\n",
]


@pytest.mark.parametrize("k", range(len(FIXTURE_TEXTS + INLINE_TEXTS)))
def test_valid_models_bitwise(k):
    text = (FIXTURE_TEXTS + INLINE_TEXTS)[k]
    assert isinstance(_outcome(reference_parse_mps, text), GeneralLp)
    assert not assert_same(text)


def test_mps_io_texts_match():
    texts = _mps_io_test_texts()
    assert len(texts) >= 13
    for text in texts:
        assert_same(text)


def test_inline_models_cover_the_grammar():
    ranged = parse_mps(RANGED)
    # ten ranged rows, each with its mirror; MAX negates the offset -2.5
    assert ranged.n_rows == 20 and ranged.obj_offset == 2.5
    assert ranged.senses == [LE] * 10 + [GE] * 10
    bounded = parse_mps(BOUNDED)
    assert bounded.lower[1] == -np.inf and bounded.lower[3] == -1.0
    assert np.isnan(bounded.lower[10]) and bounded.upper[10] == -1.0
    assert bounded.lower[13] == -np.inf and bounded.upper[7] == 1.0
    mixed = parse_mps(MIXED)
    assert mixed.col_names == ["X1", "X2", "X3"]
    np.testing.assert_array_equal(mixed.c, [-15.0, 0.0, -3.5])
    # the constraint row L0 has no entries
    assert mixed.A[0].nnz == 0 and mixed.A[1, 0] == pytest.approx(100.2)


# ---------------------------------------------------------------------------
# Malformed files
# ---------------------------------------------------------------------------

ERROR_TEXTS = [
    "",
    "\n* only a comment\n",
    " X1 R1 1\nROWS\n",
    "NAME T\n junk\nENDATA\n",
    "NAME T\nJUNK\nENDATA\n",
    "ROWS\n N OBJ\nROWS\nENDATA\n",
    "ROWS\n N OBJ\nOBJSENSE\nENDATA\n",
    "NAME T\nRHS\nENDATA\n",
    "NAME T\nCOLUMNS\nENDATA\n",
    "ROWS\n N OBJ\nRHS\nENDATA\n",
    "ROWS\n N OBJ\nBOUNDS\nENDATA\n",
    "OBJSENSE MAX\n MIN\nROWS\n N OBJ\nENDATA\n",
    "OBJSENSE\n MAX\n MIN\nROWS\n N OBJ\nENDATA\n",
    "ROWS\n N OBJ\n N OBJ2\nENDATA\n",
    "ROWS\n N OBJ\n L R1\n G R1\nENDATA\n",
    "ROWS\n N OBJ\n X R1\nENDATA\n",
    "ROWS\n N OBJ\n L R1 R2\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 NOPE oops\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1 NOPE 2\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nRHS\n RHS\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nRHS\n RHS NOPE oops\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nRANGES\n RNG OBJ 1\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nRANGES\n RNG OBJ oops\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nBOUNDS\n UP BND NOPE oops\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nBOUNDS\n UP BND X1 oops\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nBOUNDS\n XX BND X1\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nBOUNDS\n XX BND NOPE\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nBOUNDS\n XX BND X1 1.0\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nBOUNDS\n UP X1\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\nBOUNDS\n FR BND X1 1 2\nENDATA\n",
    "ROWS\n N OBJ\n L R1\nCOLUMNS\n X1 R1 1\n",
    # a constraint row with the N row's name, after it and before it
    "ROWS\n N OBJ\n L OBJ\nCOLUMNS\n X1 OBJ 1\nRHS\n RHS OBJ 2\nENDATA\n",
    "ROWS\n G OBJ\n N OBJ\nENDATA\n",
]

# whole-file errors with text after ENDATA: (text, the ENDATA line)
ENDATA_TEXTS = [
    ("NAME T\nENDATA\n\n", 2),
    ("NAME T\nROWS\n L R1\nENDATA\n* trailing comment\n", 4),
    ("ROWS\n L R1\n\nendata  \nROWS\n N OBJ\n", 4),
]


@pytest.mark.parametrize("k", range(len(ERROR_TEXTS)))
def test_errors_match(k):
    text = ERROR_TEXTS[k]
    assert isinstance(_outcome(reference_parse_mps, text), MpsParseError)
    assert not assert_same(text)


@pytest.mark.parametrize("k", range(len(ENDATA_TEXTS)))
def test_whole_file_errors_name_the_endata_line(k):
    text, endata_line = ENDATA_TEXTS[k]
    want = _outcome(reference_parse_mps, text)
    assert want.line_no == endata_line + 1
    assert assert_same(text)
    with pytest.raises(MpsParseError) as err:
        parse_mps(text)
    assert err.value.line_no == endata_line


_VOCAB = (
    _SECTIONS + ["JUNK", "N", "L", "G", "E", "X", "LO", "UP", "FX", "FR", "MI", "PL",
                 "BV", "LI", "UI", "XX", "OBJ", "COST", "R1", "RL", "RG", "RE", "C1",
                 "X1", "X2", "X3", "NOPE", "RHS", "RNG", "BND", "1", "-1", "0", "-0",
                 "2.5", "-4", "1D2", "1.5d-1", "nan", "-nan", "inf", "-inf", "oops",
                 "'MARKER'", "*", "MAX", "MIN", "MAXIMIZE"]
)


def _mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines = [rng.choice(_VOCAB)]
        k = rng.randrange(len(lines))
        indent = " " if lines[k][:1] in (" ", "\t") else ""
        toks = lines[k].split()
        kind = rng.randrange(9)
        if kind == 0:
            del lines[k]
        elif kind == 1:
            lines.insert(k, lines[k])
        elif kind == 2:
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        elif kind == 3 and toks:
            toks[rng.randrange(len(toks))] = rng.choice(_VOCAB)
        elif kind == 4 and len(toks) >= 2:
            # a (name, number) pair, so both of a pair's errors can meet
            t = rng.randrange(len(toks) - 1)
            toks[t:t + 2] = rng.choice(_VOCAB), rng.choice(_VOCAB)
        elif kind == 5:
            toks.insert(rng.randint(0, len(toks)), rng.choice(_VOCAB))
        elif kind == 6 and toks:
            del toks[rng.randrange(len(toks))]
        elif kind == 7:
            indent = "" if indent else " "
        else:
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "* c", " ".join(
                rng.choice(_VOCAB) for _ in range(rng.randint(1, 4)))]))
            continue
        if kind >= 3 and k < len(lines):
            lines[k] = indent + " ".join(toks)
    return "\n".join(lines) + rng.choice(["", "\n", "\nENDATA\n", "\n\n x"])


_BASES = FIXTURE_TEXTS + INLINE_TEXTS


@pytest.mark.parametrize("chunk", range(6))
def test_fuzzed_files_match(chunk):
    rng = random.Random(chunk)
    for _ in range(500):
        assert_same(_mutate(rng.choice(_BASES), rng))


# ---------------------------------------------------------------------------
# Large files
# ---------------------------------------------------------------------------

_BOUND_TYPES = ["LO", "LI", "UP", "UI", "FX", "FR", "MI", "PL", "BV"]


def _large_mps(seed: int) -> str:
    """A valid model of several thousand lines that mixes every block feature:
    3- and 5-token COLUMNS lines, comment, blank and MARKER lines inside
    blocks, repeated entries, RHS lines with and without a vector name,
    negative RANGES on L, G and E rows, every ordered pair of bound types on
    one column, and Fortran D exponents."""
    rng = random.Random(seed)
    m, n = rng.randint(200, 300), rng.randint(1000, 1300)
    rows = [f"R{i}" for i in range(m)]

    def num() -> str:
        v = rng.uniform(-9.0, 9.0)
        kind = rng.random()
        if kind < 0.1:
            return f"{v:.9e}".replace("e", rng.choice("Dd"))
        return str(rng.randint(-5, 5)) if kind < 0.2 else repr(v)

    def data(*toks: str) -> str:
        sep = rng.choice([" ", " ", " ", "  ", "\t", " \t "])
        return rng.choice([" ", "  ", "\t"]) + sep.join(toks) + rng.choice(["", "", " "])

    def noise(out: list, markers: bool = False):
        """now and then a comment or blank line, or in COLUMNS a MARKER line"""
        r = rng.random()
        if r < 0.02:
            out.append(rng.choice(["* comment", "   * indented comment", "*", ""]))
        elif r < 0.03 and markers:
            out.append(data(f"M{len(out)}", "'MARKER'", rng.choice(["'INTORG'", "'INTEND'"])))

    out = [f"* seed {seed}", f"NAME BIG{seed}", "ROWS", data("N", "COST")]
    for r in rows:
        out.append(data(rng.choice("LGElge"), r))
        noise(out)
    out.append("COLUMNS")
    cols = [f"X{j}" for j in range(n)]
    for j, col in enumerate(cols):
        # COST twice for some columns, a repeated (row, column) entry for others
        pairs = [("COST", num())] * rng.choice([0, 1, 1, 2])
        pairs += [(rng.choice(rows), num()) for _ in range(rng.randint(2, 7))]
        if rng.random() < 0.2:
            pairs.append((pairs[-1][0], num()))
        rng.shuffle(pairs)
        lines = []
        while pairs:
            k = 2 if len(pairs) > 1 and rng.random() < 0.5 else 1
            lines.append((col, *(t for pair in pairs[:k] for t in pair)))
            pairs = pairs[k:]
        if j > 10 and rng.random() < 0.05:  # an entry of an earlier column
            lines.append((rng.choice(cols[:j]), rng.choice(rows), num()))
        for line in lines:
            out.append(data(*line))
            noise(out, markers=True)
    out.append("RHS")
    for _ in range(m + 3):
        pairs = [t for _ in range(rng.choice([1, 2])) for t in (rng.choice(rows + ["COST"]), num())]
        out.append(data(*(["RHS"] if rng.random() < 0.5 else []), *pairs))
        noise(out)
    out.append("RANGES")
    for _ in range(m // 3):
        pairs = [t for _ in range(rng.choice([1, 2])) for t in (rng.choice(rows), num())]
        out.append(data(*(["RNG"] if rng.random() < 0.5 else []), *pairs))
        noise(out)
    out.append("BOUNDS")
    ordered = [(a, b) for a in _BOUND_TYPES for b in _BOUND_TYPES]
    for j, col in enumerate(cols):
        types = ordered[j] if j < len(ordered) else rng.sample(_BOUND_TYPES, rng.randint(0, 3))
        for btype in types:
            value = []
            if btype in ("UP", "UI") and (j < len(ordered) or rng.random() < 0.7):
                value = [f"-{rng.randint(1, 4)}"]  # frees the lower bound if none is set
            elif btype in ("LO", "LI", "UP", "UI", "FX"):
                value = [num()]
            vector = ["BND"] if rng.random() < 0.7 else []
            out.append(data(rng.choice([btype, btype.lower()]), *vector, col, *value))
            noise(out)
    out.append("ENDATA")
    return rng.choice(["\n", "\n", "\r\n"]).join(out) + "\n"


_LARGE_SEEDS = [0, 1, 2]


def _sections(lines: list) -> dict:
    """Section name -> the data lines' tokens, comments and blanks left out."""
    out, section = {}, None
    for line in lines:
        toks = line.split()
        if line[:1] not in (" ", "\t") and toks and toks[0][0] != "*":
            section = out.setdefault(toks[0].upper(), [])
        elif toks and toks[0][0] != "*" and section is not None:
            section.append(toks)
    return out


@pytest.mark.parametrize("seed", _LARGE_SEEDS)
def test_large_files_bitwise(seed):
    text = _large_mps(seed)
    assert 5_000 <= len(text.splitlines()) <= 20_000
    assert isinstance(_outcome(reference_parse_mps, text), GeneralLp)
    assert not assert_same(text)


def test_large_files_cover_every_block_feature():
    lines = _large_mps(_LARGE_SEEDS[0]).splitlines()
    blocks = _sections(lines)
    columns = blocks["COLUMNS"]
    assert {len(t) for t in columns if t[1] != "'MARKER'"} == {3, 5}
    assert any(t[1] == "'MARKER'" for t in columns)
    first, last = lines.index("COLUMNS"), lines.index("ENDATA")
    assert "" in lines[first:last] and any(ln.lstrip()[:1] == "*" for ln in lines[first:last])
    assert any(tok[0] != "*" and "D" in tok.upper() for t in columns for tok in t[2::2])
    # repeated (row, column) entries and objective entries
    pairs = [(t[0], t[k]) for t in columns for k in range(1, len(t), 2)]
    assert len(set(pairs)) < len(pairs)
    assert {len(t) % 2 for t in blocks["RHS"]} == {0, 1}
    assert len({t[-2] for t in blocks["RHS"]}) < len(blocks["RHS"])
    g = parse_mps("\n".join(lines))
    ranged = [name[:-len(".range")] for name in g.row_names if name.endswith(".range")]
    senses = {t[1]: t[0].upper() for t in blocks["ROWS"]}
    assert {senses[r] for r in ranged} == {"L", "G", "E"}
    assert any(float(t[-1]) < 0 for t in blocks["RANGES"])
    # a negative UP after each of LO, MI, FX and UP on one column
    bounds = [(t[0].upper(), t[-1 - (t[0].upper() in ("LO", "LI", "UP", "UI", "FX"))])
              for t in blocks["BOUNDS"]]
    for before in ("LO", "MI", "FX", "UP"):
        assert any(a == (before, c) and b == ("UP", c) for a, b in zip(bounds, bounds[1:])
                   for c in [a[1]])


def _break_line(line: str, rng: random.Random) -> str:
    """A COLUMNS, RHS, RANGES or BOUNDS data line made an error for sure."""
    toks = line.split()
    kind = rng.randrange(3)
    if kind == 0:  # a bad number, or an unknown column on an unvalued bound
        toks[-1] = "oops" if toks[-1][0] in "-0123456789" else "NOPE"
    elif kind == 1:  # malformed, or tokens shifted onto a bad number or column
        del toks[-1]
    elif toks[0].upper() in _BOUND_TYPES:
        toks[0] = "XX"
    else:  # an unknown row, or a bad number
        toks[1] = "NOPE"
    return " " + " ".join(toks)


@pytest.mark.parametrize("seed", range(8))
def test_large_files_report_the_first_of_two_bad_lines(seed):
    rng = random.Random(seed)
    lines = _large_mps(_LARGE_SEEDS[seed % len(_LARGE_SEEDS)]).splitlines()
    data = [k for k in range(lines.index("COLUMNS") + 1, len(lines))
            if lines[k][:1] in (" ", "\t") and lines[k].lstrip()[:1] != "*"
            and "'MARKER'" not in lines[k]]
    # two lines deep inside the blocks, broken in either order
    first, second = sorted(rng.sample(data[len(data) // 10:], 2))
    for k in (second, first) if seed % 2 else (first, second):
        lines[k] = _break_line(lines[k], rng)
    text = "\n".join(lines) + "\n"
    assert not assert_same(text)
    with pytest.raises(MpsParseError) as err:
        parse_mps(text)
    assert err.value.line_no == first + 1


@pytest.mark.parametrize("seed", range(4))
def test_large_fuzzed_files_match(seed):
    rng = random.Random(100 + seed)
    text = _large_mps(_LARGE_SEEDS[seed % len(_LARGE_SEEDS)])
    for _ in range(3):
        assert_same(_mutate(text, rng))


# ---------------------------------------------------------------------------
# Whitespace and line breaks of every kind
# ---------------------------------------------------------------------------

# what str.split() splits at besides a space, a tab and a line break
_OTHER_WHITE = ["\x1f", "\xa0", "\u1680", "\u2003", "\u202f", "\u3000"]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _respace(text: str, rng: random.Random) -> str:
    """Text's lines with tokens joined by whitespace of every kind, header
    lines now and then led by whitespace that is no indent, and line breaks of
    every kind; column names gain characters that are no whitespace (ASCII
    controls, latin-1 and past it)."""
    text = re.sub(r"\bX(?=\d)", "X\x07\xe9\u540d\x80", text)
    out = []
    for line in text.splitlines():
        toks = line.split()
        sep = "".join(rng.choice([" ", "\t", *_OTHER_WHITE]) for _ in range(rng.randint(1, 2)))
        if line[:1] in (" ", "\t"):
            lead = rng.choice([" ", "\t", " \u3000", "\t\xa0"])
        else:
            lead = rng.choice(["", "", *_OTHER_WHITE])
        out.append(lead + sep.join(toks) + rng.choice(["", "\xa0", "\x1f"]))
    return "".join(line + rng.choice(_BREAKS) for line in out)


def test_large_file_with_every_whitespace_bitwise():
    rng = random.Random(200)
    text = _respace(_large_mps(_LARGE_SEEDS[0]), rng)
    assert "\u540d" in text and "\x07" in text
    assert isinstance(_outcome(reference_parse_mps, text), GeneralLp)
    assert not assert_same(text)


def test_fuzzed_files_with_every_whitespace_match():
    rng = random.Random(300)
    for _ in range(300):
        text = _respace(rng.choice(_BASES), rng)
        assert_same(_mutate(text, rng) if rng.random() < 0.7 else text)


@pytest.mark.parametrize("brk", [b for b in _BREAKS if b.isascii() and b != "\n"])
def test_ascii_files_with_each_line_break_match(brk):
    rng = random.Random(400)
    for base in _BASES:
        text = "".join(line + rng.choice(["\n", brk]) for line in base.splitlines())
        assert_same(text)
        assert_same(_mutate(text, rng))
