"""MPS reading and solution-file serialization.

The reader takes free-format MPS: whitespace-delimited tokens, so fixed
column layouts read the same way.  A line starting with neither a space nor
a tab is a section header; blank lines and lines whose first token starts
with ``*`` are skipped.  Section, row and bound types are case-insensitive.

- Sections come in the order NAME, OBJSENSE, ROWS, COLUMNS, RHS, RANGES,
  BOUNDS, ENDATA, each at most once.  ROWS and ENDATA are required; COLUMNS
  needs ROWS, and RHS, RANGES and BOUNDS need COLUMNS.  So a shuffled or
  truncated file errors instead of silently mis-parsing.
- OBJSENSE: MAX... or MIN... on its header line or on one data line.
- ROWS: ``type name``, type N (exactly one: the objective), L, G or E.
  No two rows share a name, the N row included.
- COLUMNS: ``column (row number)+``.  Repeated entries are summed, and
  ``'MARKER'`` lines are skipped: every variable is continuous.
- RHS, RANGES: ``[vector] (row number)+``.  RHS on the N row is the negated
  objective constant.  A row with rhs b and range r becomes an L row plus a
  G mirror row ``<row>.range``, appended after all rows, which bound it to
  [b - |r|, b] (L row), [b, b + |r|] (G row), or [b, b + r] if r >= 0 and
  [b + r, b] if not (E row).
- BOUNDS: ``type [vector] column [number]``; bounds default to [0, +inf).
  LO/LI set the lower bound, UP/UI the upper, FX both, FR gives (-inf, inf),
  MI lower -inf, PL upper +inf, BV [0, 1].  A negative UP/UI number also
  sets the lower bound to -inf unless an earlier line set it.
- Numbers are floats, Fortran exponents such as ``1.5D+2`` included.
- Nothing after ENDATA is read.  Errors are MpsParseError with a line
  number; whole-file errors (no ROWS section, no N row) name the ENDATA line.

Each section's data lines are read as one block, with no Python step per
line: one split into tokens, one float conversion of all its numbers, one
dict lookup per name, line token counts from one array pass over the text,
and the first bad line's error from masks.  That is about 40 ms per MB on
a 2-core x86 machine, with 3-token COLUMNS lines as with 3- and 5-token.

Solution files use a line-oriented key/value grammar documented in the
README; parse(write(s)) == s holds exactly because reals are rendered with
17 significant digits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, islice, repeat

import numpy as np
import scipy.sparse as sp

from .lp_core import EQ, GE, LE, GeneralLp, ViolationSummary
from .status import SolveStatus

_SECTIONS = ["NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"]
# the sections each section's header requires before it, checked in order
_NEEDS = {"COLUMNS": ("ROWS",), "RHS": ("ROWS", "COLUMNS"),
          "RANGES": ("ROWS", "COLUMNS"), "BOUNDS": ("ROWS", "COLUMNS")}
_ROW_CODE = {"N": 0, "L": 1, "G": 2, "E": 3}
_SENSES = np.array([LE, GE, EQ], dtype=object)
# bound type -> (new lower, new upper); None keeps the bound and nan stands
# for the number on the line (no type's own bound is nan)
_BOUNDS = {
    "LO": (np.nan, None), "LI": (np.nan, None),
    "UP": (None, np.nan), "UI": (None, np.nan),
    "FX": (np.nan, np.nan), "FR": (-np.inf, np.inf),
    "MI": (-np.inf, None), "PL": (None, np.inf), "BV": (0.0, 1.0),
}
# the table as arrays indexed by a type's code; the last code, for an
# unknown type, keeps both bounds
_CODE = {btype: k for k, btype in enumerate(_BOUNDS)}
_KEEP = np.array([[b is None for b in new] for new in _BOUNDS.values()] + [[True, True]])
_RULE = np.array([*_BOUNDS.values(), (None, None)], dtype=float)
_VALUED = (np.isnan(_RULE) & ~_KEEP).any(axis=1)


class MpsParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _numbers(toks: list) -> tuple[np.ndarray, np.ndarray]:
    """The tokens as floats, Fortran exponents such as 1.5D+2 included, and
    the mask of those that are no number."""
    try:
        return np.fromiter(map(float, toks), float, len(toks)), np.zeros(len(toks), bool)
    except ValueError:  # token by token: a number reads the same in upper case
        pass
    vals, bad = np.zeros(len(toks)), np.zeros(len(toks), bool)
    for k, tok in enumerate(toks):
        try:
            vals[k] = float(tok.upper().replace("D", "E"))
        except ValueError:
            bad[k] = True
    return vals, bad


def _take(toks: list, at: np.ndarray) -> list:
    """toks[at]: one slice when the indices are evenly spaced."""
    # as in blocks whose lines all hold as many tokens; the slice saves about
    # a tenth of parse_mps on such files
    if at.size > 1 and at[1] > at[0] and (np.diff(at) == at[1] - at[0]).all():
        return toks[at[0]:at[-1] + 1:at[1] - at[0]]
    return list(map(toks.__getitem__, at.tolist()))


def _lines(flat: str):
    """Flat's lines, one newline apart: where each starts (and one past the
    end), its token count, and each header line with its tokens."""
    # a byte per character, '?' for those past latin-1
    raw = np.frombuffer(flat.encode("latin-1", "replace"), np.uint8)
    # whether each character is one str.split() splits at (9-13, 28-32), after
    # a white one before the text; a token starts where white turns False
    white = np.append(True, (raw - 9 <= 4) | (raw - 28 <= 4))
    at = np.concatenate([[0], np.flatnonzero(raw == 10) + 1, [raw.size + 1]])
    sizes = np.diff(np.searchsorted(np.flatnonzero(white[:-1] > white[1:]), at))
    indented = np.isin(np.append(raw, np.uint8(32))[at[:-1]], (9, 32))
    heads = [(i, flat[at[i]:at[i + 1]].split()) for i in np.flatnonzero((sizes > 0) & ~indented).tolist()]
    return at, sizes, [(i, toks) for i, toks in heads if toks[0][0] != "*"]


def _block(flat: str, line_at: np.ndarray, sizes: np.ndarray, a: int, b: int, markers: bool):
    """Lines a to b - 1 (from 0) of _lines(flat) as one block: its tokens and
    each data line's token count, first token and line number.  Blank and
    comment lines go, and with markers the COLUMNS 'MARKER' lines too."""
    text, counts = flat[line_at[a]:line_at[b]], sizes[a:b]
    toks = text.split()
    nos = np.flatnonzero(counts) + a + 1
    counts = counts[counts > 0]
    starts = np.cumsum(counts) - counts
    if "*" in text or markers and "'MARKER'" in text:
        drop = np.fromiter(map(str.startswith, _take(toks, starts), repeat("*")), bool, len(starts))
        if markers:
            second = np.array(_take(toks, np.minimum(starts + 1, len(toks) - 1)), dtype=object)
            drop |= (counts >= 3) & (second == "'MARKER'")
        toks = list(compress(toks, np.repeat(~drop, counts)))
        counts, nos = counts[~drop], nos[~drop]
        starts = np.cumsum(counts) - counts
    return toks, counts, starts, nos


def _raise_first(nos: np.ndarray, *cases):
    """Raise the error of the earliest line; cases are (line indices, ascending;
    the message for a line), and on one line the earlier case wins."""
    hits = [(int(at[0]), message) for at, message in cases if len(at)]
    if hits:
        k, message = min(hits, key=lambda hit: hit[0])
        raise MpsParseError(message(k), int(nos[k]))


def _pairs(toks, counts, starts, nos, first, ok, row_of: dict, section: str):
    """Each (row, number) pair of a COLUMNS, RHS or RANGES block in file order:
    its row (-1: the objective), number and line.  first is each line's first
    row token; lines not ok are malformed.  Raises the earliest line's error;
    pair by pair, a number is read before its row is looked up."""
    npairs = np.where(ok, (counts - first) // 2, 0)
    line = np.repeat(np.arange(counts.size), npairs)
    before = np.cumsum(npairs) - npairs  # pairs on earlier lines
    at = np.repeat(starts + first - 2 * before, npairs) + 2 * np.arange(line.size)
    names, nums = _take(toks, at), _take(toks, at + 1)
    vals, bad = _numbers(nums)
    rows = np.fromiter(map(row_of.get, names, repeat(-2)), np.intp, len(names))
    err = bad | (rows == -2) | ((rows == -1) & (section == "RANGES"))

    def pair_error(_):
        p = int(np.argmax(err))
        if bad[p]:
            return f"cannot parse number {nums[p]!r}"
        return f"unknown row {names[p]!r}" if rows[p] == -2 else "RANGES entry on objective row"

    _raise_first(nos, (np.flatnonzero(~ok), lambda _: f"{section} line needs (row, value) pairs"),
                 (line[err], pair_error))
    return rows, vals, line


def _last_wins(target: np.ndarray, at: np.ndarray, vals: np.ndarray):
    """target[at] = vals, where a repeated index keeps its last value."""
    u, last = np.unique(at[::-1], return_index=True)
    target[u] = vals[::-1][last]


def parse_mps(text: str) -> GeneralLp:
    """Parse MPS text, in the grammar of the module docstring, into a
    GeneralLp (always a minimization)."""
    obj_name = None
    maximize = None  # set by the OBJSENSE header's token or its one data line
    row_index: dict[str, int] = {}
    senses: list[str] = []
    col_index: dict[str, int] = {}
    costs = np.zeros(0)
    # constraint entries in file order: rows, columns, values
    entries = np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0)
    obj_rhs = 0.0
    rhs = None  # with the arrays below, allocated at the first header past COLUMNS
    seen: list[str] = []

    # the lines str.splitlines() reads, one newline apart, with whitespace other
    # than a space or tab as \x1f (white to str.split(), no indent), as _lines
    # reads them; ASCII text with newline breaks only is that already and is
    # not copied (the copy costs about 3 ms per MB)
    flat = text
    if not text.isascii() or any(map(text.__contains__, "\r\x0b\x0c\x1c\x1d\x1e")):
        flat = re.sub(r"[^\S\n \t]", "\x1f", "\n".join(text.splitlines()))
    line_at, sizes, heads = _lines(flat)
    ends = [i for i, _ in heads] + [sizes.size]
    nos = _block(flat, line_at, sizes, 0, ends[0], False)[3]
    if nos.size:
        raise MpsParseError("data before any section header", int(nos[0]))

    for (i, head_toks), end in zip(heads, ends[1:]):
        line_no = i + 1
        head = head_toks[0].upper()
        if head not in _SECTIONS:
            raise MpsParseError(f"unknown section {head!r}", line_no)
        if head in seen:
            raise MpsParseError(f"duplicate section {head}", line_no)
        at = _SECTIONS.index(head)
        if seen and at < _SECTIONS.index(seen[-1]):
            raise MpsParseError(f"section {head} out of order", line_no)
        for required in _NEEDS.get(head, ()):
            if required not in seen:
                raise MpsParseError(f"section {head} before {required}", line_no)
        seen.append(head)
        if head == "OBJSENSE" and len(head_toks) > 1:
            maximize = head_toks[1].upper().startswith("MAX")
        elif head == "COLUMNS":
            row_of = {**row_index, obj_name: -1}
        if rhs is None and at > _SECTIONS.index("COLUMNS"):
            m, n = len(row_index), len(col_index)
            rhs, ranges, ranged = np.zeros(m), np.zeros(m), np.zeros(m, dtype=bool)
            lower, upper = np.zeros(n), np.full(n, np.inf)
        if head == "ENDATA":
            break

        toks, counts, starts, nos = _block(flat, line_at, sizes, i + 1, end, head == "COLUMNS")
        if not nos.size:
            continue

        if head == "COLUMNS":
            ok = (counts >= 3) & (counts % 2 == 1)
            rows, vals, line = _pairs(toks, counts, starts, nos, 1, ok, row_of, head)
            names = _take(toks, starts)
            col_index = dict(zip(dict.fromkeys(names), range(len(names))))
            cols = np.fromiter(map(col_index.__getitem__, names), np.intp, len(names))[line]
            obj = rows == -1
            costs = np.zeros(len(col_index))
            np.add.at(costs, cols[obj], vals[obj])  # one entry at a time, in file order
            entries = rows[~obj], cols[~obj], vals[~obj]

        elif head in ("RHS", "RANGES"):
            # an odd token count starts with the RHS/RANGES vector's name
            rows, vals, _ = _pairs(toks, counts, starts, nos, counts % 2, counts != 1, row_of, head)
            obj = rows == -1
            if head == "RHS":
                for val in vals[obj].tolist():  # summed in file order
                    obj_rhs += val
                _last_wins(rhs, rows[~obj], vals[~obj])
            else:
                _last_wins(ranges, rows, vals)
                ranged[rows] = True

        elif head == "BOUNDS":
            types = list(map(str.upper, _take(toks, starts)))
            code = np.fromiter(map(_CODE.get, types, repeat(len(_CODE))), np.intp, len(types))
            valued = _VALUED[code]
            # [type] [bound vector name] column [number]
            malformed = (counts - valued < 2) | (counts - valued > 3)
            last = starts + counts - 1
            names = _take(toks, np.maximum(last - valued, 0))
            cols = np.fromiter(map(col_index.get, names, repeat(-1)), np.intp, len(names))
            val, bad = np.full(len(types), np.nan), np.zeros(len(types), bool)
            val[valued], bad[valued] = _numbers(_take(toks, last[valued]))
            _raise_first(
                nos,
                (np.flatnonzero(malformed), lambda _: "malformed BOUNDS line"),
                (np.flatnonzero(cols < 0), lambda k: f"unknown column {names[k]!r}"),
                (np.flatnonzero(bad), lambda k: f"cannot parse number {toks[last[k]]!r}"),
                (np.flatnonzero(code == len(_CODE)), lambda k: f"unknown bound type {types[k]!r}"),
            )
            rule, sets = _RULE[code], ~_KEEP[code]
            new = np.where(np.isnan(rule), val[:, None], rule)
            # classic convention: a negative upper bound on a variable whose
            # lower bound no earlier line set frees the lower bound
            neg_up = np.isin(code, (_CODE["UP"], _CODE["UI"])) & (val < 0.0)
            setters = np.flatnonzero(sets[:, 0] | neg_up)
            _, first = np.unique(cols[setters], return_index=True)
            frees = np.zeros(len(types), bool)
            frees[setters[first]] = neg_up[setters[first]]
            new[frees, 0], sets[frees, 0] = -np.inf, True
            for side, bound in enumerate((lower, upper)):
                _last_wins(bound, cols[sets[:, side]], new[sets[:, side], side])

        elif head == "ROWS":
            k = int(np.argmax(np.append(counts, 0) != 2))  # the first malformed line
            types, names = list(map(str.upper, toks[:2 * k:2])), toks[1:2 * k:2]
            # 0 for N, then L, G, E as 1, 2, 3; -1 for an unknown type
            code = np.fromiter(map(_ROW_CODE.get, types, repeat(-1)), np.intp, k)
            is_n, con = np.flatnonzero(code == 0), np.flatnonzero(code > 0)
            # every row, the N row too, takes a name no earlier row has
            first = dict(zip(reversed(names), range(k - 1, -1, -1)))
            dup = np.fromiter(map(first.__getitem__, names), np.intp, k) != np.arange(k)
            _raise_first(
                nos,
                (is_n[1:], lambda _: "multiple N rows"),
                (np.flatnonzero(code < 0), lambda j: f"unknown row type {types[j]!r}"),
                (np.flatnonzero(dup), lambda j: f"duplicate row {names[j]}"),
                ([k] if k < counts.size else [], lambda _: "ROWS line needs a type and a name"),
            )
            obj_name = names[is_n[0]] if is_n.size else None
            cnames = list(compress(names, code > 0))
            row_index = dict(zip(cnames, range(len(cnames))))
            senses = _SENSES[code[con] - 1].tolist()

        elif head == "OBJSENSE":
            if maximize is None:
                maximize = toks[0].upper().startswith("MAX")
                nos = nos[1:]
            if nos.size:
                raise MpsParseError("unexpected data in OBJSENSE", int(nos[0]))

        else:
            raise MpsParseError("unexpected data after NAME", int(nos[0]))
    else:
        raise MpsParseError("missing ENDATA", len(text.splitlines()))

    if "ROWS" not in seen:
        raise MpsParseError("missing ROWS section", line_no)
    if obj_name is None:
        raise MpsParseError("no N (objective) row declared", line_no)

    A = sp.csr_matrix((entries[2], entries[:2]), shape=(m, n))
    row_names = list(row_index)

    # RANGES: a ranged row becomes a two-sided constraint, expressed as the
    # original row plus a mirror row with the complementary sense.
    rows = np.flatnonzero(ranged)
    if rows.size:
        sense = np.array(senses, dtype=object)
        s, b, r = sense[rows], rhs[rows], ranges[rows]
        # L, G, E with r >= 0, otherwise E with r < 0
        cases = [s == LE, s == GE, r >= 0]
        sense[rows] = LE
        rhs[rows] = np.select(cases, [b, b + abs(r), b + r], b)
        rhs = np.concatenate([rhs, np.select(cases, [b - abs(r), b, b], b + r)])
        senses = sense.tolist() + [GE] * rows.size
        A = sp.vstack([A, A[rows]], format="csr")
        row_names += [f"{row_names[i]}.range" for i in rows]

    # an RHS entry on the objective row is a negated constant term
    c, offset = costs, -obj_rhs
    if maximize:
        c, offset = -c, obj_rhs

    return GeneralLp(
        c=c, A=A, senses=senses, rhs=rhs,
        lower=lower, upper=upper, obj_offset=offset,
        col_names=list(col_index), row_names=row_names,
    )


# ---------------------------------------------------------------------------
# Solution files
# ---------------------------------------------------------------------------

@dataclass
class SolutionFile:
    """One solve's outcome: status, named solution arrays, and the violation."""

    status: str
    method: str
    wall_seconds: float
    pdhg_iterations: int
    ipm_iterations: int
    escalations: int
    var_names: list
    row_names: list
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    violation: ViolationSummary | None = None
    message: str = ""

    def __post_init__(self):
        if self.status not in {s.value for s in SolveStatus}:
            raise ValueError(f"unknown solution status {self.status!r}")
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.x.size != len(self.var_names) or self.z.size != len(self.var_names):
            raise ValueError("x/z length does not match variable names")
        if self.y.size != len(self.row_names):
            raise ValueError("y length does not match row names")


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


# The header lines in file order, each under its SolutionFile field's name:
# (name, value -> text, text -> value, the value a missing line reads as).
# status has no default: a file without it is refused by SolutionFile.
_HEADER = (
    ("status", str, str, None),
    ("method", str, str, ""),
    ("message", lambda m: m or "-", lambda t: "" if t == "-" else t, ""),
    ("wall_seconds", _fmt, float, 0.0),
    ("pdhg_iterations", int, int, 0),
    ("ipm_iterations", int, int, 0),
    ("escalations", int, int, 0),
)
# the violation lines, present together or not at all: key -> ViolationSummary field
_VIOLATION = {"violation_primal_inf": "primal_inf", "violation_dual_inf": "dual_inf",
              "violation_rel_gap": "rel_gap", "violation_max": "max_violation"}
# the blocks after the header: (tag, field of the names on its lines, field of the values)
_BLOCKS = (("primal", "var_names", "x"), ("dual", "row_names", "y"),
           ("reduced_costs", "var_names", "z"))


def write_solution(s: SolutionFile) -> str:
    """Render a SolutionFile in the documented key/value grammar."""
    out = ["hybridlp-solution 1"]
    out += [f"{key} {text(getattr(s, key))}" for key, text, _, _ in _HEADER]
    if s.violation is not None:
        v = s.violation
        out += [f"{key} {_fmt(getattr(v, name))}" for key, name in _VIOLATION.items()]
    for tag, names, values in _BLOCKS:
        names = getattr(s, names)
        out.append(f"{tag} {len(names)}")
        out += [f"{name} {_fmt(v)}" for name, v in zip(names, getattr(s, values))]
    out.append("end")
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> SolutionFile:
    """Inverse of write_solution; raises ValueError on malformed input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["hybridlp-solution", "1"]:
        raise ValueError("not a hybridlp solution file")
    it = iter(lines[1:])

    header: dict[str, str] = {}
    line = next(it, None)
    while line is not None and not line.startswith("primal "):
        key, _, val = line.partition(" ")
        header[key] = val
        line = next(it, None)

    fields = {key: read(header[key]) if key in header else default
              for key, _, read, default in _HEADER}
    for tag, names, values in _BLOCKS:
        head = (line or "").split()
        if len(head) != 2 or head[0] != tag:
            raise ValueError(f"expected {tag} section, got {line!r}")
        count = int(head[1])
        entries = list(islice(it, count))
        if len(entries) != count:
            raise ValueError(f"truncated {tag} section")
        pairs = [entry.rpartition(" ") for entry in entries]
        read_names = [name for name, _, _ in pairs]
        if fields.setdefault(names, read_names) != read_names:
            raise ValueError(f"{tag} names do not match the {names} of an earlier block")
        fields[values] = [float(val) for _, _, val in pairs]
        line = next(it, None)
    if line != "end":
        raise ValueError("missing end marker")

    violation = None
    found = [key for key in _VIOLATION if key in header]
    if found:
        if len(found) < len(_VIOLATION):
            raise ValueError(f"violation lines come all or none; found only {', '.join(found)}")
        v = {name: float(header[key]) for key, name in _VIOLATION.items()}
        violation = ViolationSummary(**v)
    return SolutionFile(**fields, violation=violation)


def make_solution_file(
    g: GeneralLp,
    status: SolveStatus,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    *,
    method: str,
    wall_seconds: float,
    pdhg_iterations: int = 0,
    ipm_iterations: int = 0,
    escalations: int = 0,
    violation: ViolationSummary | None = None,
    message: str = "",
) -> SolutionFile:
    """Assemble a SolutionFile for a general-model point."""
    return SolutionFile(
        status.value, method, wall_seconds, pdhg_iterations, ipm_iterations, escalations,
        g.variable_names(), g.constraint_names(), x, y, z, violation, message,
    )
