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

Solution files use a line-oriented key/value grammar documented in the
README; parse(write(s)) == s holds exactly because reals are rendered with
17 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lp_core import EQ, GE, LE, GeneralLp, ViolationSummary
from .status import FILE_STATUSES, SolveStatus, file_status

_SECTIONS = ["NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"]
# the sections each section's header requires before it, checked in order
_NEEDS = {"COLUMNS": ("ROWS",), "RHS": ("ROWS", "COLUMNS"),
          "RANGES": ("ROWS", "COLUMNS"), "BOUNDS": ("ROWS", "COLUMNS")}
_SENSE_OF = {"L": LE, "G": GE, "E": EQ}
# bound type -> (new lower, new upper); None keeps the bound and _NUM stands
# for the number on the line
_NUM = object()
_BOUNDS = {
    "LO": (_NUM, None), "LI": (_NUM, None),
    "UP": (None, _NUM), "UI": (None, _NUM),
    "FX": (_NUM, _NUM), "FR": (-np.inf, np.inf),
    "MI": (-np.inf, None), "PL": (None, np.inf), "BV": (0.0, 1.0),
}


class MpsParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _to_float(tok: str, line_no: int) -> float:
    try:
        return float(tok)
    except ValueError:
        try:
            # old Fortran-style exponents: 1.5D+2
            return float(tok.upper().replace("D", "E"))
        except ValueError:
            raise MpsParseError(f"cannot parse number {tok!r}", line_no) from None


def parse_mps(text: str) -> GeneralLp:
    """Parse MPS text, in the grammar of the module docstring, into a
    GeneralLp (always a minimization)."""
    obj_name = None
    maximize = None  # set by the OBJSENSE header's token or its one data line
    row_index: dict[str, int] = {}
    senses: list[str] = []
    col_index: dict[str, int] = {}
    costs: list[float] = []
    entry_rows, entry_cols, entry_vals = [], [], []  # constraint entries in file order
    obj_rhs = 0.0
    rhs = None  # with the arrays below, allocated at the first header past COLUMNS
    seen: list[str] = []
    line_no = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0][0] == "*":
            continue

        if raw[0] not in " \t":
            head = toks[0].upper()
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
            if head == "OBJSENSE" and len(toks) > 1:
                maximize = toks[1].upper().startswith("MAX")
            elif head == "COLUMNS":
                # the objective row shadows a constraint row of the same name
                row_of = {**row_index, obj_name: -1}
            if rhs is None and at > _SECTIONS.index("COLUMNS"):
                m, n = len(row_index), len(col_index)
                rhs, ranges, ranged = np.zeros(m), np.zeros(m), np.zeros(m, dtype=bool)
                lower, upper = np.zeros(n), np.full(n, np.inf)
                lower_set = np.zeros(n, dtype=bool)
            if head == "ENDATA":
                break
            continue

        if not seen:
            raise MpsParseError("data before any section header", line_no)
        section = seen[-1]

        if section == "COLUMNS":
            if len(toks) >= 3 and toks[1] == "'MARKER'":
                continue  # integrality markers: treated as continuous
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise MpsParseError("COLUMNS line needs (row, value) pairs", line_no)
            j = col_index.setdefault(toks[0], len(costs))
            if j == len(costs):
                costs.append(0.0)
            for k in range(1, len(toks), 2):
                val = _to_float(toks[k + 1], line_no)
                i = row_of.get(toks[k])
                if i is None:
                    raise MpsParseError(f"unknown row {toks[k]!r}", line_no)
                if i < 0:
                    costs[j] += val
                    continue
                entry_rows.append(i)
                entry_cols.append(j)
                entry_vals.append(val)

        elif section in ("RHS", "RANGES"):
            if len(toks) == 1:
                raise MpsParseError(f"{section} line needs (row, value) pairs", line_no)
            # an odd token count starts with the RHS/RANGES vector's name
            for k in range(len(toks) % 2, len(toks), 2):
                val = _to_float(toks[k + 1], line_no)
                i = row_of.get(toks[k])
                if i is None:
                    raise MpsParseError(f"unknown row {toks[k]!r}", line_no)
                if section == "RHS":
                    if i < 0:
                        obj_rhs += val
                    else:
                        rhs[i] = val
                elif i < 0:
                    raise MpsParseError("RANGES entry on objective row", line_no)
                else:
                    ranges[i], ranged[i] = val, True

        elif section == "BOUNDS":
            btype = toks[0].upper()
            new = _BOUNDS.get(btype, ())
            valued = _NUM in new
            # [type] [bound vector name] column [number]
            if not 2 <= len(toks) - valued <= 3:
                raise MpsParseError("malformed BOUNDS line", line_no)
            cname = toks[-1 - valued]
            j = col_index.get(cname)
            if j is None:
                raise MpsParseError(f"unknown column {cname!r}", line_no)
            val = _to_float(toks[-1], line_no) if valued else None
            if not new:
                raise MpsParseError(f"unknown bound type {btype!r}", line_no)
            lo, up = (val if b is _NUM else b for b in new)
            # classic convention: a negative upper bound on a variable whose
            # lower bound was never set frees the lower bound
            if btype in ("UP", "UI") and val < 0.0 and not lower_set[j]:
                lo = -np.inf
            if lo is not None:
                lower[j], lower_set[j] = lo, True
            if up is not None:
                upper[j] = up

        elif section == "ROWS":
            if len(toks) != 2:
                raise MpsParseError("ROWS line needs a type and a name", line_no)
            rtype, rname = toks[0].upper(), toks[1]
            if rtype == "N":
                if obj_name is not None:
                    raise MpsParseError("multiple N rows", line_no)
                obj_name = rname
            elif rtype in _SENSE_OF:
                if rname in row_index:
                    raise MpsParseError(f"duplicate row {rname}", line_no)
                row_index[rname] = len(row_index)
                senses.append(_SENSE_OF[rtype])
            else:
                raise MpsParseError(f"unknown row type {rtype!r}", line_no)

        elif section == "OBJSENSE":
            if maximize is not None:
                raise MpsParseError("unexpected data in OBJSENSE", line_no)
            maximize = toks[0].upper().startswith("MAX")

        else:
            raise MpsParseError("unexpected data after NAME", line_no)
    else:
        raise MpsParseError("missing ENDATA", line_no)

    if "ROWS" not in seen:
        raise MpsParseError("missing ROWS section", line_no)
    if obj_name is None:
        raise MpsParseError("no N (objective) row declared", line_no)

    A = sp.csr_matrix((entry_vals, (entry_rows, entry_cols)), shape=(m, n))
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
    c, offset = np.asarray(costs), -obj_rhs
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
        if self.status not in FILE_STATUSES:
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


def write_solution(s: SolutionFile) -> str:
    """Render a SolutionFile in the documented key/value grammar."""
    out = ["hybridlp-solution 1"]
    out.append(f"status {s.status}")
    out.append(f"method {s.method}")
    out.append(f"message {s.message or '-'}")
    out.append(f"wall_seconds {_fmt(s.wall_seconds)}")
    out.append(f"pdhg_iterations {int(s.pdhg_iterations)}")
    out.append(f"ipm_iterations {int(s.ipm_iterations)}")
    out.append(f"escalations {int(s.escalations)}")
    v = s.violation
    if v is not None:
        out.append(f"violation_primal_inf {_fmt(v.primal_inf)}")
        out.append(f"violation_dual_inf {_fmt(v.dual_inf)}")
        out.append(f"violation_rel_gap {_fmt(v.rel_gap)}")
        out.append(f"violation_max {_fmt(v.max_violation)}")
    out.append(f"primal {len(s.var_names)}")
    for name, val in zip(s.var_names, s.x):
        out.append(f"{name} {_fmt(val)}")
    out.append(f"dual {len(s.row_names)}")
    for name, val in zip(s.row_names, s.y):
        out.append(f"{name} {_fmt(val)}")
    out.append(f"reduced_costs {len(s.var_names)}")
    for name, val in zip(s.var_names, s.z):
        out.append(f"{name} {_fmt(val)}")
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
    if line is None:
        raise ValueError("missing primal section")

    def read_block(tag: str, first_line: str):
        head = first_line.split()
        if len(head) != 2 or head[0] != tag:
            raise ValueError(f"expected {tag} section, got {first_line!r}")
        count = int(head[1])
        names, vals = [], []
        for _ in range(count):
            entry = next(it, None)
            if entry is None:
                raise ValueError(f"truncated {tag} section")
            name, _, val = entry.rpartition(" ")
            names.append(name)
            vals.append(float(val))
        return names, np.asarray(vals)

    var_names, x = read_block("primal", line)
    dual_line = next(it, None)
    if dual_line is None:
        raise ValueError("missing dual section")
    row_names, y = read_block("dual", dual_line)
    rc_line = next(it, None)
    if rc_line is None:
        raise ValueError("missing reduced_costs section")
    rc_names, z = read_block("reduced_costs", rc_line)
    if rc_names != var_names:
        raise ValueError("reduced_costs names do not match primal names")
    if next(it, None) != "end":
        raise ValueError("missing end marker")

    violation = None
    if "violation_max" in header:
        violation = ViolationSummary(
            primal_inf=float(header["violation_primal_inf"]),
            dual_inf=float(header["violation_dual_inf"]),
            rel_gap=float(header["violation_rel_gap"]),
            max_violation=float(header["violation_max"]),
            comp_negative=float(header["violation_rel_gap"]) < 0,
        )
    message = header.get("message", "-")
    return SolutionFile(
        status=header["status"],
        method=header.get("method", ""),
        wall_seconds=float(header.get("wall_seconds", 0.0)),
        pdhg_iterations=int(header.get("pdhg_iterations", 0)),
        ipm_iterations=int(header.get("ipm_iterations", 0)),
        escalations=int(header.get("escalations", 0)),
        var_names=var_names,
        row_names=row_names,
        x=x,
        y=y,
        z=z,
        violation=violation,
        message="" if message == "-" else message,
    )


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
        status=file_status(status),
        method=method,
        wall_seconds=wall_seconds,
        pdhg_iterations=pdhg_iterations,
        ipm_iterations=ipm_iterations,
        escalations=escalations,
        var_names=g.variable_names(),
        row_names=g.constraint_names(),
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=float),
        z=np.asarray(z, dtype=float),
        violation=violation,
        message=message,
    )
