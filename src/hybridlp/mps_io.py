"""MPS reading and solution-file serialization.

The reader targets free-format MPS (whitespace-delimited tokens); fixed
column layouts parse through the same tokenizer.  Sections must appear in
the canonical order NAME / OBJSENSE / ROWS / COLUMNS / RHS / RANGES /
BOUNDS / ENDATA, each at most once, so a shuffled or truncated file errors
instead of silently mis-parsing.

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
_SENSE_OF = {"L": LE, "G": GE, "E": EQ}


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
                obj_name = rname
            elif rtype in _SENSE_OF:
                if rname in row_index:
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
