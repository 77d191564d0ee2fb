"""LP data model and a round-trip safe MPS reader/writer.

Supports both fixed-column and whitespace-delimited MPS with the sections
NAME, OBJSENSE (extension), ROWS, COLUMNS, RHS, RANGES, BOUNDS, ENDATA.
Integrality markers are read and dropped with a recorded warning; the model
keeps LP relaxations only.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

INF = math.inf

# sense codes used throughout: "<=", ">=", "=" for constraints, "min"/"max"
# for the objective direction
_ROW_SENSES = {"L": "<=", "G": ">=", "E": "="}
_SENSE_CODES = {"<=": "L", ">=": "G", "=": "E"}
_INTEGRALITY_WARNING = ("integrality markers present; integer restrictions "
                        "dropped (LP relaxation kept)")


class MpsParseError(ValueError):
    """Malformed MPS input; message carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class SparseMatrix:
    """Immutable real sparse matrix.

    Construction canonicalizes the entry list: duplicate coordinates are
    summed, explicit zeros are dropped, and indices are bounds-checked.
    Backed by CSR storage; a CSC copy is built lazily for column access.
    `digest()` is the matrix's one identity: equality and hashing read it,
    so an equal matrix built elsewhere hits a cache keyed on it.
    """

    def __init__(self, csr: sparse.csr_matrix):
        csr = sparse.csr_matrix(csr)
        csr.sum_duplicates()
        csr.eliminate_zeros()  # keeps the order sum_duplicates sorted
        self._csr = csr
        self._csc: sparse.csc_matrix | None = None
        self._digest: bytes | None = None

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int, rows, cols,
                     values) -> "SparseMatrix":
        """Build from coordinates: integer rows and columns, float values.
        Duplicates are summed, in input order within a row whose entries
        come in column order (as the MPS reader's do), and zeros dropped;
        an index outside the shape is an IndexError naming the first."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        bad = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
        if bad.any():
            k = int(np.argmax(bad))
            raise IndexError(
                f"entry ({rows[k]}, {cols[k]}) outside {n_rows}x{n_cols}")
        return cls(sparse.csr_matrix(
            (np.asarray(values, dtype=float), (rows, cols)),
            shape=(n_rows, n_cols)))

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        return cls(sparse.csr_matrix(np.asarray(a, dtype=float)))

    @property
    def n_rows(self) -> int:
        return self._csr.shape[0]

    @property
    def n_cols(self) -> int:
        return self._csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def tocsr(self) -> sparse.csr_matrix:
        return self._csr

    def tocsc(self) -> sparse.csc_matrix:
        if self._csc is None:
            self._csc = self._csr.tocsc()
        return self._csc

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def row_nnz(self) -> np.ndarray:
        return np.diff(self._csr.indptr)

    def col_nnz(self) -> np.ndarray:
        return np.diff(self.tocsc().indptr)

    def columns(self, idx) -> "SparseMatrix":
        """Submatrix of the given columns, in the given order."""
        return SparseMatrix(self.tocsc()[:, np.asarray(idx, dtype=int)].tocsr())

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"

    def digest(self) -> bytes:
        """SHA-256 of the shape and the canonical CSR indptr, indices (both
        `<i8`) and data (`<f8`): equal matrices give equal digests in any
        process, whatever their index dtypes. Kept after the first call."""
        if self._digest is None:
            csr = self._csr
            h = hashlib.sha256(np.asarray(csr.shape, dtype="<i8").tobytes())
            for arr, dtype in ((csr.indptr, "<i8"), (csr.indices, "<i8"),
                               (csr.data, "<f8")):
                h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
            self._digest = h.digest()
        return self._digest

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self is other or self.digest() == other.digest()

    def __hash__(self) -> int:
        return hash(self.digest())


def interval_rows(lo: np.ndarray, hi: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(sense, rhs, ranges, row_lower) of rows whose activity intervals are
    exactly [lo, hi], the inverse of GeneralLP.intervals. A two-sided interval
    becomes a ranged '<=' row that keeps lo as its `row_lower`, because
    hi - (hi - lo) can differ from lo by the rounding of the subtraction;
    emit_mps writes it with its range hi - lo."""
    eq = lo == hi
    le = ~eq & (lo == -INF)
    ge = ~eq & ~le & (hi == INF)
    two = ~(eq | le | ge)
    ranges = np.full(len(lo), np.nan)
    ranges[two] = hi[two] - lo[two]
    return (np.where(eq, "=", np.where(ge, ">=", "<=")),
            np.where(eq | ge, lo, hi), ranges, np.where(two, lo, np.nan))


@dataclass
class GeneralLP:
    """An LP as read from MPS: named rows and columns, mixed senses, ranges,
    two-sided bounds and an objective with optional constant.

    Columnar: one name list and one array per field. Row i has sense
    `sense[i]` ('<=', '>=' or '='), right-hand side `rhs[i]`, MPS range
    `ranges[i]` (NaN: none) and `row_lower[i]` (NaN: none), the exact lower
    end of a two-sided row, which rhs - range need not reproduce; see
    intervals. Column j has bounds [lower[j], upper[j]].
    """
    name: str
    objective_sense: str  # "min" | "max"
    objective_name: str
    row_names: list[str]
    sense: np.ndarray
    rhs: np.ndarray
    ranges: np.ndarray
    row_lower: np.ndarray
    col_names: list[str]
    lower: np.ndarray
    upper: np.ndarray
    coefficients: SparseMatrix  # constraint rows x columns
    objective: np.ndarray
    objective_constant: float = 0.0
    warnings: list[str] = field(default_factory=list)
    transform_log: list[str] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def n_cols(self) -> int:
        return len(self.col_names)

    def intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Effective (lower, upper) activity interval of every row. A range
        r follows the MPS RANGES convention: a '<=' row gets
        [rhs - |r|, rhs], a '>=' row [rhs, rhs + |r|], and an '=' row
        [rhs, rhs + r] for r >= 0 or [rhs + r, rhs] for r < 0. A row_lower
        that is not NaN replaces the lower end."""
        sense, rhs, ranges = self.sense, self.rhs, self.ranges
        le, ge = sense == "<=", sense == ">="
        ranged = ~np.isnan(ranges)
        width = np.abs(ranges)
        with np.errstate(invalid="ignore"):
            lo = np.where(le, np.where(ranged, rhs - width, -INF), rhs)
            hi = np.where(ge, np.where(ranged, rhs + width, INF), rhs)
            eq = ranged & ~le & ~ge
            hi = np.where(eq & (ranges >= 0), rhs + ranges, hi)
            lo = np.where(eq & (ranges < 0), rhs + ranges, lo)
        return np.where(np.isnan(self.row_lower), lo, self.row_lower), hi

    def validate(self) -> None:
        m, n = self.n_rows, self.n_cols
        if self.coefficients.shape != (m, n):
            raise ValueError("coefficient matrix shape does not match rows/columns")
        if any(len(a) != m for a in (self.sense, self.rhs, self.ranges,
                                     self.row_lower)):
            raise ValueError("row field length does not match rows")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("column bound length does not match columns")
        if len(self.objective) != n:
            raise ValueError("objective length does not match columns")
        if len(set(self.row_names)) != m:
            raise ValueError("duplicate row names")
        if len(set(self.col_names)) != n:
            raise ValueError("duplicate column names")


@dataclass
class StandardLP:
    """min c'x  s.t.  Ax = b, x >= 0, with A of full row rank.

    The original optimum is objective_sign * (c'x*) + objective_constant;
    transform_log names every column that to_standard_form split, mirrored,
    shifted or bounded, and every slack it added for a ranged row.
    """
    A: SparseMatrix
    b: np.ndarray
    c: np.ndarray
    name: str = ""
    objective_sign: float = 1.0
    objective_constant: float = 0.0
    transform_log: list[str] = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.A.n_rows

    @property
    def n(self) -> int:
        return self.A.n_cols

    def original_objective(self, standard_value: float) -> float:
        """Map a min-form objective value back to the original LP's scale."""
        return self.objective_sign * standard_value + self.objective_constant


# ---------------------------------------------------------------------------
# MPS reading

_SECTIONS = ["NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES",
             "BOUNDS", "ENDATA"]
_SECTION_RANK = {s: i for i, s in enumerate(_SECTIONS)}

# fixed-format field positions (0-based, end-exclusive), per the classic
# 2-3 / 5-12 / 15-22 / 25-36 / 40-47 / 50-61 layout
_FIXED_FIELDS = [(1, 3), (4, 12), (14, 22), (24, 36), (39, 47), (49, 61)]


def _fixed_tokens(line: str) -> list[str]:
    toks = []
    for a, b in _FIXED_FIELDS:
        t = line[a:b].strip()
        if t:
            toks.append(t)
    return toks


def _detect_fixed_format(lines: list[str]) -> bool:
    """Heuristic dialect detection from the ROWS section.

    Free-format ROWS data lines split into exactly two tokens; anything else
    (names with embedded blanks) forces fixed-column slicing.
    """
    in_rows = False
    for raw in lines:
        toks = raw.split()
        if not toks or toks[0][0] == "*":
            continue
        if raw[0] not in " \t":
            head = toks[0].upper()
            in_rows = head == "ROWS"
            if _SECTION_RANK.get(head, -1) > _SECTION_RANK["ROWS"]:
                break
            continue
        if in_rows and len(toks) != 2:
            return True
    return False


def _num(tok: str, line_no: int) -> float:
    """A number float() rejects: it may still hold a Fortran D exponent."""
    try:
        return float(tok.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MpsParseError(f"cannot parse number {tok!r}", line_no) from None


def _scatter(size: int, fill: float, values: dict[int, float]) -> np.ndarray:
    """Array of `size` entries equal to `fill`, except at the keys of
    `values`."""
    out = np.full(size, fill)
    out[np.fromiter(values, dtype=np.intp, count=len(values))] = \
        np.fromiter(values.values(), dtype=float, count=len(values))
    return out


def parse_mps(text: str) -> GeneralLP:
    """Parse fixed- or free-format MPS text into a GeneralLP.

    Default variable bounds are [0, +inf); unspecified RHS entries are 0.
    RANGES turn a row into a two-sided constraint per the MPS convention.
    Bound codes UP, LO, FX, FR, MI, PL, BV are handled (BV gives bounds
    [0, 1]); integrality is dropped with a recorded warning. A column that
    a negative UP bound line left with a negative upper bound, and whose
    lower bound no line set, gets lower bound -inf, with a warning (a common
    dialect). Extra N rows are ignored with a warning, and so are their
    COLUMNS, RHS and RANGES entries. A duplicate RHS or RANGES entry keeps
    the last value, with a warning. A NaN is an MpsParseError anywhere, and
    so is an infinite coefficient, range or objective-row RHS; a row's RHS
    and a bound may be infinite. Errors come in file order.
    """
    lines = text.splitlines()
    fixed = _detect_fixed_format(lines)

    problem_name = ""
    objective_sense = "min"
    objective_name: str | None = None
    row_names: list[str] = []
    senses: list[str] = []
    row_index: dict[str, int] = {}
    free_rows: set[str] = set()
    col_names: list[str] = []
    col_index: dict[str, int] = {}
    last_col: str | None = None
    j = -1  # index of last_col
    # coefficient triples, one flat list per field
    coef_rows: list[int] = []
    coef_cols: list[int] = []
    coef_vals: list[float] = []
    obj_coeffs: dict[int, float] = {}
    rhs_of: dict[int, float] = {}
    range_of: dict[int, float] = {}
    bounds: tuple[np.ndarray, ...] | None = None
    objective_constant = 0.0
    warnings: list[str] = []

    section: str | None = None
    saw_endata = False
    pending_objsense = False
    row_of = row_index.get

    for line_no, line in enumerate(lines, 1):
        toks = line.split()
        if not toks or toks[0][0] == "*":
            continue

        if line[0] not in " \t":
            head = toks[0].upper()
            if head not in _SECTION_RANK:
                raise MpsParseError(f"unknown section {toks[0]!r}", line_no)
            if section is not None and \
                    _SECTION_RANK[head] <= _SECTION_RANK[section]:
                raise MpsParseError(
                    f"section {head} out of order after {section}", line_no)
            required_before = {"COLUMNS": "ROWS", "RHS": "COLUMNS"}
            if head in required_before and \
                    (section is None or _SECTION_RANK[section] <
                     _SECTION_RANK[required_before[head]]):
                raise MpsParseError(
                    f"section {head} before {required_before[head]}", line_no)
            section = head
            if head == "NAME":
                problem_name = line[4:].strip()
            elif head == "OBJSENSE":
                if len(toks) > 1:
                    objective_sense = toks[1].lower()[:3]
                else:
                    pending_objsense = True
            elif head == "BOUNDS":
                # lower, upper, and which columns a line gave a lower bound
                # or a negative UP bound
                n = len(col_names)
                bounds = (np.zeros(n), np.full(n, INF),
                          np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
            elif head == "ENDATA":
                saw_endata = True
                break
            continue

        if fixed:
            toks = _fixed_tokens(line)
            if not toks:
                continue

        if section == "COLUMNS":
            # only a line with a quote, or with MARKER second, can be a marker
            if "'" in line or len(toks) > 2 and toks[1].upper() == "MARKER":
                kind = None
                if len(toks) >= 3 and \
                        toks[1].upper() in ("'MARKER'", "MARKER"):
                    kind = toks[2].strip("'\"").upper()
                elif "'MARKER'" in (t.upper() for t in toks):
                    kind = toks[-1].strip("'\"").upper()
                if kind in ("INTORG", "INTEND"):
                    if kind == "INTORG":
                        _note_integrality(warnings)
                    continue
            cname = toks[0]
            if cname != last_col:
                if cname in col_index:
                    raise MpsParseError(f"duplicate column {cname!r}", line_no)
                j = col_index[cname] = len(col_names)
                col_names.append(cname)
                last_col = cname
            n_toks = len(toks)
            if not n_toks & 1:
                raise MpsParseError("COLUMNS entry has unpaired row/value",
                                    line_no)
            k = 1
            while k < n_toks:
                rname, tok = toks[k], toks[k + 1]
                k += 2
                try:
                    v = float(tok)
                except ValueError:
                    v = _num(tok, line_no)
                if not -INF < v < INF and rname not in free_rows:
                    raise _bad_number(section, tok, v, line_no)
                i = row_of(rname)
                if i is not None:
                    coef_rows.append(i)
                    coef_cols.append(j)
                    coef_vals.append(v)
                elif rname == objective_name:
                    obj_coeffs[j] = obj_coeffs.get(j, 0.0) + v
                elif rname not in free_rows:
                    raise MpsParseError(
                        f"coefficient references undeclared row {rname!r}",
                        line_no)

        elif section == "BOUNDS":
            _apply_bound(toks, col_index, bounds, warnings, line_no)

        elif section == "RHS" or section == "RANGES":
            pairs = _strip_set_name(toks, row_index, objective_name,
                                    free_rows, line_no)
            for k in range(0, len(pairs), 2):
                rname, tok = pairs[k], pairs[k + 1]
                try:
                    v = float(tok)
                except ValueError:
                    v = _num(tok, line_no)
                # only a row's RHS may be +-inf, an open end
                if not -INF < v < INF and rname not in free_rows and (
                        v != v or section == "RANGES"
                        or rname == objective_name):
                    raise _bad_number(section, tok, v, line_no)
                if rname == objective_name:
                    if section == "RHS":
                        # MPS convention: RHS on the objective row is the
                        # negated objective constant
                        objective_constant = -v
                        warnings.append(
                            "RHS entry on objective row interpreted as "
                            "negated objective constant")
                    else:
                        raise MpsParseError("RANGES entry on objective row",
                                            line_no)
                    continue
                i = row_of(rname)
                if i is None:
                    if rname in free_rows:
                        continue  # entries of ignored free rows are dropped
                    raise MpsParseError(
                        f"{section} references undeclared row {rname!r}",
                        line_no)
                values = rhs_of if section == "RHS" else range_of
                if i in values:
                    warnings.append(f"duplicate {section} for row {rname!r}; "
                                    "last value kept")
                values[i] = v
                if section == "RANGES" and senses[i] == "=" and v < 0:
                    warnings.append(
                        f"negative range on equality row {rname!r}: "
                        "interval [rhs+range, rhs] convention applied")

        elif section == "ROWS":
            if len(toks) != 2:
                raise MpsParseError("ROWS entry needs sense and name", line_no)
            sense_code, name = toks[0].upper(), toks[1]
            if name in row_index or name == objective_name or name in free_rows:
                raise MpsParseError(f"duplicate row {name!r}", line_no)
            if sense_code == "N":
                if objective_name is None:
                    objective_name = name
                else:
                    free_rows.add(name)
                    warnings.append(
                        f"extra free row {name!r} ignored (first N row "
                        f"{objective_name!r} is the objective)")
            elif sense_code in _ROW_SENSES:
                row_index[name] = len(row_names)
                row_names.append(name)
                senses.append(_ROW_SENSES[sense_code])
            else:
                raise MpsParseError(f"unknown row sense {sense_code!r}", line_no)

        elif section == "OBJSENSE" and pending_objsense:
            objective_sense = toks[0].lower()[:3]
            pending_objsense = False

        else:
            raise MpsParseError("data before any section header", line_no)

    if not saw_endata:
        raise MpsParseError(
            f"missing ENDATA; file ends inside section {section or 'HEADER'}")
    if objective_name is None:
        raise MpsParseError("no objective (N) row declared")
    if objective_sense not in ("min", "max"):
        raise MpsParseError(f"unsupported OBJSENSE {objective_sense!r}")

    m, n = len(row_names), len(col_names)
    if bounds is None:
        lower, upper = np.zeros(n), np.full(n, INF)
    else:
        lower, upper, lower_set, neg_up = bounds
        # the dialect rule, once per column, whatever the line order
        for k in np.flatnonzero(neg_up & (upper < 0) & ~lower_set).tolist():
            lower[k] = -INF
            warnings.append(
                f"negative UP bound on {col_names[k]!r} with default lower "
                "bound: lower bound set to -inf (dialect convention)")
    objective = _scatter(n, 0.0, obj_coeffs)
    if not np.isfinite(objective).all():
        # every entry is finite, so a column's entries summed past the range
        raise MpsParseError("objective coefficient overflows to infinity")
    coefficients = SparseMatrix.from_entries(m, n, coef_rows, coef_cols,
                                             coef_vals)
    a = coefficients.tocsr()
    k = np.flatnonzero(~np.isfinite(a.data))[:1]  # the first, if any
    if len(k):  # likewise a row and column's entries summed past the range
        i, j = np.searchsorted(a.indptr, k[0], "right") - 1, a.indices[k[0]]
        raise MpsParseError(f"coefficient of column {col_names[j]!r} in row "
                            f"{row_names[i]!r} overflows to infinity")
    lp = GeneralLP(
        name=problem_name, objective_sense=objective_sense,
        objective_name=objective_name, row_names=row_names,
        sense=np.array(senses, dtype="<U2"), rhs=_scatter(m, 0.0, rhs_of),
        ranges=_scatter(m, np.nan, range_of), row_lower=np.full(m, np.nan),
        col_names=col_names, lower=lower, upper=upper,
        coefficients=coefficients, objective=objective,
        objective_constant=objective_constant, warnings=warnings)
    lp.validate()
    return lp


def _bad_number(section: str, tok: str, v: float,
                line_no: int) -> MpsParseError:
    """The error for a NaN, or an infinity where no open end is allowed."""
    kind = "not a number" if math.isnan(v) else "infinite"
    return MpsParseError(f"{section} value {tok!r} is {kind}", line_no)


def _strip_set_name(toks: list[str], row_index: dict[str, int],
                    objective_name: str | None, free_rows: set[str],
                    line_no: int) -> list[str]:
    """Drop the leading RHS/RANGES set name, tolerating files that omit it."""
    if len(toks) % 2 == 1:
        return toks[1:]
    first = toks[0]
    if first in row_index or first == objective_name or first in free_rows:
        return toks  # nonstandard: set name omitted
    raise MpsParseError("entry has unpaired row/value fields", line_no)


def _note_integrality(warnings: list[str]) -> None:
    """Record the dropped integrality once per file."""
    if _INTEGRALITY_WARNING not in warnings:
        warnings.append(_INTEGRALITY_WARNING)


_VALUE_BOUNDS = {"UP", "LO", "FX", "UI", "LI"}
_FLAG_BOUNDS = {"FR", "MI", "PL", "BV"}


def _apply_bound(toks: list[str], col_index: dict[str, int],
                 bounds: tuple[np.ndarray, ...], warnings: list[str],
                 line_no: int) -> None:
    code = toks[0].upper()
    if code in _VALUE_BOUNDS:
        if len(toks) == 4:
            cname, tok = toks[2], toks[3]
        elif len(toks) == 3 and toks[1] in col_index:
            cname, tok = toks[1], toks[2]  # set name omitted
        else:
            raise MpsParseError(f"malformed {code} bound", line_no)
        try:
            val = float(tok)
        except ValueError:
            val = _num(tok, line_no)
    elif code in _FLAG_BOUNDS:
        if len(toks) >= 3 and toks[2] in col_index:
            cname = toks[2]
        elif len(toks) >= 2 and toks[1] in col_index:
            cname = toks[1]
        else:
            raise MpsParseError(f"{code} bound references unknown column",
                                line_no)
        val = None
    else:
        raise MpsParseError(f"unknown bound code {code!r}", line_no)

    k = col_index.get(cname)
    if k is None:
        raise MpsParseError(f"bound references undeclared column {cname!r}",
                            line_no)
    if val != val:
        raise _bad_number("BOUNDS", tok, val, line_no)
    lower, upper, lower_set, neg_up = bounds
    if code == "UP":
        upper[k] = val
        if val < 0:
            neg_up[k] = True
        return
    if code == "UI":
        upper[k] = val
    elif code == "PL":
        upper[k] = INF
    else:  # every other code gives the column a lower bound
        lower_set[k] = True
        if code == "LO" or code == "LI":
            lower[k] = val
        elif code == "FX":
            lower[k] = upper[k] = val
        elif code == "FR":
            lower[k], upper[k] = -INF, INF
        elif code == "MI":
            lower[k] = -INF
        else:  # BV
            lower[k], upper[k] = 0.0, 1.0
    if code in ("BV", "UI", "LI"):
        _note_integrality(warnings)


# ---------------------------------------------------------------------------
# MPS writing

def _fmt(v: float) -> str:
    """Shortest exact decimal form of a float (round-trips via float())."""
    if math.isfinite(v) and v == math.floor(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def emit_mps(lp: GeneralLP) -> str:
    """Serialize a GeneralLP to free-format MPS.

    The output re-parses to an LP with the same rows, columns, bounds and
    coefficient values; numbers are written in shortest exact decimal form.
    """
    lp.validate()
    names = [lp.objective_name, *lp.row_names, *lp.col_names]
    blank = [n for n in names if not n or any(ch.isspace() for ch in n)]
    if blank:
        # free format has no quoting; such names only arise from
        # fixed-format inputs
        raise ValueError(
            f"cannot serialize names with embedded blanks: {blank[:3]}")
    out: list[str] = [f"NAME          {lp.name}".rstrip()]
    if lp.objective_sense == "max":
        out.append("OBJSENSE")
        out.append("    MAX")
    out.append("ROWS")
    out.append(f" N  {lp.objective_name}")
    for name, sense in zip(lp.row_names, lp.sense.tolist()):
        out.append(f" {_SENSE_CODES[sense]}  {name}")

    out.append("COLUMNS")
    csc = lp.coefficients.tocsc()
    for j, cname in enumerate(lp.col_names):
        pairs: list[tuple[str, float]] = []
        if lp.objective[j] != 0.0:
            pairs.append((lp.objective_name, float(lp.objective[j])))
        seg = slice(csc.indptr[j], csc.indptr[j + 1])
        pairs += zip([lp.row_names[i] for i in csc.indices[seg].tolist()],
                     csc.data[seg].tolist())
        if not pairs:
            # a column with no entries must still be declared
            pairs.append((lp.objective_name, 0.0))
        for k in range(0, len(pairs), 2):
            chunk = pairs[k:k + 2]
            fieldstr = "".join(f"  {r:<10}{_fmt(v):>14}" for r, v in chunk)
            out.append(f"    {cname:<10}{fieldstr}")

    out.append("RHS")
    rhs_pairs = [(name, v) for name, v in zip(lp.row_names, lp.rhs.tolist())
                 if v != 0.0]
    if lp.objective_constant != 0.0:
        rhs_pairs.append((lp.objective_name, -lp.objective_constant))
    for rname, v in rhs_pairs:
        out.append(f"    RHS         {rname:<10}{_fmt(v):>14}")

    range_pairs = [(name, v) for name, v in zip(lp.row_names,
                                                 lp.ranges.tolist())
                   if not math.isnan(v)]
    if range_pairs:
        out.append("RANGES")
        for rname, v in range_pairs:
            out.append(f"    RNG         {rname:<10}{_fmt(v):>14}")

    bound_lines: list[str] = []
    for cname, lo, up in zip(lp.col_names, lp.lower.tolist(),
                             lp.upper.tolist()):
        if lo == 0.0 and up == INF:
            continue
        if lo == -INF and up == INF:
            bound_lines.append(f" FR BND       {cname}")
            continue
        if lo == up:
            bound_lines.append(f" FX BND       {cname:<10}{_fmt(lo):>14}")
            continue
        if lo == -INF:
            bound_lines.append(f" MI BND       {cname}")
        elif lo != 0.0:
            bound_lines.append(f" LO BND       {cname:<10}{_fmt(lo):>14}")
        if up != INF:
            bound_lines.append(f" UP BND       {cname:<10}{_fmt(up):>14}")
    if bound_lines:
        out.append("BOUNDS")
        out.extend(bound_lines)

    out.append("ENDATA")
    return "\n".join(out) + "\n"
