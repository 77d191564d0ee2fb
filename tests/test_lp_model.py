"""MPS parser/writer and sparse matrix behavior."""

import dataclasses
import hashlib
import inspect
import re
import struct

import numpy as np
import pytest
from scipy import sparse

from conftest import col_tuples, general_lp, load_gen_corpus, row_tuples
from qipm_bounds import lp_model
from qipm_bounds.corpus import corpus_files
from qipm_bounds.lp_model import (INF, GeneralLP, MpsParseError, SparseMatrix,
                                  emit_mps, parse_mps)

MINIMAL = """NAME          MINI
ROWS
 N  obj
 L  c1
COLUMNS
    x         obj           1   c1            1
RHS
    RHS       c1            4
ENDATA
"""


class TestSparseMatrix:
    def test_duplicates_are_summed(self):
        m = SparseMatrix.from_entries(2, 2, [0, 0], [0, 0], [1.0, 2.5])
        assert m.to_dense()[0, 0] == 3.5
        assert m.nnz == 1

    def test_explicit_zeros_dropped(self):
        m = SparseMatrix.from_entries(2, 2, [0, 1, 0, 0], [0, 1, 1, 1],
                                      [0.0, 1.0, 2.0, -2.0])
        assert m.nnz == 1

    def test_duplicates_are_summed_in_input_order(self):
        # (1e16 + 1) - 1e16 rounds to 0, while (-1e16 + 1e16) + 1 is 1
        for vals, data in [([1e16, 1.0, -1e16], []),
                           ([-1e16, 1e16, 1.0], [1.0])]:
            csr = SparseMatrix.from_entries(2, 2, [1, 1, 1], [0, 0, 0],
                                            vals).tocsr()
            assert csr.indptr.tolist() == [0, 0, len(data)]
            assert csr.indices.tolist() == [0] * len(data)
            assert csr.data.tolist() == data

    def test_out_of_bounds_rejected(self):
        with pytest.raises(IndexError):
            SparseMatrix.from_entries(2, 2, [2], [0], [1.0])

    def test_first_bad_entry_is_named(self):
        for rows, cols, bad in [([0, 2, 0], [0, 0, 5], "(2, 0)"),
                                ([1, -1], [1, 0], "(-1, 0)"),
                                ([0], [2], "(0, 2)")]:
            with pytest.raises(IndexError) as exc:
                SparseMatrix.from_entries(2, 2, rows, cols,
                                          np.ones(len(rows)))
            assert str(exc.value) == f"entry {bad} outside 2x2"

    def test_entries_match_a_loop_reference(self):
        rng = np.random.default_rng(5)
        rows, cols = rng.integers(0, 6, 200), rng.integers(0, 9, 200)
        vals = rng.integers(-4, 5, 200).astype(float)
        dense = np.zeros((6, 9))
        for i, j, v in zip(rows, cols, vals):
            dense[i, j] += v  # small integers: every order sums exactly
        m = SparseMatrix.from_entries(6, 9, rows, cols, vals)
        assert np.array_equal(m.to_dense(), dense)
        assert SparseMatrix.from_entries(
            6, 9, rows.tolist(), cols.tolist(), vals.tolist()) == m
        assert m.nnz == np.count_nonzero(dense)
        empty = SparseMatrix.from_entries(2, 3, [], [], [])
        assert (empty.shape, empty.nnz) == ((2, 3), 0)

    def test_equality_and_hash_follow_content(self):
        a = SparseMatrix.from_entries(2, 3, [0, 1], [1, 2], [2.0, 3.0])
        same = SparseMatrix.from_dense([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        assert a == same and hash(a) == hash(same)
        # the digest is SHA-256 of the shape, indptr and indices as <i8 and
        # data as <f8, the recipe of the spectral seed
        csr = a.tocsr()
        assert a.digest() == hashlib.sha256(
            struct.pack("<2q", *csr.shape)
            + csr.indptr.astype("<i8").tobytes()
            + csr.indices.astype("<i8").tobytes()
            + csr.data.astype("<f8").tobytes()).digest()
        assert a.digest() is a.digest()
        # the index dtype of the CSR arrays it was built from does not count
        built = [SparseMatrix(sparse.csr_matrix(
            (np.array([2.0, 3.0]), np.array([1, 2], dtype=dtype),
             np.array([0, 1, 2], dtype=dtype)), shape=(2, 3)))
            for dtype in (np.int32, np.int64)]
        for b in built:
            assert (b.digest(), b, hash(b)) == (a.digest(), a, hash(a))
        for other in ([[0.0, 2.0, 0.0], [0.0, 0.0, 4.0]],  # one value
                      [[0.0, 2.0, 0.0], [0.0, 3.0, 0.0]],  # pattern
                      [[0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]]):  # shape
            b = SparseMatrix.from_dense(other)
            assert a != b and a.digest() != b.digest()
            assert hash(b) == hash(b.digest())
        assert a != a.to_dense().tolist()

    def test_row_col_iteration(self):
        m = SparseMatrix.from_entries(2, 3, [0, 1], [1, 2], [2.0, 3.0])
        assert list(m.row_nnz()) == [1, 1]
        assert list(m.col_nnz()) == [0, 1, 1]


class TestParse:
    def test_minimal_file(self):
        lp = parse_mps(MINIMAL)
        assert lp.name == "MINI"
        assert lp.sense.tolist() == ["<="]
        assert lp.rhs.tolist() == [4.0]
        assert col_tuples(lp) == [("x", 0.0, INF)]
        assert lp.objective.tolist() == [1.0]
        assert lp.coefficients.to_dense().tolist() == [[1.0]]

    def test_ranges_make_row_two_sided(self):
        text = MINIMAL.replace("ENDATA", "RANGES\n    rng       c1            2\nENDATA")
        lp = parse_mps(text)
        # MPS convention for an L row with range r: [rhs - |r|, rhs]
        assert [a.tolist() for a in lp.intervals()] == [[2.0], [4.0]]

    @pytest.mark.parametrize("sense,rhs,rng,expected", [
        ("L", 4.0, 2.0, (2.0, 4.0)),
        ("L", 4.0, -2.0, (2.0, 4.0)),
        ("G", 4.0, 3.0, (4.0, 7.0)),
        ("E", 4.0, 2.0, (4.0, 6.0)),
        ("E", 4.0, -2.0, (2.0, 4.0)),
    ])
    def test_ranges_convention_table(self, sense, rhs, rng, expected):
        text = f"""NAME RNGTEST
ROWS
 N  obj
 {sense}  c1
COLUMNS
    x  obj  1  c1  1
RHS
    RHS  c1  {rhs}
RANGES
    RNG  c1  {rng}
ENDATA
"""
        lp = parse_mps(text)
        assert tuple(a.item() for a in lp.intervals()) == expected

    def test_duplicate_ranges_entry_warns(self):
        # like a duplicate RHS entry: the last value is kept, with a warning
        lp = parse_mps(MINIMAL.replace(
            "ENDATA", "RANGES\n    RNG  c1  2\n    RNG  c1  3\nENDATA"))
        assert lp.ranges.tolist() == [3.0]
        assert lp.warnings == ["duplicate RANGES for row 'c1'; last value kept"]

    def test_missing_endata_names_section(self):
        with pytest.raises(MpsParseError, match="ENDATA.*RHS"):
            parse_mps(MINIMAL.replace("ENDATA\n", ""))

    def test_section_out_of_order(self):
        bad = """NAME X
ROWS
 N  obj
RHS
COLUMNS
ENDATA
"""
        with pytest.raises(MpsParseError,
                           match="out of order|RHS before COLUMNS"):
            parse_mps(bad)

    def test_duplicate_row_rejected(self):
        bad = MINIMAL.replace(" L  c1", " L  c1\n L  c1")
        with pytest.raises(MpsParseError, match="duplicate row"):
            parse_mps(bad)

    def test_undeclared_row_rejected(self):
        bad = MINIMAL.replace("c1            1", "zz            1")
        with pytest.raises(MpsParseError, match="undeclared row"):
            parse_mps(bad)

    def test_bound_codes(self):
        text = """NAME BND
ROWS
 N  obj
 G  r
COLUMNS
    a  obj  1  r  1
    b  obj  1  r  1
    c  obj  1  r  1
    d  obj  1  r  1
    e  obj  1  r  1
    f  obj  1  r  1
    g  obj  1  r  1
    h  obj  1  r  1
    i  obj  1  r  1
    j  obj  1  r  1
    k  obj  1  r  1
RHS
    RHS  r  1
BOUNDS
 UP BND  a  5
 LO BND  b  -1
 FX BND  c  2
 FR BND  d
 MI BND  e
 BV BND  f
 UP BND  g  5
 PL BND  g
 UI BND  h  7
 LI BND  i  2
 UP j  4
 FR k
ENDATA
"""
        lp = parse_mps(text)
        bounds = {name: (lo, up) for name, lo, up in col_tuples(lp)}
        assert bounds["a"] == (0.0, 5.0)
        assert bounds["b"] == (-1.0, INF)
        assert bounds["c"] == (2.0, 2.0)
        assert bounds["d"] == (-INF, INF)
        assert bounds["e"] == (-INF, INF)
        assert bounds["f"] == (0.0, 1.0)
        assert bounds["g"] == (0.0, INF)  # PL drops the upper bound
        assert bounds["h"] == (0.0, 7.0)
        assert bounds["i"] == (2.0, INF)
        assert bounds["j"] == (0.0, 4.0)  # value bound, set name omitted
        assert bounds["k"] == (-INF, INF)  # flag bound, set name omitted
        assert any("integrality" in w for w in lp.warnings)

    def test_infinite_bounds_and_rhs_stay_legal(self):
        lp = parse_mps(MINIMAL.replace(
            "ENDATA", "BOUNDS\n LO BND  x  -inf\n UP BND  x  Infinity\nENDATA"))
        assert col_tuples(lp) == [("x", -INF, INF)]
        lp = parse_mps(MINIMAL.replace("c1            4", "c1         -1e999"))
        assert lp.rhs.tolist() == [-INF]

    def test_negative_upper_frees_lower(self):
        warning = ("negative UP bound on 'x' with default lower bound: "
                   "lower bound set to -inf (dialect convention)")
        text = MINIMAL.replace(
            "ENDATA", "BOUNDS\n UP BND  x  -3\nENDATA")
        lp = parse_mps(text)
        assert col_tuples(lp) == [("x", -INF, -3.0)]
        assert lp.warnings == [warning]
        # a lower bound given by a line stays, before or after the UP line
        for lines in ([" LO BND  x  0", " UP BND  x  -1"],
                      [" UP BND  x  -1", " LO BND  x  0"]):
            lp = parse_mps(MINIMAL.replace(
                "ENDATA", "\n".join(["BOUNDS", *lines, "ENDATA"])))
            assert col_tuples(lp) == [("x", 0.0, -1.0)]
            assert lp.warnings == []
        # the rule applies once, to the final upper bound
        lp = parse_mps(MINIMAL.replace(
            "ENDATA", "BOUNDS\n UP BND  x  -1\n UP BND  x  -2\nENDATA"))
        assert col_tuples(lp) == [("x", -INF, -2.0)]
        assert lp.warnings == [warning]

    def test_objsense_max(self):
        text = MINIMAL.replace("ROWS", "OBJSENSE\n    MAX\nROWS")
        assert parse_mps(text).objective_sense == "max"

    def test_objective_constant_from_rhs(self):
        text = MINIMAL.replace("ENDATA",
                               "    RHS       obj          -7\nENDATA")
        lp = parse_mps(text)
        assert lp.objective_constant == 7.0

    def test_integrality_markers_warn_and_drop(self):
        text = """NAME MARK
ROWS
 N  obj
 L  c1
COLUMNS
    MARKER                 'MARKER'                 'INTORG'
    x  obj  1  c1  1
    MARKER                 'MARKER'                 'INTEND'
RHS
    RHS  c1  4
ENDATA
"""
        lp = parse_mps(text)
        assert lp.n_cols == 1
        assert any("integrality" in w for w in lp.warnings)

    def test_integrality_warning_after_a_warning_naming_integrality(self):
        # an earlier warning that quotes a row named "integrality" does not
        # stand in for the integrality warning
        text = """NAME INT
ROWS
 N  obj
 L  integrality
COLUMNS
    x  obj  1  integrality  1
RHS
    RHS  integrality  4
    RHS  integrality  5
BOUNDS
 BV BND  x
ENDATA
"""
        assert parse_mps(text).warnings == [
            "duplicate RHS for row 'integrality'; last value kept",
            "integrality markers present; integer restrictions dropped "
            "(LP relaxation kept)"]

    @pytest.mark.parametrize("start,end", [
        ("M1  'MARKER'  'INTORG'", "M2  'MARKER'  'INTEND'"),
        ("M1  MARKER  INTORG", "M2  MARKER  INTEND"),
        ("m1  'marker'  'intorg'", "m2  'marker'  'intend'"),
        ("'MARKER'  'INTORG'", "'MARKER'  'INTEND'")])
    def test_marker_spellings_toggle_integrality(self, start, end):
        # a column whose name merely contains MARKER stays a column
        text = f"""NAME MARK
ROWS
 N  obj
 L  c1
COLUMNS
    {start}
    x  obj  1  c1  1
    {end}
    MARKERX  c1  2
RHS
    RHS  c1  4
ENDATA
"""
        lp = parse_mps(text)
        assert lp.col_names == ["x", "MARKERX"]
        assert lp.coefficients.to_dense().tolist() == [[1.0, 2.0]]
        assert sum("integrality" in w for w in lp.warnings) == 1

    def test_number_spellings(self):
        for token, value in [("1.5D2", 150.0), ("-3d-1", -0.3),
                             ("2E3", 2000.0), ("+.5", 0.5), ("7", 7.0)]:
            lp = parse_mps(MINIMAL.replace("c1            4",
                                           f"c1            {token}"))
            assert lp.rhs.tolist() == [value]
        for token in ("1.2.3", "1.5Q2", "D2"):
            with pytest.raises(MpsParseError, match=r"line 8: cannot parse "
                               "number") as exc:
                parse_mps(MINIMAL.replace("c1            4",
                                          f"c1            {token}"))
            assert exc.value.line_no == 8

    def test_fixed_format_names_with_spaces(self):
        # exact classic field positions: 2-3 / 5-12 / 15-22 / 25-36 / 40-47 /
        # 50-61 (1-based)
        col_line = ("    " + "COL A".ljust(10) + "THE OBJ".ljust(10)
                    + "1.0".ljust(15) + "ROW ONE".ljust(10) + "2.0")
        rhs_line = "    " + "RHS".ljust(10) + "ROW ONE".ljust(10) + "4.0"
        text = "\n".join([
            "NAME          FIXED",
            "ROWS",
            " N  THE OBJ",
            " L  ROW ONE",
            "COLUMNS",
            col_line,
            "RHS",
            rhs_line,
            "ENDATA",
        ]) + "\n"
        lp = parse_mps(text)
        assert lp.row_names == ["ROW ONE"]
        assert lp.col_names == ["COL A"]
        assert lp.coefficients.to_dense()[0, 0] == 2.0

    def test_entries_on_ignored_free_rows_are_dropped(self):
        # the extra N row AUX is ignored; its COLUMNS, RHS and RANGES
        # entries go with it, set name given or omitted, and the one
        # warning per free row says so
        text = """NAME FREE
ROWS
 N  COST
 N  AUX
 L  R1
COLUMNS
    X  COST  1  AUX  5
    X  R1  1
RHS
    RHS  AUX  3
    RHS  R1  4
RANGES
    RNG  AUX  2
BOUNDS
 UP BND  X  9
ENDATA
"""
        expected = ["extra free row 'AUX' ignored (first N row 'COST' is the "
                    "objective)"]
        for body in (text, text.replace("    RHS  AUX  3", "    AUX  3")):
            lp = parse_mps(body)
            assert row_tuples(lp) == [("R1", "<=", 4.0, None)]
            assert lp.coefficients.to_dense().tolist() == [[1.0]]
            assert lp.objective.tolist() == [1.0]
            assert lp.objective_constant == 0.0
            assert lp.warnings == expected

    def test_windows_line_endings(self):
        lp = parse_mps(MINIMAL.replace("\n", "\r\n"))
        assert lp.rhs.tolist() == [4.0]

    def test_parser_determinism(self, tiny_min_text):
        a, b = parse_mps(tiny_min_text), parse_mps(tiny_min_text)
        assert _lp_signature(a) == _lp_signature(b)


_HEAD = "NAME T\nROWS\n N  obj\n L  c1\n"
_COLS = "COLUMNS\n    x  obj  1  c1  1\n"
_FIXED_HEAD = "NAME          FIXED\nROWS\n N  THE OBJ\n L  ROW ONE\nCOLUMNS\n"
_FIXED_COL = "    " + "COL A".ljust(10) + "ROW ONE".ljust(10) + "2.0\n"


# every MpsParseError raise site, with its exact message and line number
_ERROR_CASES = [
    ("NAME T\nROWZ\nENDATA\n", 2, "unknown section 'ROWZ'"),
    (_HEAD + _COLS + "ROWS\nENDATA\n", 7,
     "section ROWS out of order after COLUMNS"),
    ("NAME T\nCOLUMNS\nENDATA\n", 2, "section COLUMNS before ROWS"),
    ("COLUMNS\nENDATA\n", 1, "section COLUMNS before ROWS"),
    (_HEAD + "RHS\nENDATA\n", 5, "section RHS before COLUMNS"),
    ("NAME T\nROWS\n N  obj\n L\nENDATA\n", 4,
     "ROWS entry needs sense and name"),
    (_HEAD + " G  c1\nENDATA\n", 5, "duplicate row 'c1'"),
    (_HEAD + " L  obj\nENDATA\n", 5, "duplicate row 'obj'"),
    (_HEAD + " Q  c2\nENDATA\n", 5, "unknown row sense 'Q'"),
    (_HEAD + _COLS + "    y  c1  1\n    x  c1  2\nENDATA\n", 8,
     "duplicate column 'x'"),
    (_HEAD + "COLUMNS\n    x  obj  1  c1\nENDATA\n", 6,
     "COLUMNS entry has unpaired row/value"),
    (_HEAD + "COLUMNS\n    x  obj  1  c1  1x\nENDATA\n", 6,
     "cannot parse number '1x'"),
    (_HEAD + "COLUMNS\n    x  obj  1  zz  1\nENDATA\n", 6,
     "coefficient references undeclared row 'zz'"),
    (_HEAD + _COLS + "RHS\n    RHS  c1  four\nENDATA\n", 8,
     "cannot parse number 'four'"),
    (_HEAD + _COLS + "RHS\n    RHS  zz  4\nENDATA\n", 8,
     "RHS references undeclared row 'zz'"),
    (_HEAD + _COLS + "RANGES\n    RNG  zz  4\nENDATA\n", 8,
     "RANGES references undeclared row 'zz'"),
    (_HEAD + _COLS + "RANGES\n    RNG  obj  4\nENDATA\n", 8,
     "RANGES entry on objective row"),
    (_HEAD + _COLS + "RHS\n    RHS  c1  4  obj\nENDATA\n", 8,
     "entry has unpaired row/value fields"),
    (_HEAD + _COLS + "RANGES\n    zz  4\nENDATA\n", 8,
     "entry has unpaired row/value fields"),
    (_HEAD + _COLS + "BOUNDS\n UP BND  x  1  2\nENDATA\n", 8,
     "malformed UP bound"),
    (_HEAD + _COLS + "BOUNDS\n LO  zz  1\nENDATA\n", 8,
     "malformed LO bound"),
    (_HEAD + _COLS + "BOUNDS\n UP BND  x  big\nENDATA\n", 8,
     "cannot parse number 'big'"),
    (_HEAD + _COLS + "BOUNDS\n FR BND  zz\nENDATA\n", 8,
     "FR bound references unknown column"),
    (_HEAD + _COLS + "BOUNDS\n XX BND  x  1\nENDATA\n", 8,
     "unknown bound code 'XX'"),
    (_HEAD + _COLS + "BOUNDS\n UP BND  zz  1\nENDATA\n", 8,
     "bound references undeclared column 'zz'"),
    ("    x  1\nENDATA\n", 1, "data before any section header"),
    ("NAME T\n    x  1\nENDATA\n", 2, "data before any section header"),
    ("NAME T\nOBJSENSE MAX\n    MIN\nENDATA\n", 3,
     "data before any section header"),
    (_HEAD + _COLS, None, "missing ENDATA; file ends inside section COLUMNS"),
    ("", None, "missing ENDATA; file ends inside section HEADER"),
    ("NAME T\nROWS\n L  c1\nCOLUMNS\n    x  c1  1\nENDATA\n", None,
     "no objective (N) row declared"),
    ("NAME T\nOBJSENSE\n    SIDEWAYS\nROWS\n N  obj\nENDATA\n", None,
     "unsupported OBJSENSE 'sid'"),
    # fixed format: names with blanks
    (_FIXED_HEAD.replace("COLUMNS\n", " G  ROW ONE\nCOLUMNS\n")
     + "ENDATA\n", 5, "duplicate row 'ROW ONE'"),
    (_FIXED_HEAD + "    " + "COL A".ljust(10) + "THE OBJ".ljust(10)
     + "1.0".ljust(15) + "ROW TWO".ljust(10) + "2.0\nENDATA\n", 6,
     "coefficient references undeclared row 'ROW TWO'"),
    (_FIXED_HEAD + _FIXED_COL.replace("2.0", "2,0") + "ENDATA\n", 6,
     "cannot parse number '2,0'"),
    (_FIXED_HEAD + _FIXED_COL + "RHS\n    " + "RHS".ljust(10)
     + "ROW 1".ljust(10) + "4.0\nENDATA\n", 8,
     "RHS references undeclared row 'ROW 1'"),
    (_FIXED_HEAD + _FIXED_COL + "BOUNDS\n UP " + "BND".ljust(10)
     + "COL B".ljust(10) + "4.0\nENDATA\n", 8,
     "bound references undeclared column 'COL B'"),
    # NaN anywhere, and +-inf but for a row's RHS or a bound
    (_HEAD + "COLUMNS\n    x  obj  1  c1  inf\nRHS\n    RHS  c1  1\nBOUNDS\n"
     " FX BND  x  0\nENDATA\n", 6, "COLUMNS value 'inf' is infinite"),
    (_HEAD + "COLUMNS\n    x  obj  -Infinity\nENDATA\n", 6,
     "COLUMNS value '-Infinity' is infinite"),
    (_HEAD + _COLS + "RHS\n    RHS  c1  inf\n    RHS  c1  nan\nENDATA\n", 9,
     "RHS value 'nan' is not a number"),
    (_HEAD + _COLS + "RHS\n    RHS  obj  -inf\nENDATA\n", 8,
     "RHS value '-inf' is infinite"),
    (_HEAD + _COLS + "RANGES\n    RNG  c1  nan\nENDATA\n", 8,
     "RANGES value 'nan' is not a number"),
    (_HEAD + _COLS + "RANGES\n    RNG  c1  1D400\nENDATA\n", 8,
     "RANGES value '1D400' is infinite"),
    (_HEAD + _COLS + "BOUNDS\n UP BND  x  inf\n LO BND  x  NaN\nENDATA\n", 9,
     "BOUNDS value 'NaN' is not a number"),
    (_FIXED_HEAD + _FIXED_COL.replace("2.0", "nan") + "ENDATA\n", 6,
     "COLUMNS value 'nan' is not a number"),
    (_HEAD + "COLUMNS\n    x  obj  1e308  obj  1e308\nENDATA\n", None,
     "objective coefficient overflows to infinity"),
    # errors come in file order: a bad number before a structural error
    (_HEAD + "COLUMNS\n    x  obj  1  c1  nan\n    y  zz  1\nENDATA\n", 6,
     "COLUMNS value 'nan' is not a number"),
    # finite duplicate coefficients whose sum overflows
    (_HEAD + "COLUMNS\n    x  c1  1e308\n    x  c1  1e308\nENDATA\n", None,
     "coefficient of column 'x' in row 'c1' overflows to infinity"),
]


@pytest.mark.parametrize(
    "text,line_no,message", _ERROR_CASES,
    ids=[f"{k}-{re.sub(r'[^A-Za-z]+', '_', msg)[:40]}"
         for k, (_, _, msg) in enumerate(_ERROR_CASES)])
def test_parse_error_contract(text, line_no, message):
    with pytest.raises(MpsParseError) as exc:
        parse_mps(text)
    assert exc.value.line_no == line_no
    prefix = "" if line_no is None else f"line {line_no}: "
    assert str(exc.value) == prefix + message


_TWO_BY_TWO = """NAME TWO
ROWS
 N  obj
 L  c1
 L  c2
COLUMNS
    x  obj  1  c1  1
    y  obj  1  c2  1
ENDATA
"""


@pytest.mark.parametrize("change,message", [
    (lambda lp: {"row_names": lp.row_names[:1]}, "shape does not match"),
    (lambda lp: {"rhs": lp.rhs[:1]}, "row field length"),
    (lambda lp: {"upper": lp.upper[:1]}, "column bound length"),
    (lambda lp: {"objective": lp.objective[:1]}, "objective length"),
    (lambda lp: {"row_names": ["c1", "c1"]}, "duplicate row names"),
    (lambda lp: {"col_names": ["x", "x"]}, "duplicate column names"),
], ids=["shape", "row-field", "column-bound", "objective", "rows",
        "columns"])
def test_validate_rejects_inconsistent_lp(change, message):
    lp = parse_mps(_TWO_BY_TWO)
    lp.validate()
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(lp, **change(lp)).validate()


# 0-based start and width of the six classic fixed-MPS fields, columns
# 2-3 / 5-12 / 15-22 / 25-36 / 40-47 / 50-61 (1-based)
_FIXED_FIELD_SPANS = ((1, 2), (4, 8), (14, 8), (24, 12), (39, 8), (49, 12))


def _fixed_layout(text):
    """Free-format MPS text with each data line's tokens moved to the
    fixed-column fields: ROWS and BOUNDS lines from the first field (sense
    or bound code), all others from the second (a name). Header lines stay
    as they are."""
    out = []
    for line in text.splitlines():
        if not line.startswith((" ", "\t")):
            section = line.split()[0] if line.strip() else None
            out.append(line)
            continue
        toks = line.split()
        spans = _FIXED_FIELD_SPANS[0 if section in ("ROWS", "BOUNDS") else 1:]
        assert len(toks) <= len(spans), line
        cells = [" "] * 61
        for (start, width), tok in zip(spans, toks):
            assert len(tok) <= width, tok
            cells[start:start + len(tok)] = tok
        out.append("".join(cells).rstrip())
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_fixed_layout_of_corpus_parses_alike(path, monkeypatch):
    # the corpus is free format, so only this reaches the fixed reader on
    # whole files; names without blanks would pick the free reader
    free = parse_mps(path.read_text())
    monkeypatch.setattr(lp_model, "_detect_fixed_format", lambda lines: True)
    fixed = parse_mps(_fixed_layout(path.read_text()))
    for f in dataclasses.fields(GeneralLP):
        a, b = getattr(fixed, f.name), getattr(free, f.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        elif isinstance(a, SparseMatrix):
            assert a.digest() == b.digest()
        else:
            assert a == b, f.name


def _lp_signature(lp):
    coo = lp.coefficients.tocsr().tocoo()
    return (
        lp.name, lp.objective_sense, lp.objective_constant,
        tuple(row_tuples(lp)),
        tuple(col_tuples(lp)),
        tuple(sorted((lp.row_names[i], lp.col_names[j], v)
                     for i, j, v in zip(coo.row, coo.col, coo.data))),
        tuple((lp.col_names[j], v) for j, v in enumerate(lp.objective)
              if v != 0.0),
    )


class TestEmit:
    def test_round_trip_minimal(self):
        lp = parse_mps(MINIMAL)
        assert _lp_signature(parse_mps(emit_mps(lp))) == _lp_signature(lp)

    def test_objective_only_lp(self):
        text = """NAME OBJONLY
ROWS
 N  obj
COLUMNS
    x  obj  3
ENDATA
"""
        lp = parse_mps(text)
        assert lp.n_rows == 0
        again = parse_mps(emit_mps(lp))
        assert _lp_signature(again) == _lp_signature(lp)

    @pytest.mark.parametrize("old,new,line", [
        ("ENDATA", "BOUNDS\n MI BND  x\n UP BND  x  3\nENDATA",
         " MI BND       x"),
        ("RHS\n", "    y  obj  0\nRHS\n",
         "    y           obj                    0"),
    ], ids=["mi-bound", "column-without-entries"])
    def test_round_trip_emits_line(self, old, new, line):
        lp = parse_mps(MINIMAL.replace(old, new))
        out = emit_mps(lp)
        assert line in out.splitlines()
        assert _lp_signature(parse_mps(out)) == _lp_signature(lp)

    def test_free_variable_gets_fr_entry(self):
        text = MINIMAL.replace("ENDATA", "BOUNDS\n FR BND  x\nENDATA")
        out = emit_mps(parse_mps(text))
        assert " FR " in out

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
    def test_round_trip_corpus(self, path):
        lp = parse_mps(path.read_text())
        again = parse_mps(emit_mps(lp))
        assert _lp_signature(again) == _lp_signature(lp)

    def test_corpus_matches_its_generator(self):
        # every bundled file is the output of the generator function named
        # after it
        gen = load_gen_corpus()
        generators = {name for name, fn in inspect.getmembers(
            gen, inspect.isfunction) if fn.__module__ == "gen_corpus"
            and not name.startswith("_") and name != "main"}
        files = corpus_files()
        assert generators == {f.stem for f in files}
        for f in files:
            assert f.read_bytes() == getattr(gen, f.stem)().encode(), f.name

    def test_names_with_blanks_rejected(self):
        lp = parse_mps(MINIMAL)
        lp.row_names[0] = "ROW ONE"
        with pytest.raises(ValueError, match="embedded blanks"):
            emit_mps(lp)

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_random_lps(self, seed):
        lp = _random_general_lp_for_io(seed)
        again = parse_mps(emit_mps(lp))
        assert _lp_signature(again) == _lp_signature(lp)

    def test_round_trip_awkward_floats(self):
        lp = parse_mps(MINIMAL)
        lp.rhs[0] = 0.1 + 0.2  # not exactly representable in decimal
        lp.upper[0] = 1e-13
        again = parse_mps(emit_mps(lp))
        assert again.rhs.tolist() == [0.1 + 0.2]
        assert again.upper.tolist() == [1e-13]


def _random_general_lp_for_io(seed):
    """Random LP exercising the writer: mixed senses, ranges, bound types,
    max objectives, objective constants, awkward float values."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    n = int(rng.integers(1, 7))
    rows = []
    for i in range(m):
        sense = ["<=", ">=", "="][int(rng.integers(3))]
        rng_val = float(rng.normal()) if rng.random() < 0.3 else None
        rows.append((f"r{i}", sense, float(rng.normal()), rng_val))
    cols = []
    for j in range(n):
        kind = rng.integers(5)
        if kind == 0:
            cols.append((f"x{j}", 0.0, INF))
        elif kind == 1:
            cols.append((f"x{j}", 0.0, float(rng.uniform(0.1, 9))))
        elif kind == 2:
            cols.append((f"x{j}", -INF, INF))
        elif kind == 3:
            v = float(rng.normal())
            cols.append((f"x{j}", v, v))
        else:
            cols.append((f"x{j}", float(-rng.uniform(0.1, 5)), INF))
    entries = [(i, j, float(rng.normal())) for i in range(m)
               for j in range(n) if rng.random() < 0.6]
    sense = "max" if rng.random() < 0.4 else "min"
    objective = rng.normal(size=n)
    constant = float(rng.normal()) if rng.random() < 0.5 else 0.0
    return general_lp(rows, cols, entries, objective, name=f"RAND{seed}",
                      sense=sense, objective_name="OBJ", constant=constant)
