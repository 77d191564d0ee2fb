"""Reduction of a GeneralLP to equality standard form with full row rank.

The pipeline order is fixed: presolve -> to_standard_form -> ensure_full_row_rank.
Presolve removes empty rows/columns, substitutes fixed variables and merges
positively scaled duplicate rows; standardization introduces slack/surplus
columns, shifts or splits bounded/free variables; rank repair keeps a maximal
independent set of rows, picked by a column-pivoted QR (largest residual
relative to the row's norm first, ties toward the earlier row), and drops the
rest after checking right-hand-side consistency.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg

from .lp_model import INF, ColumnDef, GeneralLP, SparseMatrix, StandardLP

# residual, relative to the row's norm, below which a row is dependent on
# the rows already kept
RANK_TOL = 1e-10
# consistency tolerance for the rhs of a dependent row
RHS_CONSISTENCY_TOL = 1e-9


class InfeasibleProblem(Exception):
    """The LP was detected infeasible during preprocessing."""


class UnboundedProblem(Exception):
    """The LP was detected unbounded during preprocessing."""


def presolve(lp: GeneralLP) -> GeneralLP:
    """Remove vacuous structure from an LP, keeping it equivalent.

    Empty rows are dropped (or declared infeasible), empty columns are fixed
    at their best bound (or declared unbounded), variables with equal bounds
    are substituted out, and rows identical up to positive scaling are merged.
    The returned LP carries a transform log of every action taken.
    """
    lp.validate()
    sign = 1.0 if lp.objective_sense == "min" else -1.0
    log: list[str] = list(lp.transform_log)

    rows = [RowState(r.name, *r.interval()) for r in lp.rows]
    cols = [ColState(c.name, c.lower, c.upper, float(lp.objective[j]))
            for j, c in enumerate(lp.columns)]
    for c in cols:
        if c.lower > c.upper:
            raise InfeasibleProblem(
                f"variable {c.name} has empty bound interval "
                f"[{c.lower}, {c.upper}]")
    # mutable coefficient map: row -> {col: value}
    coef: list[dict[int, float]] = [dict() for _ in rows]
    col_rows: list[dict[int, float]] = [dict() for _ in cols]
    for i, j, v in lp.coefficients.entries():
        coef[i][j] = coef[i].get(j, 0.0) + v
        col_rows[j][i] = col_rows[j].get(i, 0.0) + v
    constant = lp.objective_constant

    live_rows = set(range(len(rows)))
    live_cols = set(range(len(cols)))

    changed = True
    while changed:
        changed = False

        for i in sorted(live_rows):
            entries = {j: v for j, v in coef[i].items()
                       if j in live_cols and v != 0.0}
            coef[i] = entries
            if entries:
                continue
            r = rows[i]
            if r.lo > 0.0 or r.hi < 0.0:
                raise InfeasibleProblem(
                    f"empty row {r.name} requires activity in "
                    f"[{r.lo}, {r.hi}]")
            live_rows.discard(i)
            log.append(f"drop empty row {r.name}")
            changed = True

        for j in sorted(live_cols):
            c = cols[j]
            if c.lower == c.upper:
                if not math.isfinite(c.lower):
                    raise InfeasibleProblem(
                        f"variable {c.name} is fixed at a non-finite value")
                _substitute_fixed(j, c.lower, rows, cols, coef, col_rows,
                                  live_rows, live_cols, log)
                constant += c.cost * c.lower
                changed = True
                continue
            active = {i: v for i, v in col_rows[j].items()
                      if i in live_rows and v != 0.0}
            col_rows[j] = active
            if active:
                continue
            # empty column: objective decides its optimal bound
            eff_cost = sign * c.cost
            if eff_cost > 0.0:
                best = c.lower
            elif eff_cost < 0.0:
                best = c.upper
            else:
                best = c.lower if c.lower > -INF else \
                    (c.upper if c.upper < INF else 0.0)
            if not math.isfinite(best):
                raise UnboundedProblem(
                    f"empty column {c.name} improves the objective without "
                    "bound")
            live_cols.discard(j)
            constant += c.cost * best
            log.append(f"fix empty column {c.name} at {best}")
            changed = True

        if _merge_duplicate_rows(rows, coef, live_rows, live_cols, log):
            changed = True

    # rebuild a GeneralLP in the reduced space
    row_ids = sorted(live_rows)
    col_ids = sorted(live_cols)
    col_pos = {j: k for k, j in enumerate(col_ids)}
    new_rows = [rows[i].to_rowdef() for i in row_ids]
    new_cols = [ColumnDef(cols[j].name, cols[j].lower, cols[j].upper)
                for j in col_ids]
    entries = []
    for k, i in enumerate(row_ids):
        for j, v in coef[i].items():
            if j in live_cols and v != 0.0:
                entries.append((k, col_pos[j], v))
    objective = np.array([cols[j].cost for j in col_ids], dtype=float)
    out = GeneralLP(
        name=lp.name, objective_sense=lp.objective_sense,
        objective_name=lp.objective_name, rows=new_rows, columns=new_cols,
        coefficients=SparseMatrix.from_entries(
            len(new_rows), len(new_cols), entries),
        objective=objective, objective_constant=constant,
        warnings=list(lp.warnings), transform_log=log)
    out.validate()
    return out


class RowState:
    """Presolve-internal row: interval form lo <= a'x <= hi."""

    __slots__ = ("name", "lo", "hi")

    def __init__(self, name: str, lo: float, hi: float):
        self.name, self.lo, self.hi = name, lo, hi

    def to_rowdef(self):
        from .lp_model import RowDef
        if self.lo == self.hi:
            return RowDef(self.name, "=", self.lo)
        if self.lo == -INF:
            return RowDef(self.name, "<=", self.hi)
        if self.hi == INF:
            return RowDef(self.name, ">=", self.lo)
        # two-sided interval expressed as a ranged <= row
        return RowDef(self.name, "<=", self.hi, range=self.hi - self.lo)


class ColState:
    __slots__ = ("name", "lower", "upper", "cost")

    def __init__(self, name, lower, upper, cost):
        self.name, self.lower, self.upper, self.cost = name, lower, upper, cost


def _substitute_fixed(j, value, rows, cols, coef, col_rows, live_rows,
                      live_cols, log):
    """Substitute x_j = value into every row containing it."""
    for i, v in col_rows[j].items():
        if i not in live_rows or j not in coef[i]:
            continue
        shift = v * value
        r = rows[i]
        if r.lo > -INF:
            r.lo -= shift
        if r.hi < INF:
            r.hi -= shift
        del coef[i][j]
    live_cols.discard(j)
    log.append(f"substitute fixed variable {cols[j].name} = {value}")


def _merge_duplicate_rows(rows, coef, live_rows, live_cols, log) -> bool:
    """Merge rows whose coefficient vectors agree up to positive scaling."""
    merged = False
    signature: dict[tuple, int] = {}
    for i in sorted(live_rows):
        items = sorted((j, v) for j, v in coef[i].items()
                       if j in live_cols and v != 0.0)
        if not items:
            continue
        first = items[0][1]
        key = (items[0][1] > 0,) + tuple(
            (j, v / first) for j, v in items)
        if key not in signature:
            signature[key] = i
            continue
        k = signature[key]
        items_k = sorted((j, v) for j, v in coef[k].items()
                         if j in live_cols and v != 0.0)
        alpha = first / items_k[0][1]  # row_i = alpha * row_k, alpha > 0
        ri, rk = rows[i], rows[k]
        lo = ri.lo / alpha if ri.lo > -INF else -INF
        hi = ri.hi / alpha if ri.hi < INF else INF
        new_lo = max(rk.lo, lo)
        new_hi = min(rk.hi, hi)
        if new_lo > new_hi + 1e-12 * max(1.0, abs(new_lo)):
            raise InfeasibleProblem(
                f"rows {rk.name} and {ri.name} are positively scaled "
                "duplicates with disjoint intervals")
        rk.lo, rk.hi = new_lo, new_hi
        live_rows.discard(i)
        log.append(f"merge duplicate row {ri.name} into {rk.name}")
        merged = True
    return merged


def to_standard_form(lp: GeneralLP) -> StandardLP:
    """Convert a (presolved) GeneralLP to min c'x, Ax = b, x >= 0.

    Inequality rows gain slack/surplus columns; a ranged row gets a slack
    with a finite upper bound which, like every two-sided variable bound,
    becomes an extra equality row with its own bound slack. Free variables
    split into positive/negative parts; max objectives are negated.
    """
    lp.validate()
    sign = 1.0 if lp.objective_sense == "min" else -1.0
    log = list(lp.transform_log)

    names: list[str] = []
    provenance: list[str] = []
    cost: list[float] = []
    entries: list[tuple[int, int, float]] = []  # grows as columns are added
    b: list[float] = []
    # pending (column, width) pairs: finite two-sided bounds become rows below
    upper_rows: list[tuple[int, float]] = []

    def add_col(name, prov, c):
        names.append(name)
        provenance.append(prov)
        cost.append(c)
        return len(names) - 1

    col_map: list[list[tuple[int, float]]] = []  # original col -> [(new, sgn)]
    shifts = np.zeros(lp.n_cols)
    for j, col in enumerate(lp.columns):
        lo, up = col.lower, col.upper
        cj = sign * float(lp.objective[j])
        if lo == -INF and up == INF:
            p = add_col(col.name + "+", "free_pos", cj)
            q = add_col(col.name + "-", "free_neg", -cj)
            col_map.append([(p, 1.0), (q, -1.0)])
            log.append(f"split free variable {col.name}")
        elif lo == -INF:
            # only an upper bound: mirror the variable, x' = up - x >= 0
            p = add_col(col.name + "~", "original", -cj)
            col_map.append([(p, -1.0)])
            shifts[j] = up
            log.append(f"mirror upper-bounded variable {col.name}")
        else:
            p = add_col(col.name, "original", cj)
            col_map.append([(p, 1.0)])
            shifts[j] = lo
            if up < INF:
                upper_rows.append((p, up - lo))
                log.append(f"upper bound of {col.name} becomes a row")
            if lo != 0.0:
                log.append(f"shift {col.name} by {lo}")

    # original objective = sign * (standard min value) + constant + shift part
    obj_shift = float(np.dot(lp.objective, shifts))

    for i, row in enumerate(lp.rows):
        lo, hi = row.interval()
        shift = sum(v * shifts[j] for j, v in lp.coefficients.row_entries(i))
        for j, v in lp.coefficients.row_entries(i):
            for nj, sgn in col_map[j]:
                entries.append((i, nj, sgn * v))
        if lo == hi:
            b.append(lo - shift)
        elif lo == -INF:
            s = add_col(f"_sl_{row.name}", "slack", 0.0)
            entries.append((i, s, 1.0))
            b.append(hi - shift)
        elif hi == INF:
            s = add_col(f"_su_{row.name}", "surplus", 0.0)
            entries.append((i, s, -1.0))
            b.append(lo - shift)
        else:
            # ranged row: slack with finite upper bound hi - lo
            s = add_col(f"_sl_{row.name}", "slack", 0.0)
            entries.append((i, s, 1.0))
            b.append(hi - shift)
            upper_rows.append((s, hi - lo))
            log.append(f"ranged row {row.name}: bounded slack added")

    m0 = len(lp.rows)
    for k, (jcol, width) in enumerate(upper_rows):
        t = add_col(f"_bs_{names[jcol]}", "bound_slack", 0.0)
        entries.append((m0 + k, jcol, 1.0))
        entries.append((m0 + k, t, 1.0))
        b.append(width)

    m, n = m0 + len(upper_rows), len(names)
    return StandardLP(
        A=SparseMatrix.from_entries(m, n, entries),
        b=np.asarray(b, dtype=float),
        c=np.asarray(cost, dtype=float),
        column_provenance=provenance,
        column_names=names,
        name=lp.name,
        objective_sign=sign,
        objective_constant=lp.objective_constant + obj_shift,
        transform_log=log,
    )


def ensure_full_row_rank(std: StandardLP) -> StandardLP:
    """Keep a maximal independent set of rows, checking rhs consistency.

    One column-pivoted Householder QR of the row-normalized A^T picks the
    rows: each step takes the row with the largest residual against the rows
    already picked, relative to its own norm (LAPACK breaks ties toward the
    earlier row), and stops once that residual falls to RANK_TOL. Every other
    row is a combination of the kept ones, read off the same R; its rhs must
    match the implied combination to RHS_CONSISTENCY_TOL or the LP is
    infeasible. Kept rows stay in their original order.
    """
    m = std.m
    if m == 0:
        return std
    dense = std.A.to_dense()
    norms = np.linalg.norm(dense, axis=1)
    scale = np.divide(1.0, norms, out=np.zeros(m), where=norms > 0.0)
    dense *= scale[:, None]
    r, piv = linalg.qr(dense.T, mode="r", pivoting=True, overwrite_a=True)
    rank = int(np.count_nonzero(np.abs(np.diagonal(r)) > RANK_TOL))
    # dropped row d = sum_k w[k, d] * kept row k, both rows scaled to unit norm
    w = linalg.solve_triangular(r[:rank, :rank], r[:rank, rank:])
    implied = norms[piv[rank:]] * ((std.b * scale)[piv[:rank]] @ w)
    log = list(std.transform_log)
    for i, value in sorted(zip(piv[rank:].tolist(), implied.tolist())):
        if abs(std.b[i] - value) > RHS_CONSISTENCY_TOL * (1.0 + abs(std.b[i])):
            raise InfeasibleProblem(
                f"row {i} is dependent on the kept rows but its rhs "
                f"{std.b[i]} conflicts with the implied value {value}")
        log.append(f"drop dependent row {i}")
    kept = np.sort(piv[:rank])
    return StandardLP(
        A=SparseMatrix(std.A.tocsr()[kept]), b=std.b[kept], c=std.c,
        column_provenance=std.column_provenance,
        column_names=std.column_names, name=std.name,
        objective_sign=std.objective_sign,
        objective_constant=std.objective_constant,
        transform_log=log)


def standardize(lp: GeneralLP) -> StandardLP:
    """Full pipeline: presolve, standard form, rank repair."""
    return ensure_full_row_rank(to_standard_form(presolve(lp)))
