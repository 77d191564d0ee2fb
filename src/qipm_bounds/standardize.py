"""Reduction of a GeneralLP to equality standard form with full row rank.

The pipeline order is fixed: presolve -> to_standard_form -> ensure_full_row_rank.
Presolve removes empty rows/columns, substitutes fixed variables and merges
positively scaled duplicate rows; standardization introduces slack/surplus
columns, shifts or splits bounded/free variables; rank repair keeps a maximal
independent set of rows and drops the rest after checking right-hand-side
consistency. core_basis makes the one rank-revealing decision, a slack crash,
then a guarded triangular crash or a core QR, that rank repair and
newton.select_basis both read.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np
from scipy import linalg, sparse
from scipy.sparse import linalg as sparse_linalg

from .lp_model import (INF, GeneralLP, SparseMatrix, StandardLP,
                       interval_rows)

# residual, relative to the row's norm, below which a row is dependent on
# the rows already kept
RANK_TOL = 1e-10
# consistency tolerance for the rhs of a dependent row
RHS_CONSISTENCY_TOL = 1e-9
# largest 1-norm condition estimate of a triangular crash block that
# core_basis accepts without the core QR
CRASH_COND_MAX = RANK_TOL ** -0.5


class InfeasibleProblem(Exception):
    """The LP was detected infeasible during preprocessing."""


class UnboundedProblem(Exception):
    """The LP was detected unbounded during preprocessing."""


def presolve(lp: GeneralLP) -> GeneralLP:
    """Remove vacuous structure from an LP, keeping it equivalent.

    Empty rows are dropped (or declared infeasible, as is any row whose lower
    end is +inf or whose upper end is -inf), so are rows with no finite end
    (an infinite RHS on a row's open side), empty columns are fixed
    at their best bound (or declared unbounded), variables with equal bounds
    are substituted out, and rows identical up to positive scaling are merged.
    The returned LP carries a transform log of every action taken. The
    coefficients never change: only the live row and column masks, the row
    intervals and the objective constant do. Its fields are masked copies
    of the input's, or the input's own arrays and lists where nothing was
    removed or changed.
    """
    lp.validate()
    sign = 1.0 if lp.objective_sense == "min" else -1.0
    log: list[str] = list(lp.transform_log)
    lower, upper = lp.lower, lp.upper
    _check_bounds(lp, finite_fixed=False)
    csr = lp.coefficients.tocsr()
    # canonical CSR: sorted, no explicit zeros, so every entry is a nonzero
    indptr, indices = csr.indptr, csr.indices
    entry_row = np.repeat(np.arange(lp.n_rows), np.diff(indptr))
    names, col_names = lp.row_names, lp.col_names
    lo0, hi0 = _row_intervals(lp)
    lo, hi = lo0.copy(), hi0.copy()
    # a row with no finite end bounds nothing, and no step gives it one
    live_r = (lo > -INF) | (hi < INF)
    for i in np.flatnonzero(~live_r).tolist():
        log.append(f"drop free row {names[i]}")
    live_c = np.ones(lp.n_cols, dtype=bool)
    fixed = lower == upper
    constant = lp.objective_constant

    changed = True
    while changed:
        # does the row meet a live column
        empty = live_r & ~np.bincount(entry_row[live_c[indices]],
                                      minlength=lp.n_rows).astype(bool)
        for i in np.flatnonzero(empty):
            if lo[i] > 0.0 or hi[i] < 0.0:
                raise InfeasibleProblem(
                    f"empty row {names[i]} requires activity in "
                    f"[{lo[i]}, {hi[i]}]")
            log.append(f"drop empty row {names[i]}")
        live_r &= ~empty
        changed = bool(empty.any())

        # fixing a column leaves the live rows, and so this test, unchanged
        empty = live_c & ~np.bincount(indices[live_r[entry_row]],
                                      minlength=lp.n_cols).astype(bool)
        for j in np.flatnonzero(live_c & (fixed | empty)).tolist():
            name, cost = col_names[j], float(lp.objective[j])
            col_lo, col_up = float(lower[j]), float(upper[j])
            if fixed[j]:
                if not math.isfinite(col_lo):
                    raise InfeasibleProblem(
                        f"variable {name} is fixed at a non-finite value")
                csc = lp.coefficients.tocsc()
                seg = slice(csc.indptr[j], csc.indptr[j + 1])
                rows = csc.indices[seg]
                on = live_r[rows]
                rows, shift = rows[on], csc.data[seg][on] * col_lo
                lo[rows] -= np.where(lo[rows] > -INF, shift, 0.0)
                hi[rows] -= np.where(hi[rows] < INF, shift, 0.0)
                log.append(f"substitute fixed variable {name} = {col_lo}")
                constant += cost * col_lo
            else:
                # empty column: objective decides its optimal bound
                eff_cost = sign * cost
                if eff_cost > 0.0:
                    best = col_lo
                elif eff_cost < 0.0:
                    best = col_up
                else:
                    best = col_lo if col_lo > -INF else \
                        (col_up if col_up < INF else 0.0)
                if not math.isfinite(best):
                    raise UnboundedProblem(
                        f"empty column {name} improves the objective "
                        "without bound")
                constant += cost * best
                log.append(f"fix empty column {name} at {best}")
            live_c[j] = False
            changed = True

        # A on the live columns, as CSR arrays with the original indices
        on = live_c[indices]
        sub_ptr = np.concatenate([[0], np.cumsum(on)])[indptr]
        if _merge_duplicate_rows(sub_ptr, indices[on], csr.data[on], live_r,
                                 lo, hi, names, log):
            changed = True

    # an untouched row keeps its fields, so its ends stay exact; a row
    # whose interval changed is rebuilt from it
    row_fields = (lp.sense, lp.rhs, lp.ranges, lp.row_lower)
    touched = (lo != lo0) | (hi != hi0)
    if touched.any():
        row_fields = tuple(np.where(touched, new, old) for new, old in
                           zip(interval_rows(lo, hi), row_fields))
    all_rows, all_cols = bool(live_r.all()), bool(live_c.all())
    if not all_rows:
        row_fields = tuple(a[live_r] for a in row_fields)
    sense, rhs, ranges, row_lower = row_fields
    return GeneralLP(
        name=lp.name, objective_sense=lp.objective_sense,
        objective_name=lp.objective_name,
        row_names=names if all_rows else
        [names[i] for i in np.flatnonzero(live_r).tolist()],
        sense=sense, rhs=rhs, ranges=ranges, row_lower=row_lower,
        col_names=col_names if all_cols else
        [col_names[j] for j in np.flatnonzero(live_c).tolist()],
        lower=lower if all_cols else lower[live_c],
        upper=upper if all_cols else upper[live_c],
        coefficients=lp.coefficients if all_rows and all_cols
        else SparseMatrix(csr[live_r][:, live_c]),
        objective=lp.objective if all_cols
        else np.asarray(lp.objective, dtype=float)[live_c],
        objective_constant=constant,
        warnings=list(lp.warnings), transform_log=log)


def _row_intervals(lp: GeneralLP) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) arrays of the rows' activity intervals. A row whose
    lower end is +inf or whose upper end is -inf raises InfeasibleProblem."""
    lo, hi = lp.intervals()
    bad = (lo == INF) | (hi == -INF)
    if bad.any():
        i = int(np.argmax(bad))
        raise InfeasibleProblem(
            f"row {lp.row_names[i]} requires activity in [{lo[i]}, {hi[i]}]")
    return lo, hi


def _check_bounds(lp: GeneralLP, finite_fixed: bool) -> None:
    """Raise InfeasibleProblem on the first column with lower > upper and,
    when `finite_fixed`, ValueError on the first column fixed at an
    infinite value, whichever comes first."""
    bad = lp.lower > lp.upper
    if finite_fixed:
        bad |= (lp.lower == lp.upper) & ~np.isfinite(lp.lower)
    if bad.any():
        j = int(np.argmax(bad))
        name, lo, up = lp.col_names[j], float(lp.lower[j]), float(lp.upper[j])
        if lo > up:
            raise InfeasibleProblem(
                f"variable {name} has empty bound interval [{lo}, {up}]")
        raise ValueError(f"variable {name} is fixed at a non-finite value")


def _merge_duplicate_rows(indptr, indices, data, live_r, lo, hi, names,
                          log) -> bool:
    """Merge live rows of A on the live columns, given by its sorted CSR
    arrays, whose coefficient vectors agree up to positive scaling into the
    first such row.

    Only rows that share their sparsity pattern with another live row can
    merge; a hash of each row's pattern and nonzero count picks them out,
    and only they are compared exactly. Two intervals that cross by no more
    than the tolerance merge into an equality between the crossed ends.
    """
    nnz = np.diff(indptr)
    # pattern hash: the nonzero count plus a wrapping sum of mixed indices
    mixed = (indices.astype(np.uint64) + 1) * np.uint64(0x9E3779B97F4A7C15)
    acc = np.zeros(len(indices) + 1, dtype=np.uint64)
    np.cumsum(mixed ^ (mixed >> np.uint64(29)), out=acc[1:])
    cand = np.flatnonzero(live_r & (nnz > 0))
    hashes = (acc[indptr[1:]] - acc[indptr[:-1]] + nnz.astype(np.uint64))[cand]
    ordered = np.sort(hashes)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    if not shared.size:
        return False
    merged = False
    first_of: dict[tuple, tuple[int, float]] = {}
    for i in cand[np.isin(hashes, shared)].tolist():
        seg = slice(indptr[i], indptr[i + 1])
        vals = data[seg]
        first = vals[0]
        key = (first > 0, indices[seg].tobytes(),
               tuple((vals / first).tolist()))
        if key not in first_of:
            first_of[key] = (i, first)
            continue
        k, first_k = first_of[key]
        alpha = first / first_k  # row_i = alpha * row_k, alpha > 0
        new_lo = max(lo[k], lo[i] / alpha if lo[i] > -INF else -INF)
        new_hi = min(hi[k], hi[i] / alpha if hi[i] < INF else INF)
        if new_lo > new_hi + 1e-12 * max(1.0, abs(new_lo)):
            raise InfeasibleProblem(
                f"rows {names[k]} and {names[i]} are positively scaled "
                "duplicates with disjoint intervals")
        if new_lo > new_hi:
            new_lo = new_hi = 0.5 * (new_lo + new_hi)
        lo[k], hi[k] = new_lo, new_hi
        live_r[i] = False
        log.append(f"merge duplicate row {names[i]} into {names[k]}")
        merged = True
    return merged


def to_standard_form(lp: GeneralLP) -> StandardLP:
    """Convert a (presolved) GeneralLP to min c'x, Ax = b, x >= 0.

    Inequality rows gain slack/surplus columns; a ranged row gets a slack
    with a finite upper bound which, like every two-sided variable bound,
    becomes an extra equality row with its own bound slack. Free variables
    split into positive/negative parts; max objectives are negated. A column
    with lower > upper, like a row whose lower end is +inf or whose upper
    end is -inf, raises InfeasibleProblem; a column fixed at an infinite
    value, like a row with no finite end (presolve drops those), raises
    ValueError.
    """
    lp.validate()
    _check_bounds(lp, finite_fixed=True)
    lower, upper = lp.lower, lp.upper
    sign = 1.0 if lp.objective_sense == "min" else -1.0
    log = list(lp.transform_log)

    # x = shifts + T x' with T the +-1 map of free splits and mirrors; a
    # free column takes two new columns, every other column one
    free = (lower == -INF) & (upper == INF)
    mirror = (lower == -INF) & ~free  # x' = up - x >= 0
    bounded = (lower != -INF) & (upper < INF)  # upper bound becomes a row
    width = 1 + free.astype(np.intp)
    t_ptr = np.concatenate([[0], np.cumsum(width)])
    first = t_ptr[:-1]  # first new column of each
    n_struct = int(t_ptr[-1])
    t_val = np.ones(n_struct)
    t_val[first[mirror]] = -1.0
    t_val[first[free] + 1] = -1.0
    shifts = np.where(mirror, upper, np.where(free, 0.0, lower))
    cost = np.repeat(sign * np.asarray(lp.objective, dtype=float),
                     width) * t_val

    # a free or mirrored column has lower -inf, so this names them all
    for j in np.flatnonzero((lower != 0.0) | bounded).tolist():
        name, lo = lp.col_names[j], float(lower[j])
        if free[j]:
            log.append(f"split free variable {name}")
        elif mirror[j]:
            log.append(f"mirror upper-bounded variable {name}")
        else:
            if bounded[j]:
                log.append(f"upper bound of {name} becomes a row")
            if lo != 0.0:
                log.append(f"shift {name} by {lo}")

    a = lp.coefficients.tocsr()
    structural = a @ sparse.csr_matrix(
        (t_val, np.arange(n_struct), t_ptr),
        shape=(lp.n_cols, n_struct))
    # original objective = sign * (standard min value) + constant + shift part
    obj_shift = float(np.dot(lp.objective, shifts))
    row_shifts = a @ shifts  # each row summed in CSR order

    # rows: = keeps its rhs, <= gains a slack, >= a surplus, and a ranged
    # row a slack bounded by the range width
    lo, hi = _row_intervals(lp)
    free = (lo == -INF) & (hi == INF)
    if free.any():
        raise ValueError(f"row {lp.row_names[int(np.argmax(free))]} has no "
                         "finite end, so it has no right-hand side")
    eq = lo == hi
    surplus = ~eq & (lo != -INF) & (hi == INF)
    ranged = ~eq & (lo != -INF) & (hi != INF)
    b_rows = np.where(eq | surplus, lo, hi) - row_shifts
    slack_rows = np.flatnonzero(~eq)
    m0, n_slack = lp.n_rows, len(slack_rows)
    for i in np.flatnonzero(ranged).tolist():
        log.append(f"ranged row {lp.row_names[i]}: bounded slack added")

    # one bound row per finite width, bounded columns first, then ranged
    # slacks: its column and its own bound slack, both with coefficient 1
    bound_cols = np.concatenate(
        [first[bounded], n_struct + np.flatnonzero(ranged[slack_rows])])
    widths = np.concatenate([(upper - lower)[bounded], (hi - lo)[ranged]])
    n_bound = len(bound_cols)
    m, n = m0 + n_bound, n_struct + n_slack + n_bound

    # A: the structural entries, one slack entry per inequality row, and
    # per bound row its column and its bound slack
    st = structural.tocoo()
    entries = np.column_stack((
        np.concatenate([st.row, slack_rows,
                        np.repeat(m0 + np.arange(n_bound), 2)]),
        np.concatenate([st.col, n_struct + np.arange(n_slack), np.column_stack(
            (bound_cols, n - n_bound + np.arange(n_bound))).ravel()]),
        np.concatenate([st.data, np.where(surplus[slack_rows], -1.0, 1.0),
                        np.ones(2 * n_bound)])))
    return StandardLP(
        A=SparseMatrix.from_entries(m, n, entries),
        b=np.concatenate([b_rows, widths]),
        c=np.concatenate([cost, np.zeros(n_slack + n_bound)]),
        name=lp.name,
        objective_sign=sign,
        objective_constant=lp.objective_constant + obj_shift,
        transform_log=log,
    )


def private_singletons(A: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Rows that own a column no other row touches, each with that column.

    Such a row has a zero coefficient in every linear dependency among the
    rows, so it is independent of all the others. A row counts only when its
    private entry exceeds RANK_TOL times the row's 2-norm, the tolerance rank
    repair applies. A row with several private columns reports the one with
    the largest entry, the earliest on ties. Returns (rows, columns), rows
    ascending. core_basis builds on them.
    """
    csc = A.tocsc()
    cols = np.flatnonzero(np.diff(csc.indptr) == 1)
    rows = csc.indices[csc.indptr[cols]]
    vals = np.abs(csc.data[csc.indptr[cols]])
    norms = sparse_linalg.norm(A.tocsr(), axis=1)
    on = vals > RANK_TOL * norms[rows]
    rows, cols, vals = rows[on], cols[on], vals[on]
    order = np.lexsort((cols, -vals, rows))
    rows, cols = rows[order], cols[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    return rows[first], cols[first]


def _unit_row_block(A: SparseMatrix, rows: np.ndarray, order: str = "C"):
    """Dense block of A's `rows` over the columns they touch, each nonzero
    row scaled to unit 2-norm (the scale RANK_TOL applies to). Returns
    (block, columns, norms, scale), with scale 0 on zero rows.

    The rows are scaled while sparse, so the block is the only dense array.
    A norm sums the squares in column order, as a reduction over the
    columns of the Fortran-ordered dense block does.
    """
    sub = A.tocsr()[rows]
    cols = np.unique(sub.indices)
    sub = sub[:, cols]
    norms = np.sqrt(sub.power(2) @ np.ones(len(cols)))
    scale = np.divide(1.0, norms, out=np.zeros(len(rows)), where=norms > 0.0)
    sub.data *= np.repeat(scale, np.diff(sub.indptr))
    return sub.toarray(order=order), cols, norms, scale


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-pivoted Householder QR of the Fortran-ordered float array `a`,
    in place.

    Calls LAPACK geqp3 after the same workspace query scipy.linalg.qr makes,
    so the factor is bit-identical to scipy's, but without its full-size
    copy of R. Returns the overwritten `a`, whose upper triangle is R, and
    the 0-based pivot order.
    """
    if a.size == 0:
        return a, np.arange(a.shape[1])
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError("array must not contain infs or NaNs")
    geqp3, = linalg.get_lapack_funcs(("geqp3",), (a,))
    work = geqp3(a, lwork=-1, overwrite_a=True)[3]
    qr, jpvt, _, _, info = geqp3(a, lwork=work[0].real.astype(np.int_),
                                 overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqp3")
    return qr, jpvt - 1


def _triangular_crash(A: SparseMatrix, rest: np.ndarray) -> np.ndarray | None:
    """Columns of a triangular block on the `rest` rows, or None.

    First in, first out, starting from the columns in ascending order: a
    column with exactly one nonzero among the uncovered rows of `rest`
    covers that row, when its entry has the largest magnitude in both its
    row and its column of A (ties allowed). Pivot order makes the block
    A[pivot rows][:, pivot columns] upper triangular. Returns its columns in
    pivot order only when it covers every row of `rest` and its 1-norm
    condition estimate, ||T||_1 times onenormest of T^-1 through one LU,
    is at most CRASH_COND_MAX.
    """
    csr, csc = A.tocsr(), A.tocsc()
    magnitude = abs(csr)
    row_max = magnitude.max(axis=1).toarray().ravel().tolist()
    col_max = magnitude.max(axis=0).toarray().ravel().tolist()
    uncovered = np.zeros(A.n_rows, dtype=bool)
    uncovered[rest] = True
    count = np.bincount(csr[rest].indices, minlength=A.n_cols)
    queue = collections.deque(np.flatnonzero(count == 1).tolist())
    count, uncovered = count.tolist(), uncovered.tolist()
    r_ptr, r_idx = csr.indptr.tolist(), csr.indices.tolist()
    c_ptr, c_idx, c_val = (csc.indptr.tolist(), csc.indices.tolist(),
                           csc.data.tolist())
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    while queue:
        j = queue.popleft()
        if count[j] != 1:
            continue  # its last uncovered row went to another column
        k = next(k for k in range(c_ptr[j], c_ptr[j + 1])
                 if uncovered[c_idx[k]])
        i, value = c_idx[k], abs(c_val[k])
        if value < row_max[i] or value < col_max[j]:
            continue  # count[j] can only fall to 0, so j is done
        uncovered[i] = False
        pivot_rows.append(i)
        pivot_cols.append(j)
        for jj in r_idx[r_ptr[i]:r_ptr[i + 1]]:
            count[jj] -= 1
            if count[jj] == 1:
                queue.append(jj)
    if len(pivot_rows) < rest.size:
        return None
    block = csr[pivot_rows][:, pivot_cols].tocsc()
    lu = sparse_linalg.splu(block)
    inverse = sparse_linalg.LinearOperator(
        block.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, "T"),
        dtype=float)
    # t=1 takes no random columns, so the estimate is deterministic
    norm_inverse = sparse_linalg.onenormest(inverse, t=1)
    if sparse_linalg.norm(block, 1) * norm_inverse > CRASH_COND_MAX:
        return None
    return np.asarray(pivot_cols, dtype=np.intp)


@functools.lru_cache(maxsize=1)
def core_basis(A: SparseMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                         int]:
    """Which rows of A are independent, and the columns that show it.

    The slack crash: each row `private_singletons` reports (`covered`)
    takes its private column. The other rows (`rest`) can only depend on
    each other. `_triangular_crash` covers them with dominant pivots when
    it can, and its block is well conditioned; then they are independent.
    Otherwise one column-pivoted Householder QR of their row-normalized
    dense block, over only the columns they touch, picks their columns in
    pivot order, and `rank` counts the pivots with |R_kk| > RANK_TOL. No
    QR runs when every row is covered or the crash is taken. A[:, basic] is
    block upper triangular, so it is nonsingular exactly when rank ==
    rest.size. Returns read-only (covered, rest, basic, rank), `basic`
    being covered's columns, then the core's. The last A is cached on
    `A.digest()`, which SparseMatrix's equality and hash read, so rank
    repair and the basis share one decision, and so do LPs whose standard
    forms differ only outside A, such as in b.
    """
    covered, basic = private_singletons(A)
    rest = np.setdiff1d(np.arange(A.n_rows), covered, assume_unique=True)
    rank = rest.size
    if rest.size:
        core = _triangular_crash(A, rest)
        if core is None:
            dense, cols, _, _ = _unit_row_block(A, rest, order="F")
            r, piv = _pivoted_qr(dense)
            rank = int(np.count_nonzero(np.abs(np.diagonal(r)) > RANK_TOL))
            core = cols[piv[:rank]]
        basic = np.concatenate([basic, core])
    for arr in (covered, rest, basic):
        arr.flags.writeable = False
    return covered, rest, basic, rank


def ensure_full_row_rank(std: StandardLP) -> StandardLP:
    """Keep a maximal independent set of rows, checking rhs consistency.

    core_basis decides the rank; when every row is independent, `std` comes
    back as it is. Otherwise a column-pivoted QR of the transposed core
    block picks `rank` rows of `rest`, each step taking the row with the
    largest residual against the rows already picked, relative to its own
    norm (LAPACK breaks ties toward the earlier row). Every other row of
    `rest` is a combination of the kept ones, read off the same R; its rhs
    must match the implied combination to RHS_CONSISTENCY_TOL or the LP is
    infeasible. Kept rows stay in their original order.
    """
    covered, rest, _, rank = core_basis(std.A)
    if rank == rest.size:
        return std
    log = list(std.transform_log)
    dense, _, norms, scale = _unit_row_block(std.A, rest)
    r, piv = _pivoted_qr(dense.T)
    # dropped row d = sum_k w[k, d] * kept row k, all scaled to unit norm
    w = linalg.solve_triangular(r[:rank, :rank], r[:rank, rank:])
    implied = norms[piv[rank:]] * ((std.b[rest] * scale)[piv[:rank]] @ w)
    for i, value in sorted(zip(rest[piv[rank:]].tolist(), implied.tolist())):
        if abs(std.b[i] - value) > RHS_CONSISTENCY_TOL * (1.0 + abs(std.b[i])):
            raise InfeasibleProblem(
                f"row {i} is dependent on the kept rows but its rhs "
                f"{std.b[i]} conflicts with the implied value {value}")
        log.append(f"drop dependent row {i}")
    kept = np.sort(np.concatenate([covered, rest[piv[:rank]]]))
    return StandardLP(
        A=SparseMatrix(std.A.tocsr()[kept]), b=std.b[kept], c=std.c,
        name=std.name,
        objective_sign=std.objective_sign,
        objective_constant=std.objective_constant,
        transform_log=log)


def standardize(lp: GeneralLP) -> StandardLP:
    """Full pipeline: presolve, standard form, rank repair."""
    return ensure_full_row_rank(to_standard_form(presolve(lp)))
